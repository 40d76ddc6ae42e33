"""Experiment harness: one module per evaluation chapter.

Each function regenerates the data behind one of the paper's tables or figures
and returns plain dictionaries/lists that the benchmark harness prints.  The
mapping from experiment id to function is in :mod:`repro.experiments.registry`.
"""
