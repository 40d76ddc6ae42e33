"""Cache models: LLC banks and NUCA organizations."""

from repro.caches.bank import CacheBank
from repro.caches.nuca import NucaLLC

__all__ = ["CacheBank", "NucaLLC"]
