"""The paper's primary contribution: pods, Scale-Out chips, and the design methodology."""

from repro.perfmodel.analytic import Pod
from repro.core.chip import ScaleOutChip
from repro.core.methodology import (
    PodSweepPoint,
    ScaleOutDesignMethodology,
    design_scale_out_processor,
)
from repro.core.designs import (
    DesignSpec,
    build_conventional,
    build_tiled,
    build_llc_optimal_tiled,
    build_llc_optimal_tiled_ir,
    build_ideal,
    build_scale_out,
    build_single_pod,
    standard_designs,
)
from repro.core.comparison import DesignComparison, DesignRow, compare_designs

__all__ = [
    "Pod",
    "ScaleOutChip",
    "PodSweepPoint",
    "ScaleOutDesignMethodology",
    "design_scale_out_processor",
    "DesignSpec",
    "build_conventional",
    "build_tiled",
    "build_llc_optimal_tiled",
    "build_llc_optimal_tiled_ir",
    "build_ideal",
    "build_scale_out",
    "build_single_pod",
    "standard_designs",
    "DesignComparison",
    "DesignRow",
    "compare_designs",
]
