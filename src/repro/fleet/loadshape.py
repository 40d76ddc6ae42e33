"""Trace-driven load shapes: diurnal and flash-crowd arrival modulation.

A :class:`LoadShape` is a piecewise-constant multiplier trace over fixed-width
epochs: epoch ``e`` of a fleet day offers ``offered_qps * multiplier(e)``.
Shapes built through :meth:`LoadShape.from_trace` are normalized so the
multipliers average exactly 1.0 -- a shaped day offers the same total load as
the stationary baseline, so cost comparisons across shapes are apples to
apples.

The *empty* shape is the stationary baseline: ``multiplier()`` is 1.0 for
every epoch, and the fleet engine's contract (enforced byte-for-byte by the
equivalence suite) is that an empty shape produces results identical to a
flat all-ones trace of any length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LoadShape:
    """A per-epoch arrival-rate multiplier trace.

    Attributes:
        multipliers: one non-negative multiplier per epoch; empty means the
            stationary baseline (every epoch at exactly 1.0).
        epoch_s: width of one epoch in seconds.
    """

    multipliers: "tuple[float, ...]" = ()
    epoch_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if any(m < 0 or not math.isfinite(m) for m in self.multipliers):
            raise ValueError("multipliers must be finite and non-negative")

    @classmethod
    def from_trace(
        cls, values: "Sequence[float]", epoch_s: float = 3600.0
    ) -> "LoadShape":
        """Build a shape from a raw trace, normalized to mean exactly 1.0.

        ``values`` can be any non-negative load signal (requests per epoch
        from a production log, a synthetic curve); only its *shape* survives
        normalization, so the fleet's ``offered_qps`` stays the day's mean.
        """
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("a trace needs at least one epoch")
        mean = sum(values) / len(values)
        if mean <= 0:
            raise ValueError("a trace must carry some load")
        return cls(
            multipliers=tuple(v / mean for v in values), epoch_s=epoch_s
        )

    @classmethod
    def flat(cls, num_epochs: int, epoch_s: float = 3600.0) -> "LoadShape":
        """An explicit all-ones trace (equals the empty shape byte-for-byte)."""
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        return cls(multipliers=(1.0,) * num_epochs, epoch_s=epoch_s)

    @property
    def num_epochs(self) -> int:
        """Trace length; 0 for the stationary (empty) shape."""
        return len(self.multipliers)

    def multiplier(self, epoch: int) -> float:
        """The rate multiplier of ``epoch`` (1.0 beyond or without a trace)."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        if epoch < len(self.multipliers):
            return self.multipliers[epoch]
        return 1.0

    @property
    def peak_epoch(self) -> int:
        """Epoch index with the largest multiplier (0 for the empty shape)."""
        if not self.multipliers:
            return 0
        return max(range(len(self.multipliers)), key=lambda e: (self.multipliers[e], -e))


#: A 24-epoch diurnal curve: quiet overnight trough, morning ramp, evening
#: peak near 2x the mean -- the classic consumer-service daily cycle.
DIURNAL_24 = LoadShape.from_trace(
    tuple(
        1.0 + 0.75 * math.sin((hour - 8.0) * math.pi / 12.0)
        for hour in range(24)
    )
)

#: A 24-epoch flash-crowd trace: a stationary day with a 3-hour spike at
#: ~2.6x the mean (epochs 12-14) -- the event the spillover and autoscaling
#: policies exist for.
FLASH_CROWD_24 = LoadShape.from_trace(
    tuple(0.85 if not 12 <= hour <= 14 else 3.0 for hour in range(24))
)
