"""Set-associative cache model with LRU replacement."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache structure."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0


class _LazySets(dict):
    """Set index -> LRU ``dict[tag, dirty]``, each set built on first access.

    :meth:`SetAssociativeCache.fill_ranges` leaves the sets it installs as
    runs of consecutive indices that hold identical tags: a set not built
    yet is built from its run's template, and any other set starts empty.

    Attributes:
        starts: the first set index of each run, ascending from 0.
        templates: per run, the set its pending sets are copied from: the
            tags they hold, LRU first, all clean (empty for a run that holds
            nothing).  Copying a dict is several times faster than building
            one from its keys.
        pending_lines: lines held by the templated sets not yet built.
    """

    __slots__ = ("starts", "templates", "pending_lines")

    def __init__(self) -> None:
        super().__init__()
        self.starts: "list[int]" = [0]
        self.templates: "list[dict[int, bool]]" = [{}]
        self.pending_lines = 0

    def __missing__(self, index: int) -> "dict[int, bool]":
        cache_set: "dict[int, bool]" = {}
        if self.pending_lines:
            template = self.templates[bisect_right(self.starts, index) - 1]
            if template:
                self.pending_lines -= len(template)
                cache_set = template.copy()
        self[index] = cache_set
        return cache_set

    def build_pending(self, num_sets: int) -> None:
        """Build every templated set not built yet."""
        if self.pending_lines:
            ends = self.starts[1:] + [num_sets]
            for start, end, template in zip(self.starts, ends, self.templates):
                if template:
                    for index in range(start, end):
                        if index not in self:
                            self[index]


class SetAssociativeCache:
    """A set-associative, LRU-replacement cache.

    One LLC bank.  The model tracks residency and dirtiness only; data
    values are irrelevant to the studies.  The measured window
    (``SimulatedSystem._run_window``) looks up and updates the sets itself;
    :meth:`fill` and :meth:`fill_ranges` install lines.

    Args:
        capacity_bytes: total cache capacity in bytes; at least one set
            (``associativity * line_bytes``).
        associativity: ways per set.
        line_bytes: cache line size.
        name: human-readable name used in debugging output.
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int = 16,
        line_bytes: int = 64,
        name: str = "cache",
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if capacity_bytes < associativity * line_bytes:
            raise ValueError(
                f"capacity_bytes must hold at least one set "
                f"({associativity} ways x {line_bytes} B = {associativity * line_bytes} B), "
                f"got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = capacity_bytes // line_bytes // associativity
        # Each set is an insertion-ordered dict tag -> dirty in LRU order
        # (first = LRU, last = MRU); a hit re-inserts its tag at the end.
        # Sets are built on first access (see fill_ranges).
        self._sets = _LazySets()
        self.stats = CacheStats()

    # --------------------------------------------------------------- indexing
    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        line_addr = address // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    # ------------------------------------------------------------------- fill
    def fill(self, address: int, dirty: bool = False) -> "int | None":
        """Install the line holding ``address``; returns the evicted line address, if any."""
        index, tag = self._index_and_tag(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set[tag] = cache_set.pop(tag) or dirty
            return None
        evicted_address: "int | None" = None
        if len(cache_set) >= self.associativity:
            victim_tag = next(iter(cache_set))
            self.stats.evictions += 1
            if cache_set.pop(victim_tag):
                self.stats.writebacks += 1
            evicted_address = (victim_tag * self.num_sets + index) * self.line_bytes
        cache_set[tag] = dirty
        return evicted_address

    def fill_ranges(self, ranges: "list[tuple[int, int]]") -> None:
        """Install lines ``first .. first + count - 1`` of each ``(first, count)``
        range clean, range by range, as one :meth:`fill` per line would.

        Lines are addresses divided by ``line_bytes``; overlapping ranges
        raise ``ValueError`` before anything changes.  Range ``[F, F + c)``
        gives set ``s`` the tags ``range(t, t + n)``, where ``(base, phase) =
        divmod(F, S)``, ``(q, rem) = divmod(c, S)``, ``t = base + (s <
        phase)`` and ``n = q + ((s - phase) % S < rem)``; so the sets split
        at each ``phase`` and ``(phase + rem) % S`` into at most ``2R + 1``
        runs that receive the same distinct tags.  An empty set keeps the
        last ``associativity`` of them, clean, and evicts the rest unwritten:
        each run counts its evictions and lines at once and keeps those tags
        as the template its sets are built from on first read.  Occupied
        sets replay their lines through :meth:`fill`; sets still pending
        from an earlier call are built first.
        """
        ranges = [(first, count) for first, count in ranges if count]
        end = None
        for first, count in sorted(ranges):
            if count < 0:
                raise ValueError(f"fill_ranges needs counts >= 0, got range ({first}, {count})")
            if end is not None and first < end:
                raise ValueError(
                    f"fill_ranges needs disjoint ranges, got {previous} and ({first}, {count}) "
                    f"as (first line, count)"
                )
            previous, end = (first, count), first + count
        if not ranges:
            return
        num_sets, ways = self.num_sets, self.associativity
        sets = self._sets
        sets.build_pending(num_sets)
        shapes = []  # per range: (base, phase, q, rem)
        starts = {0}
        for first, count in ranges:
            base, phase = divmod(first, num_sets)
            q, rem = divmod(count, num_sets)
            shapes.append((base, phase, q, rem))
            starts.update((phase, (phase + rem) % num_sets))
        starts = sorted(starts)

        def given(index: int) -> "list[range]":
            """The tags the ranges give set ``index``, range by range."""
            tags = []
            for base, phase, q, rem in shapes:
                first_tag = base + (index < phase)
                tags.append(range(first_tag, first_tag + q + ((index - phase) % num_sets < rem)))
            return tags

        occupied = []
        for index in sorted(sets):
            if sets[index]:
                occupied.append(index)
            else:
                del sets[index]  # an empty set built by an earlier read
        templates = []
        pending = evicted = 0
        for start, stop in zip(starts, starts[1:] + [num_sets]):
            received = tuple(chain.from_iterable(given(start)))
            template = dict.fromkeys(received[-ways:], False)
            templates.append(template)
            width = stop - start - (bisect_left(occupied, stop) - bisect_left(occupied, start))
            pending += width * len(template)
            evicted += width * (len(received) - len(template))
        sets.starts, sets.templates, sets.pending_lines = starts, templates, pending
        self.stats.evictions += evicted
        for index in occupied:
            for tag in chain.from_iterable(given(index)):
                self.fill((tag * num_sets + index) * self.line_bytes)

    # ------------------------------------------------------------------ sizes
    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(map(len, self._sets.values())) + self._sets.pending_lines
