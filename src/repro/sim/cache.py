"""Set-associative cache model with LRU replacement and MSHR accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache structure."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        """Fraction of accesses that missed (0 when the cache was never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class _LazySets(dict):
    """Set index -> LRU ``dict[tag, dirty]``, each set built on first access.

    A set that the last :meth:`SetAssociativeCache.fill_lines` planned is
    built from its slice of the plan's tags; any other set starts empty.

    Attributes:
        tags: the planned tags, grouped by set, each group in fill order.
        lo: per set index, where the set's kept tags start in ``tags``.
        hi: per set index, where they end; ``lo == hi`` for an unplanned set.
        pending_lines: lines held by the planned sets not yet built.
    """

    __slots__ = ("tags", "lo", "hi", "pending_lines")

    def __init__(self) -> None:
        super().__init__()
        self.tags: "np.ndarray | None" = None
        self.lo: "list[int]" = []
        self.hi: "list[int]" = []
        self.pending_lines = 0

    def __missing__(self, index: int) -> "dict[int, bool]":
        cache_set: "dict[int, bool]" = {}
        if self.pending_lines:
            lo, hi = self.lo[index], self.hi[index]
            if lo < hi:
                self.pending_lines -= hi - lo
                cache_set = dict.fromkeys(self.tags[lo:hi].tolist(), False)
        self[index] = cache_set
        return cache_set

    def build_pending(self) -> None:
        """Build every planned set not built yet."""
        if self.pending_lines:
            for index, (lo, hi) in enumerate(zip(self.lo, self.hi)):
                if lo < hi and index not in self:
                    self[index]


class SetAssociativeCache:
    """A set-associative, LRU-replacement cache.

    Used both for per-core L1 caches and for individual LLC banks.  The model
    tracks residency and dirtiness only; data values are irrelevant to the
    studies.

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
        # Sets are built on first access (see fill_lines).
        self._sets = _LazySets()
        self.stats = CacheStats()

    # --------------------------------------------------------------- indexing
    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        line_addr = address // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    # ----------------------------------------------------------------- lookup
    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no LRU update, no stats)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets[index]

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the cache; returns True on a hit.

        Misses do *not* allocate -- call :meth:`fill` when the refill arrives so
        the timing model controls allocation order.
        """
        self.stats.accesses += 1
        index, tag = self._index_and_tag(address)
        cache_set = self._sets[index]
        dirty = cache_set.pop(tag, None)
        if dirty is None:
            self.stats.misses += 1
            return False
        cache_set[tag] = dirty or is_write
        self.stats.hits += 1
        return True

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

    def fill_lines(self, addresses: "np.ndarray | list[int]") -> None:
        """Install the lines holding ``addresses`` clean, in order.

        Leaves the same sets and :class:`CacheStats` as ``fill(a)`` for each
        address in turn, from any starting state.  Sets are independent, so
        each is handled on its own: an empty set that receives distinct tags
        ends up holding the last ``associativity`` of them, in fill order and
        clean, and every earlier tag is one eviction of a clean line (no
        writeback).  Such a set is not built here: its evictions are counted
        now, and it keeps a plan -- its slice of the tags grouped by set --
        from which its LRU dict is built the first time anything reads it.
        A set that is already occupied, or that receives a tag twice,
        replays its own addresses through :meth:`fill`.  Sets still pending
        from an earlier call are built first.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return
        sets = self._sets
        sets.build_pending()
        line_addrs = addresses // self.line_bytes
        tags, set_indices = np.divmod(line_addrs, self.num_sets)
        order = np.argsort(set_indices, kind="stable")
        # Set s receives addresses[order[ends[s] - counts[s]:ends[s]]], in order.
        counts = np.bincount(set_indices, minlength=self.num_sets)
        ends = np.cumsum(counts)
        replay = np.zeros(self.num_sets, dtype=bool)
        # A stable sort merges ascending runs, such as a warm-up's regions, in
        # linear time.
        ordered = np.sort(line_addrs, kind="stable")
        replay[ordered[1:][ordered[1:] == ordered[:-1]] % self.num_sets] = True
        replay[[index for index, cache_set in sets.items() if cache_set]] = True
        # Only the last ``associativity`` tags of a set survive its fills.
        kept = np.where(replay, 0, np.minimum(counts, self.associativity))
        lo = ends - kept
        for index in np.flatnonzero(kept).tolist() if sets else ():
            sets.pop(index, None)  # an empty set built by an earlier read
        sets.tags = tags[order]
        sets.lo, sets.hi = lo.tolist(), ends.tolist()
        sets.pending_lines = int(kept.sum())
        self.stats.evictions += int((counts - kept)[~replay].sum())
        for index in np.flatnonzero(replay & (counts > 0)).tolist():
            for position in order[ends[index] - counts[index] : ends[index]].tolist():
                self.fill(int(addresses[position]))

    def invalidate(self, address: int) -> bool:
        """Remove the line holding ``address``; returns True if it was resident."""
        index, tag = self._index_and_tag(address)
        return self._sets[index].pop(tag, None) is not None

    # ------------------------------------------------------------------ sizes
    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(map(len, self._sets.values())) + self._sets.pending_lines
