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


class SetAssociativeCache:
    """A set-associative, LRU-replacement cache.

    Used both for per-core L1 caches and for individual LLC banks.  The model
    tracks residency and dirtiness only; data values are irrelevant to the
    studies.

    Args:
        capacity_bytes: total cache capacity in bytes.
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
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.name = name
        lines = max(1, capacity_bytes // line_bytes)
        self.num_sets = max(1, lines // associativity)
        # Each set is an insertion-ordered dict tag -> dirty in LRU order
        # (first = LRU, last = MRU); a hit re-inserts its tag at the end.
        self._sets: "list[dict[int, bool]]" = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # --------------------------------------------------------------- indexing
    def _index_and_tag(self, address: int) -> "tuple[int, int]":
        line_addr = address // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    def line_address(self, address: int) -> int:
        """Line-aligned address for ``address``."""
        return (address // self.line_bytes) * self.line_bytes

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
        each is built on its own: an empty set that receives distinct tags
        ends up holding the last ``associativity`` of them, in fill order and
        clean, and every earlier tag is one eviction of a clean line (no
        writeback).  A set that is already occupied, or that receives a tag
        twice, replays its own addresses through :meth:`fill`.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return
        line_addrs = addresses // self.line_bytes
        set_indices = line_addrs % self.num_sets
        order = np.argsort(set_indices, kind="stable")
        indices = set_indices[order]
        starts = np.flatnonzero(np.diff(indices, prepend=-1))
        ends = np.append(starts[1:], indices.size)
        sorted_lines = np.sort(line_addrs)
        repeated = sorted_lines[1:][sorted_lines[1:] == sorted_lines[:-1]]
        repeated_sets = set((repeated % self.num_sets).tolist())
        tags = (line_addrs[order] // self.num_sets).tolist()
        # Only the last ``associativity`` tags of a set survive its fills.
        kept_from = np.maximum(starts, ends - self.associativity)
        sets = self._sets
        for index, start, kept, end in zip(
            indices[starts].tolist(), starts.tolist(), kept_from.tolist(), ends.tolist()
        ):
            if sets[index] or index in repeated_sets:
                for position in order[start:end].tolist():
                    self.fill(int(addresses[position]))
                continue
            sets[index] = dict.fromkeys(tags[kept:end], False)
            self.stats.evictions += kept - start

    def invalidate(self, address: int) -> bool:
        """Remove the line holding ``address``; returns True if it was resident."""
        index, tag = self._index_and_tag(address)
        return self._sets[index].pop(tag, None) is not None

    # ------------------------------------------------------------------ sizes
    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)
