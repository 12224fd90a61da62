"""Device memory allocators.

Three allocation strategies from the paper:

* :class:`DeviceAllocator` — a "native" allocator whose every call costs a
  device synchronization (the latency E3SM suffered from);
* :class:`PoolAllocator` — the YAKL-style transparent pool: one up-front
  native allocation carved by a cheap, non-blocking first-fit allocator;
* :class:`UnifiedMemory` — UVM-style automatic migration with page-fault
  accounting (the Pele team's porting bridge, later removed for speed).

All allocators keep real byte-level bookkeeping so tests can assert
invariants (no overlap, exhaustive free, alignment), and an accumulated
simulated-time cost so the perf models can charge allocation latency.
"""

from __future__ import annotations

from dataclasses import dataclass


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation cannot be satisfied."""


def _align_up(n: int, alignment: int) -> int:
    return (n + alignment - 1) // alignment * alignment


@dataclass
class Allocation:
    """One live device allocation (offset within the device heap)."""

    offset: int
    size: int
    tag: str = ""


class DeviceAllocator:
    """Native cudaMalloc/hipMalloc-style allocator.

    Every ``malloc``/``free`` implies a device synchronization, charged at
    ``alloc_latency`` seconds of simulated time — the cost that motivated
    YAKL's pool (§3.5).
    """

    #: hipMalloc-class latency per call, seconds.
    alloc_latency: float = 30e-6

    def __init__(self, capacity: int, *, alignment: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.alignment = alignment
        self._free: list[tuple[int, int]] = [(0, self.capacity)]  # (offset, size)
        self._live: dict[int, Allocation] = {}
        self.simulated_time = 0.0
        self.alloc_calls = 0
        self.free_calls = 0
        self.peak_bytes = 0
        self._used = 0

    @property
    def bytes_in_use(self) -> int:
        return self._used

    @property
    def bytes_free(self) -> int:
        return self.capacity - self._used

    def malloc(self, size: int, *, tag: str = "") -> Allocation:
        """Allocate *size* bytes; first-fit over the free list."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        need = _align_up(size, self.alignment)
        for i, (off, sz) in enumerate(self._free):
            if sz >= need:
                alloc = Allocation(offset=off, size=need, tag=tag)
                rest = sz - need
                if rest:
                    self._free[i] = (off + need, rest)
                else:
                    del self._free[i]
                self._live[off] = alloc
                self._used += need
                self.peak_bytes = max(self.peak_bytes, self._used)
                self.alloc_calls += 1
                self.simulated_time += self.alloc_latency
                return alloc
        raise OutOfDeviceMemory(
            f"cannot allocate {size} bytes ({self.bytes_free} free of {self.capacity})"
        )

    def free(self, alloc: Allocation) -> None:
        """Release an allocation, coalescing adjacent free ranges."""
        if alloc.offset not in self._live:
            raise ValueError(f"double free or foreign allocation at offset {alloc.offset}")
        del self._live[alloc.offset]
        self._used -= alloc.size
        self.free_calls += 1
        self.simulated_time += self.alloc_latency
        self._insert_free(alloc.offset, alloc.size)

    def _insert_free(self, off: int, size: int) -> None:
        self._free.append((off, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for o, s in self._free:
            if merged and merged[-1][0] + merged[-1][1] == o:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((o, s))
        self._free = merged

    def reserve_remaining(self, *, tag: str = "reserved") -> list[Allocation]:
        """Claim every free range in one sweep (fault injection: the
        memory pressure that makes the next real ``malloc`` raise
        :class:`OutOfDeviceMemory`).  Returns the claimed allocations so
        the caller can ``free`` them to release the pressure."""
        allocs: list[Allocation] = []
        for off, sz in self._free:
            alloc = Allocation(offset=off, size=sz, tag=tag)
            self._live[off] = alloc
            self._used += sz
            allocs.append(alloc)
        self._free = []
        self.peak_bytes = max(self.peak_bytes, self._used)
        self.alloc_calls += 1
        self.simulated_time += self.alloc_latency
        return allocs

    def check_invariants(self) -> None:
        """Assert non-overlap and full accounting (used by property tests)."""
        ranges = sorted(
            [(a.offset, a.size) for a in self._live.values()] + self._free
        )
        pos = 0
        for off, size in ranges:
            if off != pos:
                raise AssertionError(f"gap or overlap at offset {pos} vs {off}")
            pos = off + size
        if pos != self.capacity:
            raise AssertionError(f"heap accounting ends at {pos}, capacity {self.capacity}")


class PoolAllocator:
    """YAKL "gator"-style pool allocator.

    One native allocation is grabbed up front; subsequent mallocs are
    served from the pool at near-zero cost and never block the device.
    When the pool overflows, a new pool block is chained (one more native
    allocation), matching YAKL's growth behaviour.
    """

    #: pool-internal bookkeeping cost per call, seconds (vs. 30 us native).
    alloc_latency: float = 0.3e-6

    def __init__(
        self,
        backing: DeviceAllocator,
        *,
        initial_block: int = 1 << 30,
        grow_block: int | None = None,
    ) -> None:
        self.backing = backing
        self.block_size = int(initial_block)
        self.grow_block = int(grow_block) if grow_block else self.block_size
        self._blocks: list[tuple[Allocation, DeviceAllocator]] = []
        self.simulated_time = 0.0
        self.alloc_calls = 0
        self.free_calls = 0
        self._grow(self.block_size)

    def _grow(self, size: int) -> None:
        native = self.backing.malloc(size, tag="yakl-pool")
        sub = DeviceAllocator(size)
        sub.alloc_latency = 0.0  # internal carving is free; we charge our own
        self._blocks.append((native, sub))

    def malloc(self, size: int, *, tag: str = "") -> tuple[int, Allocation]:
        """Allocate from the pool; returns ``(block_index, allocation)``."""
        self.alloc_calls += 1
        self.simulated_time += self.alloc_latency
        for i, (_, sub) in enumerate(self._blocks):
            try:
                return i, sub.malloc(size, tag=tag)
            except OutOfDeviceMemory:
                continue
        self._grow(max(self.grow_block, _align_up(size, 256)))
        i = len(self._blocks) - 1
        return i, self._blocks[i][1].malloc(size, tag=tag)

    def free(self, handle: tuple[int, Allocation]) -> None:
        block, alloc = handle
        self.free_calls += 1
        self.simulated_time += self.alloc_latency
        self._blocks[block][1].free(alloc)

    @property
    def native_alloc_calls(self) -> int:
        """Native (blocking) allocations performed — should stay tiny."""
        return len(self._blocks)

    def release(self) -> None:
        """Return all pool blocks to the backing allocator."""
        for native, sub in self._blocks:
            if sub.bytes_in_use:
                raise RuntimeError("releasing pool with live allocations")
            self.backing.free(native)
        self._blocks.clear()


@dataclass
class PageFaultStats:
    """UVM migration accounting."""

    faults: int = 0
    migrated_bytes: int = 0
    fault_time: float = 0.0


class UnifiedMemory:
    """UVM-style managed memory with page-granular migration.

    Arrays live wherever they were last touched; touching them from the
    other side faults pages across the host link.  ``touch`` returns the
    simulated migration time.  Pele used UVM to port incrementally and
    then removed it (§3.8) — the benchmarks quantify why.
    """

    page_size: int = 2 << 20  # 2 MiB huge pages, typical for HPC UVM
    fault_latency: float = 20e-6  # per-fault service time

    def __init__(self, link_bandwidth: float) -> None:
        if link_bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.link_bandwidth = link_bandwidth
        self._location: dict[str, str] = {}  # array name -> "host"|"device"
        self._size: dict[str, int] = {}
        self.stats = PageFaultStats()

    def register(self, name: str, size: int, *, location: str = "host") -> None:
        if location not in ("host", "device"):
            raise ValueError("location must be 'host' or 'device'")
        self._location[name] = location
        self._size[name] = int(size)

    def touch(self, name: str, side: str) -> float:
        """Access *name* from *side*; migrate if resident elsewhere."""
        if side not in ("host", "device"):
            raise ValueError("side must be 'host' or 'device'")
        if name not in self._location:
            raise KeyError(f"unregistered managed array {name!r}")
        if self._location[name] == side:
            return 0.0
        size = self._size[name]
        pages = -(-size // self.page_size)
        t = pages * self.fault_latency + size / self.link_bandwidth
        self.stats.faults += pages
        self.stats.migrated_bytes += size
        self.stats.fault_time += t
        self._location[name] = side
        return t

    def location(self, name: str) -> str:
        return self._location[name]
