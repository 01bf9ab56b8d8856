"""Pluggable partition geometries — the hardware contract behind scheduling.

The paper's segment scheduling is formulated over NVIDIA MIG, but nothing
in Algorithms 1/2 is NVIDIA-specific: they only need to know *how a GPU
partitions*.  A :class:`PartitionGeometry` captures exactly that contract:

- how many compute slices a device exposes (7 GPCs on an A100, 8 XCDs on
  an MI300X) and what a slice is worth relative to an A100 GPC;
- which instance sizes exist and at which start slots they may be created
  (plus any extra slices a placement *blocks*, like MIG's 3g-at-slot-0);
- the framebuffer behind each instance size;
- reconfiguration rules — MIG composes mixed instance sizes freely, while
  AMD compute-partition modes (SPX/DPX/QPX/CPX) apply to the whole device,
  so every partition on one MI300X must have the same size;
- the slot preferences/fallbacks the Segment Allocator should use.

Concrete geometries live next to the hardware they model:
:data:`repro.gpu.mig.MIG_GEOMETRY` (A100/H100-class MIG) and
:data:`repro.gpu.amd.MI300X_GEOMETRY` (MI300X XCD partitioning).  Third
backends register themselves via :func:`register_geometry`; see
``docs/architecture.md`` for a walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.gpu.slices import range_mask, slice_indices


@dataclass(frozen=True, eq=False)
class PartitionGeometry:
    """Declarative description of one accelerator partitioning scheme.

    Instances are singletons compared by identity; ``name`` is the registry
    key.  All mappings are keyed by instance size (in slices).
    """

    name: str  #: registry key, e.g. ``"mig"`` or ``"mi300x"``
    vendor: str  #: ``"nvidia"`` / ``"amd"``
    kind: str  #: partition kind tag used in placements (``"mig"``/``"xcd"``)
    slice_label: str  #: what one slice is called (``"GPC"`` / ``"XCD"``)
    num_slices: int
    instance_sizes: tuple[int, ...]  #: ascending
    memory_map: Mapping[int, float]  #: size -> framebuffer GB
    profile_names: Mapping[int, str]  #: size -> vendor-tool profile string
    canonical_starts: Mapping[int, tuple[int, ...]]
    extended_starts: Mapping[int, tuple[int, ...]]
    #: (size, start) -> bitmask of slices *blocked in addition to* the
    #: occupied range (MIG: a 3g instance at slot 0 blocks slice 3).
    blocked_extra: Mapping[tuple[int, int], int] = field(default_factory=dict)
    slot_preferences: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    slot_fallbacks: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    #: compute units per slice in the vendor's own accounting (SMs per GPC
    #: on GA100, CUs per XCD on MI300X) — drives utilization metrics.
    sms_per_slice: int = 14
    #: compute of one slice expressed in A100-GPC equivalents; lets the
    #: performance model and cross-geometry comparisons share one scale.
    gpc_equiv_per_slice: float = 1.0
    #: when True, every instance on one device must have the same size
    #: (AMD compute-partition modes are device-wide; MIG mixes freely).
    uniform_instance_sizes: bool = False
    #: sizes the Allocation-Optimization stage may split segments into.
    small_sizes: tuple[int, ...] = (1, 2)
    #: largest size the compaction pass will migrate between devices.
    compact_max_size: int = 3

    def __post_init__(self) -> None:
        if self.num_slices < 1:
            raise ValueError(f"{self.name}: need at least one slice")
        if tuple(sorted(self.instance_sizes)) != self.instance_sizes:
            raise ValueError(f"{self.name}: instance sizes must ascend")
        for table in (self.memory_map, self.profile_names,
                      self.canonical_starts, self.extended_starts):
            if set(table) != set(self.instance_sizes):
                raise ValueError(
                    f"{self.name}: tables must cover sizes {self.instance_sizes}"
                )
        # Every legal (size, start) pair's occupied+blocked mask, computed
        # once: occupied_mask sits in the allocator's innermost feasibility
        # probe (can_add), where recomputing range/blocked unions per call
        # dominates fleet-scale scans.  The canonical subset gets its own
        # table so ``can_add(extended=False)`` is the same single dict
        # probe (a miss doubles as the legality answer), and every legal
        # pair gets one shared frozen PlacedPartition so ``place`` at
        # fleet scale stops allocating millions of identical instances.
        masks: dict[tuple[int, int], int] = {}
        for size in self.instance_sizes:
            for start in self.extended_starts[size]:
                base = range_mask(start, size, num_slices=self.num_slices)
                masks[(size, start)] = base | self.blocked_extra.get(
                    (size, start), 0
                )
        object.__setattr__(self, "_occupied_masks", masks)
        canonical = {
            (size, start): masks[(size, start)]
            for size in self.instance_sizes
            for start in self.canonical_starts[size]
            if (size, start) in masks
        }
        object.__setattr__(self, "_canonical_masks", canonical)
        placed = {
            (size, start): PlacedPartition(size=size, start=start, geometry=self)
            for (size, start) in masks
        }
        object.__setattr__(self, "_placed", placed)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def full_mask(self) -> int:
        return (1 << self.num_slices) - 1

    @property
    def whole_gpu_size(self) -> int:
        """The instance size that owns the entire device."""
        return self.instance_sizes[-1]

    @property
    def total_memory_gb(self) -> float:
        return self.memory_map[self.whole_gpu_size]

    @property
    def total_sms(self) -> int:
        return self.sms_per_slice * self.num_slices

    def legal_starts(self, size: int, extended: bool = True) -> tuple[int, ...]:
        """Start slots where an instance of ``size`` slices may be created."""
        table = self.extended_starts if extended else self.canonical_starts
        try:
            return table[size]
        except KeyError:
            raise ValueError(
                f"{self.name}: no partition profile of size {size}"
            ) from None

    def occupied_mask(self, size: int, start: int) -> int:
        """Slice bitmask an instance *occupies plus blocks* at ``start``."""
        mask = self._occupied_masks.get((size, start))
        if mask is not None:
            return mask
        # illegal (size, start) pairs fall back to the direct computation
        # so diagnostic callers still get a well-defined answer
        base = range_mask(start, size, num_slices=self.num_slices)
        return base | self.blocked_extra.get((size, start), 0)

    def can_coexist(self, existing_sizes: tuple[int, ...], size: int) -> bool:
        """Reconfiguration rule: may ``size`` join a device already hosting
        ``existing_sizes`` (mask overlap is checked separately)?"""
        if not self.uniform_instance_sizes or not existing_sizes:
            return True
        return all(s == size for s in existing_sizes)

    def place(self, size: int, start: int) -> "PlacedPartition":
        """Validated placement of one instance (geometry-bound).

        Returns the shared frozen instance for legal pairs; illegal pairs
        fall through to direct construction for its validation error.
        """
        inst = self._placed.get((size, start))
        if inst is not None:
            return inst
        return PlacedPartition(size=size, start=start, geometry=self)

    # ------------------------------------------------------------------ #
    # memory
    # ------------------------------------------------------------------ #

    def instance_memory_gb(self, size: int) -> float:
        try:
            return self.memory_map[size]
        except KeyError:
            raise ValueError(
                f"{self.name}: no partition profile of size {size}; "
                f"sizes are {self.instance_sizes}"
            ) from None

    def fits_in_memory(self, required_gb: float, size: int) -> bool:
        if required_gb < 0:
            raise ValueError("memory requirement must be non-negative")
        return required_gb <= self.instance_memory_gb(size)

    def feasible_sizes(self, required_gb: float) -> tuple[int, ...]:
        """Instance sizes whose framebuffer fits ``required_gb``."""
        return tuple(
            s for s in self.instance_sizes if self.memory_map[s] >= required_gb
        )

    # ------------------------------------------------------------------ #
    # compute accounting
    # ------------------------------------------------------------------ #

    def gpc_equivalent(self, slices: float) -> float:
        """Compute of ``slices`` worth of this geometry, in A100-GPC units."""
        return slices * self.gpc_equiv_per_slice

    def sms_of(self, slices: float) -> float:
        return slices * self.sms_per_slice

    def profile_name(self, size: int) -> str:
        try:
            return self.profile_names[size]
        except KeyError:
            raise ValueError(
                f"{self.name}: no partition profile of size {size}"
            ) from None

    # ------------------------------------------------------------------ #
    # allocator policy
    # ------------------------------------------------------------------ #

    def preferred_slots(self, size: int) -> tuple[int, ...]:
        return self.slot_preferences.get(size, self.legal_starts(size))

    def fallback_slots(self, size: int) -> tuple[int, ...]:
        return self.slot_fallbacks.get(size, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionGeometry({self.name}: {self.num_slices}x"
            f"{self.slice_label}, sizes={self.instance_sizes})"
        )


@dataclass(frozen=True, eq=False)
class PlacedPartition:
    """An instance size pinned to a start slot of a specific geometry."""

    size: int
    start: int
    geometry: PartitionGeometry

    def __post_init__(self) -> None:
        if self.size not in self.geometry.instance_sizes:
            raise ValueError(
                f"no {self.geometry.name} profile of size {self.size}"
            )
        if self.start not in self.geometry.legal_starts(self.size, extended=True):
            raise ValueError(
                f"size-{self.size} instance may not start at slot {self.start}"
            )

    # identity is (size, start, geometry name): a geometry's shared
    # ``place`` instances and directly constructed ones compare equal.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacedPartition):
            return NotImplemented
        return (
            self.size == other.size
            and self.start == other.start
            and self.geometry.name == other.geometry.name
        )

    def __hash__(self) -> int:
        return hash((self.size, self.start, self.geometry.name))

    @property
    def mask(self) -> int:
        """Occupied+blocked slice bitmask (memoized — instances are
        shared singletons read on every overlap check)."""
        mask = self.__dict__.get("_mask")
        if mask is None:
            mask = self.geometry.occupied_mask(self.size, self.start)
            object.__setattr__(self, "_mask", mask)
        return mask

    @property
    def slices(self) -> tuple[int, ...]:
        return slice_indices(self.mask, num_slices=self.geometry.num_slices)

    @property
    def memory_gb(self) -> float:
        return self.geometry.instance_memory_gb(self.size)


class PartitionLayout:
    """A set of non-overlapping placed instances on one device.

    One class for every geometry (MIG is ``PartitionLayout(MIG_GEOMETRY)``);
    it enforces mask disjointness *and* the geometry's coexistence rule (AMD
    devices are single-mode, so mixed sizes are rejected there).
    """

    __slots__ = ("geometry", "_instances", "_mask", "_sizes")

    def __init__(
        self,
        geometry: PartitionGeometry,
        instances: tuple[PlacedPartition, ...] | list[PlacedPartition] = (),
    ) -> None:
        self.geometry = geometry
        self._instances: list[PlacedPartition] = []
        self._mask = 0
        self._sizes: Optional[tuple[int, ...]] = ()
        for inst in instances:
            self.add(inst)

    @property
    def instances(self) -> tuple[PlacedPartition, ...]:
        return tuple(self._instances)

    @property
    def mask(self) -> int:
        """Union of occupied+blocked slices."""
        return self._mask

    @property
    def used_slices(self) -> int:
        """Total slices of *compute* allocated (blocked slices don't count)."""
        return sum(i.size for i in self._instances)

    # kept as the primary spelling because every caller reads "GPCs" even
    # for non-NVIDIA geometries.
    @property
    def used_gpcs(self) -> int:
        return self.used_slices

    def can_add(self, size: int, start: int, extended: bool = True) -> bool:
        """Whether an instance of ``size`` can be created at ``start``.

        One dict probe answers legality (unknown size or illegal start
        miss the mask table) and yields the occupancy mask; the
        coexistence rule only costs anything on uniform-size geometries.
        """
        geometry = self.geometry
        mask = (
            geometry._occupied_masks if extended else geometry._canonical_masks
        ).get((size, start))
        if mask is None:
            return False
        if geometry.uniform_instance_sizes and not geometry.can_coexist(
            self.sizes(), size
        ):
            return False
        return not self._mask & mask

    def add(self, inst: PlacedPartition) -> None:
        if inst.geometry.name != self.geometry.name:
            raise ValueError(
                f"{inst.geometry.name} instance added to {self.geometry.name} layout"
            )
        if self._mask & inst.mask:
            raise ValueError(f"{inst} overlaps existing instances")
        if self.geometry.uniform_instance_sizes and not self.geometry.can_coexist(
            self.sizes(), inst.size
        ):
            raise ValueError(
                f"{self.geometry.name}: mixed instance sizes on one device "
                f"(existing {self.sizes()}, adding {inst.size})"
            )
        self._instances.append(inst)
        self._mask |= inst.mask
        self._sizes = None

    def remove(self, inst: PlacedPartition) -> None:
        self._instances.remove(inst)
        self._mask = 0
        for other in self._instances:
            self._mask |= other.mask
        self._sizes = None

    def copy(self) -> "PartitionLayout":
        """An independent layout holding the same instances."""
        clone = object.__new__(type(self))
        clone.geometry = self.geometry
        clone._instances = list(self._instances)
        clone._mask = self._mask
        clone._sizes = self._sizes
        return clone

    def sizes(self) -> tuple[int, ...]:
        """Instance sizes in this layout, descending (cached; can_add and
        the coexistence rule call this on every feasibility probe)."""
        if self._sizes is None:
            self._sizes = tuple(
                sorted((i.size for i in self._instances), reverse=True)
            )
        return self._sizes

    def signature(self) -> tuple[tuple[int, int], ...]:
        """Canonical ``(start, size)`` tuple — hashable layout identity."""
        return tuple(sorted((i.start, i.size) for i in self._instances))

    def is_maximal(self, extended: bool = False) -> bool:
        """True when no further instance of any size can be added."""
        for size in self.geometry.instance_sizes:
            for start in self.geometry.legal_starts(size, extended=extended):
                if self.can_add(size, start, extended=extended):
                    return False
        return True

    def __len__(self) -> int:
        return len(self._instances)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = "+".join(str(s) for s in self.sizes()) or "empty"
        return f"PartitionLayout({self.geometry.name}: {parts})"


def enumerate_layouts(
    geometry: PartitionGeometry, extended: bool = False
) -> list[PartitionLayout]:
    """Every maximal layout of ``geometry`` under its canonical rules.

    The DFS that regenerates the paper's Figure 1 for MIG (19 layouts), and
    the four device-wide modes (SPX/DPX/QPX/CPX) for an MI300X.

    Each partial layout is expanded once: a repeat (the same instances
    reached in another insertion order) can only rediscover leaves its
    first visit already found, so pruning it keeps the discovery order.
    """
    visited: set[tuple[tuple[int, int], ...]] = set()
    results: list[PartitionLayout] = []

    def dfs(layout: PartitionLayout) -> None:
        sig = layout.signature()
        if sig in visited:
            return
        visited.add(sig)
        if layout.is_maximal(extended=extended):
            results.append(PartitionLayout(geometry, layout.instances))
            return
        for size in sorted(geometry.instance_sizes, reverse=True):
            for start in geometry.legal_starts(size, extended=extended):
                if layout.can_add(size, start, extended=extended):
                    inst = geometry.place(size, start)
                    layout.add(inst)
                    dfs(layout)
                    layout.remove(inst)

    dfs(PartitionLayout(geometry))
    results.sort(key=lambda l: tuple(-s for s in l.sizes()))
    return results


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, PartitionGeometry] = {}
_ALIASES: dict[str, str] = {}
#: Raw-name -> geometry memo over successful lookups.  ``get_geometry``
#: sits under every PlacedSegment construction (millions per fleet-scale
#: re-plan), where the strip/lower/alias walk itself is measurable.
_RESOLVED: dict[str, PartitionGeometry] = {}


def register_geometry(
    geometry: PartitionGeometry, aliases: tuple[str, ...] = ()
) -> PartitionGeometry:
    """Register a geometry (and optional alias names) for lookup by name."""
    _REGISTRY[geometry.name] = geometry
    for alias in aliases:
        _ALIASES[alias.lower()] = geometry.name
    _RESOLVED.clear()  # re-registration may rebind names
    return geometry


def _ensure_builtins() -> None:
    # Imported lazily so geometry.py stays dependency-free: mig.py and
    # amd.py each register themselves at import time.
    import repro.gpu.mig  # noqa: F401
    import repro.gpu.amd  # noqa: F401


def get_geometry(name: str) -> PartitionGeometry:
    """Look a geometry up by registry name or alias (case-insensitive).

    Derived NVIDIA-generation geometries (``"mig-<generation>"``, e.g.
    ``"mig-h200-141gb"``) are materialized on demand, so a geometry-tagged
    placement deserialized in a fresh process still resolves.
    """
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    _ensure_builtins()
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY and key.startswith("mig-"):
        from repro.gpu.generations import GENERATIONS, geometry_for_generation

        if key[len("mig-"):] in GENERATIONS:
            geometry = geometry_for_generation(key[len("mig-"):])
            _RESOLVED[name] = geometry
            return geometry
    try:
        geometry = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown partition geometry {name!r}; known: {known}"
        ) from None
    _RESOLVED[name] = geometry
    return geometry


def available_geometries() -> tuple[str, ...]:
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def default_geometry() -> PartitionGeometry:
    """The A100-class MIG geometry the paper evaluates on."""
    return get_geometry("mig")
