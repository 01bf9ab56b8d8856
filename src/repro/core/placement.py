"""Deployment maps: where every partition of every service lives.

:class:`Placement` is the common result type of *all* schedulers in this
repository (ParvaGPU and every baseline), so the metrics layer, simulator
and experiment harnesses are framework-agnostic.  Three partition kinds
exist:

- ``"mig"`` — a MIG-backed GPU segment with an integral size and start slot
  (ParvaGPU, MIG-serving);
- ``"mps"`` — an MPS percentage slice of a whole GPU with a fractional GPC
  share and no slot (gpulet, iGniter);
- ``"xcd"`` — an AMD XCD compute partition with an integral size and start
  slot (the MI300X geometry).

Every segment and GPU plan additionally carries the *name* of the
partition geometry it was scheduled against (default ``"mig"``), which is
how heterogeneous placements keep A100 and MI300X devices apart.

Segments and plans are immutable: :class:`PlacedSegment` is tuple-backed
(no field can be set, not even through ``object.__setattr__``) and
:class:`GPUPlan` is a frozen dataclass over a tuple of them.  A plan
therefore renders its fingerprint line at most once and caches it, and
everything that changes a GPU (:meth:`Placement.add`,
:meth:`Placement.drop_empty_gpus`, :meth:`Placement.assign_rates`)
replaces its plan instead — so a placement's fingerprint costs one
render per *new* plan plus a join.  The one mutable part is the
:class:`Placement` itself (its ``gpus`` list and metadata).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Any,
    Iterable,
    Iterator,
    Literal,
    NamedTuple,
    Optional,
    Self,
)

from repro.gpu.geometry import PartitionLayout, get_geometry
from repro.gpu.cluster import InstanceSpec
from repro.gpu.mig import SMS_PER_GPC

PartitionKind = Literal["mig", "mps", "xcd"]


class _SegmentFields(NamedTuple):
    service_id: str
    model: str
    kind: PartitionKind
    gpcs: float  #: integral slice count for MIG/XCD; fractional share * 7 for MPS
    batch_size: int
    num_processes: int
    capacity: float  #: requests/s the partition sustains at this point
    latency_ms: float  #: expected per-batch latency (incl. interference)
    sm_activity: float  #: SM activity when fully loaded
    start: Optional[int] = None  #: slice start slot; None for MPS
    served_rate: float = 0.0  #: requests/s actually routed here
    geometry: str = "mig"  #: partition-geometry registry name


def _require_int(name: str, value: Any) -> None:
    """Reject a slot or count that is not an integer (the string ``"4"``
    would render the same fingerprint line as ``4``)."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(
            f"segment {name} must be an integer, not {value!r}"
        ) from None


class PlacedSegment(_SegmentFields):
    """One partition of one service pinned to a GPU.

    Tuple-backed and immutable: no field can be set, not even through
    ``object.__setattr__``, so a published plan's segments are exactly
    what its cached fingerprint line rendered.
    """

    __slots__ = ()

    def __new__(
        cls,
        service_id: str,
        model: str,
        kind: PartitionKind,
        gpcs: float,
        batch_size: int,
        num_processes: int,
        capacity: float,
        latency_ms: float,
        sm_activity: float,
        start: Optional[int] = None,
        served_rate: float = 0.0,
        geometry: str = "mig",
    ) -> "PlacedSegment":
        if kind in ("mig", "xcd"):
            if start is None:
                raise ValueError(f"{kind} partitions need a start slot")
            if abs(gpcs - round(gpcs)) > 1e-9:
                raise ValueError(f"{kind} partitions have integral slice sizes")
        limit = get_geometry(geometry).num_slices
        if gpcs <= 0 or gpcs > limit:
            raise ValueError(f"partition size {gpcs} outside (0, {limit}]")
        if capacity <= 0:
            raise ValueError("partition capacity must be positive")
        _require_int("batch_size", batch_size)
        _require_int("num_processes", num_processes)
        if start is not None:
            _require_int("start", start)
        return tuple.__new__(cls, (
            service_id, model, kind, gpcs, batch_size, num_processes,
            capacity, latency_ms, sm_activity, start, served_rate, geometry,
        ))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Self:
        # namedtuple's _make (and so _replace) skips __new__: validate
        return cls(*iterable)

    @property
    def sm_count(self) -> float:
        """Compute units in the device's own accounting (SMs or CUs)."""
        return get_geometry(self.geometry).sms_of(self.gpcs)

    @property
    def effective_gpcs(self) -> float:
        """Compute share in A100-GPC equivalents (the perf-model's unit)."""
        return get_geometry(self.geometry).gpc_equivalent(self.gpcs)

    @property
    def sm_equiv(self) -> float:
        """A100-SM equivalents (``SMS_PER_GPC`` x GPC-equivalents).

        The cross-vendor weight for metrics: raw ``sm_count`` mixes SMs
        and CUs on heterogeneous placements.  Identical to ``sm_count``
        for MIG segments.
        """
        return SMS_PER_GPC * self.effective_gpcs

    @property
    def load_fraction(self) -> float:
        """Fraction of capacity actually exercised by routed traffic."""
        return min(1.0, self.served_rate / self.capacity)

    def with_served_rate(self, rate: float) -> "PlacedSegment":
        # assign_rates calls this once per re-routed segment: served_rate
        # is the only field that differs and no validation reads it, so
        # the copy skips __new__.
        return tuple.__new__(PlacedSegment, self[:10] + (rate, self[11]))


#: one segment's part of a fingerprint line, one conversion per field in
#: field order (the segment *is* the argument tuple); floats render via
#: repr, so distinct values never collide
_SEGMENT_LINE = ";%s,%s,%s,%r,%s,%s,%r,%r,%r,%s,%r,%s"

if len(PlacedSegment._fields) != _SEGMENT_LINE.count("%"):
    raise AssertionError(
        "PlacedSegment grew a field; extend _SEGMENT_LINE to cover it"
    )

#: the conversion ``_SEGMENT_LINE`` applies to each field
_CONVERSIONS = tuple(
    str if part[1] == "s" else repr for part in _SEGMENT_LINE[1:].split(",")
)


def same_segment_line(a: PlacedSegment, b: PlacedSegment) -> bool:
    """Whether ``a`` and ``b`` render the same part of a fingerprint
    line, compared field by field without rendering it: each pair of
    fields is the same object or converts alike (``str`` where the line
    has ``%s``, ``repr`` where it has ``%r``), so -0.0 is not 0.0 and an
    int is not its float."""
    for conv, x, y in zip(_CONVERSIONS, a, b):
        if x is not y and conv(x) != conv(y):
            return False
    return True


@dataclass(frozen=True, slots=True)
class GPUPlan:
    """All partitions assigned to one GPU.

    Frozen, so its fingerprint line is rendered at most once and cached
    on the plan; every change to a GPU's partitions is a new plan.
    """

    gpu_id: int
    segments: tuple[PlacedSegment, ...] = ()
    geometry: str = "mig"  #: partition-geometry registry name of the device
    _line: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if type(self.segments) is not tuple:
            object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def used_gpcs(self) -> float:
        return sum(s.gpcs for s in self.segments)

    @property
    def total_sms(self) -> float:
        return float(get_geometry(self.geometry).total_sms)

    @property
    def is_empty(self) -> bool:
        return not self.segments

    def renumbered(self, gpu_id: int) -> "GPUPlan":
        """This plan under another GPU id (itself if the id is unchanged)."""
        if gpu_id == self.gpu_id:
            return self
        return GPUPlan(gpu_id, self.segments, self.geometry)

    def fingerprint(self) -> str:
        """This plan's line of :meth:`Placement.fingerprint`."""
        line = self._line
        if line is None:
            # Direct %-formatting instead of json.dumps over per-segment
            # dicts: fingerprints are only ever *compared*, never parsed.
            line = f"{self.gpu_id}|{self.geometry}" + "".join(
                map(_SEGMENT_LINE.__mod__, self.segments)
            )
            object.__setattr__(self, "_line", line)
        return line

    def validate(self) -> None:
        """Check partition legality / MPS quota on this GPU."""
        geo = get_geometry(self.geometry)
        layout = PartitionLayout(geo)
        mps_share = 0.0
        for seg in self.segments:
            if seg.kind in ("mig", "xcd"):
                layout.add(geo.place(int(seg.gpcs), seg.start))  # raises
            else:
                mps_share += seg.gpcs / 7.0
        if mps_share > 1.0 + 1e-9:
            raise ValueError(
                f"GPU {self.gpu_id}: MPS shares sum to {mps_share:.2f} > 1"
            )
        if mps_share > 0 and len(layout):
            raise ValueError(
                f"GPU {self.gpu_id}: mixing whole-GPU MPS partitions with MIG"
            )


def render_lines(plans: Iterable[GPUPlan]) -> tuple[list[str], int]:
    """One :meth:`GPUPlan.fingerprint` line per non-empty plan, in
    order, and how many of those lines were rendered now (cache misses):
    every other plan returns the line it cached."""
    lines: list[str] = []
    rendered = 0
    for g in plans:
        if g.segments:
            line = g._line
            if line is None:
                line = g.fingerprint()
                rendered += 1
            lines.append(line)
    return lines, rendered


@dataclass
class Placement:
    """A full deployment map plus scheduling metadata."""

    framework: str
    gpus: list[GPUPlan] = field(default_factory=list)
    scheduling_delay_ms: float = 0.0
    rates_assigned: bool = False  #: set when the scheduler routed traffic itself

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def gpu(self, gpu_id: int) -> GPUPlan:
        while len(self.gpus) <= gpu_id:
            self.gpus.append(GPUPlan(gpu_id=len(self.gpus)))
        return self.gpus[gpu_id]

    def add(self, gpu_id: int, segment: PlacedSegment) -> None:
        plan = self.gpu(gpu_id)
        if not plan.is_empty and segment.geometry != plan.geometry:
            raise ValueError(
                f"GPU {gpu_id} is {plan.geometry}; cannot add a "
                f"{segment.geometry} segment"
            )
        self.gpus[gpu_id] = GPUPlan(
            gpu_id, plan.segments + (segment,), segment.geometry
        )

    def drop_empty_gpus(self) -> None:
        """Renumber away trailing/interior empty GPUs."""
        live = [g for g in self.gpus if not g.is_empty]
        self.gpus = [plan.renumbered(i) for i, plan in enumerate(live)]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_gpus(self) -> int:
        """GPUs hosting at least one partition (Fig. 5's metric)."""
        return sum(1 for g in self.gpus if not g.is_empty)

    def geometries(self) -> tuple[str, ...]:
        """Distinct geometry names used by non-empty plans, sorted."""
        return tuple(sorted({g.geometry for g in self.gpus if not g.is_empty}))

    def iter_segments(self) -> Iterator[tuple[int, PlacedSegment]]:
        for g in self.gpus:
            for s in g.segments:
                yield g.gpu_id, s

    def segments_of(self, service_id: str) -> list[PlacedSegment]:
        return [s for _, s in self.iter_segments() if s.service_id == service_id]

    def service_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.service_id for _, s in self.iter_segments()}))

    def total_capacity(self, service_id: str) -> float:
        return sum(s.capacity for s in self.segments_of(service_id))

    def allocated_sms(self) -> float:
        return sum(s.sm_count for _, s in self.iter_segments())

    def total_sms(self) -> float:
        return sum(g.total_sms for g in self.gpus if not g.is_empty)

    def validate(self) -> None:
        """Check every GPU plan, and that no GPU id is listed twice."""
        seen: set[int] = set()
        for g in self.gpus:
            if g.gpu_id in seen:
                raise ValueError(f"GPU {g.gpu_id} is listed twice")
            seen.add(g.gpu_id)
            g.validate()

    def fingerprint(self) -> str:
        """Canonical byte-form of the deployment map.

        Covers every non-empty GPU plan and segment field but excludes
        timing metadata (``scheduling_delay_ms``) and the framework label,
        so two schedulers that produce the same map — e.g. the indexed
        and naive allocator paths — fingerprint identically.
        """
        return "\n".join(self.render_lines()[0])

    def render_lines(self) -> tuple[list[str], int]:
        """:meth:`fingerprint` before the join: :func:`render_lines` of
        the plans."""
        return render_lines(self.gpus)

    # ------------------------------------------------------------------ #
    # traffic assignment
    # ------------------------------------------------------------------ #

    def assign_rates(
        self, rates: dict[str, float], policy: str = "proportional"
    ) -> None:
        """Distribute each service's request rate over its partitions.

        Replaces every plan whose segments it re-routes; a plan whose
        served rates all stay put is kept as the same object.

        ``"proportional"`` (default) spreads the rate according to
        capacity, which is the steady state of a least-loaded router and
        keeps every partition's utilization strictly below one.  ``"fill"``
        saturates partitions in descending throughput-per-GPC order
        instead (optimal segments at capacity, the rate-matched last
        segment absorbing the remainder).
        """
        # One pass over the map groups partitions by service; the old
        # per-service rescan was O(services x segments) and dominated
        # fleet-scale scheduling wall-clock.
        gpus = self.gpus
        refs_by_service: dict[str, list[tuple[int, int, PlacedSegment]]] = {}
        for gi, g in enumerate(gpus):
            for si, s in enumerate(g.segments):
                refs_by_service.setdefault(s.service_id, []).append((gi, si, s))
        # plan position -> its segments, copied on a plan's first re-route
        routed: dict[int, list[PlacedSegment]] = {}
        for service_id, rate in rates.items():
            refs = refs_by_service.get(service_id, [])
            if not refs:
                raise ValueError(f"no partitions for service {service_id!r}")
            if policy == "proportional":
                total = sum(s.capacity for _, _, s in refs)
                for gi, si, s in refs:
                    share = rate * s.capacity / total
                    if s.served_rate != share:  # skip the no-op copy
                        segs = routed.get(gi)
                        if segs is None:
                            segs = routed[gi] = list(gpus[gi].segments)
                        segs[si] = s.with_served_rate(share)
            elif policy == "fill":
                refs.sort(key=lambda r: r[2].capacity / r[2].gpcs, reverse=True)
                remaining = rate
                for gi, si, s in refs:
                    share = min(s.capacity, remaining)
                    segs = routed.setdefault(gi, list(gpus[gi].segments))
                    segs[si] = s.with_served_rate(share)
                    remaining -= share
                if remaining > 1e-6:
                    # Demand beyond planned capacity: overload the largest
                    # partition (the simulator will show the violations).
                    gi, si, _ = refs[0]
                    s = routed[gi][si]
                    routed[gi][si] = s.with_served_rate(s.served_rate + remaining)
            else:
                raise ValueError(f"unknown routing policy {policy!r}")
        # One new plan per re-routed GPU; every other plan (and its cached
        # line) stays the same object.
        for gi, segs in routed.items():
            g = gpus[gi]
            gpus[gi] = GPUPlan(g.gpu_id, tuple(segs), g.geometry)
        self.rates_assigned = True

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #

    def to_instance_specs(self) -> list[InstanceSpec]:
        """Slotted deployments as cluster instance specs (SIII-F)."""
        specs: list[InstanceSpec] = []
        for gpu_id, seg in self.iter_segments():
            if seg.kind not in ("mig", "xcd"):
                raise ValueError(
                    "only slotted (MIG/XCD) placements deploy to clusters"
                )
            specs.append(
                InstanceSpec(
                    gpu_id=gpu_id,
                    size=int(seg.gpcs),
                    start=seg.start,  # type: ignore[arg-type]
                    owner=seg.service_id,
                    num_processes=seg.num_processes,
                    batch_size=seg.batch_size,
                    geometry=seg.geometry,
                )
            )
        return specs
