"""The fleet-operations event timeline.

Real clusters are never static: rates move, GPUs die and come back, spot
capacity is preempted in waves, tenants arrive and leave, SLOs get
renegotiated mid-flight.  Each disturbance is a typed, immutable event;
:func:`merge_timeline` folds any number of generated streams into one
deterministic time-ordered stream that a
:class:`~repro.ops.controller.FleetController` consumes.

Ordering is total and reproducible: events sort by ``(time_s, PRIORITY,
sort_token)``.  The per-type ``PRIORITY`` fixes the application order
*within* one instant — departures free capacity before arrivals claim it,
service-level changes land before GPU-level disturbances, and recoveries
land before new failures so a restore-then-fail at the same instant is
well defined.

GPU-targeting events may name a ``gpu_id`` explicitly, but generated
timelines usually cannot know the ids of a placement that does not exist
yet.  They carry a ``draw`` in ``[0, 1)`` instead; the controller resolves
it against the GPUs occupied *at that moment* (``occupied[int(draw *
len(occupied))]``), which keeps victim selection deterministic without
coupling generators to placements.  A :class:`GpuRecovery` references the
failure it undoes via the failure's ``event_id``.

The wire codec lives here too (:func:`event_to_doc`/:func:`event_from_doc`).
Decoding raises :class:`ValueError` for anything that is not an event,
including a wrong-typed value (a ``bool`` is not a number) and the NaN
that Python's :mod:`json` accepts, which every validator rejects.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True)
class OpsEvent:
    """Base of every timeline event."""

    time_s: float

    #: application order within one instant (lower applies first)
    PRIORITY = 50

    def __post_init__(self) -> None:
        if not self.time_s >= 0:  # NaN fails too
            raise ValueError("event time must be non-negative")

    @property
    def kind(self) -> str:
        """Registry/reporting name of the event type."""
        return type(self).__name__

    @property
    def sort_token(self) -> str:
        """Deterministic tie-break among same-type events at one instant."""
        return ""


@dataclass(frozen=True)
class ServiceDeparture(OpsEvent):
    """A tenant leaves: its segments are torn down, capacity freed."""

    service_id: str = ""

    PRIORITY = 10

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.service_id:
            raise ValueError("departure needs a service id")

    @property
    def sort_token(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class ServiceArrival(OpsEvent):
    """A new tenant registers a service (model + SLO + rate)."""

    service_id: str = ""
    model: str = ""
    request_rate: float = 0.0
    slo_latency_ms: float = 0.0

    PRIORITY = 20

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.service_id or not self.model:
            raise ValueError("arrival needs a service id and model")
        if not (self.request_rate > 0 and self.slo_latency_ms > 0):
            raise ValueError("arrival rate and SLO must be positive")

    @property
    def sort_token(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class SloChange(OpsEvent):
    """A tenant renegotiates its client-facing SLO latency."""

    service_id: str = ""
    slo_latency_ms: float = 0.0

    PRIORITY = 30

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.service_id:
            raise ValueError("SLO change needs a service id")
        if not self.slo_latency_ms > 0:
            raise ValueError("renegotiated SLO must be positive")

    @property
    def sort_token(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class RateEpoch(OpsEvent):
    """One service's request rate changes (trace epoch, flash crowd)."""

    service_id: str = ""
    rate: float = 0.0

    PRIORITY = 40

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.service_id:
            raise ValueError("rate epoch needs a service id")
        if not self.rate >= 0:
            raise ValueError("rate must be non-negative")

    @property
    def sort_token(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class GpuRecovery(OpsEvent):
    """A failed/preempted GPU comes back and rejoins the free pool."""

    gpu_id: Optional[int] = None  #: explicit target, or None to use ``ref``
    ref: str = ""  #: ``event_id`` of the failure this recovery undoes

    PRIORITY = 50

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gpu_id is None and not self.ref:
            raise ValueError("recovery needs a gpu_id or a failure ref")

    @property
    def sort_token(self) -> str:
        return self.ref or f"gpu{self.gpu_id}"


@dataclass(frozen=True)
class GpuFailure(OpsEvent):
    """One GPU dies (hardware fault, permanent until recovered)."""

    event_id: str = ""  #: stable handle recoveries reference
    gpu_id: Optional[int] = None  #: explicit victim, or None to use ``draw``
    draw: float = 0.0  #: victim selector over the occupied GPUs at apply time

    PRIORITY = 60

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.event_id:
            raise ValueError("failure needs an event id")
        if not 0.0 <= self.draw < 1.0:
            raise ValueError("draw must be in [0, 1)")

    @property
    def sort_token(self) -> str:
        return self.event_id


@dataclass(frozen=True)
class SpotPreemptionWave(OpsEvent):
    """A fraction of the fleet is preempted at once (spot reclaim).

    The controller fails ``ceil(fraction * occupied)`` victims chosen by a
    seeded shuffle keyed on ``(run seed, event_id, draw)`` and — when
    ``restore_delay_s`` is set — schedules a :class:`GpuRecovery` for each
    victim ``restore_delay_s`` later (the spot market giving capacity
    back).
    """

    event_id: str = ""
    fraction: float = 0.0
    draw: float = 0.0
    restore_delay_s: Optional[float] = None

    PRIORITY = 70

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.event_id:
            raise ValueError("preemption wave needs an event id")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("preempted fraction must be in (0, 1]")
        if not 0.0 <= self.draw < 1.0:
            raise ValueError("draw must be in [0, 1)")
        if self.restore_delay_s is not None and not self.restore_delay_s > 0:
            raise ValueError("restore delay must be positive")

    @property
    def sort_token(self) -> str:
        return self.event_id


def timeline_key(event: OpsEvent) -> tuple[float, int, str]:
    """The total order every timeline consumer sorts by."""
    return (event.time_s, event.PRIORITY, event.sort_token)


def merge_timeline(*streams: Iterable[OpsEvent]) -> tuple[OpsEvent, ...]:
    """Merge event streams into one deterministic time-ordered timeline."""
    events = [e for stream in streams for e in stream]
    events.sort(key=timeline_key)
    return tuple(events)


#: ``"kind"`` discriminator -> event class (the full event vocabulary).
EVENT_TYPES: dict[str, type[OpsEvent]] = {
    cls.__name__: cls
    for cls in (
        ServiceDeparture,
        ServiceArrival,
        SloChange,
        RateEpoch,
        GpuRecovery,
        GpuFailure,
        SpotPreemptionWave,
    )
}


def _wire_types(hint: object) -> tuple[type, ...]:
    """The JSON value types a field annotation accepts: an int is a
    float, and ``Optional[T]`` adds ``None``."""
    if args := typing.get_args(hint):
        return tuple(t for arg in args for t in _wire_types(arg))
    return (int, float) if hint is float else (typing.cast(type, hint),)


#: kind -> field -> accepted value types
_FIELD_TYPES: dict[str, dict[str, tuple[type, ...]]] = {
    kind: {f: _wire_types(h) for f, h in typing.get_type_hints(cls).items()}
    for kind, cls in EVENT_TYPES.items()
}


def event_to_doc(event: OpsEvent) -> dict[str, object]:
    """One event as a JSON-ready dict (dataclass fields + ``kind``)."""
    if type(event).__name__ not in EVENT_TYPES:
        raise TypeError(f"not a wire-format event type: {event!r}")
    doc: dict[str, object] = {"kind": event.kind}
    doc.update(dataclasses.asdict(event))
    return doc


def event_from_doc(doc: Mapping[str, object]) -> OpsEvent:
    """Rebuild an event from its wire dict (inverse of
    :func:`event_to_doc`); anything else raises :class:`ValueError`."""
    fields = dict(doc)
    kind = fields.pop("kind", None)
    if not isinstance(kind, str) or kind not in EVENT_TYPES:
        raise ValueError(f"unknown event kind {kind!r}")
    cls = EVENT_TYPES[kind]
    types = _FIELD_TYPES[kind]
    unknown = sorted(k for k in fields if k not in types)
    if unknown:
        raise ValueError(f"{kind} does not accept fields {unknown}")
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, types[name]):
            raise ValueError(f"{kind}.{name} has the wrong type: {value!r}")
    if "time_s" not in fields:
        raise ValueError(f"{kind} needs a time_s")
    return cls(**fields)  # type: ignore[arg-type]
