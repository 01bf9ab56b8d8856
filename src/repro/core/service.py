"""The Service object — Table II of the paper.

A service is one DNN inference workload registered by a client: a model, an
SLO latency, and a request rate to sustain.  The Segment Configurator fills
in the remaining fields (``opt_tri_array``, ``opt_seg``, ``num_opt_seg``,
``last_seg``) as Algorithm 1 executes.

Like gpulet and iGniter, ParvaGPU budgets for server-side queueing by
giving the placement algorithms only *half* the client-facing SLO
(``slo_factor = 0.5``, citing Nexus [12]); the other half absorbs batching
and queueing delay at serving time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING, Union

from repro.models.zoo import ModelSpec, get_model

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.segments import Segment
    from repro.profiler.table import ProfileEntry


class InfeasibleServiceError(RuntimeError):
    """No operating point can meet the service's SLO (or its rate)."""


#: Fraction of the client SLO given to the placement algorithms (SIV-A,
#: following Nexus): the rest is headroom for queueing at serving time.
DEFAULT_SLO_FACTOR = 0.5


@dataclass
class Service:
    """One inference workload and its Segment-Configurator state."""

    id: str  #: service identification number / name
    model: str  #: workload zoo key (Table IV column)
    slo_latency_ms: float  #: client-facing SLO latency (``lat``)
    request_rate: float  #: requests/s to sustain (``req_rate``)
    slo_factor: float = DEFAULT_SLO_FACTOR

    #: Algorithm-1 outputs (Table II), populated by the Segment Configurator.
    opt_tri_array: dict[int, "ProfileEntry"] = field(default_factory=dict)
    opt_seg: Optional["Segment"] = None
    num_opt_seg: int = 0
    last_seg: Optional["Segment"] = None

    def __post_init__(self) -> None:
        if self.slo_latency_ms <= 0:
            raise ValueError(f"{self.id}: SLO latency must be positive")
        if self.request_rate <= 0:
            raise ValueError(f"{self.id}: request rate must be positive")
        if not 0 < self.slo_factor <= 1:
            raise ValueError(f"{self.id}: slo_factor must be in (0, 1]")
        # Fail fast on unknown models.
        self.spec  # noqa: B018

    @property
    def spec(self) -> ModelSpec:
        return get_model(self.model)

    @property
    def effective_slo_ms(self) -> float:
        """The latency bound Algorithm 1 actually enforces."""
        return self.slo_latency_ms * self.slo_factor

    def segments(self) -> list["Segment"]:
        """The full segment set decided by Demand Matching."""
        out: list["Segment"] = []
        if self.opt_seg is not None:
            out.extend([self.opt_seg] * self.num_opt_seg)
        if self.last_seg is not None:
            out.append(self.last_seg)
        return out

    def planned_throughput(self) -> float:
        """Aggregate capacity of the decided segment set (requests/s)."""
        return sum(s.throughput for s in self.segments())

    def planned_gpcs(self) -> int:
        """Total GPCs the decided segment set consumes."""
        return sum(s.instance_size for s in self.segments())

    def reset_plan(self) -> None:
        """Drop Configurator outputs (used by the SLO-update path)."""
        self.opt_tri_array = {}
        self.opt_seg = None
        self.num_opt_seg = 0
        self.last_seg = None


#: the services an incremental re-plan reads: a sequence, or a mapping
#: keyed by service id
Services = Union[Sequence[Service], Mapping[str, Service]]


def service_index(services: Services) -> Mapping[str, Service]:
    """``services`` keyed by id.  A mapping is used as it is, so a caller
    that keeps one (the fleet controller) pays O(1) per lookup; a
    sequence is indexed here, in O(services)."""
    if isinstance(services, Mapping):
        return services
    return {s.id: s for s in services}
