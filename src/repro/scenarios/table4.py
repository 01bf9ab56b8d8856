"""Table IV: the six evaluation scenarios, transcribed exactly.

Each scenario gives every workload a request rate (requests/s) and a
client-facing SLO latency (ms).  S1 uses six of S2's eleven models; S2-S6
escalate load; S3/S4 share SLOs but raise rates; S5/S6 demand high
computational power (tight SLOs or very high rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from repro.core.service import Service
from repro.models.zoo import TABLE_IV_ORDER


@dataclass(frozen=True)
class WorkloadLoad:
    """One (model, scenario) cell of Table IV."""

    model: str
    request_rate: float  #: requests/s
    slo_latency_ms: float


@dataclass(frozen=True)
class Scenario:
    """One column group of Table IV."""

    name: str
    description: str
    loads: tuple[WorkloadLoad, ...]

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(l.model for l in self.loads)

    @property
    def total_rate(self) -> float:
        return sum(l.request_rate for l in self.loads)

    def load_for(self, model: str) -> Optional[WorkloadLoad]:
        for l in self.loads:
            if l.model == model:
                return l
        return None


class ScenarioTable(Mapping[str, Scenario]):
    """Scenarios by name, each built the first time it is looked up.

    A synthetic fleet draws hundreds to thousands of loads, so a table
    holds one builder per scenario instead of the scenario: importing a
    table costs nothing, and a process pays only for the scenarios it
    resolves.  Every lookup of a name returns the same object.
    """

    def __init__(self, builders: Mapping[str, Callable[[], Scenario]]):
        self._builders = dict(builders)
        self._built: dict[str, Scenario] = {}

    def __getitem__(self, name: str) -> Scenario:
        scenario = self._built.get(name)
        if scenario is None:
            scenario = self._built[name] = self._builders[name]()
        return scenario

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


def _scenario(
    name: str,
    description: str,
    rates: dict[str, float],
    lats: dict[str, float],
) -> Scenario:
    loads = tuple(
        WorkloadLoad(m, rates[m], lats[m]) for m in TABLE_IV_ORDER if m in rates
    )
    return Scenario(name=name, description=description, loads=loads)


_M = TABLE_IV_ORDER  # column order shorthand


def _row(values: list[float], models: tuple[str, ...] = _M) -> dict[str, float]:
    if len(values) != len(models):
        raise ValueError("row length mismatch")
    return dict(zip(models, values))


#: Models participating in S1 (the Table-IV N/A cells are absent).
_S1_MODELS = (
    "bert-large",
    "densenet-121",
    "inceptionv3",
    "mobilenetv2",
    "resnet-50",
    "vgg-19",
)

SCENARIOS: dict[str, Scenario] = {
    "S1": _scenario(
        "S1",
        "Six of S2's models: effect of reducing the service count",
        _row([19, 353, 460, 677, 829, 354], _S1_MODELS),
        _row([6434, 183, 419, 167, 205, 397], _S1_MODELS),
    ),
    "S2": _scenario(
        "S2",
        "All eleven models at moderate rates",
        _row([19, 353, 308, 276, 460, 677, 393, 281, 829, 410, 354]),
        _row([6434, 183, 217, 169, 419, 167, 212, 213, 205, 400, 397]),
    ),
    "S3": _scenario(
        "S3",
        "Higher rates, tighter SLOs",
        _row([46, 728, 633, 493, 1051, 1546, 760, 543, 1463, 780, 673]),
        _row([4294, 126, 150, 119, 282, 113, 144, 146, 138, 227, 265]),
    ),
    "S4": _scenario(
        "S4",
        "S3's SLOs with 1.5x rates",
        _row([69, 1091, 949, 739, 1576, 2318, 1140, 815, 2195, 1169, 1010]),
        _row([4294, 126, 150, 119, 282, 113, 144, 146, 138, 227, 265]),
    ),
    "S5": _scenario(
        "S5",
        "High computational power: strict SLOs",
        _row([843, 2228, 3507, 1513, 3815, 5009, 1874, 1340, 2796, 1773, 1531]),
        _row([2153, 69, 84, 70, 146, 59, 77, 80, 72, 115, 134]),
    ),
    "S6": _scenario(
        "S6",
        "High computational power: very high rates",
        _row([1264, 3342, 5260, 2269, 5722, 7513, 2811, 2010, 4196, 2659, 2296]),
        _row([6434, 183, 217, 169, 419, 167, 212, 213, 205, 400, 397]),
    ),
}

SCENARIO_NAMES: tuple[str, ...] = ("S1", "S2", "S3", "S4", "S5", "S6")


def get_scenario(name: str) -> Scenario:
    """Resolve across *all* registered scenario tables, not just Table IV.

    Delegates to :mod:`repro.scenarios.registry` (imported lazily: the
    registry imports this module's tables at load time).
    """
    from repro.scenarios.registry import get_scenario as _resolve

    return _resolve(name)


def scenario_services(scenario: Scenario | str) -> list[Service]:
    """Fresh :class:`Service` objects for a scenario (scheduler input)."""
    from repro.scenarios.registry import scenario_services as _services

    return _services(scenario)
