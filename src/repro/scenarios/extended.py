"""Extended evaluation scenarios beyond Table IV.

Two scenarios added with the pluggable-geometry backends, designed to
exercise regimes where the choice of partition geometry matters:

``S7`` — *memory-heavy batching*: the large-footprint models (BERT-large,
VGG, ResNet-152) at relaxed SLOs and high rates.  Generous latency budgets
push the configurator toward big batches, whose activations overflow the
A100's 10 GB 1g instances long before they trouble an MI300X CPX
partition's 24 GB — the regime where the AMD geometry's fatter small
partitions pay off.

``S8`` — *latency-critical interactive*: lightweight vision models under
SLOs ~40% tighter than S3.  Tight budgets force small batches, where the
A100's seven-way slicing (and its size-3 instances, which the MI300X's
power-of-two modes lack) packs the fleet tighter.

Both scenarios are feasible on the MIG geometry, the MI300X geometry, and
mixed fleets, so they serve as the work-loads for the
``parvagpu experiment geo`` comparison alongside Table IV.
"""

from __future__ import annotations

from repro.scenarios.table4 import Scenario, ScenarioTable, WorkloadLoad


def _scenario(
    name: str, description: str, cells: dict[str, tuple[float, float]]
) -> Scenario:
    loads = tuple(
        WorkloadLoad(model, rate, slo) for model, (rate, slo) in cells.items()
    )
    return Scenario(name=name, description=description, loads=loads)


EXTENDED_SCENARIOS = ScenarioTable({
    "S7": lambda: _scenario(
        "S7",
        "Memory-heavy batching: big-footprint models, relaxed SLOs, high rates",
        {
            # model: (requests/s, SLO ms)
            "bert-large": (60.0, 8000.0),
            "vgg-19": (900.0, 800.0),
            "vgg-16": (1100.0, 750.0),
            "resnet-152": (800.0, 500.0),
            "densenet-201": (700.0, 400.0),
            "inceptionv3": (1200.0, 900.0),
        },
    ),
    "S8": lambda: _scenario(
        "S8",
        "Latency-critical interactive: lightweight models, tight SLOs",
        {
            "mobilenetv2": (2400.0, 70.0),
            "resnet-50": (1400.0, 90.0),
            "densenet-121": (1100.0, 85.0),
            "inceptionv3": (900.0, 100.0),
            "resnet-101": (700.0, 110.0),
            "densenet-169": (600.0, 105.0),
        },
    ),
})

EXTENDED_SCENARIO_NAMES: tuple[str, ...] = tuple(EXTENDED_SCENARIOS)
