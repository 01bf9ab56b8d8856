"""Figure 1 — supported MIG configurations on the NVIDIA A100."""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult
from repro.gpu.geometry import enumerate_layouts
from repro.gpu.mig import MIG_GEOMETRY
from repro.gpu.slices import NUM_SLICES


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig1",
        title="Supported MIG configurations on the NVIDIA A100 GPU",
        columns=("config", *[f"slice{i}" for i in range(NUM_SLICES)], "sizes"),
    )
    configs = enumerate_layouts(MIG_GEOMETRY)
    for idx, layout in enumerate(configs, start=1):
        cells: list[str] = ["."] * NUM_SLICES
        for inst in layout.instances:
            span = range(inst.start, inst.start + inst.size)
            for i, s in enumerate(span):
                cells[s] = str(inst.size) if i == 0 else "-"
        result.add(idx, *cells, "+".join(str(s) for s in layout.sizes()))
    result.notes.append(f"{len(configs)} configurations (paper: 19)")
    return result
