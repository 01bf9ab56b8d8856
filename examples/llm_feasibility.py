#!/usr/bin/env python
"""The Discussion-section LLM study: can spatial sharing survive big models?

The paper argues (SV) that although LLM memory appetites shrink the set of
usable MIG segments, compact models (7 GB LLaMA-class, QLoRA'd Guanacos)
plus bigger-memory generations (H200 141 GB, B200 192 GB) keep spatial GPU
sharing viable.  This example quantifies that argument with the substrate:
for each workload and GPU generation, which instance sizes can host it,
and what does a ParvaGPU-style segment plan look like on each board?

Run:  python examples/llm_feasibility.py
"""

from repro.gpu.generations import geometry_for_generation
from repro.models.perf import PerfModel
from repro.models.zoo import ModelSpec

# LLM-class serving workloads (weights sized via the fp32-equivalent
# parameter count so ModelSpec.weights_gb lands on the cited footprints).
LLAMA_7B_LIGHT = ModelSpec(  # the paper's "7GB of memory" lightweight LLaMA
    name="llama-7b-light", params_millions=1400.0, t_inf=18.0, b_half=1.0,
    o0=2.0, o1=1.2, o_exp=0.7, eta=1.0, act_gb_per_req=0.25, bw_intensity=0.7,
)
GUANACO_7B = ModelSpec(  # QLoRA Guanaco-7B: ~5 GB
    name="guanaco-7b", params_millions=1000.0, t_inf=16.0, b_half=1.0,
    o0=2.0, o1=1.2, o_exp=0.7, eta=1.0, act_gb_per_req=0.22, bw_intensity=0.7,
)
GUANACO_65B = ModelSpec(  # QLoRA Guanaco-65B: ~41 GB
    name="guanaco-65b", params_millions=8200.0, t_inf=95.0, b_half=1.0,
    o0=4.0, o1=2.0, o_exp=0.7, eta=1.0, act_gb_per_req=1.2, bw_intensity=0.8,
)

WORKLOADS = (LLAMA_7B_LIGHT, GUANACO_7B, GUANACO_65B)
BATCH, PROCS = 4, 1


def main() -> None:
    order = ["a100-40gb", "a100-80gb", "h100-80gb", "h200-141gb", "b200-192gb"]
    print("feasible MIG segment sizes (batch 4, 1 process):\n")
    print(f"{'workload':<16} {'mem GB':>7} " + " ".join(f"{g:>12}" for g in order))
    for spec in WORKLOADS:
        row = [f"{spec.name:<16}"]
        need = PerfModel(spec).memory_gb(BATCH, PROCS)
        row.append(f"{need:>7.1f}")
        for gen_name in order:
            geometry = geometry_for_generation(gen_name)
            perf = PerfModel(spec, geometry=geometry)
            sizes = [
                s for s in geometry.instance_sizes
                if perf.fits(s, BATCH, PROCS)
            ]
            row.append(f"{('/'.join(map(str, sizes)) or '-'): >12}")
        print(" ".join(row))

    print(
        "\nReading: the 7 GB-class models fit a single 1g slice from the"
        "\nA100-80GB onward (7-way spatial sharing); the 41 GB Guanaco-65B"
        "\nneeds at least a 3g slice of an H200 or B200 — exactly the"
        "\npaper's claim that newer generations keep spatial sharing"
        "\nviable even for large generative models."
    )

    # How many concurrent tenants per GPU does each generation admit?
    print(f"\n{'generation':<12} {'max 7GB-LLM tenants/GPU':>25}")
    for gen_name in order:
        perf = PerfModel(
            LLAMA_7B_LIGHT, geometry=geometry_for_generation(gen_name)
        )
        tenants = 7 if perf.fits(1, BATCH, PROCS) else (
            3 if perf.fits(2, BATCH, PROCS) else
            2 if perf.fits(3, BATCH, PROCS) else
            1 if perf.fits(7, BATCH, PROCS) else 0
        )
        print(f"{gen_name:<12} {tenants:>25}")


if __name__ == "__main__":
    main()
