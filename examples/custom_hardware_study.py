#!/usr/bin/env python
"""Using the substrate directly: a what-if study on MIG geometry.

The paper's Discussion section argues ParvaGPU ports to any architecture
with fully-isolated partitioning.  This example drives the GPU substrate
directly — enumerating Figure 1's configurations, building layouts by
hand, and measuring how the slot rules affect packing — the kind of
exploration a systems researcher would do before porting the allocator to
a new accelerator.

Run:  python examples/custom_hardware_study.py
"""

from repro.gpu import GPU, MIG_GEOMETRY, Cluster, enumerate_layouts
from repro.gpu.slices import largest_free_run


def main() -> None:
    print("=== the 19 legal A100 MIG configurations (Figure 1) ===")
    for idx, layout in enumerate(enumerate_layouts(MIG_GEOMETRY), start=1):
        sizes = "+".join(str(s) for s in layout.sizes())
        wasted = 7 - layout.used_gpcs
        note = f"  ({wasted} GPC unusable)" if wasted else ""
        print(f"  config {idx:>2}: {sizes:<14}{note}")

    print("\n=== instance profiles ===")
    for size in MIG_GEOMETRY.instance_sizes:
        print(
            f"  {MIG_GEOMETRY.profile_name(size)}: {size} GPC, "
            f"{MIG_GEOMETRY.instance_memory_gb(size)} GB"
        )

    print("\n=== why a size-3 at slot 0 is poison (SIII-E1) ===")
    gpu = GPU(0)
    gpu.create_instance(3, 0, owner="svc-a")
    print(f"  after 3@slot0: free slices {gpu.free_slice_indices()}")
    print(f"  slice 3 blocked -> largest free run {gpu.largest_free_run()}")
    gpu.destroy_all()
    gpu.create_instance(3, 4, owner="svc-a")
    print(f"  after 3@slot4: free slices {gpu.free_slice_indices()} "
          f"(a 4-GPC instance still fits at slot 0: {gpu.can_place(4, 0)})")

    print("\n=== packing head-to-head: slot rules vs naive placement ===")
    demand = [3, 3, 2, 2, 2, 1, 1]  # GPCs
    naive = Cluster()
    for i, size in enumerate(demand):
        for g in naive.gpus:
            starts = g.feasible_starts(size)
            if starts:
                g.create_instance(size, starts[0], owner=f"svc{i}")
                break
        else:
            g = naive.add_gpu()
            g.create_instance(size, g.feasible_starts(size)[0], owner=f"svc{i}")
    print(f"  naive first-start placement: {naive.used_gpu_count()} GPUs")

    ruled = Cluster()
    prefer = {3: (4,), 2: (0, 2, 4, 5), 1: (0, 1, 2, 3, 4, 5, 6)}
    for i, size in enumerate(demand):
        placed = False
        for g in ruled.gpus:
            for start in prefer[size]:
                if g.can_place(size, start):
                    g.create_instance(size, start, owner=f"svc{i}")
                    placed = True
                    break
            if placed:
                break
        if not placed:
            g = ruled.add_gpu()
            g.create_instance(size, prefer[size][0], owner=f"svc{i}")
    print(f"  paper's slot preferences:    {ruled.used_gpu_count()} GPUs")
    for g in ruled.gpus:
        print(f"    GPU {g.gpu_id}: " + ", ".join(f"{i.size}g@{i.start}" for i in g.instances))


if __name__ == "__main__":
    main()
