"""Property-based tests: MIG layouts never violate hardware constraints."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.geometry import PartitionLayout
from repro.gpu.gpu import GPU, GPUError
from repro.gpu.mig import INSTANCE_SIZES, MIG_GEOMETRY
from repro.gpu.slices import popcount

placements = st.lists(
    st.tuples(
        st.sampled_from(INSTANCE_SIZES),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=10,
)


@given(placements)
def test_gpu_accepts_only_legal_non_overlapping(ops):
    """Greedily apply random (size, start) ops; the GPU must stay legal."""
    gpu = GPU(0)
    mask = 0
    for size, start in ops:
        legal = start in MIG_GEOMETRY.legal_starts(size)
        free = legal and not mask & MIG_GEOMETRY.occupied_mask(size, start)
        if legal and free:
            gpu.create_instance(size, start)
            mask |= MIG_GEOMETRY.occupied_mask(size, start)
        else:
            try:
                gpu.create_instance(size, start)
                raise AssertionError(
                    f"illegal placement {size}@{start} accepted"
                )
            except GPUError:
                pass
    assert gpu.occupied_mask == mask
    assert gpu.used_gpcs <= 7
    assert len(gpu.instances) <= 7


@given(placements)
def test_destroy_is_inverse_of_create(ops):
    gpu = GPU(0)
    created = []
    for size, start in ops:
        try:
            created.append(gpu.create_instance(size, start))
        except GPUError:
            pass
    for inst in created:
        gpu.destroy_instance(inst)
    assert gpu.is_empty
    assert gpu.occupied_mask == 0


@given(placements)
@settings(max_examples=50)
def test_layout_used_gpcs_never_exceeds_unblocked(ops):
    layout = PartitionLayout(MIG_GEOMETRY)
    for size, start in ops:
        if layout.can_add(size, start):
            layout.add(MIG_GEOMETRY.place(size, start))
    assert layout.used_gpcs <= popcount(layout.mask) <= 7
