"""Unit tests for the Placement deployment map."""

import pytest

from repro.baselines import make_framework
from repro.core.hetero import GeometryPool, HeterogeneousParvaGPU
from repro.core.parvagpu import ParvaGPU
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.gpu.geometry import get_geometry
from repro.profiler import profile_workloads
from repro.scenarios import scenario_services


def mig_seg(sid="a", gpcs=2.0, start=0, capacity=100.0, **kw):
    defaults = dict(
        service_id=sid,
        model="resnet-50",
        kind="mig",
        gpcs=gpcs,
        batch_size=8,
        num_processes=2,
        capacity=capacity,
        latency_ms=10.0,
        sm_activity=0.9,
        start=start,
    )
    defaults.update(kw)
    return PlacedSegment(**defaults)


def mps_seg(sid="a", gpcs=3.5, capacity=100.0, **kw):
    defaults = dict(
        service_id=sid,
        model="resnet-50",
        kind="mps",
        gpcs=gpcs,
        batch_size=8,
        num_processes=1,
        capacity=capacity,
        latency_ms=10.0,
        sm_activity=0.9,
    )
    defaults.update(kw)
    return PlacedSegment(**defaults)


class TestPlacedSegment:
    def test_mig_needs_start(self):
        with pytest.raises(ValueError):
            mig_seg(start=None)

    def test_mig_integral_size(self):
        with pytest.raises(ValueError):
            mig_seg(gpcs=2.5)

    def test_mps_fractional_ok(self):
        assert mps_seg(gpcs=1.4).sm_count == pytest.approx(1.4 * 14)

    def test_bounds(self):
        with pytest.raises(ValueError):
            mps_seg(gpcs=0.0)
        with pytest.raises(ValueError):
            mps_seg(gpcs=7.5)
        with pytest.raises(ValueError):
            mig_seg(capacity=0.0)

    def test_integer_fields_reject_look_alikes(self):
        """``"4"`` and ``4.0`` would render a slot or count that reads
        like the integer's (``"4"`` prints exactly as ``4``)."""
        assert mig_seg(start=4).start == 4
        for bad in ("4", 4.0):
            with pytest.raises(TypeError, match="start"):
                mig_seg(start=bad)
            with pytest.raises(TypeError, match="batch_size"):
                mig_seg(batch_size=bad)
            with pytest.raises(TypeError, match="num_processes"):
                mps_seg(num_processes=bad)
        with pytest.raises(TypeError, match="start"):
            mig_seg()._replace(start="4")

    def test_load_fraction_clamped(self):
        s = mig_seg(capacity=100.0).with_served_rate(150.0)
        assert s.load_fraction == 1.0
        s = mig_seg(capacity=100.0).with_served_rate(50.0)
        assert s.load_fraction == 0.5


class TestGPUPlanValidation:
    def test_legal_mig_plan(self):
        plan = GPUPlan(0, [mig_seg(gpcs=4.0, start=0), mig_seg(gpcs=3.0, start=4)])
        plan.validate()

    def test_overlapping_mig_rejected(self):
        plan = GPUPlan(0, [mig_seg(gpcs=4.0, start=0), mig_seg(gpcs=7.0, start=0)])
        with pytest.raises(ValueError):
            plan.validate()

    def test_mps_quota_enforced(self):
        plan = GPUPlan(0, [mps_seg(gpcs=5.0), mps_seg(sid="b", gpcs=3.0)])
        with pytest.raises(ValueError):
            plan.validate()

    def test_no_mixing_mig_and_mps(self):
        plan = GPUPlan(0, [mig_seg(), mps_seg(sid="b", gpcs=1.0)])
        with pytest.raises(ValueError):
            plan.validate()


class TestPlacement:
    def build(self):
        p = Placement(framework="test")
        p.add(0, mig_seg(sid="a", gpcs=4.0, start=0, capacity=300.0))
        p.add(0, mig_seg(sid="b", gpcs=3.0, start=4, capacity=200.0))
        p.add(1, mig_seg(sid="a", gpcs=2.0, start=0, capacity=100.0))
        return p

    def test_num_gpus_ignores_empty(self):
        p = self.build()
        p.gpu(5)  # create empty plans up to id 5
        assert p.num_gpus == 2

    def test_drop_empty_renumbers(self):
        p = self.build()
        p.gpu(4)
        p.drop_empty_gpus()
        assert [g.gpu_id for g in p.gpus] == [0, 1]

    def test_segments_of(self):
        p = self.build()
        assert len(p.segments_of("a")) == 2
        assert p.total_capacity("a") == 400.0

    def test_service_ids(self):
        assert self.build().service_ids() == ("a", "b")

    def test_repeated_gpu_id_rejected(self):
        p = Placement(
            framework="test",
            gpus=[
                GPUPlan(0, [mig_seg(sid="a", gpcs=4.0, start=0)]),
                GPUPlan(0, [mig_seg(sid="b", gpcs=3.0, start=4)]),
            ],
        )
        with pytest.raises(ValueError, match="GPU 0 is listed twice"):
            p.validate()

    def test_sm_accounting(self):
        p = self.build()
        assert p.allocated_sms() == pytest.approx((4 + 3 + 2) * 14)
        assert p.total_sms() == pytest.approx(2 * 98)


class TestAssignRates:
    def test_proportional(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a", gpcs=1.0, start=0, capacity=300.0))
        p.add(0, mig_seg(sid="a", gpcs=1.0, start=1, capacity=100.0))
        p.assign_rates({"a": 200.0}, policy="proportional")
        rates = sorted(s.served_rate for _, s in p.iter_segments())
        assert rates == [pytest.approx(50.0), pytest.approx(150.0)]
        assert p.rates_assigned

    def test_fill_saturates_best_tp_per_gpc_first(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a", gpcs=1.0, start=0, capacity=300.0))
        p.add(0, mig_seg(sid="a", gpcs=2.0, start=2, capacity=400.0))
        p.assign_rates({"a": 350.0}, policy="fill")
        by_start = {s.start: s.served_rate for _, s in p.iter_segments()}
        # 300 tp/gpc on the 1-GPC segment beats 200 on the 2-GPC one.
        assert by_start[0] == pytest.approx(300.0)
        assert by_start[2] == pytest.approx(50.0)

    def test_fill_overload_lands_on_largest(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a", gpcs=1.0, start=0, capacity=100.0))
        p.assign_rates({"a": 150.0}, policy="fill")
        (_, s), = p.iter_segments()
        assert s.served_rate == pytest.approx(150.0)

    def test_unknown_policy(self):
        p = self_placement = Placement(framework="t")
        p.add(0, mig_seg())
        with pytest.raises(ValueError):
            p.assign_rates({"a": 1.0}, policy="nope")

    def test_missing_service_raises(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a"))
        with pytest.raises(ValueError):
            p.assign_rates({"b": 1.0})


class TestInstanceSpecs:
    def test_mig_export(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a", gpcs=4.0, start=0))
        specs = p.to_instance_specs()
        assert specs[0].size == 4
        assert specs[0].owner == "a"

    def test_mps_export_rejected(self):
        p = Placement(framework="t")
        p.add(0, mps_seg())
        with pytest.raises(ValueError):
            p.to_instance_specs()


def _render(plan: GPUPlan) -> str:
    """A fresh rendering of one plan's fingerprint line (the format)."""
    return f"{plan.gpu_id}|{plan.geometry}" + "".join(
        f";{s.service_id},{s.model},{s.kind},{s.gpcs!r},"
        f"{s.batch_size},{s.num_processes},{s.capacity!r},"
        f"{s.latency_ms!r},{s.sm_activity!r},{s.start},"
        f"{s.served_rate!r},{s.geometry}"
        for s in plan.segments
    )


class TestImmutablePlans:
    def test_segment_rejects_mutation(self):
        seg = mig_seg()
        for name in PlacedSegment._fields:
            with pytest.raises(AttributeError):
                setattr(seg, name, 1)
            with pytest.raises(AttributeError):
                object.__setattr__(seg, name, 1)
        with pytest.raises(AttributeError):
            seg.note = "extra"  # no instance dict either

    def test_segment_copies_revalidate(self):
        with pytest.raises(ValueError):
            mig_seg()._replace(capacity=0.0)
        assert mig_seg().with_served_rate(5.0) == mig_seg(served_rate=5.0)

    def test_plan_rejects_mutation(self):
        plan = GPUPlan(0, [mig_seg()])
        assert type(plan.segments) is tuple
        with pytest.raises(AttributeError):
            plan.segments = ()
        with pytest.raises(AttributeError):
            plan.gpu_id = 1
        with pytest.raises(TypeError):
            plan.segments[0] = mig_seg(sid="b")
        with pytest.raises(AttributeError):
            plan.segments.append(mig_seg(sid="b"))

    def test_line_rendered_once_and_cached(self):
        plan = GPUPlan(3, [mig_seg(), mig_seg(sid="b", start=2)])
        line = plan.fingerprint()
        assert plan.fingerprint() is line
        assert line == _render(plan)
        assert repr(plan) == repr(GPUPlan(3, plan.segments))  # cache hidden
        assert plan == GPUPlan(3, plan.segments)
        fresh = GPUPlan(5, [mig_seg()])
        p = Placement(framework="t", gpus=[plan, GPUPlan(4), fresh])
        assert p.render_lines() == ([line, _render(fresh)], 1)  # empty skipped
        assert p.render_lines() == ([line, _render(fresh)], 0)

    def test_assign_rates_keeps_untouched_plans(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a", gpcs=4.0, start=0, capacity=300.0))
        p.add(1, mig_seg(sid="b", gpcs=4.0, start=0, capacity=200.0))
        p.add(2, mig_seg(sid="a", gpcs=2.0, start=0, capacity=100.0))
        p.assign_rates({"a": 100.0, "b": 50.0})
        before = list(p.gpus)
        p.assign_rates({"a": 120.0, "b": 50.0})  # only "a" moves
        assert p.gpus[1] is before[1]
        assert p.gpus[0] is not before[0] and p.gpus[2] is not before[2]
        assert before[0].segments[0].served_rate == pytest.approx(75.0)
        assert p.gpus[0].segments[0].served_rate == pytest.approx(90.0)
        same = list(p.gpus)
        p.assign_rates({"a": 120.0, "b": 50.0})  # nothing moves
        assert all(a is b for a, b in zip(p.gpus, same))

    def test_add_replaces_the_plan(self):
        p = Placement(framework="t")
        a, b = mig_seg(sid="a", gpcs=4.0, start=0), mig_seg(sid="b", start=4)
        p.add(0, a)
        first = p.gpus[0]
        p.add(0, b)
        assert first.segments == (a,)
        assert p.gpus[0].segments == (a, b)
        with pytest.raises(ValueError):
            p.add(0, mig_seg(sid="c", start=6, geometry="mi300x"))
        assert p.gpus[0].segments == (a, b)

    def test_drop_empty_renumbers_by_new_plans(self):
        p = Placement(framework="t")
        p.add(0, mig_seg(sid="a"))
        p.add(2, mig_seg(sid="b"))
        kept, moved = p.gpus[0], p.gpus[2]
        p.drop_empty_gpus()
        assert p.gpus[0] is kept
        assert (p.gpus[1].gpu_id, p.gpus[1].segments) == (1, moved.segments)
        assert moved.gpu_id == 2


@pytest.fixture(scope="module")
def placements(profiles):
    """Placements from every scheduler and the hetero merge, each with
    its lines already rendered once."""
    services = scenario_services("S1")
    out = {"parvagpu": ParvaGPU(profiles).schedule(services)}
    for name in ("gpulet", "igniter", "mig-serving", "gslice", "paris-elsa"):
        out[name] = make_framework(name, profiles).schedule(services)
    mi300x = get_geometry("mi300x")
    out["hetero"] = HeterogeneousParvaGPU([
        GeometryPool(get_geometry("mig"), profiles),
        GeometryPool(mi300x, profile_workloads(geometry=mi300x)),
    ]).schedule(scenario_services("S7"))
    for placement in out.values():
        placement.fingerprint()
    return out


@pytest.mark.parametrize("source", [
    "parvagpu", "gpulet", "igniter", "mig-serving", "gslice", "paris-elsa",
    "hetero",
])
def test_cached_line_equals_fresh_render(placements, source):
    placement = placements[source]
    assert placement.gpus
    for plan in placement.gpus:
        assert plan.fingerprint() == _render(plan)
    assert placement.fingerprint() == "\n".join(
        _render(g) for g in placement.gpus if g.segments
    )
