"""Unit tests for the reconfiguration cost model (SIII-F)."""

import pytest

from repro.gpu.cluster import Cluster, InstanceSpec, ReconfigurationPlan
from repro.gpu.reconfig import (
    CREATE_COST_S,
    DESTROY_COST_S,
    PROCESS_LAUNCH_COST_S,
    ReconfigurationCost,
    ShadowBudget,
    price_plan,
)


def spec(gpu, size, start, owner, procs=1):
    return InstanceSpec(gpu_id=gpu, size=size, start=start, owner=owner,
                        num_processes=procs)


class TestPricePlan:
    def test_noop_costs_nothing(self):
        cost = price_plan(ReconfigurationPlan())
        assert cost.total_work_s == 0.0
        assert cost.max_downtime_s == 0.0
        assert cost.shadow_gpus == 0
        assert cost.disrupted_services == ()

    def test_create_cost_includes_processes(self):
        plan = ReconfigurationPlan(create=[spec(0, 2, 0, "a", procs=3)])
        cost = price_plan(plan)
        assert cost.total_work_s == pytest.approx(
            CREATE_COST_S + 3 * PROCESS_LAUNCH_COST_S
        )
        assert cost.downtime_s["a"] == cost.total_work_s

    def test_destroy_cost(self):
        plan = ReconfigurationPlan(destroy=[(0, (0, 2, "a"))])
        assert price_plan(plan).total_work_s == pytest.approx(DESTROY_COST_S)

    def test_unchanged_services_have_zero_downtime(self):
        # A plan is its diff: a service outside it gets no entry.
        plan = ReconfigurationPlan(create=[spec(0, 2, 0, "a")])
        cost = price_plan(plan)
        assert "b" not in cost.downtime_s
        assert cost.disrupted_services == ("a",)

    def test_shadow_gpus_round_up(self):
        plan = ReconfigurationPlan(
            create=[spec(0, 7, 0, "a"), spec(1, 1, 0, "b")]
        )
        assert price_plan(plan).shadow_gpus == 2  # 8 GPCs -> 2 GPUs

    def test_end_to_end_with_cluster(self):
        cluster = Cluster()
        cluster.apply_specs([spec(0, 4, 0, "a"), spec(0, 3, 4, "b")])
        plan = cluster.plan_reconfiguration(
            [spec(0, 2, 0, "a"), spec(0, 3, 4, "b")]
        )
        cost = price_plan(plan)
        assert cost.downtime_s["a"] > 0
        assert "b" not in cost.downtime_s


class TestShadowBudget:
    def test_admit_within_budget(self):
        budget = ShadowBudget(spare_gpus=2)
        plan = ReconfigurationPlan(create=[spec(0, 7, 0, "a")])
        assert budget.admit(0.0, price_plan(plan))
        assert budget.peak_used == 1

    def test_reject_over_budget(self):
        budget = ShadowBudget(spare_gpus=1)
        plan = ReconfigurationPlan(
            create=[spec(0, 7, 0, "a"), spec(1, 7, 0, "b")]
        )
        assert not budget.admit(0.0, price_plan(plan))
        assert budget.peak_used == 0


class TestCombine:
    def test_combine_sums_work_and_downtime_maxes_shadow(self):
        a = ReconfigurationCost(
            total_work_s=1.0, downtime_s={"x": 1.0, "y": 0.5}, shadow_gpus=2
        )
        b = ReconfigurationCost(
            total_work_s=2.0, downtime_s={"y": 0.25, "z": 3.0}, shadow_gpus=1
        )
        combined = ReconfigurationCost.combine([a, b])
        assert combined.total_work_s == pytest.approx(3.0)
        assert combined.downtime_s == {"x": 1.0, "y": 0.75, "z": 3.0}
        assert combined.shadow_gpus == 2

    def test_combine_key_order_is_sorted_not_hash_order(self):
        # Regression (repro-lint D003): the combined downtime dict used to
        # be keyed over a raw set comprehension, so its insertion order --
        # and anything that later iterates or serializes it -- followed
        # PYTHONHASHSEED.  The union must come out sorted regardless of
        # the order the per-swap costs mention services in.
        a = ReconfigurationCost(
            total_work_s=0.0,
            downtime_s={f"svc-{i}": 1.0 for i in (9, 3, 7)},
            shadow_gpus=0,
        )
        b = ReconfigurationCost(
            total_work_s=0.0,
            downtime_s={f"svc-{i}": 1.0 for i in (1, 8, 3)},
            shadow_gpus=0,
        )
        for costs in ([a, b], [b, a]):
            combined = ReconfigurationCost.combine(costs)
            assert list(combined.downtime_s) == sorted(combined.downtime_s)


def _full_combine(costs):
    """The per-service sums over every service of ``_priced_costs``'s
    cluster, zeros included: the arithmetic ``combine`` had when
    ``price_plan`` wrote a zero entry for every untouched instance."""
    return {
        sid: sum(c.downtime_s.get(sid, 0.0) for c in costs)
        for sid in "abcde"
    }


def _priced_costs():
    """Three priced re-plans of one deployed cluster: each keeps some
    instances (no downtime entry) and disrupts others."""
    cluster = Cluster()
    running = [
        spec(0, 4, 0, "a"), spec(0, 3, 4, "b"), spec(1, 2, 0, "c", procs=2),
        spec(1, 1, 2, "d", procs=3), spec(2, 7, 0, "e"),
    ]
    cluster.execute(cluster.plan_reconfiguration(running))
    targets = [
        running[:2] + [spec(1, 2, 4, "c", procs=2)] + running[3:],
        [running[0], spec(2, 3, 4, "b"), running[2], spec(1, 1, 3, "d", 3)],
        running,  # a quiet re-plan: everything unchanged
    ]
    return [
        price_plan(
            cluster.plan_reconfiguration(target),
            destroy_cost_s=0.1, create_cost_s=0.7, process_cost_s=0.3,
        )
        for target in targets
    ]


class TestCombineDisruptedOnly:
    def test_price_plan_writes_no_zero_entries(self):
        costs = _priced_costs()
        assert "a" not in costs[0].downtime_s
        assert all(d > 0 for c in costs for d in c.downtime_s.values())
        assert costs[2].downtime_s == {}
        free_teardown = price_plan(
            ReconfigurationPlan(destroy=[(0, (0, 2, "a"))]), destroy_cost_s=0.0
        )
        assert free_teardown.downtime_s == {}

    def test_matches_the_full_sum_on_nonzero_entries(self):
        costs = _priced_costs()
        new = ReconfigurationCost.combine(costs)
        old = _full_combine(costs)
        assert new.downtime_s == {k: v for k, v in old.items() if v}
        # bit-identical sums, in the same (sorted) order
        assert list(new.downtime_s) == [k for k, v in old.items() if v]
        assert [v.hex() for v in new.downtime_s.values()] == [
            old[k].hex() for k in new.downtime_s
        ]
        assert new.downtime_total_s.hex() == sum(old.values()).hex()
        assert new.max_downtime_s == max(old.values())
        assert new.disrupted_services == tuple(
            k for k, v in old.items() if v > 0
        )
        assert new.total_work_s == sum(c.total_work_s for c in costs)

    def test_quiet_total_is_a_float(self):
        quiet = ReconfigurationCost.combine(_priced_costs()[2:])
        assert quiet.downtime_s == {}
        assert repr(quiet.downtime_total_s) == "0.0"
        assert repr(ReconfigurationCost.combine([]).downtime_total_s) == "0.0"
