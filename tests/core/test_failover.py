"""Integration tests for GPU-failure recovery."""

import random

import pytest

from repro.core import DeploymentManager, ParvaGPU, Service
from repro.core.failover import FailoverController
from repro.scenarios import scenario_services


@pytest.fixture
def deployed(profiles):
    services = scenario_services("S2")
    placement = ParvaGPU(profiles).schedule(services)
    manager = DeploymentManager(profiles)
    manager.deploy(placement)
    return services, placement, manager


class TestFailover:
    def test_capacity_restored(self, deployed):
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        result = ctrl.fail_gpu(0, services)
        for svc in services:
            assert result.placement.total_capacity(svc.id) >= svc.request_rate * (
                1 - 1e-9
            ), svc.id

    def test_result_bookkeeping(self, deployed):
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        result = ctrl.fail_gpu(0, services)
        assert result.failed_gpu == 0
        assert result.affected_services
        assert all(v > 0 for v in result.lost_capacity.values())
        assert result.reconfig_ops > 0
        result.placement.validate()

    def test_untouched_services_keep_instances(self, deployed):
        services, placement, manager = deployed
        victims = {s.service_id for s in placement.gpus[0].segments}
        survivors = set(placement.service_ids()) - victims
        ctrl = FailoverController(manager)
        result = ctrl.fail_gpu(0, services)
        for sid in survivors:
            assert result.cost.downtime_s.get(sid, 0.0) == 0.0, sid

    def test_failing_empty_gpu_rejected(self, deployed):
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        with pytest.raises(ValueError):
            ctrl.fail_gpu(99, services)

    def test_without_deployment_rejected(self, profiles):
        ctrl = FailoverController(DeploymentManager(profiles))
        with pytest.raises(RuntimeError):
            ctrl.fail_gpu(0, [])

    def test_hosted_service_missing_from_argument(self, deployed):
        """Regression: a hosted service absent from ``services`` used to
        surface as a bare KeyError deep inside allocation optimization;
        it must be a ValueError naming the missing service id.  The
        up-front guard covers the failed GPU's services."""
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        victims = {seg.service_id for seg in placement.gpus[0].segments}
        dropped = [s for s in services if s.id in victims][-1]
        subset = [s for s in services if s.id != dropped.id]
        with pytest.raises(ValueError, match=dropped.id):
            ctrl.fail_gpu(0, subset)

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_victim_service_missing_from_argument_is_named(
        self, deployed, profiles, fast_path
    ):
        """Every service on the failed GPU must be in ``services``: each
        missing one is named in one ValueError, before anything moves."""
        services, placement, _ = deployed
        manager = DeploymentManager(profiles, fast_path=fast_path)
        manager.deploy(placement)
        victims = sorted({s.service_id for s in placement.gpus[0].segments})
        subset = [s for s in services if s.id not in victims[:2]]
        ctrl = FailoverController(manager)
        with pytest.raises(
            ValueError,
            match="deployment hosts services missing from the `services` "
            f"argument: {victims[0]}, {victims[1]}$",
        ):
            ctrl.fail_gpu(0, subset)
        assert manager.current is placement
        assert not manager.retired_gpus

    def test_restore_unknown_gpu_rejected(self, deployed):
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        with pytest.raises(ValueError):
            ctrl.restore_gpu(0)  # never failed

    def test_restore_registers_spare(self, deployed):
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        ctrl.fail_gpu(0, services)
        assert ctrl.failed == {0: "mig"}
        assert ctrl.restore_gpu(0) == "mig"
        assert ctrl.failed == {}
        assert manager.spare_gpus == {0: "mig"}
        # restoring twice is an error: the GPU is back already
        with pytest.raises(ValueError):
            ctrl.restore_gpu(0)

    def test_restored_capacity_visible_to_next_replan(self, deployed):
        """A restored GPU rejoins the free pool: the next re-plan drafts it
        (by its original id) before opening a fresh GPU."""
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        ctrl.fail_gpu(0, services)
        ctrl.restore_gpu(0)
        grown = next(s for s in services if s.model == "mobilenetv2")
        # Grow far past the surviving GPUs' holes so new capacity is needed.
        new_placement, _ = manager.update_slo(
            services, grown, new_rate=grown.request_rate * 40
        )
        assert not manager.spare_gpus  # the spare was drafted...
        assert any(  # ...under its original device id
            g.gpu_id == 0 and not g.is_empty for g in new_placement.gpus
        )

    def test_failed_gpu_id_reserved_until_restore(self, deployed):
        """Regression: growth after failing the highest-id GPU used to hand
        the dead device's id to a fresh GPU (`next_gpu_id = max + 1`), so
        a later restore collided with live capacity."""
        services, placement, manager = deployed
        ctrl = FailoverController(manager)
        victim = max(g.gpu_id for g in manager.current.gpus if not g.is_empty)
        ctrl.fail_gpu(victim, services)
        grown = next(s for s in services if s.model == "mobilenetv2")
        new_placement, _ = manager.update_slo(
            services, grown, new_rate=grown.request_rate * 8
        )
        assert all(
            g.gpu_id != victim for g in new_placement.gpus if not g.is_empty
        )
        ctrl.restore_gpu(victim)  # still restorable: id never reused
        assert manager.spare_gpus == {victim: "mig"}

    def test_sequential_failures_survivable(self, profiles):
        """Losing two GPUs in a row still yields a valid, covering map."""
        services = scenario_services("S4")
        manager = DeploymentManager(profiles)
        manager.deploy(ParvaGPU(profiles).schedule(services))
        ctrl = FailoverController(manager)
        r1 = ctrl.fail_gpu(manager.current.gpus[0].gpu_id, services)
        # GPU ids are preserved, so the failed id is gone; hit the next one.
        r2 = ctrl.fail_gpu(r1.placement.gpus[0].gpu_id, services)
        r2.placement.validate()
        for svc in services:
            assert r2.placement.total_capacity(svc.id) >= svc.request_rate * (
                1 - 1e-9
            )

    def test_published_placement_never_changes_under_its_holder(
        self, profiles
    ):
        """Published plans are copy-on-write: every placement an earlier
        delta returned stays byte-identical through later failures and
        SLO updates, which share its untouched plans and re-route the
        services on them (drains change a service's total capacity)."""
        services = scenario_services("S3")
        manager = DeploymentManager(profiles)
        manager.deploy(ParvaGPU(profiles).schedule(services))
        ctrl = FailoverController(manager)
        rng = random.Random(0)
        held = []
        for _ in range(6):
            if rng.random() < 0.5:
                victim = rng.choice([g.gpu_id for g in manager.current.gpus])
                placement = ctrl.fail_gpu(victim, services).placement
            else:
                svc = rng.choice(services)
                factor = rng.choice([0.3, 0.7, 1.5, 2.5])
                placement, _ = manager.update_slo(
                    services, svc, new_rate=svc.request_rate * factor
                )
            held.append((placement, placement.fingerprint(), repr(placement)))
        ctrl.restore_gpu(next(iter(ctrl.failed)))
        manager.remove_service(services[:-1], services[-1].id)

        for placement, fingerprint, text in held:
            assert (placement.fingerprint(), repr(placement)) == (
                fingerprint, text
            )
        assert any(  # consecutive maps share untouched plans
            {id(g) for g in a.gpus} & {id(g) for g in b.gpus}
            for (a, _, _), (b, _, _) in zip(held, held[1:])
        )
