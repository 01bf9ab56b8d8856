"""Unit tests: Table IV transcription and the scaling sweep."""

import hashlib

import pytest

from repro.scenarios import get_scenario, scaled_scenario, scenario_services
from repro.scenarios.table4 import SCENARIO_NAMES, SCENARIOS


class TestTableIV:
    def test_six_scenarios(self):
        assert SCENARIO_NAMES == ("S1", "S2", "S3", "S4", "S5", "S6")

    def test_s1_has_six_models(self):
        assert len(SCENARIOS["S1"].loads) == 6
        assert "densenet-169" not in SCENARIOS["S1"].models  # N/A in Table IV

    def test_s2_through_s6_have_eleven(self):
        for name in ("S2", "S3", "S4", "S5", "S6"):
            assert len(SCENARIOS[name].loads) == 11

    @pytest.mark.parametrize(
        "scenario,model,rate,lat",
        [
            ("S1", "bert-large", 19, 6434),
            ("S1", "vgg-19", 354, 397),
            ("S2", "resnet-50", 829, 205),
            ("S3", "mobilenetv2", 1546, 113),
            ("S4", "inceptionv3", 1576, 282),
            ("S5", "bert-large", 843, 2153),
            ("S5", "mobilenetv2", 5009, 59),
            ("S6", "mobilenetv2", 7513, 167),
            ("S6", "vgg-19", 2296, 397),
        ],
    )
    def test_exact_cells(self, scenario, model, rate, lat):
        load = SCENARIOS[scenario].load_for(model)
        assert load.request_rate == rate
        assert load.slo_latency_ms == lat

    def test_s3_s4_share_slos(self):
        for m in SCENARIOS["S3"].models:
            assert (
                SCENARIOS["S3"].load_for(m).slo_latency_ms
                == SCENARIOS["S4"].load_for(m).slo_latency_ms
            )

    def test_s2_s6_share_slos(self):
        for m in SCENARIOS["S2"].models:
            assert (
                SCENARIOS["S2"].load_for(m).slo_latency_ms
                == SCENARIOS["S6"].load_for(m).slo_latency_ms
            )

    def test_total_rate_ordering(self):
        totals = [SCENARIOS[n].total_rate for n in SCENARIO_NAMES]
        assert totals == sorted(totals)  # S1 lightest ... S6 heaviest

    def test_lookup_case_insensitive(self):
        assert get_scenario("s3").name == "S3"

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("S99")


class TestServiceBuilding:
    def test_services_fresh_each_call(self):
        a = scenario_services("S2")
        b = scenario_services("S2")
        assert a[0] is not b[0]

    def test_services_match_loads(self):
        services = scenario_services("S5")
        sc = get_scenario("S5")
        for svc in services:
            load = sc.load_for(svc.model)
            assert svc.request_rate == load.request_rate
            assert svc.slo_latency_ms == load.slo_latency_ms


class TestScaling:
    def test_factor_one_is_identity(self):
        assert len(scaled_scenario(1)) == 11

    def test_factor_k_multiplies(self):
        services = scaled_scenario(4)
        assert len(services) == 44
        ids = {s.id for s in services}
        assert len(ids) == 44  # distinct service ids

    def test_copies_share_load_shape(self):
        services = scaled_scenario(3)
        berts = [s for s in services if s.model == "bert-large"]
        assert len(berts) == 3
        assert all(s.request_rate == berts[0].request_rate for s in berts)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            scaled_scenario(0)

    def test_custom_base(self):
        services = scaled_scenario(2, base="S1")
        assert len(services) == 12


class TestFleetScenarios:
    def test_s9_s10_registered(self):
        assert len(get_scenario("S9").loads) == 1000
        assert len(get_scenario("S10").loads) == 200

    def test_s11_is_high_rate_s9(self):
        from repro.scenarios.fleet import S11_DURATION_S, S11_RATE_SCALE

        s9, s11 = get_scenario("S9").loads, get_scenario("S11").loads
        assert len(s11) == len(s9)
        # same fleet composition, every rate scaled up
        for a, b in zip(s9, s11):
            assert b.model == a.model
            assert b.slo_latency_ms == a.slo_latency_ms
            # both rates were rounded to one decimal, before/after scaling
            assert b.request_rate == pytest.approx(
                a.request_rate * S11_RATE_SCALE,
                abs=0.05 * (1.0 + S11_RATE_SCALE) + 0.01,
            )
        # the replay exceeds a million requests over its window
        total = sum(load.request_rate for load in s11)
        assert total * S11_DURATION_S >= 1_000_000

    def test_fleet_is_deterministic(self):
        from repro.scenarios.fleet import fleet_loads

        assert fleet_loads(250) == fleet_loads(250)
        assert fleet_loads(250, seed=1) != fleet_loads(250, seed=2)
        # rate_scale only rescales; the sampled fleet is the same
        assert fleet_loads(250, rate_scale=1.0) == fleet_loads(250)

    def test_fleet_services_have_unique_ids(self):
        services = scenario_services("S9")
        assert len({s.id for s in services}) == len(services) == 1000

    def test_fleet_slos_never_tightened(self):
        """Relaxed-only SLO jitter keeps every cell feasible by design."""
        from repro.scenarios.fleet import _base_loads, fleet_loads

        floor = {}
        for load in _base_loads():
            cur = floor.get(load.model)
            floor[load.model] = min(cur, load.slo_latency_ms) if cur else load.slo_latency_ms
        for load in fleet_loads(500):
            assert load.slo_latency_ms >= floor[load.model]
            assert load.request_rate > 0

    def test_fleet_traces_cover_every_service(self):
        from repro.scenarios import fleet_services, fleet_traces

        services = fleet_services(50)
        traces = fleet_traces(services, epochs=3)
        assert {t.service_id for t in traces} == {s.id for s in services}
        assert all(len(t.epochs) == 3 for t in traces)

    def test_single_occurrence_scenarios_keep_model_ids(self):
        """The id-uniquifier must not rename Table-IV services."""
        services = scenario_services("S2")
        assert [s.id for s in services] == [s.model for s in services]


class TestScenarioTables:
    #: sha256 over every registered scenario's (name, description, loads)
    #: reprs, in registry order, recorded when every table was built at
    #: import: building on first lookup must not move a single load.
    DIGEST = "5bda7ab8c4be7a78acddcea142fc8412fb4d3805923c9086067b7435b97f3ac1"

    def test_every_scenario_keeps_its_loads(self):
        from repro.scenarios import SCENARIO_NAMES as ALL

        h = hashlib.sha256()
        for name in ALL:
            sc = get_scenario(name)
            h.update(repr((sc.name, sc.description, sc.loads)).encode())
        assert h.hexdigest() == self.DIGEST

    def test_lookup_returns_one_object_per_name(self):
        from repro.scenarios import SCENARIOS as ALL

        assert get_scenario("s9") is get_scenario("S9") is ALL["S9"]

    def test_membership_and_listing_build_nothing(self):
        from repro.scenarios.table4 import ScenarioTable

        calls = []
        table = ScenarioTable({"A": lambda: calls.append("A") or SCENARIOS["S1"]})
        assert "A" in table and "B" not in table
        assert list(table) == ["A"] and len(table) == 1
        assert calls == []
        assert table["A"] is table["A"] is SCENARIOS["S1"]
        assert calls == ["A"]
