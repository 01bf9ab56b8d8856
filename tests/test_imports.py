"""What importing the package loads.

A control-plane run imports only the modules it executes: the package
``__init__`` modules re-export the rest lazily (PEP 562), the CLI
imports each subcommand's modules in its handler, and the scenario
tables build a scenario when it is first resolved.  Module sets are
read from ``sys.modules`` in a fresh interpreter, so the checks are
exact and machine-independent.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the control plane imports: the fleet controller, the profiler,
#: the serve gateway and the serving simulator.
CONTROL_PLANE = (
    "import repro.ops.controller, repro.profiler, repro.serve.gateway, "
    "repro.sim.runner\n"
)

#: Modules no control-plane run executes (prefixes end with a dot).
UNUSED = (
    "repro.baselines", "repro.baselines.",
    "repro.metrics", "repro.metrics.",
    "repro.scenarios", "repro.scenarios.",
    "repro.core.hetero", "repro.core.predictor",
    "repro.models.interference", "repro.obs.prometheus",
    "repro.ops.chaos", "repro.serve.status", "repro.sim.traces",
)

LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))\n"
)


def fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the JSON its last
    output line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def unused(modules: list) -> list:
    return [
        m for m in modules
        if any(m == u or (u.endswith(".") and m.startswith(u))
               for u in UNUSED)
    ]


class TestControlPlane:
    def test_bare_package_import_loads_no_subsystem(self):
        assert fresh("import repro\n" + LOADED) == ["repro", "repro._lazy"]

    def test_control_plane_loads_none_of_the_unused_modules(self):
        loaded = fresh(CONTROL_PLANE + LOADED)
        assert "repro.core.allocator" in loaded
        assert "repro.serve.realclock" in loaded
        assert unused(loaded) == []

    def test_runs_import_nothing_the_control_plane_did_not(self):
        """A measured closed-loop run (every event kind, tracing on), a
        short live gateway session and the recorded session's offline
        replay import no further module: nothing was merely deferred."""
        new = fresh(CONTROL_PLANE + """
before = {m for m in sys.modules if m.startswith("repro")}
import asyncio
from repro.core.service import Service
from repro.obs import ObsHub
from repro.ops.controller import FleetController
from repro.ops.events import (
    GpuFailure, GpuRecovery, RateEpoch, ServiceArrival, ServiceDeparture,
    SloChange, SpotPreemptionWave, merge_timeline,
)
from repro.profiler import profile_workloads
from repro.serve.driver import ScriptedDriver
from repro.serve.gateway import ServeGateway, replay_identity_checked
from repro.serve.realclock import MonotonicClock

services = [
    Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
    Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
    Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
]
timeline = merge_timeline(
    [GpuFailure(time_s=10.0, event_id="f0", draw=0.2)],
    [SpotPreemptionWave(time_s=20.0, event_id="w0", fraction=0.3,
                        draw=0.5, restore_delay_s=15.0)],
    [RateEpoch(time_s=30.0, service_id="b", rate=6000.0)],
    [SloChange(time_s=40.0, service_id="a", slo_latency_ms=300.0)],
    [ServiceArrival(time_s=50.0, service_id="n", model="resnet-101",
                    request_rate=200.0, slo_latency_ms=300.0)],
    [ServiceDeparture(time_s=60.0, service_id="c")],
    [GpuRecovery(time_s=70.0, ref="f0")],
)
kw = dict(measure_s=0.05, warmup_s=0.01)
profiles = profile_workloads()
FleetController(profiles=profiles, obs=ObsHub.live()).run(
    services, timeline, 80.0, **kw)
clock = MonotonicClock(time_scale=2000.0)
gateway = ServeGateway(FleetController(profiles=profiles), services, 80.0,
                       clock, deadline_budget_s=0.25, **kw)
driver = ScriptedDriver(timeline)
asyncio.run(gateway.run(driver.source(clock)))
replay_identity_checked(services, list(driver.sent), 80.0, **kw)
print(json.dumps(sorted(
    m for m in sys.modules if m.startswith("repro") and m not in before
)))
""")
        assert new == []


class TestCli:
    SKIPPED = ("repro.experiments", "repro.baselines", "repro.metrics")

    def run_cli(self, *argv: str) -> dict:
        out = fresh(f"""
import contextlib, io
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main({list(argv)!r})
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
registry = sys.modules.get("repro.scenarios.registry")
built = list(registry.SCENARIOS._built) if registry else []
print(json.dumps([code, loaded, built]))
""")
        return dict(zip(("code", "loaded", "built"), out))

    def skipped_loaded(self, loaded: list) -> list:
        return [m for m in loaded if m.startswith(self.SKIPPED)]

    def test_help_imports_no_subcommand(self):
        run = self.run_cli("--help")
        assert run["code"] == 0
        assert self.skipped_loaded(run["loaded"]) == []
        assert unused(run["loaded"]) == []

    def test_ops_builds_only_its_scenario(self):
        run = self.run_cli("ops", "--scenario", "s12", "--horizon", "3600",
                           "--measure", "0")
        assert run["code"] == 0
        assert self.skipped_loaded(run["loaded"]) == []
        assert run["built"] == ["S12"]

    def test_serve_builds_only_its_scenario(self):
        run = self.run_cli("serve", "--scenario", "S16", "--clock", "virtual",
                           "--horizon", "600", "--measure", "0")
        assert run["code"] == 0
        assert self.skipped_loaded(run["loaded"]) == []
        assert "repro.serve.status" not in run["loaded"]
        assert run["built"] == ["S16"]


LAZY_PACKAGES = ("repro", "repro.core", "repro.models", "repro.obs",
                 "repro.serve")


def type_checking_imports(package) -> dict:
    """``{module: names}`` imported under the package's
    ``if TYPE_CHECKING:`` block."""
    tree = ast.parse(Path(package.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
    )
    return {
        stmt.module: {alias.name for alias in stmt.names}
        for stmt in block.body if isinstance(stmt, ast.ImportFrom)
    }


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_public_name_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for attr in package.__all__:
            value = getattr(package, attr)
            module = next(
                (m for m, names in package._LAZY.items() if attr in names),
                None,
            )
            defined = inspect.isclass(value) or inspect.isfunction(value)
            if module is None:  # an eager re-export
                module = value.__module__ if defined else name
            elif defined:
                assert value.__module__ == module, attr
            source = importlib.import_module(module)
            assert value is getattr(source, attr), attr

    def test_typed_imports_match_the_lazy_table(self, name):
        """The names typed under ``TYPE_CHECKING`` are exactly the lazy
        table's, from the same modules."""
        package = importlib.import_module(name)
        assert type_checking_imports(package) == {
            module: set(names) for module, names in package._LAZY.items()
        }

    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_public_name(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(importlib.import_module(name).__all__) <= set(namespace)

    def test_unknown_attribute_raises(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


def test_scenario_tables_build_only_what_is_resolved():
    built = fresh("""
from repro.scenarios import extended, fleet, get_scenario, ops, registry
tables = (registry.SCENARIOS, extended.EXTENDED_SCENARIOS,
          fleet.FLEET_SCENARIOS, ops.OPS_SCENARIOS)
before = [list(t._built) for t in tables]
get_scenario("s13")
print(json.dumps([before, [list(t._built) for t in tables]]))
""")
    assert built == [[[], [], [], []], [["S13"], [], [], ["S13"]]]
