"""Fixture-driven tests for every repro-lint rule.

Each rule gets (at least) one snippet that must trigger it, one
near-miss that must stay quiet, and one disable-comment case.  Snippets
are linted as in-memory source under synthetic paths so the identity-
module and wall-clock-allowlist routing is exercised too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import LintConfig, lint_source

ROOT = Path("/fake/repo")

#: A path inside the identity-checked set (D003/D004 active).
IDENTITY = ROOT / "src/repro/sim/example.py"
#: A path outside it (D003/D004 inactive) and outside the allowlist.
PLAIN = ROOT / "src/repro/experiments/example.py"
#: A path on the wall-clock allowlist.
ALLOWED = ROOT / "src/repro/experiments/wallclock.py"

CONFIG = LintConfig(root=ROOT)


def codes(source: str, path: Path = IDENTITY) -> list[str]:
    return [f.code for f in lint_source(source, path, CONFIG)]


def disable(rule_codes: str, reason: str | None = None) -> str:
    """Render a disable comment for a fixture snippet.

    Assembled at runtime so this test file itself never contains the
    literal marker — otherwise linting `tests/` would parse the fixture
    strings on their physical lines here.
    """
    comment = "# repro-" + "lint: disable=" + rule_codes
    if reason is not None:
        comment += f" ({reason})"
    return comment


# --------------------------------------------------------------------- #
# D001 - unseeded randomness
# --------------------------------------------------------------------- #


class TestD001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrandom.shuffle(items)\n",
            "import random\nx = random.random()\n",
            "import random as rnd\nx = rnd.randint(0, 7)\n",
            "from random import choice\nx = choice(items)\n",
            "import random\nrng = random.Random()\n",
            "import random\nrng = random.SystemRandom()\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "from numpy import random\nx = random.randint(9)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nrng = np.random.RandomState()\n",
        ],
    )
    def test_triggers(self, snippet):
        assert codes(snippet) == ["D001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Seeded constructors are the prescribed idiom.
            "import random\nrng = random.Random('seed:7')\n",
            "from random import Random\nrng = Random(13)\n",
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import numpy as np\nrng = np.random.default_rng(seed=42)\n",
            "import numpy as np\nrng = np.random.Generator(np.random.PCG64(1))\n",
            # Methods on a local Generator/Random object are untracked
            # by design: the seed was threaded at construction.
            "def f(rng):\n    return rng.random() + rng.choice([1, 2])\n",
            # A different module that happens to be called `random`.
            "import mylib.random as random\nrandom.shuffle(x)\n",
        ],
    )
    def test_near_misses(self, snippet):
        assert codes(snippet) == []

    def test_disable_with_reason(self):
        src = (
            "import random\n"
            f"random.shuffle(items)  {disable('D001', 'demo, order cosmetic')}\n"
        )
        assert codes(src) == []

    def test_disable_without_reason_is_d000_and_keeps_finding(self):
        src = f"import random\nrandom.shuffle(items)  {disable('D001')}\n"
        assert sorted(codes(src)) == ["D000", "D001"]


# --------------------------------------------------------------------- #
# D002 - wall-clock reads
# --------------------------------------------------------------------- #


class TestD002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt0 = time.perf_counter()\n",
            "from time import perf_counter\nt0 = perf_counter()\n",
            "import time\nclock = time.monotonic\n",  # bare reference
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nnow = datetime.datetime.utcnow()\n",
        ],
    )
    def test_triggers(self, snippet):
        assert codes(snippet, PLAIN) == ["D002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Simulated-clock arithmetic: no wall-clock module involved.
            "def step(clock_s, dt):\n    return clock_s + dt\n",
            "import time\ntime.sleep(0.1)\n",  # sleep is not a *read*
            "from datetime import timedelta\nd = timedelta(seconds=3)\n",
        ],
    )
    def test_near_misses(self, snippet):
        assert codes(snippet, PLAIN) == []

    def test_allowlisted_file_is_quiet(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert codes(src, ALLOWED) == []
        assert codes(src, ROOT / "benchmarks/perf/harness.py") == []

    def test_disable_with_reason(self):
        src = (
            "import time\n"
            f"t = time.time()  {disable('D002', 'log timestamp only')}\n"
        )
        assert codes(src, PLAIN) == []


# --------------------------------------------------------------------- #
# D003 - unordered iteration in identity modules
# --------------------------------------------------------------------- #


class TestD003:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for x in set(items):\n    emit(x)\n",
            "for x in {a, b, c}:\n    emit(x)\n",
            "order = [f(x) for x in frozenset(items)]\n",
            "order = list(set(items))\n",
            "pairs = {k: 1 for k in set(items)}\n",
            "gen = (x for x in set(items))\n",
        ],
    )
    def test_triggers(self, snippet):
        assert codes(snippet) == ["D003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # sorted() restores a deterministic order.
            "for x in sorted(set(items)):\n    emit(x)\n",
            "order = [f(x) for x in sorted({a, b})]\n",
            # Order-insensitive consumption is fine.
            "n = len(set(items))\n",
            "m = max(set(items))\n",
            "ok = x in set(items)\n",
            "same = set(a) == set(b)\n",
            # dict iteration is insertion-ordered in py>=3.7.
            "for k in mapping:\n    emit(k)\n",
            "vals = list(mapping.values())\n",
        ],
    )
    def test_near_misses(self, snippet):
        assert codes(snippet) == []

    def test_only_fires_in_identity_modules(self):
        src = "for x in set(items):\n    emit(x)\n"
        assert codes(src, PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            f"for x in set(items):  {disable('D003', 'emit is order-free')}\n"
            "    emit(x)\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# D004 - order-sensitive float accumulation
# --------------------------------------------------------------------- #


class TestD004:
    @pytest.mark.parametrize(
        "snippet",
        [
            "total = sum(set(costs))\n",
            "total = sum({a, b, c})\n",
            "total = sum(c.weight for c in set(costs))\n",
            "total = sum([c.weight for c in set(costs)])\n",
            "for c in set(costs):\n    total += c.weight\n",
            "for c in {a, b}:\n    total -= c\n",
        ],
    )
    def test_triggers(self, snippet):
        assert codes(snippet) == ["D004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "total = sum(sorted(set(costs)))\n",
            "total = sum(c.weight for c in sorted(set(costs)))\n",
            "total = sum(costs)\n",  # list: order fixed by the caller
            "total = sum(mapping.values())\n",  # dicts iterate insertion order
            "for c in sorted(set(costs)):\n    total += c\n",
        ],
    )
    def test_near_misses(self, snippet):
        assert codes(snippet) == []

    def test_only_fires_in_identity_modules(self):
        assert codes("total = sum(set(costs))\n", PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            "total = sum(set(counts))  "
            f"{disable('D004', 'integer counts, addition commutes')}\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# D005 - pickle-unsafe pool payloads
# --------------------------------------------------------------------- #


class TestD005:
    def test_lambda_to_submit(self):
        src = "fut = executor.submit(lambda: work(x))\n"
        assert codes(src, PLAIN) == ["D005"]

    def test_lambda_to_pool_run(self):
        src = "results = pool.run(lambda payload: payload + 1, payloads)\n"
        assert codes(src, PLAIN) == ["D005"]

    def test_local_function_to_pool(self):
        src = (
            "def drive(pool, payloads):\n"
            "    def job(p):\n"
            "        return p + 1\n"
            "    return pool.run(job, payloads)\n"
        )
        assert codes(src, PLAIN) == ["D005"]

    def test_module_level_function_is_fine(self):
        src = (
            "def job(p):\n"
            "    return p + 1\n"
            "def drive(pool, payloads):\n"
            "    return pool.run(job, payloads)\n"
        )
        assert codes(src, PLAIN) == []

    def test_lambda_elsewhere_is_fine(self):
        assert codes("key = sorted(xs, key=lambda x: x.id)\n", PLAIN) == []

    def test_non_pool_run_receiver_is_fine(self):
        assert codes("subprocess.run(['ls'])\n", PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            "fut = executor.submit(lambda: work(x))  "
            f"{disable('D005', 'thread pool, no pickling')}\n"
        )
        assert codes(src, PLAIN) == []


# --------------------------------------------------------------------- #
# D006 - fast-path parity
# --------------------------------------------------------------------- #


class TestD006:
    def test_unused_fast_path_switch(self):
        src = (
            "def schedule(services, fast_path=True):\n"
            "    return _indexed_schedule(services)\n"
        )
        assert codes(src, PLAIN) == ["D006"]

    def test_unused_workers_switch(self):
        src = (
            "def simulate(placement, workers: int = 4):\n"
            "    return _sharded(placement)\n"
        )
        assert codes(src, PLAIN) == ["D006"]

    def test_branching_on_the_switch_is_fine(self):
        src = (
            "def schedule(services, fast_path=True):\n"
            "    if fast_path:\n"
            "        return _indexed_schedule(services)\n"
            "    return _naive_schedule(services)\n"
        )
        assert codes(src, PLAIN) == []

    def test_storing_the_switch_is_fine(self):
        src = (
            "class S:\n"
            "    def __init__(self, indexed=True):\n"
            "        self.indexed = indexed\n"
        )
        assert codes(src, PLAIN) == []

    def test_signature_only_defs_are_skipped(self):
        src = (
            "class Proto:\n"
            "    def schedule(self, services, fast_path=True):\n"
            "        ...\n"
            "    def other(self, services, indexed=True):\n"
            "        raise NotImplementedError\n"
        )
        assert codes(src, PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            "def schedule(services, fast_path=True):  "
            f"{disable('D006', 'flag reserved for API compat')}\n"
            "    return _indexed_schedule(services)\n"
        )
        assert codes(src, PLAIN) == []


# --------------------------------------------------------------------- #
# D007 - swallowed exceptions
# --------------------------------------------------------------------- #


class TestD007:
    @pytest.mark.parametrize(
        "snippet",
        [
            "try:\n    f()\nexcept Exception:\n    pass\n",
            "try:\n    f()\nexcept BaseException:\n    pass\n",
            "try:\n    f()\nexcept:\n    result = None\n",
            "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n",
            # a logging call is not an acknowledgement: nothing counted,
            # nothing re-raised
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
        ],
    )
    def test_swallowing_handler(self, snippet):
        assert codes(snippet) == ["D007"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # narrow types are fine even when silent
            "try:\n    f()\nexcept ValueError:\n    pass\n",
            "try:\n    f()\nexcept (ConnectionError, OSError):\n    pass\n",
            # a counter increment acknowledges the failure
            "try:\n    f()\nexcept Exception:\n    health.errors += 1\n",
            # re-raising (bare or wrapped) acknowledges it
            "try:\n    f()\nexcept Exception:\n    raise\n",
            (
                "try:\n    f()\nexcept Exception as exc:\n"
                "    raise RuntimeError('x') from exc\n"
            ),
            # the counter may sit under a condition
            (
                "try:\n    f()\nexcept Exception:\n"
                "    if counting:\n        stats.failed += 1\n"
            ),
        ],
    )
    def test_acknowledged_or_narrow_handler(self, snippet):
        assert codes(snippet) == []

    def test_outside_identity_modules_is_quiet(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(src, PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            "try:\n    f()\n"
            f"except Exception:  {disable('D007', 'best-effort cleanup')}\n"
            "    pass\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# D008 - bare dict counters outside the obs facade
# --------------------------------------------------------------------- #


class TestD008:
    @pytest.mark.parametrize(
        "snippet",
        [
            "self.counters['intervals'] += 1\n",
            "metrics['replans'] += 1\n",
            "self.metric_totals[kind] += n\n",
            "step_counters[path] -= 1\n",
        ],
    )
    def test_triggers(self, snippet):
        assert codes(snippet) == ["D008"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # a plain-attribute stats object is the attach() idiom
            "self.health.steps += 1\n",
            # non-metric-named mappings stay out of scope
            "totals['x'] += 1\n",
            "self.pending[key] += 1\n",
            # assignment (not accumulation) into a metric store is how
            # the registry itself snapshots — never flagged
            "counters['x'] = 1\n",
            # reading a counter is fine
            "n = self.counters['x']\n",
        ],
    )
    def test_near_misses(self, snippet):
        assert codes(snippet) == []

    def test_only_fires_in_identity_modules(self):
        assert codes("metrics['x'] += 1\n", PLAIN) == []

    def test_disable_with_reason(self):
        src = (
            "metrics['x'] += 1  "
            f"{disable('D008', 'scratch dict in a local analysis pass')}\n"
        )
        assert codes(src) == []


# --------------------------------------------------------------------- #
# Cross-cutting: disables, parsing, multiple findings
# --------------------------------------------------------------------- #


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        assert codes("def broken(:\n", PLAIN) == ["E001"]

    def test_disable_only_suppresses_named_rule(self):
        src = (
            "import random, time\n"
            f"x = random.random() + time.time()  {disable('D001', 'demo')}\n"
        )
        assert codes(src, PLAIN) == ["D002"]

    def test_disable_with_multiple_codes(self):
        src = (
            "import random, time\n"
            "x = random.random() + time.time()  "
            f"{disable('D001,D002', 'demo script, not replayed')}\n"
        )
        assert codes(src, PLAIN) == []

    def test_unknown_rule_in_disable_is_d000(self):
        src = f"x = 1  {disable('D999', 'no such rule')}\n"
        assert codes(src, PLAIN) == ["D000"]

    def test_findings_carry_location_and_snippet(self):
        src = "import time\nt = time.time()\n"
        (finding,) = lint_source(src, PLAIN, CONFIG)
        assert (finding.code, finding.line) == ("D002", 2)
        assert finding.snippet == "t = time.time()"
        rendered = finding.render("src/repro/experiments/example.py")
        assert rendered.startswith("src/repro/experiments/example.py:2:")
