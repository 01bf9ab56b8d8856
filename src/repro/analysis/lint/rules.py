"""The repro-lint rule set: this repository's determinism contract as AST checks.

Every fast path in the repo is bit-identical to a naive reference, and
every timeline replay is bit-identical across processes and hash seeds.
Those identities are enforced dynamically (fingerprint replays, property
tests), but dynamic checks only catch a hazard on inputs that happen to
exercise it.  The rules here reject the *source constructs* that break
determinism, so a violation is caught on every run of the linter rather
than probabilistically:

====  ==============================================================
D001  Unseeded randomness: ``random.*`` module functions (global RNG
      state), ``random.Random()`` / ``numpy.random.default_rng()``
      without a seed, ``random.SystemRandom``, and the legacy
      ``numpy.random.*`` module API.
D002  Wall-clock reads (``time.time``, ``time.perf_counter``,
      ``datetime.now`` ...) outside the configured allowlist.
D003  Iterating a ``set``/``frozenset`` (literal, comprehension, or
      constructor call) in an identity-checked module without a
      ``sorted(...)`` wrapper: iteration order depends on
      ``PYTHONHASHSEED``, so anything it feeds can drift per process.
D004  Order-sensitive float accumulation (``sum()`` or ``+=`` loops)
      over an unordered iterable in an identity-checked module: float
      addition is non-associative, so an unordered reduction is not
      reproducible even within one process.
D005  Un-picklable shard payloads: lambdas or locally-defined
      functions handed to executor/pool submission APIs
      (a pool's ``run``, ``submit``, ``map`` ...).
D006  Fast-path parity: a function accepting a ``fast_path`` /
      ``indexed`` / ``workers`` switch must actually branch on it —
      otherwise the naive/serial reference path the identity checks
      replay against does not exist.
D007  Swallowed exceptions: a bare ``except:`` or overbroad
      ``except Exception/BaseException`` in an identity-checked module
      whose handler neither re-raises nor increments a counter.  A
      silently absorbed error is how a control plane diverges from its
      replay without any fingerprint noticing; degraded paths must
      either propagate or be *counted* into a health surface.
D008  Bare dict counters: ``+=`` on a subscript of a ``*counter*`` /
      ``*metric*``-named mapping in an identity-checked module.
      Ad-hoc metric stores are exactly how recording leaks into
      fingerprinted state (and how three snapshot formats drift
      apart); recording must go through the obs facade
      (:class:`repro.obs.ObsHub` counters, or a plain-attribute stats
      object attached via ``registry.attach``).
====  ==============================================================

The checks are deliberately syntactic (no type inference): they flag
direct constructs only, e.g. ``for x in set(...)`` but not ``s = set();
for x in s``.  That keeps them zero-false-negative on the idioms the
repo actually uses while staying cheap enough to run on every commit;
the dynamic identity checks remain the backstop for aliased values.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Rule code -> one-line description (the ``--list-rules`` catalog).
RULES: dict[str, str] = {
    "D000": "malformed or reason-less disable comment (a reason is required)",
    "D001": "unseeded randomness (global RNG state or seed-less constructor)",
    "D002": "wall-clock read outside the configured allowlist",
    "D003": "unordered set iteration in an identity-checked module",
    "D004": "order-sensitive float accumulation over an unordered iterable",
    "D005": "lambda/local function passed to a process-pool submission",
    "D006": "fast-path switch accepted but never used (no reference path)",
    "D007": "broad exception handler that neither re-raises nor counts",
    "D008": "bare dict counter mutation outside the obs facade",
    "E001": "file could not be parsed",
}

#: ``random`` module-level functions that mutate/read the hidden global RNG.
_RANDOM_MODULE_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "sample", "shuffle", "uniform", "triangular",
        "betavariate", "binomialvariate", "expovariate", "gammavariate",
        "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "seed",
    }
)

#: ``numpy.random`` names that are part of the Generator API and fine to
#: reference (construction is checked separately for missing seeds).
_NUMPY_GENERATOR_API = frozenset(
    {
        "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    }
)

#: Fully-qualified wall-clock reads (D002).
_WALLCLOCK_NAMES = frozenset(
    {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.localtime", "time.gmtime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Call names that consume an iterable order-insensitively, so an
#: unordered argument is harmless.
_ORDER_INSENSITIVE_SINKS = frozenset(
    {"sorted", "min", "max", "len", "any", "all", "set", "frozenset",
     "sum", "math.fsum"}
)

#: Call names that preserve their argument's iteration order (so an
#: unordered argument leaks hash order into the result).
_ORDER_PRESERVING_SINKS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "itertools.chain"}
)

#: Executor/pool methods whose callable arguments cross a pickle boundary.
_SUBMISSION_ATTRS = frozenset(
    {"submit", "map", "apply_async", "starmap", "imap", "imap_unordered"}
)

#: Parameter names that switch between an optimized path and its naive
#: reference (D006).
_FASTPATH_PARAMS = frozenset({"fast_path", "indexed", "workers"})

#: Exception classes considered overbroad in a handler (D007): catching
#: these absorbs *any* failure, including the ones the identity
#: contract needs to surface.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

#: Subscript base names that look like hand-rolled metric stores (D008):
#: incrementing into one of these bypasses the obs facade.
_METRIC_STORE_RE = re.compile(r"counter|metric", re.IGNORECASE)


@dataclass
class Finding:
    """One rule violation at a source location."""

    path: Path
    line: int
    col: int
    code: str
    message: str
    #: The stripped source line, filled in by the engine (used for the
    #: baseline key so entries survive unrelated line-number churn).
    snippet: str = field(default="")

    def render(self, relpath: str) -> str:
        return f"{relpath}:{self.line}:{self.col}: {self.code} {self.message}"


class _Scope:
    """Per-function bookkeeping for D005 (locally-defined callables)."""

    def __init__(self) -> None:
        self.local_funcs: set[str] = set()


class DeterminismVisitor(ast.NodeVisitor):
    """Single-pass visitor producing findings for rules D001-D006."""

    def __init__(self, path: Path, *, wallclock_allowed: bool,
                 identity_module: bool) -> None:
        self.path = path
        self.wallclock_allowed = wallclock_allowed
        self.identity_module = identity_module
        self.findings: list[Finding] = []
        #: import alias -> canonical dotted module path
        self._modules: dict[str, str] = {}
        #: from-imported name -> canonical dotted origin
        self._names: dict[str, str] = {}
        self._scopes: list[_Scope] = []
        #: node ids whose unordered-ness has been sanctioned or reported
        self._handled: set[int] = set()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, if statically known.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` given ``import numpy as np``; local
        variables resolve to ``None``.
        """
        if isinstance(node, ast.Name):
            if node.id in self._names:
                return self._names[node.id]
            if node.id in self._modules:
                return self._modules[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def _call_name(self, node: ast.Call) -> Optional[str]:
        """Resolved dotted name of a call target, or the bare builtin name."""
        resolved = self._resolve(node.func)
        if resolved is not None:
            return resolved
        if isinstance(node.func, ast.Name):
            return node.func.id
        return None

    def _unordered_reason(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` evaluates to an unordered iterable, or None."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = self._call_name(node)
            if name in ("set", "frozenset"):
                return f"a {name}() call"
        return None

    def _first_unordered_source(self, node: ast.AST) -> Optional[str]:
        """Unordered-ness of ``node`` or of a comprehension's source."""
        reason = self._unordered_reason(node)
        if reason is not None:
            return reason
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return self._unordered_reason(node.generators[0].iter)
        return None

    @staticmethod
    def _has_float_accumulation(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.AugAssign) and isinstance(
                    sub.op, (ast.Add, ast.Sub)
                ):
                    return True
        return False

    @staticmethod
    def _is_signature_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """True for stubs: docstring plus ``pass`` / ``...`` / ``raise``."""
        for stmt in node.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare `...`
            if isinstance(stmt, (ast.Pass, ast.Raise)):
                continue
            return False
        return True

    # ------------------------------------------------------------------ #
    # imports
    # ------------------------------------------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._modules[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname is None and "." in alias.name:
                # `import concurrent.futures` binds `concurrent`; record the
                # full path too so attribute chains resolve canonically.
                self._modules[alias.name.split(".")[0]] = alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib RNG/clock modules
        for alias in node.names:
            self._names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------------ #
    # D001 / D002 / D005 and unordered sinks (calls)
    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        name = self._call_name(node)
        if name is not None:
            self._check_randomness(node, name)
            self._check_unordered_sink(node, name)
        self._check_submission(node)
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call, name: str) -> None:
        if name == "random.Random":
            if not node.args and not node.keywords:
                self._add(node, "D001",
                          "random.Random() without a seed argument")
        elif name == "random.SystemRandom":
            self._add(node, "D001",
                      "random.SystemRandom is non-deterministic by design")
        elif name.startswith("random."):
            func = name.split(".", 1)[1]
            if func in _RANDOM_MODULE_FUNCS:
                self._add(
                    node, "D001",
                    f"random.{func}() uses the global RNG; thread an "
                    "explicit random.Random(seed) instead",
                )
        elif name.startswith("numpy.random."):
            func = name.removeprefix("numpy.random.")
            if func == "default_rng":
                if not node.args and not node.keywords:
                    self._add(node, "D001",
                              "numpy.random.default_rng() without a seed")
            elif func == "RandomState":
                if not node.args and not node.keywords:
                    self._add(node, "D001",
                              "numpy.random.RandomState() without a seed")
            elif "." not in func and func not in _NUMPY_GENERATOR_API:
                self._add(
                    node, "D001",
                    f"legacy numpy.random.{func}() uses global RNG state; "
                    "use numpy.random.default_rng(seed)",
                )

    def _check_unordered_sink(self, node: ast.Call, name: str) -> None:
        if name in _ORDER_INSENSITIVE_SINKS:
            for arg in node.args:
                self._handled.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    self._handled.add(id(arg.generators[0].iter))
            if name == "sum" and self.identity_module and node.args:
                reason = self._first_unordered_source(node.args[0])
                if reason is not None:
                    self._add(
                        node, "D004",
                        f"sum() over {reason}: float addition is "
                        "order-sensitive and set order follows the hash "
                        "seed; sort the operands first",
                    )
        elif name in _ORDER_PRESERVING_SINKS and self.identity_module:
            for arg in node.args:
                reason = self._unordered_reason(arg)
                if reason is not None:
                    self._handled.add(id(arg))
                    self._add(
                        node, "D003",
                        f"{name}() materializes {reason} in hash order; "
                        "wrap it in sorted(...)",
                    )

    def _check_submission(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = ast.unparse(func.value).lower()
        is_submission = func.attr in _SUBMISSION_ATTRS or (
            func.attr == "run" and "pool" in receiver
        )
        if not is_submission:
            return
        args = list(node.args) + [kw.value for kw in node.keywords]
        for arg in args:
            if isinstance(arg, ast.Lambda):
                self._add(
                    node, "D005",
                    f"lambda passed to {receiver}.{func.attr}(): lambdas "
                    "do not pickle across process boundaries",
                )
            elif isinstance(arg, ast.Name) and any(
                arg.id in scope.local_funcs for scope in self._scopes
            ):
                self._add(
                    node, "D005",
                    f"locally-defined function '{arg.id}' passed to "
                    f"{receiver}.{func.attr}(): nested functions do not "
                    "pickle; hoist it to module level",
                )

    # ------------------------------------------------------------------ #
    # D002 (wall-clock references)
    # ------------------------------------------------------------------ #

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_wallclock(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_wallclock(node)

    def _check_wallclock(self, node: ast.AST) -> None:
        if self.wallclock_allowed:
            return
        resolved = self._resolve(node)
        if resolved in _WALLCLOCK_NAMES:
            self._add(
                node, "D002",
                f"wall-clock read {resolved} outside the allowlist; "
                "simulated paths must take time from the event clock",
            )

    # ------------------------------------------------------------------ #
    # D003 / D004 (unordered iteration and accumulation)
    # ------------------------------------------------------------------ #

    def visit_For(self, node: ast.For) -> None:
        if self.identity_module and id(node.iter) not in self._handled:
            reason = self._unordered_reason(node.iter)
            if reason is not None:
                self._handled.add(id(node.iter))
                if self._has_float_accumulation(node.body):
                    self._add(
                        node, "D004",
                        f"accumulating over {reason}: iteration order "
                        "follows the hash seed, so the float result is "
                        "not reproducible; iterate sorted(...) instead",
                    )
                else:
                    self._add(
                        node, "D003",
                        f"iterating {reason}: order follows the hash "
                        "seed; wrap it in sorted(...)",
                    )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        if not self.identity_module:
            return
        for gen in node.generators:  # type: ignore[attr-defined]
            if id(gen.iter) in self._handled:
                continue
            reason = self._unordered_reason(gen.iter)
            if reason is not None:
                self._handled.add(id(gen.iter))
                self._add(
                    node, "D003",
                    f"comprehension over {reason}: order follows the "
                    "hash seed; wrap the source in sorted(...)",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if id(node) not in self._handled:
            self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if id(node) not in self._handled:
            self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    # SetComp sources are order-insensitive (the result is a set), so no
    # comprehension check there; consumption of the set itself is flagged.

    # ------------------------------------------------------------------ #
    # D008 (bare dict counters outside the obs facade)
    # ------------------------------------------------------------------ #

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.identity_module and isinstance(node.target, ast.Subscript):
            base = node.target.value
            name: Optional[str] = None
            if isinstance(base, ast.Attribute):
                name = base.attr
            elif isinstance(base, ast.Name):
                name = base.id
            if name is not None and _METRIC_STORE_RE.search(name):
                self._add(
                    node, "D008",
                    f"bare dict counter '{name}[...]' in an "
                    "identity-checked module: record through the obs "
                    "facade (an ObsHub counter, or a plain-attribute "
                    "stats object attached via registry.attach) so "
                    "recording never touches fingerprinted state",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # D007 (swallowed exceptions)
    # ------------------------------------------------------------------ #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.identity_module and self._is_broad_handler(node.type):
            acknowledged = any(
                isinstance(inner, (ast.Raise, ast.AugAssign))
                for stmt in node.body
                for inner in ast.walk(stmt)
            )
            if not acknowledged:
                label = (
                    "bare except"
                    if node.type is None
                    else f"except {ast.unparse(node.type)}"
                )
                self._add(
                    node, "D007",
                    f"{label} swallows errors silently: re-raise, narrow "
                    "the type, or count the failure into a health counter",
                )
        self.generic_visit(node)

    def _is_broad_handler(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True  # bare except
        candidates = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for candidate in candidates:
            name = self._resolve(candidate)
            if name is None and isinstance(candidate, ast.Name):
                name = candidate.id
            if name in _BROAD_EXCEPTIONS:
                return True
        return False

    # ------------------------------------------------------------------ #
    # D006 and scope tracking
    # ------------------------------------------------------------------ #

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._scopes:
            self._scopes[-1].local_funcs.add(node.name)
        self._check_fastpath_parity(node)
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _check_fastpath_parity(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for deco in node.decorator_list:
            name = ast.unparse(deco)
            if "overload" in name or "abstractmethod" in name:
                return
        if self._is_signature_only(node):
            return
        params = [
            a.arg
            for a in (*node.args.args, *node.args.posonlyargs,
                      *node.args.kwonlyargs)
            if a.arg in _FASTPATH_PARAMS
        ]
        if not params:
            return
        used = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name)
        }
        for param in params:
            if param not in used:
                self._add(
                    node, "D006",
                    f"'{param}' switch accepted by {node.name}() but never "
                    "used: the naive/serial reference path this repo's "
                    "identity checks replay against does not exist here",
                )


def check(tree: ast.AST, path: Path, *, wallclock_allowed: bool,
          identity_module: bool) -> list[Finding]:
    """Run all rules over a parsed module and return raw findings."""
    visitor = DeterminismVisitor(
        path,
        wallclock_allowed=wallclock_allowed,
        identity_module=identity_module,
    )
    visitor.visit(tree)
    return visitor.findings
