"""Configuration for ``repro-lint``.

The defaults below encode this repository's determinism contract; a
``[tool.repro-lint]`` table in ``pyproject.toml`` can override any of
them so the linter stays usable on forks with different layouts.  Paths
in the config are matched as POSIX-style globs against the *repo
relative* path of each linted file (``src/repro/sim/engine.py``), so the
config is independent of the working directory the linter runs from.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: Files where wall-clock reads (D002) are legitimate: the wall-clock
#: assertion gate itself, the scheduling-delay stopwatch (fig9's measured
#: quantity), the obs plane's single wall tap (every other obs module
#: takes durations as caller-observed values), the perf harness, and CLI
#: end-to-end timing.
DEFAULT_WALLCLOCK_ALLOW: tuple[str, ...] = (
    "src/repro/experiments/wallclock.py",
    "src/repro/metrics/delay.py",
    "src/repro/obs/wallclock.py",
    "src/repro/cli.py",
    "benchmarks/perf/*",
)

#: Modules whose outputs feed fingerprints (placements, simulation
#: reports, ops timelines) or order-sensitive float accumulation.  D003
#: (unordered iteration) and D004 (unordered float accumulation) only
#: fire here; everywhere else unordered iteration is merely unidiomatic.
DEFAULT_IDENTITY_MODULES: tuple[str, ...] = (
    "src/repro/core/*",
    "src/repro/sim/*",
    "src/repro/ops/*",
    "src/repro/gpu/*",
    "src/repro/metrics/*",
    "src/repro/baselines/*",
    "src/repro/scenarios/*",
    "src/repro/profiler/*",
    "src/repro/models/*",
    "src/repro/serve/*",
    "src/repro/obs/*",
)

#: Default location of the grandfathered-findings baseline.
DEFAULT_BASELINE = "src/repro/analysis/lint/baseline.txt"


@dataclass(frozen=True)
class LintConfig:
    """Resolved repro-lint settings."""

    root: Path
    wallclock_allow: tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOW
    identity_modules: tuple[str, ...] = DEFAULT_IDENTITY_MODULES
    baseline: str = DEFAULT_BASELINE
    exclude: tuple[str, ...] = field(default=())

    def relpath(self, path: Path) -> str:
        """``path`` relative to the repo root, with ``/`` separators."""
        try:
            rel = Path(path).resolve().relative_to(self.root.resolve())
        except ValueError:
            rel = Path(path)
        return rel.as_posix()

    def _matches(self, path: Path, globs: Sequence[str]) -> bool:
        rel = self.relpath(path)
        return any(fnmatch.fnmatch(rel, g) for g in globs)

    def wallclock_allowed(self, path: Path) -> bool:
        """True if D002 (wall-clock reads) is allowed in ``path``."""
        return self._matches(path, self.wallclock_allow)

    def is_identity_module(self, path: Path) -> bool:
        """True if ``path`` feeds fingerprints (enables D003/D004)."""
        return self._matches(path, self.identity_modules)

    def is_excluded(self, path: Path) -> bool:
        return self._matches(path, self.exclude)

    def baseline_path(self) -> Path:
        return self.root / self.baseline


def find_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``.

    Falls back to ``start`` itself (or its parent for files) when no
    project file is found, so the linter still runs on loose trees.
    """
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(root: Path | None = None, start: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``pyproject.toml`` overrides.

    ``root`` pins the repo root explicitly; otherwise it is discovered
    by walking up from ``start`` (default: the current directory).
    """
    resolved = Path(root) if root is not None else find_root(start or Path.cwd())
    table: dict[str, object] = {}
    pyproject = resolved / "pyproject.toml"
    if pyproject.is_file():
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
        tool = data.get("tool", {})
        if isinstance(tool, dict):
            section = tool.get("repro-lint", {})
            if isinstance(section, dict):
                table = section

    def _strings(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        value = table.get(key)
        if value is None:
            return default
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            raise TypeError(f"[tool.repro-lint] {key} must be a list of strings")
        return tuple(value)

    baseline = table.get("baseline", DEFAULT_BASELINE)
    if not isinstance(baseline, str):
        raise TypeError("[tool.repro-lint] baseline must be a string")
    return LintConfig(
        root=resolved,
        wallclock_allow=_strings("wallclock-allow", DEFAULT_WALLCLOCK_ALLOW),
        identity_modules=_strings("identity-modules", DEFAULT_IDENTITY_MODULES),
        baseline=baseline,
        exclude=_strings("exclude", ()),
    )
