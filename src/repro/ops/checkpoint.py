"""The append-only run record an interrupted ``ops`` run resumes from.

Every step of a :class:`~repro.ops.controller.FleetController` run is a
pure function of the initial services, the static timeline, the
controller configuration and the run parameters — except the serving
measurement, which is a read-only readout of the deployed placement.
So a run is recorded as what it cannot recompute without serving again,
and a resume *replays* the rest.

File format — JSON Lines, one sealed object per line::

    {"format": "parvagpu-run-record", "version": 1, <controller config>,
     <run parameters>, "services_sha": ..., "timeline_sha": ...,
     "sha256": ...}
    {"t": ..., "fingerprint": ..., "compliance": ..., "worst_service": ...,
     "worst_service_compliance": ..., "sim_fingerprint": ...,
     "per_service_compliance": {...}, "sha256": ...}
    ...

The header is the first line; then one line per closed interval: its
instant, its placement fingerprint digest and its measured fields.
Each line's ``sha256`` is the digest of the line's JSON without it, so
any bit flip is caught before a field is trusted.  Lines are only ever
appended.  :func:`decode_lines` holds the one torn-tail rule this and
the gateway's journal share: a partial final line (a write cut short by
a crash) is dropped and flagged; any other bad line is corruption, which
the run record refuses.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Generic, Mapping, Optional, Sequence, TypeVar

from repro.core.service import Service
from repro.ops.events import OpsEvent, event_to_doc
from repro.ops.report import IntervalRecord, OpsReport

#: Bump on any incompatible change to the line layout.
RECORD_VERSION = 1

RECORD_FORMAT = "parvagpu-run-record"

#: the interval fields a replay cannot recompute without serving again
MEASURED_FIELDS = (
    "compliance",
    "worst_service",
    "worst_service_compliance",
    "sim_fingerprint",
    "per_service_compliance",
)
_INTERVAL_KEYS = frozenset(("t", "fingerprint") + MEASURED_FIELDS)

_SEAL = ',"sha256":"'

T = TypeVar("T")


class CheckpointError(RuntimeError):
    """A run record is unreadable, corrupt, or from a different run."""


# --------------------------------------------------------------------- #
# lines
# --------------------------------------------------------------------- #


@dataclass
class DecodedLines(Generic[T]):
    """What :func:`decode_lines` read back — and what it had to tolerate."""

    items: list[T]
    #: 1-based numbers of the lines that failed to decode, torn tail aside
    bad: list[int]
    #: the final line was partial — the expected torn-write artifact
    torn: bool
    #: non-blank lines seen (decoded + bad + the torn tail)
    seen: int


def decode_lines(text: str, decode: Callable[[str], T]) -> DecodedLines[T]:
    """Decode every non-blank line of ``text``.

    A final line without its newline that does not decode (``decode``
    raises :class:`ValueError`) is a write the crash cut short: it is
    dropped and flagged ``torn``.  Any other line that does not decode is
    listed in ``bad``; the caller refuses or counts it.
    """
    pieces = text.split("\n")
    items: list[T] = []
    bad: list[int] = []
    torn = False
    seen = 0
    for number, piece in enumerate(pieces, 1):
        if not piece.strip():
            continue
        seen += 1
        try:
            items.append(decode(piece))
        except ValueError:
            if number == len(pieces):
                torn = True
            else:
                bad.append(number)
    return DecodedLines(items, bad, torn, seen)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seal(doc: Mapping[str, Any]) -> str:
    """One record line: ``doc``'s JSON with its own digest appended."""
    body = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    return f'{body[:-1]}{_SEAL}{_sha256(body)}"}}'


def unseal(line: str) -> dict[str, Any]:
    """The object :func:`seal` wrote; :class:`ValueError` unless the
    line's digest matches its content."""
    head, sep, tail = line.rpartition(_SEAL)
    body = head + "}"
    if not sep or tail[-2:] != '"}' or tail[:-2] != _sha256(body):
        raise ValueError("not a sealed record line")
    doc = json.loads(body)
    if not isinstance(doc, dict):
        raise ValueError("a record line must be a JSON object")
    return doc


def interval_doc(rec: IntervalRecord) -> dict[str, Any]:
    """An interval's record line: instant, fingerprint, measured fields."""
    doc: dict[str, Any] = {"t": rec.time_s, "fingerprint": rec.fingerprint}
    for name in MEASURED_FIELDS:
        doc[name] = getattr(rec, name)
    return doc


# --------------------------------------------------------------------- #
# digests of what a run starts from
# --------------------------------------------------------------------- #


def _canonical(doc: object) -> bytes:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def timeline_digest(events: Sequence[OpsEvent]) -> str:
    """Order-sensitive digest of a (sorted, filtered) static timeline.

    Stored in every record header and re-verified on resume: replaying
    against a *different* timeline would diverge, which the per-interval
    check would only catch later and less clearly.
    """
    h = hashlib.sha256()
    for event in events:
        h.update(_canonical(event_to_doc(event)))
        h.update(b"\n")
    return h.hexdigest()


def services_digest(services: Sequence[Service]) -> str:
    """Order-sensitive digest of a run's initial services."""
    return hashlib.sha256(_canonical([
        [s.id, s.model, s.slo_latency_ms, s.request_rate, s.slo_factor]
        for s in services
    ])).hexdigest()


# --------------------------------------------------------------------- #
# the record file
# --------------------------------------------------------------------- #


@dataclass
class RunRecord:
    """A run record read back: its header and its whole interval lines."""

    path: Path
    header: dict[str, Any]
    intervals: list[dict[str, Any]]
    #: what followed the last newline (a partial line) was dropped
    torn: bool
    #: bytes of the whole lines, where appending continues
    size: int


def read_record(
    path: str | Path, expect: Optional[Mapping[str, Any]] = None
) -> RunRecord:
    """Read and verify a run record.

    Raises :class:`CheckpointError` on a missing file, a line that fails
    its checksum (a torn final line aside, which is dropped), a foreign
    header or — with ``expect`` — any expected field the header lacks or
    holds differently from the run about to resume (all of them named;
    header fields the run does not expect are ignored).
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read run record {target}: {exc}") from exc
    lines = decode_lines(raw.decode("utf-8", errors="replace"), unseal)
    if lines.bad:
        raise CheckpointError(
            f"run record {target}: line {lines.bad[0]} fails its checksum "
            "— the file is corrupt"
        )
    # Appending continues after the last newline, so a whole final line
    # that lost only its newline is dropped too (and re-run live).
    size = raw.rfind(b"\n") + 1
    torn = bool(raw[size:].strip())
    if torn and not lines.torn:
        lines.items.pop()
    if not lines.items:
        raise CheckpointError(f"{target} holds no {RECORD_FORMAT} header")
    header, *intervals = lines.items
    if (header.get("format"), header.get("version")) != (
        RECORD_FORMAT, RECORD_VERSION,
    ):
        raise CheckpointError(
            f"{target} is not a version-{RECORD_VERSION} {RECORD_FORMAT}"
        )
    if any(set(doc) != _INTERVAL_KEYS for doc in intervals):
        raise CheckpointError(f"run record {target} has a malformed interval")
    if expect is not None:
        differ = [
            f"{name} (record {header.get(name)!r} != {value!r})"
            for name, value in expect.items()
            if header.get(name) != value
        ]
        if differ:
            raise CheckpointError(
                "the run record was written by a different run: "
                + ", ".join(differ)
            )
    return RunRecord(target, header, intervals, torn, size)


class RecordWriter:
    """Appends interval lines to a run record, fsyncing every ``every``
    lines (and on :meth:`flush`; ``every=0`` only there)."""

    def __init__(
        self,
        path: str | Path,
        header: Mapping[str, Any],
        every: int,
        record: Optional[RunRecord] = None,
    ) -> None:
        """Start a record at ``path`` with ``header``, or — given the
        ``record`` read back from ``path`` itself — continue it after its
        last whole line."""
        self.path = Path(path)
        self.every = every
        self.flushes = 0
        self._pending: list[str] = []
        if record is None:
            #: interval lines written or pending
            self.lines = 0
            self._write("w", [seal(header) + "\n"])
        else:
            self.lines = len(record.intervals)
            os.truncate(self.path, record.size)

    def append(self, rec: IntervalRecord) -> None:
        self._pending.append(seal(interval_doc(rec)) + "\n")
        self.lines += 1
        if self.every and len(self._pending) >= self.every:
            self.flush()

    def flush(self) -> None:
        self._write("a", self._pending)
        self._pending = []
        self.flushes += 1

    def _write(self, mode: str, lines: list[str]) -> None:
        with open(self.path, mode, encoding="utf-8") as fh:
            fh.writelines(lines)
            fh.flush()
            os.fsync(fh.fileno())


# --------------------------------------------------------------------- #
# the full-fidelity report document (the perf harness compares it)
# --------------------------------------------------------------------- #


def report_to_doc(report: OpsReport) -> dict[str, Any]:
    """Full-fidelity report state (richer than ``OpsReport.to_doc``):
    every interval and failure field but the wall-clock sidecar."""
    intervals = [asdict(r) for r in report.intervals]
    for doc in intervals:
        del doc["obs_sidecar"]
    return {
        "horizon_s": report.horizon_s,
        "geometry": report.geometry,
        "fast_path": report.fast_path,
        "intervals": intervals,
        "failures": [asdict(r) for r in report.failures],
    }


__all__ = [
    "CheckpointError",
    "DecodedLines",
    "MEASURED_FIELDS",
    "RECORD_FORMAT",
    "RECORD_VERSION",
    "RecordWriter",
    "RunRecord",
    "decode_lines",
    "interval_doc",
    "read_record",
    "report_to_doc",
    "seal",
    "services_digest",
    "timeline_digest",
    "unseal",
]
