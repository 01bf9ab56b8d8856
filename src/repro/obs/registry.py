"""Deterministic metrics registry: counters, gauges, histograms.

The registry is the push half of the observability plane: hot paths
increment plain Python numbers in-place (an attribute lookup and a
float add — cheap enough to stay enabled by default), and everything
presentational is pull-based.  :meth:`MetricsRegistry.collect` walks
the families in sorted name order, so two identical replays render
byte-identical expositions; recording never touches fingerprinted
state, and no module here reads the wall clock (durations arrive as
values observed by callers, see :mod:`repro.obs.wallclock`).

Besides push-style families the registry can *attach* an existing
stats object (``GatewayHealth``, ``SegmentMemo``, ``JournalStats``):
the object keeps its plain-attribute API (``health.steps += 1`` stays
an attribute increment) and declares an ``OBS_FIELDS`` spec mapping
each attribute to a metric kind; :meth:`MetricsRegistry.collect`
snapshots the attributes on demand.  :func:`fields_doc` derives the
JSON health document from the same spec, so the counter families are
defined exactly once.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Protocol

#: Fixed bucket edges (seconds) shared by every duration histogram.
#: Fixed edges keep expositions mergeable across runs and replays.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelKey = tuple[str, ...]


class _HasObsFields(Protocol):
    OBS_FIELDS: Mapping[str, str]


def fields_doc(obj: _HasObsFields) -> dict[str, object]:
    """The JSON health document derived from an ``OBS_FIELDS`` spec.

    One spec drives both the scrapeable metric family and the ``/health``
    snapshot, so the two can never drift apart.
    """
    return {name: getattr(obj, name) for name in obj.OBS_FIELDS}


class Metric:
    """Base family: a name, help text, and fixed label names."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        enabled: bool = True,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.enabled = enabled

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if tuple(labels) != self.labelnames:
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(map(str, labels.values()))

    def samples(self) -> list[tuple[LabelKey, float]]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        enabled: bool = True,
    ) -> None:
        super().__init__(name, help, labelnames, enabled)
        self._series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        enabled: bool = True,
    ) -> None:
        super().__init__(name, help, labelnames, enabled)
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled:
            return
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Histogram(Metric):
    """Observations bucketed over fixed edges, plus sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        enabled: bool = True,
    ) -> None:
        super().__init__(name, help, labelnames, enabled)
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ValueError("bucket edges must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        #: per-series: non-cumulative per-edge counts + overflow, sum, n
        self._series: dict[LabelKey, tuple[list[int], list[float]]] = {}

    def observe(self, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = ([0] * (len(self.buckets) + 1), [0.0, 0.0])
            self._series[key] = series
        counts, acc = series
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        acc[0] += value
        acc[1] += 1.0

    def snapshot(
        self, **labels: object
    ) -> tuple[list[tuple[float, int]], float, float]:
        """``(cumulative (edge, count) pairs incl. +Inf, sum, count)``."""
        key = self._key(labels)
        counts, acc = self._series.get(
            key, ([0] * (len(self.buckets) + 1), [0.0, 0.0])
        )
        cumulative: list[tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.buckets, counts):
            running += n
            cumulative.append((edge, running))
        cumulative.append((float("inf"), running + counts[-1]))
        return cumulative, acc[0], acc[1]

    def series_keys(self) -> list[LabelKey]:
        return sorted(self._series)

    def samples(self) -> list[tuple[LabelKey, float]]:
        # histograms expose their count as the scalar sample
        return sorted(
            (key, series[1][1]) for key, series in self._series.items()
        )


class MetricsRegistry:
    """Name-keyed metric families plus attached stats objects."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, Metric] = {}
        self._attached: dict[str, _HasObsFields] = {}
        self._before_collect: list[Callable[[], None]] = []

    def _family(
        self,
        cls: type[Metric],
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        **kwargs: object,
    ) -> Metric:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or (
                existing.labelnames != tuple(labelnames)
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(
            name, help, tuple(labelnames), enabled=self.enabled, **kwargs
        )
        self._families[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        metric = self._family(Counter, name, help, labelnames)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        metric = self._family(Gauge, name, help, labelnames)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._family(
            Histogram, name, help, labelnames, buckets=buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def attach(self, prefix: str, obj: _HasObsFields) -> None:
        """Fold an ``OBS_FIELDS`` stats object into the registry.

        The object keeps its attribute API; :meth:`collect` snapshots
        the fields as ``<prefix>_<field>`` families on demand.
        Re-attaching a prefix replaces the previous object (a reentrant
        controller attaches each run's fresh segment memo).
        """
        if not self.enabled:
            return
        self._attached[prefix] = obj

    def on_collect(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the top of every :meth:`collect`.

        Lets a hot path queue its updates and fold them into its families
        at scrape time instead of on every call.
        """
        if not self.enabled:
            return
        self._before_collect.append(hook)

    def collect(self) -> Iterator[Metric]:
        """All families, sorted by name, attached snapshots included."""
        for hook in self._before_collect:
            hook()
        families = dict(self._families)
        for prefix, obj in self._attached.items():
            for fname, kind in obj.OBS_FIELDS.items():
                name = f"{prefix}_{fname}"
                value = float(getattr(obj, fname))
                cls = Counter if kind == "counter" else Gauge
                snap = cls(name, f"{prefix} {fname} (attached)")
                snap._series[()] = value
                families[name] = snap
        for name in sorted(families):
            yield families[name]
