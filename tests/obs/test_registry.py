"""The obs metrics registry and its Prometheus text exposition."""

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    MetricsRegistry,
    fields_doc,
    render_prometheus,
)


class TestFamilies:
    def test_counter_increments_and_values(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_events_total", "events", ("kind",))
        c.inc(kind="arrival")
        c.inc(3, kind="arrival")
        c.inc(kind="failure")
        assert c.value(kind="arrival") == 4.0
        assert c.value(kind="failure") == 1.0
        assert c.value(kind="missing") == 0.0

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_names_are_validated_in_order(self):
        c = MetricsRegistry().counter("x_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            c.inc(a="1")  # missing b
        with pytest.raises(ValueError):
            c.inc(b="2", a="1")  # wrong declared order

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        h = MetricsRegistry().histogram(
            "wall_s", buckets=(0.1, 1.0, 10.0)
        )
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        cumulative, total, count = h.snapshot()
        assert cumulative == [
            (0.1, 1), (1.0, 3), (10.0, 4), (math.inf, 5),
        ]
        assert total == pytest.approx(56.05)
        assert count == 5.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("x", buckets=(1.0, 0.5))

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")
        with pytest.raises(ValueError):
            reg.counter("a_total", labelnames=("x",))


class _Stats:
    OBS_FIELDS = {"hits": "counter", "depth": "gauge"}

    def __init__(self):
        self.hits = 0
        self.depth = 0


class TestAttach:
    def test_attached_fields_appear_as_families(self):
        reg = MetricsRegistry()
        stats = _Stats()
        reg.attach("pool", stats)
        stats.hits += 7
        stats.depth = 2
        by_name = {m.name: m for m in reg.collect()}
        assert by_name["pool_hits"].samples() == [((), 7.0)]
        assert by_name["pool_hits"].kind == "counter"
        assert by_name["pool_depth"].samples() == [((), 2.0)]
        assert by_name["pool_depth"].kind == "gauge"

    def test_reattach_replaces_previous_object(self):
        reg = MetricsRegistry()
        old, new = _Stats(), _Stats()
        old.hits = 99
        new.hits = 1
        reg.attach("pool", old)
        reg.attach("pool", new)
        by_name = {m.name: m for m in reg.collect()}
        assert by_name["pool_hits"].samples() == [((), 1.0)]

    def test_on_collect_hooks_run_before_every_collect(self):
        reg = MetricsRegistry()
        c = reg.counter("queued_total")
        queued = [2, 3]

        def fold():
            while queued:
                c.inc(queued.pop(0))

        reg.on_collect(fold)
        assert reg.counter("queued_total").value() == 0.0
        by_name = {m.name: m for m in reg.collect()}
        assert by_name["queued_total"].samples() == [((), 5.0)]
        queued.append(4)
        by_name = {m.name: m for m in reg.collect()}
        assert by_name["queued_total"].samples() == [((), 9.0)]

    def test_fields_doc_mirrors_the_spec(self):
        stats = _Stats()
        stats.hits = 3
        assert fields_doc(stats) == {"hits": 3, "depth": 0}


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a_total")
        c.inc(5)
        g = reg.gauge("b")
        g.set(9)
        h = reg.histogram("c")
        h.observe(1.0)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.snapshot()[2] == 0.0
        reg.attach("pool", _Stats())
        reg.on_collect(lambda: c.inc(1))
        names = [m.name for m in reg.collect()]
        assert "pool_hits" not in names
        assert reg._before_collect == []


class TestPrometheus:
    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_exposition_structure(self):
        reg = MetricsRegistry()
        reg.counter("ops_steps_total", "steps taken").inc(3)
        text = render_prometheus(reg)
        assert "# HELP ops_steps_total steps taken\n" in text
        assert "# TYPE ops_steps_total counter\n" in text
        assert "ops_steps_total 3\n" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("p",)).inc(
            p='a"b\\c\nd'
        )
        text = render_prometheus(reg)
        assert 'x_total{p="a\\"b\\\\c\\nd"} 1' in text

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "line\nbreak \\ slash")
        text = render_prometheus(reg)
        assert "# HELP x_total line\\nbreak \\\\ slash" in text

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("w_s", "wall", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        lines = render_prometheus(reg).splitlines()
        assert 'w_s_bucket{le="0.1"} 1' in lines
        assert 'w_s_bucket{le="1"} 2' in lines
        assert 'w_s_bucket{le="+Inf"} 3' in lines
        assert "w_s_sum 5.55" in lines
        assert "w_s_count 3" in lines

    def test_scrape_is_byte_deterministic(self):
        def build():
            reg = MetricsRegistry()
            # insertion order scrambled on purpose
            reg.gauge("z_depth").set(4)
            c = reg.counter("a_total", labelnames=("k",))
            c.inc(k="b")
            c.inc(k="a")
            reg.attach("pool", _Stats())
            return render_prometheus(reg)

        assert build() == build()

    def test_families_render_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.counter("a_total").inc()
        text = render_prometheus(reg)
        assert text.index("a_total") < text.index("z_total")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_infinite_and_integral_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(float("inf"))
        text = render_prometheus(reg)
        assert "g +Inf" in text
