"""Tests of the benchmark's own code: statistics, failure accounting and
span bookkeeping.  Run with `python3 -m pytest perfbench/tests`."""

import json
import math
import os
import statistics
import sys
import types

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from speed import SpeedLog  # noqa: E402
from stats import (failed_share, harrell_davis_median,  # noqa: E402
                   percentile, quartile_spread, samples_beyond,
                   tail_percentile, tail_percentiles)
from tracer import Tracer, covered, root_coverage, self_times  # noqa: E402
from workloads import Run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


# -- percentile rule --------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_harrell_davis_median_weighs_every_order_statistic():
    assert harrell_davis_median([4.0]) == 4.0
    assert harrell_davis_median([7.0] * 9) == pytest.approx(7.0)
    # symmetric samples keep their centre, in any order
    assert harrell_davis_median([3, 1, 2]) == pytest.approx(2)
    assert harrell_davis_median([1, 2, 3, 10, 11, 12]) == pytest.approx(6.5)
    # one far sample pulls it up, far less than the mean
    skewed = [1, 2, 3, 4, 100]
    assert 3 < harrell_davis_median(skewed) < statistics.fmean(skewed) / 2
    with pytest.raises(ValueError):
        harrell_davis_median([])


def test_samples_beyond_counts_whole_samples():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(1000, 99) == 10


@pytest.mark.parametrize("n, expected", [
    (0, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (50000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


@pytest.mark.parametrize("n, expected", [
    (39, []), (40, [75]), (100, [90]), (200, [90, 95]), (1000, [90, 99]),
    (3000, [90, 99])])
def test_tail_percentiles_always_include_p90_when_it_has_ten_beyond(
        n, expected):
    assert tail_percentiles(n) == expected
    assert all(samples_beyond(n, p) >= 10 for p in expected)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([5.0] * 10) == 0.0
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, _, q3 = 2.75, 5.5, 8.25
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)


# -- failure share ----------------------------------------------------------------

def test_failed_share():
    assert failed_share(10, 0) == 0.0
    assert failed_share(8, 2) == 0.25
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            failed_share(attempted, failed)


def test_attempt_counts_raises_non_finite_and_failed_checks():
    run = Run(seed=0, seconds=1.0, root=".", scratch=".")

    def boom():
        raise RuntimeError("feasibility search stagnated")

    assert run.attempt(lambda: 1.5)[0] == 1.5
    assert run.attempt(boom)[0] is None
    run.attempt(lambda: math.nan)
    run.attempt(lambda: math.inf)
    run.attempt(lambda: 3, ok=lambda r: r == 0)
    run.attempt(lambda: 0, ok=lambda r: r == 0)
    assert (run.attempted, run.failed) == (6, 4)
    assert failed_share(run.attempted, run.failed) == pytest.approx(4 / 6)
    assert "stagnated" in run.errors[0]


def test_attempt_counts_integration_warnings_as_failures():
    import warnings
    from scipy.integrate import IntegrationWarning

    run = Run(seed=0, seconds=1.0, root=".", scratch=".")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run.warnings = caught

        def warns():
            warnings.warn("roundoff", IntegrationWarning)
            return 1.0

        run.attempt(warns)
        run.attempt(lambda: 1.0)
    assert (run.attempted, run.failed, run.integration_warnings) == (2, 1, 1)


# -- spans and self time ------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.child", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.0, 0, 1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert root_coverage([["x", 0, 2, None, 0], ["y", 1, 3, None, 0],
                          ["z", 1, 2, 0, 0]], 0, 10) == pytest.approx(0.3)


def test_span_wrapper_records_nesting_and_raises():
    t = Tracer()
    t.op = 7

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = t.span_wrapper("inner", inner)
    outer_w = t.span_wrapper("outer", lambda x: inner_w(x) + inner_w(x))
    assert outer_w(2) == 4
    with pytest.raises(ValueError):
        outer_w(-1)
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "inner", "outer", "inner"]
    assert [s[3] for s in t.spans] == [None, 0, 0, None, 3]
    assert all(s[4] == 7 and s[2] >= s[1] for s in t.spans)
    assert t.counters["inner.raised"] == 1
    assert t.count("inner") == 3
    assert t.has_ancestor(t.spans[1], "outer")


def test_outermost_total_does_not_count_recursion_twice():
    t = Tracer()
    t.spans = [["f", 0.0, 4.0, None, 0], ["f", 1.0, 2.0, 0, 0],
               ["f", 5.0, 6.0, None, 0]]
    assert t.outermost_total("f") == 5.0


def test_busy_wrapper_times_outermost_calls_once():
    t = Tracer()
    calls = []

    def leaf():
        calls.append(1)

    leaf_w = t.busy_wrapper("poly", "poly.leaf", leaf)
    outer_w = t.busy_wrapper("poly", "poly.outer",
                             lambda: [leaf_w() for _ in range(3)])
    outer_w()
    assert t.counters["poly.leaf"] == 3 and t.counters["poly.outer"] == 1
    assert 0.0 < t.busy["poly"]
    assert t._busy_depth["poly"] == 0


def test_replace_function_reaches_importers_and_restores():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return "original"

    a.f = f
    b.f = f
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        t = Tracer()
        t.replace_function("fakepkg.a", "f", t.span_wrapper("f", f))
        assert a.f is b.f and a.f is not f
        assert b.f() == "original" and t.count("f") == 1
        t.restore()
        assert a.f is f and b.f is f
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name)


# -- the printed metrics match BENCHMARK.json -----------------------------------------

def test_layer_metrics_cover_every_per_layer_name():
    import layers

    run = Run(seed=0, seconds=1.0, root=".", scratch=".")
    values = layers.layer_metrics(Tracer(), run, 0.0, 1.0, 1.0, 1.0)
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_end_to_end_metrics_cover_every_end_to_end_name():
    import run as bench

    r = run_with_rounds()
    e2e = bench.end_to_end(r, 1.5)
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e["ops_ok_frac"][0] == 0.75
    assert e2e["op_per_s"][0] == pytest.approx(3 / 0.8)
    assert e2e["batch_s"][0] == pytest.approx(1.2)
    assert e2e["wall_s"][0] == pytest.approx(1.5 + 0.8 + 1.2)
    assert all(v > 0 for v, _, _ in e2e.values())


def steady_log(times, probe_s=speed.PROBE_REF_S) -> SpeedLog:
    """A speed log whose probes, at the given times, all took probe_s."""
    log = SpeedLog()
    log.times = list(times)
    log.probes = [probe_s] * len(log.times)
    return log


def run_with_rounds():
    r = Run(seed=0, seconds=1.0, root=".", scratch=".")
    r.speed = steady_log(range(20))   # the reference machine: scale 1

    def timed(values):
        return [(1.0, v) for v in values]

    r.setup_builds, r.op_times = timed([0.5]), timed([0.1, 0.2, 0.3])
    r.ops_per_round, r.rounds = 3, 3
    # a slow stretch of the machine hits some rounds of each item
    r.op_items = {"a": timed([0.2, 0.1, 0.9]), "b": timed([0.5, 2.0, 0.6])}
    r.batch_items = {"curve": timed([1.2, 1.0, 3.0])}
    r.attempted, r.failed = 4, 1
    return r


def test_round_sums_each_items_median_time():
    r = run_with_rounds()
    assert r.round_s(r.op_items) == pytest.approx(0.2 + 0.6)
    assert r.round_s(r.batch_items) == pytest.approx(1.2)
    assert r.round_s({}) == 0
    assert r.op_p50_s() == pytest.approx(0.4)


def test_pooled_run_sums_each_items_mean_time():
    r = run_with_rounds()
    r.pooled = True
    assert r.round_s(r.op_items) == pytest.approx(1.2 / 3 + 3.1 / 3)
    assert r.round_s(r.batch_items) == pytest.approx(5.2 / 3)
    assert r.op_p50_s() == pytest.approx((1.2 / 3 + 3.1 / 3) / 2)


# -- machine speed ----------------------------------------------------------------

def test_timing_is_scaled_by_the_mean_probe_around_it():
    log = SpeedLog()
    # the machine runs at half speed from t = 10 on
    log.times = [k / 10 for k in range(200)]
    log.probes = [speed.PROBE_REF_S * (1 if t < 10 else 2) for t in log.times]
    assert log.scaled((2.0, 0.5)) == pytest.approx(0.5)
    assert log.scaled((15.0, 0.5)) == pytest.approx(0.25)
    # a timing across the change sees the mean of the probes around it
    assert log.factor(9.5, 0.0) == pytest.approx(
        speed.PROBE_REF_S / statistics.fmean(log.probes[85:106]))
    assert log.speed() == pytest.approx(1 / 1.5)


def test_long_or_lone_timings_look_further_for_probes():
    log = steady_log([0.0, 1.0, 2.0, 50.0, 51.0, 52.0])
    log.probes[3:] = [2 * speed.PROBE_REF_S] * 3
    # a 20 s timing from t = 30 sees the probes up to 20 s either side
    assert log.factor(30.0, 20.0) == pytest.approx(0.5)
    # no probe within a second: the run's mean speed
    assert log.factor(30.0, 0.1) == pytest.approx(2 / 3)


def test_tick_runs_probes_in_proportion_to_the_time_passed():
    log = SpeedLog()
    log.tick()
    assert log.probes == []
    log._last -= 3 * speed.PROBE_GAP
    log.tick()
    assert len(log.probes) == 3 and log.times == sorted(log.times)
    log._last -= 1000.0
    log.tick()
    assert len(log.probes) == 3 + speed.MOST_DUE
