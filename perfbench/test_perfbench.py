"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import batch  # noqa: E402
import servemix  # noqa: E402
from layers import MP_ONLY  # noqa: E402
from measure import Tracer, tail, unit_minima  # noqa: E402
from repro.harness.workloads import program_source  # noqa: E402
from repro.serve.netcache import NetworkCache  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"]:
        if m["unit"] in ("s", "ms"):
            assert m["better"] == "lower"


@pytest.mark.parametrize("n", [11, 12, 27, 100, 622, 1219])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, p = tail(samples)
    assert sum(s > value for s in samples) == 10
    # Nearest rank, in exact arithmetic: the reported percentile's rank
    # is the value's, and the next rank up leaves only nine beyond.
    exact = Fraction(100 * (n - 10), n)
    assert float(exact) == pytest.approx(p, abs=1e-9)
    ordered = sorted(samples)
    assert ordered[math.ceil(n * exact / 100) - 1] == value
    assert math.ceil(n * (exact + Fraction(1, 10**9)) / 100) == n - 9


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_unit_minima_takes_each_units_best_repetition():
    reps = [{0: 3.0, 1: 1.0}, {0: 2.0, 1: 5.0, 2: 4.0}, {1: 0.5}]
    assert unit_minima(reps) == {0: 2.0, 1: 0.5, 2: 4.0}


def test_tracer_self_time_and_unpatch():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner", note=lambda _self: "tag")
    assert Layer().outer() == 2
    tracer.unpatch()
    assert Layer.__dict__["inner"] is original
    inner, outer = tracer.spans
    assert inner[1] == "inner" and inner[4] == outer[0] and inner[5] == "tag"
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"])


def test_tampered_firing_trace_counts_as_failed():
    rubik = batch.Batch("rubik", "sequential")
    rep = batch.run_once(rubik, program_source("rubik"))
    doc = json.loads(rep.record)
    doc["firings"][3][1] = "tampered"
    tampered = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    # Against the committed digest (sequential engine) ...
    assert batch.failed_runs(rubik, Counter([rep.record] * 2), None) == 0
    assert batch.failed_runs(rubik, Counter([rep.record, tampered]), None) == 1
    # ... and byte for byte against a sequential replay (mp engines).
    mp = batch.BATCHES["rubik-mp2"]
    assert batch.failed_runs(mp, Counter([tampered, rep.record]), rep.record) == 1


def test_mp_layer_metrics_from_a_traced_run():
    source = program_source("rubik")
    sequential = batch.run_once(batch.Batch("rubik", "sequential"), source)
    tracer = Tracer()
    rep = batch.run_once(batch.BATCHES["rubik-mp2"], source, tracer)
    assert rep.record == sequential.record
    metrics = batch.mp_metrics(tracer, rep, sequential.stats)
    assert set(metrics) == set(MP_ONLY)
    assert metrics["mp.batches"] == len(rep.steps) + 1  # cycles and startup
    assert metrics["mp.tasks_forwarded"] > 0 and metrics["mp.start_s"] > 0
    assert 0 < metrics["mp.forward_ratio"] < 1


@pytest.mark.parametrize("seed", [1, 2])
def test_serve_sessions_stop_at_halt_and_bound_working_memory(seed):
    cache = NetworkCache()
    plan = servemix.plan(seed)
    shapes = Counter()
    for sessions in plan:
        assert len(sessions) == servemix.SESSIONS_PER_CONNECTION
        for planned in sessions:
            outcomes = servemix.replay(planned.traffic, cache)
            assert "halted" not in [o for o, _wm in outcomes[:-1]]
            assert max(wm for _o, wm in outcomes) <= servemix.WM_BOUND
            if "tourney" in planned.traffic.program:
                shapes[servemix.tourney_shape(planned.traffic)] += 1
    assert set(shapes) == set(servemix.TOURNEY_SHAPES)
    assert len(set(shapes.values())) == 1


def test_serve_mix_reports_every_declared_metric_without_errors():
    result = servemix.measure(0, True, seed=3)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["layer"]["netcache.hit_ratio"] > 0.9


def test_weaver_seq_reports_every_declared_metric_without_errors():
    result = batch.measure("weaver-seq", 0, True)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["layer"]) == {m["name"] for m in SPEC["per_layer"]}
    layer = result["layer"]
    assert layer["matcher.node_activations"] == 114274
    parts = sum(layer[k] for k in ("network.alpha_s", "matcher.beta_self_s",
                                   "conflict.select_s", "conflict.apply_s",
                                   "rhs.act_s", "interpreter.self_s",
                                   "interpreter.unaccounted_s"))
    assert parts == pytest.approx(layer["trace.run_s"], rel=0.05)
