"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main

PROGRAM = """
(p hello (greeting ^to <who>) --> (write hello <who>) (halt))
(startup (make greeting ^to world))
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "hello.ops5"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestRun:
    def test_run_prints_output(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "hello world" in out

    def test_run_stats_to_stderr(self, program_file, capsys):
        main(["run", program_file, "--stats"])
        err = capsys.readouterr().err
        assert "wm_changes=" in err
        assert "activations=" in err

    def test_run_trace_lists_firings(self, program_file, capsys):
        main(["run", program_file, "--trace"])
        err = capsys.readouterr().err
        assert "hello" in err

    def test_run_mea_and_linear(self, program_file, capsys):
        assert main(["run", program_file, "--strategy", "mea",
                     "--memory", "linear", "--mode", "interpreted"]) == 0
        assert "hello world" in capsys.readouterr().out

    def test_max_cycles(self, tmp_path, capsys):
        path = tmp_path / "loop.ops5"
        path.write_text(
            "(p l (a ^n <n>) --> (modify 1 ^n (compute <n> + 1)) (write tick))"
            "(startup (make a ^n 0))",
            encoding="utf-8",
        )
        main(["run", str(path), "--max-cycles", "3"])
        out = capsys.readouterr().out
        assert out.count("tick") == 3


class TestNetwork:
    def test_counts(self, program_file, capsys):
        assert main(["network", program_file]) == 0
        out = capsys.readouterr().out
        assert "productions:        1" in out
        assert "terminal:" in out

    def test_verbose_lists_nodes(self, tmp_path, capsys):
        path = tmp_path / "two.ops5"
        path.write_text("(p r (a ^x <v>) (b ^y <v>) --> (halt))", encoding="utf-8")
        main(["network", str(path), "-v"])
        out = capsys.readouterr().out
        assert "two-input nodes:" in out
        assert "join #" in out


class TestSimulate:
    def test_simulate_grid(self, program_file, capsys):
        assert main(
            ["simulate", program_file, "--processes", "1", "2", "--queues", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "speed-up" in out
        assert "1+2/1q" in out


class TestTables:
    def test_unknown_table_id(self, capsys):
        assert main(["tables", "9-9"]) == 2
        assert "unknown tables" in capsys.readouterr().err


class TestSchedck:
    def test_single_seed_exits_zero(self, capsys):
        assert main(["schedck", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "schedck seed=42 policy=random config=1+2/1q/simple/64l" in out
        assert "violations: 0" in out

    def test_report_deterministic_across_invocations(self, capsys):
        main(["schedck", "--seed", "7", "--policy", "pct"])
        first = capsys.readouterr().out
        main(["schedck", "--seed", "7", "--policy", "pct"])
        assert capsys.readouterr().out == first

    def test_config_flags_reach_report(self, capsys):
        assert main(
            ["schedck", "--seed", "3", "--workers", "4", "--queues", "4",
             "--locks", "mrsw", "--policy", "adversarial:delay-plus"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=adversarial:delay-plus config=1+4/4q/mrsw/64l" in out

    def test_sweep_smoke(self, capsys):
        assert main(["schedck", "--sweep", "4", "--seed", "100"]) == 0
        out = capsys.readouterr().out
        assert "schedck sweep: 4 schedules, 0 failing, 0 truncated" in out

    def test_truncated_schedule_exits_nonzero(self, capsys):
        assert main(["schedck", "--seed", "42", "--max-steps", "50"]) == 1
        assert "(truncated)" in capsys.readouterr().out

    def test_unknown_policy_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedck", "--policy", "bogus"])
        assert "unknown schedule policy" in str(exc.value)

    def test_zero_workers_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedck", "--workers", "0"])
        assert "match process" in str(exc.value)


class TestReadProgramErrors:
    def test_missing_file_is_clean_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["run", missing])
        assert "cannot read" in str(exc.value)
        assert missing in str(exc.value)


class TestServe:
    def test_bad_port_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "70000"])
        assert str(exc.value) == "repro serve: invalid port 70000; expected 0-65535"

    def test_negative_port_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "-1"])
        assert "repro serve: invalid port" in str(exc.value)

    def test_unreadable_preload_is_clean_exit(self, tmp_path):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--preload", missing])
        assert str(exc.value).startswith("repro serve: cannot read")
        assert missing in str(exc.value)

    def test_bad_limits_are_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--inbox-depth", "0"])
        assert str(exc.value).startswith("repro serve: ")


class TestLoadgen:
    def test_needs_a_target(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen"])
        assert str(exc.value) == "repro loadgen: need --connect HOST:PORT or --spawn"

    def test_connect_and_spawn_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--connect", "h:1", "--spawn"])
        assert "exclusive" in str(exc.value)

    @pytest.mark.parametrize("target", ["nohost", ":80", "host:", "host:zap",
                                        "host:0", "host:70000"])
    def test_bad_connect_is_clean_exit(self, target):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--connect", target])
        assert f"repro loadgen: bad --connect {target!r}" in str(exc.value)

    def test_unknown_scenario_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--scenario", "bogus"])
        assert "repro loadgen: unknown scenario 'bogus'" in str(exc.value)
        assert "blocks, monkey, tourney, mix" in str(exc.value)

    def test_unreadable_program_is_clean_exit(self, tmp_path):
        missing = str(tmp_path / "nope.ops5")
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--program", missing])
        assert str(exc.value).startswith("repro loadgen: cannot read")

    def test_nonpositive_counts_are_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--spawn", "--sessions", "0"])
        assert "must be positive" in str(exc.value)

    def test_spawn_smoke_exits_zero(self, capsys):
        assert main(["loadgen", "--spawn", "--scenario", "monkey",
                     "--sessions", "2", "--transactions", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify: 2/2 sessions byte-identical" in out
        assert "0 errors" in out


class TestTrace:
    def test_trace_builtin_blocks(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        out = tmp_path / "blocks-trace.json"
        assert main(["trace", "blocks", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "move-block" in text  # per-production profile
        assert "(equal)" in text  # profile == MatchStats.node_activations
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []

    def test_trace_parallel_worker_timelines(self, tmp_path, capsys):
        import json

        out = tmp_path / "par-trace.json"
        assert main(["trace", "blocks", "--out", str(out),
                     "--parallel", "2"]) == 0
        assert "(equal)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        threads = {
            e["args"]["name"]
            for e in doc["traceEvents"] if e.get("ph") == "M"
        }
        assert any(t.startswith("match-") for t in threads)

    def test_trace_program_file(self, program_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", program_file, "--out", str(out)]) == 0
        assert "hello" in capsys.readouterr().out  # production name
        assert out.exists()

    def test_trace_disables_bus_afterwards(self, tmp_path):
        from repro.obs import events

        main(["trace", "blocks", "--out", str(tmp_path / "t.json")])
        assert events.enabled() is False

    def test_unknown_builtin_is_clean_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "no-such-program", "--out", "/dev/null"])
        assert "neither a file nor a builtin" in str(exc.value)


class TestTop:
    def test_top_by_production(self, capsys):
        assert main(["top", "blocks"]) == 0
        out = capsys.readouterr().out
        assert "hot productions" in out
        assert "move-block" in out
        assert "hot nodes" not in out  # pruned to the requested table

    def test_top_by_phase(self, capsys):
        assert main(["top", "blocks", "--by", "phase"]) == 0
        out = capsys.readouterr().out
        assert "phases (recognize-act cycle):" in out
        assert "match" in out

    def test_top_by_lock_parallel(self, capsys):
        assert main(["top", "blocks", "--by", "lock",
                     "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "lock contention:" in out
        assert "taskcount" in out

    def test_top_limit(self, capsys):
        assert main(["top", "blocks", "--by", "node", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "hot nodes (top 2):" in out


class TestObsVerbs:
    @staticmethod
    def needs_mp():
        from repro.parallel.mp import mp_supported

        if not mp_supported():
            pytest.skip("mp engine needs the 'fork' start method")

    def test_trace_mp_stitched_plus_capture_round_trip(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        from repro.obs.fabric import validate_capture

        self.needs_mp()
        out = tmp_path / "stitched.json"
        capture = tmp_path / "capture.json"
        assert main(["trace", "blocks", "--engine", "mp", "--workers", "2",
                     "--out", str(out), "--fabric-out", str(capture)]) == 0
        assert "(equal)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 100, 101}
        assert any(e.get("ph") == "s" for e in doc["traceEvents"])
        assert doc["otherData"]["stitch_orphans"] == 0
        assert validate_capture(json.loads(capture.read_text())) == []

        restitched = tmp_path / "restitched.json"
        assert main(["obs", "stitch", str(capture),
                     "--out", str(restitched)]) == 0
        doc2 = json.loads(restitched.read_text())
        assert validate_chrome_trace(doc2) == []
        assert {e["pid"] for e in doc2["traceEvents"]} == pids

    def test_obs_stitch_rejects_bad_capture(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}', encoding="utf-8")
        with pytest.raises(SystemExit, match="obs stitch"):
            main(["obs", "stitch", str(bad), "--out", "/dev/null"])

    def test_obs_flight_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs.flight import validate_flight

        out = tmp_path / "flight.json"
        assert main(["obs", "flight", "blocks", "--out", str(out),
                     "--ring", "64"]) == 0
        assert "flight:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert doc["ring_capacity"] == 64
        assert doc["events"]

    def test_obs_flight_mp_collects_worker_tails(self, tmp_path):
        import json

        from repro.obs.flight import validate_flight

        self.needs_mp()
        out = tmp_path / "flight.json"
        assert main(["obs", "flight", "blocks", "--engine", "mp",
                     "--workers", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_flight(doc) == []
        assert set(doc["workers"]) == {"match-0", "match-1"}

    def test_run_watchdog_needs_parallel_engine(self, program_file):
        with pytest.raises(SystemExit, match="threaded or mp"):
            main(["run", program_file, "--watchdog", "5"])

    def test_run_with_watchdog_threaded(self, program_file, capsys):
        assert main(["run", program_file, "--engine", "threaded",
                     "--workers", "2", "--watchdog", "60"]) == 0
        captured = capsys.readouterr()
        assert "hello world" in captured.out
        assert "watchdog tripped" not in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBench:
    @staticmethod
    def bench_run(out_dir, runid):
        return main([
            "bench", "run", "--scenario", "match-weaver",
            "--repeat", "1", "--warmup", "0",
            "--out-dir", str(out_dir), "--runid", runid,
        ])

    def test_run_emits_artifact_and_trajectory(self, tmp_path, capsys):
        import json

        from repro.perf.schema import validate_bench_doc

        assert self.bench_run(tmp_path, "r1") == 0
        out = capsys.readouterr().out
        assert "bench run r1" in out
        assert "match_hash_s" in out
        assert f"artifact: {tmp_path}" in out
        doc = json.loads((tmp_path / "BENCH_r1.json").read_text())
        assert validate_bench_doc(doc) == []
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["runid"] == "r1"

    def test_unchanged_tree_compares_clean(self, tmp_path, capsys, monkeypatch):
        """Acceptance: two runs of the same tree -> no regressions.

        The matcher reads a fixed-step fake clock, so each wall metric
        is a pure function of the work done (one step per clock read)
        and the comparison is deterministic by construction; the real
        noise gate is exercised by the perf-smoke CI job."""
        import itertools

        import repro.rete.matcher

        ticks = itertools.count()
        monkeypatch.setattr(
            repro.rete.matcher, "perf_counter", lambda: next(ticks) * 1e-3
        )
        assert self.bench_run(tmp_path, "r1") == 0
        assert self.bench_run(tmp_path, "r2") == 0
        capsys.readouterr()
        assert main(["bench", "compare", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baseline r1 -> current r2" in out
        assert "regressed=0" in out
        assert "result: OK (no regressions)" in out

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        import json

        assert self.bench_run(tmp_path, "r1") == 0
        assert self.bench_run(tmp_path, "r2") == 0
        # Inject a slowdown into the r2 artifact: inflate the stable
        # activation count and one node's profile self-time.
        path = tmp_path / "BENCH_r2.json"
        doc = json.loads(path.read_text())
        entry = doc["scenarios"]["match-weaver"]
        entry["metrics"]["activations"]["median"] *= 2
        entry["profile"]["nodes"][0]["self_ms"] += 100.0
        perturbed = entry["profile"]["nodes"][0]["production"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["bench", "compare", "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "match-weaver.activations" in out
        assert "regressed" in out
        assert "hot-spot movers" in out
        assert perturbed in out  # attribution names the perturbed node

    def test_compare_stable_only(self, tmp_path, capsys):
        assert self.bench_run(tmp_path, "r1") == 0
        assert self.bench_run(tmp_path, "r2") == 0
        capsys.readouterr()
        assert main(["bench", "compare", "--out-dir", str(tmp_path),
                     "--stable-only"]) == 0
        out = capsys.readouterr().out
        assert "activations" in out
        assert "match_hash_s" not in out  # wall metrics skipped

    def test_report_renders_trajectory(self, tmp_path, capsys):
        assert self.bench_run(tmp_path, "r1") == 0
        capsys.readouterr()
        report_file = tmp_path / "report.md"
        assert main(["bench", "report", "--out-dir", str(tmp_path),
                     "--out", str(report_file)]) == 0
        text = report_file.read_text()
        assert "# Performance trajectory" in text
        assert "| r1 |" in text
        assert "wrote" in capsys.readouterr().out

    def test_report_empty_history(self, tmp_path, capsys):
        assert main(["bench", "report", "--out-dir", str(tmp_path)]) == 0
        assert "No recorded runs yet" in capsys.readouterr().out

    def test_unknown_suite_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--suite", "nightly",
                  "--out-dir", str(tmp_path)])
        assert "unknown suite" in str(exc.value)

    def test_unknown_scenario_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--scenario", "no-such",
                  "--out-dir", str(tmp_path)])
        assert "unknown scenarios" in str(exc.value)

    def test_compare_without_history_is_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", "--out-dir", str(tmp_path)])
        assert "needs at least 2" in str(exc.value)
