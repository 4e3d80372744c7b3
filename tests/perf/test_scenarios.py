"""Registry integrity and scenario selection."""

import pytest

from repro.perf.scenarios import (
    SCENARIOS,
    STABLE_REL_TOL,
    SUITES,
    MetricSpec,
    select,
)


class TestRegistryIntegrity:
    def test_ids_match_keys_and_suites_are_known(self):
        for sid, scenario in SCENARIOS.items():
            assert scenario.scenario_id == sid
            assert scenario.suites and set(scenario.suites) <= set(SUITES)
            assert callable(scenario.run)
            assert scenario.specs

    def test_metric_names_unique_per_scenario(self):
        for scenario in SCENARIOS.values():
            names = [s.name for s in scenario.specs]
            assert len(names) == len(set(names)), scenario.scenario_id

    def test_smoke_suite_members(self):
        assert set(select("smoke")) == {
            "match-weaver", "sim-weaver", "parallel-weaver", "serve-loadgen",
            "mp-speedup-weaver", "corgi-adversarial", "fabric-mp",
            "serve-meter",
        }

    def test_full_suite_superset_of_smoke(self):
        assert set(select("smoke")) <= set(select("full"))
        assert set(select("all")) == set(SCENARIOS)

    def test_stable_scenarios_carry_tight_tolerances(self):
        sim = SCENARIOS["sim-weaver"]
        assert sim.stable_only
        assert all(s.rel_tol == STABLE_REL_TOL for s in sim.specs)
        assert not SCENARIOS["match-weaver"].stable_only

    def test_every_smoke_scenario_declares_a_headline(self):
        for sid, scenario in select("smoke").items():
            assert any(s.headline for s in scenario.specs), sid

    def test_spec_lookup(self):
        scenario = SCENARIOS["match-weaver"]
        assert scenario.spec("match_hash_s").unit == "s"
        assert scenario.spec("nope") is None


class TestCorgiAdversarial:
    def test_stable_token_metrics_and_speedup(self):
        from repro.perf.scenarios import _ADV_CROSS

        scenario = SCENARIOS["corgi-adversarial"]
        rep = scenario.run()
        n = _ADV_CROSS["n_items"]
        # The stable contract: corgi derives nothing on either shape,
        # eager Rete pays at least the initial cross-product.
        assert rep.metrics["cross_corgi_tokens"] == 0.0
        assert rep.metrics["deep_corgi_tokens"] == 0.0
        assert rep.metrics["cross_rete_tokens"] >= n * (n - 1) / 2
        assert rep.metrics["deep_rete_tokens"] > 0.0
        assert rep.metrics["cross_speedup"] > 1.0
        assert rep.metrics["deep_speedup"] > 1.0
        assert rep.network is not None

    def test_token_specs_are_stable_and_speedup_is_headline(self):
        scenario = SCENARIOS["corgi-adversarial"]
        for case in ("cross", "deep"):
            assert scenario.spec(f"{case}_rete_tokens").stable
            assert scenario.spec(f"{case}_corgi_tokens").stable
            assert not scenario.spec(f"{case}_speedup").stable
        assert scenario.spec("cross_speedup").headline


class TestSelect:
    def test_explicit_ids_preserve_order(self):
        out = select(scenario_ids=("sim-weaver", "match-weaver"))
        assert list(out) == ["sim-weaver", "match-weaver"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            select(scenario_ids=("match-weaver", "nope"))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            select(suite="nightly")


class TestMetricSpec:
    def test_direction_validated(self):
        with pytest.raises(ValueError, match="bad direction"):
            MetricSpec("m", "s", "sideways", 0.1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="negative tolerance"):
            MetricSpec("m", "s", "lower", -0.1)
        with pytest.raises(ValueError, match="negative tolerance"):
            MetricSpec("m", "s", "lower", 0.1, abs_tol=-1.0)
