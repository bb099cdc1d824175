"""Case configuration, graph text notation, classification, reporting."""

import dataclasses

import numpy as np
import pytest
import yaml

from cyclesynth import agent, decoder, grammar, harness, worker
from cyclesynth.harness import (
    CaseSpec, ConfigError, DiffReport, build_graph, classify_cycle,
    load_config, oracle_keys, verify_against_oracle,
)

SIMPLE = {"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1}


def _write(tmp_path, doc, name="case.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def _base_doc():
    return {
        "mode": "heat_engine",
        "t_source": 600.0,
        "t_sink": 300.0,
        "components": dict(SIMPLE),
    }


# -- configuration -------------------------------------------------------

def test_load_config_defaults(tmp_path):
    spec = load_config(_write(tmp_path, _base_doc()))
    assert spec.mode == "heat_engine"
    assert spec.worker_budget == (20, 40)
    assert spec.refine_budget == (40, 80)
    assert spec.dt_min == decoder.DT_APPROACH
    assert spec.fluid == "analytic"
    bc = spec.boundary_conditions()
    assert bc.t_source == 600.0 and bc.dt_approach == decoder.DT_APPROACH
    # every default comes from the CaseSpec fields alone
    assert spec == CaseSpec("heat_engine", 600.0, 300.0, dict(SIMPLE))


def test_partial_budget_takes_the_field_default(tmp_path):
    doc = _base_doc()
    doc["worker_budget"] = {"n_init": 5}
    doc["refine_budget"] = {"n_iter": 7}
    spec = load_config(_write(tmp_path, doc))
    assert spec.worker_budget == (5, 40)
    assert spec.refine_budget == (40, 7)


def test_missing_mode_rejected(tmp_path):
    doc = _base_doc()
    del doc["mode"]
    with pytest.raises(ConfigError, match="mode"):
        load_config(_write(tmp_path, doc))


def test_unknown_top_key_rejected(tmp_path):
    doc = _base_doc()
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("key, value", [
    ("pump", 0.7), ("compressor", 1.5), ("turbine", "fast"), ("nozzle", 0),
])
def test_unknown_efficiency_key_rejected(tmp_path, key, value):
    doc = _base_doc()
    doc["efficiencies"] = {key: value}
    with pytest.raises(ConfigError, match=key):
        load_config(_write(tmp_path, doc))


def test_unknown_budget_key_rejected(tmp_path):
    doc = _base_doc()
    doc["worker_budget"] = {"n_init": 5, "rounds": 2}
    with pytest.raises(ConfigError, match="rounds"):
        load_config(_write(tmp_path, doc))


def test_unknown_ppo_key_rejected(tmp_path):
    doc = _base_doc()
    doc["ppo"] = {"gamma": 0.95, "momentum": 0.9}
    with pytest.raises(ConfigError, match="momentum"):
        load_config(_write(tmp_path, doc))


def test_heat_engine_needs_hot_source(tmp_path):
    doc = _base_doc()
    doc["t_source"], doc["t_sink"] = 300.0, 600.0
    with pytest.raises(ConfigError, match="t_source"):
        load_config(_write(tmp_path, doc))


def test_temperature_domain_enforced(tmp_path):
    doc = _base_doc()
    doc["t_source"] = 1500.0
    with pytest.raises(ConfigError, match="domain"):
        load_config(_write(tmp_path, doc))


def test_bad_component_rejected(tmp_path):
    doc = _base_doc()
    doc["components"] = {"flux_capacitor": 1}
    with pytest.raises(ConfigError, match="components"):
        load_config(_write(tmp_path, doc))


def test_non_mapping_config_rejected(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)


def test_ppo_overrides_apply(tmp_path):
    doc = _base_doc()
    doc["ppo"] = {"gamma": 0.9, "entropy_weights": [0.2, 0.02]}
    spec = load_config(_write(tmp_path, doc))
    cfg = spec.ppo_config()
    assert cfg.gamma == 0.9
    assert cfg.entropy_weights == (0.2, 0.02)


def test_ppo_t_max_must_match_episode_length(tmp_path):
    # the episode length is the top-level t_max, which the environment
    # enforces; the Manager has no t_max of its own
    doc = _base_doc()
    doc["t_max"] = 12
    doc["ppo"] = {"t_max": 3}
    with pytest.raises(ConfigError, match="unknown ppo keys.*t_max"):
        load_config(_write(tmp_path, doc))


def test_bundled_configs_parse():
    import cyclesynth
    import os
    cfg_dir = os.path.join(os.path.dirname(cyclesynth.__file__), "configs")
    names = sorted(os.listdir(cfg_dir))
    assert names
    for name in names:
        spec = load_config(os.path.join(cfg_dir, name))
        assert spec.episodes > 0


# -- graph text notation -------------------------------------------------

def test_build_graph_brayton():
    g = build_graph(SIMPLE, "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    assert grammar.structural_validity(g).valid
    assert g.edge_count() == 4


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ConfigError, match="expected"):
        build_graph(SIMPLE, "CP#1-HT#1")
    with pytest.raises(ConfigError, match="unknown node"):
        build_graph(SIMPLE, "CP#1>PUMP#1")


def test_build_graph_ignores_duplicates_and_blanks():
    g = build_graph(SIMPLE, "CP#1>HT#1;;CP#1>HT#1; HT#1>TB#1 ")
    assert g.edge_count() == 2


# -- classification ------------------------------------------------------

def test_classify_heat_engine_single_stage():
    g = build_graph(SIMPLE, "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    assert classify_cycle(g, "heat_engine") == harness.TAG_SINGLE_STAGE


def test_classify_heat_engine_two_stage():
    roster = {"compressor": 2, "heater": 1, "turbine": 1, "cooler": 1}
    g = build_graph(roster,
                    "CP#1>CP#2;CP#2>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    assert classify_cycle(g, "heat_engine") == harness.TAG_TWO_STAGE


def test_classify_heat_engine_parallel_compression():
    roster = {"compressor": 2, "heater": 1, "turbine": 1, "cooler": 1,
              "merge": 1}
    g = build_graph(roster,
                    "CP#1>M#1;CP#2>M#1;M#1>HT#1;HT#1>TB#1;TB#1>CL#1;"
                    "CL#1>CP#1;CL#1>CP#2")
    assert classify_cycle(g, "heat_engine") == harness.TAG_PARALLEL


def test_classify_heat_pump_simple():
    roster = {"compressor": 1, "gas_cooler": 1, "turbine": 1, "evaporator": 1}
    g = build_graph(roster, "CP#1>GC#1;GC#1>TB#1;TB#1>EVAP#1;EVAP#1>CP#1")
    assert classify_cycle(g, "heat_pump") == harness.TAG_SIMPLE


def test_classify_heat_pump_split_defaults_high():
    roster = {"compressor": 1, "gas_cooler": 1, "turbine": 2,
              "evaporator": 1, "merge": 1}
    g = build_graph(roster,
                    "CP#1>GC#1;GC#1>TB#1;GC#1>TB#2;TB#1>M#1;TB#2>M#1;"
                    "M#1>EVAP#1;EVAP#1>CP#1")
    assert classify_cycle(g, "heat_pump") == harness.TAG_HIGH_SPLIT


def test_classify_heat_pump_split_regime_from_pressures():
    roster = {"compressor": 1, "gas_cooler": 1, "turbine": 2,
              "evaporator": 1, "merge": 1}
    g = build_graph(roster,
                    "CP#1>GC#1;GC#1>TB#1;GC#1>TB#2;TB#1>M#1;TB#2>M#1;"
                    "M#1>EVAP#1;EVAP#1>CP#1")
    bc = decoder.BoundaryConditions("heat_pump", 293.15, 333.15)
    res = decoder.decode(
        g, {"p_suc_CP#1": 400.0, "p_dis_CP#1": 1400.0, "r_GC#1": 0.5},
        bc, None)
    if res.status == decoder.STATUS_CONVERGED:
        tag = classify_cycle(g, "heat_pump", res)
        assert tag in (harness.TAG_HIGH_SPLIT, harness.TAG_LOW_SPLIT)


# -- report exports ------------------------------------------------------

def _fake_report():
    g = build_graph(SIMPLE, "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    cyc = harness.DiscoveredCycle(
        grammar.canonical_hex(g), 0.25, {"p_suc_CP#1": 140.0},
        harness.TAG_SINGLE_STAGE, "CP#1>HT#1", g)
    log = [agent.LogRow(1, True, 0.25, 1.0, 0.1, 0.2, 0.3, 0.0, 0)]
    stats = agent.SearchStats(10, 1, 0.1, {})
    return harness.ExperimentReport([cyc], 1.0, stats, stats, log)


def test_report_csv_exports_are_deterministic(tmp_path):
    report = _fake_report()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.export_report_csv(report, p1)
    harness.export_report_csv(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0].startswith("rank,canonical_key")
    assert len(lines) == 2


def test_baseline_csv_export(tmp_path):
    report = _fake_report()
    harness.export_baseline_csv(report, tmp_path / "baseline.csv")
    base = (tmp_path / "baseline.csv").read_text().strip().splitlines()
    assert len(base) == 4                 # header + agent + two baselines


def test_empty_report_exports_headers_only(tmp_path):
    stats = agent.SearchStats(0, 0, 0.0, {})
    report = harness.ExperimentReport([], 0.0, stats, stats, [])
    harness.export_report_csv(report, tmp_path / "report.csv")
    assert len((tmp_path / "report.csv").read_text().strip()
               .splitlines()) == 1


# -- oracle verification -------------------------------------------------

def test_diff_report_properties():
    diff = DiffReport({"a", "b"}, {"b", "c"})
    assert diff.missing == {"a"}
    assert diff.extra == {"c"}
    assert not diff.empty
    assert DiffReport({"a"}, {"a"}).empty


def _tiny_spec():
    return CaseSpec(mode="heat_engine", t_source=600.0, t_sink=300.0,
                    components=dict(SIMPLE), worker_budget=(10, 10),
                    efficiencies={"compressor": 1.0, "turbine": 1.0,
                                  "nozzle": 1.0, "diffuser": 1.0},
                    t_max=6, seed=0)


def test_oracle_keys_unique_brayton():
    spec = _tiny_spec()
    keys = oracle_keys(spec)
    g = build_graph(SIMPLE, "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    assert keys == {grammar.canonical_form(g).hex()}


def test_verify_against_oracle_diff(tmp_path):
    spec = _tiny_spec()
    cache = worker.WorkerCache()
    g = build_graph(SIMPLE, "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    key = grammar.canonical_form(g).hex()
    ok = verify_against_oracle(spec, {key: 0.23}, cache)
    assert ok.empty
    bad = verify_against_oracle(spec, {}, cache)
    assert bad.missing == {key}
    assert not bad.empty


def test_oracle_hits_the_experiment_worker_cache(tmp_path):
    # `cyclesynth verify` judges feasibility through the cache file the
    # experiment wrote; same spec, so every stored structure must hit
    spec = dataclasses.replace(_tiny_spec(), worker_budget=(4, 4),
                               episodes=60, baseline_episodes=20)
    harness.run_experiment(spec, tmp_path)
    hits = []

    class RecordingCache(worker.WorkerCache):
        def get(self, *args):
            hit = super().get(*args)
            hits.append(hit is not None)
            return hit

    cache = RecordingCache(tmp_path / "worker_cache.jsonl")
    stored = len(cache)
    assert stored > 0
    oracle_keys(spec, cache)
    assert sum(hits) == stored


def test_case_spec_eta_and_fluid():
    spec = _tiny_spec()
    eta = spec.eta()
    assert eta.compressor == 1.0
    fluid = spec.make_fluid()
    assert np.isfinite(fluid.ph_to_tsq(200.0, 300.0).T)
