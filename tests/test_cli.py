"""Command-line interface: subcommands, artifacts, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from cyclesynth import cli, nn, surrogate

BRAYTON_EDGES = "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1"


def _config(tmp_path, **overrides):
    doc = {
        "mode": "heat_engine",
        "t_source": 600.0,
        "t_sink": 300.0,
        "components": {"compressor": 1, "heater": 1, "turbine": 1,
                       "cooler": 1},
        "efficiencies": {"compressor": 1.0, "turbine": 1.0},
        "worker_budget": {"n_init": 4, "n_iter": 4},
        "refine_budget": {"n_init": 4, "n_iter": 4},
        "episodes": 48,
        "baseline_episodes": 50,
        "t_max": 6,
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["decode", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out"),
                   "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("mode: heat_engine\n")
    rc = cli.main(["decode", "--config", str(path),
                   "--out", str(tmp_path / "out"),
                   "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_CONFIG


def _surrogate_files(tmp_path):
    paths = {}
    rng = np.random.default_rng(0)
    for schema, (in_cols, out_cols) in surrogate.SCHEMAS.items():
        path = tmp_path / f"{schema}.json"
        nn.save_model(nn.init_mlp([len(in_cols), 4, len(out_cols)], rng,
                                  schema=schema), path)
        paths[schema] = str(path)
    return paths


def _truncate(paths):
    blob = open(paths["PS2H"]).read()
    with open(paths["PS2H"], "w") as fh:
        fh.write(blob[: len(blob) // 2])
    return paths


def _swap(paths):
    return dict(paths, PH2TSQ=paths["PS2H"], PS2H=paths["PH2TSQ"])


@pytest.mark.parametrize("spoil", [_truncate, _swap])
def test_bad_surrogate_file_exits_2(tmp_path, capsys, spoil):
    paths = spoil(_surrogate_files(tmp_path))
    cfg = _config(tmp_path, fluid={"surrogate": paths})
    rc = cli.main(["decode", "--config", cfg,
                   "--out", str(tmp_path / "out"),
                   "--edges", BRAYTON_EDGES,
                   "--params",
                   json.dumps({"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0})])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_decode_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["decode", "--config", cfg, "--out", str(out),
                   "--edges", BRAYTON_EDGES,
                   "--params",
                   json.dumps({"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0})])
    assert rc == cli.EXIT_OK
    assert (out / "states.csv").exists()
    text = capsys.readouterr().out
    assert "status=converged" in text
    assert "iter=" in text and "fnorm=" in text


def test_decode_missing_params_exits_3(tmp_path, capsys):
    cfg = _config(tmp_path)
    rc = cli.main(["decode", "--config", cfg,
                   "--out", str(tmp_path / "out"),
                   "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_optimize_params_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["optimize-params", "--config", cfg, "--out", str(out),
                   "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_OK
    best = json.loads((out / "best_params.json").read_text())
    assert best["feasible"]
    assert best["performance"] > 0.0
    assert (out / "evaluations.csv").exists()


def test_enumerate_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["enumerate", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "enumeration.csv").read_text().strip().splitlines()
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert flags.count("1") == 1          # only the simple loop is feasible


def test_export_subcommand(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["export", "--config", cfg, "--out", str(out),
                   "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_OK
    dot = (out / "cycle.dot").read_text()
    assert dot.startswith("digraph")


def test_baseline_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path, baseline_episodes=30)
    rc = cli.main(["baseline", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "unmasked:" in text and "masked:" in text


def test_train_agent_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path, episodes=48, baseline_episodes=30)
    out = tmp_path / "out"
    rc = cli.main(["train-agent", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_OK
    for name in ("report.csv", "baseline.csv", "train_log.csv",
                 "checkpoint.json", "worker_cache.jsonl"):
        assert (out / name).exists(), name
    assert not (out / "curves.csv").exists()


def test_verify_subcommand(tmp_path, capsys):
    cfg = _config(tmp_path, episodes=300, baseline_episodes=20,
                  worker_budget={"n_init": 4, "n_iter": 4})
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc in (cli.EXIT_OK, cli.EXIT_DIFF)
    lines = (out / "verify.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,canonical_key"
    text = capsys.readouterr().out
    assert "oracle=" in text and "missing=" in text
    if rc == cli.EXIT_OK:
        assert len(lines) == 1


def test_seed_override(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["optimize-params", "--config", cfg, "--out", str(out),
                   "--seed", "5", "--edges", BRAYTON_EDGES])
    assert rc == cli.EXIT_OK


def test_bad_params_json_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path)
    rc = cli.main(["decode", "--config", cfg,
                   "--out", str(tmp_path / "out"),
                   "--edges", BRAYTON_EDGES, "--params", "{not json"])
    assert rc == cli.EXIT_CONFIG


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def _loads_in_fresh_process(imports: str, module: str) -> bool:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = f"import sys, {imports}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True).stdout
    return out.split() != ["False"]


def test_cli_import_does_not_load_networkx():
    """A fresh `import cyclesynth.cli`, as the console script does it."""
    assert not _loads_in_fresh_process("cyclesynth.cli", "networkx")


def test_library_import_does_not_load_scipy_stats():
    """The Worker and the surrogate draw Sobol' points without scipy.stats."""
    assert not _loads_in_fresh_process("cyclesynth.harness, cyclesynth.cli",
                                       "scipy.stats")
