"""Command-line entry point.

Subcommands cover the full pipeline: surrogate training, exhaustive
enumeration, single-structure decode and parameter optimization, agent
training with baselines, oracle verification, and DOT export.

Exit codes: 0 success, 2 configuration error (a malformed or misplaced
surrogate model file included), 3 numeric failure, 4 non-empty
verification diff.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import agent, decoder, grammar, harness, nn, surrogate, worker

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DIFF = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="case YAML file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the seed in the config")
    sub.add_argument("--out", default="out", help="output directory")


def _load(args) -> harness.CaseSpec:
    spec = harness.load_config(args.config)
    if args.seed is not None:
        spec.seed = args.seed
    os.makedirs(args.out, exist_ok=True)
    return spec


def cmd_train_surrogate(args) -> int:
    spec = _load(args)
    fluid = spec.make_fluid()
    # the wide (p, h) map needs a longer, larger-batch schedule than the
    # smooth low-dimensional curves
    cfgs = {"PH2TSQ": surrogate.TrainConfig(
        max_epochs=280, patience=60, batch_size=1024,
        initial_lr=3e-3, lr_halving_patience=12)}
    for schema in surrogate.SCHEMAS:
        n = 200_000 if schema == "PH2TSQ" else 50_000
        ds = surrogate.generate_dataset(fluid, schema, n, spec.seed)
        model, report = surrogate.train_surrogate(
            ds, cfgs.get(schema, surrogate.TrainConfig()), seed=spec.seed)
        nn.save_model(model, os.path.join(args.out, f"{schema}.json"))
        report.to_csv(os.path.join(args.out, f"{schema}_errors.csv"))
        frac = report.frac_within(1.0)
        print(f"{schema}: within 1% = "
              + ", ".join(f"{f:.4f}" for f in frac))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    spec = _load(args)
    structural = grammar.enumerate_valid(spec.components, spec.t_max)
    physical = harness.oracle_keys(spec)
    path = os.path.join(args.out, "enumeration.csv")
    with open(path, "w", newline="") as fh:
        fh.write("canonical_key,physically_feasible\n")
        for k in sorted(k.hex() for k in structural):
            fh.write(f"{k},{int(k in physical)}\n")
    print(f"structural={len(structural)} physical={len(physical)} -> {path}")
    return EXIT_OK


def cmd_decode(args) -> int:
    spec = _load(args)
    g = harness.build_graph(spec.components, args.edges)
    params = json.loads(args.params) if args.params else {}
    res = decoder.decode(g, params, spec.boundary_conditions(),
                         spec.make_fluid(), spec.eta())
    print(f"iter={res.iterations} fnorm={res.residual_norm:.3e}")
    decoder.export_states_csv(res, os.path.join(args.out, "states.csv"))
    print(f"status={res.status} feasible={res.feasible} "
          f"performance={res.performance:.6f} fnorm={res.residual_norm:.3e}")
    if res.violations:
        print("violations: " + "; ".join(res.violations))
    return EXIT_OK if res.status == decoder.STATUS_CONVERGED else EXIT_NUMERIC


def cmd_optimize_params(args) -> int:
    spec = _load(args)
    g = harness.build_graph(spec.components, args.edges)
    res = worker.optimize_parameters(
        g, spec.boundary_conditions(), spec.make_fluid(),
        worker.WorkerBudget(*spec.worker_budget), spec.seed, spec.eta())
    worker.export_evaluations_csv(
        res, os.path.join(args.out, "evaluations.csv"))
    with open(os.path.join(args.out, "best_params.json"), "w") as fh:
        json.dump({"params": res.best_params,
                   "performance": res.best_performance,
                   "feasible": res.feasible}, fh, indent=2)
    print(f"feasible={res.feasible} best={res.best_performance:.6f} "
          f"evals={res.n_evals}")
    return EXIT_OK if res.feasible else EXIT_NUMERIC


def cmd_train_agent(args) -> int:
    spec = _load(args)
    report = harness.run_experiment(spec, args.out)
    print(f"valid_rate={report.valid_rate:.4f} "
          f"cycles={len(report.cycles)} "
          f"baseline_unmasked={report.baseline_unmasked.valid_rate:.5f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    spec = _load(args)
    env = agent.CycleEnv(spec.components, spec.boundary_conditions(),
                         spec.make_fluid(),
                         worker.WorkerBudget(*spec.worker_budget),
                         spec.eta(), t_max=spec.t_max)
    for masked in (False, True):
        st = agent.random_search(env, spec.baseline_episodes, spec.seed,
                                 masked=masked)
        name = "masked" if masked else "unmasked"
        print(f"{name}: valid_rate={st.valid_rate:.5f} "
              f"({st.n_valid}/{st.episodes})")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load(args)
    report = harness.run_experiment(spec, args.out)
    discovered = {c.key: c.performance for c in report.cycles}
    # reuse the experiment's worker cache so the oracle judges
    # feasibility identically to the training run
    cache = worker.WorkerCache(os.path.join(args.out, "worker_cache.jsonl"))
    diff = harness.verify_against_oracle(spec, discovered, cache)
    path = os.path.join(args.out, "verify.csv")
    with open(path, "w", newline="") as fh:
        fh.write("kind,canonical_key\n")
        for k in sorted(diff.missing):
            fh.write(f"missing,{k}\n")
        for k in sorted(diff.extra):
            fh.write(f"extra,{k}\n")
    print(f"oracle={len(diff.oracle_keys)} discovered={len(discovered)} "
          f"missing={len(diff.missing)} extra={len(diff.extra)}")
    return EXIT_OK if diff.empty else EXIT_DIFF


def cmd_export(args) -> int:
    spec = _load(args)
    g = harness.build_graph(spec.components, args.edges)
    path = os.path.join(args.out, "cycle.dot")
    with open(path, "w") as fh:
        fh.write(grammar.export_dot(g))
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cyclesynth",
        description="co-design of thermodynamic cycle structures and "
                    "parameters")
    sub = ap.add_subparsers(dest="command", required=True)

    handlers = {}
    for name, fn, extra in [
        ("train-surrogate", cmd_train_surrogate, []),
        ("enumerate", cmd_enumerate, []),
        ("decode", cmd_decode, ["edges", "params"]),
        ("optimize-params", cmd_optimize_params, ["edges"]),
        ("train-agent", cmd_train_agent, []),
        ("baseline", cmd_baseline, []),
        ("verify", cmd_verify, []),
        ("export", cmd_export, ["edges"]),
    ]:
        sp = sub.add_parser(name)
        _add_common(sp)
        if "edges" in extra:
            sp.add_argument("--edges", required=True,
                            help="edge list like 'CP#1>HT#1;HT#1>TB#1'")
        if "params" in extra:
            sp.add_argument("--params", default=None,
                            help="JSON object of parameter values")
        handlers[name] = fn

    args = ap.parse_args(argv)
    worker.pin_solver_threads()
    try:
        return handlers[args.command](args)
    except (harness.ConfigError, nn.ModelFormatError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (decoder.DecodeError, agent.DivergenceError,
            surrogate.TrainingDiverged) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
