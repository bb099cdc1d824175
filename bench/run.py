"""Benchmark of cyclesynth's user jobs, driven through its public API.

    python3 bench/run.py --workload he_search --seed 1 --seconds 55 --trace 0

Run from the repository root (the library is imported from `src/`).
Each run builds its inputs from --seed: a workload's jobs, a fixed-size
piece of user work each.  It then runs rounds, one job per round in turn,
each from an empty output directory and an empty Worker cache, until
--seconds is used up (every job at least once).  run_s is the mean over
the jobs of each job's mean round time: a shared machine's speed can
flip between a fast and a slow state within seconds, and the mean
averages the mix where a median flips with it.  A job's first round is
checked (see checks.py), and its later rounds must repeat it exactly.  The
last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exit codes: 0 correct, 1 a check failed or the library is missing,
2 bad invocation.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
BLAS_THREADS = "1"   # small GP and network matrices; 1 thread is steadiest

if __name__ == "__main__":   # before numpy loads; importers keep their own
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS
if not (SRC / "cyclesynth" / "__init__.py").is_file():
    sys.exit(f"no cyclesynth sources under {SRC}")
sys.path.insert(0, str(SRC))
try:
    from cyclesynth import decoder, fluids, harness, worker
except ImportError as exc:
    sys.exit(f"cannot import cyclesynth from {SRC}: {exc}")
import checks  # noqa: E402
import tracer  # noqa: E402

CONFIGS = Path(harness.__file__).parent / "configs"


def _process_age() -> float:
    """Seconds since this process started, on the kernel's boot clock."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


# -- workloads -------------------------------------------------------------

HE_BOUNDARY = dict(mode="heat_engine", t_source=873.15, t_sink=303.15)
BRAYTON = "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1"
N_BELOW_DOME_PROBES = 3
DOME_PROBE = (2918.0, 14930.0)   # both pressures on or above the dome


@dataclass
class Round:
    """What one round of a job produced, for the checks."""

    structures: list      # [(label, graph, params, reported performance)]
    digest: list          # must repeat exactly in every round
    quality: dict         # search quality, printed for reference
    n_evals: list = field(default_factory=list)   # per fresh Worker call
    problems: list = field(default_factory=list)  # found by the job itself


class HeSearch:
    """harness.run_experiment on desk_he_small, smaller and steadier.

    Four jobs, one experiment per sub-seed drawn from the run's seed,
    take turns.  Sub-seeds differ in how many distinct structures the
    Manager terminates on, and so in Worker calls; four average that out.
    The Worker budget drops from the case's (8, 8) search and (20, 40)
    refinement to (8, 2) for both, so that one cache miss costs little
    against the Manager's own work.
    """

    name = "he_search"
    JOBS = 4
    EPISODES = 100
    BASELINE_EPISODES = 50
    WORKER_BUDGET = (8, 2)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.specs = []
        for _ in range(self.JOBS):
            spec = harness.load_config(CONFIGS / "desk_he_small.yaml")
            spec.seed = rng.randrange(2 ** 31)
            spec.episodes = self.EPISODES
            spec.baseline_episodes = self.BASELINE_EPISODES
            spec.worker_budget = spec.refine_budget = self.WORKER_BUDGET
            self.specs.append(spec)
        self.jobs = range(self.JOBS)
        self.units = self.EPISODES + 2 * self.BASELINE_EPISODES

    def spec(self, job: int):
        return self.specs[job]

    def run(self, job: int, out_dir: Path) -> Round:
        rep = harness.run_experiment(self.specs[job], out_dir)
        structures = [(c.edges, c.graph, c.params, c.performance)
                      for c in rep.cycles]
        digest = [(c.key, c.performance, sorted(c.params.items()))
                  for c in rep.cycles]
        digest.append(rep.valid_rate)
        quality = {"best_efficiency": max((c.performance for c in rep.cycles),
                                          default=0.0),
                   "feasible_structures": len(rep.cycles),
                   "manager_valid_rate": rep.valid_rate}
        return Round(structures, digest, quality)


class HpRefine:
    """worker.optimize_parameters on textbook transcritical heat pumps.

    A round refines one structure, in turn, through a file-backed
    WorkerCache, as in run_experiment.  A resumed run then reloads that
    file and asks for the structure again: it must be a cache hit that
    returns the fresh result exactly.
    """

    name = "hp_refine"
    EDGES = {
        "valve": "CP#1>GC#1;GC#1>EV#1;EV#1>EVAP#1;EVAP#1>CP#1",
        "expander": "CP#1>GC#1;GC#1>TB#1;TB#1>EVAP#1;EVAP#1>CP#1",
        "expander_ihx": "CP#1>GC#1;GC#1>r#1;r#1>TB#1;TB#1>EVAP#1;"
                        "EVAP#1>R#1;R#1>CP#1",
    }
    BUDGET = (40, 80)

    def __init__(self, seed: int) -> None:
        self.case = harness.load_config(CONFIGS / "hp_case1.yaml")
        self.seed = seed
        self.graphs = {k: harness.build_graph(self.case.components, e)
                       for k, e in self.EDGES.items()}
        self.jobs = list(self.graphs)
        self.units = 2   # the refinement, then the cached read

    def spec(self, job: str):
        return self.case

    def run(self, job: str, out_dir: Path) -> Round:
        spec, g = self.case, self.graphs[job]
        bc, fluid, eta = spec.boundary_conditions(), spec.make_fluid(), spec.eta()
        budget = worker.WorkerBudget(*self.BUDGET)
        cache_path = out_dir / "worker_cache.jsonl"
        res = worker.optimize_parameters(g, bc, fluid, budget, self.seed, eta,
                                         worker.WorkerCache(cache_path))
        worker.export_evaluations_csv(res, out_dir / f"{job}.csv")
        fresh = (res.feasible, res.best_performance,
                 sorted(res.best_params.items()))
        hit = worker.optimize_parameters(g, bc, fluid, budget, self.seed, eta,
                                         worker.WorkerCache(cache_path))
        got = (hit.feasible, hit.best_performance,
               sorted(hit.best_params.items()))
        problems = []
        if not hit.cache_hit or got != fresh:
            problems.append(f"{job}: resumed cache returned {got} "
                            f"(hit={hit.cache_hit}), fresh {fresh}")
        structures = ([(job, g, res.best_params, res.best_performance)]
                      if res.feasible else [])
        quality = {"structure": job, "feasible": res.feasible,
                   "cop": res.best_performance}
        return Round(structures, [fresh], quality, [res.n_evals], problems)


WORKLOADS = {w.name: w for w in (HeSearch, HpRefine)}


# -- checks ------------------------------------------------------------------

def check_round(rnd: Round, spec) -> tuple[list[str], Counter]:
    """(hard-check problems, counts over structures that miss a pin).

    A structure whose pinned outlets decode off their pins has failed
    through the fluid fault (see README).  That happens on some seeds'
    outputs and not on others, and a seed-dependent failure cannot be a
    fixed share of the operations, so such structures are counted, not
    failed.  The Carnot bound of the two reservoirs holds only for a
    cycle that meets them at its pins, so it gates the other structures
    and is only counted on these.
    """
    bc, fluid, eta = spec.boundary_conditions(), spec.make_fluid(), spec.eta()
    problems = []
    off_pin = Counter()
    for label, g, params, reported in rnd.structures:
        res = decoder.decode(g, params, bc, fluid, eta)
        bad = checks.structure(res, reported, bc.mode)
        above = checks.below_carnot(reported, bc.mode, bc.t_source,
                                    bc.t_sink)
        if checks.pinned_outlets(res.ports, bc.t_source, bc.t_sink,
                                 bc.dt_approach):
            off_pin["structures"] += 1
            off_pin["above_carnot"] += bool(above)
        else:
            bad += above
        problems += [f"{label}: {b}" for b in bad]
    return problems, off_pin


def brayton_probes(seed: int) -> list[tuple[float, float]]:
    """Seeded simple-Brayton pressures below the dome, plus one on it."""
    rng = random.Random(seed)
    p_top = fluids.AnalyticFluid().p_dome_min
    probes = []
    for _ in range(N_BELOW_DOME_PROBES):
        p_suc = rng.uniform(100.0, 200.0)
        probes.append((p_suc, rng.uniform(1.5 * p_suc, 0.99 * p_top)))
    return probes + [DOME_PROBE]


def run_probe(p_suc: float, p_dis: float) -> tuple[list[str], bool]:
    """(hard problems, failed) for one decoded simple Brayton cycle.

    A pinned-outlet violation fails the operation; the closed-form
    comparison is only meaningful once the outlets sit at their pins.
    """
    bc = decoder.BoundaryConditions(**HE_BOUNDARY)
    eta = decoder.Efficiencies()
    g = harness.build_graph({"compressor": 1, "heater": 1, "turbine": 1,
                             "cooler": 1}, BRAYTON)
    res = decoder.decode(g, {"p_suc_CP#1": p_suc, "p_dis_CP#1": p_dis},
                         bc, None, eta)
    label = f"brayton {p_suc:.1f}->{p_dis:.1f} kPa"
    if res.ports and checks.pinned_outlets(res.ports, bc.t_source,
                                           bc.t_sink, bc.dt_approach):
        return [], True
    problems = (checks.structure(res, res.performance, bc.mode)
                + checks.below_carnot(res.performance, bc.mode, bc.t_source,
                                      bc.t_sink))
    expect = checks.brayton_closed_form(p_suc, p_dis, bc.t_source, bc.t_sink,
                                        bc.dt_approach, eta.compressor,
                                        eta.turbine)
    if not abs(res.performance - expect) <= checks.PERF_TOL:
        problems.append(f"efficiency {res.performance:.9f} != closed form "
                        f"{expect:.9f}")
    return [f"{label}: {p}" for p in problems], False


def trace_cross_checks(wl, rnd: Round, tr) -> list[str]:
    """Totals reached by two independent paths must agree exactly."""
    if wl.name != "hp_refine":
        return []
    problems = []
    if tr.evals != sum(rnd.n_evals):
        problems.append(f"traced evaluations {tr.evals} != sum of n_evals "
                        f"{sum(rnd.n_evals)}")
    nfev = sum(n for _st, n in tr.solves)
    if tr.residuals_in_solve != nfev:
        problems.append(f"residual calls inside solves {tr.residuals_in_solve}"
                        f" != sum of nfev {nfev}")
    return problems


# -- main ----------------------------------------------------------------------

def _with_units(values: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json, which must list exactly these."""
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(values):
        raise RuntimeError(f"BENCHMARK.json {kind} lists {sorted(units)}, "
                           f"the run measured {sorted(values)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def job_mean(times: dict) -> float:
    """Mean over a workload's jobs of each job's mean round time."""
    return statistics.fmean(statistics.fmean(ts) for ts in times.values())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    probes = brayton_probes(args.seed)
    setup_s = _process_age()

    work_dir = OUT / f"{wl.name}-{os.getpid()}"
    problems: list[str] = []
    n_jobs = len(wl.jobs)
    # every job once untraced, and once traced in a traced run
    needed = n_jobs * (2 if args.trace else 1)
    # job -> round times (untraced, traced) and traced per-layer metrics
    times = {False: {j: [] for j in wl.jobs}, True: {j: [] for j in wl.jobs}}
    traced_metrics: dict = {j: [] for j in wl.jobs}
    first: dict = {}
    last_dt: dict = {}
    rounds = failed = attempted = 0
    off_pin = Counter()
    t_start = time.perf_counter()
    try:
        while True:
            job = wl.jobs[rounds % n_jobs]
            traced = bool(args.trace) and (rounds // n_jobs) % 2 == 1
            out_dir = work_dir / f"round-{rounds}"
            out_dir.mkdir(parents=True)
            tr = tracer.Tracer() if traced else None
            if tr:
                tr.install()
            t0 = time.perf_counter()
            try:
                rnd = wl.run(job, out_dir)
            finally:
                dt = time.perf_counter() - t0
                if tr:
                    tr.uninstall()
            times[traced][job].append(dt)
            last_dt[job] = dt
            problems += rnd.problems
            if tr:
                problems += trace_cross_checks(wl, rnd, tr)
                traced_metrics[job].append(tr.metrics(_dir_bytes(out_dir)))
            if job not in first:
                first[job] = rnd
                bad, job_off_pin = check_round(rnd, wl.spec(job))
                problems += bad
                off_pin += job_off_pin
            elif rnd.digest != first[job].digest:
                problems.append(f"round {rounds} (job {job}) outputs differ "
                                "from the job's first round")
            shutil.rmtree(out_dir)
            for p_suc, p_dis in probes:
                bad, probe_failed = run_probe(p_suc, p_dis)
                problems += bad
                failed += probe_failed
            attempted += wl.units + len(probes)
            rounds += 1
            elapsed = time.perf_counter() - t_start
            next_dt = last_dt.get(wl.jobs[rounds % n_jobs], dt)
            if rounds >= needed and elapsed + next_dt > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    run_s = job_mean(times[False])
    if args.trace:
        values = {k: statistics.fmean(statistics.fmean(m[k] for m in ms)
                                      for ms in traced_metrics.values())
                  for k in traced_metrics[wl.jobs[0]][0]}
        values["trace.overhead_s"] = job_mean(times[True]) - run_s
        values["fluids.pinned_outlet_misses"] = off_pin["structures"]
        metrics = _with_units(values, "per_layer")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _with_units({"setup_s": setup_s, "run_s": run_s,
                               "peak_rss_mb": rss_mb}, "end_to_end")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    round_s = {j: [round(t, 3) for t in times[False][j]] for j in wl.jobs}
    print(f"{wl.name} seed={args.seed} rounds={rounds} "
          f"round_s={json.dumps(round_s)} "
          f"quality={json.dumps([first[j].quality for j in wl.jobs])} "
          f"off_pin={dict(off_pin)}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
