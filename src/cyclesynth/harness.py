"""Experiment configuration, orchestration and artifact export.

A CaseSpec pins everything a run needs: boundary conditions, component
roster, fluid backend, budgets and seeds.  run_experiment trains the
Manager, runs random-search baselines, re-optimizes every discovered
structure with a refinement-budget Worker pass, and writes all report
files; verify_against_oracle diffs the discovered set against
exhaustive enumeration.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, field, fields

import yaml

from . import agent, decoder, grammar, worker
from .fluids import AnalyticFluid, P_MAX, P_MIN, T_MAX, T_MIN


class ConfigError(ValueError):
    """Raised on malformed or invalid case configuration."""


_EFF_KEYS = {f.name for f in fields(decoder.Efficiencies)}
_BUDGET_KEYS = {"n_init", "n_iter"}
_PPO_KEYS = {f.name for f in fields(agent.PpoConfig)}

TAG_SIMPLE = "Simple"
TAG_HIGH_SPLIT = "HighMidPressureSplit"
TAG_LOW_SPLIT = "LowPressureSplit"
TAG_SINGLE_STAGE = "SingleStage"
TAG_TWO_STAGE = "TwoStage"
TAG_PARALLEL = "ParallelCompression"


@dataclass
class CaseSpec:
    mode: str
    t_source: float
    t_sink: float
    components: dict[str, int]
    dt_min: float = decoder.DT_APPROACH
    p_min: float = P_MIN               # pressure decision-variable bounds
    p_max: float = P_MAX
    fluid: str | dict = "analytic"
    efficiencies: dict[str, float] = field(default_factory=dict)
    worker_budget: tuple[int, int] = (20, 40)
    refine_budget: tuple[int, int] = (40, 80)
    episodes: int = 2000
    baseline_episodes: int = 2000
    t_max: int = 16
    seed: int = 0
    ppo: dict = field(default_factory=dict)

    def boundary_conditions(self) -> decoder.BoundaryConditions:
        return decoder.BoundaryConditions(self.mode, self.t_source,
                                          self.t_sink, self.dt_min,
                                          self.p_min, self.p_max)

    def eta(self) -> decoder.Efficiencies:
        return decoder.Efficiencies(**self.efficiencies)

    def make_fluid(self):
        if self.fluid == "analytic":
            return AnalyticFluid()
        from .surrogate import SurrogateFluid
        return SurrogateFluid.from_paths(self.fluid["surrogate"])

    def ppo_config(self) -> agent.PpoConfig:
        kw = dict(self.ppo)
        for k in ("entropy_weights", "elite_weights"):
            if k in kw:
                kw[k] = tuple(kw[k])
        return agent.PpoConfig(**kw)

    def validate(self) -> None:
        for t, name in ((self.t_source, "t_source"), (self.t_sink, "t_sink")):
            if not T_MIN <= t <= T_MAX:
                raise ConfigError(
                    f"{name}={t} outside fluid domain [{T_MIN}, {T_MAX}]")
        if self.mode == decoder.MODE_HEAT_ENGINE \
                and self.t_source <= self.t_sink:
            raise ConfigError("heat engine needs t_source > t_sink")
        if not P_MIN <= self.p_min < self.p_max <= P_MAX:
            raise ConfigError(
                f"p_min/p_max [{self.p_min}, {self.p_max}] must nest "
                f"inside the fluid domain [{P_MIN}, {P_MAX}]")
        try:
            grammar.new_graph(self.components)
        except ValueError as exc:
            raise ConfigError(f"components: {exc}") from exc
        if self.fluid != "analytic":
            if not (isinstance(self.fluid, dict)
                    and set(self.fluid) == {"surrogate"}):
                raise ConfigError(
                    "fluid must be 'analytic' or {surrogate: {schema: path}}")
        bad = set(self.efficiencies) - _EFF_KEYS
        if bad:
            raise ConfigError(f"unknown efficiency keys: {sorted(bad)}")
        bad = set(self.ppo) - _PPO_KEYS
        if bad:
            raise ConfigError(f"unknown ppo keys: {sorted(bad)}")
        for budget, name in ((self.worker_budget, "worker_budget"),
                             (self.refine_budget, "refine_budget")):
            if len(budget) != 2 or any(int(b) < 0 for b in budget):
                raise ConfigError(f"{name} must be two non-negative counts")


_FIELDS = {f.name: f for f in fields(CaseSpec)}
_SCALARS = {"float": float, "int": int}


def _coerce(key: str, value):
    """A document value as the CaseSpec field `key` holds it."""
    kind = _FIELDS[key].type
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if key == "components":
        return {k: int(v) for k, v in value.items()}
    if key in ("worker_budget", "refine_budget"):
        n_init, n_iter = _FIELDS[key].default
        if value is None:
            return n_init, n_iter
        bad = set(value) - _BUDGET_KEYS
        if bad:
            raise ConfigError(f"{key}: unknown keys {sorted(bad)}")
        return (int(value.get("n_init", n_init)),
                int(value.get("n_iter", n_iter)))
    return value


def load_config(path) -> CaseSpec:
    """Parse and validate a YAML case file.

    Keys the file leaves out take the CaseSpec defaults; unknown keys fail.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    unknown = set(doc) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("mode", "t_source", "t_sink", "components"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        spec = CaseSpec(**{k: _coerce(k, v) for k, v in doc.items()})
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        spec.validate()
        spec.boundary_conditions()
        spec.eta()
        spec.ppo_config()
    except (ConfigError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return spec


# -- graph construction from text --------------------------------------

def build_graph(components: dict[str, int], edge_text: str) -> grammar.CycleGraph:
    """Graph from 'CP#1>HT#1;HT#1>TB#1;...' edge notation."""
    g = grammar.new_graph(components)
    labels = {g.label(i): i for i in range(len(g))}
    for part in filter(None, (p.strip() for p in edge_text.split(";"))):
        try:
            a, b = part.split(">")
        except ValueError as exc:
            raise ConfigError(f"bad edge {part!r}: expected 'A>B'") from exc
        for lbl in (a.strip(), b.strip()):
            if lbl not in labels:
                raise ConfigError(f"unknown node {lbl!r}; roster: "
                                  + ", ".join(sorted(labels)))
        if not g.adj[labels[a.strip()], labels[b.strip()]]:
            g = grammar.apply_action(g, (labels[a.strip()], labels[b.strip()]))
    return g


# -- classification -----------------------------------------------------

def classify_cycle(g: grammar.CycleGraph, mode: str,
                   result: decoder.DecodeResult | None = None) -> str:
    """Structural class tag; split-pressure regimes need a solved result."""
    active = g.active_nodes()
    comps = [v for v in active if g.nodes[v][0] == "CP"]
    if mode == decoder.MODE_HEAT_ENGINE:
        if len(comps) <= 1:
            return TAG_SINGLE_STAGE
        loops = grammar.directed_loops(g)
        for a, b in itertools.combinations(comps, 2):
            if any(a in loop and b in loop for loop in loops):
                return TAG_TWO_STAGE
        return TAG_PARALLEL
    splits = [v for v in active
              if g.nodes[v][0] == "S" or (g.nodes[v][0] != "Em"
                                          and g.out_degree(v) >= 2)]
    if not splits:
        return TAG_SIMPLE
    if result is None or not result.ports:
        return TAG_HIGH_SPLIT  # regime undecidable without pressures
    p_by_node: dict[str, float] = {}
    p_all: list[float] = []
    for row in result.ports:
        p_by_node.setdefault(row.node, row.p)
        p_all.append(row.p)
    p_mid = 0.5 * (min(p_all) + max(p_all))
    split_p = max(p_by_node.get(g.label(v), p_mid) for v in splits)
    return TAG_HIGH_SPLIT if split_p >= p_mid else TAG_LOW_SPLIT


# -- experiment orchestration -------------------------------------------

@dataclass
class DiscoveredCycle:
    key: str
    performance: float
    params: dict[str, float]
    tag: str
    edges: str
    graph: grammar.CycleGraph


@dataclass
class ExperimentReport:
    cycles: list[DiscoveredCycle]
    valid_rate: float
    baseline_unmasked: agent.SearchStats
    baseline_masked: agent.SearchStats
    log: list[agent.LogRow]


def _edges_text(g: grammar.CycleGraph) -> str:
    return ";".join(f"{g.label(i)}>{g.label(j)}" for i, j in sorted(g.edges()))


def run_experiment(spec: CaseSpec, out_dir) -> ExperimentReport:
    """Train, baseline, refine discoveries, and write report artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    bc = spec.boundary_conditions()
    fluid = spec.make_fluid()
    eta = spec.eta()
    cache = worker.WorkerCache(os.path.join(out_dir, "worker_cache.jsonl"))
    budget = worker.WorkerBudget(*spec.worker_budget)

    env = agent.CycleEnv(spec.components, bc, fluid, budget, eta, cache,
                         spec.seed, spec.t_max)
    result = agent.train_manager(
        env, spec.ppo_config(), spec.episodes, spec.seed,
        log_path=os.path.join(out_dir, "train_log.csv"),
        checkpoint_path=os.path.join(out_dir, "checkpoint.json"))

    unmasked = agent.random_search(env, spec.baseline_episodes,
                                   spec.seed, masked=False)
    masked = agent.random_search(env, spec.baseline_episodes,
                                 spec.seed, masked=True)

    cycles: list[DiscoveredCycle] = []
    refine = worker.WorkerBudget(*spec.refine_budget)
    for key, g in result.discovered_graphs.items():
        wres = worker.optimize_parameters(g, bc, fluid, refine,
                                          spec.seed, eta)
        if not wres.feasible:
            continue
        dec = decoder.decode(g, wres.best_params, bc, fluid, eta)
        tag = classify_cycle(g, spec.mode, dec)
        cycles.append(DiscoveredCycle(key, wres.best_performance,
                                      wres.best_params, tag,
                                      _edges_text(g), g))
    cycles.sort(key=lambda c: -c.performance)

    report = ExperimentReport(cycles, result.valid_rate, unmasked, masked,
                              result.log)
    export_report_csv(report, os.path.join(out_dir, "report.csv"))
    export_baseline_csv(report, os.path.join(out_dir, "baseline.csv"))
    dot_dir = os.path.join(out_dir, "dot")
    os.makedirs(dot_dir, exist_ok=True)
    for rank, cyc in enumerate(report.cycles, start=1):
        with open(os.path.join(dot_dir, f"cycle_{rank:02d}.dot"), "w") as fh:
            fh.write(grammar.export_dot(cyc.graph))
    return report


def export_report_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rank", "canonical_key", "performance", "class",
                     "edges", "params"])
        for rank, c in enumerate(report.cycles, start=1):
            params = ";".join(f"{k}={v:.8f}"
                              for k, v in sorted(c.params.items()))
            wr.writerow([rank, c.key, f"{c.performance:.10f}", c.tag,
                         c.edges, params])


def export_baseline_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["variant", "episodes", "n_valid", "valid_rate"])
        wr.writerow(["agent", len(report.log),
                     sum(r.valid for r in report.log),
                     f"{report.valid_rate:.6f}"])
        for name, st in (("random_unmasked", report.baseline_unmasked),
                         ("random_masked", report.baseline_masked)):
            wr.writerow([name, st.episodes, st.n_valid,
                         f"{st.valid_rate:.6f}"])


# -- oracle verification ------------------------------------------------

@dataclass
class DiffReport:
    oracle_keys: set[str]
    discovered_keys: set[str]

    @property
    def missing(self) -> set[str]:
        return self.oracle_keys - self.discovered_keys

    @property
    def extra(self) -> set[str]:
        return self.discovered_keys - self.oracle_keys

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def oracle_keys(spec: CaseSpec,
                cache: worker.WorkerCache | None = None) -> set[str]:
    """Exhaustive physically-feasible canonical keys for a roster."""
    bc = spec.boundary_conditions()
    fluid = spec.make_fluid()
    eta = spec.eta()
    cache = cache if cache is not None else worker.WorkerCache()
    budget = worker.WorkerBudget(*spec.worker_budget)

    def feasible(g: grammar.CycleGraph) -> bool:
        return worker.optimize_parameters(g, bc, fluid, budget, spec.seed,
                                          eta, cache).feasible

    keys = grammar.enumerate_valid(spec.components, spec.t_max,
                                   physical_filter=feasible)
    return {k.hex() for k in keys}


def verify_against_oracle(spec: CaseSpec,
                          discovered: dict[str, float],
                          cache: worker.WorkerCache | None = None) -> DiffReport:
    return DiffReport(oracle_keys(spec, cache), set(discovered))
