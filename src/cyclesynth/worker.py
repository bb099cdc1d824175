"""Continuous parameter search: GP surrogate with an upper-confidence rule.

The Worker receives a structure, derives its continuous decision
variables, and maximizes decoded performance inside the unit box via
exact Gaussian-process regression and UCB acquisition.  Infeasible
evaluations feed a fixed penalty back into the GP so the search is
steered away from, but still informed by, failed regions.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtrs

from . import decoder, grammar, sobol
from .seeding import substream

PENALTY = -1.0            # objective value assigned to infeasible points
UCB_KAPPA = 2.0
LENGTHSCALE = 0.2         # per-dimension, in normalized coordinates
JITTER_MIN = 1e-8
JITTER_MAX = 1e-2
N_ACQ_STARTS = 256
N_ACQ_REFINE = 8
PREDICT_BLOCK = N_ACQ_REFINE   # rows per BLAS call in gp_predict
PAIRWISE_MIN = 8          # numpy sums this many terms or more pairwise


@dataclass(frozen=True)
class WorkerBudget:
    n_init: int = 20
    n_iter: int = 40


@dataclass
class GpModel:
    """Exact GP regression with a squared-exponential kernel."""

    x: np.ndarray
    y: np.ndarray
    sigma_f: float
    lengthscale: float
    jitter: float
    chol: np.ndarray
    alpha: np.ndarray
    mean: float = 0.0


def _kernel(a: np.ndarray, b: np.ndarray, sigma_f: float,
            ell: float) -> np.ndarray:
    """Squared-exponential kernel between the rows of a and of b.

    Below PAIRWISE_MIN coordinates the squared distances are summed one
    coordinate at a time into one (len(a), len(b)) array: zero, then
    each coordinate's square, from left to right.  That is the order in
    which numpy reduces `((a[:, None] - b[None]) ** 2).sum(axis=-1)` over
    so short a last axis, so each entry is the same to the bit, without
    the (len(a), len(b), dim) temporary, its squaring and its reduction
    over a short axis, which made up about half of a `gp_predict` call.
    From PAIRWISE_MIN terms on numpy sums pairwise, in eight partial
    sums, so wider inputs keep the broadcast form.
    """
    if a.shape[1] >= PAIRWISE_MIN:
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    else:
        bt = b.T
        d2 = np.zeros((len(a), len(b)))
        for j in range(a.shape[1]):
            d = a[:, j:j + 1] - bt[j]
            d *= d
            d2 += d
    return sigma_f ** 2 * np.exp(-0.5 * d2 / ell ** 2)


def gp_fit(x: np.ndarray, y: np.ndarray,
           lengthscale: float = LENGTHSCALE) -> GpModel:
    """Fit on points in the unit box; escalates jitter until Cholesky works.

    With no data the prior is returned: zero mean, sigma_f everywhere.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        return GpModel(np.empty((0, x.shape[1] if x.size else 1)), y, 1.0,
                       lengthscale, JITTER_MIN, np.empty((0, 0)),
                       np.empty(0), 0.0)
    sigma_f = float(np.std(y))
    if sigma_f < 1e-12:
        sigma_f = 1.0
    k = _kernel(x, x, sigma_f, lengthscale)
    jitter = JITTER_MIN
    while True:
        try:
            chol = np.linalg.cholesky(k + jitter * np.eye(len(x)))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_MAX:
                raise
    mean = float(np.mean(y))
    alpha = cho_solve((chol, True), y - mean, check_finite=False)
    return GpModel(x, y, sigma_f, lengthscale, jitter, chol, alpha, mean)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_solver_threads() -> list[str]:
    """Run scipy's bundled OpenBLAS on one thread; return the libraries set.

    The GP's triangular solves go through scipy's OpenBLAS, on matrices a
    few dozen rows wide, where threads make a call stall at random on a
    shared machine (0.015 ms a call on one thread, up to 3 ms on two).
    numpy bundles its own OpenBLAS, whose large products in surrogate
    training run about a third faster on two threads, so it is left
    alone; OPENBLAS_NUM_THREADS=1 would pin both.  Nothing is changed when
    a thread count is set in the environment, or when scipy bundles no
    OpenBLAS.
    """
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return []
    root = os.path.dirname(scipy.__file__)
    pinned = []
    for path in sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads",
                     "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned.append(path)
                break
    return pinned


def gp_predict(model: GpModel, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation at the rows of xq.

    The rows are padded to a multiple of PREDICT_BLOCK, so a call of up
    to PREDICT_BLOCK rows always runs the same BLAS shapes.  BLAS orders
    its arithmetic by the shapes and keeps rows apart, so each row's
    result is the same, bit for bit, whichever rows share its call;
    unpadded, a one-row solve and an eight-row solve differ in the last
    bits, enough to flip a comparison in `propose_next`.

    The triangular solve calls LAPACK's `dtrtrs` directly, with the
    arguments `scipy.linalg.solve_triangular` passes it for a C-ordered
    lower factor: the factor's transpose (a Fortran-ordered view, not a
    copy) as an upper factor, with trans=1.  It is the same routine on
    the same data, so the result is the same to the bit, but the call
    skips the wrapper's argument checks and dispatch: 0.013 ms against
    0.021 ms for a 119-point factor and eight rows, on one Xeon core.
    `pin_solver_threads` pins the scipy OpenBLAS behind it to one thread.
    """
    xq = np.atleast_2d(np.asarray(xq, dtype=float))
    n_q = len(xq)
    if model.y.size == 0:
        return np.full(n_q, model.mean), np.full(n_q, model.sigma_f)
    if n_q % PREDICT_BLOCK:
        xq = np.vstack([xq, np.zeros((-n_q % PREDICT_BLOCK, xq.shape[1]))])
    ks = _kernel(xq, model.x, model.sigma_f, model.lengthscale)
    mu = model.mean + ks @ model.alpha
    v, info = dtrtrs(model.chol.T, ks.T, lower=0, trans=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"triangular solve failed: dtrtrs info={info}")
    var = model.sigma_f ** 2 - (v ** 2).sum(axis=0)
    return mu[:n_q], np.sqrt(np.maximum(var[:n_q], 0.0))


def ucb(model: GpModel, xq: np.ndarray,
        kappa: float = UCB_KAPPA) -> np.ndarray:
    mu, sigma = gp_predict(model, xq)
    return mu + kappa * sigma


def propose_next(model: GpModel, dim: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Maximize the acquisition: Sobol multistart plus coordinate descent.

    The best N_ACQ_REFINE of N_ACQ_STARTS Sobol points each start a
    greedy coordinate descent: a sweep tries +step and -step on every
    coordinate in turn and keeps each move that raises the score; a
    sweep without a gain halves the step, and the descent stops once the
    step is at most 1e-3.  All sweeps visit the same (coordinate, sign)
    moves in the same order, so the descents run in lockstep: each move
    scores every live start in one batched `ucb` call.  The winner is
    the first start, in Sobol-score order, with the highest final score,
    the point a one-start-at-a-time descent would return.
    """
    sob = sobol.Sobol(dim, rng)
    cands = sob.random(N_ACQ_STARTS)
    scores = ucb(model, cands)
    order = np.argsort(-scores, kind="stable")[:N_ACQ_REFINE]
    xs, ss = cands[order], scores[order]
    steps = np.full(len(order), 0.1)
    live = np.arange(len(order))
    while live.size:
        improved = np.zeros(live.size, dtype=bool)
        moves = (steps[live], -steps[live])
        for d in range(dim):
            for move in moves:
                cand = xs[live]
                col = cand[:, d]
                col += move
                np.minimum(np.maximum(col, 0.0, out=col), 1.0, out=col)
                sc = ucb(model, cand)
                up = sc > ss[live]
                xs[live[up]] = cand[up]
                ss[live[up]] = sc[up]
                improved |= up
        steps[live[~improved]] *= 0.5
        live = live[steps[live] > 1e-3]
    return xs[int(np.argmax(ss))]   # argmax keeps the first of equal maxima


@dataclass
class Evaluation:
    index: int
    x: np.ndarray
    params: dict[str, float]
    objective: float
    feasible: bool
    performance: float


@dataclass
class WorkerResult:
    best_params: dict[str, float]
    best_performance: float
    feasible: bool
    n_evals: int
    history: list[Evaluation] = field(default_factory=list)
    cache_hit: bool = False


def maximize(objective, dim: int, budget: WorkerBudget, seed: int,
             tag: str = "worker") -> tuple[np.ndarray, float, list]:
    """Generic UCB loop; objective maps the unit box to a scalar."""
    rng = substream(seed, tag, "init")
    acq_rng = substream(seed, tag, "acq")
    sob = sobol.Sobol(dim, rng)
    xs = [sob.random(1)[0] for _ in range(budget.n_init)]
    ys = [float(objective(x)) for x in xs]
    for _ in range(budget.n_iter):
        model = gp_fit(np.array(xs), np.array(ys))
        x_next = propose_next(model, dim, acq_rng)
        xs.append(x_next)
        ys.append(float(objective(x_next)))
    k = int(np.argmax(ys))
    return xs[k], ys[k], list(zip(xs, ys))


def _denorm(x: np.ndarray, specs: list[decoder.ParamSpec]) -> dict[str, float]:
    return {s.name: s.lo + float(xi) * (s.hi - s.lo)
            for xi, s in zip(x, specs)}


def penalized_objective(system: decoder.CycleSystem,
                        specs: list[decoder.ParamSpec]):
    """Decoded performance with a fixed penalty for infeasible points.

    A point whose pinned pressures are reversed is infeasible without a
    solve (see `decoder.pins_reversed`), so it is not solved.
    """

    def evaluate(x: np.ndarray) -> tuple[float, bool, float, dict[str, float]]:
        params = _denorm(x, specs)
        if decoder.pins_reversed(system, params):
            return PENALTY, False, 0.0, params
        res = decoder.evaluate(system, params)
        if not res.feasible:
            return PENALTY, False, 0.0, params
        return res.performance, True, res.performance, params

    return evaluate


def optimize_parameters(graph: grammar.CycleGraph,
                        bc: decoder.BoundaryConditions,
                        fluid=None,
                        budget: WorkerBudget | None = None,
                        seed: int = 0,
                        eta: decoder.Efficiencies | None = None,
                        cache: "WorkerCache | None" = None) -> WorkerResult:
    """Best continuous parameters for one structure, cached by shape.

    The cache key holds the settings the result depends on: boundary
    conditions, machine efficiencies, budget and seed (see WorkerCache).
    """
    budget = budget or WorkerBudget()
    settings = (eta, budget, seed)
    if cache is not None:
        hit = cache.get(graph, bc, *settings)
        if hit is not None:
            hit.cache_hit = True
            return hit
    result = _optimize_uncached(graph, bc, fluid, budget, seed, eta)
    if cache is not None:
        cache.put(graph, bc, result, *settings)
    return result


def _optimize_uncached(graph: grammar.CycleGraph,
                       bc: decoder.BoundaryConditions, fluid,
                       budget: WorkerBudget, seed: int,
                       eta: decoder.Efficiencies | None) -> WorkerResult:
    """The uncached Worker pass behind optimize_parameters."""
    try:
        system = decoder.CycleSystem(graph, bc, fluid, eta)
    except decoder.DecodeError:
        return WorkerResult({}, PENALTY, False, 0)
    specs = system.parameter_space()
    evaluate = penalized_objective(system, specs)
    history: list[Evaluation] = []

    if not specs:
        obj, feas, perf, params = evaluate(np.empty(0))
        return WorkerResult(params, perf if feas else PENALTY, feas, 1)

    def objective(x: np.ndarray) -> float:
        obj, feas, perf, params = evaluate(x)
        history.append(Evaluation(len(history), x.copy(), params,
                                  obj, feas, perf))
        return obj

    maximize(objective, len(specs), budget, seed)
    feas_evals = [e for e in history if e.feasible]
    if feas_evals:
        best = max(feas_evals, key=lambda e: e.performance)
        return WorkerResult(best.params, best.performance, True,
                            len(history), history)
    return WorkerResult({}, PENALTY, False, len(history), history)


def export_evaluations_csv(result: WorkerResult, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["index", "objective", "feasible", "performance",
                     "params_json"])
        for e in result.history:
            wr.writerow([e.index, f"{e.objective:.10f}", int(e.feasible),
                         f"{e.performance:.10f}", json.dumps(e.params)])


class WorkerCache:
    """Keyed by canonical structure plus the settings of the search.

    The settings are the boundary conditions, the machine efficiencies,
    the Worker budget and the seed; `None` stands for the defaults that
    `optimize_parameters` applies.  The fluid is left out: a fluid
    object carries no value to key on, and a wrapped or instrumented
    fluid (a subclass that counts property calls, say) describes the
    same properties as the fluid it wraps, so it must hit the same
    entries.  Callers that change the fluid's properties use a cache of
    their own.

    Optionally persists as append-only JSON lines, so interrupted runs
    resume without re-evaluating known structures.
    """

    def __init__(self, path=None) -> None:
        self.path = path
        self._store: dict[str, WorkerResult] = {}
        if path is not None:
            try:
                with open(path) as fh:
                    for line in fh:
                        doc = json.loads(line)
                        self._store[doc["key"]] = WorkerResult(
                            doc["best_params"], doc["best_performance"],
                            doc["feasible"], doc["n_evals"])
            except FileNotFoundError:
                pass

    @staticmethod
    def key_for(graph: grammar.CycleGraph,
                bc: decoder.BoundaryConditions,
                eta: decoder.Efficiencies | None = None,
                budget: WorkerBudget | None = None,
                seed: int = 0) -> str:
        eta = eta or decoder.Efficiencies()
        budget = budget or WorkerBudget()
        return (f"{grammar.canonical_hex(graph)}|{bc.mode}"
                f"|{bc.t_source:.6f}|{bc.t_sink:.6f}|{bc.dt_approach:.6f}"
                f"|{bc.p_lo:.6f}|{bc.p_hi:.6f}"
                f"|eta={eta.compressor:.6f},{eta.turbine:.6f}"
                f",{eta.nozzle:.6f},{eta.diffuser:.6f}"
                f"|budget={budget.n_init},{budget.n_iter}|seed={seed}")

    def __len__(self) -> int:
        return len(self._store)

    def get(self, graph, bc, eta=None, budget=None,
            seed: int = 0) -> WorkerResult | None:
        return self._store.get(self.key_for(graph, bc, eta, budget, seed))

    def put(self, graph, bc, result: WorkerResult, eta=None, budget=None,
            seed: int = 0) -> None:
        key = self.key_for(graph, bc, eta, budget, seed)
        if key in self._store:
            return
        self._store[key] = result
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(json.dumps({
                    "key": key,
                    "best_params": result.best_params,
                    "best_performance": result.best_performance,
                    "feasible": result.feasible,
                    "n_evals": result.n_evals,
                }) + "\n")
