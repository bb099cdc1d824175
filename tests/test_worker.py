"""GP regression, UCB search loop, parameter optimization and cache."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import qmc

import cyclesynth
from cyclesynth import decoder, grammar, harness, worker
from cyclesynth.fluids import AnalyticFluid
from cyclesynth.worker import (
    N_ACQ_REFINE, N_ACQ_STARTS, GpModel, WorkerBudget, WorkerCache, gp_fit,
    gp_predict, maximize, optimize_parameters, propose_next, ucb,
)

HE_BC = decoder.BoundaryConditions("heat_engine", 600.0, 300.0)
IDEAL = decoder.Efficiencies(1.0, 1.0, 1.0, 1.0)


def _brayton():
    g = grammar.new_graph({"compressor": 1, "heater": 1, "turbine": 1,
                           "cooler": 1})
    idx = {g.label(i): i for i in range(len(g))}
    for a, b in [("CP#1", "HT#1"), ("HT#1", "TB#1"), ("TB#1", "CL#1"),
                 ("CL#1", "CP#1")]:
        g = grammar.apply_action(g, (idx[a], idx[b]))
    return g


# -- Gaussian process ---------------------------------------------------

def test_gp_empty_fit_returns_prior():
    model = gp_fit(np.empty((0, 1)), np.empty(0))
    mu, sigma = gp_predict(model, np.array([[0.3], [0.8]]))
    assert np.allclose(mu, 0.0)
    assert np.allclose(sigma, model.sigma_f)


def test_gp_single_point_posterior():
    model = gp_fit(np.array([[0.5]]), np.array([2.0]))
    mu, sigma = gp_predict(model, np.array([[0.5]]))
    assert mu[0] == pytest.approx(2.0, abs=1e-6)
    assert sigma[0] <= np.sqrt(model.jitter) * 1.01


def test_gp_symmetric_points_cancel_at_midpoint():
    model = gp_fit(np.array([[0.25], [0.75]]), np.array([1.0, -1.0]))
    mu, _ = gp_predict(model, np.array([[0.5]]))
    assert mu[0] == pytest.approx(0.0, abs=1e-10)


def test_gp_interpolates_noiseless_data():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(20, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
    model = gp_fit(x, y)
    mu, sigma = gp_predict(model, x)
    assert np.max(np.abs(mu - y)) < 1e-6
    assert np.all(sigma < 1e-3)


def test_gp_variance_never_exceeds_prior():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(10, 1))
    y = rng.normal(size=10)
    model = gp_fit(x, y)
    _, sigma = gp_predict(model, rng.uniform(0, 1, size=(50, 1)))
    assert np.all(sigma ** 2 <= model.sigma_f ** 2 + model.jitter + 1e-12)


def test_ucb_is_mean_plus_kappa_sigma():
    model = gp_fit(np.array([[0.2], [0.9]]), np.array([0.5, 1.5]))
    xq = np.array([[0.4], [0.6]])
    mu, sigma = gp_predict(model, xq)
    assert np.allclose(ucb(model, xq), mu + 2.0 * sigma)
    assert np.allclose(ucb(model, xq, kappa=0.0), mu)


def _dense_predict(model, xq):
    """GP posterior from general solves on K + jitter*I, no Cholesky."""
    n = len(model.x)
    k = (worker._kernel(model.x, model.x, model.sigma_f, model.lengthscale)
         + model.jitter * np.eye(n))
    ks = worker._kernel(xq, model.x, model.sigma_f, model.lengthscale)
    mu = model.mean + ks @ np.linalg.solve(k, model.y - model.mean)
    var = model.sigma_f ** 2 - np.einsum(
        "ij,ji->i", ks, np.linalg.solve(k, ks.T))
    return mu, var


@pytest.mark.parametrize("dim,scale", [(4, 1.0), (6, 1.0),
                                       (4, 1e5), (6, 1e5)])
def test_gp_matches_dense_solve_at_300_points(dim, scale):
    # n = 300 is a (100, 200) budget.  A third of the points repeat
    # earlier ones with the same value, as a deterministic objective
    # gives when the acquisition re-proposes a point.  At the 1e5 scale
    # the Cholesky of K + JITTER_MIN*I fails and the jitter escalates.
    # Below 4 dimensions 300 points crowd the box, K's condition number
    # passes 1e9 and two float64 solves agree to about 1e-8 only.
    rng = np.random.default_rng(dim)
    x = rng.uniform(0.0, 1.0, size=(300, dim))
    x[200:] = x[:100]
    y = scale * (np.sin(4.0 * x).sum(axis=1)
                 + 0.05 * np.cos(40.0 * x).sum(axis=1))
    model = gp_fit(x, y)
    assert (model.jitter > worker.JITTER_MIN) == (scale > 1.0)
    xq = np.vstack([rng.uniform(0.0, 1.0, size=(200, dim)), x[:50]])
    mu, sigma = gp_predict(model, xq)
    mu_ref, var_ref = _dense_predict(model, xq)
    sf = model.sigma_f
    np.testing.assert_allclose(mu, mu_ref, rtol=0.0, atol=1e-9 * sf)
    # the variance, not its square root: where the variance is a few
    # ulps of sigma_f**2 the root turns rounding into ~3e-8 * sigma_f
    np.testing.assert_allclose(sigma ** 2, np.clip(var_ref, 0.0, None),
                               rtol=0.0, atol=1e-9 * sf ** 2)
    if scale == 1.0:
        np.testing.assert_allclose(
            sigma, np.sqrt(np.clip(var_ref, 0.0, None)),
            rtol=0.0, atol=1e-9 * sf)


def test_gp_predict_row_does_not_depend_on_its_batch():
    # a speculative sweep scores from 1 to N_ACQ_REFINE * 2 * dim rows
    # per call and must score each exactly as a call of its own would
    rng = np.random.default_rng(8)
    for dim, n in [(1, 7), (2, 40), (3, 120), (6, 300), (9, 150)]:
        model = gp_fit(rng.uniform(0, 1, size=(n, dim)), rng.normal(size=n))
        xq = rng.uniform(0, 1, size=(N_ACQ_REFINE * 2 * dim, dim))
        alone = [gp_predict(model, xq[k:k + 1]) for k in range(len(xq))]
        mu_1 = np.array([mu[0] for mu, _ in alone])
        sigma_1 = np.array([sigma[0] for _, sigma in alone])
        for n_q in range(1, len(xq) + 1):
            mu, sigma = gp_predict(model, xq[:n_q])
            np.testing.assert_array_equal(mu, mu_1[:n_q])
            np.testing.assert_array_equal(sigma, sigma_1[:n_q])


def _reference_kernel(a, b, sigma_f, ell):
    """The kernel as first written: one broadcast (len(a), len(b), dim)."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return sigma_f ** 2 * np.exp(-0.5 * d2 / ell ** 2)


def _reference_predict(model, xq):
    """gp_predict as first written: solve_triangular and np.clip."""
    n_q = len(xq)
    xq = np.vstack([xq, np.zeros((-n_q % worker.PREDICT_BLOCK,
                                  xq.shape[1]))])
    ks = _reference_kernel(xq, model.x, model.sigma_f, model.lengthscale)
    mu = model.mean + ks @ model.alpha
    v = solve_triangular(model.chol, ks.T, lower=True, check_finite=False)
    var = model.sigma_f ** 2 - (v ** 2).sum(axis=0)
    return mu[:n_q], np.sqrt(np.clip(var[:n_q], 0.0, None))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 9), n=st.integers(1, 150), repeats=st.booleans(),
       log_scale=st.floats(-3.0, 5.0),
       n_q=st.sampled_from([1, 3, 8, 9, 256]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=3, n=150, repeats=True, log_scale=5.0, n_q=9, seed=5)
def test_gp_predict_is_bit_identical_to_reference(dim, n, repeats,
                                                  log_scale, n_q, seed):
    # dims 8 and 9 take the kernel's broadcast branch; repeated points
    # with equal values make gp_fit escalate its jitter from y ~ 1e4 on
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, dim))
    if repeats:
        x[n // 2:] = x[:n - n // 2]
    y = 10.0 ** log_scale * (np.sin(5.0 * x).sum(axis=1) + x[:, 0] ** 2)
    model = gp_fit(x, y)
    xq = rng.uniform(0.0, 1.0, size=(n_q, dim))
    for a, b in ((x, x), (xq, x)):
        np.testing.assert_array_equal(
            worker._kernel(a, b, model.sigma_f, model.lengthscale),
            _reference_kernel(a, b, model.sigma_f, model.lengthscale))
    mu, sigma = gp_predict(model, xq)
    mu_ref, sigma_ref = _reference_predict(model, xq)
    np.testing.assert_array_equal(mu, mu_ref)
    np.testing.assert_array_equal(sigma, sigma_ref)


def test_gp_predict_escalated_example_takes_the_jitter_path():
    # the @example above must reach the jitter escalation it stands for
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(150, 3))
    x[75:] = x[:75]
    model = gp_fit(x, 1e5 * (np.sin(5.0 * x).sum(axis=1) + x[:, 0] ** 2))
    assert model.jitter > worker.JITTER_MIN


def test_gp_predict_raises_on_singular_factor():
    # dtrtrs reports a zero on the factor's diagonal through info only
    x = np.array([[0.2, 0.4], [0.7, 0.1]])
    model = GpModel(x, np.array([1.0, 2.0]), 1.0, worker.LENGTHSCALE,
                    worker.JITTER_MIN, np.array([[1.0, 0.0], [0.3, 0.0]]),
                    np.zeros(2), 1.5)
    with pytest.raises(np.linalg.LinAlgError):
        gp_predict(model, np.array([[0.5, 0.5]]))


# -- acquisition ---------------------------------------------------------

def _propose_next_reference(model, dim, rng, tally=None):
    """One coordinate descent after another, one `ucb` call per point.

    With a list as `tally`, appends per start the number of moves tried
    and of speculative-sweep calls: one per accepted move, plus one per
    sweep whose last move gained nothing.
    """
    sob = qmc.Sobol(dim, scramble=True, seed=rng)
    cands = sob.random(N_ACQ_STARTS)
    scores = ucb(model, cands)
    order = np.argsort(-scores, kind="stable")[:N_ACQ_REFINE]
    best_x, best_s = None, -np.inf
    for k in order:
        x = cands[k].copy()
        s = float(scores[k])
        step = 0.1
        n_tried = n_calls = 0
        while step > 1e-3:
            improved = False
            for d in range(dim):
                for sign in (+1.0, -1.0):
                    cand = x.copy()
                    cand[d] = min(max(cand[d] + sign * step, 0.0), 1.0)
                    sc = float(ucb(model, cand[None, :])[0])
                    n_tried += 1
                    gain = sc > s
                    if gain:
                        x, s = cand, sc
                        improved = True
                        n_calls += 1
            n_calls += not gain
            if not improved:
                step *= 0.5
        if tally is not None:
            tally.append((n_tried, n_calls))
        if s > best_s:
            best_x, best_s = x, s
    return best_x


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 6), n=st.integers(1, 150),
       seed=st.integers(0, 2 ** 32 - 1), repeats=st.booleans())
def test_propose_next_matches_sequential_reference(dim, n, seed, repeats):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, dim))
    if repeats:
        x[n // 2:] = x[:n - n // 2]
    y = np.sin(5.0 * x).sum(axis=1) + (x[:, 0] > 0.5)
    model = gp_fit(x, y)
    acq_seed = int(rng.integers(2 ** 32))
    got = propose_next(model, dim, np.random.default_rng(acq_seed))
    want = _propose_next_reference(model, dim,
                                   np.random.default_rng(acq_seed))
    np.testing.assert_array_equal(got, want)


def test_propose_next_batches_every_score_through_ucb(monkeypatch):
    rows = []

    def counting_ucb(model, xq, kappa=worker.UCB_KAPPA):
        rows.append(len(xq))
        return -((xq - 0.37) ** 2).sum(axis=1)   # peak at 0.37

    rng = np.random.default_rng(4)
    model = gp_fit(rng.uniform(0, 1, size=(12, 3)), rng.normal(size=12))
    monkeypatch.setattr(worker, "ucb", counting_ucb)
    x = propose_next(model, 3, rng)
    # only the patched scores can lead the descent to their peak
    np.testing.assert_allclose(x, 0.37, atol=2e-3)
    assert rows[0] == N_ACQ_STARTS
    full = N_ACQ_REFINE * 2 * 3      # every move of every start
    assert rows[1] == full
    assert all(1 <= r <= full for r in rows[1:])


@pytest.mark.parametrize("dim,n,seed", [(1, 5, 0), (2, 30, 1), (3, 60, 2),
                                        (4, 100, 3), (6, 120, 4)])
def test_propose_next_calls_match_the_sequential_count(monkeypatch, dim, n,
                                                        seed):
    # a start's sweeps cost one call per accepted move, plus one for a
    # sweep whose last move gains nothing; all starts share each call
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, dim))
    model = gp_fit(x, np.sin(5.0 * x).sum(axis=1) + (x[:, 0] > 0.5))
    tally = []
    want = _propose_next_reference(model, dim, np.random.default_rng(seed),
                                   tally)
    calls = []

    def counting_ucb(model, xq, kappa=worker.UCB_KAPPA):
        calls.append(len(xq))
        return ucb(model, xq, kappa)

    monkeypatch.setattr(worker, "ucb", counting_ucb)
    got = propose_next(model, dim, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)
    assert len(calls) == 1 + max(c for _, c in tally)
    assert len(calls) - 1 < max(t for t, _ in tally)   # one per move


def test_propose_next_stays_in_unit_box():
    rng = np.random.default_rng(3)
    model = gp_fit(rng.uniform(0, 1, size=(8, 3)), rng.normal(size=8))
    x = propose_next(model, 3, rng)
    assert x.shape == (3,)
    assert np.all((x >= 0.0) & (x <= 1.0))


# -- generic maximize loop ----------------------------------------------

def test_maximize_finds_1d_optimum():
    best_x, best_y, hist = maximize(lambda x: -(x[0] - 0.3) ** 2, 1,
                                    WorkerBudget(20, 30), seed=0)
    assert abs(best_x[0] - 0.3) <= 0.02
    assert best_y == pytest.approx(-(best_x[0] - 0.3) ** 2)
    assert len(hist) == 50


def test_maximize_is_deterministic():
    runs = [maximize(lambda x: np.sin(5 * x[0]) - x[0] ** 2, 1,
                     WorkerBudget(8, 8), seed=7) for _ in range(2)]
    for (xa, ya, ha), (xb, yb, hb) in [(runs[0], runs[1])]:
        assert np.array_equal(xa, xb)
        assert ya == yb
        assert all(np.array_equal(p[0], q[0]) and p[1] == q[1]
                   for p, q in zip(ha, hb))


def test_maximize_monotone_in_iterations():
    def f(x):
        return -np.sum((x - 0.42) ** 2)

    short = maximize(f, 2, WorkerBudget(10, 5), seed=2)[1]
    long_ = maximize(f, 2, WorkerBudget(10, 20), seed=2)[1]
    assert long_ >= short    # same seed prefix, more iterations


def test_maximize_keeps_points_in_bounds():
    _x, _y, hist = maximize(lambda x: float(np.sum(x)), 2,
                            WorkerBudget(6, 6), seed=5)
    for x, _ in hist:
        assert np.all((x >= 0.0) & (x <= 1.0))


def test_maximize_golden_bits():
    # x and y as the acquisition returned them before its kernel and
    # triangular solve were rewritten for speed: the descent's points are
    # Sobol draws plus sums of steps, so a drift in the GP's last bits
    # that flips one comparison of scores moves them and fails here
    def f(x):
        return float(np.sin(3.0 * x[0]) * np.cos(2.0 * x[1])
                     - (x[2] - 0.35) ** 2)

    x, y, hist = maximize(f, 3, WorkerBudget(6, 6), seed=11)
    assert [float(v).hex() for v in x] == [
        "0x1.0307ae0b33332p-1", "0x1.6666666666667p-5",
        "0x1.4fdd2de000000p-2"]
    assert float(y).hex() == "0x1.fd13706525d02p-1"
    # the best point is one the acquisition proposed, not a Sobol start
    assert [k for k, (_, yk) in enumerate(hist) if yk == y] == [8]


# -- end-to-end parameter optimization ----------------------------------

def test_optimize_parameters_brayton():
    res = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                              WorkerBudget(10, 10), seed=0, eta=IDEAL)
    assert res.feasible
    assert res.best_performance > 0.1
    assert not res.cache_hit
    assert res.n_evals == 20
    assert set(res.best_params) == {"p_suc_CP#1", "p_dis_CP#1"}
    space = {s.name: s for s in
             decoder.CycleSystem(_brayton(), HE_BC).parameter_space()}
    for name, val in res.best_params.items():
        assert space[name].lo <= val <= space[name].hi


def test_optimize_parameters_deterministic():
    a = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                            WorkerBudget(6, 6), seed=3, eta=IDEAL)
    b = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                            WorkerBudget(6, 6), seed=3, eta=IDEAL)
    assert a.best_performance == b.best_performance
    assert a.best_params == b.best_params


def test_infeasible_structure_reports_penalty():
    # compressor feeding the turbine directly cannot produce net work
    g = grammar.new_graph({"compressor": 1, "heater": 1, "turbine": 1,
                           "cooler": 1})
    idx = {g.label(i): i for i in range(len(g))}
    for a, b in [("CP#1", "TB#1"), ("TB#1", "HT#1"), ("HT#1", "CL#1"),
                 ("CL#1", "CP#1")]:
        g = grammar.apply_action(g, (idx[a], idx[b]))
    res = optimize_parameters(g, HE_BC, AnalyticFluid(),
                              WorkerBudget(5, 5), seed=0)
    assert not res.feasible
    assert res.best_performance == worker.PENALTY


def test_penalized_objective_agrees_with_decode():
    # the benchmark's three heat pumps and desk_he_small's simple Brayton
    cases = [("hp_case1", "CP#1>GC#1;GC#1>EV#1;EV#1>EVAP#1;EVAP#1>CP#1"),
             ("hp_case1", "CP#1>GC#1;GC#1>TB#1;TB#1>EVAP#1;EVAP#1>CP#1"),
             ("hp_case1", "CP#1>GC#1;GC#1>r#1;r#1>TB#1;TB#1>EVAP#1;"
                          "EVAP#1>R#1;R#1>CP#1"),
             ("desk_he_small", "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")]
    configs = os.path.join(os.path.dirname(harness.__file__), "configs")
    n_feasible = n_infeasible = 0
    for case, edges in cases:
        spec = harness.load_config(os.path.join(configs, f"{case}.yaml"))
        g = harness.build_graph(spec.components, edges)
        bc, fluid, eta = (spec.boundary_conditions(), spec.make_fluid(),
                          spec.eta())
        system = decoder.CycleSystem(g, bc, fluid, eta)
        specs = system.parameter_space()
        evaluate = worker.penalized_objective(system, specs)
        for x in qmc.Sobol(len(specs), scramble=True, seed=7).random(32):
            obj, feas, perf, params = evaluate(x)
            assert params == {s.name: s.lo + float(xi) * (s.hi - s.lo)
                              for xi, s in zip(x, specs)}
            res = decoder.decode(g, params, bc, fluid, eta)
            if res.feasible:
                n_feasible += 1
                assert (obj, feas, perf) == (res.performance, True,
                                             res.performance)
            else:
                n_infeasible += 1
                assert (obj, feas, perf) == (worker.PENALTY, False, 0.0)
    assert n_feasible and n_infeasible


def test_reversed_pressure_points_skip_the_solve(monkeypatch):
    # the benchmark's three heat pumps, at Sobol points with some
    # coordinates clamped to 0 or 1, so that pinned pressures also tie
    configs = os.path.join(os.path.dirname(harness.__file__), "configs")
    spec = harness.load_config(os.path.join(configs, "hp_case1.yaml"))
    bc, fluid, eta = spec.boundary_conditions(), spec.make_fluid(), spec.eta()
    solves = []
    full_evaluate = decoder.evaluate

    def counting_evaluate(*args, **kwargs):
        solves.append(1)
        return full_evaluate(*args, **kwargs)

    monkeypatch.setattr(decoder, "evaluate", counting_evaluate)
    n_skipped = n_tied = 0
    for edges in ("CP#1>GC#1;GC#1>EV#1;EV#1>EVAP#1;EVAP#1>CP#1",
                  "CP#1>GC#1;GC#1>TB#1;TB#1>EVAP#1;EVAP#1>CP#1",
                  "CP#1>GC#1;GC#1>r#1;r#1>TB#1;TB#1>EVAP#1;"
                  "EVAP#1>R#1;R#1>CP#1"):
        g = harness.build_graph(spec.components, edges)
        system = decoder.CycleSystem(g, bc, fluid, eta)
        specs = system.parameter_space()
        evaluate = worker.penalized_objective(system, specs)
        xs = qmc.Sobol(len(specs), scramble=True, seed=3).random(64)
        xs[16:32] = np.round(xs[16:32])
        xs[32:40, :2] = 1.0
        xs[40:48, :2] = 0.0
        for x in xs:
            solves.clear()
            obj, feas, perf, params = evaluate(x)
            skipped = not solves
            tied = params["p_suc_CP#1"] == params["p_dis_CP#1"]
            res = decoder.decode(g, params, bc, fluid, eta)
            if skipped:
                n_skipped += 1
                assert not res.feasible
                assert not tied
            n_tied += tied
            want = ((res.performance, True, res.performance) if res.feasible
                    else (worker.PENALTY, False, 0.0))
            assert (obj, feas, perf) == want
    assert n_skipped >= 48 and n_tied >= 48


def test_cache_hit_skips_evaluation(tmp_path):
    cache = WorkerCache(tmp_path / "cache.jsonl")
    first = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                                WorkerBudget(5, 5), seed=0, eta=IDEAL,
                                cache=cache)
    calls = []

    class CountingFluid(AnalyticFluid):
        def ph_to_tsq(self, p, h):
            calls.append(1)
            return super().ph_to_tsq(p, h)

    second = optimize_parameters(_brayton(), HE_BC, CountingFluid(),
                                 WorkerBudget(5, 5), seed=0, eta=IDEAL,
                                 cache=cache)
    assert second.cache_hit
    assert not calls                     # zero new decodes
    assert second.best_performance == first.best_performance


def test_cache_key_includes_boundary_conditions():
    cache = WorkerCache()
    g = _brayton()
    k1 = WorkerCache.key_for(g, HE_BC)
    k2 = WorkerCache.key_for(
        g, decoder.BoundaryConditions("heat_engine", 600.0, 320.0))
    assert k1 != k2
    assert len(cache) == 0


def test_cache_persistence_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = WorkerCache(path)
    res = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                              WorkerBudget(4, 4), seed=1, eta=IDEAL,
                              cache=cache)
    reloaded = WorkerCache(path)
    hit = reloaded.get(_brayton(), HE_BC, IDEAL, WorkerBudget(4, 4), 1)
    assert hit is not None
    assert hit.best_performance == res.best_performance
    assert hit.best_params == res.best_params
    assert reloaded.get(_brayton(), HE_BC) is None    # other settings


def test_cache_key_includes_search_settings():
    g = _brayton()
    base = WorkerCache.key_for(g, HE_BC, IDEAL, WorkerBudget(8, 8), 0)
    others = [
        WorkerCache.key_for(g, HE_BC, decoder.Efficiencies(0.8, 0.8),
                            WorkerBudget(8, 8), 0),
        WorkerCache.key_for(g, HE_BC, IDEAL, WorkerBudget(8, 9), 0),
        WorkerCache.key_for(g, HE_BC, IDEAL, WorkerBudget(9, 8), 0),
        WorkerCache.key_for(g, HE_BC, IDEAL, WorkerBudget(8, 8), 1),
    ]
    assert len({base, *others}) == 5
    # None stands for the defaults optimize_parameters applies
    assert WorkerCache.key_for(g, HE_BC) == WorkerCache.key_for(
        g, HE_BC, decoder.Efficiencies(), WorkerBudget(), 0)


def test_cache_file_does_not_serve_other_efficiencies(tmp_path):
    spec = harness.load_config(os.path.join(
        os.path.dirname(cyclesynth.__file__), "configs", "desk_he_small.yaml"))
    g = harness.build_graph(spec.components,
                            "CP#1>HT#1;HT#1>TB#1;TB#1>CL#1;CL#1>CP#1")
    bc = spec.boundary_conditions()
    budget = WorkerBudget(8, 8)
    path = tmp_path / "worker_cache.jsonl"
    lossy = optimize_parameters(g, bc, spec.make_fluid(), budget, 0,
                                decoder.Efficiencies(0.8, 0.8),
                                WorkerCache(path))
    ideal = decoder.Efficiencies(1.0, 1.0)
    reused = optimize_parameters(g, bc, spec.make_fluid(), budget, 0,
                                 ideal, WorkerCache(path))
    fresh = optimize_parameters(g, bc, spec.make_fluid(), budget, 0, ideal)
    assert not reused.cache_hit
    assert reused.best_performance == fresh.best_performance
    assert fresh.best_performance > lossy.best_performance + 0.3
    again = optimize_parameters(g, bc, spec.make_fluid(), budget, 0,
                                ideal, WorkerCache(path))
    assert again.cache_hit
    assert again.best_performance == fresh.best_performance


def test_cache_relabel_invariant():
    roster = {"compressor": 2, "heater": 1, "turbine": 1, "cooler": 1}

    def build(cp):
        g = grammar.new_graph(roster)
        idx = {g.label(i): i for i in range(len(g))}
        for a, b in [(cp, "HT#1"), ("HT#1", "TB#1"), ("TB#1", "CL#1"),
                     ("CL#1", cp)]:
            g = grammar.apply_action(g, (idx[a], idx[b]))
        return g

    assert WorkerCache.key_for(build("CP#1"), HE_BC) \
        == WorkerCache.key_for(build("CP#2"), HE_BC)


def test_export_evaluations_csv(tmp_path):
    res = optimize_parameters(_brayton(), HE_BC, AnalyticFluid(),
                              WorkerBudget(4, 4), seed=0, eta=IDEAL)
    path = tmp_path / "evals.csv"
    worker.export_evaluations_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("index,objective")
    assert len(lines) == 1 + res.n_evals


_PIN_PROBE = """
import ctypes, json
from cyclesynth import worker

def threads(path):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)()

paths = worker.pin_solver_threads()
print(json.dumps([threads(p) for p in paths]))
"""


def _pin_in_fresh_process(**blas_env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(worker.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in worker.BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_pin_solver_threads_sets_scipy_openblas_to_one_thread():
    assert _pin_in_fresh_process() == [1]
    # a thread count the user set is left to OpenBLAS
    assert _pin_in_fresh_process(OPENBLAS_NUM_THREADS="3") == []
