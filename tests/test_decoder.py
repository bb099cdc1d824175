"""State-point solver: assembly counting, closed forms, conservation."""

import math
import os

import numpy as np
import pytest

from cyclesynth import decoder, grammar, harness
from cyclesynth.decoder import (
    BoundaryConditions, CycleSystem, DecodeError, Efficiencies,
    STATUS_CONVERGED, STATUS_NOT_CONVERGED, decode, hybrid_solve,
)
from cyclesynth.fluids import AnalyticFluid, CP_GAS, R_GAS

IDEAL = Efficiencies(1.0, 1.0, 1.0, 1.0)
HE_BC = BoundaryConditions("heat_engine", 600.0, 300.0)


@pytest.fixture(scope="module")
def fluid():
    return AnalyticFluid()


def _build(roster, *edges):
    g = grammar.new_graph(roster)
    idx = {g.label(i): i for i in range(len(g))}
    for a, b in edges:
        g = grammar.apply_action(g, (idx[a], idx[b]))
    return g


def brayton():
    return _build({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1},
                  ("CP#1", "HT#1"), ("HT#1", "TB#1"), ("TB#1", "CL#1"),
                  ("CL#1", "CP#1"))


def split_loop():
    # one heater feeding two parallel turbines that re-merge
    return _build({"compressor": 1, "turbine": 2, "heater": 1, "cooler": 1,
                   "merge": 1},
                  ("CP#1", "HT#1"), ("HT#1", "TB#1"), ("HT#1", "TB#2"),
                  ("TB#1", "M#1"), ("TB#2", "M#1"), ("M#1", "CL#1"),
                  ("CL#1", "CP#1"))


# -- hybrid_solve -------------------------------------------------------

def test_hybrid_solve_linear_system_is_immediate():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    sol = hybrid_solve(lambda x: a @ x - b, np.zeros(2))
    assert sol.status == STATUS_CONVERGED
    assert np.allclose(sol.x, np.linalg.solve(a, b), atol=1e-10)
    assert sol.fnorm == pytest.approx(0.0, abs=1e-12)
    # the trust-region loop spends a few confirming evaluations beyond
    # the initial point and finite-difference Jacobian
    assert sol.nfev <= 6 * (2 + 1)


def test_hybrid_solve_circle_line_intersection():
    sol = hybrid_solve(lambda v: np.array([v[0] ** 2 + v[1] ** 2 - 4.0,
                                           v[0] - v[1]]),
                       np.array([1.0, 1.0]))
    assert sol.status == STATUS_CONVERGED
    r = math.sqrt(2.0)
    assert np.allclose(np.abs(sol.x), [r, r], atol=1e-8)
    assert sol.x[0] == pytest.approx(sol.x[1], abs=1e-10)


def test_hybrid_solve_reports_no_root_without_nan():
    sol = hybrid_solve(lambda v: np.array([v[0] ** 2 + 1.0]),
                       np.array([3.0]))
    assert sol.status == STATUS_NOT_CONVERGED
    assert np.all(np.isfinite(sol.x))
    assert math.isfinite(sol.fnorm)


# -- assembly -----------------------------------------------------------

def test_brayton_system_is_square(fluid):
    sys_ = CycleSystem(brayton(), HE_BC, fluid)
    assert len(sys_.segments) == 2      # high and low pressure
    n = len(sys_.segments) + 2 * len(sys_.edges)
    assert n == sys_.n_unknowns == 10   # p per segment, (h, m) per edge
    params = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0}
    xs = sys_.initial_guess(params)
    assert xs.shape == (n,)
    assert sys_.residuals(xs, params).shape == (n,)


def test_brayton_parameter_space(fluid):
    sys_ = CycleSystem(brayton(), HE_BC, fluid)
    specs = sys_.parameter_space()
    assert {s.name for s in specs} == {"p_suc_CP#1", "p_dis_CP#1"}
    for spec in specs:
        assert spec.lo < spec.hi


def test_parameter_space_honors_pressure_bounds(fluid):
    bc = decoder.BoundaryConditions("heat_engine", 600.0, 300.0,
                                    p_lo=150.0, p_hi=900.0)
    for spec in CycleSystem(brayton(), bc, fluid).parameter_space():
        if spec.name.startswith("p_"):
            assert (spec.lo, spec.hi) == (150.0, 900.0)


def test_pressure_bounds_validated():
    with pytest.raises(ValueError, match="bounds"):
        decoder.BoundaryConditions("heat_engine", 600.0, 300.0,
                                   p_lo=500.0, p_hi=200.0)
    with pytest.raises(ValueError, match="bounds"):
        decoder.BoundaryConditions("heat_engine", 600.0, 300.0,
                                   p_lo=1.0, p_hi=200.0)


def test_invalid_graph_rejected(fluid):
    g = grammar.new_graph({"compressor": 1, "heater": 1})
    with pytest.raises(DecodeError):
        CycleSystem(g, HE_BC, fluid)


def test_missing_parameters_named(fluid):
    with pytest.raises(DecodeError, match="p_dis_CP#1"):
        decode(brayton(), {"p_suc_CP#1": 140.0}, HE_BC, fluid)


def test_boundary_conditions_validate():
    with pytest.raises(ValueError):
        BoundaryConditions("refrigerator", 300.0, 300.0)
    with pytest.raises(ValueError):
        BoundaryConditions("heat_pump", 300.0, 330.0, dt_approach=-1.0)


# -- closed-form Brayton ------------------------------------------------

@pytest.mark.parametrize("rp", [2.0, 3.0, 4.0])
def test_brayton_matches_closed_form(fluid, rp):
    p_suc = 140.0
    res = decode(brayton(), {"p_suc_CP#1": p_suc, "p_dis_CP#1": rp * p_suc},
                 HE_BC, fluid, IDEAL)
    assert res.status == STATUS_CONVERGED
    assert res.residual_norm <= 1e-8
    assert res.feasible, res.violations
    eta_ideal = 1.0 - rp ** (-R_GAS / CP_GAS)
    assert res.performance == pytest.approx(eta_ideal, abs=1e-6)


def test_brayton_default_efficiencies_below_ideal(fluid):
    rp = 3.0
    ideal = decode(brayton(), {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0},
                   HE_BC, fluid, IDEAL)
    real = decode(brayton(), {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0},
                  HE_BC, fluid)
    assert real.status == STATUS_CONVERGED
    assert real.performance < ideal.performance
    assert rp > 0


def test_compressor_isentropic_hand_value(fluid):
    # ideal-gas compression from 300 K over rp = 3 with eta_c = 0.8
    t_in = 300.0
    rp = 3.0
    dh_is = t_in * (rp ** (R_GAS / CP_GAS) - 1.0)
    dh = dh_is / 0.8
    assert dh == pytest.approx(86.5, abs=0.5)
    res = decode(brayton(), {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0},
                 BoundaryConditions("heat_engine", 600.0, 305.0), fluid,
                 Efficiencies(compressor=0.8, turbine=1.0))
    ports = {(r.node, r.side): r for r in res.ports}
    h_in = ports[("CP#1", "in")].h
    h_out = ports[("CP#1", "out")].h
    t1 = ports[("CP#1", "in")].T
    dh_expect = t1 * (rp ** (R_GAS / CP_GAS) - 1.0) / 0.8
    assert h_out - h_in == pytest.approx(dh_expect, abs=1e-6)


# -- solved-state invariants --------------------------------------------

def test_solved_pressures_match_pins(fluid):
    params = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0}
    res = decode(brayton(), params, HE_BC, fluid, IDEAL)
    ports = {(r.node, r.side): r for r in res.ports}
    assert ports[("CP#1", "in")].p == pytest.approx(140.0, abs=1e-6)
    assert ports[("CP#1", "out")].p == pytest.approx(560.0, abs=1e-6)
    # isobaric components keep their pressure level
    assert ports[("HT#1", "in")].p == pytest.approx(560.0, abs=1e-6)
    assert ports[("CL#1", "out")].p == pytest.approx(140.0, abs=1e-6)


def test_mass_conservation_per_node(fluid):
    params = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0, "r_HT#1": 1.0 / 3.0}
    res = decode(split_loop(), params, HE_BC, fluid, IDEAL)
    assert res.status == STATUS_CONVERGED
    flows_in = {}
    flows_out = {}
    for r in res.ports:
        (flows_in if r.side == "in" else flows_out).setdefault(
            r.node, 0.0)
        tail, head = r.edge.split("->")
        if r.side == "out":
            flows_out[tail] = flows_out.get(tail, 0.0) + r.m
        else:
            flows_in[head] = flows_in.get(head, 0.0) + r.m
    for node in flows_in:
        if node in flows_out:
            assert flows_out[node] == pytest.approx(flows_in[node], abs=1e-9)


def test_split_ratio_honored_and_performance_r_independent(fluid):
    base = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0}
    r1 = decode(split_loop(), dict(base, **{"r_HT#1": 1.0 / 3.0}), HE_BC,
                fluid, IDEAL)
    r2 = decode(split_loop(), dict(base, **{"r_HT#1": 0.7}), HE_BC,
                fluid, IDEAL)
    flows = {rr.edge: rr.m for rr in r1.ports if rr.side == "out"}
    assert flows["HT#1->TB#1"] == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert flows["HT#1->TB#2"] == pytest.approx(2.0 / 3.0, abs=1e-8)
    # identical parallel turbines: the split ratio cannot change efficiency
    assert r1.performance == pytest.approx(r2.performance, abs=1e-8)
    eta_ideal = 1.0 - 4.0 ** (-R_GAS / CP_GAS)
    assert r1.performance == pytest.approx(eta_ideal, abs=1e-6)


def test_merge_energy_balance_is_mass_weighted(fluid):
    # (m, h) inlets (1, 100) and (1, 300) must mix to (2, 200)
    sys_ = CycleSystem(split_loop(), HE_BC, fluid)
    g = sys_.graph
    idx = {g.label(i): i for i in range(len(g))}
    m_node = idx["M#1"]
    e_out = sys_.out_edges[m_node][0]
    e_in = sys_.in_edges[m_node]
    params = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0, "r_HT#1": 0.5}
    xs = sys_.initial_guess(params)
    H = len(sys_.segments)              # h per edge, then m per edge
    M = H + len(sys_.edges)
    xs[H + e_in[0]] = 100.0 / decoder.H_SCALE
    xs[H + e_in[1]] = 300.0 / decoder.H_SCALE
    xs[M + e_in[0]] = 1.0
    xs[M + e_in[1]] = 1.0
    xs[M + e_out] = 2.0
    xs[H + e_out] = 200.0 / decoder.H_SCALE
    res_ok = sys_.residuals(xs, params)
    xs2 = xs.copy()
    xs2[H + e_out] = 210.0 / decoder.H_SCALE
    res_off = sys_.residuals(xs2, params)
    changed = np.flatnonzero(np.abs(res_ok - res_off) > 1e-12)
    # the mix-outlet enthalpy enters only the merge energy balance, which
    # moves by m*dh/scale
    deltas = (res_off - res_ok)[changed]
    assert np.allclose(deltas, [2.0 * 10.0 / decoder.H_SCALE])


def test_valve_is_isenthalpic(fluid):
    g = _build({"compressor": 1, "gas_cooler": 1, "expansion_valve": 1,
                "evaporator": 1},
               ("CP#1", "GC#1"), ("GC#1", "EV#1"), ("EV#1", "EVAP#1"),
               ("EVAP#1", "CP#1"))
    bc = BoundaryConditions("heat_pump", 293.15, 333.15)
    res = decode(g, {"p_suc_CP#1": 2000.0, "p_dis_CP#1": 9000.0}, bc, fluid)
    if res.status == STATUS_CONVERGED:
        ports = {(r.node, r.side): r for r in res.ports}
        assert ports[("EV#1", "out")].h == pytest.approx(
            ports[("EV#1", "in")].h, abs=1e-9)


def test_relabel_invariance(fluid):
    roster = {"compressor": 2, "heater": 1, "turbine": 1, "cooler": 1}
    g1 = _build(roster, ("CP#1", "HT#1"), ("HT#1", "TB#1"), ("TB#1", "CL#1"),
                ("CL#1", "CP#1"))
    g2 = _build(roster, ("CP#2", "HT#1"), ("HT#1", "TB#1"), ("TB#1", "CL#1"),
                ("CL#1", "CP#2"))
    r1 = decode(g1, {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0}, HE_BC,
                fluid, IDEAL)
    r2 = decode(g2, {"p_suc_CP#2": 140.0, "p_dis_CP#2": 560.0}, HE_BC,
                fluid, IDEAL)
    assert r1.performance == pytest.approx(r2.performance, abs=1e-9)


def test_reverse_brayton_heat_pump_cop(fluid):
    g = _build({"compressor": 1, "gas_cooler": 1, "turbine": 1,
                "evaporator": 1},
               ("CP#1", "GC#1"), ("GC#1", "TB#1"), ("TB#1", "EVAP#1"),
               ("EVAP#1", "CP#1"))
    bc = BoundaryConditions("heat_pump", 293.15, 333.15)
    res = decode(g, {"p_suc_CP#1": 400.0, "p_dis_CP#1": 1400.0}, bc, fluid)
    assert res.status == STATUS_CONVERGED
    assert res.feasible, res.violations
    assert res.performance > 1.0        # COP of a working heat pump
    assert res.q_out == pytest.approx(res.performance * res.w_net, rel=1e-9)


EJECTOR_HP = ("CP#1>GC#1;GC#1>Ev#1;Em#1>S#1;SV#1>CP#1;SL#1>EV#1;"
              "EV#1>EVAP#1;EVAP#1>Ec#1")


def test_ejector_diffuser_pin_and_separator(monkeypatch):
    # the grammar's Parallelism rule rejects this textbook two-phase
    # ejector heat pump; the decoder is exercised on it regardless
    monkeypatch.setattr(grammar, "structural_validity",
                        lambda g: grammar.ValidityReport(()))
    spec = harness.load_config(
        os.path.join(os.path.dirname(harness.__file__), "configs",
                     "hp_case2.yaml"))
    g = harness.build_graph(spec.components, EJECTOR_HP)
    bc, fl, eta = spec.boundary_conditions(), spec.make_fluid(), spec.eta()
    params = {"p_dis_CP#1": 4700.0, "p_seg0": 2500.0, "p_seg1": 2800.0}

    sys_ = CycleSystem(g, bc, fl, eta)
    assert [kind for kind, _ in sys_.pins].count("diffuser") == 1
    n = len(sys_.segments) + 2 * len(sys_.edges)
    assert sys_.residuals(sys_.initial_guess(params), params).shape == (n,)

    res = decode(g, params, bc, fl, eta)
    assert res.status == STATUS_CONVERGED
    assert res.feasible, res.violations
    port = {(r.edge, r.side): r for r in res.ports}
    motive = port[("GC#1->Ev#1", "in")]       # nozzle inlet
    entrained = port[("EVAP#1->Ec#1", "in")]  # suction inlet
    nozzle = port[("Ev#1->Em#1", "in")]
    suction = port[("Ec#1->Em#1", "in")]
    mixed = port[("Em#1->S#1", "out")]

    # mixer: mass balance, and the energy balance of the whole ejector,
    # whose inlets are the nozzle's and the suction's
    assert mixed.m == pytest.approx(nozzle.m + suction.m, abs=1e-9)
    assert (nozzle.m, suction.m) == pytest.approx((motive.m, entrained.m))
    assert mixed.m * mixed.h == pytest.approx(
        motive.m * motive.h + entrained.m * entrained.h, abs=1e-6)
    # diffuser: from the static mix at the mixing pressure, the outlet
    # enthalpy rise is the isentropic one over eta_d
    assert nozzle.p == pytest.approx(suction.p)
    assert mixed.p > nozzle.p
    h_mix = (nozzle.m * nozzle.h + suction.m * suction.h) / mixed.m
    s_mix = fl.ph_to_tsq(nozzle.p, h_mix).s
    h_rec = fl.ps_to_h(mixed.p, s_mix)
    assert eta.diffuser * (mixed.h - h_mix) == pytest.approx(
        h_rec - h_mix, abs=1e-6)

    # separator: vapour and liquid leave on the dome at the inlet pressure
    _t, hl, hv = fl.p_to_sat(mixed.p)
    vapour = port[("SV#1->CP#1", "out")]
    liquid = port[("SL#1->EV#1", "out")]
    assert vapour.p == pytest.approx(mixed.p, abs=1e-9)
    assert liquid.p == pytest.approx(mixed.p, abs=1e-9)
    assert vapour.h == pytest.approx(hv, abs=1e-6)
    assert liquid.h == pytest.approx(hl, abs=1e-6)
    q = (mixed.h - hl) / (hv - hl)
    assert 0.0 < q < 1.0
    assert vapour.m == pytest.approx(q * mixed.m, abs=1e-9)
    assert liquid.m == pytest.approx((1.0 - q) * mixed.m, abs=1e-9)


# -- bitwise pins -------------------------------------------------------

# Per edge, in state-vector order: (edge, p, h, T, s, Q, m) as float.hex.
# Recorded from the decoder that stored each edge's state twice, once per
# endpoint; a change in the assembly, the solver's arithmetic or the fluid
# shows here as a flipped bit.
REGEN_PERFORMANCE = "0x1.e30614f0dad2ep-5"
REGEN_EDGES = [
    ("CP#1->R#1",
     "0x1.a400000000000p+8", "0x1.88edaefbfb474p+8", "0x1.88edaefbfb474p+8",
     "-0x1.45b0516336d00p-10", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("CL#1->CP#1",
     "0x1.1800000000000p+7", "0x1.3100000000000p+8", "0x1.3100000000000p+8",
     "-0x1.8145b1f4e80f4p-5", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("HT#1->TB#1",
     "0x1.a400000000000p+8", "0x1.2980000000000p+9", "0x1.2980000000000p+9",
     "0x1.a79ebc332098fp-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("R#1->HT#1",
     "0x1.a400000000000p+8", "0x1.dec2856075ba7p+8", "0x1.dec2856075ba7p+8",
     "0x1.921506ea3fa72p-3", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("r#1->CL#1",
     "0x1.1800000000000p+7", "0x1.9e62e49519e40p+8", "0x1.9e62e49519e40p+8",
     "0x1.09aefa6b00bcap-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("TB#1->r#1",
     "0x1.1800000000000p+7", "0x1.f437baf994573p+8", "0x1.f437baf994573p+8",
     "0x1.ca7236cc24c41p-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
]
EJECTOR_PERFORMANCE = "0x1.6a85e9b461164p+1"
EJECTOR_EDGES = [
    ("CP#1->GC#1",
     "0x1.25c0000000000p+12", "0x1.df51e6c99d625p+8", "0x1.df51e6c99d625p+8",
     "-0x1.08ea81e02cbf5p-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("Ev#1->Em#1",
     "0x1.3880000000000p+11", "0x1.564d9fc4e06bcp+8", "0x1.0558c5e96039dp+8",
     "-0x1.31228839d4381p-1", "0x1.53b6a0cdc0d3bp-1", "0x1.0000000000000p+0"),
    ("Ec#1->Em#1",
     "0x1.3880000000000p+11", "0x1.2026666666666p+8", "0x1.0558c5e96039dp+8",
     "-0x1.9b39bcf0856fap-1", "0x1.e4b03b4c364a6p-2", "0x1.5e8a2a820758ap-1"),
    ("Em#1->S#1",
     "0x1.89f9b505085bap+11", "0x1.49b3a3456871cp+8", "0x1.0d7683ce57b4dp+8",
     "-0x1.58ad097941004p-1", "0x1.2febcbdb7caafp-1", "0x1.af45154103ac5p+0"),
    ("EVAP#1->Ec#1",
     "0x1.5e00000000000p+11", "0x1.2026666666666p+8", "0x1.09413b8a5b014p+8",
     "-0x1.a18beafb04983p-1", "0x1.d238465c071dcp-2", "0x1.5e8a2a820758ap-1"),
    ("EV#1->EVAP#1",
     "0x1.5e00000000000p+11", "0x1.5b509307b6885p+7", "0x1.09413b8a5b014p+8",
     "-0x1.3f456f092ee39p+0", "0x1.39dfb9742b03bp-5", "0x1.5e8a2a820758ap-1"),
    ("GC#1->Ev#1",
     "0x1.25c0000000000p+12", "0x1.6626666666666p+8", "0x1.1cb66646516e8p+8",
     "-0x1.38e56c18dac38p-1", "0x1.63512ebf1ede0p-1", "0x1.0000000000000p+0"),
    ("S#1->SV#1",
     "0x1.89f9b505085bap+11", "0x1.b48981a4789abp+8", "0x1.b48981a4789abp+8",
     "-0x1.1b5c6ebe9c2d2p-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("S#1->SL#1",
     "0x1.89f9b505085bap+11", "0x1.5b509307b6885p+7", "0x1.0d7683ce57b4dp+8",
     "-0x1.4096037659ec8p+0", "0x1.f299bf1373bbcp-52", "0x1.5e8a2a820758ap-1"),
    ("SV#1->CP#1",
     "0x1.89f9b505085bap+11", "0x1.b48981a4789abp+8", "0x1.b48981a4789abp+8",
     "-0x1.1b5c6ebe9c2d2p-2", "-0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("SL#1->EV#1",
     "0x1.89f9b505085bap+11", "0x1.5b509307b6885p+7", "0x1.0d7683ce57b4dp+8",
     "-0x1.4096037659ec8p+0", "0x1.f299bf1373bbcp-52", "0x1.5e8a2a820758ap-1"),
]


def _assert_bits(res, performance, edges):
    assert (res.status, res.feasible) == (STATUS_CONVERGED, True)
    assert res.performance.hex() == performance
    assert len(res.ports) == 2 * len(edges)
    for out_row, in_row, (edge, *state) in zip(res.ports[::2],
                                               res.ports[1::2], edges):
        tail, head = edge.split("->")
        assert (out_row.node, out_row.edge, out_row.side) == (tail, edge, "out")
        assert (in_row.node, in_row.edge, in_row.side) == (head, edge, "in")
        for row in (out_row, in_row):
            assert [float.hex(getattr(row, f))
                    for f in ("p", "h", "T", "s", "Q", "m")] == state


def test_decode_golden_bits(monkeypatch, fluid):
    regen = _build({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1,
                    "ihx": 1},
                   ("CP#1", "R#1"), ("R#1", "HT#1"), ("HT#1", "TB#1"),
                   ("TB#1", "r#1"), ("r#1", "CL#1"), ("CL#1", "CP#1"))
    res = decode(regen, {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0,
                         "eps_R#1": 0.8}, HE_BC, fluid)
    _assert_bits(res, REGEN_PERFORMANCE, REGEN_EDGES)

    # the ejector heat pump, reached as in
    # test_ejector_diffuser_pin_and_separator
    monkeypatch.setattr(grammar, "structural_validity",
                        lambda g: grammar.ValidityReport(()))
    spec = harness.load_config(
        os.path.join(os.path.dirname(harness.__file__), "configs",
                     "hp_case2.yaml"))
    g = harness.build_graph(spec.components, EJECTOR_HP)
    res = decode(g, {"p_dis_CP#1": 4700.0, "p_seg0": 2500.0,
                     "p_seg1": 2800.0},
                 spec.boundary_conditions(), spec.make_fluid(), spec.eta())
    _assert_bits(res, EJECTOR_PERFORMANCE, EJECTOR_EDGES)


def test_degenerate_loop_converges_but_infeasible(fluid):
    g = _build({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1},
               ("CP#1", "TB#1"), ("TB#1", "HT#1"), ("HT#1", "CL#1"),
               ("CL#1", "CP#1"))
    res = decode(g, {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0}, HE_BC, fluid)
    assert not res.feasible
    assert res.violations


def test_export_states_csv(tmp_path, fluid):
    res = decode(brayton(), {"p_suc_CP#1": 140.0, "p_dis_CP#1": 560.0},
                 HE_BC, fluid, IDEAL)
    path = tmp_path / "states.csv"
    decoder.export_states_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("node,edge,side")
    assert len(lines) == 1 + len(res.ports)
