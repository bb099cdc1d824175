"""The benchmark's hard checks accept decoded cycles and reject planted faults.

    PYTHONPATH=src python -m pytest -q bench/test_bench_checks.py
"""

from dataclasses import replace

import pytest

import checks
import run
from cyclesynth import decoder, fluids, harness

BC = decoder.BoundaryConditions(**run.HE_BOUNDARY)
ROSTER = {"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1}
PARAMS = {"p_suc_CP#1": 140.0, "p_dis_CP#1": 420.0}


@pytest.fixture(scope="module")
def decoded():
    g = harness.build_graph(ROSTER, run.BRAYTON)
    res = decoder.decode(g, PARAMS, BC, fluids.AnalyticFluid())
    assert res.feasible, res.violations
    return res


def _shift(ports, node, side, **delta):
    return [replace(r, **{k: getattr(r, k) + v for k, v in delta.items()})
            if (r.node, r.side) == (node, side) else r for r in ports]


@pytest.mark.parametrize("rp", [1.5, 3.0, 10.0])
def test_closed_form_ideal_machines(rp):
    eta = checks.brayton_closed_form(100.0, 100.0 * rp, 900.0, 300.0, 5.0,
                                     1.0, 1.0)
    assert eta == pytest.approx(1.0 - rp ** (-fluids.R_GAS / fluids.CP_GAS),
                                abs=1e-12)


def test_decoded_brayton_passes_every_check(decoded):
    assert checks.structure(decoded, decoded.performance, BC.mode) == []
    assert checks.below_carnot(decoded.performance, BC.mode, BC.t_source,
                               BC.t_sink) == []
    assert checks.pinned_outlets(decoded.ports, BC.t_source, BC.t_sink,
                                 BC.dt_approach) == []
    expect = checks.brayton_closed_form(140.0, 420.0, BC.t_source, BC.t_sink,
                                        BC.dt_approach, 0.8, 0.85)
    assert decoded.performance == pytest.approx(expect, abs=1e-9)


def test_rejects_performance_off_by_1e3(decoded):
    assert checks.reported_performance(decoded.performance + 1e-3,
                                       decoded.ports, BC.mode)


@pytest.mark.parametrize("perf", [0.0, -0.1])
def test_rejects_nonpositive_performance(perf):
    assert checks.positive(perf)


@pytest.mark.parametrize("perf", [0.653, 0.66, 1.2])
def test_rejects_performance_above_carnot(perf):
    assert checks.below_carnot(perf, BC.mode, BC.t_source, BC.t_sink)


def test_heat_pump_carnot_limit():
    assert checks.carnot_limit("heat_pump", 293.15, 333.15) == \
        pytest.approx(333.15 / 40.0)
    assert checks.below_carnot(8.4, "heat_pump", 293.15, 333.15)
    assert not checks.below_carnot(8.3, "heat_pump", 293.15, 333.15)


def test_rejects_first_law_gap(decoded):
    ports = _shift(decoded.ports, "TB#1", "out", h=1e-3)
    assert checks.first_law(ports, BC.mode)


def test_rejects_mass_imbalance(decoded):
    ports = _shift(decoded.ports, "HT#1", "out", m=1e-5)
    assert checks.mass_balance(ports)


def test_rejects_unpinned_cooler_outlet(decoded):
    ports = _shift(decoded.ports, "CL#1", "out", T=1e-3)
    assert checks.pinned_outlets(ports, BC.t_source, BC.t_sink,
                                 BC.dt_approach)


def test_below_dome_probe_passes():
    assert run.run_probe(140.0, 560.0) == ([], False)


def test_dome_probe_fails_on_the_cooler_pin():
    # the cooler outlet decodes to T_sat(2918 kPa) = 266.7 K, not 308.15 K
    assert run.run_probe(*run.DOME_PROBE) == ([], True)


@pytest.fixture(scope="module")
def he_spec():
    return harness.load_config(run.CONFIGS / "desk_he_small.yaml")


def _round_for(spec, params, reported=None):
    g = harness.build_graph(spec.components, run.BRAYTON)
    res = decoder.decode(g, params, spec.boundary_conditions(),
                         spec.make_fluid(), spec.eta())
    perf = res.performance if reported is None else reported
    return run.Round([("brayton", g, params, perf)], [], {})


def test_check_round_passes_a_sound_cycle(he_spec):
    assert run.check_round(_round_for(he_spec, PARAMS), he_spec) == \
        ([], run.Counter())


def test_check_round_fails_a_cycle_above_carnot(he_spec):
    problems, _ = run.check_round(_round_for(he_spec, PARAMS, 0.7), he_spec)
    assert any("Carnot" in p for p in problems)


def test_check_round_counts_a_dome_pin_miss_without_failing(he_spec):
    params = {"p_suc_CP#1": run.DOME_PROBE[0], "p_dis_CP#1": run.DOME_PROBE[1]}
    assert run.check_round(_round_for(he_spec, params), he_spec) == \
        ([], run.Counter(structures=1))
    # off its pins the cycle is not bounded by the reservoirs' Carnot value
    problems, off_pin = run.check_round(_round_for(he_spec, params, 0.7),
                                        he_spec)
    assert not any("Carnot" in p for p in problems)
    assert off_pin == run.Counter(structures=1, above_carnot=1)

