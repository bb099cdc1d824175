"""Output checks computed apart from the code they check.

Every check works from the decoded port table (node, side, p, h, T, m)
and the case's reservoir temperatures, never from the decoder's own
performance or balance routines.  A check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

from collections import defaultdict

from cyclesynth import fluids

HEATED = {"HT", "EVAP"}
COOLED = {"CL", "GC"}
PERF_TOL = 1e-6        # reported vs. recomputed performance
ENERGY_TOL = 1e-5      # kJ per kg of anchor mass flow
MASS_TOL = 1e-7        # relative mass flow
PIN_TOL = 1e-6         # K


def _tag(label: str) -> str:
    return label.split("#", 1)[0]


def node_flows(ports) -> dict[str, list[float]]:
    """label -> [m_in, m_out, H_in, H_out] summed over the node's ports."""
    flows: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
    for r in ports:
        f = flows[r.node]
        if r.side == "in":
            f[0] += r.m
            f[2] += r.m * r.h
        else:
            f[1] += r.m
            f[3] += r.m * r.h
    return dict(flows)


def energy_terms(ports) -> tuple[float, float, float, float]:
    """(w_turbines, w_compressors, q_in, q_out) from per-node enthalpy flows."""
    w_t = w_c = q_in = q_out = 0.0
    for label, (_mi, _mo, h_in, h_out) in node_flows(ports).items():
        tag = _tag(label)
        if tag == "TB":
            w_t += h_in - h_out
        elif tag == "CP":
            w_c += h_out - h_in
        elif tag in HEATED:
            q_in += h_out - h_in
        elif tag in COOLED:
            q_out += h_in - h_out
    return w_t, w_c, q_in, q_out


def performance_from_ports(ports, mode: str) -> float:
    w_t, w_c, q_in, q_out = energy_terms(ports)
    if mode == "heat_engine":
        return (w_t - w_c) / q_in
    return q_out / (w_c - w_t)


def carnot_limit(mode: str, t_source: float, t_sink: float) -> float:
    if mode == "heat_engine":
        return 1.0 - t_sink / t_source
    return t_sink / (t_sink - t_source)


def first_law(ports, mode: str) -> list[str]:
    """w_net = q_in - q_out (engine) or q_out = w_net + q_in (heat pump)."""
    w_t, w_c, q_in, q_out = energy_terms(ports)
    if mode == "heat_engine":
        gap = (w_t - w_c) - (q_in - q_out)
    else:
        gap = q_out - ((w_c - w_t) + q_in)
    if not abs(gap) <= ENERGY_TOL:
        return [f"first-law gap {gap:.3e} kJ/kg"]
    return []


def mass_balance(ports) -> list[str]:
    bad = []
    for label, (m_in, m_out, _hi, _ho) in node_flows(ports).items():
        if not abs(m_in - m_out) <= MASS_TOL * max(1.0, abs(m_in)):
            bad.append(f"{label}: mass in {m_in:.9f} != out {m_out:.9f}")
    return bad


def positive(perf: float) -> list[str]:
    if not perf > 0.0:
        return [f"performance {perf:.6f} is not positive"]
    return []


def below_carnot(perf: float, mode: str, t_source: float,
                 t_sink: float) -> list[str]:
    limit = carnot_limit(mode, t_source, t_sink)
    if not perf < limit:
        return [f"performance {perf:.6f} is not below Carnot {limit:.6f}"]
    return []


def reported_performance(reported: float, ports, mode: str) -> list[str]:
    recomputed = performance_from_ports(ports, mode)
    if not abs(reported - recomputed) <= PERF_TOL:
        return [f"reported performance {reported:.9f} != "
                f"recomputed {recomputed:.9f}"]
    return []


def pinned_outlets(ports, t_source: float, t_sink: float,
                   dt: float) -> list[str]:
    """Heater/evaporator outlets sit at t_source - dt, coolers at t_sink + dt."""
    bad = []
    for r in ports:
        if r.side != "out":
            continue
        tag = _tag(r.node)
        if tag in HEATED:
            target = t_source - dt
        elif tag in COOLED:
            target = t_sink + dt
        else:
            continue
        if not abs(r.T - target) <= PIN_TOL:
            bad.append(f"{r.node} outlet T {r.T:.4f} K != pinned {target:.4f} K")
    return bad


def brayton_closed_form(p_suc: float, p_dis: float, t_source: float,
                        t_sink: float, dt: float, eta_c: float,
                        eta_t: float) -> float:
    """Ideal-gas simple Brayton efficiency with pinned heater/cooler outlets."""
    k = fluids.R_GAS / fluids.CP_GAS
    rp = p_dis / p_suc
    t1 = t_sink + dt
    t3 = t_source - dt
    t2 = t1 + t1 * (rp ** k - 1.0) / eta_c
    t4 = t3 - eta_t * t3 * (1.0 - rp ** -k)
    w_net = fluids.CP_GAS * ((t3 - t4) - (t2 - t1))
    return w_net / (fluids.CP_GAS * (t3 - t2))


def structure(result, reported: float, mode: str) -> list[str]:
    """Checks one re-decoded structure at its reported parameters."""
    if not result.feasible:
        return ["re-decode is not feasible: " + "; ".join(result.violations)]
    return (first_law(result.ports, mode)
            + mass_balance(result.ports)
            + positive(reported)
            + reported_performance(reported, result.ports, mode))
