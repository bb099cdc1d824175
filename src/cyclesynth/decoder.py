"""Physics decoder: simultaneous state-point solving over a cycle graph.

Every activated edge carries one stream with one state: a pressure p,
an enthalpy h and a mass flow m.  A pressure segment is a set of edges
joined through isobaric components; pressure-changing components break
segments, and each segment has one pressure.  The unknowns are
therefore one p per segment and one (h, m) per edge.

The equations are one enthalpy and one mass relation per outgoing edge
(every edge leaves exactly one component) plus one level pin per
segment: a named pressure parameter or the ejector's diffuser relation.
The system is thus square for every grammatically valid structure, and
a damped hybrid Powell solver resolves it.  Post-solve checks cover
heat-transfer direction, pressure direction and net performance.
`evaluate` is the one solve-and-check sequence: `decode` and the
Worker's objective both call it, the Worker only for points that
`pins_reversed` does not already show to be infeasible.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import fluids, grammar
from .fluids import P_MAX, P_MIN

# Default component efficiencies and approach temperature
ETA_COMPRESSOR = 0.8
ETA_TURBINE = 0.85
ETA_NOZZLE = 0.8
ETA_DIFFUSER = 0.8
DT_APPROACH = 5.0        # external-side approach temperature, K

# Residual scaling: pressures in kPa/1e3, enthalpies in kJ/kg/1e2
P_SCALE = 1e3
H_SCALE = 1e2
M_SCALE = 1.0

RESIDUAL_TOL = 1e-8      # infinity norm of the scaled residual
# kPa; twice the distance by which a converged solve may miss a pin
REVERSED_MARGIN = 2 * RESIDUAL_TOL * P_SCALE
PERF_EPS = 1e-6          # minimum performance to count as feasible
PINCH_TOL = 1e-9

MODE_HEAT_PUMP = "heat_pump"
MODE_HEAT_ENGINE = "heat_engine"

STATUS_CONVERGED = "converged"
STATUS_NOT_CONVERGED = "not_converged"
STATUS_ERROR = "error"

_ISOBARIC_TAGS = {"HT", "CL", "GC", "EVAP", "R", "r", "SV", "SL", "S", "M"}
_HEATED_TAGS = {"HT", "EVAP"}
_COOLED_TAGS = {"CL", "GC"}
_EXPANDING_TAGS = {"TB", "EV", "Ev"}   # the pressure drops; it rises on CP


class DecodeError(ValueError):
    """Raised when a graph cannot be assembled into a solvable system."""


@dataclass(frozen=True)
class BoundaryConditions:
    """External temperatures and the figure of merit.

    t_source heats heaters/evaporators, t_sink cools coolers/gas coolers.
    mode selects COP (heat_pump) or thermal efficiency (heat_engine).
    """

    mode: str
    t_source: float
    t_sink: float
    dt_approach: float = DT_APPROACH
    p_lo: float = P_MIN                # pressure decision-variable bounds
    p_hi: float = P_MAX

    def __post_init__(self) -> None:
        if self.mode not in (MODE_HEAT_PUMP, MODE_HEAT_ENGINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dt_approach < 0.0:
            raise ValueError("dt_approach must be non-negative")
        if not P_MIN <= self.p_lo < self.p_hi <= P_MAX:
            raise ValueError(
                f"pressure bounds [{self.p_lo}, {self.p_hi}] must nest "
                f"inside [{P_MIN}, {P_MAX}]")


@dataclass(frozen=True)
class Efficiencies:
    """Isentropic machine efficiencies; 1.0 means a reversible machine."""

    compressor: float = ETA_COMPRESSOR
    turbine: float = ETA_TURBINE
    nozzle: float = ETA_NOZZLE
    diffuser: float = ETA_DIFFUSER

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0.0 < value <= 1.0:
                raise ValueError(
                    f"efficiency {name}={value!r} must be a number in (0, 1]")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float


@dataclass
class SolveResult:
    x: np.ndarray
    status: str
    iterations: int
    nfev: int
    fnorm: float
    message: str = ""


def hybrid_solve(fun, x0: np.ndarray, tol: float = RESIDUAL_TOL,
                 max_nfev: int = 20000) -> SolveResult:
    """Hybrid Powell root find with an explicit infinity-norm acceptance.

    The iteration count excludes the n+1 evaluations spent on the
    initial point and first finite-difference Jacobian.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    try:
        sol = optimize.root(fun, x0, method="hybr",
                            options={"xtol": 1e-12, "maxfev": max_nfev})
    except (ValueError, FloatingPointError) as exc:
        return SolveResult(x0, STATUS_ERROR, 0, 0, math.inf, str(exc))
    res = np.asarray(sol.fun, dtype=float)
    if not np.all(np.isfinite(res)):
        return SolveResult(sol.x, STATUS_ERROR, 0, int(sol.nfev), math.inf,
                           "non-finite residual")
    fnorm = float(np.max(np.abs(res)))
    status = STATUS_CONVERGED if fnorm <= tol else STATUS_NOT_CONVERGED
    iters = max(0, int(sol.nfev) - (n + 1))
    return SolveResult(np.asarray(sol.x), status, iters, int(sol.nfev),
                       fnorm, sol.message)


@dataclass
class PortRow:
    node: str
    edge: str
    side: str
    p: float
    h: float
    T: float
    s: float
    Q: float
    m: float


@dataclass
class DecodeResult:
    status: str
    feasible: bool
    performance: float
    residual_norm: float
    iterations: int
    nfev: int
    w_net: float
    q_in: float
    q_out: float
    violations: list[str] = field(default_factory=list)
    ports: list[PortRow] = field(default_factory=list)


class CycleSystem:
    """Assembled residual system for one structurally valid graph."""

    def __init__(self, graph: grammar.CycleGraph, bc: BoundaryConditions,
                 fluid=None, eta: Efficiencies | None = None) -> None:
        self.eta = eta or Efficiencies()
        report = grammar.structural_validity(graph)
        if not report.valid:
            raise DecodeError(
                "graph is structurally invalid: "
                + "; ".join(d for _, d in report.violations))
        self.graph = graph
        self.bc = bc
        self.fluid = fluid or fluids.AnalyticFluid()
        self.edges = sorted(graph.edges())
        self.active = graph.active_nodes()

        # the edges entering and leaving each node, in edge order
        self.in_edges: dict[int, list[int]] = {v: [] for v in self.active}
        self.out_edges: dict[int, list[int]] = {v: [] for v in self.active}
        for e, (i, j) in enumerate(self.edges):
            self.out_edges[i].append(e)
            self.in_edges[j].append(e)
        for v in self.active:
            if not self.in_edges[v] or not self.out_edges[v]:
                raise DecodeError(f"{graph.label(v)} lacks an inlet or outlet")

        self.segments = self._pressure_segments()
        self.edge_seg = np.empty(len(self.edges), dtype=int)
        for s, seg in enumerate(self.segments):
            self.edge_seg[seg] = s
        self.n_unknowns = len(self.segments) + 2 * len(self.edges)
        self.pins = self._classify_pins()
        self.machine_pins = self._machine_pins()
        self._anchor_node = self._pick_mass_anchor()

    # -- assembly metadata ----------------------------------------------

    def _pressure_segments(self) -> list[list[int]]:
        """Sorted edge lists that share one pressure, by first edge."""
        parent = list(range(len(self.edges)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        for v in self.active:
            tag = self.graph.nodes[v][0]
            if tag in _ISOBARIC_TAGS:
                group = self.in_edges[v] + self.out_edges[v]
            elif tag == "Em":
                group = self.in_edges[v]     # diffuser breaks in->out
            else:
                group = self.out_edges[v]    # split outlets share pressure
            for a, b in zip(group, group[1:]):
                union(a, b)

        classes: dict[int, list[int]] = {}
        for k in range(len(self.edges)):
            classes.setdefault(find(k), []).append(k)
        return sorted((sorted(c) for c in classes.values()), key=lambda c: c[0])

    def _classify_pins(self) -> list[tuple[str, str | int]]:
        """One pin per segment: a named parameter or the diffuser relation."""
        pins: list[tuple[str, str | int]] = []
        free_rank = 0
        for seg in self.segments:
            comp_out = [v for v in self.active
                        if self.graph.nodes[v][0] == "CP"
                        and set(self.out_edges[v]) & set(seg)]
            comp_in = [v for v in self.active
                       if self.graph.nodes[v][0] == "CP"
                       and set(self.in_edges[v]) & set(seg)]
            em_out = [v for v in self.active
                      if self.graph.nodes[v][0] == "Em"
                      and set(self.out_edges[v]) & set(seg)]
            if comp_out:
                pins.append(("param", f"p_dis_{self.graph.label(comp_out[0])}"))
            elif em_out:
                pins.append(("diffuser", em_out[0]))
            elif comp_in:
                pins.append(("param", f"p_suc_{self.graph.label(comp_in[0])}"))
            else:
                pins.append(("param", f"p_seg{free_rank}"))
                free_rank += 1
        return pins

    def _machine_pins(self) -> list[tuple[str, str, float]]:
        """(inlet pin, outlet pin, sign) of each pressure-changing machine
        whose inlet and outlet segments are both pinned by parameters; the
        sign is +1 where the pressure must rise and -1 where it must drop."""
        pins = []
        for v in self.active:
            tag = self.graph.nodes[v][0]
            if tag != "CP" and tag not in _EXPANDING_TAGS:
                continue
            kind_in, p_in = self.pins[self.edge_seg[self.in_edges[v][0]]]
            kind_out, p_out = self.pins[self.edge_seg[self.out_edges[v][0]]]
            if kind_in == kind_out == "param":
                pins.append((p_in, p_out, 1.0 if tag == "CP" else -1.0))
        return pins

    def _pick_mass_anchor(self) -> int:
        for v in self.active:
            if len(self.out_edges[v]) == 1:
                return v
        raise DecodeError("no single-outlet node to anchor the mass flow")

    def parameter_space(self) -> list[ParamSpec]:
        """Continuous decision variables of the structure, with bounds."""
        specs = [ParamSpec(name, self.bc.p_lo, self.bc.p_hi)
                 for kind, name in self.pins if kind == "param"]
        for v in self.active:
            tag = self.graph.nodes[v][0]
            if tag not in ("S", "Em") and len(self.out_edges[v]) == 2:
                specs.append(ParamSpec(f"r_{self.graph.label(v)}", 0.05, 0.95))
        for comp, members in self.graph.couplings:
            if comp == "ihx" and members[0] in self.active:
                specs.append(
                    ParamSpec(f"eps_{self.graph.label(members[0])}", 0.3, 0.95))
        return specs

    # -- residuals -------------------------------------------------------

    def unscale(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-edge p, h and m of xs = [p per segment | h per edge | m per edge]."""
        S, E = len(self.segments), len(self.edges)
        return (xs[:S][self.edge_seg] * P_SCALE,
                xs[S:S + E] * H_SCALE,
                xs[S + E:] * M_SCALE)

    def _separator_sat(self, p: float, note) -> tuple[float, float]:
        """(hl, hv) at p clamped into the dome's pressure range."""
        pc = min(max(p, self.fluid.p_dome_min), fluids.P_CRIT - 1e-9)
        if pc != p:
            note[0] = True
        _t, hl, hv = self.fluid.p_to_sat(pc)
        return hl, hv

    def residuals(self, xs: np.ndarray, params: dict[str, float],
                  note=None) -> np.ndarray:
        """Scaled residual vector; note[0] is set if any fluid call clamped."""
        if note is None:
            note = [False]
        p, h, m = self.unscale(xs)
        fl = self.fluid
        res: list[float] = []

        def state(k: int):
            st, cl = fl.ph_to_tsq_clamped(p[k], h[k])
            if cl:
                note[0] = True
            return st

        def h_isentropic(p_out: float, k_in: int) -> float:
            hh, cl = fl.ps_to_h_clamped(p_out, state(k_in).s)
            if cl:
                note[0] = True
            return hh

        def h_at_t(p_at: float, t: float) -> float:
            hh, cl = fl.h_from_pt_clamped(p_at, t)
            if cl:
                note[0] = True
            return hh

        # enthalpy relations, one per outgoing edge
        for v in self.active:
            tag = self.graph.nodes[v][0]
            outs = self.out_edges[v]
            ins = self.in_edges[v]
            k0 = outs[0]
            if tag == "CP":
                k_in = ins[0]
                h_t = h[k_in] + (h_isentropic(p[k0], k_in) - h[k_in]) \
                    / self.eta.compressor
            elif tag == "TB":
                k_in = ins[0]
                h_t = h[k_in] - self.eta.turbine * (
                    h[k_in] - h_isentropic(p[k0], k_in))
            elif tag == "Ev":
                k_in = ins[0]
                h_t = h[k_in] - self.eta.nozzle * (
                    h[k_in] - h_isentropic(p[k0], k_in))
            elif tag == "EV" or tag in ("SV", "SL", "Ec"):
                h_t = h[ins[0]]
            elif tag in _HEATED_TAGS:
                h_t = h_at_t(p[k0], self.bc.t_source - self.bc.dt_approach)
            elif tag in _COOLED_TAGS:
                h_t = h_at_t(p[k0], self.bc.t_sink + self.bc.dt_approach)
            elif tag == "R":
                grp = self.graph.group_of(v)
                r_node = grp[1][1]
                t_hot_in = state(self.in_edges[r_node][0]).T
                eps = params[f"eps_{self.graph.label(v)}"]
                h_cap = h_at_t(p[k0], t_hot_in)
                h_t = h[ins[0]] + eps * (h_cap - h[ins[0]])
            elif tag == "r":
                grp = self.graph.group_of(v)
                big = grp[1][0]
                b_in = self.in_edges[big][0]
                b_out = self.out_edges[big][0]
                bal = (m[b_in] * (h[b_out] - h[b_in])
                       - m[ins[0]] * (h[ins[0]] - h[k0]))
                res.append(bal / H_SCALE)
                continue
            elif tag == "S":
                hl, hv = self._separator_sat(p[ins[0]], note)
                for k in outs:
                    head = self.edges[k][1]
                    target = hv if self.graph.nodes[head][0] == "SV" else hl
                    res.append((h[k] - target) / H_SCALE)
                continue
            elif tag == "M":
                res.append((m[k0] * h[k0]
                            - sum(m[k] * h[k] for k in ins)) / H_SCALE)
                continue
            elif tag == "Em":
                grp = self.graph.group_of(v)
                ev_node, ec_node = grp[1][0], grp[1][1]
                k_n = self.in_edges[ev_node][0]
                k_s = self.in_edges[ec_node][0]
                res.append((m[k0] * h[k0]
                            - m[k_n] * h[k_n] - m[k_s] * h[k_s]) / H_SCALE)
                continue
            else:
                raise DecodeError(f"no enthalpy relation for tag {tag!r}")
            res.append((h[k0] - h_t) / H_SCALE)
            for k in outs[1:]:
                res.append((h[k] - h[k0]) / H_SCALE)

        # mass relations, one per outgoing edge
        for v in self.active:
            tag = self.graph.nodes[v][0]
            outs = self.out_edges[v]
            ins = self.in_edges[v]
            tot_in = sum(m[k] for k in ins)
            if v == self._anchor_node:
                res.append((m[outs[0]] - 1.0) / M_SCALE)
            elif tag == "S":
                hl, hv = self._separator_sat(p[ins[0]], note)
                q = min(max((h[ins[0]] - hl) / (hv - hl), 0.0), 1.0)
                for k in outs:
                    head = self.edges[k][1]
                    frac = q if self.graph.nodes[head][0] == "SV" else 1.0 - q
                    res.append((m[k] - frac * tot_in) / M_SCALE)
            elif len(outs) == 1:
                res.append((m[outs[0]] - tot_in) / M_SCALE)
            else:
                r = params[f"r_{self.graph.label(v)}"]
                res.append((m[outs[0]] - r * tot_in) / M_SCALE)
                res.append((m[outs[1]] - (1.0 - r) * tot_in) / M_SCALE)

        # one level pin per pressure segment
        for seg, (kind, ref) in zip(self.segments, self.pins):
            rep = seg[0]
            if kind == "param":
                res.append((p[rep] - params[ref]) / P_SCALE)
            else:  # diffuser pressure recovery on the Em outlet segment
                v = ref
                k0 = self.out_edges[v][0]
                ins = self.in_edges[v]
                m_out = sum(m[k] for k in ins)
                h_mix = sum(m[k] * h[k] for k in ins) / m_out \
                    if abs(m_out) > 1e-12 else h[k0]
                st, cl = fl.ph_to_tsq_clamped(p[ins[0]], h_mix)
                if cl:
                    note[0] = True
                h_rec, cl = fl.ps_to_h_clamped(p[k0], st.s)
                if cl:
                    note[0] = True
                res.append((self.eta.diffuser * (h[k0] - h_mix)
                            - (h_rec - h_mix)) / H_SCALE)

        out = np.asarray(res, dtype=float)
        if out.size != self.n_unknowns:
            raise DecodeError(
                f"system is not square: {out.size} equations, "
                f"{self.n_unknowns} unknowns")
        return out

    # -- initial guess ---------------------------------------------------

    def initial_guess(self, params: dict[str, float]) -> np.ndarray:
        p_mid = math.sqrt(self.bc.p_lo * self.bc.p_hi)
        p0 = np.array([params[ref] if kind == "param" else p_mid
                       for kind, ref in self.pins])
        t_mid = 0.5 * (self.bc.t_source + self.bc.t_sink)
        t_mid = min(max(t_mid, fluids.T_MIN + 10.0), fluids.T_MAX - 10.0)
        E = len(self.edges)
        h0 = np.full(E, fluids.H_REF + (t_mid - fluids.T_REF))
        m0 = np.ones(E)
        return np.concatenate([p0 / P_SCALE, h0 / H_SCALE, m0 / M_SCALE])


# -- decode and post-solve checks ---------------------------------------

def _node_dh(sys_: CycleSystem, p, h, m, v) -> tuple[float, float, float]:
    """(m_in, h_in, h_out_first) for a node."""
    k_in = sys_.in_edges[v]
    m_in = sum(m[k] for k in k_in)
    h_in = sum(m[k] * h[k] for k in k_in) / m_in if m_in > 1e-12 else h[k_in[0]]
    return m_in, h_in, h[sys_.out_edges[v][0]]


def _physical_checks(sys_: CycleSystem, p, h, m) -> list[str]:
    g = sys_.graph
    bad: list[str] = []
    fl = sys_.fluid
    for v in sys_.active:
        tag = g.nodes[v][0]
        lbl = g.label(v)
        p_in = p[sys_.in_edges[v][0]]
        p_out = p[sys_.out_edges[v][0]]
        m_in, h_in, h_out = _node_dh(sys_, p, h, m, v)
        if tag == "CP" and p_out <= p_in + PINCH_TOL:
            bad.append(f"{lbl}: pressure does not rise")
        if tag in _EXPANDING_TAGS and p_out >= p_in - PINCH_TOL:
            bad.append(f"{lbl}: pressure does not drop")
        if tag in _HEATED_TAGS and h_out < h_in - PINCH_TOL:
            bad.append(f"{lbl}: heat flows backwards")
        if tag in _COOLED_TAGS and h_out > h_in + PINCH_TOL:
            bad.append(f"{lbl}: heat flows backwards")
        if tag == "S":
            st, _ = fl.ph_to_tsq_clamped(p_in, h_in)
            if not (0.0 < st.Q < 1.0):
                bad.append(f"{lbl}: inlet is not two-phase")
        if tag == "R":
            grp = g.group_of(v)
            r_node = grp[1][1]
            t_cold_in, _ = fl.ph_to_tsq_clamped(p_in, h_in)
            t_cold_out, _ = fl.ph_to_tsq_clamped(p_out, h_out)
            rp_in = p[sys_.in_edges[r_node][0]]
            rp_out = p[sys_.out_edges[r_node][0]]
            rh_in = h[sys_.in_edges[r_node][0]]
            rh_out = h[sys_.out_edges[r_node][0]]
            t_hot_in, _ = fl.ph_to_tsq_clamped(rp_in, rh_in)
            t_hot_out, _ = fl.ph_to_tsq_clamped(rp_out, rh_out)
            if t_hot_in.T < t_cold_out.T - PINCH_TOL \
                    or t_hot_out.T < t_cold_in.T - PINCH_TOL:
                bad.append(f"{lbl}: internal exchanger temperature crossover")
        if m_in <= 1e-9:
            bad.append(f"{lbl}: vanishing mass flow")
    return bad


def _performance(sys_: CycleSystem, p, h, m) -> tuple[float, float, float, float]:
    g = sys_.graph
    w_comp = w_turb = q_in = q_out = 0.0
    for v in sys_.active:
        tag = g.nodes[v][0]
        m_in, h_in, h_out = _node_dh(sys_, p, h, m, v)
        if tag == "CP":
            w_comp += m_in * (h_out - h_in)
        elif tag == "TB":
            w_turb += m_in * (h_in - h_out)
        elif tag in _HEATED_TAGS:
            q_in += m_in * (h_out - h_in)
        elif tag in _COOLED_TAGS:
            q_out += m_in * (h_in - h_out)
    if sys_.bc.mode == MODE_HEAT_ENGINE:
        w_net = w_turb - w_comp
        perf = w_net / q_in if q_in > PERF_EPS else 0.0
    else:
        w_net = w_comp - w_turb
        perf = q_out / w_net if w_net > PERF_EPS else 0.0
    return perf, w_net, q_in, q_out


def pins_reversed(sys_: CycleSystem, params: dict[str, float]) -> bool:
    """Whether params reverse a machine's pinned pressures by more than
    REVERSED_MARGIN.

    Such a point is infeasible without a solve: a converged solution
    meets each pin to within RESIDUAL_TOL * P_SCALE, so it would reverse
    that machine too and fail the pressure-direction check, or the solve
    would not converge.  Equal pinned pressures are not reversed.
    """
    return any(sign * (params[p_out] - params[p_in]) < -REVERSED_MARGIN
               for p_in, p_out, sign in sys_.machine_pins)


def evaluate(sys_: CycleSystem, params: dict[str, float],
             with_ports: bool = False) -> DecodeResult:
    """Solve a structure at the given parameters and judge the solution.

    The one solve-and-check sequence: a converged solution is feasible
    when no fluid call left its domain, every physical check passes and
    the performance exceeds PERF_EPS.  Port rows are filled only when
    with_ports is set.
    """
    sol = hybrid_solve(lambda x: sys_.residuals(x, params),
                       sys_.initial_guess(params))
    violations: list[str] = []
    perf = w_net = q_in = q_out = 0.0
    rows: list[PortRow] = []
    if sol.status == STATUS_CONVERGED:
        note = [False]
        sys_.residuals(sol.x, params, note)
        if note[0]:
            violations.append("solution required out-of-domain property calls")
        p, h, m = sys_.unscale(sol.x)
        violations.extend(_physical_checks(sys_, p, h, m))
        perf, w_net, q_in, q_out = _performance(sys_, p, h, m)
        if perf <= PERF_EPS:
            violations.append("nonpositive performance")
        if with_ports:
            g = sys_.graph
            for k, (i, j) in enumerate(sys_.edges):
                st, _ = sys_.fluid.ph_to_tsq_clamped(p[k], h[k])
                edge = f"{g.label(i)}->{g.label(j)}"
                rows += [PortRow(g.label(v), edge, side, p[k], h[k],
                                 st.T, st.s, st.Q, m[k])
                         for v, side in ((i, "out"), (j, "in"))]
    elif sol.status == STATUS_NOT_CONVERGED:
        violations.append("solver did not converge")
    else:
        violations.append(f"solver error: {sol.message}")
    # every path that is not converged has added a violation
    return DecodeResult(sol.status, not violations, perf, sol.fnorm,
                        sol.iterations, sol.nfev, w_net, q_in, q_out,
                        violations, rows)


def decode(graph: grammar.CycleGraph, params: dict[str, float],
           bc: BoundaryConditions, fluid=None,
           eta: Efficiencies | None = None) -> DecodeResult:
    """Solve every state point of a structure at the given parameters."""
    sys_ = CycleSystem(graph, bc, fluid, eta)
    missing = [s.name for s in sys_.parameter_space()
               if s.name not in params]
    if missing:
        raise DecodeError("missing parameters: " + ", ".join(missing))
    return evaluate(sys_, params, with_ports=True)


def export_states_csv(result: DecodeResult, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["node", "edge", "side", "p_kpa", "h_kj_kg",
                     "t_k", "s_kj_kgk", "quality", "m_rel"])
        for r in result.ports:
            wr.writerow([r.node, r.edge, r.side,
                         f"{r.p:.6f}", f"{r.h:.6f}", f"{r.T:.6f}",
                         f"{r.s:.8f}", f"{r.Q:.6f}", f"{r.m:.8f}"])
