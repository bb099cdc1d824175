"""Analytic working-fluid property layer.

A stylized, fully closed-form reference fluid with a CO2-like saturation
dome: ideal-gas single phase, Clausius-Clapeyron saturation curve, linear
liquid enthalpy and a power-law latent heat.  Every property map is exact
and invertible, which makes it usable both as a production property
backend and as the ground-truth oracle for the neural surrogate.

Units: pressure kPa, enthalpy kJ/kg, temperature K, entropy kJ/(kg K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Gas branch
CP_GAS = 1.0          # isobaric heat capacity, kJ/(kg K)
R_GAS = 0.1889        # gas constant, kJ/(kg K)
T_REF = 300.0         # h = H_REF at T_REF on the gas branch
H_REF = 300.0
P_REF = 100.0         # s = 0 at (T_REF, P_REF) on the gas branch

# Saturation dome
T_CRIT = 304.13       # K
P_CRIT = 7377.0       # kPa
A_SAT = 6.61          # Clausius-Clapeyron exponent scale
C_LIQ = 2.5           # liquid heat capacity, kJ/(kg K); h_l = C_LIQ*(T - 200)
T_LIQ_REF = 200.0
LAT_SCALE = 600.0     # latent heat L(T) = LAT_SCALE*(1 - T/T_CRIT)**LAT_EXP
LAT_EXP = 0.38

# Declared domain box
P_MIN, P_MAX = 100.0, 15000.0
T_MIN, T_MAX = 220.0, 900.0

QUALITY_SENTINEL = -1.0  # reported for single-phase states


class FluidDomainError(ValueError):
    """Raised when a property query falls outside the declared domain box."""


@dataclass(frozen=True)
class FluidState:
    """A resolved thermodynamic state."""

    p: float
    h: float
    T: float
    s: float
    Q: float

    @property
    def two_phase(self) -> bool:
        return self.Q >= 0.0


def _t_sat(p: float) -> float:
    """Saturation temperature from pressure (inverse Clausius-Clapeyron)."""
    return T_CRIT / (1.0 - math.log(p / P_CRIT) / A_SAT)


def _latent_heat(t: float) -> float:
    x = 1.0 - t / T_CRIT
    return LAT_SCALE * x ** LAT_EXP if x > 0.0 else 0.0


def _h_liq(t: float) -> float:
    return C_LIQ * (t - T_LIQ_REF)


_EDGE_TOL = 1e-6      # snap inverse temperatures that barely overshoot


def _snap_t(t: float) -> float:
    if T_MIN - _EDGE_TOL <= t < T_MIN:
        return T_MIN
    if T_MAX < t <= T_MAX + _EDGE_TOL:
        return T_MAX
    return t


def _t_gas(h: float) -> float:
    return T_REF + (h - H_REF) / CP_GAS


def _h_gas(t: float) -> float:
    return H_REF + CP_GAS * (t - T_REF)


def _s_gas(p: float, t: float) -> float:
    return CP_GAS * math.log(t / T_REF) - R_GAS * math.log(p / P_REF)


class ClampedEvalMixin:
    """Clamped property evaluation shared by all fluid backends.

    Equation solvers probe outside the domain box while iterating; these
    variants clamp (p, h), (p, s) or (p, T) into the box instead of
    raising and report whether clamping occurred.  Interior roots are
    unaffected; a converged solution that still needed clamping is
    off-domain.
    """

    def ph_to_tsq_clamped(self, p: float, h: float) -> tuple["FluidState", bool]:
        pc = min(max(p, P_MIN), P_MAX)
        lo, hi = self.h_bounds(pc)
        hc = min(max(h, lo), hi)
        return self.ph_to_tsq(pc, hc), (pc != p or hc != h)

    def ps_to_h_clamped(self, p: float, s: float) -> tuple[float, bool]:
        pc = min(max(p, P_MIN), P_MAX)
        lo, hi = self.h_bounds(pc)
        s_lo = self.ph_to_tsq(pc, lo).s
        s_hi = self.ph_to_tsq(pc, hi).s
        sc = min(max(s, s_lo), s_hi)
        return self.ps_to_h(pc, sc), (pc != p or sc != s)

    def h_from_pt_clamped(self, p: float, t: float) -> tuple[float, bool]:
        pc = min(max(p, P_MIN), P_MAX)
        tc = min(max(t, T_MIN), T_MAX)
        return self.h_from_pt(pc, tc), (pc != p or tc != t)


class AnalyticFluid(ClampedEvalMixin):
    """Closed-form reference fluid over the declared (p, T) domain box.

    The saturation dome is modeled only where the saturation temperature
    lies inside the domain box, i.e. for p in [p_sat(T_MIN), p_crit).
    Entropy is obtained by integrating ds = dh/T along each isobar,
    anchored at s = 0 on the gas branch at (300 K, 100 kPa), so s is
    continuous and strictly increasing in h at fixed pressure.
    """

    def __init__(self) -> None:
        self.p_dome_min = self.t_to_psat(T_MIN)

    # -- saturation -----------------------------------------------------

    def has_dome(self, p: float) -> bool:
        return self.p_dome_min <= p < P_CRIT

    def t_to_psat(self, t: float) -> float:
        """Saturation pressure; defined for T in [T_MIN, T_CRIT]."""
        if not T_MIN <= t <= T_CRIT:
            raise FluidDomainError(f"t_to_psat: T={t} outside [{T_MIN}, {T_CRIT}]")
        return P_CRIT * math.exp(A_SAT * (1.0 - T_CRIT / t))

    def p_to_sat(self, p: float) -> tuple[float, float, float]:
        """(T_sat, h_liq, h_vap) on the dome; p in [p_sat(T_MIN), p_crit]."""
        if not self.p_dome_min <= p <= P_CRIT:
            raise FluidDomainError(
                f"p_to_sat: p={p} outside [{self.p_dome_min:.3f}, {P_CRIT}]")
        t = _t_sat(p) if p < P_CRIT else T_CRIT
        hl = _h_liq(t)
        return t, hl, hl + _latent_heat(t)

    # -- enthalpy bounds of the isobar ----------------------------------

    def h_bounds(self, p: float) -> tuple[float, float]:
        if self.has_dome(p):
            return _h_liq(T_MIN), _h_gas(T_MAX)
        return _h_gas(T_MIN), _h_gas(T_MAX)

    # -- primary property maps ------------------------------------------

    def ph_to_tsq(self, p: float, h: float) -> FluidState:
        """Resolve (T, s, Q) from (p, h); Q is -1 off the dome."""
        if not P_MIN <= p <= P_MAX:
            raise FluidDomainError(f"ph_to_tsq: p={p} outside [{P_MIN}, {P_MAX}]")
        if self.has_dome(p):
            t_sat = _t_sat(p)
            hl = _h_liq(t_sat)
            lat = _latent_heat(t_sat)
            hv = hl + lat
            sv = _s_gas(p, _t_gas(hv))
            if h < hl:
                t = T_LIQ_REF + h / C_LIQ
                if t < T_MIN:
                    raise FluidDomainError(f"ph_to_tsq: liquid T={t} below {T_MIN}")
                s = (sv - lat / t_sat) + C_LIQ * math.log(t / t_sat)
                return FluidState(p, h, t, s, QUALITY_SENTINEL)
            if h <= hv:
                q = (h - hl) / lat
                s = sv - (1.0 - q) * lat / t_sat
                return FluidState(p, h, t_sat, s, q)
            t = _t_gas(h)
            if t > T_MAX:
                raise FluidDomainError(f"ph_to_tsq: gas T={t} above {T_MAX}")
            return FluidState(p, h, t, _s_gas(p, t), QUALITY_SENTINEL)
        t = _t_gas(h)
        if not T_MIN <= t <= T_MAX:
            raise FluidDomainError(f"ph_to_tsq: T={t} outside [{T_MIN}, {T_MAX}]")
        return FluidState(p, h, t, _s_gas(p, t), QUALITY_SENTINEL)

    def ps_to_h(self, p: float, s: float) -> float:
        """Invert s(p, h) at fixed p (exact branch-wise inverse)."""
        if not P_MIN <= p <= P_MAX:
            raise FluidDomainError(f"ps_to_h: p={p} outside [{P_MIN}, {P_MAX}]")
        if self.has_dome(p):
            t_sat = _t_sat(p)
            hl = _h_liq(t_sat)
            lat = _latent_heat(t_sat)
            hv = hl + lat
            sv = _s_gas(p, _t_gas(hv))
            sl = sv - lat / t_sat
            if s > sv:
                t = _snap_t(
                    T_REF * math.exp((s + R_GAS * math.log(p / P_REF)) / CP_GAS))
                if t > T_MAX:
                    raise FluidDomainError(f"ps_to_h: gas T={t} above {T_MAX}")
                return _h_gas(t)
            if s >= sl:
                q = 1.0 - (sv - s) * t_sat / lat
                return hl + q * lat
            t = _snap_t(t_sat * math.exp((s - sl) / C_LIQ))
            if t < T_MIN:
                raise FluidDomainError(f"ps_to_h: liquid T={t} below {T_MIN}")
            return _h_liq(t)
        t = _snap_t(T_REF * math.exp((s + R_GAS * math.log(p / P_REF)) / CP_GAS))
        if not T_MIN <= t <= T_MAX:
            raise FluidDomainError(f"ps_to_h: T={t} outside [{T_MIN}, {T_MAX}]")
        return _h_gas(t)

    def h_from_pt(self, p: float, t: float) -> float:
        """Enthalpy at (p, T); picks the liquid branch below the dome."""
        if not P_MIN <= p <= P_MAX:
            raise FluidDomainError(f"h_from_pt: p={p} outside [{P_MIN}, {P_MAX}]")
        if not T_MIN <= t <= T_MAX:
            raise FluidDomainError(f"h_from_pt: T={t} outside [{T_MIN}, {T_MAX}]")
        if self.has_dome(p) and t < _t_sat(p):
            return _h_liq(t)
        return _h_gas(t)
