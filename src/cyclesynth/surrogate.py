"""Neural property surrogate: datasets, training pipeline, wrapper fluid.

Four independent networks mirror the property maps of the analytic
reference fluid:

    PH2TSQ   (p, h) -> (T, s, Q)
    PS2H     (p, s) -> h
    P2TH_SAT p -> (T_sat, h_liq, h_vap)
    T2P_SAT  T -> p_sat

Training data is sampled quasi-uniformly (scrambled Sobol) over the
fluid domain box, targets come from the closed-form fluid, and training
follows Adam with plateau-halving learning rate and early stopping.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from . import fluids, nn, sobol
from .fluids import AnalyticFluid, ClampedEvalMixin, FluidState

SCHEMAS = {
    "PH2TSQ": (("p", "h"), ("T", "s", "Q")),
    "PS2H": (("p", "s"), ("h",)),
    "P2TH_SAT": (("p",), ("T_sat", "h_liq", "h_vap")),
    "T2P_SAT": (("T",), ("p_sat",)),
}

# Multi-target schemas are trained per column (see train_surrogate) and
# may give each column its own widths; the discontinuous vapor-quality
# column needs little capacity while dragging joint training down.
DEFAULT_HIDDEN = {
    "PH2TSQ": {"T": [128, 128, 64], "s": [128, 128, 64], "Q": [32, 32, 16]},
    "PS2H": [256, 256, 128],
    "P2TH_SAT": [128, 128, 64],
    "T2P_SAT": [128, 128, 64],
}

# Relative-error histogram intervals, in percent.
ERROR_BINS_PCT = [(0.0, 0.01), (0.01, 0.05), (0.05, 0.1),
                  (0.1, 0.5), (0.5, 1.0), (1.0, float("inf"))]


@dataclass
class PropertyDataset:
    """Rows of (input, target) pairs for one surrogate schema."""

    schema: str
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {self.schema!r}")
        in_cols, out_cols = SCHEMAS[self.schema]
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("input/target row count mismatch")
        if self.inputs.shape[1] != len(in_cols):
            raise ValueError(f"{self.schema} expects {len(in_cols)} input columns")
        if self.targets.shape[1] != len(out_cols):
            raise ValueError(f"{self.schema} expects {len(out_cols)} target columns")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class TrainConfig:
    max_epochs: int = 500
    patience: int = 20
    initial_lr: float = 1e-3
    lr_halving_patience: int = 5
    batch_size: int = 256
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self) -> None:
        if not 0 < self.patience < self.max_epochs:
            raise ValueError("need 0 < patience < max_epochs")
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


def generate_dataset(fluid: AnalyticFluid, schema: str, n: int,
                     seed: int) -> PropertyDataset:
    """n quasi-uniform samples over the domain box, targets closed-form."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    if n <= 0:
        raise ValueError("n must be positive")
    dim = 2 if schema in ("PH2TSQ", "PS2H") else 1
    sampler = sobol.Sobol(dim, seed)
    u = sampler.random(n)
    if schema in ("PH2TSQ", "PS2H"):
        p = fluids.P_MIN + u[:, 0] * (fluids.P_MAX - fluids.P_MIN)
        rows_in, rows_out = [], []
        for pi, ui in zip(p, u[:, 1]):
            lo, hi = fluid.h_bounds(pi)
            hi_ = lo + ui * (hi - lo)
            st = fluid.ph_to_tsq(pi, hi_)
            if schema == "PH2TSQ":
                rows_in.append((pi, hi_))
                rows_out.append((st.T, st.s, st.Q))
            else:
                rows_in.append((pi, st.s))
                rows_out.append((hi_,))
        return PropertyDataset(schema, np.array(rows_in), np.array(rows_out))
    if schema == "P2TH_SAT":
        p = fluid.p_dome_min + u[:, 0] * (fluids.P_CRIT - fluid.p_dome_min)
        rows = [fluid.p_to_sat(pi) for pi in p]
        return PropertyDataset(schema, p[:, None], np.array(rows))
    t = fluids.T_MIN + u[:, 0] * (fluids.T_CRIT - fluids.T_MIN)
    psat = np.array([fluid.t_to_psat(ti) for ti in t])
    return PropertyDataset(schema, t[:, None], psat[:, None])


def relative_errors(pred: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Per-column scaled relative error |pred - true| / denom.

    The denominator is |true| floored at 10% of the column's value range
    so that targets crossing zero (entropy) do not make the metric
    degenerate.
    """
    pred = np.atleast_2d(pred)
    true = np.atleast_2d(true)
    span = true.max(axis=0) - true.min(axis=0)
    floor = np.maximum(0.1 * span, 1e-12)
    denom = np.maximum(np.abs(true), floor)
    return np.abs(pred - true) / denom


@dataclass
class ErrorReport:
    """Held-out relative-error histogram, one row per target column."""

    target_names: list[str]
    histogram: np.ndarray          # (n_targets, len(ERROR_BINS_PCT)) fractions
    rel_errors: np.ndarray         # (n_samples, n_targets)
    epochs_run: int = 0
    best_val_loss: float = float("nan")

    def frac_within(self, pct: float) -> np.ndarray:
        """Fraction of samples with relative error below pct percent."""
        return (self.rel_errors < pct / 100.0).mean(axis=0)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["relative_error_range_pct"] + self.target_names)
            for (lo, hi), row in zip(ERROR_BINS_PCT, self.histogram.T):
                label = f"({lo},{hi}]" if np.isfinite(hi) else f"({lo},inf)"
                w.writerow([label] + [f"{v:.6f}" for v in row])


def _histogram(rel: np.ndarray) -> np.ndarray:
    out = np.zeros((rel.shape[1], len(ERROR_BINS_PCT)))
    pct = rel * 100.0
    for j, (lo, hi) in enumerate(ERROR_BINS_PCT):
        out[:, j] = ((pct > lo) & (pct <= hi)).mean(axis=0)
    out[:, 0] += (pct == 0.0).mean(axis=0)
    return out


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite during training."""


def _fit_network(x_tr: np.ndarray, y_tr: np.ndarray,
                 x_va: np.ndarray, y_va: np.ndarray,
                 dims: list[int], cfg: TrainConfig,
                 rng: np.random.Generator,
                 schema: str) -> tuple[nn.MlpModel, float, int]:
    """Adam fit of one network; returns (model, best_val_loss, epochs_run)."""
    n_tr = len(x_tr)
    model = nn.init_mlp(dims, rng, schema=schema)
    model.in_lo = x_tr.min(axis=0)
    model.in_hi = np.maximum(x_tr.max(axis=0), model.in_lo + 1e-12)
    model.out_lo = y_tr.min(axis=0)
    model.out_hi = np.maximum(y_tr.max(axis=0), model.out_lo + 1e-12)

    params = model.parameters()
    adam = nn.AdamState.for_params(params)
    lr = cfg.initial_lr
    best_val = float("inf")
    best_params = [p.copy() for p in params]
    epochs_since_best = 0
    plateau = 0
    epochs_run = 0

    def val_loss() -> float:
        pred = nn.mlp_forward(model, x_va)
        err = nn.normalize_targets(model, pred) - nn.normalize_targets(model, y_va)
        return float(np.sum(err ** 2) / len(x_va))

    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_tr)
        for start in range(0, n_tr, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            gw, gb, loss = nn.mlp_backward(model, x_tr[batch], y_tr[batch])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, lr={lr}")
            params = nn.adam_step(params, gw + gb, adam, lr,
                                  cfg.adam_betas, cfg.adam_eps)
            model.set_parameters(params)
        vl = val_loss()
        if not np.isfinite(vl):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        if vl < best_val - 1e-12:
            best_val = vl
            best_params = [p.copy() for p in params]
            epochs_since_best = 0
            plateau = 0
        else:
            epochs_since_best += 1
            plateau += 1
            if plateau >= cfg.lr_halving_patience:
                lr *= 0.5
                plateau = 0
            if epochs_since_best >= cfg.patience:
                break

    model.set_parameters(best_params)
    return model, best_val, epochs_run


def _merge_single_output_models(parts: list[nn.MlpModel],
                                schema: str) -> nn.MlpModel:
    """Combine per-column networks into one block-diagonal network.

    All parts must share the input normalization and have the same depth.
    The merged network evaluates every part in parallel: the first layer
    stacks the parts side by side, hidden layers are block diagonal, and
    the output layer routes each block to its own output column, so the
    merged forward pass reproduces each part's scalar prediction exactly.
    """
    depths = {m.n_layers for m in parts}
    if len(depths) != 1:
        raise ValueError("per-column hidden sizes must have equal depth")
    n_layers = depths.pop()
    weights = [np.hstack([m.weights[0] for m in parts])]
    biases = [np.concatenate([m.biases[0] for m in parts])]
    for i in range(1, n_layers):
        weights.append(block_diag(*(m.weights[i] for m in parts)))
        biases.append(np.concatenate([m.biases[i] for m in parts]))
    dims = ([parts[0].layer_dims[0]]
            + [w.shape[1] for w in weights[:-1]]
            + [len(parts)])
    return nn.MlpModel(
        dims, weights, biases,
        parts[0].in_lo.copy(), parts[0].in_hi.copy(),
        np.concatenate([m.out_lo for m in parts]),
        np.concatenate([m.out_hi for m in parts]),
        schema,
    )


def train_surrogate(dataset: PropertyDataset, cfg: TrainConfig,
                    hidden: list[int] | dict[str, list[int]] | None = None,
                    seed: int = 0) -> tuple[nn.MlpModel, ErrorReport]:
    """Train one surrogate network and report held-out error statistics.

    Each output column is trained as its own network and the per-column
    networks are merged into a single block-diagonal network (one part
    for a single-target schema): trained jointly, a discontinuous column
    (vapor quality) drags down the smooth ones through the shared hidden
    layers.  `hidden` may be a single layer-width list (used for every
    column) or a dict mapping target-column name to a list; all lists
    must have the same depth.
    """
    in_cols, out_cols = SCHEMAS[dataset.schema]
    if hidden is None:
        hidden = DEFAULT_HIDDEN[dataset.schema]
    n = len(dataset)
    f_tr, f_va, _ = cfg.split_fractions
    n_tr = int(round(n * f_tr))
    n_va = int(round(n * f_va))
    if n_tr < 1 or n_va < 1 or n - n_tr - n_va < 1:
        raise ValueError("dataset too small for the requested split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    idx_tr, idx_va = perm[:n_tr], perm[n_tr:n_tr + n_va]
    idx_te = perm[n_tr + n_va:]
    x_tr, y_tr = dataset.inputs[idx_tr], dataset.targets[idx_tr]
    x_va, y_va = dataset.inputs[idx_va], dataset.targets[idx_va]
    x_te, y_te = dataset.inputs[idx_te], dataset.targets[idx_te]

    def widths_for(col: str) -> list[int]:
        return list(hidden[col] if isinstance(hidden, dict) else hidden)

    parts, vals, epochs = [], [], []
    for j, col in enumerate(out_cols):
        dims = [len(in_cols)] + widths_for(col) + [1]
        part, bv, er = _fit_network(
            x_tr, y_tr[:, j:j + 1], x_va, y_va[:, j:j + 1],
            dims, cfg, rng, dataset.schema)
        parts.append(part)
        vals.append(bv)
        epochs.append(er)
    model = _merge_single_output_models(parts, dataset.schema)
    # the joint validation loss sums over output features, so the
    # per-column best losses add up
    best_val = float(sum(vals))
    epochs_run = max(epochs)

    pred_te = nn.mlp_forward(model, x_te)
    rel = relative_errors(pred_te, y_te)
    report = ErrorReport(list(out_cols), _histogram(rel), rel,
                         epochs_run, best_val)
    return model, report


class SurrogateFluid(ClampedEvalMixin):
    """Fluid-property interface backed by the four trained networks."""

    def __init__(self, ph2tsq: nn.MlpModel, ps2h: nn.MlpModel,
                 p2th_sat: nn.MlpModel, t2p_sat: nn.MlpModel) -> None:
        self.models = {"PH2TSQ": ph2tsq, "PS2H": ps2h,
                       "P2TH_SAT": p2th_sat, "T2P_SAT": t2p_sat}
        self.p_dome_min = self.t_to_psat(fluids.T_MIN)
        self._reference = AnalyticFluid()

    @classmethod
    def from_paths(cls, paths: dict[str, str]) -> "SurrogateFluid":
        """Load the four networks, each checked against its schema's
        name and input/output widths, so that no file fills a slot that
        is not its own."""
        models = []
        for schema in ("PH2TSQ", "PS2H", "P2TH_SAT", "T2P_SAT"):
            if schema not in paths:
                raise nn.ModelFormatError(f"no {schema} model path given")
            model = nn.load_model(paths[schema])
            in_cols, out_cols = SCHEMAS[schema]
            got = (model.schema, model.layer_dims[0], model.layer_dims[-1])
            if got != (schema, len(in_cols), len(out_cols)):
                raise nn.ModelFormatError(
                    f"{paths[schema]}: schema {got[0]!r} with {got[1]} "
                    f"inputs and {got[2]} outputs, where {schema} needs "
                    f"{len(in_cols)} and {len(out_cols)}")
            models.append(model)
        return cls(*models)

    def has_dome(self, p: float) -> bool:
        return self.p_dome_min <= p < fluids.P_CRIT

    def h_bounds(self, p: float) -> tuple[float, float]:
        # The domain box is a declared constant of the artifact, not a
        # property prediction; reuse the closed-form bounds.
        return self._reference.h_bounds(p)

    def ph_to_tsq(self, p: float, h: float) -> FluidState:
        if not fluids.P_MIN <= p <= fluids.P_MAX:
            raise fluids.FluidDomainError(f"ph_to_tsq: p={p} out of domain")
        t, s, q = nn.mlp_forward(self.models["PH2TSQ"], np.array([p, h]))
        q = fluids.QUALITY_SENTINEL if q < -0.05 else float(np.clip(q, 0.0, 1.0))
        return FluidState(p, h, float(t), float(s), q)

    def ps_to_h(self, p: float, s: float) -> float:
        if not fluids.P_MIN <= p <= fluids.P_MAX:
            raise fluids.FluidDomainError(f"ps_to_h: p={p} out of domain")
        return float(nn.mlp_forward(self.models["PS2H"], np.array([p, s]))[0])

    def p_to_sat(self, p: float) -> tuple[float, float, float]:
        if not self.p_dome_min <= p <= fluids.P_CRIT:
            raise fluids.FluidDomainError(f"p_to_sat: p={p} off the dome")
        t, hl, hv = nn.mlp_forward(self.models["P2TH_SAT"], np.array([p]))
        return float(t), float(hl), float(hv)

    def t_to_psat(self, t: float) -> float:
        if not fluids.T_MIN <= t <= fluids.T_CRIT:
            raise fluids.FluidDomainError(f"t_to_psat: T={t} off the dome")
        return float(nn.mlp_forward(self.models["T2P_SAT"], np.array([t]))[0])

    def h_from_pt(self, p: float, t: float) -> float:
        """Invert T(p, h) by bisection on the vapor/supercritical branch."""
        lo, hi = self.h_bounds(p)
        if self.has_dome(p):
            t_sat, hl, hv = self.p_to_sat(p)
            if t < t_sat:
                lo, hi = lo, hl
            else:
                lo, hi = hv, hi
        f = lambda h: self.ph_to_tsq(p, h).T - t
        f_lo, f_hi = f(lo), f(hi)
        if f_lo > 0:
            return lo
        if f_hi < 0:
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
