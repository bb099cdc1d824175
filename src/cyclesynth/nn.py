"""Minimal dense-network machinery: ReLU MLPs, manual backprop, Adam.

Hidden layers are affine + ReLU, the output layer is affine only.
Models carry per-feature affine normalization for inputs and outputs;
normalization is applied on the way in and inverted on the way out.
Serialization uses a JSON "mlpv1" container.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MODEL_FORMAT_VERSION = "mlpv1"


class ModelFormatError(ValueError):
    """Raised when a weights file cannot be parsed as an mlpv1 model."""


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class MlpModel:
    """Fully-connected ReLU network with affine I/O normalization.

    weights[i] has shape (layer_dims[i], layer_dims[i+1]); input features
    are scaled by (x - in_lo) / (in_hi - in_lo) and raw outputs are
    recovered as y_norm * (out_hi - out_lo) + out_lo.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    in_lo: np.ndarray
    in_hi: np.ndarray
    out_lo: np.ndarray
    out_hi: np.ndarray
    schema: str = ""

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = self.n_layers
        self.weights = [p.reshape(w.shape) for p, w in zip(params[:n], self.weights)]
        self.biases = [p.reshape(b.shape) for p, b in zip(params[n:], self.biases)]


def init_mlp(layer_dims: list[int], rng: np.random.Generator,
             schema: str = "") -> MlpModel:
    """He-style initialization with identity normalization."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    d_in, d_out = layer_dims[0], layer_dims[-1]
    return MlpModel(list(layer_dims), weights, biases,
                    np.zeros(d_in), np.ones(d_in),
                    np.zeros(d_out), np.ones(d_out), schema)


def _normalize_in(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return (x - model.in_lo) / (model.in_hi - model.in_lo)


def normalize_targets(model: MlpModel, y: np.ndarray) -> np.ndarray:
    return (y - model.out_lo) / (model.out_hi - model.out_lo)


def _forward_cached(model: MlpModel, x: np.ndarray):
    """Forward pass in normalized space, keeping layer activations."""
    acts = [_normalize_in(model, np.atleast_2d(x))]
    for i in range(model.n_layers):
        z = acts[-1] @ model.weights[i] + model.biases[i]
        if i < model.n_layers - 1:
            z = relu(z)
        acts.append(z)
    return acts


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a single vector or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != model.layer_dims[0]:
        raise ValueError(
            f"input dim {x.shape[-1]} != model input dim {model.layer_dims[0]}")
    out_n = _forward_cached(model, x)[-1]
    out = out_n * (model.out_hi - model.out_lo) + model.out_lo
    return out[0] if single else out


def _backprop(model: MlpModel, acts: list[np.ndarray], delta: np.ndarray):
    """Propagate an output-side gradient through the layers.

    delta is dL/d(pre-activation of output layer); returns per-layer
    weight/bias gradients and dL/d(normalized input).
    """
    grads_w = [np.empty(0)] * model.n_layers
    grads_b = [np.empty(0)] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (acts[i] > 0)
    return grads_w, grads_b, delta


def mlp_backward(model: MlpModel, inputs: np.ndarray, targets: np.ndarray):
    """Gradients of the normalized-target MSE loss wrt every W_i, b_i.

    Loss is mean over samples of the summed squared error across output
    features, computed in the model's normalized output space.  Returns
    (grads_w, grads_b, loss).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[-1] != model.layer_dims[-1]:
        raise ValueError(
            f"target dim {targets.shape[-1]} != model output dim "
            f"{model.layer_dims[-1]}")
    acts = _forward_cached(model, inputs)
    t_n = normalize_targets(model, targets)
    err = acts[-1] - t_n
    n = inputs.shape[0]
    loss = float(np.sum(err ** 2) / n)
    grads_w, grads_b, _ = _backprop(model, acts, 2.0 * err / n)
    return grads_w, grads_b, loss


def mlp_backward_from_output_grad(model: MlpModel, inputs: np.ndarray,
                                  d_out: np.ndarray):
    """Backprop an arbitrary dL/d(raw output) through the network.

    Returns (grads_w, grads_b, d_inputs) where d_inputs is dL/d(raw
    input), usable to chain gradients into an upstream network.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    d_out = np.atleast_2d(np.asarray(d_out, dtype=float))
    acts = _forward_cached(model, inputs)
    delta = d_out * (model.out_hi - model.out_lo)
    grads_w, grads_b, d_norm = _backprop(model, acts, delta)
    return grads_w, grads_b, d_norm / (model.in_hi - model.in_lo)


@dataclass
class AdamState:
    """First/second moment accumulators for a list of parameter arrays."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], 0)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float,
              betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8) -> list[np.ndarray]:
    """One bias-corrected Adam update; mutates state, returns new params."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1 ** t)
        v_hat = state.v[i] / (1 - b2 ** t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def save_model(model: MlpModel, path) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "schema": model.schema,
        "layer_dims": model.layer_dims,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_norm": {"lo": model.in_lo.tolist(), "hi": model.in_hi.tolist()},
        "output_norm": {"lo": model.out_lo.tolist(), "hi": model.out_hi.tolist()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> MlpModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a valid mlpv1 file: {exc}") from exc
    try:
        if doc["version"] != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported version {doc['version']!r}")
        dims = [int(d) for d in doc["layer_dims"]]
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        model = MlpModel(
            dims, weights, biases,
            np.asarray(doc["input_norm"]["lo"], dtype=float),
            np.asarray(doc["input_norm"]["hi"], dtype=float),
            np.asarray(doc["output_norm"]["lo"], dtype=float),
            np.asarray(doc["output_norm"]["hi"], dtype=float),
            doc.get("schema", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed mlpv1 document: {exc}") from exc
    check_layers(dims, model.weights, model.biases)
    for name, width, lo, hi in (
            ("input_norm", dims[0], model.in_lo, model.in_hi),
            ("output_norm", dims[-1], model.out_lo, model.out_hi)):
        if lo.shape != (width,) or hi.shape != (width,):
            raise ModelFormatError(
                f"{name} lo/hi need {width} entries each, "
                f"got shapes {lo.shape} and {hi.shape}")
    return model


def check_layers(dims: list[int], weights: list[np.ndarray],
                 biases: list[np.ndarray]) -> None:
    """Raise ModelFormatError unless the layers have the shapes that dims
    give them and every parameter is finite."""
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ModelFormatError(
            f"{len(weights)} weight and {len(biases)} bias arrays for "
            f"{len(dims) - 1} layers")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
            raise ModelFormatError(f"layer {i} shape mismatch")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelFormatError(f"layer {i} has non-finite parameters")
