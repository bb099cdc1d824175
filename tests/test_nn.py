"""Dense-network machinery: forward math, gradients, Adam, serialization."""

import json

import numpy as np
import pytest

from cyclesynth import nn


def _linear_model(w=2.0, b=0.0):
    model = nn.init_mlp([1, 1], np.random.default_rng(0))
    model.weights[0][:] = w
    model.biases[0][:] = b
    return model


def test_hand_forward_single_affine_layer():
    model = _linear_model(w=2.0)
    assert nn.mlp_forward(model, np.array([1.0]))[0] == pytest.approx(2.0)
    assert nn.mlp_forward(model, np.array([-3.0]))[0] == pytest.approx(-6.0)


def test_hand_gradient_single_weight():
    # L = (w x - t)^2, dL/dw = 2 (w x - t) x
    model = _linear_model(w=2.0)
    x, t = 1.5, 1.0
    gw, gb, loss = nn.mlp_backward(model, np.array([[x]]), np.array([[t]]))
    err = 2.0 * x - t
    assert loss == pytest.approx(err ** 2)
    assert gw[0][0, 0] == pytest.approx(2.0 * err * x)
    assert gb[0][0] == pytest.approx(2.0 * err)


def test_relu_masks_negative_preactivations():
    model = nn.init_mlp([1, 1, 1], np.random.default_rng(0))
    model.weights[0][:] = -1.0
    model.biases[0][:] = 0.0
    model.weights[1][:] = 3.0
    assert nn.mlp_forward(model, np.array([2.0]))[0] == pytest.approx(0.0)
    assert nn.mlp_forward(model, np.array([-2.0]))[0] == pytest.approx(6.0)


def _finite_diff(loss_fn, params, eps=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            k = it.multi_index
            old = p[k]
            p[k] = old + eps
            up = loss_fn()
            p[k] = old - eps
            dn = loss_fn()
            p[k] = old
            g[k] = (up - dn) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    model = nn.init_mlp([3, 8, 2], rng)
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 2))

    def loss_fn():
        return nn.mlp_backward(model, x, t)[2]

    gw, gb, _ = nn.mlp_backward(model, x, t)
    fd = _finite_diff(loss_fn, model.weights + model.biases)
    for a, b in zip(gw + gb, fd):
        assert np.max(np.abs(a - b)) < 1e-4 * max(1.0, np.max(np.abs(b)))


def test_backward_from_output_grad_chains_to_inputs():
    rng = np.random.default_rng(7)
    model = nn.init_mlp([4, 6, 3], rng)
    model.in_lo[:] = [-1.0, 0.0, 2.0, -3.0]
    model.in_hi[:] = [1.0, 5.0, 2.5, 7.0]
    model.out_lo[:] = [-2.0, 0.1, 10.0]
    model.out_hi[:] = [1.0, 0.3, 17.0]
    x = rng.normal(size=4)
    d_out = rng.normal(size=(1, 3))
    _gw, _gb, d_in = nn.mlp_backward_from_output_grad(model, x, d_out)
    # a reference independent of the backward pass: central differences
    # of d_out . f(x), which is exact on the ReLU net's linear pieces
    fd = _finite_diff(lambda: float(d_out[0] @ nn.mlp_forward(model, x)),
                      [x])[0]
    assert np.allclose(d_in[0], fd, atol=1e-7)


def test_normalization_round_trip():
    model = nn.init_mlp([2, 4, 1], np.random.default_rng(3))
    model.in_lo[:] = [100.0, -5.0]
    model.in_hi[:] = [15000.0, 5.0]
    model.out_lo[:] = [200.0]
    model.out_hi[:] = [900.0]
    x = np.array([5000.0, 1.2])
    y = nn.mlp_forward(model, x)
    # normalized targets equal to the net's own output give zero loss
    _gw, _gb, loss = nn.mlp_backward(model, x, y)
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_adam_first_step_is_signed_lr():
    params = [np.array([1.0, -2.0])]
    grads = [np.array([0.3, -0.7])]
    state = nn.AdamState.for_params(params)
    out = nn.adam_step(params, grads, state, lr=0.01)
    # with bias correction the first step is lr * g / (|g| + eps)
    assert np.allclose(out[0], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)
    assert state.t == 1


def test_adam_accumulates_moments():
    params = [np.zeros(1)]
    state = nn.AdamState.for_params(params)
    p = params
    for _ in range(10):
        p = nn.adam_step(p, [np.array([1.0])], state, lr=0.1)
    assert p[0][0] == pytest.approx(-1.0, abs=1e-4)
    assert state.t == 10


def test_save_load_round_trip_is_exact(tmp_path):
    model = nn.init_mlp([2, 5, 3], np.random.default_rng(11), schema="PS2H")
    model.in_lo[:] = [100.0, -2.0]
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    loaded = nn.load_model(path)
    assert loaded.layer_dims == model.layer_dims
    assert loaded.schema == "PS2H"
    for a, b in zip(loaded.weights + loaded.biases,
                    model.weights + model.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.in_lo, model.in_lo)


def test_load_rejects_truncated_file(tmp_path):
    model = nn.init_mlp([2, 3, 1], np.random.default_rng(0))
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"version": "mlpv0"}))
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)


def test_load_rejects_shape_mismatch(tmp_path):
    model = nn.init_mlp([2, 3, 1], np.random.default_rng(0))
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    doc = json.loads(path.read_text())
    doc["layer_dims"] = [2, 4, 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)


@pytest.mark.parametrize("n_weights", [1, 3])
def test_load_rejects_layer_count_mismatch(tmp_path, n_weights):
    # one weight array too few, or one too many, for two layers
    model = nn.init_mlp([2, 3, 1], np.random.default_rng(0))
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    doc = json.loads(path.read_text())
    doc["weights"] = (doc["weights"] * 2)[:n_weights]
    path.write_text(json.dumps(doc))
    with pytest.raises(nn.ModelFormatError, match="weight and 2 bias"):
        nn.load_model(path)


def test_load_rejects_non_finite(tmp_path):
    model = nn.init_mlp([1, 2, 1], np.random.default_rng(0))
    model.weights[0][0, 0] = np.inf
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    with pytest.raises(nn.ModelFormatError):
        nn.load_model(path)


def test_forward_rejects_wrong_input_dim():
    model = nn.init_mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.mlp_forward(model, np.zeros(4))


@pytest.mark.parametrize("norm", ["input_norm", "output_norm"])
def test_load_rejects_normalization_of_the_wrong_width(tmp_path, norm):
    # a 2-input PS2H network with one lo/hi pair, which numpy would
    # broadcast over both inputs, and a second output pair it lacks
    model = nn.init_mlp([2, 5, 1], np.random.default_rng(11), schema="PS2H")
    path = tmp_path / "model.json"
    nn.save_model(model, path)
    doc = json.loads(path.read_text())
    doc[norm] = ({"lo": [100.0], "hi": [15000.0]} if norm == "input_norm"
                 else {"lo": [0.0, 0.0], "hi": [1.0, 1.0]})
    path.write_text(json.dumps(doc))
    with pytest.raises(nn.ModelFormatError, match=f"{norm} lo/hi need"):
        nn.load_model(path)
