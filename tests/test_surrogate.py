"""Neural property surrogates: datasets, training loop, error reports."""

import numpy as np
import pytest

from cyclesynth import fluids, nn, surrogate
from cyclesynth.fluids import AnalyticFluid
from cyclesynth.surrogate import (
    ErrorReport, PropertyDataset, SurrogateFluid, TrainConfig,
    generate_dataset, relative_errors, train_surrogate,
)


@pytest.fixture(scope="module")
def fluid():
    return AnalyticFluid()


def test_dataset_shapes_and_domain(fluid):
    ds = generate_dataset(fluid, "PH2TSQ", 256, seed=0)
    assert len(ds) == 256
    assert ds.inputs.shape == (256, 2)
    assert ds.targets.shape == (256, 3)
    p, h = ds.inputs[:, 0], ds.inputs[:, 1]
    assert np.all((p >= fluids.P_MIN) & (p <= fluids.P_MAX))
    for pi, hi in zip(p, h):
        lo, hi_b = fluid.h_bounds(pi)
        assert lo - 1e-9 <= hi <= hi_b + 1e-9


def test_dataset_targets_match_oracle(fluid):
    ds = generate_dataset(fluid, "PS2H", 128, seed=1)
    for (p, s), (h,) in zip(ds.inputs[:20], ds.targets[:20]):
        assert fluid.ps_to_h(p, s) == pytest.approx(h, abs=1e-9)


def test_dataset_validation():
    with pytest.raises(ValueError):
        generate_dataset(AnalyticFluid(), "NOPE", 10, seed=0)
    with pytest.raises(ValueError):
        generate_dataset(AnalyticFluid(), "PS2H", 0, seed=0)
    with pytest.raises(ValueError):
        PropertyDataset("PS2H", np.zeros((4, 1)), np.zeros((4, 1)))


def test_relative_errors_floor_guards_zero_targets():
    true = np.array([[0.0], [10.0]])
    pred = np.array([[0.5], [10.0]])
    rel = relative_errors(pred, true)
    assert np.all(np.isfinite(rel))
    # denominator is floored at 10% of the column range (= 1.0 here)
    assert rel[0, 0] == pytest.approx(0.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(split_fractions=(0.5, 0.5, 0.5))


def _small_cfg():
    return TrainConfig(max_epochs=40, patience=10, batch_size=128)


def test_train_saturation_curve_surrogate(fluid):
    ds = generate_dataset(fluid, "T2P_SAT", 2048, seed=0)
    model, report = train_surrogate(ds, _small_cfg(), hidden=[32, 32],
                                    seed=0)
    assert isinstance(report, ErrorReport)
    assert report.epochs_run > 0
    # the 1-D curve is easy: most held-out points within a few percent
    frac = report.frac_within(5.0)
    assert frac[0] > 0.9
    pred = nn.mlp_forward(model, np.array([290.0]))
    assert pred[0] == pytest.approx(fluid.t_to_psat(290.0), rel=0.1)


def test_error_report_histogram_rows_sum_to_one(fluid):
    ds = generate_dataset(fluid, "T2P_SAT", 1024, seed=3)
    _model, report = train_surrogate(ds, _small_cfg(), hidden=[16, 16],
                                     seed=1)
    assert report.histogram.shape[1] == len(surrogate.ERROR_BINS_PCT)
    assert np.allclose(report.histogram.sum(axis=1), 1.0, atol=1e-9)


def test_error_report_csv(tmp_path, fluid):
    ds = generate_dataset(fluid, "T2P_SAT", 512, seed=4)
    _model, report = train_surrogate(ds, _small_cfg(), hidden=[16, 16],
                                     seed=0)
    path = tmp_path / "errors.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(surrogate.ERROR_BINS_PCT)


def test_block_diagonal_merge_matches_parts():
    rng = np.random.default_rng(0)
    parts = []
    for k in range(3):
        m = nn.init_mlp([2, 8, 5, 1], rng, schema="PH2TSQ")
        m.in_lo, m.in_hi = np.array([0.0, -1.0]), np.array([2.0, 3.0])
        m.out_lo, m.out_hi = np.array([float(k)]), np.array([k + 2.0])
        parts.append(m)
    merged = surrogate._merge_single_output_models(parts, "PH2TSQ")
    assert merged.layer_dims == [2, 24, 15, 3]
    x = rng.uniform(-1.0, 3.0, size=(40, 2))
    want = np.hstack([np.atleast_2d(nn.mlp_forward(m, x)) for m in parts])
    assert np.allclose(nn.mlp_forward(merged, x), want, atol=1e-12)


def test_merge_rejects_mismatched_depths():
    rng = np.random.default_rng(1)
    a = nn.init_mlp([2, 8, 1], rng)
    b = nn.init_mlp([2, 8, 8, 1], rng)
    with pytest.raises(ValueError, match="depth"):
        surrogate._merge_single_output_models([a, b], "PH2TSQ")


def test_per_column_hidden_dict(fluid):
    ds = generate_dataset(fluid, "P2TH_SAT", 1024, seed=6)
    cfg = TrainConfig(max_epochs=10, patience=4, batch_size=256)
    model, _report = train_surrogate(
        ds, cfg, hidden={"T_sat": [16], "h_liq": [8], "h_vap": [8]}, seed=0)
    assert model.layer_dims == [1, 32, 3]


def test_training_is_deterministic(fluid):
    ds = generate_dataset(fluid, "T2P_SAT", 512, seed=5)
    cfg = TrainConfig(max_epochs=12, patience=5, batch_size=128)
    m1, _ = train_surrogate(ds, cfg, hidden=[16], seed=9)
    m2, _ = train_surrogate(ds, cfg, hidden=[16], seed=9)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a, b)


def test_surrogate_fluid_interface(fluid, tmp_path):
    cfg = TrainConfig(max_epochs=20, patience=8, batch_size=256)
    models = {}
    for schema, n in [("PH2TSQ", 4096), ("PS2H", 4096),
                      ("P2TH_SAT", 1024), ("T2P_SAT", 1024)]:
        ds = generate_dataset(fluid, schema, n, seed=0)
        models[schema], _ = train_surrogate(ds, cfg, hidden=[32, 32], seed=0)
        nn.save_model(models[schema], tmp_path / f"{schema}.json")
    sf = SurrogateFluid.from_paths(
        {s: str(tmp_path / f"{s}.json") for s in models})
    st, clamped = sf.ph_to_tsq_clamped(200.0, 300.0)
    assert np.isfinite(st.T) and np.isfinite(st.s)
    assert not clamped
    h, _ = sf.ps_to_h_clamped(200.0, 0.0)
    assert np.isfinite(h)
    assert sf.has_dome(2000.0)
    t, hl, hv = sf.p_to_sat(2000.0)
    assert hl < hv and np.isfinite(t)
    lo, hi = sf.h_bounds(200.0)
    assert lo < hi


def _untrained_model_files(tmp_path, **dims):
    """One small untrained network per schema; dims overrides a schema's
    layer widths."""
    paths = {}
    rng = np.random.default_rng(0)
    for schema, (in_cols, out_cols) in surrogate.SCHEMAS.items():
        layer_dims = dims.get(schema, [len(in_cols), 4, len(out_cols)])
        path = tmp_path / f"{schema}.json"
        nn.save_model(nn.init_mlp(layer_dims, rng, schema=schema), path)
        paths[schema] = str(path)
    return paths


def test_from_paths_rejects_swapped_files(tmp_path):
    paths = _untrained_model_files(tmp_path)
    SurrogateFluid.from_paths(paths)
    swapped = dict(paths, PH2TSQ=paths["PS2H"], PS2H=paths["PH2TSQ"])
    with pytest.raises(nn.ModelFormatError,
                       match="schema 'PS2H' with 2 inputs and 1 outputs, "
                             "where PH2TSQ needs 2 and 3"):
        SurrogateFluid.from_paths(swapped)


def test_from_paths_rejects_wrong_widths(tmp_path):
    paths = _untrained_model_files(tmp_path, T2P_SAT=[1, 4, 3])
    with pytest.raises(nn.ModelFormatError, match="T2P_SAT needs 1 and 1"):
        SurrogateFluid.from_paths(paths)


def test_from_paths_names_a_missing_schema(tmp_path):
    paths = _untrained_model_files(tmp_path)
    del paths["P2TH_SAT"]
    with pytest.raises(nn.ModelFormatError, match="no P2TH_SAT model path"):
        SurrogateFluid.from_paths(paths)
