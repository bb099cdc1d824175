"""The scrambled Sobol' engine: scipy's points, bit for bit, without scipy.

`test_matches_scipy_engine` and `test_dataset_matches_scipy_engine`
compare against the installed scipy; the other tests pin the engine on
any scipy version.
"""

import numpy as np
import pytest

from cyclesynth import sobol, surrogate
from cyclesynth.fluids import AnalyticFluid
from cyclesynth.seeding import substream

DRAWS = (1, 1, 1, 256, 3, 7)


def _draw(engine):
    return np.vstack([engine.random(n) for n in DRAWS])


def test_matches_scipy_engine():
    from scipy.stats import qmc

    def scipy_engine(d, rng):
        return qmc.Sobol(d, scramble=True, seed=rng)

    for d in range(1, sobol.MAX_DIM + 1):
        for seed in range(6):
            want = _draw(scipy_engine(d, seed))
            assert np.array_equal(_draw(sobol.Sobol(d, seed)), want)
            # three engines on one parent Generator, as the Worker makes
            # them; each spawns its own child
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(3):
                assert np.array_equal(_draw(sobol.Sobol(d, ours)),
                                      _draw(scipy_engine(d, theirs)))


def test_dataset_matches_scipy_engine(monkeypatch):
    from scipy.stats import qmc

    got = surrogate.generate_dataset(AnalyticFluid(), "PH2TSQ", 512, 3)
    monkeypatch.setattr(sobol, "Sobol",
                        lambda d, rng: qmc.Sobol(d, scramble=True, seed=rng))
    want = surrogate.generate_dataset(AnalyticFluid(), "PH2TSQ", 512, 3)
    assert np.array_equal(got.inputs, want.inputs)
    assert np.array_equal(got.targets, want.targets)


def test_golden_hex():
    # scipy 1.17.1's points for these seeds and draws
    first = sobol.Sobol(3, 11).random(2)
    assert [float(v).hex() for v in first.ravel()] == [
        "0x1.69f5874000000p-2", "0x1.f758fea000000p-2",
        "0x1.20b9862800000p-1", "0x1.c526056000000p-1",
        "0x1.5414b7c000000p-1", "0x1.6b19c30000000p-2"]
    worker_init = sobol.Sobol(2, substream(42, "worker", "init"))
    worker_init.random(3)
    assert [float(v).hex() for v in worker_init.random(2).ravel()] == [
        "0x1.bf5e61c000000p-1", "0x1.73a005f000000p-2",
        "0x1.c1cbd69000000p-1", "0x1.b4d2dbc000000p-1"]
    wide = sobol.Sobol(sobol.MAX_DIM, 0)
    wide.random(255)
    assert [float(v).hex() for v in wide.random(1)[0, [0, 1, 62, 63]]] == [
        "0x1.b0212c2000000p-1", "0x1.58f7b14000000p-4",
        "0x1.8f292f1000000p-1", "0x1.c71eb41800000p-1"]


def test_spawn_draws_from_a_child_of_the_generator():
    for seed in range(3):
        parent = np.random.default_rng(seed)
        for k in range(3):
            child = np.random.SeedSequence(seed, spawn_key=(k,))
            assert np.array_equal(_draw(sobol.Sobol(4, parent)),
                                  _draw(sobol.Sobol(4, child)))
        # the parent's own stream is not drawn from
        assert parent.random() == np.random.default_rng(seed).random()


def test_spawn_int_seed_is_not_spawned():
    unspawned = sobol.Sobol(2, np.random.SeedSequence(5))
    assert np.array_equal(_draw(sobol.Sobol(2, 5)), _draw(unspawned))
    assert not np.array_equal(sobol.Sobol(2, 5).random(4),
                              sobol.Sobol(2, np.random.default_rng(5)).random(4))


def test_draws_continue_one_sequence():
    whole = sobol.Sobol(5, 9).random(sum(DRAWS))
    engine = sobol.Sobol(5, 9)
    assert engine.random(0).shape == (0, 5)
    assert np.array_equal(_draw(engine), whole)
    assert engine.n_generated == sum(DRAWS)
    assert np.all((whole >= 0.0) & (whole < 1.0))


@pytest.mark.parametrize("d", [0, sobol.MAX_DIM + 1])
def test_dimension_outside_the_table_raises(d):
    with pytest.raises(ValueError, match="outside 1..64"):
        sobol.Sobol(d, 0)
