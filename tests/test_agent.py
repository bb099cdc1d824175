"""PPO machinery: masked distributions, reward math, gradients, training."""

import json
import math

import numpy as np
import pytest

from cyclesynth import agent, decoder, grammar, nn, worker
from cyclesynth.agent import (
    ActorCritic, EliteEntry, EliteMemory, PpoConfig, backprop_performance,
    discounted_return, elite_loss_and_grads, masked_entropy,
    masked_log_softmax, normalized_advantages, ppo_loss_and_grads,
    returns_to_go, total_loss, train_manager,
)
from cyclesynth.seeding import substream


# -- masked categorical --------------------------------------------------

def test_masked_softmax_zeroes_illegal():
    logp, probs = masked_log_softmax(np.array([1.0, 2.0, 3.0]),
                                     np.array([True, False, True]))
    assert probs[0, 1] == 0.0
    assert logp[0, 1] == -np.inf
    z = math.exp(1.0) + math.exp(3.0)
    assert probs[0, 0] == pytest.approx(math.exp(1.0) / z)
    assert probs[0].sum() == pytest.approx(1.0)


def test_masked_entropy_uniform_is_log_k():
    logits = np.zeros((1, 6))
    mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=bool)
    logp, probs = masked_log_softmax(logits, mask)
    assert masked_entropy(logp, probs)[0] == pytest.approx(math.log(4.0),
                                                           abs=1e-12)


def test_masked_entropy_deterministic_is_zero():
    logits = np.array([[100.0, 0.0, 0.0]])
    mask = np.ones((1, 3), dtype=bool)
    logp, probs = masked_log_softmax(logits, mask)
    assert masked_entropy(logp, probs)[0] == pytest.approx(0.0, abs=1e-12)


# -- reward arithmetic ---------------------------------------------------

def test_discounted_return_hand_values():
    assert discounted_return([1, 1, 1], 1.0) == pytest.approx(3.0)
    assert discounted_return([0, 0, 1], 0.5) == pytest.approx(0.25)
    assert discounted_return([], 0.9) == 0.0


def test_backprop_performance_hand_value():
    shaped = backprop_performance([0.0, 0.0, 0.0], perf=5.0, alpha=0.9,
                                  gamma=0.99)
    assert shaped[0] == pytest.approx(0.9 * 0.99 ** 2 * 5.0, abs=1e-12)
    assert shaped[0] == pytest.approx(4.41045, abs=1e-12)
    assert shaped[2] == pytest.approx(4.5, abs=1e-12)


def test_backprop_performance_edge_cases():
    r = [0.1, -0.2]
    assert backprop_performance(r, 3.0, alpha=0.0, gamma=0.9) == r
    uniform = backprop_performance([0.0, 0.0], 2.0, alpha=0.5, gamma=1.0)
    assert uniform == [1.0, 1.0]


def test_returns_to_go_recursion():
    rng = np.random.default_rng(0)
    rewards = list(rng.normal(size=7))
    gamma = 0.93
    gts = returns_to_go(rewards, gamma)
    for t in range(len(rewards)):
        assert gts[t] == pytest.approx(
            discounted_return(rewards[t:], gamma), abs=1e-12)


def test_normalized_advantages():
    returns = np.array([1.0, 2.0, 3.0])
    values = np.array([0.0, 0.0, 0.0])
    adv = normalized_advantages(returns, values)
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0, abs=1e-12)
    flat = normalized_advantages(np.full(4, 2.0), np.zeros(4))
    assert np.allclose(flat, 0.0)


def test_total_loss_arithmetic():
    assert total_loss(2.0, 1.0, 0.1) == pytest.approx(2.1)
    assert total_loss(5.0, 99.0, 0.0) == 5.0


# -- PPO loss ------------------------------------------------------------

def _tiny_model(obs_dim=4, n_actions=5, seed=0):
    return ActorCritic(obs_dim, n_actions, np.random.default_rng(seed))


def test_clip_hand_example():
    # ratio 1.4 with eps = 0.2 clips the surrogate to 1.2 * A
    model = _tiny_model()
    obs = np.zeros((1, 4))
    mask = np.ones((1, 5), dtype=bool)
    logits, _v, _f = model.forward(obs)
    logp, _p = masked_log_softmax(logits, mask)
    a = 2
    old_logp = np.array([logp[0, a] - math.log(1.4)])
    cfg = PpoConfig(value_weight=0.0)
    parts, _ = ppo_loss_and_grads(model, obs, [a], mask, old_logp,
                                  np.array([1.0]), np.array([0.0]), cfg, 0.0)
    assert parts.policy == pytest.approx(-1.2, abs=1e-9)


def test_ratio_one_policy_term_is_minus_advantage():
    model = _tiny_model(seed=3)
    obs = np.random.default_rng(1).normal(size=(4, 4))
    mask = np.ones((4, 5), dtype=bool)
    logits, _v, _f = model.forward(obs)
    logp, _p = masked_log_softmax(logits, mask)
    actions = np.array([0, 1, 2, 3])
    old = logp[np.arange(4), actions]
    adv = np.array([0.5, -1.0, 2.0, 0.0])
    parts, _ = ppo_loss_and_grads(model, obs, actions, mask, old, adv,
                                  np.zeros(4), PpoConfig(), 0.0)
    assert parts.policy == pytest.approx(-float(np.mean(adv)), abs=1e-9)


def _flatten(params):
    return np.concatenate([p.ravel() for p in params])


def _fd_check(model, loss_fn, grads, rel_tol=1e-4):
    params = model.parameters()
    analytic = _flatten(grads)
    eps = 1e-6
    rng = np.random.default_rng(0)
    idxs = rng.choice(analytic.size, size=60, replace=False)
    offsets = np.cumsum([0] + [p.size for p in params])
    fd = {}
    for flat_k in idxs:
        arr_i = int(np.searchsorted(offsets, flat_k, side="right")) - 1
        local = flat_k - offsets[arr_i]
        p = params[arr_i]
        old = p.flat[local]
        p.flat[local] = old + eps
        model.set_parameters(params)
        up = loss_fn()
        p.flat[local] = old - eps
        model.set_parameters(params)
        dn = loss_fn()
        p.flat[local] = old
        model.set_parameters(params)
        fd[flat_k] = (up - dn) / (2 * eps)
    scale = max(1.0, np.max(np.abs(analytic)))
    for k, v in fd.items():
        assert abs(analytic[k] - v) < rel_tol * scale, (k, analytic[k], v)


def test_ppo_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = _tiny_model(obs_dim=3, n_actions=4, seed=9)
    obs = rng.normal(size=(6, 3))
    mask = np.ones((6, 4), dtype=bool)
    mask[0, 3] = False
    logits, values, _f = model.forward(obs)
    logp, _p = masked_log_softmax(logits, mask)
    actions = np.array([0, 1, 2, 0, 1, 2])
    old = logp[np.arange(6), actions].copy()
    adv = rng.normal(size=6)
    rets = rng.normal(size=6)
    cfg = PpoConfig()

    def loss_fn():
        parts, _ = ppo_loss_and_grads(model, obs, actions, mask, old, adv,
                                      rets, cfg, 0.05)
        return parts.total

    _parts, grads = ppo_loss_and_grads(model, obs, actions, mask, old, adv,
                                       rets, cfg, 0.05)
    _fd_check(model, loss_fn, grads)


def test_elite_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    model = _tiny_model(obs_dim=3, n_actions=4, seed=2)
    obs = rng.normal(size=(5, 3))
    mask = np.ones((5, 4), dtype=bool)
    actions = np.array([1, 0, 3, 2, 1])

    def loss_fn():
        return elite_loss_and_grads(model, obs, actions, mask)[0]

    _loss, grads = elite_loss_and_grads(model, obs, actions, mask)
    _fd_check(model, loss_fn, grads)


def test_elite_loss_uniform_policy_is_log_k():
    model = _tiny_model(obs_dim=2, n_actions=4, seed=0)
    # force exactly uniform logits
    model.policy_head.weights[0][:] = 0.0
    model.policy_head.biases[0][:] = 0.0
    obs = np.zeros((3, 2))
    mask = np.ones((3, 4), dtype=bool)
    loss, _ = elite_loss_and_grads(model, obs, [0, 1, 2], mask)
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


# -- elite memory --------------------------------------------------------

def _entry(key, perf):
    return EliteEntry(key, perf, [np.zeros(2)], [0],
                      [np.ones(3, dtype=bool)])


def test_elite_memory_keeps_top_k():
    mem = EliteMemory(2)
    for key, perf in [("a", 3.0), ("b", 5.0), ("c", 4.0)]:
        mem.update(_entry(key, perf))
    assert [e.performance for e in mem.entries] == [5.0, 4.0]
    assert [e.key for e in mem.entries] == ["b", "c"]


def test_elite_memory_deduplicates_by_key():
    mem = EliteMemory(4)
    mem.update(_entry("a", 1.0))
    mem.update(_entry("a", 3.0))
    mem.update(_entry("a", 2.0))     # worse duplicate ignored
    assert len(mem) == 1
    assert mem.entries[0].performance == 3.0


def test_elite_memory_pairs_concatenate():
    mem = EliteMemory(4)
    mem.update(_entry("a", 1.0))
    mem.update(_entry("b", 2.0))
    obs, actions, masks = mem.pairs()
    assert len(obs) == len(actions) == len(masks) == 2


# -- training loop on a bandit environment -------------------------------

class BanditEnv:
    """One-step environment: action 2 earns +1, everything else -1."""

    obs_dim = 4
    n_actions = 4

    def reset(self):
        return np.zeros(4), np.ones(4, dtype=bool)

    def step(self, action):
        r = 1.0 if action == 2 else -1.0
        return np.zeros(4), np.ones(4, dtype=bool), r, True, {"valid": False}


class LongEnv:
    """Twenty-step environment: an episode is done on its twentieth step."""

    obs_dim = 4
    n_actions = 4
    horizon = 20

    def reset(self):
        self.t = 0
        return np.zeros(4), np.ones(4, dtype=bool)

    def step(self, action):
        self.t += 1
        return (np.zeros(4), np.ones(4, dtype=bool), 0.0,
                self.t == self.horizon, {"valid": False})


def test_train_manager_runs_each_episode_to_done(monkeypatch):
    # collection follows the env's done flag, however long the episode
    recorded = []
    real_transition = agent.Transition

    def record(*args):
        recorded.append(real_transition(*args))
        return recorded[-1]

    monkeypatch.setattr(agent, "Transition", record)
    episodes = 16
    train_manager(LongEnv(), PpoConfig(), total_episodes=episodes, seed=0)
    assert len(recorded) == episodes * LongEnv.horizon
    assert [tr.done for tr in recorded] \
        == ([False] * (LongEnv.horizon - 1) + [True]) * episodes


def _greedy_prob(model, action=2):
    logits, _v, _f = model.forward(np.zeros((1, 4)))
    _lp, probs = masked_log_softmax(logits, np.ones((1, 4), dtype=bool))
    return probs[0, action]


def test_train_manager_solves_bandit():
    cfg = PpoConfig(update_every=8, epochs=4, minibatch=32)
    result = train_manager(BanditEnv(), cfg, total_episodes=400, seed=0)
    assert _greedy_prob(result.model) > 0.9
    assert len(result.log) == 400


def test_train_manager_deterministic():
    cfg = PpoConfig(update_every=8)
    a = train_manager(BanditEnv(), cfg, total_episodes=64, seed=11)
    b = train_manager(BanditEnv(), cfg, total_episodes=64, seed=11)
    assert [r.loss_policy for r in a.log] == [r.loss_policy for r in b.log]
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa, pb)


def test_training_log_and_stage_schedule(tmp_path):
    cfg = PpoConfig(update_every=8, stage_fraction=0.5)
    path = tmp_path / "log.csv"
    result = train_manager(BanditEnv(), cfg, total_episodes=32, seed=0,
                           log_path=path)
    stages = [r.stage for r in result.log]
    assert stages[:16] == [0] * 16
    assert stages[16:] == [1] * 16
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 33
    assert lines[0] == ("episode,valid,performance,rolling_valid_rate,"
                        "loss_policy,loss_value,loss_entropy,loss_elite,"
                        "stage")
    rows = [dict(zip(lines[0].split(","), line.split(",")))
            for line in lines[1:]]
    # bandit episodes never end valid
    assert (rows[0]["episode"], rows[0]["rolling_valid_rate"]) \
        == ("1", "0.000000")
    assert [(r["episode"], r["rolling_valid_rate"]) for r in rows] \
        == [(str(r.episode), f"{r.rolling_valid_rate:.6f}")
            for r in result.log]


class EliteEnv:
    """Two-step environment whose episodes all end valid and feasible,
    keyed by their two actions, so the elite memory fills up."""

    obs_dim = 4
    n_actions = 4

    def reset(self):
        self.first = None
        return np.zeros(4), np.array([True, True, False, True])

    def step(self, action):
        obs = np.eye(4)[action]
        if self.first is None:
            self.first = action
            return (obs, np.array([True, False, True, True]), 0.0, False,
                    {"valid": False})
        perf = 1.0 + self.first + 0.1 * action
        key = f"{self.first}{action}"
        return (obs, np.ones(4, dtype=bool), perf, True,
                {"valid": True, "feasible": True, "key": key,
                 "performance": perf, "graph": key})


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    # keep the live objects handed to the last save for comparison
    saved = {}
    real_save = agent.save_checkpoint

    def capture(path_, model, adam, elite, episode, rngs):
        saved.update(adam=adam, elite=elite, rngs=rngs)
        real_save(path_, model, adam, elite, episode, rngs)

    monkeypatch.setattr(agent, "save_checkpoint", capture)
    cfg = PpoConfig(update_every=8, elite_capacity=5)
    path = tmp_path / "ckpt.json"
    result = train_manager(EliteEnv(), cfg, total_episodes=32, seed=0,
                           checkpoint_path=path)
    model, adam, elite, episode, rng_states = agent.load_checkpoint(path)
    assert episode == 32
    for pa, pb in zip(model.parameters(), result.model.parameters(),
                      strict=True):
        assert pa.dtype == pb.dtype and pa.tobytes() == pb.tobytes()
    train_adam = saved["adam"]
    assert adam.t == train_adam.t > 0
    for got, want in zip(adam.m + adam.v, train_adam.m + train_adam.v,
                         strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable

    train_elite = saved["elite"]
    assert elite.capacity == train_elite.capacity == 5
    assert len(elite) == len(train_elite) == 5
    for got, want in zip(elite.entries, train_elite.entries, strict=True):
        assert got.key == want.key
        assert got.performance == want.performance
        assert got.actions == want.actions
        assert len(got.obs) == len(want.obs) == 2
        for a, b in zip(got.obs, want.obs, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(got.masks, want.masks, strict=True):
            assert a.dtype == bool and np.array_equal(a, b)

    assert len(rng_states) == 2
    for state, train_rng in zip(rng_states, saved["rngs"], strict=True):
        fresh = np.random.default_rng()
        fresh.bit_generator.state = state
        assert np.array_equal(fresh.random(8), train_rng.random(8))


def _count_saves(monkeypatch):
    calls = []
    real_save = agent.save_checkpoint

    def counting(*args):
        calls.append(args[4])                     # the episode
        real_save(*args)

    monkeypatch.setattr(agent, "save_checkpoint", counting)
    return calls


def test_checkpoint_holds_the_final_state(tmp_path, monkeypatch):
    # 36 episodes at update_every=8: the elite entries of episodes 33-36
    # come after the last update and must still reach the file
    saves = _count_saves(monkeypatch)
    cfg = PpoConfig(update_every=8)
    path = tmp_path / "ckpt.json"
    result = train_manager(EliteEnv(), cfg, total_episodes=36, seed=0,
                           checkpoint_path=path)
    assert saves == [36]
    model, _adam, elite, episode, _rngs = agent.load_checkpoint(path)
    assert episode == 36
    for pa, pb in zip(model.parameters(), result.model.parameters(),
                      strict=True):
        assert pa.dtype == pb.dtype and pa.tobytes() == pb.tobytes()
    assert elite.capacity == result.elite.capacity
    assert [(e.key, e.performance) for e in elite.entries] \
        == [(e.key, e.performance) for e in result.elite.entries]


class NanEnv:
    """One-step environment whose reward is not a number."""

    obs_dim = 4
    n_actions = 4

    def reset(self):
        return np.zeros(4), np.ones(4, dtype=bool)

    def step(self, action):
        return (np.zeros(4), np.ones(4, dtype=bool), float("nan"), True,
                {"valid": False})


def test_divergence_writes_checkpoint_then_raises(tmp_path, monkeypatch):
    saves = _count_saves(monkeypatch)
    cfg = PpoConfig(update_every=8)
    path = tmp_path / "ckpt.json"
    with pytest.raises(agent.DivergenceError,
                       match="^non-finite loss at episode 8$"):
        train_manager(NanEnv(), cfg, total_episodes=32, seed=0,
                      checkpoint_path=path)
    assert saves == [8]
    model, adam, _elite, episode, _rngs = agent.load_checkpoint(path)
    assert episode == 8
    assert adam.t == 0
    fresh = ActorCritic(4, 4, substream(0, "manager", "init"))
    for pa, pb in zip(model.parameters(), fresh.parameters(), strict=True):
        assert pa.tobytes() == pb.tobytes()


def test_checkpoint_rejects_decimal_layout(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"episode": 16, "obs_dim": 4, "n_actions": 4}')
    with pytest.raises(ValueError, match="ckpt-b64v1"):
        agent.load_checkpoint(path)


def _wrong_weight_shape(net):
    net["weights"][0] = agent._encode_array(np.zeros((3, 5)))


def _nan_bias(net):
    bias = agent._decode_array(net["biases"][0])
    bias[0] = np.nan
    net["biases"][0] = agent._encode_array(bias)


def _missing_layer(net):
    net["weights"].pop()


@pytest.mark.parametrize("tamper, match", [
    (_wrong_weight_shape, "layer 0 shape mismatch"),
    (_nan_bias, "layer 0 has non-finite parameters"),
    (_missing_layer, "2 weight and 3 bias arrays for 3 layers"),
])
def test_checkpoint_rejects_malformed_network(tmp_path, tamper, match):
    path = tmp_path / "ckpt.json"
    model = _tiny_model()
    agent.save_checkpoint(path, model,
                          nn.AdamState.for_params(model.parameters()),
                          EliteMemory(4), 8, (np.random.default_rng(1),))
    doc = json.loads(path.read_text())
    tamper(doc["nets"]["torso"])
    path.write_text(json.dumps(doc))
    with pytest.raises(nn.ModelFormatError, match=f"torso network: .*{match}"):
        agent.load_checkpoint(path)


@pytest.mark.parametrize("env_cls", [BanditEnv, EliteEnv])
def test_checkpointing_does_not_change_training(tmp_path, env_cls):
    cfg = PpoConfig(update_every=8)
    plain = train_manager(env_cls(), cfg, total_episodes=48, seed=3)
    saved = train_manager(env_cls(), cfg, total_episodes=48, seed=3,
                          checkpoint_path=tmp_path / "ckpt.json")
    assert plain.log == saved.log
    for pa, pb in zip(plain.model.parameters(), saved.model.parameters(),
                      strict=True):
        assert pa.tobytes() == pb.tobytes()


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    model = _tiny_model()
    adam = nn.AdamState.for_params(model.parameters())
    elite = EliteMemory(4)
    elite.update(_entry("a", 1.0))
    rngs = (np.random.default_rng(1), np.random.default_rng(2))
    agent.save_checkpoint(path, model, adam, elite, 8, rngs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
    before = path.read_bytes()

    def fail(_src, _dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(agent.os, "replace", fail)
    with pytest.raises(OSError, match="simulated crash"):
        agent.save_checkpoint(path, _tiny_model(seed=1), adam, elite, 16,
                              rngs)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


def test_policy_never_samples_illegal_action():
    model = _tiny_model(obs_dim=4, n_actions=6)
    rng = substream(0, "test", "act")
    mask = np.array([True, False, True, False, False, True])
    for _ in range(200):
        a, logp, _v = model.act(np.zeros(4), mask, rng)
        assert mask[a]
        assert logp <= 0.0


def test_cycle_env_masks_match_the_graph():
    bc = decoder.BoundaryConditions("heat_engine", 600.0, 300.0)
    roster = {"compressor": 1, "heater": 1, "turbine": 2, "cooler": 1}
    rng = np.random.default_rng(0)
    endings = set()
    for t_max in (5, 8):
        env = agent.CycleEnv(roster, bc, budget=worker.WorkerBudget(2, 1),
                             t_max=t_max)
        for _ in range(30):
            _obs, mask = env.reset()
            done = False
            while not done:
                assert np.array_equal(mask, grammar.legal_actions(env.graph))
                graph = env.graph
                with pytest.raises(grammar.IllegalActionError):
                    env.step(int(rng.choice(np.flatnonzero(~mask))))
                assert env.graph is graph
                _obs, mask, _r, done, info = env.step(
                    int(rng.choice(np.flatnonzero(mask))))
            assert np.array_equal(mask, grammar.legal_actions(env.graph))
            endings.add("terminate" if info["valid"] else
                        "t_max" if env.t >= t_max else "no legal action")
    assert endings == {"terminate", "t_max", "no legal action"}


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PpoConfig(clip_eps=0.0)


def test_adam_integration_reduces_bandit_loss():
    # a few updates must increase the greedy-action probability
    cfg = PpoConfig(update_every=8)
    before = _greedy_prob(ActorCritic(4, 4, np.random.default_rng(0)))
    result = train_manager(BanditEnv(), cfg, total_episodes=200, seed=0)
    after = _greedy_prob(result.model)
    assert after > before
    assert isinstance(nn.AdamState.for_params(result.model.parameters()),
                      nn.AdamState)
