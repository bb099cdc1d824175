"""Discrete structure search: PPO actor-critic over the graph grammar.

The Manager builds a cycle edge-by-edge.  States are flattened
adjacency matrices, actions are (i, j) edge activations plus an
explicit TERMINATE that is legal only on structurally valid graphs.
Rewards are sparse: 0 per step, -1 for invalid episodes, and the
Worker's best performance on valid termination, backpropagated to
earlier steps with a discounted shaping weight.  An elite memory of
top-performing distinct structures adds a log-likelihood regularizer,
and training is staged from exploration-heavy to elite-heavy.
"""

from __future__ import annotations

import base64
import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import decoder, grammar, nn, worker
from .seeding import substream

REWARD_STEP = 0.0
REWARD_INVALID = -1.0


class DivergenceError(RuntimeError):
    """Raised when a training loss stops being finite."""


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    clip_eps: float = 0.2
    value_weight: float = 0.6
    lr: float = 6e-4
    entropy_weights: tuple[float, float] = (0.1, 0.01)
    elite_weights: tuple[float, float] = (0.01, 0.1)
    alpha_backprop: float = 0.9
    epochs: int = 4
    minibatch: int = 64
    update_every: int = 16       # episodes per policy update
    elite_capacity: int = 16
    stage_fraction: float = 0.5  # episode fraction where the stage flips

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.clip_eps <= 0.0:
            raise ValueError("clip_eps must be positive")


@dataclass
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    logp: float
    value: float
    mask: np.ndarray
    done: bool


# -- masked categorical distribution ------------------------------------

def masked_log_softmax(logits: np.ndarray,
                       masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log-probs, probs); illegal entries get -inf / exactly zero."""
    logits = np.atleast_2d(logits)
    masks = np.atleast_2d(masks).astype(bool)
    neg = np.where(masks, logits, -np.inf)
    zmax = neg.max(axis=1, keepdims=True)
    ex = np.where(masks, np.exp(neg - zmax), 0.0)
    total = ex.sum(axis=1, keepdims=True)
    probs = ex / total
    with np.errstate(divide="ignore"):
        logp = np.where(masks, neg - zmax - np.log(total), -np.inf)
    return logp, probs


def masked_entropy(logp: np.ndarray, probs: np.ndarray) -> np.ndarray:
    plogp = np.where(probs > 0.0, probs * np.where(probs > 0.0, logp, 0.0),
                     0.0)
    return -plogp.sum(axis=1)


# -- reward plumbing ----------------------------------------------------

def discounted_return(rewards, gamma: float) -> float:
    return float(sum(g * r for g, r in
                     zip((gamma ** t for t in range(len(rewards))), rewards)))


def backprop_performance(rewards, perf: float, alpha: float,
                         gamma: float) -> list[float]:
    """Add alpha * gamma^(T-t) * perf to each step reward (t is 1-based)."""
    big_t = len(rewards)
    return [r + alpha * gamma ** (big_t - (i + 1)) * perf
            for i, r in enumerate(rewards)]


def returns_to_go(rewards, gamma: float) -> list[float]:
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def normalized_advantages(returns: np.ndarray,
                          values: np.ndarray) -> np.ndarray:
    adv = returns - values
    std = float(np.std(adv))
    if std < 1e-8:
        return adv - np.mean(adv)
    return (adv - np.mean(adv)) / std


# -- actor-critic -------------------------------------------------------

class ActorCritic:
    """Shared ReLU torso with affine policy and value heads."""

    FEATURES = 128

    def __init__(self, obs_dim: int, n_actions: int,
                 rng: np.random.Generator) -> None:
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.torso = nn.init_mlp([obs_dim, 128, 128, self.FEATURES], rng)
        self.policy_head = nn.init_mlp([self.FEATURES, n_actions], rng)
        self.value_head = nn.init_mlp([self.FEATURES, 1], rng)
        # small policy output scale keeps the initial policy near uniform
        self.policy_head.weights[0] *= 0.01
        # nonzero hidden biases keep units active for all-zero observations
        for b in self.torso.biases[:-1]:
            b += 0.1

    def _nets(self):
        return (self.torso, self.policy_head, self.value_head)

    def parameters(self) -> list[np.ndarray]:
        return [p for net in self._nets() for p in net.parameters()]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        k = 0
        for net in self._nets():
            n = len(net.parameters())
            net.set_parameters(params[k:k + n])
            k += n

    def forward(self, obs: np.ndarray):
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        feats = nn.mlp_forward(self.torso, obs)
        logits = nn.mlp_forward(self.policy_head, feats)
        values = nn.mlp_forward(self.value_head, feats)[:, 0]
        return logits, values, feats

    def backward(self, obs: np.ndarray, feats: np.ndarray,
                 d_logits: np.ndarray,
                 d_values: np.ndarray) -> list[np.ndarray]:
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        gw_p, gb_p, df_p = nn.mlp_backward_from_output_grad(
            self.policy_head, feats, d_logits)
        gw_v, gb_v, df_v = nn.mlp_backward_from_output_grad(
            self.value_head, feats, d_values[:, None])
        gw_t, gb_t, _ = nn.mlp_backward_from_output_grad(
            self.torso, obs, df_p + df_v)
        return gw_t + gb_t + gw_p + gb_p + gw_v + gb_v

    def act(self, obs: np.ndarray, mask: np.ndarray,
            rng: np.random.Generator) -> tuple[int, float, float]:
        logits, values, _ = self.forward(obs)
        logp, probs = masked_log_softmax(logits, mask)
        a = int(rng.choice(self.n_actions, p=probs[0]))
        return a, float(logp[0, a]), float(values[0])


# -- losses -------------------------------------------------------------

@dataclass
class LossParts:
    total: float
    policy: float
    value: float
    entropy: float
    elite: float


def ppo_loss_and_grads(model: ActorCritic, obs, actions, masks, old_logp,
                       adv, returns, cfg: PpoConfig, entropy_weight: float):
    """Clipped-surrogate loss, its components and dL/d(logits, values)."""
    obs = np.asarray(obs, dtype=float)
    actions = np.asarray(actions, dtype=int)
    masks = np.asarray(masks, dtype=bool)
    old_logp = np.asarray(old_logp, dtype=float)
    adv = np.asarray(adv, dtype=float)
    returns = np.asarray(returns, dtype=float)
    n = len(actions)

    logits, values, feats = model.forward(obs)
    logp, probs = masked_log_softmax(logits, masks)
    lp_a = logp[np.arange(n), actions]
    rho = np.exp(lp_a - old_logp)
    clipped = np.clip(rho, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surr = np.minimum(rho * adv, clipped * adv)
    loss_pi = -float(np.mean(surr))
    err_v = values - returns
    loss_v = float(np.mean(err_v ** 2))
    ent = masked_entropy(logp, probs)
    loss_ent = float(np.mean(ent))
    total = loss_pi + cfg.value_weight * loss_v - entropy_weight * loss_ent

    # d total / d logp_a: gradient flows only where min() picks rho * adv
    active = rho * adv <= clipped * adv + 1e-15
    d_lpa = np.where(active, -rho * adv / n, 0.0)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), actions] = 1.0
    d_logits = d_lpa[:, None] * (onehot - probs)
    # entropy term: dH/dz_k = -p_k (log p_k + H)
    safe_logp = np.where(probs > 0.0, logp, 0.0)
    d_logits += entropy_weight * probs * (safe_logp + ent[:, None]) / n
    d_values = cfg.value_weight * 2.0 * err_v / n

    grads = model.backward(obs, feats, d_logits, d_values)
    return LossParts(total, loss_pi, loss_v, loss_ent, 0.0), grads


def elite_loss_and_grads(model: ActorCritic, obs, actions, masks):
    """Mean negative log-likelihood of elite (state, action) pairs."""
    obs = np.asarray(obs, dtype=float)
    actions = np.asarray(actions, dtype=int)
    masks = np.asarray(masks, dtype=bool)
    n = len(actions)
    logits, _values, feats = model.forward(obs)
    logp, probs = masked_log_softmax(logits, masks)
    lp_a = logp[np.arange(n), actions]
    loss = -float(np.mean(lp_a))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), actions] = 1.0
    d_logits = (probs - onehot) / n
    grads = model.backward(obs, feats, d_logits, np.zeros(n))
    return loss, grads


def total_loss(ppo: float, elite: float, lam_elite: float) -> float:
    return ppo + lam_elite * elite


# -- elite memory -------------------------------------------------------

@dataclass
class EliteEntry:
    key: str
    performance: float
    obs: list[np.ndarray]
    actions: list[int]
    masks: list[np.ndarray]


class EliteMemory:
    """Top-K distinct structures, sorted by performance descending."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[EliteEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def _check(self) -> None:
        keys = [e.key for e in self.entries]
        assert len(keys) == len(set(keys)), "duplicate elite keys"
        assert len(self.entries) <= self.capacity, "elite memory overflow"
        perfs = [e.performance for e in self.entries]
        assert perfs == sorted(perfs, reverse=True), "elite order broken"

    def update(self, entry: EliteEntry) -> None:
        for k, old in enumerate(self.entries):
            if old.key == entry.key:
                if entry.performance > old.performance:
                    self.entries[k] = entry
                break
        else:
            self.entries.append(entry)
        self.entries.sort(key=lambda e: -e.performance)
        del self.entries[self.capacity:]
        self._check()

    def pairs(self):
        obs, actions, masks = [], [], []
        for e in self.entries:
            obs.extend(e.obs)
            actions.extend(e.actions)
            masks.extend(e.masks)
        return obs, actions, masks


# -- environment --------------------------------------------------------

class CycleEnv:
    """Grammar environment whose terminal reward comes from the Worker."""

    def __init__(self, component_limits: dict[str, int],
                 bc: decoder.BoundaryConditions, fluid=None,
                 budget: worker.WorkerBudget | None = None,
                 eta: decoder.Efficiencies | None = None,
                 cache: worker.WorkerCache | None = None,
                 worker_seed: int = 0, t_max: int = 16) -> None:
        self.limits = dict(component_limits)
        self.bc = bc
        self.fluid = fluid
        self.budget = budget or worker.WorkerBudget()
        self.eta = eta
        self.cache = cache if cache is not None else worker.WorkerCache()
        self.worker_seed = worker_seed
        self.t_max = t_max
        self._base = grammar.new_graph(self.limits)
        self.n_nodes = len(self._base)
        self.obs_dim = self.n_nodes ** 2
        self.n_actions = self.obs_dim + 1
        self.reset()

    def _obs(self) -> np.ndarray:
        return self.graph.adjacency_vector()

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self.graph = self._base
        self.t = 0
        self.mask = grammar.legal_actions(self.graph)
        return self._obs(), self.mask

    def step(self, action: int):
        mask = self.mask       # legal actions of self.graph
        if not mask[action]:
            raise grammar.IllegalActionError(
                f"action {action} is illegal in the current state")
        act = grammar.action_from_index(self.graph, action)
        if act == grammar.TERMINATE:
            res = worker.optimize_parameters(
                self.graph, self.bc, self.fluid, self.budget,
                self.worker_seed, self.eta, self.cache)
            r = res.best_performance if res.feasible else REWARD_INVALID
            info = {"valid": True, "feasible": res.feasible,
                    "performance": res.best_performance if res.feasible
                    else 0.0,
                    "key": grammar.canonical_hex(self.graph),
                    "params": res.best_params,
                    "graph": self.graph}
            return self._obs(), mask, r, True, info
        self.graph = grammar.apply_action(self.graph, act)
        self.t += 1
        self.mask = new_mask = grammar.legal_actions(self.graph)
        if self.t >= self.t_max or not new_mask.any():
            return (self._obs(), new_mask, REWARD_INVALID, True,
                    {"valid": False, "performance": 0.0})
        return self._obs(), new_mask, REWARD_STEP, False, {"valid": False}


# -- training loop ------------------------------------------------------

@dataclass
class LogRow:
    episode: int
    valid: bool
    performance: float
    rolling_valid_rate: float
    loss_policy: float
    loss_value: float
    loss_entropy: float
    loss_elite: float
    stage: int


@dataclass
class TrainResult:
    model: ActorCritic
    log: list[LogRow]
    discovered: dict[str, float]       # canonical key -> best performance
    discovered_graphs: dict[str, grammar.CycleGraph]
    elite: EliteMemory
    valid_rate: float                  # rolling rate at the end of training


def _rolling_rate(flags: list[bool], window: int = 100) -> float:
    tail = flags[-window:]
    return sum(tail) / len(tail) if tail else 0.0


def train_manager(env, cfg: PpoConfig, total_episodes: int, seed: int,
                  log_path=None, checkpoint_path=None) -> TrainResult:
    """PPO with performance backpropagation, elite memory, staged weights.

    env is duck-typed: reset() -> (obs, mask), step(a) -> (obs, mask, r,
    done, info), plus obs_dim / n_actions attributes.  Each episode is
    collected until step returns done, so the env must end every episode
    (CycleEnv does within t_max + 1 steps).  With a
    checkpoint_path the training state is saved once: at the end, or
    before a diverging step if DivergenceError is raised.
    """
    init_rng = substream(seed, "manager", "init")
    act_rng = substream(seed, "manager", "collect")
    shuffle_rng = substream(seed, "manager", "shuffle")
    model = ActorCritic(env.obs_dim, env.n_actions, init_rng)
    params = model.parameters()
    adam = nn.AdamState.for_params(params)
    elite = EliteMemory(cfg.elite_capacity)

    buffer: list[Transition] = []
    log: list[LogRow] = []
    discovered: dict[str, float] = {}
    discovered_graphs: dict[str, grammar.CycleGraph] = {}
    valid_flags: list[bool] = []
    last = LossParts(0.0, 0.0, 0.0, 0.0, 0.0)

    for episode in range(1, total_episodes + 1):
        stage = 0 if episode <= cfg.stage_fraction * total_episodes else 1
        ent_w = cfg.entropy_weights[stage]
        lam_e = cfg.elite_weights[stage]

        obs, mask = env.reset()
        traj: list[Transition] = []
        done = False
        while not done:
            a, lp, v = model.act(obs, mask, act_rng)
            nobs, nmask, r, done, info = env.step(a)
            traj.append(Transition(obs.copy(), a, r, lp, v,
                                   mask.copy(), done))
            obs, mask = nobs, nmask

        perf = float(info.get("performance", 0.0))
        valid = bool(info.get("valid", False))
        if perf > 0.0:
            shaped = backprop_performance([tr.reward for tr in traj],
                                          perf, cfg.alpha_backprop, cfg.gamma)
            for tr, r in zip(traj, shaped):
                tr.reward = r
        buffer.extend(traj)
        valid_flags.append(valid)
        if valid and info.get("feasible") and "key" in info:
            key = info["key"]
            if perf > discovered.get(key, -np.inf):
                discovered[key] = perf
                discovered_graphs[key] = info["graph"]
            elite.update(EliteEntry(key, perf,
                                    [tr.obs for tr in traj],
                                    [tr.action for tr in traj],
                                    [tr.mask for tr in traj]))

        if episode % cfg.update_every == 0 and buffer:
            gts: list[float] = []
            start = 0
            for k, tr in enumerate(buffer):
                if tr.done or k == len(buffer) - 1:
                    rews = [t_.reward for t_ in buffer[start:k + 1]]
                    gts.extend(returns_to_go(rews, cfg.gamma))
                    start = k + 1
            returns = np.asarray(gts)
            values = np.asarray([tr.value for tr in buffer])
            adv = normalized_advantages(returns, values)
            b_obs = np.asarray([tr.obs for tr in buffer])
            b_act = np.asarray([tr.action for tr in buffer])
            b_mask = np.asarray([tr.mask for tr in buffer])
            b_lp = np.asarray([tr.logp for tr in buffer])
            e_obs, e_act, e_mask = elite.pairs()

            for _epoch in range(cfg.epochs):
                order = shuffle_rng.permutation(len(buffer))
                for lo in range(0, len(order), cfg.minibatch):
                    sel = order[lo:lo + cfg.minibatch]
                    parts, grads = ppo_loss_and_grads(
                        model, b_obs[sel], b_act[sel], b_mask[sel],
                        b_lp[sel], adv[sel], returns[sel], cfg, ent_w)
                    l_elite = 0.0
                    if e_obs and lam_e > 0.0:
                        l_elite, g_elite = elite_loss_and_grads(
                            model, e_obs, e_act, e_mask)
                        grads = [g + lam_e * ge
                                 for g, ge in zip(grads, g_elite)]
                    tot = total_loss(parts.total, l_elite, lam_e)
                    if not np.isfinite(tot):
                        if checkpoint_path is not None:
                            save_checkpoint(checkpoint_path, model, adam,
                                            elite, episode,
                                            (act_rng, shuffle_rng))
                        raise DivergenceError(
                            f"non-finite loss at episode {episode}")
                    params = nn.adam_step(model.parameters(), grads, adam,
                                          cfg.lr)
                    model.set_parameters(params)
                    last = LossParts(tot, parts.policy, parts.value,
                                     parts.entropy, l_elite)
            buffer.clear()

        log.append(LogRow(episode, valid, perf,
                          _rolling_rate(valid_flags), last.policy,
                          last.value, last.entropy, last.elite, stage))

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, adam, elite, total_episodes,
                        (act_rng, shuffle_rng))
    if log_path is not None:
        export_training_log(log, log_path)
    return TrainResult(model, log, discovered, discovered_graphs, elite,
                       _rolling_rate(valid_flags))


# -- baselines ----------------------------------------------------------

@dataclass
class SearchStats:
    episodes: int
    n_valid: int
    valid_rate: float
    discovered: dict[str, float]


def random_search(env, episodes: int, seed: int,
                  masked: bool = False) -> SearchStats:
    """Uniform action baseline; unmasked sampling counts illegal picks
    as failed episodes instead of calling the environment illegally."""
    rng = substream(seed, "random-search", "masked" if masked else "unmasked")
    n_valid = 0
    discovered: dict[str, float] = {}
    for _ep in range(episodes):
        _obs, mask = env.reset()
        for _t in range(env.n_actions):
            if masked:
                legal = np.flatnonzero(mask)
                if legal.size == 0:
                    break
                a = int(rng.choice(legal))
            else:
                a = int(rng.integers(env.n_actions))
                if not mask[a]:
                    break
            _obs, mask, _r, done, info = env.step(a)
            if done:
                if info.get("valid"):
                    n_valid += 1
                    if info.get("feasible"):
                        discovered[info["key"]] = max(
                            discovered.get(info["key"], -np.inf),
                            info["performance"])
                break
    return SearchStats(episodes, n_valid,
                       n_valid / episodes if episodes else 0.0, discovered)


# -- persistence --------------------------------------------------------

def export_training_log(log: list[LogRow], path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["episode", "valid", "performance", "rolling_valid_rate",
                     "loss_policy", "loss_value", "loss_entropy",
                     "loss_elite", "stage"])
        for r in log:
            wr.writerow([r.episode, int(r.valid), f"{r.performance:.10f}",
                         f"{r.rolling_valid_rate:.6f}",
                         f"{r.loss_policy:.10f}", f"{r.loss_value:.10f}",
                         f"{r.loss_entropy:.10f}", f"{r.loss_elite:.10f}",
                         r.stage])


# A checkpoint is a JSON document whose numeric arrays are objects
# {"dtype", "shape", "b64"}, b64 being the base64 of the raw little-endian
# bytes: they read back bitwise, and the ~128 k parameter and Adam moment
# floats cost no float-to-text conversion.
CHECKPOINT_FORMAT = "ckpt-b64v1"


def _encode_array(a) -> dict:
    a = np.asarray(a)
    le = a.astype(a.dtype.newbyteorder("<"), copy=False)
    return {"dtype": le.dtype.str, "shape": list(a.shape),
            "b64": base64.b64encode(le.tobytes()).decode("ascii")}


def _decode_array(doc: dict) -> np.ndarray:
    """A writable native-order copy, bitwise equal to the encoded array."""
    dtype = np.dtype(doc["dtype"])
    raw = base64.b64decode(doc["b64"], validate=True)
    a = np.frombuffer(raw, dtype=dtype).reshape(doc["shape"])
    return a.astype(dtype.newbyteorder("="), copy=True)


def _net_doc(net: nn.MlpModel) -> dict:
    return {"layer_dims": net.layer_dims,
            "weights": [_encode_array(w) for w in net.weights],
            "biases": [_encode_array(b) for b in net.biases]}


def _net_load(doc: dict, net: nn.MlpModel) -> None:
    """Fill net from doc after checking it against net's own layer dims."""
    weights = [_decode_array(w) for w in doc["weights"]]
    biases = [_decode_array(b) for b in doc["biases"]]
    nn.check_layers(net.layer_dims, weights, biases)
    net.weights, net.biases = weights, biases


def save_checkpoint(path, model: ActorCritic, adam: nn.AdamState,
                    elite: EliteMemory, episode: int, rngs) -> None:
    """Write the training state to path, replacing it atomically: the
    document goes to a temporary file beside it first, so a crash
    mid-write leaves the previous checkpoint in place."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "episode": episode,
        "obs_dim": model.obs_dim,
        "n_actions": model.n_actions,
        "nets": {"torso": _net_doc(model.torso),
                 "policy": _net_doc(model.policy_head),
                 "value": _net_doc(model.value_head)},
        "adam": {"m": [_encode_array(a) for a in adam.m],
                 "v": [_encode_array(a) for a in adam.v], "t": adam.t},
        "elite": {"capacity": elite.capacity,
                  "entries": [{"key": e.key, "performance": e.performance,
                               "obs": _encode_array(e.obs),
                               "actions": e.actions,
                               "masks": _encode_array(
                                   np.asarray(e.masks, dtype=bool))}
                              for e in elite.entries]},
        "rng_states": [r.bit_generator.state for r in rngs],
    }
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """(model, adam, elite, episode, rng_states) from a checkpoint file."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{os.fspath(path)} is not a {CHECKPOINT_FORMAT!r} checkpoint; "
            "checkpoints that store arrays as decimal lists cannot be read")
    model = ActorCritic(doc["obs_dim"], doc["n_actions"],
                        np.random.default_rng(0))
    for name, net in zip(("torso", "policy", "value"), model._nets()):
        try:
            _net_load(doc["nets"][name], net)
        except nn.ModelFormatError as exc:
            raise nn.ModelFormatError(
                f"{os.fspath(path)}: {name} network: {exc}") from exc
    adam = nn.AdamState([_decode_array(a) for a in doc["adam"]["m"]],
                        [_decode_array(a) for a in doc["adam"]["v"]],
                        doc["adam"]["t"])
    elite = EliteMemory(doc["elite"]["capacity"])
    for e in doc["elite"]["entries"]:
        elite.update(EliteEntry(e["key"], e["performance"],
                                list(_decode_array(e["obs"])),
                                list(e["actions"]),
                                list(_decode_array(e["masks"]))))
    return model, adam, elite, doc["episode"], doc["rng_states"]
