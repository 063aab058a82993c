"""Deep Q-learning over the rectangle environment: a small fully connected
Q-network (numpy, hand-rolled backprop), replay buffer, epsilon-greedy
policy, TD(0) targets, the training loop, and a brute-force placement
oracle used for acceptance checks."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import geogrid, index
from .errors import NemonsoonError, NonFiniteLossError
from .geogrid import AreaSet, Rect, SSTField


# ---------------------------------------------------------------------------
# Q-network
# ---------------------------------------------------------------------------

class QNetwork:
    """Fully connected net: input -> 64 -> 64 -> n_actions, ReLU hidden
    activations, linear head. float32 for training, float64 for gradient
    checks.

    The online parameters and the target network's (Mnih et al. 2015) are
    rows 0 and 1 of one (2, P) buffer, `lanes`. `flat`, `params`, `weights`
    and `biases` view row 0; `target` is a QNetwork whose views are row 1.
    A target sync copies row 0 into row 1, and `train_step` runs both rows
    in one stacked forward pass. `grad` is row 0's flat gradient buffer,
    with `grads` its per-parameter views, which `train_step` overwrites."""

    def __init__(self, in_dim: int, n_actions: int, rng: np.random.Generator,
                 hidden: tuple[int, int] = (64, 64), dtype=np.float32):
        self.in_dim = in_dim
        self.n_actions = n_actions
        self.dtype = dtype
        dims = [in_dim, *hidden, n_actions]
        arrays = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / d_in)  # He init for ReLU
            arrays.append((rng.standard_normal((d_in, d_out)) * scale).astype(dtype))
            arrays.append(np.zeros(d_out, dtype=dtype))
        shapes = [a.shape for a in arrays]
        self.lanes, self.lane_params = lane_buffer(2, shapes, dtype)
        for view, a in zip(self.lane_params, arrays):
            view[:] = a
        # per layer: (2, d_in, d_out) weights and (2, 1, d_out) biases
        self.lane_weights = self.lane_params[0::2]
        self.lane_biases = [b[:, None] for b in self.lane_params[1::2]]
        self.grad, self.grads = flat_buffer(arrays)
        self._bind(0)
        self.target = copy.copy(self)
        self.target._bind(1)

    def _bind(self, row: int) -> None:
        self.flat = self.lanes[row]
        self.params = [p[row] for p in self.lane_params]  # [w0, b0, w1, b1, ...]
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch (or single) of states."""
        x = np.asarray(x, dtype=self.dtype)
        out = _forward(x.reshape(1, -1) if x.ndim == 1 else x, self.weights, self.biases)
        return out if x.ndim > 1 else out[0]

    def loss_and_grads(self, states: np.ndarray, actions: np.ndarray,
                       targets: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """Mean-squared TD error on Q(s, a_taken) plus gradients, ordered
        [w0, b0, w1, b1, ...]. The slow reference for `train_step`."""
        x = np.asarray(states, dtype=self.dtype)
        n = x.shape[0]
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            acts.append(h)
        q = h @ self.weights[-1] + self.biases[-1]
        picked = q[np.arange(n), actions]
        err = picked - np.asarray(targets, dtype=self.dtype)
        loss = float(np.mean(err * err))
        # backprop through the picked-action head only
        dq = np.zeros_like(q)
        dq[np.arange(n), actions] = 2.0 * err / n
        grads: list[np.ndarray] = []
        delta = dq
        for layer in range(len(self.weights) - 1, -1, -1):
            grads.append(np.sum(delta, axis=0))        # bias
            grads.append(acts[layer].T @ delta)        # weight
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (acts[layer] > 0)
        grads.reverse()
        return loss, grads


def _forward(h: np.ndarray, weights, biases, acts: list | None = None) -> np.ndarray:
    """A QNetwork on `h`, one matmul per layer: ReLU hidden layers, then the
    linear head. Takes one row's (n, in) input with its (in, out) weights,
    or the stacked (2, n, in) input with `lane_weights` and `lane_biases`.
    Each hidden activation is appended to `acts`."""
    for w, b in zip(weights[:-1], biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    out = h @ weights[-1]
    out += biases[-1]
    return out


def lane_buffer(lanes: int, shapes: list[tuple[int, ...]],
                dtype=np.float64) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed (lanes, P) buffer plus a (lanes, *shape) view into it per
    shape, in order. Each lane's parameters are one contiguous row, so K
    stacked models snapshot, restore and update per lane like one model."""
    sizes = [int(np.prod(s)) for s in shapes]
    ends = np.cumsum(sizes)
    flat = np.zeros((lanes, int(ends[-1])), dtype=dtype)
    return flat, [flat[:, end - size:end].reshape((lanes, *shape))
                  for shape, size, end in zip(shapes, sizes, ends)]


def flat_buffer(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One contiguous copy of the arrays, in order, plus a view into it
    shaped like each array, so Adam can step all of them as one vector."""
    flat, views = lane_buffer(1, [a.shape for a in arrays], np.result_type(*arrays))
    for view, a in zip(views, arrays):
        view[0] = a
    return flat[0], [view[0] for view in views]


class Adam:
    """Adaptive-moment optimizer over one flat parameter buffer."""

    def __init__(self, flat: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0
        self._scratch = np.empty_like(flat), np.empty_like(flat)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Update `flat` in place from the gradient of the same layout:
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, then
        flat -= lr (m / b1t) / (sqrt(v / b2t) + eps), each operation in
        that order through two reused scratch buffers."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v, (s, u) = self.m, self.v, self._scratch
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s)
        s *= grad
        v += s
        np.divide(m, b1t, out=s)
        s *= self.lr
        np.divide(v, b2t, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        s /= u
        flat -= s


# ---------------------------------------------------------------------------
# Replay buffer and policy
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """FIFO ring buffer of (s, a, r, s', done) transitions. s and s' are
    rows 0 and 1 of one (2, capacity, obs_dim) array, `obs`."""

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((2, capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._cursor = 0

    def push(self, state, action, reward, next_state, done) -> None:
        i = self._cursor
        self.obs[0, i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.obs[1, i] = next_state
        self.dones[i] = done
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator):
        """(obs, actions, rewards, dones) of up to `batch` distinct
        transitions; obs is the stacked (2, n, obs_dim) [s; s'], gathered
        in one take, as `train_step` reads it."""
        idx = rng.choice(self.size, size=min(batch, self.size), replace=False)
        return self.obs.take(idx, axis=1), self.actions[idx], self.rewards[idx], self.dones[idx]


@dataclass(frozen=True)
class DQNConfig:
    gamma: float = 0.99
    epsilon_initial: float = 1.0
    epsilon_final: float = 0.1
    decay_fraction: float = 0.1
    total_timesteps: int = 100_000
    batch: int = 64
    buffer_capacity: int = 10_000
    target_sync_every: int = 500
    learn_start: int = 1_000
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not 0 <= self.epsilon_final <= self.epsilon_initial <= 1:
            raise ValueError("need 0 <= epsilon_final <= epsilon_initial <= 1")
        if not 0 <= self.decay_fraction <= 1:
            raise ValueError("decay_fraction must be in [0, 1]")
        if self.total_timesteps < 1:
            raise ValueError("total_timesteps must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.buffer_capacity < self.batch:
            # a smaller buffer never holds a batch, so the learner never runs
            raise ValueError("buffer_capacity must be >= batch")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.learn_start < 0:
            raise ValueError("learn_start must be >= 0")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def epsilon_at(t: int, config: DQNConfig) -> float:
    """Linear anneal from epsilon_initial to epsilon_final over the first
    decay_fraction of total timesteps, then constant."""
    if t < 0:
        raise ValueError("t must be non-negative")
    decay_end = config.decay_fraction * config.total_timesteps
    if decay_end <= 0 or t >= decay_end:
        return config.epsilon_final
    frac = t / decay_end
    return config.epsilon_initial + frac * (config.epsilon_final - config.epsilon_initial)


def act(state: np.ndarray, qnet: QNetwork, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action; greedy ties go to the smallest index."""
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(qnet.n_actions))
    state = np.array(state, dtype=qnet.dtype, ndmin=2)
    return int(_forward(state, qnet.weights, qnet.biases).argmax())


def td_targets(rewards: np.ndarray, next_states: np.ndarray, dones: np.ndarray,
               target_net: QNetwork, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a') * (1 - done). With
    `QNetwork.loss_and_grads`, the slow reference for `train_step`."""
    q_next = target_net.forward(next_states).max(axis=1)
    return np.asarray(rewards) + gamma * q_next * (~np.asarray(dones))


def train_step(qnet: QNetwork, batch, optimizer: Adam, gamma: float) -> float:
    """One gradient step on one sampled batch; returns the pre-step loss.

    `batch` is `ReplayBuffer.sample`'s (obs, actions, rewards, dones), obs
    the stacked (2, n, obs_dim) [s; s']. One forward pass runs s through the
    online row of `qnet.lanes` and s' through the target row. The TD
    targets come from the target row and the online row is backpropagated
    into `qnet.grad`. Bit-equal to `td_targets`, then
    `QNetwork.loss_and_grads`, then `Adam.step` on the concatenated
    gradients.
    """
    obs, actions, rewards, dones = batch
    x = np.asarray(obs, dtype=qnet.dtype)
    n = x.shape[1]
    acts = [x]
    q = _forward(x, qnet.lane_weights, qnet.lane_biases, acts)
    q_next = np.maximum.reduce(q[1], axis=1)
    targets = np.asarray(rewards + gamma * q_next * ~dones, dtype=qnet.dtype)
    rows = np.arange(n)
    err = q[0, rows, actions] - targets
    # ndarray.mean's sum / count, without its wrapper
    loss = float(np.add.reduce(err * err) / n)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"TD loss became {loss}")
    # backprop row 0 through the picked-action head only
    delta = np.zeros_like(q[0])
    delta[rows, actions] = 2.0 * err / n
    for layer in range(len(qnet.weights) - 1, -1, -1):
        np.add.reduce(delta, axis=0, out=qnet.grads[2 * layer + 1])
        np.matmul(acts[layer][0].T, delta, out=qnet.grads[2 * layer])
        if layer > 0:
            delta = (delta @ qnet.weights[layer].T) * (acts[layer][0] > 0)
    optimizer.step(qnet.flat, qnet.grad)
    return loss


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class HistoryRow:
    step: int
    episode: int
    reward: float
    best_q: float
    epsilon: float


def train(env_factory, config: DQNConfig):
    """Run the full DQN loop; returns (best_areas, best_q, history).

    best_areas is the (A, B) pair of the highest-objective valid state ever
    visited (None for environments without geometry, e.g. toy MDPs), best_q
    its objective, and history one row per timestep.
    """
    best_areas, best_q, history, _ = train_with_net(env_factory, config)
    return best_areas, best_q, history


def train_with_net(env_factory, config: DQNConfig):
    """Like train(), but also returns the trained online network."""
    rng = np.random.default_rng(config.seed)
    env = env_factory()
    qnet = QNetwork(env.obs_dim, env.n_actions, rng)
    optimizer = Adam(qnet.flat, lr=config.lr)
    buffer = ReplayBuffer(config.buffer_capacity, env.obs_dim)

    best_areas = None
    best_q = -np.inf
    history: list[HistoryRow] = []
    episode = 0
    obs = env.reset(rng)
    best_areas, best_q = _maybe_better(env, best_areas, best_q)

    for t in range(config.total_timesteps):
        eps = epsilon_at(t, config)
        a = act(obs, qnet, eps, rng)
        next_obs, reward, done = env.step(a)
        buffer.push(obs, a, reward, next_obs, done)
        best_areas, best_q = _maybe_better(env, best_areas, best_q)
        if t + 1 >= config.learn_start and buffer.size >= config.batch:
            batch = buffer.sample(config.batch, rng)
            train_step(qnet, batch, optimizer, config.gamma)
        if (t + 1) % config.target_sync_every == 0:
            qnet.lanes[1] = qnet.lanes[0]
        history.append(HistoryRow(step=t, episode=episode, reward=float(reward),
                                  best_q=float(best_q), epsilon=eps))
        if done:
            episode += 1
            if t + 1 < config.total_timesteps:
                obs = env.reset(rng)
                best_areas, best_q = _maybe_better(env, best_areas, best_q)
        else:
            obs = next_obs
    return best_areas, best_q, history, qnet


def _maybe_better(env, best_areas, best_q):
    cand = getattr(env, "current_candidate", lambda: None)()
    if cand is not None:
        area_a, area_b, q = cand
        if q is not None and q > best_q:
            return (area_a, area_b), q
    return best_areas, best_q


def write_history_csv(history: list[HistoryRow], path) -> None:
    """Emit `step,episode,reward,best_q,epsilon`."""
    import csv

    with geogrid.atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "episode", "reward", "best_q", "epsilon"])
        for row in history:
            w.writerow([row.step, row.episode, repr(row.reward),
                        repr(row.best_q), repr(row.epsilon)])


# ---------------------------------------------------------------------------
# Exhaustive-search oracle
# ---------------------------------------------------------------------------

def _shift_area(area: AreaSet, dlat: float, dlon: float) -> AreaSet:
    return AreaSet(tuple(
        Rect(r.lat_min + dlat, r.lat_max + dlat, r.lon_min + dlon, r.lon_max + dlon)
        for r in area.rects
    ))


def _placements(template: AreaSet, domain: Rect, step: float) -> list[tuple[float, float]]:
    """Rigid-shift offsets (multiples of step) keeping every rect inside
    the domain; lexicographic order."""
    lat_lo = min(r.lat_min for r in template.rects)
    lat_hi = max(r.lat_max for r in template.rects)
    lon_lo = min(r.lon_min for r in template.rects)
    lon_hi = max(r.lon_max for r in template.rects)
    k_lat_min = int(np.ceil((domain.lat_min - lat_lo) / step - 1e-9))
    k_lat_max = int(np.floor((domain.lat_max - lat_hi) / step + 1e-9))
    k_lon_min = int(np.ceil((domain.lon_min - lon_lo) / step - 1e-9))
    k_lon_max = int(np.floor((domain.lon_max - lon_hi) / step + 1e-9))
    return [
        (k_lat * step, k_lon * step)
        for k_lat in range(k_lat_min, k_lat_max + 1)
        for k_lon in range(k_lon_min, k_lon_max + 1)
    ]


def exhaustive_search(
    field: SSTField,
    y_onset: np.ndarray,
    y_retreat: np.ndarray,
    template_a: AreaSet,
    template_b: AreaSet,
    domain: Rect,
    step: float = 0.5,
    min_ocean: float = 0.8,
) -> tuple[tuple[AreaSet, AreaSet], float]:
    """Evaluate every valid shift-lattice placement of A crossed with every
    valid placement of B; return the argmax-q pair (lexicographic ties go
    to the earlier placement). Placements that break the area constraint
    or have a non-finite series are skipped; degenerate pairs never win.

    B's series are stacked once in `index.PairScorer`; A's are scored in
    blocks as they are generated, all pairs of a block at once. The
    winner's q is scored again by `index.evaluate_pair` on its direct
    difference.
    """
    months = field.spec.months()

    def placed_series(template):
        for offset in _placements(template, domain, step):
            s, _ = index.ocean_series(field, _shift_area(template, *offset), min_ocean)
            if s is not None:
                yield offset, s

    placed_b = list(placed_series(template_b))
    if not placed_b:
        raise NemonsoonError(f"no placement of B in {domain} meets the area constraint")
    # a non-finite series makes every pair it is in invalid
    placed_b = [(offset, s) for offset, s in placed_b if np.isfinite(s).all()]
    best_q = -np.inf
    best = None
    if placed_b:
        offsets_b = [offset for offset, _ in placed_b]
        scorer = index.PairScorer(months, index.season_target(y_onset, y_retreat, months),
                                  [s for _, s in placed_b])
        del placed_b
        placed_a = ((offset, s) for offset, s in placed_series(template_a)
                    if np.isfinite(s).all())
        while block := list(itertools.islice(placed_a, scorer.BLOCK_ROWS)):
            q = np.nan_to_num(scorer.scores([s for _, s in block]), copy=False, nan=-np.inf)
            for (offset_a, _), q_a, ib in zip(block, q, q.argmax(axis=1)):
                if q_a[ib] > best_q + 1e-15:
                    best_q = float(q_a[ib])
                    best = (offset_a, offsets_b[ib])
    if best is None:
        raise NemonsoonError(
            f"no valid (A, B) pair in {domain}: no placement of A meets the area "
            "constraint, or every pair is degenerate (constant or non-finite)")
    area_a = _shift_area(template_a, *best[0])
    area_b = _shift_area(template_b, *best[1])
    report = index.evaluate_pair(field, area_a, area_b, y_onset, y_retreat, min_ocean)
    return (area_a, area_b), report.q
