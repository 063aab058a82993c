"""Deep Q-learning over the rectangle environment: a small fully connected
Q-network (numpy, hand-rolled backprop), replay buffer, epsilon-greedy
policy, TD(0) targets, the training loop, and a brute-force placement
oracle used for acceptance checks."""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geogrid, index
from .errors import ConfigError, NemonsoonError, NonFiniteLossError
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
    in one stacked forward pass. `grad` is the one row of a gradient
    `lane_buffer`, with `grads` its per-parameter views, which `train_step`
    overwrites."""

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
        grad, grads = lane_buffer(1, shapes, dtype)
        self.grad, self.grads = grad[0], [g[0] for g in grads]
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


# Adam's decay rates and floor (Kingma & Ba 2015), and the Q-network's step size
ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LR = 0.9, 0.999, 1e-8, 1e-3


class Adam:
    """Adaptive-moment optimizer over one flat parameter buffer."""

    def __init__(self, flat: np.ndarray, lr: float = LR):
        self.lr = lr
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
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        m, v, (s, u) = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=s)
        s *= grad
        v += s
        np.divide(m, b1t, out=s)
        s *= self.lr
        np.divide(v, b2t, out=u)
        np.sqrt(u, out=u)
        u += ADAM_EPS
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


# Mnih et al. (2015)'s epsilon-greedy schedule: 1.0 -> 0.1 over the first tenth of the steps
EPSILON_INITIAL, EPSILON_FINAL, DECAY_FRACTION = 1.0, 0.1, 0.1
# transitions the learner samples per step
BATCH = 64


@dataclass(frozen=True)
class DQNConfig:
    gamma: float = 0.99
    total_timesteps: int = 100_000
    buffer_capacity: int = 10_000
    target_sync_every: int = 500
    learn_start: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if self.total_timesteps < 1:
            raise ValueError("total_timesteps must be >= 1")
        if self.buffer_capacity < BATCH:
            # a smaller buffer never holds a batch, so the learner never runs
            raise ValueError(f"buffer_capacity must be >= the batch, {BATCH}")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.learn_start < 0:
            raise ValueError("learn_start must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def epsilon_at(t: int, config: DQNConfig) -> float:
    """Linear anneal from EPSILON_INITIAL to EPSILON_FINAL over the first
    DECAY_FRACTION of total timesteps, then constant."""
    if t < 0:
        raise ValueError("t must be non-negative")
    decay_end = DECAY_FRACTION * config.total_timesteps
    if t >= decay_end:
        return EPSILON_FINAL
    frac = t / decay_end
    return EPSILON_INITIAL + frac * (EPSILON_FINAL - EPSILON_INITIAL)


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

# environment steps per learner step: Mnih et al. (2015)'s update frequency;
# target syncs and epsilon still count environment steps
TRAIN_EVERY = 4


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
    optimizer = Adam(qnet.flat)
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
        if (t + 1 >= config.learn_start and buffer.size >= BATCH
                and (t + 1) % TRAIN_EVERY == 0):
            batch = buffer.sample(BATCH, rng)
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
    cand = env.current_candidate()
    if cand is not None and cand[2] > best_q:
        return cand[:2], cand[2]
    return best_areas, best_q


def write_history_csv(history: list[HistoryRow], path) -> None:
    """Emit `step,episode,reward,best_q,epsilon`."""
    geogrid.write_csv_rows(path, ["step", "episode", "reward", "best_q", "epsilon"], (
        (row.step, row.episode, *(repr(float(v)) for v in (row.reward, row.best_q, row.epsilon)))
        for row in history))


# ---------------------------------------------------------------------------
# Exhaustive-search oracle
# ---------------------------------------------------------------------------

# the most placement pairs the oracle searches (the default world's 810,000: 0.09 s, 2-core Xeon)
MAX_PAIRS = 10 ** 8


def _shifted(template: AreaSet, i: int, j: int, spec: geogrid.GridSpec) -> AreaSet:
    """The template moved i whole cells north and j east (`geogrid.placed`)."""
    return geogrid.placed(template, (2 * i, 2 * i, 2 * j, 2 * j), spec)


def _offsets(template: AreaSet, domain: Rect, spec: geogrid.GridSpec) -> tuple[list, list]:
    """Whole-cell shifts i and j, per axis, that keep the template moved by
    (i, j) cells inside the domain: `geogrid.inside` bounds each axis on its
    own, so each is tried in the domain's band that the template spans on
    the other, from one shift past each end of what the rule can admit."""
    bounds = np.array(template.as_lists())
    (lat_lo, lon_lo), (lat_hi, lon_hi) = bounds[:, 0::2].min(axis=0), bounds[:, 1::2].max(axis=0)
    lat_band = Rect(domain.lat_min, domain.lat_max, lon_lo, lon_hi)
    lon_band = Rect(lat_lo, lat_hi, domain.lon_min, domain.lon_max)
    return ([i for i in range(math.floor((domain.lat_min - lat_lo) / spec.dlat),
                              math.ceil((domain.lat_max - lat_hi) / spec.dlat) + 1)
             if geogrid.inside(lat_band, _shifted(template, i, 0, spec))],
            [j for j in range(math.floor((domain.lon_min - lon_lo) / spec.dlon),
                              math.ceil((domain.lon_max - lon_hi) / spec.dlon) + 1)
             if geogrid.inside(lon_band, _shifted(template, 0, j, spec))])


# months per summed-area table: the oracle's float64 tables cover this many
# months at a time, so no float64 copy of the whole field is ever held
_TABLE_MONTHS = 12
_U32 = 2.0 ** -24  # unit roundoff of float32
# a q must beat the best by more than this to replace it, so exact ties go
# to the earlier placement
_TIE = 1e-15


def _table(cells: np.ndarray) -> np.ndarray:
    """Summed-area table (Crow 1984) of (n, nlat, nlon) cells, laid out
    (nlat + 1, nlon + 1, n): entry [i, j] sums cells [:i, :j] of each of the
    n layers, so a box's n sums are four lookups of contiguous rows."""
    n, nlat, nlon = cells.shape
    out = np.zeros((nlat + 1, nlon + 1, n), dtype=cells.dtype)
    out[1:, 1:] = np.moveaxis(cells.cumsum(axis=1).cumsum(axis=2), 0, -1)
    return out


class _Lattice:
    """A template at every pair of `_offsets`' shifts, in lexicographic
    order, each placement's cells as index boxes: the template's boxes
    from `geogrid._rect_cell_span`, moved by the shift and cut to the grid
    as `geogrid.area_boxes` cuts them. A multi-rect template's cells are
    the union of its rects' boxes by inclusion-exclusion (every nonempty
    subset of rects, the intersection of their boxes signed by the
    subset's size), so a cell in two rects counts once, as in
    `geogrid.area_indices`.

    `fits` indexes the placements that meet `index.ocean_series`'s area
    constraint; `ocean` counts each such placement's ocean cells and
    `series` (filled by `_fill_series`) holds its ocean-mean series.
    """

    def __init__(self, template: AreaSet, offsets: tuple[list, list], spec: geogrid.GridSpec,
                 ocean: np.ndarray, min_ocean: float, dtype):
        self._template, self._spec = template, spec
        shifts = np.array(list(itertools.product(*offsets)), dtype=np.intp).reshape(-1, 2)
        m = len(template.rects)
        subsets = [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]
        self._signs = np.array([(-1) ** (len(c) + 1) for c in subsets])
        # half-open (lat, lon) bounds of each subset's cells, (T, 2) on the grid's unbounded
        # lattice, then (P, T, 2) moved and cut to the grid; `_boxes` is (P, T, 4): i0, i1,
        # j0, j1, and an empty box is four lookups of one entry
        span = np.array([geogrid._rect_cell_span(r, spec) for r in template.rects], dtype=np.intp)
        start = np.array([span[list(c), 0::2].max(axis=0) for c in subsets]) + shifts[:, None]
        stop = np.array([span[list(c), 1::2].min(axis=0) + 1 for c in subsets]) + shifts[:, None]
        start, stop = np.maximum(start, 0), np.minimum(stop, (spec.nlat, spec.nlon))
        self._boxes = np.stack([start[..., 0], stop[..., 0], start[..., 1], stop[..., 1]], axis=-1)
        self._boxes[(start >= stop).any(axis=-1)] = 0
        i0, i1, j0, j1 = np.moveaxis(self._boxes, -1, 0)
        cells = (i1 - i0) * (j1 - j0) @ self._signs
        n_ocean = self.box_sums(ocean)[:, 0]
        # `index.ocean_series`'s checks, in its order, on the same ratio
        fits = cells > 0
        frac = np.divide(n_ocean, cells, out=np.zeros(len(cells)), where=fits)
        fits &= ~(frac < min_ocean) & (frac != 0.0)
        self.fits = np.flatnonzero(fits)
        self._boxes, self.ocean = self._boxes[self.fits], n_ocean[self.fits]
        self._shifts = shifts[self.fits].tolist()
        self.series = np.empty((len(self.fits), spec.nt), dtype=dtype)
        # each table sum adds at most nlat + nlon roundings of sums of up
        # to nlat nlon values, and a placement combines 4 T of them
        self._table_err = 4 * len(subsets) * (spec.nlat + spec.nlon + 4 * len(subsets)) \
            * spec.nlat * spec.nlon * index._U64
        self._centre_err = 4 * (spec.nt + 4) * index._U64

    def box_sums(self, table: np.ndarray) -> np.ndarray:
        """(P, n): each placement's sum of the table's n layers."""
        i0, i1, j0, j1 = np.moveaxis(self._boxes, -1, 0)
        box = table[i1, j1] - table[i0, j1] - table[i1, j0] + table[i0, j0]
        return np.einsum("t,ktn->kn", self._signs, box)

    def error(self, peak: float) -> np.ndarray:
        """Per fitting placement, a bound on |series - index.ocean_series|
        in any finite month, given the largest |value| summed:
        - the float32 mean of n values, added in any order, is within
          (n + 1) u32 of it, and storing `series` as float32 adds u32;
        - the float64 table sums (see `_table_err`) are divided by n;
        - float64 centring, of this series and of `PairObjective`'s
          difference, adds less than 4 (nt + 4) u64 of it."""
        n = self.ocean
        return peak * ((n + 3) * _U32 + self._table_err / n + self._centre_err)

    def area(self, row: int) -> AreaSet:
        """The placement of fitting row `row`."""
        return _shifted(self._template, *self._shifts[row], self._spec)


def _fill_series(field: SSTField, lattices) -> float:
    """Fill each lattice's `series` with its placements' ocean means, from
    summed-area tables of `_TABLE_MONTHS` months at a time: float64 sums of
    the ocean values, non-ocean and non-finite ones taken as zero (ocean
    from month 0, as in `SSTField.ocean_mask`), and, in a slab that has
    any, counts of the non-finite ocean cells of each month. A month whose
    count is not zero is NaN, so a cell that is NaN in some months spoils
    those months of the placements that hold it, and nothing else. Returns
    the largest |value| summed."""
    ocean = field.ocean_mask()
    peak = 0.0
    for t0 in range(0, field.spec.nt, _TABLE_MONTHS):
        slab = field.values[t0:t0 + _TABLE_MONTHS]
        good = np.isfinite(slab) & ocean
        values = np.zeros(slab.shape)
        np.copyto(values, slab, where=good)
        peak = max(peak, float(np.abs(values).max()))
        sums = _table(values)
        bad = ocean & ~good
        bad = _table(bad.astype(np.int64)) if bad.any() else None
        for lattice in lattices:
            means = lattice.box_sums(sums) / lattice.ocean[:, None]
            if bad is not None:
                means[lattice.box_sums(bad) > 0] = np.nan
            lattice.series[:, t0:t0 + len(slab)] = means
    return peak


def exhaustive_search(
    field: SSTField,
    y_onset: np.ndarray,
    y_retreat: np.ndarray,
    template_a: AreaSet,
    template_b: AreaSet,
    domain: Rect,
    min_ocean: float = index.MIN_OCEAN,
) -> tuple[tuple[AreaSet, AreaSet], float]:
    """Evaluate every valid placement of A crossed with every valid
    placement of B, each a template moved by whole grid cells inside the
    domain (`_offsets`); return the argmax-q pair (lexicographic ties go to
    the earlier placement). Placements that break the area constraint or
    have a non-finite series are skipped; degenerate pairs never win.

    Every placement's series comes from summed-area tables of the field
    (`_fill_series`), built here and freed on return. `index.PairScorer`,
    on the season order and centred target of the `index.PairObjective`
    built first, stacks B's series once and scores A's in blocks, all
    pairs of a block at once, each q with a bound on its distance from the
    q of the placements' `geogrid.area_mean_series` series. Every pair
    whose q is within its bound of the best lower bound is scored again on
    those series by the `index.PairObjective`, and the best of these exact
    q wins; the q returned is the winner's exact q, as
    `index.evaluate_pair` gives it.

    A lattice of more than MAX_PAIRS pairs, counted from `_offsets` before
    any placement is built, is a ConfigError.
    """
    spec = field.spec
    offsets = {t: _offsets(t, domain, spec) for t in (template_a, template_b)}
    n_a, n_b = (math.prod(map(len, offsets[t])) for t in (template_a, template_b))
    if n_a * n_b > MAX_PAIRS:
        raise ConfigError(f"the {spec.nlat} x {spec.nlon} grid gives up to {n_a:,} x {n_b:,} = "
                          f"{n_a * n_b:,} placement pairs in {domain}; the oracle searches "
                          f"at most {MAX_PAIRS:,}")
    objective = index.PairObjective(field, y_onset, y_retreat, min_ocean)
    ocean = _table(field.ocean_mask()[None].astype(np.int64))

    def lattice(template, dtype):
        return _Lattice(template, offsets[template], spec, ocean, min_ocean, dtype)

    # B's float64 series become the scorer's stack; A's are read in blocks
    lattice_b = lattice(template_b, np.float64)
    if not len(lattice_b.fits):
        raise NemonsoonError(f"no placement of B in {domain} meets the area constraint")
    lattice_a = lattice(template_a, np.float32)
    peak = _fill_series(field, (lattice_a, lattice_b))
    # a non-finite series makes every pair it is in invalid
    rows_a, rows_b = (np.flatnonzero(np.isfinite(lat.series).all(axis=1))
                      for lat in (lattice_a, lattice_b))
    err_a, err_b = lattice_a.error(peak), lattice_b.error(peak)
    found = []  # (A row, B row, upper bound of exact q) of each candidate pair
    floor = -np.inf  # the best lower bound of an exact q so far
    if len(rows_b):
        series_b = lattice_b.series
        if len(rows_b) < len(series_b):
            series_b = series_b[rows_b]
        lattice_b.series = None  # the scorer centres B's series in place
        scorer = index.PairScorer(objective, series_b, err_b[rows_b])
        del series_b
        for lo in range(0, len(rows_a), scorer.BLOCK_ROWS):
            rows = rows_a[lo:lo + scorer.BLOCK_ROWS]
            # the exact q lies in [low, high]; both are made in the scorer's
            # buffers, high to within a rounding that _TIE covers
            low, high = scorer.scores(lattice_a.series[rows], err_a[rows])
            low -= high
            high *= 2.0
            high += low
            floor = np.fmax.reduce(low, axis=None, initial=floor)
            ia, ib = np.nonzero(high >= floor - _TIE)
            found.append((rows[ia], rows_b[ib], high[ia, ib]))
    best_q, best = -np.inf, None
    if found:
        ia, ib, upper = (np.concatenate(parts) for parts in zip(*found))
        keep = upper >= floor - _TIE
        # candidates are in (A, B) order: the first best of each A row, and
        # a later row only if it beats the best by more than _TIE
        for row_a, pairs in itertools.groupby(zip(ia[keep].tolist(), ib[keep].tolist()),
                                              key=lambda pair: pair[0]):
            area_a = lattice_a.area(row_a)
            row_q, row_best = -np.inf, None
            for _, row_b in pairs:
                area_b = lattice_b.area(row_b)
                report = objective(area_a, area_b)
                if report.valid and report.q > row_q:
                    row_q, row_best = report.q, (area_a, area_b)
            if row_q > best_q + _TIE:
                best_q, best = row_q, row_best
    if best is None:
        raise NemonsoonError(
            f"no valid (A, B) pair in {domain}: no placement of A meets the area "
            "constraint, or every pair is degenerate (constant or non-finite)")
    return best, best_q
