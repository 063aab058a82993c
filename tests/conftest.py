import numpy as np
import pytest

from nemonsoon.geogrid import GridSpec, SSTField


def make_field(values, lat0=0.0, lon0=100.0, dlat=0.5, dlon=0.5, t0="2000-01"):
    values = np.asarray(values, dtype=np.float32)
    nt, nlat, nlon = values.shape
    spec = GridSpec(lat0, lon0, dlat, dlon, nlat, nlon, t0, nt)
    return SSTField(spec=spec, values=values)


@pytest.fixture
def small_field():
    """4x4 grid, 3 months, all ocean, value = 20 + t."""
    vals = np.zeros((3, 4, 4), dtype=np.float32)
    for t in range(3):
        vals[t] = 20.0 + t
    return make_field(vals)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class ChainEnv:
    """Toy deterministic chain MDP: states 0..N-1, actions {left, right},
    reward 1 on entering the terminal state N-1. Known optimal values make
    it a ground truth for Q-learning."""

    N = 5

    def __init__(self):
        self.obs_dim = self.N
        self.n_actions = 2
        self.pos = 0

    def _obs(self):
        v = np.zeros(self.N)
        v[self.pos] = 1.0
        return v

    def reset(self, rng):
        self.pos = 0
        return self._obs()

    def step(self, action):
        self.pos = max(0, self.pos - 1) if action == 0 else self.pos + 1
        reward = 1.0 if self.pos == self.N - 1 else 0.0
        done = self.pos == self.N - 1
        return self._obs(), reward, done
