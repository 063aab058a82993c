import numpy as np
import pytest

from nemonsoon import index
from nemonsoon.errors import InsufficientSeasonSamplesError
from nemonsoon.geogrid import GridSpec, SSTField


def make_field(values, lat0=0.0, lon0=100.0, dlat=0.5, dlon=0.5, t0="2000-01"):
    values = np.asarray(values, dtype=np.float32)
    nt, nlat, nlon = values.shape
    spec = GridSpec(lat0, lon0, dlat, dlon, nlat, nlon, t0, nt)
    return SSTField(spec=spec, values=values)


# values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the largest float, and one that needs 17 digits
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]


def monthly_values(rng, n, low=-1e3, high=1e3, gaps=0.0):
    """n floats for a monthly CSV round trip: uniform in [low, high), one in
    five scaled by a random power of ten, some replaced by SPECIAL_VALUES
    (those not below `low`), and a share `gaps` replaced by NaN."""
    values = rng.uniform(low, high, n)
    scaled = rng.random(n) < 0.2
    values[scaled] *= 10.0 ** rng.integers(-300, 300, int(scaled.sum()))
    special = [v for v in SPECIAL_VALUES if v >= low]
    picks = rng.random(n) < 0.1
    values[picks] = rng.choice(special, int(picks.sum()))
    values[rng.random(n) < gaps] = np.nan
    return values


def bits(values):
    """The bytes of a float64 array with every NaN made the one quiet NaN:
    bit-equal, NaN-aware comparison."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def season_centre(series, months):
    """float64 copy of `series` (time on the last axis) with each season's
    mean removed, by `index._centre`'s rule."""
    return index._centre(series, index.season_masks(months))


def season_target(y_onset, y_retreat, months):
    """One season-centred target, y_onset in onset months and y_retreat in
    retreat months: the reference for `PairObjective`'s target."""
    masks = index.season_masks(months)
    if not (len(y_onset) == len(y_retreat) == len(masks[0])):
        raise ValueError("series must share one time axis")
    return index._centre(np.where(masks[0], y_onset, y_retreat), masks)


def objective_on(t0, y_onset, y_retreat):
    """A `PairObjective` on a one-cell field whose axis starts at t0 and
    has the targets' length: the season order and centred target a
    `PairScorer` takes."""
    return index.PairObjective(make_field(np.full((len(y_onset), 1, 1), 20.0), t0=t0),
                               y_onset, y_retreat)


def seasonal_scores(diffs, target, months):
    """(r_onset, r_retreat, q) for each row of season-centred index
    differences against the season-centred target, one Pearson r per season,
    from one matmul per term over a time-ordered (nt, 2) season matrix: the
    scorer `PairObjective` replaced, kept as its reference. A row, or a
    target, that is constant within a season or not finite scores NaN."""
    r, q = _scores(np.atleast_2d(diffs), _season_products(target, index.season_masks(months)))
    return r[:, 0], r[:, 1], q


def _season_products(target, masks):
    seasons = np.stack(masks, axis=1).astype(float)
    return seasons, target[:, None] * seasons, (target * target) @ seasons


def _scores(diffs, products):
    seasons, target_seasons, target_sq = products
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (diffs @ target_seasons) / np.sqrt(((diffs * diffs) @ seasons) * target_sq)
    r = np.where(np.isfinite(r), r, np.nan)
    np.maximum(r, -1.0, out=r)
    np.minimum(r, 1.0, out=r)
    r_on, r_re = r[:, 0], r[:, 1]
    return r, 0.5 * (r_on * r_on + r_re * r_re)


def reference_pair_report(field, area_a, area_b, y_onset, y_retreat, min_ocean=0.8):
    """`evaluate_pair` before `PairObjective`: the checks in its order (A,
    B, seasons, the targets' length), then `_centre` of the time-ordered
    difference and `_scores`."""
    series = []
    for label, area in (("A", area_a), ("B", area_b)):
        s, violation = index.ocean_series(field, area, min_ocean)
        if s is None:
            return index.ObjectiveReport(np.nan, np.nan, np.nan, False, f"{label}: {violation}")
        series.append(s)
    try:
        masks = index.season_masks(field.spec.months())
    except InsufficientSeasonSamplesError as exc:
        return index.ObjectiveReport(np.nan, np.nan, np.nan, False, str(exc))
    target = season_target(y_onset, y_retreat, field.spec.months())
    diff = index._centre(np.subtract(series[1], series[0], dtype=float),
                         [np.flatnonzero(sel) for sel in masks])
    r, q = _scores(diff[None], _season_products(target, masks))
    if np.isnan(q[0]):
        finite = np.isfinite(diff).all() and np.isfinite(target).all()
        return index.ObjectiveReport(np.nan, np.nan, np.nan, False,
                                     "index or target constant within a season" if finite
                                     else "index or target has non-finite values")
    r_onset, r_retreat = r[0].tolist()
    return index.ObjectiveReport(r_onset, r_retreat, float(q[0]), True)


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

    def current_candidate(self):
        """No areas to offer the best-state tracking."""
        return None
