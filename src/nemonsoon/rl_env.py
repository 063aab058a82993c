"""Sequential decision environment over rectangle placements: discrete
shift/resize actions by half grid cells, constraint checking, delta-q reward."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import geogrid, index
from .errors import ConfigError, EpisodeOverError, InvalidInitialAreasError
from .geogrid import AreaSet, GridSpec, Rect, SSTField

SHIFT_ONLY = "shift-only"
SHIFT_AND_RESIZE = "shift-resize"
INVALID_PENALTY = 0.05  # the reward for a refused move or an invalid geometry
# where an areas file's rects must lie: a finite but huge bound would overflow later
GLOBE = Rect(-90.0, 90.0, -360.0, 360.0)


@dataclass(frozen=True)
class Action:
    target: str  # 'A' or 'B'
    axis: str    # 'lat' or 'lon'
    kind: str    # 'shift+', 'shift-', 'expand', 'shrink'


def enumerate_actions(mode: str) -> list[Action]:
    """Deterministic action ordering: target (A, B) x axis (lat, lon) x
    kind (shift+, shift-[, expand, shrink]). Length 8 or 16."""
    if mode == SHIFT_ONLY:
        kinds = ["shift+", "shift-"]
    elif mode == SHIFT_AND_RESIZE:
        kinds = ["shift+", "shift-", "expand", "shrink"]
    else:
        raise ValueError(f"unknown action mode {mode!r}")
    return [
        Action(target, axis, kind)
        for target in ("A", "B")
        for axis in ("lat", "lon")
        for kind in kinds
    ]


@dataclass(frozen=True)
class EnvConfig:
    mode: str
    domain: Rect
    init_a: AreaSet
    init_b: AreaSet
    episode_len: int = 64
    min_ocean: float = index.MIN_OCEAN
    jitter: int = 0

    def __post_init__(self):
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        if not 0 <= self.min_ocean <= 1:
            raise ValueError("min_ocean must be in [0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        enumerate_actions(self.mode)


@dataclass
class EnvState:
    area_a: AreaSet
    area_b: AreaSet
    t_step: int
    last_q: float


# half cells each kind moves its axis's (min, max) edges by; a resize keeps the centre
_EDGE_STEPS = {"shift+": (2, 2), "shift-": (-2, -2), "expand": (-1, 1), "shrink": (1, -1)}


def apply_action(counts: tuple, action: Action, config: EnvConfig,
                 spec: GridSpec) -> tuple[tuple, AreaSet] | None:
    """Apply one action to the one vector of half-cell counts that places its
    target's template (`geogrid.placed`), so the area moves as one: a shift
    moves both edges of its axis one cell, a resize each edge half a cell.
    Returns the new counts and the area they place, or None if the move kills
    an extent or leaves the domain. The ocean constraint is the objective's."""
    (lo, hi), (a, b, c, d) = _EDGE_STEPS[action.kind], counts
    moved = (a + lo, b + hi, c, d) if action.axis == "lat" else (a, b, c + lo, d + hi)
    area = geogrid.placed(config.init_a if action.target == "A" else config.init_b, moved, spec)
    if area is None or not geogrid.inside(config.domain, area):
        return None
    return moved, area


def encode_state(area_a: AreaSet, area_b: AreaSet, domain: Rect) -> np.ndarray:
    """Each area's extent, the bounding box of its rects, min-max scaled to [0, 1]
    against the domain: A's (lat_min, lat_max, lon_min, lon_max), then B's. Always 8
    numbers, so the search sees an area as one, however its template is cut into rects."""
    lat0, lon0 = domain.lat_min, domain.lon_min
    dlat, dlon = domain.lat_max - lat0, domain.lon_max - lon0
    out = []
    for area in (area_a, area_b):
        r = area.rects[0]
        lat_min, lat_max, lon_min, lon_max = r.lat_min, r.lat_max, r.lon_min, r.lon_max
        if len(area.rects) > 1:  # no slice or generator: this runs on every environment step
            for r in area.rects:
                lat_min, lat_max = min(lat_min, r.lat_min), max(lat_max, r.lat_max)
                lon_min, lon_max = min(lon_min, r.lon_min), max(lon_max, r.lon_max)
        out.extend([(lat_min - lat0) / dlat, (lat_max - lat0) / dlat,
                    (lon_min - lon0) / dlon, (lon_max - lon0) / dlon])
    return np.array(out)


class AreaEnv:
    """Stateful episode environment over one read-only SST field and fixed
    rainfall targets. Each area is its configured template placed by one
    vector of half-cell counts (`geogrid.placed`), so it moves as one and
    moves add up no roundings, and is observed as one, by its extent
    (`encode_state`). q comes from one `index.PairObjective`, whose cache
    knows a pair by its cells: a move that keeps both areas' cells is a lookup."""

    def __init__(
        self,
        field: SSTField,
        y_onset: np.ndarray,
        y_retreat: np.ndarray,
        config: EnvConfig,
    ):
        self.field = field
        self.config = config
        self.actions = enumerate_actions(config.mode)
        self.n_actions = len(self.actions)
        self.obs_dim = 8  # encode_state's length: each area's extent
        self.objective = index.PairObjective(field, y_onset, y_retreat, config.min_ocean)
        self._counts: dict[str, tuple] = {}  # per target, the counts that place the state's area
        self.state: EnvState | None = None
        self._done = True

    def _q_of(self, area_a: AreaSet, area_b: AreaSet) -> float | None:
        """Objective of a geometry, or None if the report is invalid (which
        covers a broken area constraint)."""
        report = self.objective(area_a, area_b)
        return report.q if report.valid else None

    # -- episode lifecycle -------------------------------------------------

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        if not geogrid.inside(cfg.domain, cfg.init_a, cfg.init_b) \
                or self._q_of(cfg.init_a, cfg.init_b) is None:
            raise InvalidInitialAreasError("configured initial areas violate constraints")
        # 1000 jittered tries, then the unjittered areas, which pass
        for jitter in [cfg.jitter] * 1000 + [0]:
            (counts_a, area_a), (counts_b, area_b) = (self._jitter(template, rng, jitter)
                                                      for template in (cfg.init_a, cfg.init_b))
            if geogrid.inside(cfg.domain, area_a, area_b) \
                    and (q := self._q_of(area_a, area_b)) is not None:
                break
        self._counts = {"A": counts_a, "B": counts_b}
        self.state = EnvState(area_a, area_b, t_step=0, last_q=q)
        self._done = False
        return encode_state(area_a, area_b, cfg.domain)

    def _jitter(self, template: AreaSet, rng: np.random.Generator,
                jitter: int) -> tuple[tuple, AreaSet]:
        """Counts moving the whole template up to `jitter` whole cells per axis,
        one (lat, lon) draw per area, and their area; for 0, the template."""
        if jitter == 0:
            return (0, 0, 0, 0), template
        i, j = (2 * int(rng.integers(-jitter, jitter + 1)) for _ in "ij")
        return (i, i, j, j), geogrid.placed(template, (i, i, j, j), self.field.spec)

    def step(self, action_idx: int) -> tuple[np.ndarray, float, bool]:
        if self._done:  # True until reset() sets a state
            raise EpisodeOverError("call reset() before stepping")
        cfg = self.config
        st = self.state
        action = self.actions[action_idx]
        moved = apply_action(self._counts[action.target], action, cfg, self.field.spec)
        if moved is not None:
            areas = (moved[1], st.area_b) if action.target == "A" else (st.area_a, moved[1])
        if moved is None or (new_q := self._q_of(*areas)) is None:
            reward = -INVALID_PENALTY
            next_state = EnvState(st.area_a, st.area_b, st.t_step + 1, st.last_q)
        else:
            reward = new_q - st.last_q
            self._counts[action.target] = moved[0]
            next_state = EnvState(*areas, st.t_step + 1, new_q)
        self.state = next_state
        self._done = next_state.t_step >= cfg.episode_len
        obs = encode_state(next_state.area_a, next_state.area_b, cfg.domain)
        return obs, reward, self._done

    def current_candidate(self) -> tuple[AreaSet, AreaSet, float]:
        """Current geometry and its objective, for best-state tracking (after reset())."""
        return self.state.area_a, self.state.area_b, self.state.last_q


def areas_to_json(area_a: AreaSet, area_b: AreaSet) -> dict:
    return {"A": area_a.as_lists(), "B": area_b.as_lists()}


def areas_from_json(doc: dict) -> tuple[AreaSet, AreaSet]:
    def build(rows):
        return AreaSet(tuple(Rect(*map(float, row)) for row in rows))

    return build(doc["A"]), build(doc["B"])


def save_areas(area_a: AreaSet, area_b: AreaSet, path: str | os.PathLike) -> None:
    with geogrid.atomic_write(path) as fh:
        json.dump(areas_to_json(area_a, area_b), fh, indent=2)
        fh.write("\n")


def load_areas(path: str | os.PathLike) -> tuple[AreaSet, AreaSet]:
    with open(path) as fh:
        try:
            areas = areas_from_json(json.load(fh))
            if not geogrid.inside(GLOBE, *areas):
                raise ValueError(f"a rect lies outside {GLOBE}")
            return areas
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"bad areas file {path}: {exc!r}") from exc
