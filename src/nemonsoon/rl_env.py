"""Sequential decision environment over rectangle placements: discrete
shift/resize actions by grid cells, constraint checking, delta-q reward."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import geogrid, index
from .errors import ConfigError, EpisodeOverError, InvalidInitialAreasError
from .geogrid import AreaSet, Rect, SSTField

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
    min_ocean: float = 0.8
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


# steps each kind moves its axis's (min, max) edges by; a resize keeps the centre
_EDGE_STEPS = {"shift+": (1.0, 1.0), "shift-": (-1.0, -1.0),
               "expand": (-0.5, 0.5), "shrink": (0.5, -0.5)}


def _move_rect(rect: Rect, action: Action, step: float) -> Rect | None:
    lat_min, lat_max = rect.lat_min, rect.lat_max
    lon_min, lon_max = rect.lon_min, rect.lon_max
    lo, hi = _EDGE_STEPS[action.kind]
    if action.axis == "lat":
        lat_min, lat_max = lat_min + lo * step, lat_max + hi * step
    else:
        lon_min, lon_max = lon_min + lo * step, lon_max + hi * step
    if lat_min >= lat_max - 1e-9 or lon_min >= lon_max - 1e-9:
        return None
    return Rect(lat_min, lat_max, lon_min, lon_max)


def apply_action(
    area_a: AreaSet,
    area_b: AreaSet,
    action: Action,
    config: EnvConfig,
    cell: dict[str, float],
) -> tuple[AreaSet, AreaSet] | None:
    """Apply one action, whose step is the grid's `cell` size on its axis;
    returns the new (A, B) or None if the move kills an extent or leaves
    the domain. The ocean constraint is the objective's to check."""
    target = area_a if action.target == "A" else area_b
    moved = []
    for rect in target.rects:
        new = _move_rect(rect, action, cell[action.axis])
        if new is None:
            return None
        moved.append(new)
    new_area = AreaSet(tuple(moved))
    if not geogrid.inside(config.domain, new_area):
        return None
    return (new_area, area_b) if action.target == "A" else (area_a, new_area)


def encode_state(area_a: AreaSet, area_b: AreaSet, domain: Rect) -> np.ndarray:
    """Rect bounds min-max scaled to [0, 1] against the domain, A's rects
    then B's, 4 numbers per rect."""
    dlat = domain.lat_max - domain.lat_min
    dlon = domain.lon_max - domain.lon_min
    out = []
    for area in (area_a, area_b):
        for r in area.rects:
            out.extend([
                (r.lat_min - domain.lat_min) / dlat,
                (r.lat_max - domain.lat_min) / dlat,
                (r.lon_min - domain.lon_min) / dlon,
                (r.lon_max - domain.lon_min) / dlon,
            ])
    return np.array(out)


class AreaEnv:
    """Stateful episode environment over one read-only SST field, whose grid
    cell is the step of every move, and fixed rainfall targets. q comes from
    one `index.PairObjective` and is cached per pair of `geogrid.area_boxes`,
    so a move that keeps both areas' cells is scored from the cache."""

    def __init__(
        self,
        field: SSTField,
        y_onset: np.ndarray,
        y_retreat: np.ndarray,
        config: EnvConfig,
    ):
        self.field = field
        self.config = config
        self.cell = {"lat": field.spec.dlat, "lon": field.spec.dlon}
        self.actions = enumerate_actions(config.mode)
        self.n_actions = len(self.actions)
        self.obs_dim = len(encode_state(config.init_a, config.init_b, config.domain))
        self.objective = index.PairObjective(field, y_onset, y_retreat, config.min_ocean)
        self._q_cache: dict[tuple, float | None] = {}
        self.state: EnvState | None = None
        self._done = True

    # -- objective plumbing ------------------------------------------------

    def _q_of(self, area_a: AreaSet, area_b: AreaSet) -> float | None:
        """Objective of a geometry, or None if the report is invalid (which
        covers a broken area constraint)."""
        spec = self.field.spec
        key = geogrid.area_boxes(area_a, spec), geogrid.area_boxes(area_b, spec)
        if key not in self._q_cache:
            report = self.objective(area_a, area_b)
            self._q_cache[key] = report.q if report.valid else None
        return self._q_cache[key]

    # -- episode lifecycle -------------------------------------------------

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        if not geogrid.inside(cfg.domain, cfg.init_a, cfg.init_b) \
                or self._q_of(cfg.init_a, cfg.init_b) is None:
            raise InvalidInitialAreasError("configured initial areas violate constraints")
        for _ in range(1000):
            area_a = self._jitter_area(cfg.init_a, rng)
            area_b = self._jitter_area(cfg.init_b, rng)
            if geogrid.inside(cfg.domain, area_a, area_b):
                q = self._q_of(area_a, area_b)
                if q is not None:
                    break
        else:  # pragma: no cover - jitter always admits the unjittered areas
            area_a, area_b = cfg.init_a, cfg.init_b
            q = self._q_of(area_a, area_b)
        self.state = EnvState(area_a, area_b, t_step=0, last_q=q)
        self._done = False
        return encode_state(area_a, area_b, cfg.domain)

    def _jitter_area(self, area: AreaSet, rng: np.random.Generator) -> AreaSet:
        j = self.config.jitter
        if j == 0:
            return area
        # whole cells: one (lat, lon) count per rect, drawn in that order
        return AreaSet(tuple(r.shifted(int(rng.integers(-j, j + 1)) * self.cell["lat"],
                                       int(rng.integers(-j, j + 1)) * self.cell["lon"])
                             for r in area.rects))

    def step(self, action_idx: int) -> tuple[np.ndarray, float, bool]:
        if self._done or self.state is None:
            raise EpisodeOverError("call reset() before stepping")
        cfg = self.config
        st = self.state
        action = self.actions[action_idx]
        result = apply_action(st.area_a, st.area_b, action, cfg, self.cell)
        new_q = self._q_of(*result) if result is not None else None
        if result is None or new_q is None:
            reward = -INVALID_PENALTY
            next_state = EnvState(st.area_a, st.area_b, st.t_step + 1, st.last_q)
        else:
            reward = new_q - st.last_q
            next_state = EnvState(result[0], result[1], st.t_step + 1, new_q)
        self.state = next_state
        self._done = next_state.t_step >= cfg.episode_len
        obs = encode_state(next_state.area_a, next_state.area_b, cfg.domain)
        return obs, reward, self._done

    def current_candidate(self) -> tuple[AreaSet, AreaSet, float] | None:
        """Current geometry and its objective, for best-state tracking."""
        if self.state is None:
            return None
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
