"""sha256 digests of everything the CLI chain writes and prints, to check
that a change leaves every output byte-identical.

For each seed it runs, through `nemonsoon.cli.dispatch` in a fresh
temporary directory:

- `synth --seed S --years Y`, then `cluster` of its stations;
- `oracle` from the world's initial areas;
- `optimize --timesteps N` from them, once `--mode shift-only` and once
  `--mode shift-resize`;
- `evaluate` of the oracle's areas, of each optimize run's areas, and of
  the planted areas with A moved 50 degrees north, off the grid: an
  invalid pair;
- from the initial areas with A split by rows into two rects of the same
  cells (`two_rect_areas.json`): `oracle`, `optimize --mode shift-only`
  and `evaluate` of the optimize run's areas, so a multi-rect template is
  placed, jittered and moved.

Cluster ids are arbitrary, so `--onset-clusters` names the clusters whose
members are mostly S* (south-regime) stations. The JSON printed holds, per
seed, the sha256 of each file written, by its path in the run's
directory, and of each stdout line, per step, with the directory written
as `<work>`.

Run it from the root of a source checkout, with BLAS on one thread, and
compare the output of two checkouts:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/chain_digest.py --seeds 1 2 3 --timesteps 5000

Three seeds at 5,000 steps take about 7 seconds on a 2-core Xeon VM.
`tests/test_chain_digest.py` runs it on one tiny world.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from nemonsoon import cli, rl_env, stations
from nemonsoon.geogrid import AreaSet, Rect
from nemonsoon.synthdata import DLAT

MODES = (rl_env.SHIFT_ONLY, rl_env.SHIFT_AND_RESIZE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def south_clusters(path) -> list[int]:
    """The ids of the clusters in the clusters CSV at `path` whose members
    are mostly S* stations."""
    return sorted(cid for cid, members in stations.read_clusters_csv(path).items()
                  if 2 * sum(m.startswith("S") for m in members) > len(members))


def split_by_rows(area: AreaSet, dlat: float) -> AreaSet:
    """A one-rect area with its bounds on the centres of `dlat` degree rows,
    as two rects of the same cells: its first five rows and the rest."""
    (r,) = area.rects
    mid = r.lat_min + 4 * dlat
    return AreaSet.of(Rect(r.lat_min, mid, r.lon_min, r.lon_max),
                      Rect(mid + dlat, r.lat_max, r.lon_min, r.lon_max))


def chain(seed: int, timesteps: int, years: int, work: str) -> dict:
    """Run the chain for one seed with its outputs under `work`; return the
    digests of every file there and of every stdout line, per step."""
    printed = {}

    def run(name, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.dispatch([*argv, "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"{name} exited with {code}")
        printed[name] = [_sha(line.replace(work, "<work>").encode())
                         for line in out.getvalue().splitlines()]

    def path(*parts):
        return os.path.join(work, *parts)

    run("synth", "synth", "--out", path("world"), "--years", str(years))
    run("cluster", "cluster", "--stations", path("world", "stations.csv"),
        "--out", path("clusters.csv"))
    world = ["--sst", path("world", "sst"), "--stations", path("world", "stations.csv"),
             "--clusters", path("clusters.csv"),
             "--onset-clusters", ",".join(map(str, south_clusters(path("clusters.csv"))))]
    initial = ["--areas", path("world", "initial_areas.json")]
    run("oracle", "oracle", *world, *initial, "--out", path("oracle"))
    for mode in MODES:
        run(f"optimize {mode}", "optimize", *world, *initial, "--mode", mode,
            "--timesteps", str(timesteps), "--out", path(mode))
    planted_a, planted_b = rl_env.load_areas(path("world", "planted_areas.json"))
    rl_env.save_areas(planted_a.shifted(50.0, 0.0), planted_b, path("off_grid_areas.json"))
    for name, areas in (("oracle", path("oracle", "best_areas.json")),
                        *((mode, path(mode, "best_areas.json")) for mode in MODES),
                        ("off-grid", path("off_grid_areas.json"))):
        run(f"evaluate {name}", "evaluate", *world, "--areas", areas,
            "--out", path(f"evaluate-{name}"))
    initial_a, initial_b = rl_env.load_areas(path("world", "initial_areas.json"))
    rl_env.save_areas(split_by_rows(initial_a, DLAT), initial_b, path("two_rect_areas.json"))
    two_rect = ["--areas", path("two_rect_areas.json")]
    run("oracle two-rect", "oracle", *world, *two_rect, "--out", path("two-rect-oracle"))
    run("optimize two-rect", "optimize", *world, *two_rect, "--mode", rl_env.SHIFT_ONLY,
        "--timesteps", str(timesteps), "--out", path("two-rect-optimize"))
    run("evaluate two-rect", "evaluate", *world,
        "--areas", path("two-rect-optimize", "best_areas.json"), "--out", path("evaluate-two-rect"))
    files = {}
    for root, _, names in os.walk(work):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                files[os.path.relpath(os.path.join(root, name), work)] = _sha(fh.read())
    return {"files": dict(sorted(files.items())), "stdout": printed}


def digests(seeds, timesteps: int, years: int) -> dict:
    """The chain's digests for each seed, each run in its own temporary
    directory."""
    out = {"timesteps": timesteps, "years": years, "seeds": {}}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:
            out["seeds"][str(seed)] = chain(seed, timesteps, years, work)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--timesteps", type=int, default=5000, help="steps of each optimize run")
    parser.add_argument("--years", type=int, default=20, help="years of each synth world")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.seeds, args.timesteps, args.years), indent=1))


if __name__ == "__main__":
    main()
