"""`chain_digest.py` is run by hand, so it runs here on one tiny world, to
keep it from breaking unseen."""

import hashlib
import json

import chain_digest
from nemonsoon import rl_env
from nemonsoon.geogrid import AreaSet, Rect, area_cells
from nemonsoon.synthdata import DLAT, RECT_A, RECT_B, SynthSpec

STEPS = ["synth", "cluster", "oracle", "optimize shift-only", "optimize shift-resize",
         "evaluate oracle", "evaluate shift-only", "evaluate shift-resize", "evaluate off-grid",
         "oracle two-rect", "optimize two-rect", "evaluate two-rect"]
FILES = {
    "world/sst/grid.json", "world/sst/sst.f32", "world/stations.csv", "world/indices.csv",
    "world/planted_areas.json", "world/initial_areas.json", "clusters.csv",
    "oracle/best_areas.json", "off_grid_areas.json", "two_rect_areas.json",
    "two-rect-oracle/best_areas.json", "two-rect-optimize/best_areas.json",
    "two-rect-optimize/history.csv", "evaluate-two-rect/objective.csv",
    "evaluate-two-rect/index.csv",
    "evaluate-oracle/objective.csv", "evaluate-oracle/index.csv",
    "evaluate-off-grid/objective.csv",
    *(f"{mode}/{name}" for mode in chain_digest.MODES
      for name in ("best_areas.json", "history.csv")),
    *(f"evaluate-{mode}/{name}" for mode in chain_digest.MODES
      for name in ("objective.csv", "index.csv")),
}


def test_digests_on_a_tiny_world(capsys):
    # 1,200 steps: past the DQN's default learn_start, so both modes train
    chain_digest.main(["--seeds", "0", "--timesteps", "1200", "--years", "6"])
    doc = json.loads(capsys.readouterr().out)
    assert (doc["timesteps"], doc["years"], list(doc["seeds"])) == (1200, 6, ["0"])
    got = doc["seeds"]["0"]
    assert set(got) == {"files", "stdout"}
    assert set(got["files"]) == FILES
    assert list(got["stdout"]) == STEPS
    assert all(len(lines) == 1 for lines in got["stdout"].values())
    # the oracle recovers the planted areas, and A off the grid is invalid
    assert got["files"]["oracle/best_areas.json"] == got["files"]["world/planted_areas.json"]
    # and from A split by rows, the planted areas with A split the same way
    split = rl_env.areas_to_json(chain_digest.split_by_rows(AreaSet.of(RECT_A), DLAT),
                                 AreaSet.of(RECT_B))
    assert got["files"]["two-rect-oracle/best_areas.json"] == \
        hashlib.sha256((json.dumps(split, indent=2) + "\n").encode()).hexdigest()
    # and the search from A cut in two moves, scores and finds exactly as from A whole
    files = got["files"]
    assert files["two-rect-optimize/history.csv"] == files["shift-only/history.csv"]
    for name in ("objective.csv", "index.csv"):
        assert files[f"evaluate-two-rect/{name}"] == files[f"evaluate-shift-only/{name}"]
    off_grid = AreaSet.of(RECT_A).shifted(50.0, 0.0)
    assert off_grid == AreaSet.of(Rect(53.0, 58.0, 103.0, 108.0))
    line = f"invalid pair: A: empty area: area covers no grid cells: {off_grid}"
    assert got["stdout"]["evaluate off-grid"] == [hashlib.sha256(line.encode()).hexdigest()]
    assert chain_digest.digests([0], 1200, 6) == doc


def test_onset_clusters_are_those_mostly_of_s_stations(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("cluster_id,station_id\n1,U000\n1,S001\n2,S002\n2,S003\n2,U004\n"
                    "3,S005\n4,U006\n")
    assert chain_digest.south_clusters(path) == [2, 3]


def test_split_by_rows_keeps_the_cells():
    area = AreaSet.of(Rect(5.0, 10.0, 101.0, 106.0))  # synth's initial A
    split = chain_digest.split_by_rows(area, DLAT)
    assert split == AreaSet.of(Rect(5.0, 7.0, 101.0, 106.0), Rect(7.5, 10.0, 101.0, 106.0))
    assert area_cells(split, SynthSpec().grid()) == area_cells(area, SynthSpec().grid())
