"""`search_quality.py` is run by hand, so its entry point runs here on one
small world, to keep it from breaking unseen."""

import json

import numpy as np

import search_quality
from nemonsoon.synthdata import SynthSpec

ROW_KEYS = {"world", "dqn_seed", "train_every", "best_q", "oracle_q", "ratio", "seconds"}


def test_report_on_a_small_world(tmp_path):
    # 1,200 steps: past the DQN's default learn_start, so both periods train
    setup = search_quality.Setup("small", (search_quality.synth_world(0, SynthSpec(years=6)),),
                                 dqn_seeds=(0, 1), steps=1_200)
    path = tmp_path / "search.json"
    search_quality.write_report(path, [setup])
    doc = json.loads(path.read_text())
    assert set(doc) == {"command", "periods", "blas_threads", "python", "numpy", "setups"}
    assert doc["periods"] == [1, 4]
    (got,) = doc["setups"]
    assert set(got) == {"name", "steps", "dqn_seeds", "worlds", "rows", "summary"}
    assert (got["name"], got["steps"], got["dqn_seeds"], got["worlds"]) == \
        ("small", 1_200, [0, 1], ["synth-0"])
    rows = got["rows"]
    assert all(set(row) == ROW_KEYS for row in rows)
    assert sorted((r["dqn_seed"], r["train_every"]) for r in rows) == \
        [(0, 1), (0, 4), (1, 1), (1, 4)]
    assert all(0.0 <= r["ratio"] <= 1.0 + 1e-9 and r["seconds"] > 0 for r in rows)
    assert all(r["ratio"] == r["best_q"] / r["oracle_q"] for r in rows)
    assert set(got["summary"]) == {"1", "4"}
    for period, summary in got["summary"].items():
        mine = [r for r in rows if r["train_every"] == int(period)]
        assert summary == {
            "runs": 2,
            "median_ratio": float(np.median([r["ratio"] for r in mine])),
            "min_ratio": min(r["ratio"] for r in mine),
            "median_seconds": float(np.median([r["seconds"] for r in mine])),
        }


def test_benchmark_world_loads():
    """discover-shift's seed-1 world, through the benchmark's own set-up."""
    name, load = search_quality.benchmark_world(1)
    field, y_onset, y_retreat, init_a, init_b = load()
    assert name == "discover-shift-1"
    assert field.values.shape == (240, 40, 40)
    assert y_onset.shape == y_retreat.shape == (240,)
    assert init_a == SynthSpec().planted_areas()[0].shifted(2.0, -2.0)
