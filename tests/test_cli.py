import csv
import json
import os

import numpy as np
import pytest

from nemonsoon import dqn, forecast
from nemonsoon.cli import dispatch
from nemonsoon.errors import NonFiniteLossError
from nemonsoon.geogrid import SSTField, load_sst, save_sst
from nemonsoon.index import write_index_csv
from nemonsoon.rl_env import load_areas
from nemonsoon.stations import Station, write_stations_csv
from nemonsoon.forecast import write_indices_csv
from nemonsoon.synthdata import gen_forecast_cluster


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    assert dispatch(["synth", "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def clustered(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("clustered") / "clusters.csv"
    rc = dispatch(["cluster", "--stations", str(world / "stations.csv"),
                   "--out", str(out)])
    assert rc == 0
    return out


def world_args(world, clustered):
    return ["--sst", str(world / "sst"),
            "--stations", str(world / "stations.csv"),
            "--clusters", str(clustered),
            "--onset-clusters", "1"]


class TestSynth:
    def test_outputs_exist(self, world):
        for name in ("sst/grid.json", "sst/sst.f32", "stations.csv",
                     "indices.csv", "planted_areas.json", "initial_areas.json"):
            assert (world / name).exists(), name

    def test_byte_identical_rerun(self, world, tmp_path):
        again = tmp_path / "again"
        assert dispatch(["synth", "--out", str(again), "--seed", "0"]) == 0
        for name in ("sst/sst.f32", "stations.csv", "indices.csv"):
            assert (again / name).read_bytes() == (world / name).read_bytes()

    def test_seed_changes_world(self, world, tmp_path):
        other = tmp_path / "other"
        assert dispatch(["synth", "--out", str(other), "--seed", "1"]) == 0
        assert (other / "sst/sst.f32").read_bytes() != (world / "sst/sst.f32").read_bytes()


class TestCluster:
    def test_two_regimes(self, clustered):
        with open(clustered, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ids = {int(r["cluster_id"]) for r in rows}
        assert len(rows) == 40
        assert min(ids) == 1
        # each cluster must be regime-pure (S* vs U* station ids)
        by_cluster = {}
        for r in rows:
            by_cluster.setdefault(int(r["cluster_id"]), set()).add(r["station_id"][0])
        assert all(len(initials) == 1 for initials in by_cluster.values())

    @pytest.mark.parametrize("sites, gappy, usable", [
        ([(1.0, 100.0)], False, 1),
        ([(1.0, 100.0), (5.0, 104.0)], True, 0),
    ], ids=["one-station", "qc-drops-both"])
    def test_fewer_than_two_usable_stations_is_config_error(self, tmp_path, capsys,
                                                            sites, gappy, usable):
        rain = np.full(36, 80.0)
        if gappy:
            rain[::12] = np.nan  # every January missing: QC drops the station
        path = tmp_path / "stations.csv"
        write_stations_csv([Station(f"S{k}", lat, lon, "2000-01", rain)
                            for k, (lat, lon) in enumerate(sites)], path)
        rc = dispatch(["cluster", "--stations", str(path),
                       "--out", str(tmp_path / "clusters.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path} has {usable} usable station(s) after QC; "
                       f"clustering needs at least 2\n")
        assert not (tmp_path / "clusters.csv").exists()


class TestEvaluate:
    def test_planted_areas_score(self, world, clustered, tmp_path, capsys):
        rc = dispatch(["evaluate", *world_args(world, clustered),
                       "--areas", str(world / "planted_areas.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "objective.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["valid"] == "true"
        assert float(row["q"]) > 0.7
        with open(tmp_path / "index.csv", newline="") as fh:
            z = [float(r["z"]) for r in csv.DictReader(fh)]
        assert abs(np.mean(z)) < 1e-9
        assert abs(np.std(z) - 1.0) < 1e-9


class TestOracle:
    def test_recovers_planted(self, world, clustered, tmp_path, capsys):
        rc = dispatch(["oracle", *world_args(world, clustered),
                       "--areas", str(world / "initial_areas.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("oracle q = 0.8668; ")
        best = load_areas(tmp_path / "best_areas.json")
        planted = load_areas(world / "planted_areas.json")
        assert best == planted

    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_no_step_sets_the_lattice(self, world, clustered, tmp_path, capsys, by):
        """The oracle moves areas by whole grid cells only: a --step flag,
        or a config file's "step", is refused before anything is written."""
        argv = ["oracle", *world_args(world, clustered),
                "--areas", str(world / "initial_areas.json"), "--out", str(tmp_path / "out")]
        if by == "flag":
            argv += ["--step", "0.25"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"step": 0.25}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert ("unrecognized arguments: --step 0.25" if by == "flag" else "['step']") in err
        assert not (tmp_path / "out" / "best_areas.json").exists()

    def test_lattice_past_the_cap_is_config_error(self, world, clustered, tmp_path, capsys,
                                                  monkeypatch):
        """More than MAX_PAIRS pairs exits 2 before any lattice is built."""
        monkeypatch.setattr(dqn, "MAX_PAIRS", 900 * 900 - 1)
        monkeypatch.setattr(dqn, "_Lattice", None)  # never reached
        rc = dispatch(["oracle", *world_args(world, clustered),
                       "--areas", str(world / "initial_areas.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: the 40 x 40 grid gives up to 900 x 900 = 810,000 placement pairs in ")
        assert not (tmp_path / "best_areas.json").exists()

    def test_all_pairs_degenerate_exit_1(self, world, clustered, tmp_path, capsys):
        spec = load_sst(world / "sst").spec
        flat = SSTField(spec, np.full((spec.nt, spec.nlat, spec.nlon), 20.0, dtype=np.float32))
        save_sst(flat, tmp_path / "flat")
        args = world_args(world, clustered)
        args[1] = str(tmp_path / "flat")
        rc = dispatch(["oracle", *args, "--areas", str(world / "initial_areas.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err


class TestOptimize:
    def test_runs_and_is_deterministic(self, world, clustered, tmp_path):
        args = ["optimize", *world_args(world, clustered),
                "--areas", str(world / "initial_areas.json"),
                "--timesteps", "200", "--episode-len", "16", "--seed", "5"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        for name in ("best_areas.json", "history.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        with open(out1 / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        best_q = [float(r["best_q"]) for r in rows]
        assert best_q == sorted(best_q)  # best-so-far never decreases

    def test_invalid_initial_areas_exit_1(self, world, clustered, tmp_path):
        bad = tmp_path / "bad_areas.json"
        bad.write_text(json.dumps(
            {"A": [[-30.0, -25.0, 103.0, 108.0]], "B": [[12.0, 17.0, 112.0, 117.0]]}))
        rc = dispatch(["optimize", *world_args(world, clustered),
                       "--areas", str(bad), "--timesteps", "50",
                       "--out", str(tmp_path / "out")])
        assert rc == 1


@pytest.fixture(scope="module")
def forecast_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("fworld")
    nt = 144  # 1982-01 .. 1993-12
    target, ne, cands = gen_forecast_cluster(nt, seed=0)
    target = np.maximum(target, 0.0)
    sts = [Station(f"C{k}", 5.0 + k, 100.0, "1982-01", target) for k in range(2)]
    write_stations_csv(sts, out / "stations.csv")
    (out / "clusters.csv").write_text("cluster_id,station_id\n1,C0\n1,C1\n")
    write_indices_csv(cands, "1982-01", out / "indices.csv")
    write_index_csv(ne, "1982-01", out / "ne.csv")
    return out


class TestForecast:
    def _args(self, fw, out):
        return ["forecast",
                "--stations", str(fw / "stations.csv"),
                "--clusters", str(fw / "clusters.csv"),
                "--indices", str(fw / "indices.csv"),
                "--ne-index", str(fw / "ne.csv"),
                "--cluster", "1", "--with-ne", "--small-grid",
                "--fold", "1982-1991:1992:1993",
                "--out", str(out)]

    def test_report_schema(self, forecast_world, tmp_path):
        out = tmp_path / "report.csv"
        assert dispatch(self._args(forecast_world, out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["arm"] for r in rows] == ["base", "base+ne"]
        assert all(float(r["rmse_mm_month"]) > 0 for r in rows)

    def test_without_ne_flag_keeps_base_only(self, forecast_world, tmp_path):
        out = tmp_path / "base.csv"
        args = self._args(forecast_world, out)
        args.remove("--with-ne")
        assert dispatch(args) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["arm"] for r in rows] == ["base"]

    def test_missing_ne_index_is_config_error(self, forecast_world, tmp_path, capsys):
        args = self._args(forecast_world, tmp_path / "x.csv")
        k = args.index("--ne-index")
        del args[k:k + 2]
        assert dispatch(args) == 2

    @pytest.mark.parametrize("line", [5, 144], ids=["inner", "last"])
    def test_ne_index_missing_a_month_is_config_error(self, forecast_world, tmp_path,
                                                      capsys, line):
        lines = (forecast_world / "ne.csv").read_text().splitlines(keepends=True)
        gap = lines[line].split(",")
        del lines[line]
        short = tmp_path / "ne_short.csv"
        short.write_text("".join(lines))
        args = self._args(forecast_world, tmp_path / "x.csv")
        args[args.index("--ne-index") + 1] = str(short)
        assert dispatch(args) == 2
        assert f"{gap[0]}-{int(gap[1]):02d}" in capsys.readouterr().err


    def _with_bad_number(self, fw, tmp_path, flag, name):
        lines = (fw / name).read_text().splitlines(keepends=True)
        fields = lines[3].rstrip("\r\n").split(",")
        lines[3] = ",".join(fields[:-1] + ["abc"]) + "\n"
        bad = tmp_path / name
        bad.write_text("".join(lines))
        args = self._args(fw, tmp_path / "x.csv")
        args[args.index(flag) + 1] = str(bad)
        return args

    def test_bad_number_in_indices_is_format_error(self, forecast_world, tmp_path, capsys):
        args = self._with_bad_number(forecast_world, tmp_path, "--indices", "indices.csv")
        assert dispatch(args) == 1
        assert "line 4" in capsys.readouterr().err

    def test_bad_number_in_ne_index_is_config_error(self, forecast_world, tmp_path, capsys):
        args = self._with_bad_number(forecast_world, tmp_path, "--ne-index", "ne.csv")
        assert dispatch(args) == 2
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name, code", [
        ("--stations", "stations.csv", 1),
        ("--indices", "indices.csv", 1),
        ("--ne-index", "ne.csv", 2),
    ], ids=["stations", "indices", "ne-index"])
    @pytest.mark.parametrize("field, value, message", [
        ("month", "13", "month out of range 1..12"),
        ("year", "10000", "year out of range 0..9999"),
    ], ids=["month-13", "year-10000"])
    def test_date_out_of_range_names_file_and_line(self, forecast_world, tmp_path, capsys,
                                                   flag, name, code, field, value, message):
        lines = (forecast_world / name).read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        fields = lines[3].rstrip("\r\n").split(",")
        fields[header.index(field)] = value
        lines[3] = ",".join(fields) + "\n"
        bad = tmp_path / name
        bad.write_text("".join(lines))
        args = self._args(forecast_world, tmp_path / "x.csv")
        args[args.index(flag) + 1] = str(bad)
        assert dispatch(args) == code
        assert f"error: bad row at line 4 of {bad}: {message}\n" == capsys.readouterr().err

    def test_fold_without_windows_is_config_error(self, forecast_world, tmp_path, capsys):
        """The world ends in 1993, so a 2050 test year gets no window."""
        args = self._args(forecast_world, tmp_path / "x.csv")
        args[args.index("--fold") + 1] = "1982-1991:1992:2050"
        assert dispatch(args) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fold_before_the_data_is_config_error(self, forecast_world, tmp_path, capsys):
        """No month of 1950-1962 is on the 1982-1993 axis: the fold is
        refused before the correlation bar, which has no training rows."""
        args = self._args(forecast_world, tmp_path / "x.csv")
        args[args.index("--fold") + 1] = "1950-1960:1961:1962"
        assert dispatch(args) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fold_flags_replace_config_folds(self, forecast_world, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": ["1982-1990:1991:1992"]}))
        flag_only = tmp_path / "flag.csv"
        assert dispatch(self._args(forecast_world, flag_only)) == 0
        both = tmp_path / "both.csv"
        assert dispatch(self._args(forecast_world, both) + ["--config", str(cfg)]) == 0
        assert both.read_bytes() == flag_only.read_bytes()

    def test_worker_error_exits_1_without_traceback(self, forecast_world, tmp_path, capsys,
                                                    monkeypatch):
        """The full grid trains in worker processes; one's error reaches
        the CLI as its own type."""
        def diverge(*args, **kwargs):
            raise NonFiniteLossError("forecast loss became nan")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(forecast, "train_forecaster", diverge)
        args = self._args(forecast_world, tmp_path / "x.csv")
        args.remove("--small-grid")
        assert dispatch(args) == 1
        err = capsys.readouterr().err
        assert err == "error: forecast loss became nan\n"

    def test_cluster_without_usable_stations_is_config_error(self, forecast_world,
                                                             tmp_path, capsys):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text((forecast_world / "clusters.csv").read_text() + "2,MISSING\n")
        args = self._args(forecast_world, tmp_path / "x.csv")
        args[args.index("--clusters") + 1] = str(clusters)
        args[args.index("--cluster") + 1] = "2"
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no usable stations" in err


class TestBadInputs:
    """Inputs that once gave a traceback or a plausible wrong answer."""

    def _evaluate(self, world, clustered, tmp_path, **swap):
        args = ["evaluate", *world_args(world, clustered),
                "--areas", str(world / "planted_areas.json"), "--out", str(tmp_path / "out")]
        for flag, value in swap.items():
            args[args.index(f"--{flag.replace('_', '-')}") + 1] = str(value)
        return dispatch(args)

    @pytest.mark.parametrize("command", ["evaluate", "optimize", "oracle"])
    def test_onset_cluster_without_usable_stations(self, world, clustered, tmp_path,
                                                   capsys, command):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text(clustered.read_text() + "9,MISSING\n")
        args = world_args(world, clustered)
        args[args.index("--clusters") + 1] = str(clusters)
        args[args.index("--onset-clusters") + 1] = "9"
        rc = dispatch([command, *args, "--areas", str(world / "initial_areas.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "no usable stations" in capsys.readouterr().err

    def test_forecast_cluster_not_in_clusters_csv(self, world, clustered, tmp_path, capsys):
        """The synth world clusters into 1 and 2, so 3 names no cluster."""
        indices, t0 = forecast.read_indices_csv(world / "indices.csv")
        ne = tmp_path / "ne.csv"
        write_index_csv(np.zeros(len(next(iter(indices.values())))), t0, ne)
        rc = dispatch(["forecast", "--stations", str(world / "stations.csv"),
                       "--clusters", str(clustered), "--indices", str(world / "indices.csv"),
                       "--ne-index", str(ne), "--cluster", "3", "--small-grid",
                       "--out", str(tmp_path / "report.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: clusters [3] are not in {clustered}\n"

    def test_onset_clusters_not_in_clusters_csv(self, world, clustered, tmp_path, capsys):
        args = world_args(world, clustered)
        args[args.index("--onset-clusters") + 1] = "1,2,3,4"
        rc = dispatch(["optimize", *args, "--areas", str(world / "initial_areas.json"),
                       "--timesteps", "10", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: clusters [3, 4] are not in {clustered}\n"

    @pytest.mark.parametrize("onset, side", [("1,2", "retreat"), ("", "onset"), (",", "onset")],
                             ids=["all", "empty", "comma"])
    def test_onset_clusters_leaving_a_target_without_clusters(self, world, clustered,
                                                              tmp_path, capsys, onset, side):
        """The synth world clusters into 1 and 2: naming both leaves the
        retreat target no cluster, naming neither the onset target."""
        assert self._evaluate(world, clustered, tmp_path, onset_clusters=onset) == 2
        assert capsys.readouterr().err == (
            f"error: --onset-clusters leaves the {side} target with no cluster "
            f"in {clustered}\n")

    def test_station_axis_off_the_sst_axis(self, world, clustered, tmp_path, capsys):
        lines = (world / "stations.csv").read_text().splitlines(keepends=True)
        shifted = tmp_path / "stations.csv"
        with open(shifted, "w") as fh:
            fh.write(lines[0])
            for line in lines[1:]:
                fields = line.split(",")
                fields[3] = str(int(fields[3]) - 5)
                fh.write(",".join(fields))
        assert self._evaluate(world, clustered, tmp_path, stations=shifted) == 2
        assert "station axis (1977-01, 240 months)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [(5, "-4.0"), (1, "95.0"), (2, "-181")],
                             ids=["negative-rain", "lat", "lon"])
    def test_station_value_out_of_range_is_format_error(self, world, tmp_path, capsys,
                                                        field, value):
        lines = (world / "stations.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[field] = value + ("\n" if field == 5 else "")
        lines[3] = ",".join(fields)
        bad = tmp_path / "stations.csv"
        bad.write_text("".join(lines))
        rc = dispatch(["cluster", "--stations", str(bad), "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err

    def test_bad_cluster_id_is_format_error(self, world, clustered, tmp_path, capsys):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text(clustered.read_text() + "x,S000\n")
        assert self._evaluate(world, clustered, tmp_path, clusters=clusters) == 1
        assert "line 42" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, world, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "stations": str(world / "stations.csv"),
            "out": str(tmp_path / "from_config.csv"),
            "d": 2.0,
        }))
        assert dispatch(["cluster", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()
        flag_out = tmp_path / "from_flag.csv"
        assert dispatch(["cluster", "--config", str(cfg), "--out", str(flag_out)]) == 0
        assert flag_out.exists()

    def test_misspelt_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"timestep": 5}))
        assert dispatch(["optimize", "--config", str(cfg)]) == 2
        assert "'timestep'" in capsys.readouterr().err

    def test_other_subcommands_keys_are_accepted(self, world, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "stations": str(world / "stations.csv"),
            "out": str(tmp_path / "from_config.csv"),
            "timesteps": 5, "min_ocean": 1.0, "folds": ["1982-1990:1991:1992"],
        }))
        assert dispatch(["cluster", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    @pytest.mark.parametrize("spelling", ["space", "equals"])
    def test_second_config_is_config_error(self, world, tmp_path, capsys, spelling):
        """A second --config is not read in silence: here it alone would
        fail, on a misspelt key."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps({"stations": str(world / "stations.csv"),
                                     "out": str(tmp_path / "clusters.csv")}))
        second.write_text(json.dumps({"timestep": 5}))
        flag = ["--config", str(second)] if spelling == "space" else [f"--config={second}"]
        assert dispatch(["cluster", "--config", str(first), *flag]) == 2
        assert capsys.readouterr().err == f"error: more than one --config: {first}, {second}\n"
        assert not (tmp_path / "clusters.csv").exists()

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "bad-json", "not-object"])
    @pytest.mark.parametrize("spelling", ["space", "equals"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, content, spelling):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        flag = ["--config", str(cfg)] if spelling == "space" else [f"--config={cfg}"]
        assert dispatch(["cluster", *flag]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content", [
    '{"A": [[8.0, 3.0, 103.0, 108.0]], "B": [[12.0, 17.0, 112.0, 117.0]]}',
    '{"A": [[3.0, 8.0, 103.0, 108.0]]',
    '{"A": [[3.0, 8.0, 103.0, 108.0]]}',
    '{"A": [[3.0, 8.0, 103.0]], "B": [[12.0, 17.0, 112.0, 117.0]]}',
    '{"A": [[3.0, 1e303, 103.0, 108.0]], "B": [[12.0, 17.0, 112.0, 117.0]]}',
], ids=["reversed-rect", "bad-json", "missing-B", "short-rect", "huge-bound"])
@pytest.mark.parametrize("command", ["evaluate", "optimize", "oracle"])
def test_bad_areas_file_is_config_error(world, clustered, tmp_path, capsys, command, content):
    areas = tmp_path / "areas.json"
    areas.write_text(content)
    rc = dispatch([command, *world_args(world, clustered), "--areas", str(areas),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad areas file")


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert dispatch([]) == 2

    def test_missing_required_flag(self, capsys):
        assert dispatch(["cluster"]) == 2

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert dispatch(["cluster", "--stations", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    def test_out_that_is_a_file_is_config_error(self, world, clustered, tmp_path, capsys,
                                                command):
        out = tmp_path / "out"
        out.write_text("")
        args = ["synth", "--years", "1"] if command == "synth" else \
            ["evaluate", *world_args(world, clustered),
             "--areas", str(world / "planted_areas.json")]
        assert dispatch([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_stations_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        assert dispatch(["cluster", "--stations", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_that_is_a_directory_is_config_error(self, world, tmp_path, capsys):
        """The rename over a directory fails, and its temporary goes too."""
        out = tmp_path / "clusters"
        out.mkdir()
        assert dispatch(["cluster", "--stations", str(world / "stations.csv"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clusters"]
