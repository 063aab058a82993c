"""The CLI contract under mutated inputs.

Each case mutates one input of a small synthetic world (or one flag or
config value) and runs `dispatch` on it. A mutation that keeps the inputs'
meaning (reordered rows, blank lines) must exit 0 with outputs byte-equal
to the unmutated run; every other mutation must exit with its contract code
(2 = config error, 1 = runtime error) and an `error:` line on stderr. An
exception escaping `dispatch` (a traceback) fails the test.

Missing months are valid input, which the pipeline imputes, so a file cut
at a line boundary is no fault the program could see: truncations here cut
inside a row. For the same reason a blanked month is blanked at every
station of a cluster, whose stations then all fail QC.
"""

import contextlib
import csv
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemonsoon.cli import dispatch

YEARS = 6
ONSET = "1"
FOLD = "1982-1985:1986:1987"
CSVS = {"stations": "stations.csv", "clusters": "clusters.csv",
        "indices": "indices.csv", "ne": "ne.csv"}
# the command that reads each input, and the exit code of a malformed one
READER = {"stations": "evaluate", "clusters": "evaluate", "sst": "evaluate",
          "indices": "forecast", "ne": "forecast"}
MALFORMED_EXIT = {"stations": 1, "clusters": 1, "sst": 1, "indices": 1, "ne": 2}
NUMERIC_FIELDS = {"stations": [1, 2, 3, 4, 5], "clusters": [0],
                  "indices": [1, 2, 3], "ne": [0, 1, 2]}
# tokens no numeric field accepts, and per-file ones that are numbers but
# out of range
BAD_TOKENS = ["x", "1.2.3", "--1", "1e999", "-inf"]
BAD_RANGE = {"stations": {1: ["91", "-90.5"], 2: ["181"], 4: ["13", "0"], 5: ["-4.0", "inf"]},
             "indices": {2: ["13"], 3: ["inf", "nan"]}, "ne": {1: ["0"], 2: ["inf"]},
             "clusters": {}}


def run(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def command(name, paths, out, onset=ONSET):
    """The argv of `evaluate` or `forecast` on the inputs at `paths`; with
    `onset` None, evaluate leaves --onset-clusters out."""
    if name == "evaluate":
        return ["evaluate", "--sst", paths["sst"], "--stations", paths["stations"],
                "--clusters", paths["clusters"], "--areas", paths["areas"], "--out", out,
                *(["--onset-clusters", onset] if onset else [])]
    return ["forecast", "--stations", paths["stations"], "--clusters", paths["clusters"],
            "--indices", paths["indices"], "--ne-index", paths["ne"], "--cluster", ONSET,
            "--small-grid", "--with-ne", "--fold", FOLD, "--out", out / "report.csv"]


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    assert run(["synth", "--out", root, "--years", YEARS])[0] == 0
    assert run(["cluster", "--stations", root / "stations.csv",
                "--out", root / "clusters.csv"])[0] == 0
    paths = {name: root / file for name, file in CSVS.items()}
    paths.update(sst=root / "sst", areas=root / "planted_areas.json")
    (root / "eval").mkdir()
    assert run(command("evaluate", paths, root / "eval"))[0] == 0
    shutil.copy(root / "eval" / "index.csv", paths["ne"])  # year,month,z
    (root / "forecast").mkdir()
    assert run(command("forecast", paths, root / "forecast"))[0] == 0
    with open(paths["clusters"], newline="") as fh:
        clusters = {}
        for row in csv.DictReader(fh):
            clusters.setdefault(row["cluster_id"], set()).add(row["station_id"])
    return {"paths": paths, "clusters": clusters,
            "expected": {"evaluate": outputs(root / "eval"),
                         "forecast": outputs(root / "forecast")}}


def check(world, name, mutate, expected_exit, onset=ONSET):
    """Run the reader of input `name` on a copy that `mutate` rewrites
    (lines -> lines for a CSV, bytes -> bytes for the SST payload)."""
    reader = READER[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = dict(world["paths"])
        if name == "sst":
            shutil.copytree(paths["sst"], tmp / "sst")
            payload = tmp / "sst" / "sst.f32"
            payload.write_bytes(mutate(payload.read_bytes()))
            paths["sst"] = tmp / "sst"
        else:
            lines = paths[name].read_text().splitlines(keepends=True)
            paths[name] = tmp / CSVS[name]
            paths[name].write_text("".join(mutate(lines)))
        out = tmp / "out"
        out.mkdir()
        code, err = run(command(reader, paths, out, onset))
        assert code == expected_exit, err
        if code:
            assert "error:" in err
        else:
            assert outputs(out) == world["expected"][reader]


def _set_field(line, k, value):
    fields = line.rstrip("\r\n").split(",")
    fields[k] = value
    return ",".join(fields) + "\n"


@settings(max_examples=10, deadline=None)
@given(dy=st.integers(-5, 5), dm=st.integers(-13, 13), one_station=st.booleans())
def test_shifted_station_axis_is_config_error(world, dy, dm, one_station):
    """Stations whose dates are shifted no longer sit on the SST axis."""
    if 12 * dy + dm == 0:  # e.g. -1 year and +12 months: no shift at all
        dm += 1

    def shift(lines):
        out = [lines[0]]
        for line in lines[1:]:
            sid, lat, lon, year, month, rain = line.rstrip("\n").split(",")
            if one_station and sid != "S003":
                out.append(line)
                continue
            count = int(year) * 12 + int(month) - 1 + 12 * dy + dm
            out.append(f"{sid},{lat},{lon},{count // 12},{count % 12 + 1},{rain}\n")
        return out

    check(world, "stations", shift, 2)


@settings(max_examples=8, deadline=None)
@given(cluster=st.sampled_from(["1", "2", "3"]), onset_side=st.booleans(),
       blank_month=st.one_of(st.none(), st.integers(1, 12)))
def test_cluster_without_usable_stations_is_config_error(world, cluster, onset_side,
                                                         blank_month):
    """Drop a cluster's stations, or blank one calendar month at each of
    them, and make that cluster one whole side of the onset/retreat split."""
    members = world["clusters"][cluster]
    onset = cluster if onset_side else ",".join(sorted(set(world["clusters"]) - {cluster}))

    def mutate(lines):
        out = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            if fields[0] not in members:
                out.append(line)
            elif blank_month is not None:
                out.append(_set_field(line, 5, "") if int(fields[4]) == blank_month else line)
        return out

    check(world, "stations", mutate, 2, onset=onset)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["stations", "clusters", "indices", "ne", "sst"]),
       where=st.floats(0, 1, exclude_max=True), which=st.integers(0, 5))
def test_truncated_file_is_an_error(world, name, where, which):
    """Cut the file inside a row, just before one of its commas (or, for
    the SST payload, inside a value or a month)."""
    def cut(lines):
        k = int(where * len(lines))
        commas = [i for i, ch in enumerate(lines[k]) if ch == ","]
        return lines[:k] + [lines[k][:commas[which % len(commas)]]]

    def cut_bytes(payload):
        return payload[:int(where * len(payload))]

    check(world, name, cut_bytes if name == "sst" else cut, MALFORMED_EXIT[name])


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(list(CSVS)), seed=st.integers(0, 2**16),
       blanks=st.integers(0, 3))
def test_reordered_rows_and_blank_lines_change_nothing(world, name, seed, blanks):
    def shuffle(lines):
        rows = lines[1:]
        random.Random(seed).shuffle(rows)
        for k in range(blanks):
            rows.insert(random.Random(seed + k).randrange(len(rows) + 1), "\n")
        return lines[:1] + rows

    check(world, name, shuffle, 0)


@settings(max_examples=16, deadline=None)
@given(name=st.sampled_from(list(CSVS)), where=st.floats(0, 1, exclude_max=True),
       field=st.integers(0, 5), token=st.integers(0, 10))
def test_corrupt_number_is_an_error(world, name, where, field, token):
    """Put a non-number, or a number out of its field's range, into one
    numeric field of one data row."""
    k = NUMERIC_FIELDS[name][field % len(NUMERIC_FIELDS[name])]
    tokens = BAD_TOKENS + BAD_RANGE[name].get(k, [])

    def corrupt(lines):
        row = 1 + int(where * (len(lines) - 1))
        return lines[:row] + [_set_field(lines[row], k, tokens[token % len(tokens)])] \
            + lines[row + 1:]

    check(world, name, corrupt, MALFORMED_EXIT[name])


@settings(max_examples=6, deadline=None)
@given(where=st.floats(0, 1, exclude_max=True), moved=st.booleans(),
       before=st.booleans())
def test_duplicated_station_block_is_an_error(world, where, moved, before):
    """Add a second copy of one station's row block, before or after the
    first, the copy as it is or with its site moved: a mis-merged file
    must not pass for one station."""
    def duplicate(lines):
        sid = lines[1 + int(where * (len(lines) - 1))].split(",")[0]
        block = [line for line in lines[1:] if line.split(",")[0] == sid]
        if moved:
            block = [_set_field(line, 2, repr(float(line.split(",")[2]) + 0.5))
                     for line in block]
        return lines[:1] + block + lines[1:] if before else lines + block

    check(world, "stations", duplicate, MALFORMED_EXIT["stations"])


BAD_VALUES = [
    ("evaluate", "onset-clusters", "x"),
    ("evaluate", "min-ocean", "1.5"),
    ("evaluate", "min-ocean", "nan"),
    ("oracle", "step", "0"),
    ("optimize", "episode-len", "0"),
    ("optimize", "jitter", "-1"),
    ("optimize", "timesteps", "-1"),
    ("optimize", "timesteps", "2.5"),
    ("optimize", "mode", "sideways"),
    ("cluster", "d", "-1"),
    ("cluster", "n", "99"),
    ("cluster", "n", "2.5"),
    ("synth", "years", "0"),
    ("synth", "seed", "-1"),
    ("optimize", "seed", "-1"),
]


@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("name, flag, text", BAD_VALUES,
                         ids=[f"{n}-{f}={t}" for n, f, t in BAD_VALUES])
def test_out_of_range_flag_or_config_value_is_config_error(world, name, flag, text,
                                                           in_config):
    """Each value is checked whether a flag or the --config file gives it;
    argparse applies `type` only to string defaults, so a config value
    would otherwise skip it."""
    paths = world["paths"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = {"synth": ["synth", "--out", tmp / "w"],
                "cluster": ["cluster", "--stations", paths["stations"],
                            "--out", tmp / "c.csv"]}.get(name)
        if base is None:
            # a config value does not override a flag on the command line
            onset = None if in_config and flag == "onset-clusters" else ONSET
            base = [name, *command("evaluate", paths, tmp, onset)[1:]]
        if in_config:
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                value = text
            (tmp / "cfg.json").write_text(json.dumps({flag.replace("-", "_"): value}))
            argv = base + ["--config", tmp / "cfg.json"]
        else:
            argv = base + [f"--{flag}", text]
        code, err = run(argv)
    assert code == 2, err
    assert "error:" in err
