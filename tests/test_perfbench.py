"""The benchmark's code runs under the suite: perfbench/ wraps the
package's functions by name and drives its public API, so a change under
src/ that breaks either fails here, not only in a benchmark run. The
benchmark's files are imported as they are, not changed."""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_tracer_wraps_every_traced_name_and_restores_it():
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    finally:
        t.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED] == originals


@pytest.mark.parametrize("workload", ["discover-shift", "forecast-ablation"])
def test_workload_pass_passes_its_checks(workload, tmp_path):
    """Generate the inputs for seed 1, run one untraced pass and check it,
    as `perfbench/child.py` does for each pass it times."""
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    workloads.generate(workload, 1, str(inputs))
    work.mkdir()
    regimes = {}
    if (inputs / "regimes.json").exists():
        regimes = json.loads((inputs / "regimes.json").read_text())
    p = workloads.RUNNERS[workload](workload, str(inputs), str(work), regimes)
    checks, _ = workloads.check(workload, p, str(inputs), str(work))
    assert checks and all(ok for _, ok in checks), checks
