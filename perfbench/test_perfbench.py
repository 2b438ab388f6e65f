"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

The smoke runs go through run.py exactly as a measured run does, at the
tiny smoke size, and check the printed result against BENCHMARK.json.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .inner import leaf\nfrom .outer import root\n")
    (pkg / "inner.py").write_text(
        "import time\n"
        "def leaf():\n    time.sleep(0.02)\n    return 1\n"
        "def _hidden():\n    return 2\n"
    )
    (pkg / "outer.py").write_text(
        "import time\nfrom .inner import leaf\n"
        "def root():\n    time.sleep(0.03)\n    return leaf() + leaf()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg

    yield toypkg
    for name in [n for n in sys.modules if n == "toypkg" or n.startswith("toypkg.")]:
        del sys.modules[name]


def test_tracer_wraps_every_import_path_and_restores(toy_package):
    import toypkg.inner
    import toypkg.outer

    originals = (toypkg.leaf, toypkg.inner.leaf, toypkg.outer.leaf, toypkg.inner._hidden)
    tracer = Tracer("toypkg")
    with tracer.installed():
        assert toypkg.leaf is toypkg.inner.leaf is toypkg.outer.leaf
        assert toypkg.leaf is not originals[0]
        assert toypkg.inner._hidden is originals[3]
        toypkg.leaf()
        toypkg.root()
    assert (toypkg.leaf, toypkg.inner.leaf, toypkg.outer.leaf, toypkg.inner._hidden) == originals
    assert tracer.calls == {"inner.leaf": 3, "outer.root": 1}
    names = [s[0] for s in tracer.spans]
    assert names == ["inner.leaf", "outer.root", "inner.leaf", "inner.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, -1, 1, 1]


def test_tracer_self_time_excludes_children(toy_package):
    tracer = Tracer("toypkg")
    with tracer.installed():
        toy_package.root()
    _, start, end, _ = tracer.spans[0]
    assert tracer.self_s["outer.root"] == pytest.approx(
        (end - start) - tracer.self_s["inner.leaf"], abs=1e-9)
    assert 0.025 < tracer.self_s["outer.root"] < 0.5
    assert 0.035 < tracer.self_s["inner.leaf"] < 0.5
    assert tracer.root_seconds() == pytest.approx(end - start)


def test_wrapped_callable_records_only_while_installed(toy_package):
    tracer = Tracer("toypkg", counters={"bench.fn": lambda args, result: {"bench.items": len(args[0])}})
    fn = tracer.wrap(sum, "bench.fn")
    assert fn([1, 2]) == 3
    assert not tracer.spans
    with tracer.installed():
        assert fn([1, 2, 3]) == 6
    assert tracer.calls == {"bench.fn": 1}
    assert tracer.counts == {"bench.items": 3}
    tracer.reset_totals()
    assert not tracer.calls and len(tracer.spans) == 1


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(name_re.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_a_checked_result(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[-2])["machine"]
    assert machine["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"nproc", "numpy", "scipy", "python", "blas"} <= set(machine)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
        sidecar = json.loads((ROOT / ".perfbench" / f"trace-{workload}-seed3.json").read_text())
        assert sidecar["spans"] and sidecar["span_fields"] == ["name", "start", "end", "parent"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failing_checks_are_counted_and_a_raising_pass_fails_all_its_checks():
    def failing():
        return [workloads.check("value", 2.0, 1.0)]

    plain, traced, layers, checks, raised = run.run_passes(failing, 0.0, 3, None, n_checks=4)
    assert len(plain) == 3 and not traced and not layers and raised == 0
    assert [c["pass"] for c in checks] == [False] * 3

    calls = []

    def raising():
        calls.append(1)
        raise FloatingPointError("broken pass")

    plain, traced, layers, checks, raised = run.run_passes(raising, 0.0, 3, None, n_checks=4)
    assert len(calls) == 1 and len(plain) == 1 and checks == [] and raised == 4


def test_check_ratio_inverts_at_least_checks():
    ratio, check = workloads.check_ratio, workloads.check
    assert ratio(check("err", 2e-5, 1e-4)) == pytest.approx(0.2)
    assert ratio(check("overlap", 0.5, 0.25, "min")) == pytest.approx(0.5)
    assert ratio(check("warnings", 0, 0)) == 0.0
    assert ratio(check("warnings", 3, 0)) > 1.0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    began = time.monotonic()
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert time.monotonic() - began < 180
    assert '"correct"' not in proc.stdout
