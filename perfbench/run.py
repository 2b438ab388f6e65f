"""Run one benchmark workload in this process and print its checked metrics.

    python3 perfbench/run.py --workload plancherel-heis1 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports `quadric_cr` from that
checkout's `src/`.  Set-up (the import, building the inputs, one warm-up
pass at the smoke size) is done three times and its median reported as
`setup_s`.  Then passes of the workload repeat until `--seconds` have gone,
each checked; `run_s` is their median.  With `--trace 1` untraced and traced
passes alternate, the per-layer metrics come from the traced ones, and the
spans go to `.perfbench/trace-<workload>-seed<seed>.json`.  `--smoke` runs
the same code at the tiny smoke size.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine.  Metric names and units come from BENCHMARK.json.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads OpenBLAS, to the same value on every commit.
# One thread is at most nproc on any box and keeps neighbours' load out of
# the BLAS calls; on a 2-core box two threads were only about 11% faster.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _count_points(args, result):
    return {"functions.eval.points": result.size, "functions.eval.bytes_computed": 16 * result.size}


def _count_coeff(name):
    def count(args, result):
        return {f"{name}_points": math.prod(args[0].shape[:-1])}

    return count


def _bytes_written(args, result):
    return {"configio.bytes_written": os.path.getsize(args[0])}


COUNTERS = {
    "functions.eval": _count_points,
    "fock.group_convolve.coeff": _count_coeff("fock.group_convolve.coeff"),
    "transform.inverse_FN.coeff": _count_coeff("transform.inverse_FN.coeff"),
    "configio.write_csv": _bytes_written,
    "configio.write_json": _bytes_written,
}


def layer_metrics(tracer, pass_s, first_span):
    """Per-layer numbers of one traced pass."""
    out = {}
    for name, n in tracer.calls.items():
        out[f"{name}.calls"] = n
    for name, s in tracer.self_s.items():
        # callables wrapped by the benchmark are named <layer>.<function>.coeff
        out[f"{name}_s" if name.endswith(".coeff") else f"{name}.self_s"] = s
    out.update(tracer.counts)
    out["trace.run_s"] = pass_s
    out["trace.coverage"] = tracer.root_seconds(first_span) / pass_s
    return out


def run_passes(run_pass, seconds, min_passes, tracer, n_checks):
    """Repeat the pass until `seconds` have gone; alternate traced passes if tracing."""
    plain, traced, layers, checks = [], [], [], []
    failed_passes = 0
    began = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        first_span = len(tracer.spans) if use_trace else 0
        if use_trace:
            tracer.reset_totals()
        t0 = time.perf_counter()
        try:
            if use_trace:
                with tracer.installed():
                    result = run_pass()
            else:
                result = run_pass()
        except Exception:  # a failing pass is reported, not retried
            traceback.print_exc()
            failed_passes += 1
            (traced if use_trace else plain).append(time.perf_counter() - t0)
            break
        dt = time.perf_counter() - t0
        checks.extend(result)
        if use_trace:
            traced.append(dt)
            layers.append(layer_metrics(tracer, dt, first_span))
        else:
            plain.append(dt)
        done = len(plain) + len(traced)
        if time.perf_counter() - began >= seconds and done >= min_passes:
            break
    return plain, traced, layers, checks, failed_passes * n_checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the tiny smoke size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "quadric_cr" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no quadric_cr sources under {src} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text())

    import quadric_cr
    import tracing
    import workloads

    if Path(quadric_cr.__file__).resolve().parents[1] != src.resolve():
        print(f"error: quadric_cr was imported from {quadric_cr.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _START

    size = "smoke" if args.smoke else "full"
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer("quadric_cr", COUNTERS) if args.trace else None
    wrap = tracer.wrap if tracer else (lambda fn, name: fn)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            run_pass = workloads.build(args.workload, args.seed, size, wrap, str(workdir))
            warm = workloads.build(args.workload, args.seed, "smoke", wrap, str(workdir / "warm"))
            n_checks = len(warm())
            setups.append(time.perf_counter() - t0)
        min_passes = max(2 if args.trace else 1, workloads.WORKLOADS[args.workload][2])
        plain, traced, layers, checks, raised = run_passes(
            run_pass, args.seconds, min_passes, tracer, n_checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not c["pass"] for c in checks) + raised
    attempted = len(checks) + raised
    if args.trace:
        values = {name: statistics.median(m.get(name, 0.0) for m in layers)
                  for name in set().union(*layers)}
        values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                      if traced and plain else 0.0)
        wanted = spec["per_layer"]
    else:
        ratios = [workloads.check_ratio(c) for c in checks]
        values = {
            "run_s": statistics.median(plain),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worst_check_ratio": max(ratios) if ratios else workloads.FAILED_RATIO,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    info = machine_info()
    if tracer is not None:
        scratch.mkdir(exist_ok=True)
        tracer.write_sidecar(scratch / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "size": size, "machine": info,
            "untraced_pass_s": plain, "traced_pass_s": traced, "per_layer": values,
        })
    for c in checks:
        if not c["pass"]:
            print(f"FAIL {c['name']}: {c['value']!r} vs {c['kind']} {c['bound']!r}", file=sys.stderr)
    print(json.dumps({"machine": info, "setup_s": setups, "pass_s": plain, "traced_pass_s": traced}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
