"""Benchmark for the zok toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --write-manifest

A run builds its inputs from --seed (set-up is repeated and its median
reported as setup_s), checks one warm-up unit against the pinned digests
in bench/pins.json, then runs units of work in closed loop, one caller,
for about --seconds.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced units, prints the
per-layer metrics from the traced ones and reports the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record (environment,
digests, samples) goes to .bench_work/results/, the spans of a traced run
next to it as gzipped JSON lines [unit, name, parent index, start, end].

The run is sized for two cores: BLAS thread pools are capped at two
before numpy is imported, whatever the machine has.

--self-test makes two traced runs per workload with the same seed and
checks that their counts and artifact digests are identical, and that
BENCHMARK.json matches bench/spec.py.  --write-manifest rewrites
BENCHMARK.json from bench/spec.py.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spec

SIZED_CORES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
SELF_TEST_SEED = 7

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import zok from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "zok" / "__init__.py").is_file():
        _fail(f"no zok sources under {src}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(SIZED_CORES)
    sys.path.insert(0, str(src))
    import zok
    if Path(zok.__file__).resolve().parent != (src / "zok").resolve():
        _fail(f"imported zok from {zok.__file__}, not from {src}")
    import zok.cli  # noqa: F401  (loads every layer module)
    return zok


def _quantile(values, q):
    """Inclusive-method quantile that stays inside the sample range."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _describe(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def environment():
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_caps": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check_golden(unit, pin):
    """Problems with the warm-up unit against the pinned artifacts."""
    problems = []
    if unit.failed:
        problems.append(f"golden unit failed: {unit.error}")
    if unit.artifacts != pin["artifacts"]:
        problems.append(f"artifact digests {unit.artifacts} != pinned {pin['artifacts']}")
    if unit.quality != pin["quality"]:
        problems.append(f"quality {unit.quality} != pinned {pin['quality']}")
    return problems


def run_checked(workload, inputs, index, patched=None):
    """One unit, traced inside `patched` when given, then checked untraced."""
    if patched is None:
        unit = workload.run(inputs, index)
    else:
        with patched:
            unit = workload.run(inputs, index)
    if not unit.failed:
        workload.check(inputs, index, unit)
    unit.output = None  # only the digests are kept, not the results themselves
    return unit


def run_loop(workload, inputs, seconds, traced, recorder_factory):
    """Closed loop with one caller: units back to back for about `seconds`.

    Every input in the pool is run at least once.  A traced run alternates
    an untraced and a traced unit on the same input, at least one pair.
    Returns [(pool index, recorder or None, Unit)].
    """
    chunk = 2 if traced else 1
    minimum = 2 if traced else workload.pool
    done = []
    begin = perf_counter()
    while True:
        index = (len(done) // chunk) % workload.pool
        recorder, patched = None, None
        if traced and len(done) % 2 == 1:
            recorder, patched = recorder_factory()
        done.append((index, recorder, run_checked(workload, inputs, index, patched)))
        if len(done) >= minimum and len(done) % chunk == 0:
            elapsed = perf_counter() - begin
            if elapsed + elapsed / len(done) * chunk > seconds:
                return done


def end_to_end_metrics(setup_times, units, all_ops, failed):
    """The end-to-end metric values of an untraced run."""
    ops = [s for _, _, u in units for s in u.ops]
    first = {}
    for index, _, unit in units:
        if not unit.failed:
            first.setdefault(index, unit)
    # mean over the distinct inputs; 0 when every unit failed (the run is
    # then reported as incorrect anyway)
    quality = {key: statistics.fmean(u.quality[key] for u in first.values()) if first else 0.0
               for key in ("miou", "miou_crf")}
    return {
        "setup_s": statistics.median(setup_times),
        "images_per_s": sum(u.images for _, _, u in units) / sum(ops),
        "op_s.p50": _quantile(ops, 0.5),
        "op_s.p90": _quantile(ops, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "miou": quality["miou"],
        "miou_crf": quality["miou_crf"],
        "success_frac": (all_ops - failed) / all_ops,
    }


def layer_values(recorder, unit_seconds):
    """Per-layer values of one traced unit, keyed by metric name."""
    own, incl = recorder.times()
    values = {}
    for name, unit, _ in spec.PER_LAYER:
        if name.startswith(("setup.", "trace.overhead")):
            continue
        if name == "trace.spans":
            values[name] = len(recorder.spans)
        elif name == "trace.unit_s":
            values[name] = unit_seconds
        elif unit == "count":
            values[name] = recorder.counts[name]
        elif name.startswith("layer."):
            layer = name[len("layer."):-len(".s")] + "."
            values[name] = sum(t for n, t in own.items() if n.startswith(layer))
        elif name.endswith(".incl_s"):
            values[name] = incl[name[:-len(".incl_s")]]
        else:
            base = name[:-len(".s")]
            values[name] = sum(own[n] for n in spec.SPAN_GROUPS.get(base, (base,)))
    return values


def traced_metrics(units, setup_recorder):
    """Per-layer values of a traced run: medians over its traced units."""
    plain = [sum(u.ops) for _, r, u in units if r is None]
    traced = [(r, sum(u.ops)) for _, r, u in units if r is not None]
    per_unit = [layer_values(r, seconds) for r, seconds in traced]
    metrics = {name: statistics.median(v[name] for v in per_unit) for name in per_unit[0]}
    # each traced unit follows an untraced one on the same input
    metrics["trace.overhead_s"] = statistics.median(
        seconds - untraced for (_, seconds), untraced in zip(traced, plain))
    own, _ = setup_recorder.times()
    for layer in ("core_io", "synth"):
        metrics[f"setup.layer.{layer}.s"] = sum(
            t for n, t in own.items() if n.startswith(layer + "."))
    metrics["setup.core_io.bytes"] = setup_recorder.counts["core_io.bytes"]
    print(f"tracing overhead per unit: {metrics['trace.overhead_s']:.4f} s "
          f"(traced {statistics.median(s for _, s in traced):.4f} s, "
          f"untraced {statistics.median(plain):.4f} s)")
    return metrics


def run(args):
    zok = _import_program()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pin = json.loads((BENCH / "pins.json").read_text())[workload.name]
    hooks = spans.counter_hooks(zok)

    def recorder_factory():
        recorder = spans.SpanRecorder()
        return recorder, recorder.patched("zok", hooks)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            inputs_dir = _fresh(work / "inputs")
            start = perf_counter()
            inputs = workload.setup(str(inputs_dir), args.seed)
            setup_times.append(perf_counter() - start)
        if args.trace:
            setup_recorder, patched = recorder_factory()
            with patched:
                workload.setup(str(_fresh(work / "traced-setup")), args.seed)

        golden_inputs = workload.setup(str(_fresh(work / "golden")), pin["seed"])
        golden = run_checked(workload, golden_inputs, pin["input"])
        units = run_loop(workload, inputs, args.seconds, args.trace, recorder_factory)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = _check_golden(golden, pin)
    attempted = len(golden.ops) + sum(len(u.ops) for _, _, u in units)
    failed = golden.failed + sum(u.failed for _, _, u in units)
    seen = {}
    for index, _, unit in units:
        if unit.failed:
            problems.append(f"unit on input {index} failed: {unit.error}")
        elif seen.setdefault(index, unit.artifacts) != unit.artifacts:
            problems.append(f"input {index}: artifacts differ between repeats")

    env = environment()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup_times,
              "golden": {"artifacts": golden.artifacts, "quality": golden.quality},
              "units": [{"input": index, "traced": recorder is not None,
                         "ops_s": unit.ops, "images": unit.images,
                         "artifacts": unit.artifacts, "quality": unit.quality,
                         "error": unit.error} for index, recorder, unit in units]}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}: {len(units)} units, "
          f"{attempted} operations attempted, {failed} failed")
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics = traced_metrics(units, setup_recorder)
        record["counts"] = [dict(r.counts) for _, r, _ in units if r is not None]
        with gzip.open(RESULTS / f"{tag}.spans.jsonl.gz", "wt") as fh:
            setup_recorder.dump(fh, "setup")
            for i, recorder in enumerate(r for _, r, _ in units if r is not None):
                recorder.dump(fh, f"unit{i}")
        table = spec.PER_LAYER
    else:
        timed_ops = [s for _, _, u in units for s in u.ops]
        metrics = end_to_end_metrics(setup_times, units, attempted, failed)
        record["summary"] = {"setup_s": _describe(setup_times), "op_s": _describe(timed_ops),
                             "failed_frac": failed / attempted}
        print(f"setup_s samples: {record['summary']['setup_s']}")
        print(f"op_s samples: {record['summary']['op_s']}")
        print(f"failed_frac: {failed / attempted}")
        table = spec.END_TO_END

    for problem in problems:
        print(f"check failed: {problem}")
    units_of = {row[0]: row[1] for row in table}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of[name]}")
    record["metrics"] = metrics
    record["problems"] = problems
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))


def self_test():
    """Two traced runs per workload with one seed must agree exactly."""
    problems = []
    if json.loads((ROOT / "BENCHMARK.json").read_text()) != spec.manifest():
        problems.append("BENCHMARK.json does not match bench/spec.py")
    for name, _ in spec.WORKLOADS:
        records = []
        for _ in range(2):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(SELF_TEST_SEED), "--seconds", "1", "--trace", "1"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else {}
            if done.returncode != 0 or not result.get("correct"):
                problems.append(f"{name}: traced run failed\n{done.stdout}{done.stderr}")
                break
            path = RESULTS / f"{name}-seed{SELF_TEST_SEED}-trace1.json"
            records.append(json.loads(path.read_text()))
        if len(records) < 2:
            continue
        first, second = records
        checks = {
            "counts": (first["counts"], second["counts"]),
            "artifact digests": ([u["artifacts"] for u in first["units"]],
                                 [u["artifacts"] for u in second["units"]]),
            "golden digests": (first["golden"], second["golden"]),
        }
        for what, (a, b) in checks.items():
            ok = a == b
            print(f"{name}: {what} {'identical' if ok else 'DIFFER'}")
            if not ok:
                problems.append(f"{name}: {what} differ between two traced runs")
    for problem in problems:
        print(f"self-test failed: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.self_test:
        return self_test()
    if args.workload not in [n for n, _ in spec.WORKLOADS]:
        parser.error(f"--workload must be one of {[n for n, _ in spec.WORKLOADS]}")
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
