"""Closed-loop benchmark of purecubic: one workload, one seed, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the driver repeats whole passes over the seed's
items, one item at a time, with no instrumentation, until `--seconds`
have elapsed and at least three passes are done, and reports the
end-to-end metrics, its timings scaled to a reference host speed (the
unscaled values go to standard error).  With `--trace 1` it makes a
warm-up pass, an untraced pass and a traced pass, and reports the
per-layer metrics declared in BENCHMARK.json.  Every answer is checked against
`reference.json`.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in src/

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 5
MIN_PASSES = 3
# Host-speed probe: a fixed integer loop that never touches purecubic.  On
# a shared VM the whole host drifts by up to 1.6x within minutes; timings
# are divided by (probe seconds now / REFERENCE_PROBE_S), so they read as
# seconds on a host where the probe takes REFERENCE_PROBE_S.  A probe runs
# before an item once PROBE_EVERY_S seconds of items have passed.
REFERENCE_PROBE_S = 0.045
PROBE_EVERY_S = 1.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sympy; "
    "from purecubic import cli; cli.load_u_assignments()"
)


def import_package() -> None:
    """Import purecubic from this checkout's src/, or exit with an error if it is not there."""
    if not (SRC / "purecubic" / "__init__.py").is_file():
        sys.exit(f"error: no purecubic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import purecubic

    if Path(purecubic.__file__).resolve().parent != SRC / "purecubic":
        sys.exit(f"error: purecubic imported from {purecubic.__file__}, not {SRC}")


def probe() -> float:
    """Seconds the host takes for a fixed amount of pure-Python integer work."""
    start = time.perf_counter()
    for _ in range(2):
        acc = 0
        for i in range(200000):
            acc += i * i % 7
    return time.perf_counter() - start


def measure_setup():
    """Median wall time of fresh interpreters loading the package, sympy and
    u_values.json, with a host-speed probe before each."""
    times, probes = [], []
    for _ in range(SETUP_REPS):
        probes.append(probe())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-B", "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), probes


def run_pass(items, reference, tracer=None, probes=None):
    """Run every item once; return (answers, per-item seconds, failed keys).
    With a `probes` list, probe the host between items about every
    PROBE_EVERY_S seconds, outside the items' timings."""
    from workloads import check

    answers, seconds, failed = {}, [], []
    since_probe = PROBE_EVERY_S
    for item in items:
        if probes is not None and since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
        start = time.perf_counter()
        try:
            answer = item.run() if tracer is None else tracer.item(item.key, item.run)
        except Exception as e:  # a failed item is counted, never timed as a success
            answer = f"{type(e).__name__}: {e}"
        seconds.append(time.perf_counter() - start)
        since_probe += seconds[-1]
        answers[item.key] = answer
        if not check(item, answer, reference):
            failed.append(item.key)
    return answers, seconds, failed


def timed_run(items, reference, run_seconds):
    setup_s, setup_probes = measure_setup()
    ok = attempted = 0
    failed, probes = [], []
    per_item = [[] for _ in items]
    start = time.perf_counter()
    # whole passes, so every run measures the seed's full item set, and at
    # least MIN_PASSES of them, so each item's median sets aside one slow
    # moment of the host
    while attempted < MIN_PASSES * len(items) or time.perf_counter() - start < run_seconds:
        _, seconds, bad = run_pass(items, reference, probes=probes)
        attempted += len(items)
        ok += len(items) - len(bad)
        failed += bad
        for times, t in zip(per_item, seconds):
            times.append(t)
    medians = [statistics.median(times) for times in per_item]
    raw = {
        # items answered correctly per second, each item at its median time
        "items_per_s": ok / attempted * len(items) / sum(medians),
        "slowest_item_s": max(medians),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    host = statistics.median(probes) / REFERENCE_PROBE_S
    setup_host = statistics.median(setup_probes) / REFERENCE_PROBE_S
    print(json.dumps({"unscaled": raw, "host_factor": host, "setup_host_factor": setup_host}),
          file=sys.stderr)
    metrics = dict(raw)
    metrics["items_per_s"] = raw["items_per_s"] * host
    metrics["slowest_item_s"] = raw["slowest_item_s"] / host
    metrics["setup_s"] = raw["setup_s"] / setup_host
    return attempted, failed, metrics


def traced_run(items, reference, workload, seed):
    from tracer import Tracer, wrappers_left

    # an unmeasured pass first, so one-time costs (lazy imports, sympy's
    # caches) fall on neither side of the overhead
    _, _, failed = run_pass(items, reference)
    start = time.perf_counter()
    plain, _, bad = run_pass(items, reference)
    untraced_s = time.perf_counter() - start
    failed += bad
    start = time.perf_counter()
    with Tracer() as tracer:
        traced, _, bad = run_pass(items, reference, tracer)
    traced_s = time.perf_counter() - start
    failed += bad
    # tracing must not change an answer, and must leave nothing behind
    failed += [k for k in plain if traced[k] != plain[k]]
    failed += wrappers_left()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    dump = dict(tracer.dump(), workload=workload, seed=seed)
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump))
    return 3 * len(items), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    reference = json.loads((BENCH / "reference.json").read_text())["answers"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        items = workloads.generate(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, values = traced_run(items, reference, args.workload, args.seed)
        else:
            attempted, failed, values = timed_run(items, reference, args.seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    failed = sorted(set(failed)) if args.trace else failed
    for key in failed:
        print(f"failed: {key}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
