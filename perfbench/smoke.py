"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, on a cheap slice of each workload, that the same seed gives the
same inputs and the same exact counts, that a traced pass gives the same
answers as an untraced one, that every wrapper is gone after a traced
pass, and that run.py prints a well-formed result in a checkout but fails
without one.  Takes about two minutes.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from run import BENCH, OUT, ROOT, import_package, run_pass  # noqa: E402

SEED = 7
EXACT = (".calls", ".rows", ".hits", ".cells", "galoismodel.models", "classgroup.fb_primes")


def slices(workdir):
    import workloads as w

    front = [i for i in w.generate("certify", SEED, workdir) if not i.key.startswith("cg:")]
    return {
        "class groups with the oracle": [w.class_group_item(d, certify=True) for d in (3, 10, 12)],
        "class group without the oracle": [w.class_group_item(307, certify=False)],
        "front end": front[:40] + front[-14:],  # scans, field ops, symbols, models
    }


def check_inputs(workdir):
    import workloads as w

    for name in w.WORKLOADS:
        keys = [i.key for i in w.generate(name, SEED, workdir)]
        assert keys == [i.key for i in w.generate(name, SEED, workdir)], name
        assert keys != [i.key for i in w.generate(name, SEED + 1, workdir)], name
        assert len(set(keys)) == len(keys), f"{name}: duplicate item keys"


def check_traced(items, reference):
    from tracer import Tracer, wrappers_left

    plain, _, failed = run_pass(items, reference)
    assert not failed, failed
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            traced, _, failed = run_pass(items, reference, tracer)
        assert not failed, failed
        assert traced == plain, "tracing changed an answer"
        assert not wrappers_left(), wrappers_left()
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if k.endswith(EXACT)})
    assert counts[0] == counts[1], "counts differ between two traced passes"
    return m


def run_cli(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "relations", "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_cli():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_cli(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert list(result["metrics"]) == [m["name"] for m in declared]
    # without the package beside it, run.py must fail and print no result
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, f"{bare}/perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run_cli(bare, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    import_package()
    reference = json.loads((BENCH / "reference.json").read_text())["answers"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        check_inputs(workdir)
        for name, items in slices(workdir).items():
            m = check_traced(items, reference)
            print(f"{name}: {len(items)} items, traced twice, counts repeat")
        # the front end never searches: no SNF, no principality test
        assert m["ideals.is_principal_bounded.calls"] == 0 and m["zlinalg.snf.calls"] == 0
    check_cli()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
