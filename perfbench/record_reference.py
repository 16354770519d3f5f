"""Record the answer of every item any seed can draw into reference.json.

    python3 perfbench/record_reference.py

Run it from the root of a source checkout, only when the package's
answers are meant to change; the benchmark then checks every run against
the recorded file.  Takes a few minutes (the class groups dominate).
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import tempfile  # noqa: E402

from run import BENCH, OUT, import_package  # noqa: E402


def write(recorded_with, answers) -> None:
    """One answer per line, sorted, so a change in answers reads as a small diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(answers.items())]
    head = json.dumps({"recorded_with": recorded_with})[:-1]
    text = head + ', "answers": {\n' + ",\n".join(lines) + "\n}}\n"
    (BENCH / "reference.json").write_text(text)


def main() -> int:
    import_package()
    import purecubic
    import workloads

    OUT.mkdir(exist_ok=True)
    answers = {}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for item in workloads.every_item(workdir):
            answers[item.ref] = item.run()
            if item.invariant is not None and not item.invariant(answers[item.ref]):
                sys.exit(f"error: {item.key} breaks its invariant: {answers[item.ref]}")
    write(f"purecubic {purecubic.__version__}", answers)
    print(f"recorded {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
