"""The report documents of a few CLI commands, pinned.

Each file data/pinned/<name>.json holds the exit code and the JSON
document that `purecubic` printed for COMMANDS[name], with every
`timestamp` removed.  No command here reports a class number that is
known to be wrong.  Regenerate the files from the tree on the path with

    PYTHONPATH=src python tests/test_pinned_outputs.py

A regeneration changes a check: name it and its reason in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from purecubic.cli import main

PINNED = Path(__file__).parent / "data" / "pinned"

COMMANDS = {
    "classgroup-29": ["classgroup", "--d", "29"],
    "classgroup-199": ["classgroup", "--d", "199"],
    "classgroup-487": ["classgroup", "--d", "487"],
    "classgroup-7723": ["classgroup", "--d", "7723"],
    "table1-199-487": ["table1", "--primes", "199", "487"],
    "split-60-7": ["split", "--d", "60", "--q", "7"],
    "symbols-8821": ["symbols", "--p", "8821"],
    "model-check": ["model-check"],
    "scan-23000": ["scan", "--max-p", "23000"],
}


def _untimed(doc):
    """doc without its `timestamp` keys, at any depth."""
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items() if k != "timestamp"}
    if isinstance(doc, list):
        return [_untimed(v) for v in doc]
    return doc


def report(argv):
    """{"exit": code, "output": the printed document, untimed} of main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "output": _untimed(json.loads(out.getvalue()))}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_output_is_pinned(name):
    pinned = json.loads((PINNED / f"{name}.json").read_text(encoding="utf-8"))
    assert report(COMMANDS[name]) == pinned


if __name__ == "__main__":
    PINNED.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        text = json.dumps(report(argv), indent=2, sort_keys=True) + "\n"
        (PINNED / f"{name}.json").write_text(text, encoding="utf-8")
