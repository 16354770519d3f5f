"""The benchmark tracer's contract with the package: every name it wraps exists."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrapper():
    # install() looks up each traced name, so a renamed or deleted one fails here
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        installed = tracer_mod.wrappers_left()
    finally:
        tracer.uninstall()
    assert len(installed) >= len(tracer_mod.SPANS) + len(tracer_mod.LEAVES)
    assert tracer_mod.wrappers_left() == []
