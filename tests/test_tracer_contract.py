"""The benchmark's span tracer still installs on the package.

``perfbench/tracer.py`` wraps every public function of the layer modules it
lists and the class methods named in its ``METHODS``; a module, class or
method missing from the package makes ``install`` fail.  The tracer is
imported by path and run as it is, without edits.
"""

import importlib.util
from pathlib import Path

from freewreath import partition, tl

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_module = load_tracer()
    before = dict(vars(tl)), dict(vars(partition.Partition))
    tracer = tracer_module.Tracer().install()
    try:
        assert tl.tl_enumerate is not before[0]["tl_enumerate"]
        tl.tl_enumerate(2, 2)
    finally:
        tracer.uninstall()
    assert (dict(vars(tl)), dict(vars(partition.Partition))) == before
    summary = tracer.summary()
    assert summary["tl.calls"] >= 1 and summary["tl.diagrams"] == 2
