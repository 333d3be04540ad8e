"""The benchmark's span tracer still installs on the package.

``perfbench/tracer.py`` wraps every public function of the layer modules it
lists and the class methods named in its ``METHODS``; a module, class or
method missing from the package makes ``install`` fail.  The tracer is
imported by path and run as it is, without edits.
"""

import importlib.util
from pathlib import Path

from freewreath import exactmat, linmaps, partition, tl
from freewreath.partition import identity_partition, nested_pairing

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


def test_tracer_wraps_the_diagram_and_map_methods():
    # TLDiagram's own tensor and involute, and SparseMap's methods on its
    # integer keys, run through the wrappers and come back on uninstall
    before = dict(vars(tl.TLDiagram)), dict(vars(linmaps.SparseMap))
    tracer = load_tracer().Tracer().install()
    try:
        assert tl.verify_phi(4).passed
        t_r = linmaps.build_tp(nested_pairing(1), 2)
        ident = linmaps.build_tp(identity_partition(1), 2)
        assert t_r.adjoint().tensor(ident).compose(ident.tensor(t_r)) == ident
    finally:
        tracer.uninstall()
    assert (dict(vars(tl.TLDiagram)), dict(vars(linmaps.SparseMap))) == before
    summary = tracer.summary()
    assert summary["tl.calls"] > 0 and summary["linmaps.calls"] > 0
    assert summary["tl.errors"] == summary["linmaps.errors"] == 0
    called = {tracer.names[nid] for nid in tracer.span_name}
    assert {"tl.TLDiagram.tensor", "tl.TLDiagram.involute",
            "linmaps.SparseMap.tensor", "linmaps.SparseMap.compose",
            "linmaps.SparseMap.adjoint"} <= called


def test_tracer_counts_each_exactmat_matrix_once():
    # each public entry point is hooked; none may call another, or its
    # matrix is counted twice; max_bits reads the inverse's Fraction
    # denominators and the determinant, 44 here
    tracer = load_tracer().Tracer().install()
    matrix = [[4, 2, 1], [2, 4, 1], [1, 1, 4]]
    try:
        for name in ("bareiss_det_rank", "bareiss_inverse",
                     "gauss_jordan_inverse"):
            getattr(exactmat, name)(matrix)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["exactmat.calls"] == summary["exactmat.matrices"] == 3
    assert summary["exactmat.cubic_ops"] == 81
    assert summary["exactmat.max_dim"] == 3
    assert summary["exactmat.max_bits"] == 6
