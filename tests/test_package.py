"""The package's two contracts: lazy public names, and plain value classes.

``import freewreath`` loads no layer; each public name is looked up in its
defining module on access.  The value classes compare equal exactly when
their fields are equal (a partition only to one of its own class), hash over
those fields, and refuse assignment unless mutable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freewreath
from builders import group_dual_json
from freewreath import fusion
from freewreath.fusion import TableFusion, fusion_from_json
from freewreath.partition import Partition
from freewreath.report import CheckResult, VerificationReport
from freewreath.tl import TLDiagram
from freewreath.weingarten import WeingartenTable

SRC = str(Path(freewreath.__file__).resolve().parents[1])

EXPORTS = [
    "CapExceededError", "CheckResult", "FusionData", "IntegersFusion",
    "Partition", "QuantumPermutationFusion", "SparseMap", "TLDiagram",
    "TableFusion", "VerificationReport", "WeingartenTable",
    "brute_force_z2_s3_moments", "build_tp",
    "central_char_poly", "character_moment_wreath",
    "character_moments_wreath", "cheb_int_factor", "cheb_poly",
    "classical_wreath_moment", "collapse", "compound_poisson_moments",
    "conj_word", "cyclic_fusion", "dim_hom_wreath", "dim_wreath",
    "discrete_partition", "enumerate_partitions", "fatten",
    "free_cumulants_to_moments", "full_block", "fuse", "fusion_from_json",
    "fusion_from_uri", "haar_state",
    "identity_partition", "kernel", "load_fusion_file",
    "markov_trace_exponent", "moment_of_rep", "moments_to_free_cumulants",
    "nested_pairing", "parse_eps", "parse_partition", "parse_star_list",
    "parse_tl", "parse_word", "partial_trace_moments", "phi", "plain_eps",
    "reduce_word", "render_eps", "render_poly", "render_word", "sort_words",
    "sqrt_power", "symmetric_group_3_fusion", "tl_compose", "tl_enumerate",
    "verify_category_relations",
    "verify_conjugate_equations", "verify_phi", "wg_certify_asymptotics",
    "wg_gram", "wg_indices", "wg_leading_coeff", "wg_table",
]


# ---------------------------------------------------------------------------
# the lazy package


def test_import_loads_no_layer():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, freewreath; print(sorted("
         "m for m in sys.modules if m.startswith('freewreath')))"],
        capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "['freewreath']\n"), done.stderr


def test_exports_resolve_to_their_defining_module():
    assert len(EXPORTS) == 66 and freewreath.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(freewreath))
    for name in EXPORTS:
        obj = getattr(freewreath, name)
        assert obj.__module__.startswith("freewreath.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name not in vars(freewreath)  # nothing is cached here


def test_exports_follow_a_patched_binding(monkeypatch):
    def fake():
        pass
    monkeypatch.setattr(fusion, "fuse", fake)
    assert freewreath.fuse is fake


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freewreath.no_such_name
    assert not hasattr(freewreath, "verify_dim_multiplicativity")


# ---------------------------------------------------------------------------
# the value classes

P = Partition(1, 1, [(1, 2)])
Q = Partition(1, 1, [(1,), (2,)])
WG = (1, 4, 1, "singletons", (), (), (), 1)
WG_OTHER = (2, 5, 2, "all", (P,), ((1,),), ((1,),), 2)

# class -> its field names and one instance, then instances that each differ
# from it in at least one field; together they vary every field
VALUES = {
    CheckResult: (("description", "passed", "detail"),
                  lambda: CheckResult("c", True, ""),
                  [CheckResult("d", True), CheckResult("c", False),
                   CheckResult("c", True, "x")]),
    VerificationReport: (("name", "checks"),
                         lambda: VerificationReport("r"),
                         [VerificationReport("s"),
                          VerificationReport("r", [CheckResult("c", True)])]),
    Partition: (("upper", "lower", "labels"),
                lambda: Partition(1, 1, [(2, 1)]),
                [Partition(0, 2, [(1, 2)]), Q]),
    TLDiagram: (("upper", "lower", "labels"),
                lambda: TLDiagram(1, 1, [(1, 2)]),
                [TLDiagram(0, 2, [(1, 2)]), TLDiagram(2, 0, [(1, 2)]),
                 TLDiagram(2, 2, [(1, 3), (2, 4)])]),
    WeingartenTable: (("k", "n", "s", "category", "indices", "gram", "wnum",
                       "wden"),
                      lambda: WeingartenTable(*WG),
                      [WeingartenTable(*WG[:i], other, *WG[i + 1:])
                       for i, other in enumerate(WG_OTHER)]),
}


def _field_names(value) -> tuple[str, ...]:
    """The fields a value's class declares: a NamedTuple's ``_fields``, the
    slots of a partition's classes, a plain instance's attributes."""
    cls = type(value)
    if hasattr(cls, "_fields"):
        return cls._fields
    if hasattr(value, "__dict__"):
        return tuple(vars(value))
    return tuple(name for c in reversed(cls.__mro__)
                 for name in vars(c).get("__slots__", ()))


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_equality_and_hash(cls):
    fields, make, others = VALUES[cls]
    a, b = make(), make()
    assert _field_names(a) == fields
    assert a == b and not a != b and a is not b
    assert type(a) is cls
    if _hashable(tuple(getattr(a, name) for name in fields)):
        assert hash(a) == hash(b)
    varied = {name for other in others for name in fields
              if getattr(other, name) != getattr(a, name)}
    assert varied == set(fields)
    for i, other in enumerate(others):
        assert a != other and other != a
        assert all(other != third for third in others[i + 1:])
    assert a.__eq__(None) is NotImplemented


def test_values_of_different_classes_differ():
    d = TLDiagram(0, 2, [(1, 2)])
    p = Partition(0, 2, [(1, 2)])
    assert d.blocks == p.blocks and d != p and p != d
    assert len({d, p}) == 2


@pytest.mark.parametrize("cls", [c for c in VALUES if c is not VerificationReport],
                         ids=lambda cls: cls.__name__)
def test_frozen_values_refuse_assignment(cls):
    fields, make, _ = VALUES[cls]
    value = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    if isinstance(value, Partition):
        # the blocks are a view of the labels, and as frozen
        with pytest.raises(AttributeError):
            value.blocks = ()
    assert value == make()


def test_report_is_mutable_and_unhashable():
    report = VerificationReport("r")
    report.add("c", True)
    report.name = "s"
    assert report == VerificationReport("s", [CheckResult("c", True)])
    with pytest.raises(TypeError):
        hash(report)


def test_report_tally_counts_cases_and_failures():
    report = VerificationReport("r")
    report.tally("x = x on {} cases", (n % 3 != 0 for n in range(1, 8)))
    report.tally("nothing on {} cases", iter(()))
    report.tally("{} pairs, none failing", [True, True])
    assert report.checks == [
        CheckResult("x = x on 7 cases", False, "2 failures"),
        CheckResult("nothing on 0 cases", True, "0 failures"),
        CheckResult("2 pairs, none failing", True, "0 failures")]
    assert report.render().splitlines()[1:] == [
        "  FAIL: x = x on 7 cases [2 failures]",
        "  ok: nothing on 0 cases [0 failures]",
        "  ok: 2 pairs, none failing [0 failures]"]


def test_value_checks_and_repr():
    with pytest.raises(ValueError, match="^duplicate irrep label '1'$"):
        TableFusion(("1", "1"), {"1": 1}, "1", {"1": "1"},
                    {("1", "1"): {"1": 1}})
    # identity 0, each element its own inverse, but (1x1)x2 = 2 while
    # 1x(1x2) = 1x3 = 4: the dual passes validate and is refused as a file
    square = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
              (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(ValueError, match="^fusion rules are not associative"):
        fusion_from_json(group_dual_json(
            "01234", lambda a, b: str(square[int(a)][int(b)])))
    assert repr(CheckResult("c", True)) == \
        "CheckResult(description='c', passed=True, detail='')"
