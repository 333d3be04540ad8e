"""Every name a module imports is used in that module, every top-level
helper of the library has a caller in the library, and the command line
builds no verification report of its own.

The package ``__init__.py`` is exempt: its imports are the public re-exports.
A helper is a top-level function or class that the package does not export;
the few that only tests or the benchmark call are listed with their reason.
"""

import ast
from pathlib import Path

import freewreath

SRC = Path(freewreath.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["os (line 1)", "c (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports():
    assert len(MODULES) > 5 and len(TESTS) > 5
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in MODULES + TESTS}
    assert {name: bad for name, bad in found.items() if bad} == {}


# top-level helpers that only tests or the benchmark call, each with why
NO_LIBRARY_CALLER = {
    "gauss_jordan_inverse": "test oracle of bareiss_inverse",
    "bareiss_det_rank": "the benchmark times and traces it",
    "trace_identity": "the benchmark's weingarten workload calls it",
}


def uncalled_helpers(sources: dict[str, str], exported: set[str],
                     oracles: set[str] = frozenset()) -> list[str]:
    """Top-level functions and classes, not in ``exported``, that no
    statement of the sources names outside the definition itself and the
    definitions in ``oracles``, which only tests or the benchmark call."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    named = [set() if getattr(node, "name", None) in oracles else
             {n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))}
             for _, node in statements]
    return [f"{module}:{node.name}"
            for i, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in exported
            and not any(node.name in names
                        for j, names in enumerate(named) if j != i)]


def test_scanner_flags_an_uncalled_helper():
    sources = {"a": "def f():\n    return f()\ndef g():\n    pass\n"
                    "class C:\n    pass\nx = [C]\n",
               "b": "import a\na.g()\n"}
    assert uncalled_helpers(sources, set()) == ["a:f"]
    assert uncalled_helpers(sources, {"f"}) == []
    # a helper named only inside an oracle has no library caller either
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\n"}
    assert uncalled_helpers(sources, set()) == ["a:f"]
    assert uncalled_helpers(sources, set(), {"f"}) == ["a:f", "a:g"]


def test_every_helper_has_a_library_caller():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODULES}
    flagged = uncalled_helpers(sources, set(freewreath.__all__),
                               set(NO_LIBRARY_CALLER))
    assert sorted(name.split(":")[1] for name in flagged) == \
        sorted(NO_LIBRARY_CALLER)


def names_in(source: str) -> set[str]:
    """Every name, attribute and imported name the source mentions."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {alias.name for n in nodes
               if isinstance(n, (ast.Import, ast.ImportFrom))
               for alias in n.names})


def test_cli_names_no_report_class():
    # every suite returns its report from its layer; the cli only prints it
    report_classes = {"VerificationReport", "CheckResult"}
    assert names_in("from .report import VerificationReport\n"
                    "report.CheckResult('c', True)\n") == \
        report_classes | {"report"}
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    assert not names_in(cli) & report_classes


def test_fusion_is_the_one_home_of_letters_and_ring_elements():
    # one letter grammar and one ring-element arithmetic, both in fusion.py
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODULES}
    assert "parse_label" in names_in(sources["fusion.py"])
    assert [name for name, source in sources.items()
            if "parse_label" in names_in(source)] == ["fusion.py"]
    home = {"tensor_fold", "rep_as_dict", "parse_letter", "parse_star_list"}
    defined = {name: {node.name for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef)}
               for name, source in sources.items()}
    assert {name: names & (home | {"conj_rep"})
            for name, names in defined.items()
            if names & (home | {"conj_rep"})} == {"fusion.py": home}
    assert not any("conj_rep" in names_in(source)
                   for source in sources.values())


def cached_functions(source: str) -> set[str]:
    """Top-level functions of the source wrapped by ``functools.cache``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id in ("cache", "lru_cache")
                    for d in node.decorator_list)}


def test_weingarten_holds_one_index_space():
    # the indices, their positions, the rotation, its orbits and the join
    # counts of one (k, category) live in one cached builder
    assert cached_functions("@cache\ndef f():\n    pass\n"
                            "def g():\n    pass\n") == {"f"}
    from freewreath import weingarten
    expected = {"wg_indices", "_category_size", "_index_space", "_support",
                "_leading_coeffs"}
    source = (SRC / "weingarten.py").read_text(encoding="utf-8")
    assert cached_functions(source) == expected
    assert {name for name, obj in vars(weingarten).items()
            if hasattr(obj, "cache_clear")} == expected


def function_names(source: str) -> dict[str, list[str]]:
    """Every top-level function of the source, with the sorted plain names
    its body mentions, a name once per mention."""
    return {node.name: sorted(n.id for n in ast.walk(node)
                              if isinstance(n, ast.Name))
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def test_weingarten_checks_the_category_once_per_entry_point():
    # one category check: only _check_category reads CATEGORIES, and each
    # entry point calls it, or _category_in_effect that calls it, once; the
    # order and sizes have one check too, which the Gram and table call once
    assert function_names("def f(x):\n    return g(x) + g(1)\nh = 1\n") \
        == {"f": ["g", "g", "x"]}
    source = (SRC / "weingarten.py").read_text(encoding="utf-8")
    checks = ("_check_category", "_category_in_effect")
    names = function_names(source)
    assert [name for name, used in names.items() if "CATEGORIES" in used] \
        == ["_check_category"]
    assert {name: [n for n in used if n in checks]
            for name, used in names.items()
            if any(n in checks for n in used)} == {
        "_category_in_effect": ["_check_category"],
        "wg_indices": ["_check_category"],
        "wg_gram": ["_check_category"],
        "wg_table": ["_category_in_effect"],
        "wg_leading_coeff": ["_check_category"],
        "wg_certify_asymptotics": ["_category_in_effect"]}
    assert {name: used.count("_check_sizes") for name, used in names.items()
            if "_check_sizes" in used} == {"wg_gram": 1, "wg_table": 1}


def test_weingarten_counts_its_indices_once():
    # one size check, which only the Gram and the leading coefficients call,
    # counts the indices by the plain-word solver on the cached category
    # sizes; besides it only the listing reads a size, to count its tests;
    # config holds no helper that only weingarten calls
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODULES}
    names = function_names(sources["weingarten.py"])
    assert sorted(name for name, used in names.items()
                  if "_check_gram_size" in used) == \
        ["wg_gram", "wg_leading_coeff"]
    assert [name for name, used in names.items()
            if "_plain_moments" in used] == ["_check_gram_size"]
    assert sorted(name for name, used in names.items()
                  if "_category_size" in used) == \
        ["_check_gram_size", "wg_indices"]
    # and both walk their counts through one order-by-order check
    assert sorted(name for name, used in names.items()
                  if "_check_orders" in used) == \
        ["_check_gram_size", "wg_indices"]
    assert [name for name, source in sources.items()
            if "_check_gram_size" in names_in(source)] == ["weingarten.py"]
    callers = {name: [module for module, source in sources.items()
                      if module != "config.py" and name in names_in(source)]
               for name in function_names(sources["config.py"])}
    assert "check_entry_cap" in callers
    assert [name for name, modules in callers.items()
            if modules == ["weingarten.py"]] == []


def class_bases(source: str) -> dict[str, list[str]]:
    """Every class the source defines, with the names of its bases."""
    return {node.name: [ast.unparse(base) for base in node.bases]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)}


def test_records_are_named_tuples_and_no_value_base_is_left():
    # one record idiom: the plain records are NamedTuples, and no module
    # defines or imports a home-made value base
    assert class_bases("class A(B, c.D):\n    class E:\n        pass\n") == \
        {"A": ["B", "c.D"], "E": []}
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    defined = {name: {node.name for node in ast.walk(ast.parse(source))
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
               for name, source in sources.items()}
    assert len(sources) == len(MODULES) + 1
    assert [name for name, source in sources.items()
            if "Value" in names_in(source) | defined[name]] == []
    assert set(class_bases(sources["config.py"])) == \
        {"CapExceededError", "_Memo"}
    records = {"CheckResult": "report.py", "WeingartenTable": "weingarten.py",
               "_IndexSpace": "weingarten.py"}
    for record, module in records.items():
        assert class_bases(sources[module])[record] == ["NamedTuple"]
