"""Tests of the benchmark harness itself (not part of the program's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.  The bypass test runs a small traced pass
(the first item, by name, of every item group) and asserts that the layers a
workload must not touch are called exactly zero times.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import cliload  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_items  # noqa: E402

MUST_BYPASS = {
    "category": ("exactmat", "homspaces", "fusion"),
    "counting": ("linmaps", "exactmat"),
    "weingarten": ("linmaps", "homspaces", "fusion"),
}


def _small(items):
    """One item per group, keeping build order; digests need whole groups."""
    first = {}
    for item in items:
        if item.group != "digest" and (item.group not in first
                                       or item.name < first[item.group].name):
            first[item.group] = item
    keep = {id(i) for i in first.values()}
    return [i for i in items if id(i) in keep]


@pytest.mark.parametrize("workload", sorted(MUST_BYPASS))
def test_bypass_counts_are_zero(workload):
    items = _small(workloads.build(workload, 0))
    with tracing.Tracer() as tracer:
        result = run_items(items, tracer)
    summary = tracer.summary()
    assert result["failed"] == 0, result["failures"]
    for layer in MUST_BYPASS[workload]:
        assert summary[f"{layer}.calls"] == 0, layer
    busiest = max(tracing.LAYERS, key=lambda layer: summary[f"{layer}.calls"])
    assert summary[f"{busiest}.calls"] > 0


def test_tracer_uninstall_restores_bindings():
    from freewreath import fusion, homspaces, partition
    originals = (fusion.fuse, homspaces.fuse, partition.Partition.join)
    with tracing.Tracer():
        assert fusion.fuse is not originals[0]
        assert homspaces.fuse is fusion.fuse      # the copied binding is patched
    assert (fusion.fuse, homspaces.fuse, partition.Partition.join) == originals


def test_self_times_partition_the_root_spans(tmp_path):
    from freewreath import weingarten
    with tracing.Tracer() as tracer:
        weingarten.wg_table(3, 4, 4)
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent)
             if p < 0]
    assert len(roots) == 1
    assert sum(tracer.self_times()) == pytest.approx(roots[0], rel=1e-9)
    summary = tracer.summary()
    assert summary["weingarten.tables"] == 1 and summary["exactmat.matrices"] == 1
    assert summary["exactmat.max_dim"] == summary["weingarten.indices"] == 12

    path = str(tmp_path / "spans.bin.gz")
    tracer.write_spans(path)
    spans = tracing.read_spans(path)
    assert spans["names"] == tracer.names
    assert list(spans["parent"]) == list(tracer.parent)
    assert list(spans["end"]) == list(tracer.end)


def test_errors_count_once_where_raised():
    from freewreath import fusion
    fd = fusion.cyclic_fusion(2)
    with tracing.Tracer() as tracer:
        with pytest.raises(ValueError):
            fusion.parse_word("g,g", fd)
        with pytest.raises(ValueError):
            fusion.fuse((), (), fd, method="nosuch")
    assert tracer.summary()["fusion.errors"] == 2


def test_failed_items_are_counted_not_raised():
    def boom():
        raise ArithmeticError("boom")

    items = [workloads.Item("good", "g", lambda: 1, lambda v: v == 1, query=True),
             workloads.Item("wrong", "g", lambda: 2, lambda v: v == 1),
             workloads.Item("raises", "g", boom, lambda v: True)]
    result = run_items(items)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert len(result["latencies"]) == 1      # only query items are timed


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in doc["per_layer"]}
    assert set(tracing.Tracer().summary()) <= names
    assert set(workloads.sweeps()) == set(run.SWEEPS)


def test_interpolation_recovers_integer_polynomials():
    poly = (1, -3, 0, 2)
    points = [(x, sum(c * x ** i for i, c in enumerate(poly))) for x in range(4, 8)]
    assert cliload._interpolate(points) == poly


def test_seeded_calls_repeat_and_vary():
    first, again, other = cliload.calls(5), cliload.calls(5), cliload.calls(6)
    assert [c.argv for c in first] == [c.argv for c in again]
    assert [c.argv for c in first] != [c.argv for c in other]
    assert len(first) >= 40
    kinds = {c.kind for c in first}
    assert kinds == {"readme", "seeded", "refusal", "defect"}


def test_shim_matches_the_cli_and_reports_timings(tmp_path):
    report = str(tmp_path / "call.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    readme = next(c for c in cliload.calls(0) if c.kind == "readme")
    refusal = next(c for c in cliload.calls(0) if c.kind == "refusal")
    for call in (readme, refusal):
        proc = subprocess.run([sys.executable, run.SHIM, report, "0", *call.argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        assert call.check(proc.returncode, proc.stdout, proc.stderr), proc.stderr
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
        assert rep["started"] <= rep["imported"]
        assert rep["import_s"] > 0 and rep["main_s"] > 0 and rep["maxrss_kb"] > 0
