"""freewreath benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  Every pass runs in a fresh
worker process, one at a time (a closed loop with one client), so the
per-process caches start cold as they do for a CLI call or a test session.

``--trace 0`` measures the end-to-end metrics: passes are repeated until
``--seconds`` have gone by (at least three) and medians are reported.
``--trace 1`` runs one untraced pass, one traced pass and the size sweeps,
and reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, with run metadata, is written to
``perfbench/out/``.  Exit code 1 means the harness could not run the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import cliload  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("category", "counting", "weingarten", "cli")

OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SHIM = os.path.join(HERE, "cli_shim.py")
MIN_PASSES = 3
SETUP_SPAWNS = 4          # extra set-up-only workers, for a steadier setup_s
TIMEOUT_S = 150           # per worker process or CLI call

END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("call_p50_ms", "ms", "lower"),
    ("call_p75_ms", "ms", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer in tracer.LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.errors", "count", "lower"),
                (f"{layer}.share", "fraction", "lower")]
    out += [(f"partition.{group}.self_s", "s", "lower")
            for group in tracer.PARTITION_GROUPS]
    units = {"tp_nonzeros": "entries", "max_dim": "rows", "cubic_ops": "ops",
             "max_bits": "bits"}
    out += [(name, units.get(name.rsplit(".", 1)[1], "count"), "lower")
            for name in tracer.SUM_COUNTERS + tracer.MAX_COUNTERS]
    out += [("linmaps.pairs_checked", "count", "higher"),
            ("homspaces.admissible_ratio", "fraction", "higher"),
            ("cli.interp_s", "s", "lower"), ("cli.import_s", "s", "lower"),
            ("cli.main_s", "s", "lower"),
            ("cli.defect_probes", "count", "higher"),
            ("cli.defect_probes_failed", "count", "lower"),
            ("trace.run_s", "s", "lower"), ("trace.base_run_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.unattributed_s", "s", "lower")]
    out += [(name, "s", "lower") for name in SWEEPS]
    return out


SWEEPS = ("partition.enum_s.n9", "partition.enum_s.n10", "partition.enum_s.n11",
          "linmaps.category_s.p3", "linmaps.category_s.p4",
          "linmaps.category_s.p5", "exactmat.inverse_s.d42",
          "exactmat.inverse_s.d132", "homspaces.partition_route_s.len5",
          "homspaces.partition_route_s.len6")


class HarnessError(Exception):
    """The program could not be run at all; no result is printed."""


def _env() -> dict:
    # bytecode is written once by the untimed warm-up and then reused, as for
    # an installed package, whatever the caller's environment says
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(argv: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *argv], input=stdin, cwd=os.getcwd(),
                              env=_env(), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError(f"{argv[:3]} ran over {TIMEOUT_S} s") from exc


def worker(mode: str, workload: str, seed: int, *extra: str,
           stdin: str | None = None) -> dict:
    proc = _run([WORKER, mode, workload, str(seed), repr(time.monotonic()),
                 *extra], stdin)
    if proc.returncode != 0:
        raise HarnessError(f"worker {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def calibrated(record: dict) -> dict:
    """Scale a worker's seconds to calibrated seconds, keeping the raw ones."""
    factor = calibrate.NOMINAL_S / statistics.median(record["calibration"])
    record["factor"] = factor
    record["raw_setup_s"] = record["setup_s"]
    record["setup_s"] *= factor
    if "run_s" in record:
        record["raw_run_s"] = record["run_s"]
        record["run_s"] *= factor
        record["latencies"] = [x * factor for x in record["latencies"]]
    for key, val in record.get("trace", {}).items():
        if key.endswith("self_s"):
            record["trace"][key] = val * factor
    return record


def sweeps(workload: str, seed: int) -> dict:
    raw = worker("sweep", workload, seed)["sweeps"]
    return {name: t * 2 * calibrate.NOMINAL_S / (before + after)
            for name, (t, before, after) in raw.items()}


# ---------------------------------------------------------------------------
# library workloads


def library_untraced(workload: str, seed: int, seconds: float) -> dict:
    worker("setup", workload, seed)          # compiles bytecode; not timed
    setups = [calibrated(worker("setup", workload, seed))["setup_s"]
              for _ in range(SETUP_SPAWNS)]
    passes = []
    begin = time.monotonic()
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - begin + last <= seconds:
        t0 = time.monotonic()
        passes.append(calibrated(worker("pass", workload, seed)))
        last = time.monotonic() - t0
    setups += [p["setup_s"] for p in passes]
    return {"setups": setups, "passes": passes,
            "latencies": [x for p in passes for x in p["latencies"]],
            "rss_kb": [p["maxrss_kb"] for p in passes]}


def library_traced(workload: str, seed: int) -> dict:
    worker("setup", workload, seed)
    base = calibrated(worker("pass", workload, seed))
    spans = os.path.join(OUT, f"spans-{workload}.bin.gz")
    traced = calibrated(worker("traced", workload, seed, spans))
    return {"passes": [base, traced], "base": base, "traced": traced,
            "layers": traced["trace"], "sweeps": sweeps(workload, seed)}


# ---------------------------------------------------------------------------
# cli workload


def cli_pass(calls: list, trace: bool) -> dict:
    report_path = os.path.join(OUT, "cli-call.json")
    rows = []
    for call in calls:
        spawned = time.monotonic()
        proc = _run([SHIM, report_path, "1" if trace else "0", *call.argv])
        latency = time.monotonic() - spawned
        try:
            with open(report_path, encoding="utf-8") as fh:
                rep = json.load(fh)
            os.remove(report_path)
        except OSError as exc:
            raise HarnessError(f"CLI shim left no report for {call.argv[:2]}: "
                               f"{proc.stderr.strip()[-2000:]}") from exc
        rows.append({"kind": call.kind, "argv": call.argv[:4], "latency": latency,
                     "setup": rep["imported"] - spawned,
                     "interp": rep["started"] - spawned,
                     "import": rep["import_s"], "main": rep["main_s"],
                     "rss_kb": rep["maxrss_kb"], "code": proc.returncode,
                     "ok": call.check(proc.returncode, proc.stdout, proc.stderr),
                     "trace": rep.get("trace")})
    run_s = sum(r["latency"] for r in rows)
    checked = [r for r in rows if r["kind"] != "defect"]
    probes = [r for r in rows if r["kind"] == "defect"]
    return {"run_s": run_s, "raw_run_s": run_s, "rows": rows,
            "attempted": len(checked),
            "failed": sum(not r["ok"] for r in checked),
            "failures": [f"{r['argv']}: exit {r['code']}"
                         for r in checked if not r["ok"]][:5],
            "probes": len(probes), "probes_failed": sum(not r["ok"] for r in probes),
            "probe_results": [f"{' '.join(r['argv'])[:40]}: exit {r['code']}, "
                              f"{'ok' if r['ok'] else 'FAIL'}" for r in probes],
            "latencies": [r["latency"] for r in rows],
            "rss_kb": max(r["rss_kb"] for r in rows)}


def cli_calls(seed: int) -> list:
    calls = cliload.calls(seed)
    seeded = [c for c in calls if c.oracle is not None]
    expected = worker("cli-oracle", "cli", seed,
                      stdin=json.dumps([c.oracle for c in seeded]))["expected"]
    for call, text in zip(seeded, expected):
        call.stdout = text
    # compiles bytecode for the calls; not timed
    warm_report = os.path.join(OUT, "cli-warm.json")
    _run([SHIM, warm_report, "0", "--help"])
    if os.path.exists(warm_report):
        os.remove(warm_report)
    return calls


def cli_untraced(seed: int, seconds: float) -> dict:
    calls = cli_calls(seed)
    passes = []
    begin = time.monotonic()
    while len(passes) < MIN_PASSES or \
            time.monotonic() - begin + passes[-1]["run_s"] <= seconds:
        passes.append(cli_pass(calls, trace=False))
    return {"setups": [r["setup"] for p in passes for r in p["rows"]],
            "passes": passes,
            "latencies": [x for p in passes for x in p["latencies"]],
            "rss_kb": [p["rss_kb"] for p in passes]}


def cli_traced(seed: int) -> dict:
    calls = cli_calls(seed)
    base = cli_pass(calls, trace=False)
    traced = cli_pass(calls, trace=True)
    layers = tracer.merge([r["trace"] for r in traced["rows"]])
    return {"passes": [base, traced], "base": base, "traced": traced,
            "layers": layers, "sweeps": sweeps("cli", seed)}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res: dict) -> dict:
    q = statistics.quantiles(res["latencies"], n=4)
    return {
        "setup_s": (statistics.median(res["setups"]), len(res["setups"])),
        "run_s": (statistics.median(p["run_s"] for p in res["passes"]),
                  len(res["passes"])),
        "peak_rss_mb": (statistics.median(res["rss_kb"]) / 1024, len(res["rss_kb"])),
        "call_p50_ms": (q[1] * 1000, len(res["latencies"])),
        "call_p75_ms": (q[2] * 1000, len(res["latencies"])),
    }


def per_layer(res: dict, workload: str) -> dict:
    layers = dict(res["layers"])
    traced_s = res["traced"]["run_s"]
    out = {name: 0 for name, _, _ in per_layer_metrics()}
    out.update(layers)
    for layer in tracer.LAYERS:
        out[f"{layer}.share"] = layers[f"{layer}.self_s"] / traced_s
    out["homspaces.admissible_ratio"] = (
        layers["homspaces.admissible"] / layers["homspaces.nc_examined"]
        if layers["homspaces.nc_examined"] else 0)
    out["trace.run_s"] = traced_s
    out["trace.base_run_s"] = res["base"]["run_s"]
    out["trace.overhead_s"] = traced_s - res["base"]["run_s"]
    if workload == "cli":
        rows = res["base"]["rows"]
        out["cli.interp_s"] = statistics.median(r["interp"] for r in rows)
        out["cli.import_s"] = statistics.median(r["import"] for r in rows)
        out["cli.main_s"] = statistics.median(r["main"] for r in rows)
        out["cli.defect_probes"] = res["base"]["probes"]
        out["cli.defect_probes_failed"] = res["base"]["probes_failed"]
    out["trace.unattributed_s"] = traced_s - sum(
        layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    out.update(res["sweeps"])
    return out


def metadata(seed: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "trace": trace, "commit": _commit(),
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "load_1min_start": _load(),
            "workers_at_once": 1}


def _load() -> float | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "freewreath")):
        print("run from the root of a freewreath checkout: src/freewreath is "
              "missing", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    meta = metadata(args.seed, args.trace)
    try:
        if args.workload == "cli":
            res = cli_traced(args.seed) if args.trace else \
                cli_untraced(args.seed, args.seconds)
        elif args.trace:
            res = library_traced(args.workload, args.seed)
        else:
            res = library_untraced(args.workload, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 1
    meta["load_1min_end"] = _load()
    meta["numpy"] = _run(["-c", "import numpy; print(numpy.__version__)"]).stdout.strip()

    attempted = sum(p["attempted"] for p in res["passes"])
    failed = sum(p["failed"] for p in res["passes"])
    if args.trace:
        values = per_layer(res, args.workload)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
        samples = {}
    else:
        e2e = end_to_end(res)
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END}
        samples = {name: e2e[name][1] for name, _, _ in END_TO_END}

    _print_report(args, meta, res, metrics, samples, attempted, failed)
    record = {"workload": args.workload, "meta": meta, "metrics": metrics,
              "samples": samples, "attempted": attempted, "failed": failed,
              "failures": [f for p in res["passes"] for f in p["failures"]][:20],
              "passes": [{k: v for k, v in p.items()
                          if k not in ("latencies", "rows", "trace")}
                         for p in res["passes"]]}
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_report(args, meta, res, metrics, samples, attempted, failed) -> None:
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{len(res['passes'])} passes, one worker at a time")
    print("meta " + json.dumps(meta))
    print("passes, raw -> calibrated run_s: " + ", ".join(
        f"{p['raw_run_s']:.3f} -> {p['run_s']:.3f}" for p in res["passes"]))
    for p in res["passes"]:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    if args.workload == "cli":
        print(f"known-defect probes (kept out of failed): {res['passes'][0]['probes']}"
              f" per pass, {res['passes'][0]['probes_failed']} failing")
        for line in res["passes"][0]["probe_results"]:
            print(f"  probe {line}")
    frac = failed / attempted if attempted else 0.0
    print(f"failed_frac {frac:.6f} ({failed} failed of {attempted} items)")
    if not args.trace:
        for name, unit, better in END_TO_END:
            print(f"  {name:<14} {metrics[name]['value']:>14.6f} {unit:<4} "
                  f"({better} is better, {samples[name]} samples)")
        return
    print(f"  {'layer':<11} {'calls':>9} {'self_s':>10} {'share':>7} {'errors':>6}")
    for layer in tracer.LAYERS:
        m = {k: metrics[f"{layer}.{k}"]["value"]
             for k in ("calls", "self_s", "share", "errors")}
        print(f"  {layer:<11} {m['calls']:>9} {m['self_s']:>10.4f} "
              f"{m['share']:>7.1%} {m['errors']:>6}")
    print(f"  shares are of the traced run_s, {metrics['trace.run_s']['value']:.4f} s")
    print(f"  tracing overhead {metrics['trace.overhead_s']['value']:.4f} s over an "
          f"untraced run_s of {metrics['trace.base_run_s']['value']:.4f} s")
    for name, unit, _ in per_layer_metrics():
        if not name.endswith((".calls", ".self_s", ".share", ".errors")) or \
                name.count(".") > 1:
            print(f"  {name:<34} {metrics[name]['value']:>14} {unit}")


if __name__ == "__main__":
    sys.exit(main())
