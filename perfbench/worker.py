"""One benchmark pass in a fresh process, so per-process caches start cold.

    python3 perfbench/worker.py MODE WORKLOAD SEED SPAWNED_AT [SPANS_PATH]

MODE is ``setup`` (import and build the inputs only), ``pass`` (one untraced
pass), ``traced`` (one pass with every layer wrapped; spans are written to
SPANS_PATH), ``sweep`` (the size sweeps, each call timed on its own) or
``cli-oracle`` (expected outputs of the seeded CLI calls, read from stdin).
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; both sides read the same system-wide monotonic clock.  The result is
one JSON object on stdout, with raw wall seconds and the calibration-loop
times measured alongside them (see ``calibrate.py``); the parent scales.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import calibrate

CALIBRATE_EVERY_S = 1.0


def _fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(1)


def run_items(items, tracer=None) -> dict:
    """Run every item once; a failing item is counted and never aborts.

    Latencies are kept for the items flagged ``query``.  The calibration loop
    runs before the first item, after any item that ends more than
    ``CALIBRATE_EVERY_S`` after the last calibration, and at the end; its time
    is not part of ``run_s``.
    """
    latencies, failures = [], []
    calibration = [calibrate.measure()]
    last = time.perf_counter()
    run_s = 0.0
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = idx
        ti = time.perf_counter()
        try:
            ok = bool(item.check(item.run()))
        except Exception as exc:  # a raising item is a failed item
            ok = False
            failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                failures.append(f"{item.name}: check failed")
        end = time.perf_counter()
        run_s += end - ti
        if item.query:
            latencies.append(end - ti)
        if end - last > CALIBRATE_EVERY_S:
            calibration.append(calibrate.measure())
            last = time.perf_counter()
    calibration.append(calibrate.measure())
    return {"run_s": run_s, "latencies": latencies, "calibration": calibration,
            "attempted": len(items), "failed": len(failures),
            "failures": failures[:5]}


def main(argv: list[str]) -> None:
    mode, workload, seed, spawned_at = argv[1], argv[2], int(argv[3]), float(argv[4])
    src = os.path.join(os.getcwd(), "src")
    try:
        import freewreath
    except ImportError as exc:
        _fail(f"cannot import the program from {src}: {exc}")
    if not os.path.abspath(freewreath.__file__).startswith(src + os.sep):
        _fail(f"freewreath was imported from {freewreath.__file__}, not {src}")
    if mode == "cli-oracle":
        import cliload
        oracles = [tuple(tuple(a) if isinstance(a, list) else a for a in o)
                   for o in json.load(sys.stdin)]
        print(json.dumps({"expected": cliload.expected_outputs(oracles)}))
        return
    import workloads

    if mode == "sweep":
        result = {}
        for name, call in workloads.sweeps().items():
            cal = calibrate.measure()
            t0 = time.perf_counter()
            call()
            result[name] = [time.perf_counter() - t0, cal, calibrate.measure()]
        print(json.dumps({"sweeps": result}))
        return

    items = workloads.build(workload, seed)
    setup_s = time.monotonic() - spawned_at
    out = {"setup_s": setup_s}
    if mode == "pass":
        out.update(run_items(items))
    elif mode == "traced":
        import tracer as tracing
        with tracing.Tracer() as tracer:
            out.update(run_items(items, tracer))
        out["trace"] = tracer.summary()
        tracer.write_spans(argv[5])
    elif mode == "setup":
        out["calibration"] = [calibrate.measure() for _ in range(3)]
    else:
        _fail(f"unknown mode {mode!r}")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
