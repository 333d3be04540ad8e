"""Run one ``freewreath`` command and record where its time went.

    python3 perfbench/cli_shim.py REPORT_PATH TRACE ARG...

Behaves like ``python3 -m freewreath.cli ARG...`` (same stdout, stderr and
exit code, a traceback included) and writes to REPORT_PATH a JSON object with
``started`` (``time.monotonic()`` when this script began), ``imported`` (the
same clock once ``freewreath.cli`` is imported), ``import_s``, ``main_s``,
``maxrss_kb`` and, with TRACE = 1, the per-layer trace summary of the call.
"""

import sys
import time

started = time.monotonic()
report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
t0 = time.perf_counter()
import freewreath.cli as cli  # noqa: E402  (timed import)
import_s = time.perf_counter() - t0
imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

tracer = None
if trace:
    import tracer as tracing
    tracer = tracing.Tracer().install()
t1 = time.perf_counter()
code = 1
try:
    code = cli.main(argv)
finally:
    main_s = time.perf_counter() - t1
    report = {"started": started, "imported": imported, "import_s": import_s,
              "main_s": main_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
sys.exit(code)
