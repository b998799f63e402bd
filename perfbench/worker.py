"""One CLI invocation in a fresh interpreter.

    python3 worker.py MODE RECORD SRC -- CLI-ARGS...

Imports ``malgrange`` from SRC, runs ``malgrange.cli.main(CLI-ARGS)`` so the
CLI writes its own stdout and exit code, and writes a JSON record of the
invocation to RECORD.  The record holds the setup and ``cli.run`` seconds,
the max RSS, and the mean of two ``calibrate`` timings taken just before
and just after the command.  MODE is ``plain`` (timings only), ``spans``
(every ``tracing.SPANNED`` call recorded) or ``counts`` (``tracing.COUNTED``
calls counted).
"""

import json
import resource
import sys
import time

CALIBRATION_ROUNDS = 30_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like the engine's inner
    loops: dict updates keyed by exponent tuples, integer products."""
    start = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_ROUNDS):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - start


def main() -> int:
    mode, record_path, src, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "spans", "counts"):
        raise SystemExit("usage: worker.py plain|spans|counts RECORD SRC -- "
                         "CLI-ARGS...")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import malgrange.cli as cli
    import_s = time.perf_counter() - t0

    import tracing  # beside this script, first on sys.path before SRC
    tracer = cells = None
    if mode == "spans":
        tracer = tracing.SpanTracer()
        tracer.install()
    elif mode == "counts":
        cells = tracing.install_counts()

    inner = cli.run
    stamps = {}

    def timed_run(*args, **kwargs):
        stamps["run_start"] = time.perf_counter()
        result = inner(*args, **kwargs)
        stamps["run_end"] = time.perf_counter()
        return result

    cli.run = timed_run
    calibration_s = calibrate()
    t_main = time.perf_counter()
    code = cli.main(cli_args)
    sys.stdout.flush()
    calibration_s = (calibration_s + calibrate()) / 2

    record = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "calibration_s": calibration_s}
    if "run_end" in stamps:
        record["setup_s"] = import_s + stamps["run_start"] - t_main
        record["run_s"] = stamps["run_end"] - stamps["run_start"]
    if tracer is not None:
        record.update(tracer.dump())
    if cells is not None:
        record["counts"] = {name: cell[0] for name, cell in cells.items()}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
