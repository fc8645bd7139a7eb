"""Worker process: runs a corpus through ``typeflow.cli.main`` in a loop.

One client, closed loop, no extra threads: each scenario call starts when
the previous one returns. The worker runs whole passes over the corpus
until the next pass would end past the time budget, and at least
MIN_PASSES of them when untraced.

Untraced mode times every ``main([...])`` call with stdout captured, and
between calls times a fixed calibration kernel, so that each call can be
expressed in kernel durations; the host's speed drifts too much for
raw wall times to compare across runs. It writes the first pass's reports
to disk for checking. Traced mode warms
up with one untraced pass, then alternates untraced and traced passes
(wrappers installed only for the traced ones) and reports per-layer
totals per pass. Both modes compare every report with the first pass's
report, ignoring ``timings``.

Run from the checkout root with typeflow's ``src`` and the root on
PYTHONPATH:

    python3 -m perfbench.worker --manifest M --seconds S --trace 0|1 --out OUT --reports DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import time
import traceback

from perfbench import tracing

# every scenario is timed at least this often; its best time is the sample
MIN_PASSES = 3

_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')


def digest(text: str) -> str:
    """Digest of a report with its `timings` object emptied."""
    return hashlib.sha256(_TIMINGS.sub('"timings": {}', text).encode()).hexdigest()


class Runner:
    def __init__(self, manifest, cli):
        self.manifest = manifest
        self.cli = cli
        self.first = {}  # scenario index -> digest of its first report
        self.mismatched = []  # scenario index of every report that differed
        self.crashes = {}  # scenario index -> traceback of its first crash

    def call(self, i: int):
        """One scenario through the CLI: (wall ns, exit code, stdout).

        An exception escaping ``main`` is a failed scenario, not the end of
        the run: its code is None, its output empty, its traceback kept.
        """
        entry = self.manifest[i]
        argv = ["--scenario", entry["path"]] + entry["flags"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                self.crashes.setdefault(i, traceback.format_exc(limit=-3))
            end = time.perf_counter_ns()
        return end - start, code, buf.getvalue() if code is not None else ""

    def run_pass(self, report_dir=None, calibrations=None):
        """One pass over the corpus: per-call ns and exit codes, report bytes.
        With a calibrations list, the kernel is timed before every call and
        after the last, so call i lies between calibrations i and i + 1."""
        times, codes, size = [], [], 0
        for i in range(len(self.manifest)):
            if calibrations is not None:
                calibrations.append(calibrate())
            ns, code, out = self.call(i)
            times.append(ns)
            codes.append(code)
            size += len(out)
            d = digest(out)
            if i not in self.first:
                self.first[i] = d
                if report_dir is not None:
                    with open(os.path.join(report_dir, f"{i:03d}.json"), "w", encoding="utf-8") as fh:
                        fh.write(out)
            elif d != self.first[i]:
                self.mismatched.append(i)
        if calibrations is not None:
            calibrations.append(calibrate())
        return times, codes, size


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind typeflow does (small tuples, lists,
    dict updates), about a millisecond on a 2 GHz core."""
    table = {}
    acc = 0
    for i in range(1500):
        key = (i, i % 7)
        table[key] = [i]
        acc += len(table) % 3
    return acc


def calibrate() -> int:
    """Best of three kernel runs, in ns: the machine's speed right now."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        calibration_kernel()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(runner: Runner, seconds: float, report_dir: str) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        cal = []
        times, codes, _ = runner.run_pass(report_dir if not passes else None, cal)
        passes.append({"ns": times, "cal_ns": cal, "codes": codes})
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    return {"passes": passes, "installed_after": tracing.installed_wrappers()}


def run_traced(runner: Runner, seconds: float, report_dir: str) -> dict:
    tracer = tracing.Tracer()
    _, codes, _ = runner.run_pass(report_dir)  # warm-up; its reports are the ones checked
    untraced_ns = traced_ns = 0
    traced_passes = 0
    report_bytes = 0
    start = time.perf_counter()
    while True:
        times, c, _ = runner.run_pass()
        untraced_ns += sum(times)
        codes += c
        tracer.install()
        try:
            times, c, size = runner.run_pass()
        finally:
            tracer.uninstall()
        tracer.fold()
        traced_ns += sum(times)
        codes += c
        report_bytes += size
        traced_passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / traced_passes >= seconds:
            break
    metrics = tracing.layer_metrics(tracer.stats, traced_passes)
    metrics["cli.report_bytes"] = (report_bytes / traced_passes, "bytes")
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    return {
        "traced_passes": traced_passes,
        "untraced_ms": untraced_ns / 1e6,
        "traced_ms": traced_ns / 1e6,
        "spans_per_pass": tracer.span_count / traced_passes,
        "codes": codes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tier_sizes": tracing.tier_sizes(tracer.stats),
        "installed_after": tracing.installed_wrappers(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reports", required=True, help="directory for the first pass's reports")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cli = importlib.import_module("typeflow.cli")
    if tracing.installed_wrappers():
        raise SystemExit("tracing wrappers present before the run")
    os.makedirs(args.reports, exist_ok=True)
    runner = Runner(manifest, cli)
    if args.trace:
        result = run_traced(runner, args.seconds, args.reports)
    else:
        result = run_untraced(runner, args.seconds, args.reports)
    result["mismatched"] = runner.mismatched
    result["crashes"] = runner.crashes
    result["peak_rss_mb"] = peak_rss_mb()
    result["typeflow_file"] = cli.__file__
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
