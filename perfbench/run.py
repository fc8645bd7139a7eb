"""Scenario benchmark for the typeflow command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload level-sweep --seed 1 --seconds 10 --trace 0

It generates the workload's scenario corpus from the seed, measures the
set-up cost of a fresh CLI process, runs the corpus through
``typeflow.cli.main`` in a worker process for about ``--seconds`` seconds,
checks every report against the benchmark's own reference, and prints the
metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced worker with
``--trace 1``. Scratch files go to ``.bench_work/`` under the root; the
corpus and the reports are deleted once checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus, reference  # noqa: E402

SETUP_SPAWNS = 11
WORKER_TIMEOUT_S = 170
CAPABILITIES = "import sys; from typeflow.cli import main; sys.exit(main(['--capabilities']))"


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def measure_setup(env) -> tuple[list[float], bool]:
    """Wall times of fresh `--capabilities` processes, one at a time, after
    one unmeasured spawn; and whether their output was the task catalog."""
    times, ok = [], True
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CAPABILITIES], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        try:
            catalog = json.loads(proc.stdout)
            ok = ok and proc.returncode == 0 and catalog.get("tool") == "typeflow" and bool(catalog.get("tasks"))
        except json.JSONDecodeError:
            ok = False
        if i:
            times.append(elapsed)
    return times, ok


def run_worker(env, manifest_path, seconds, trace, work) -> dict:
    out = os.path.join(work, "worker.json")
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--manifest", manifest_path, "--seconds", str(seconds), "--trace", str(trace),
        "--out", out, "--reports", os.path.join(work, "reports"),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_reports(scenarios, work) -> tuple[list[list], str]:
    """Reference verdicts per scenario (failure reasons per task) and a
    digest of all reports with `timings` dropped."""
    verdicts = []
    h = hashlib.sha256()
    for i, (_, scenario, flags) in enumerate(scenarios):
        try:
            with open(os.path.join(work, "reports", f"{i:03d}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            report = None
        verdicts.append(reference.check_report(scenario, flags, report))
        if isinstance(report, dict):
            report.pop("timings", None)
        h.update(json.dumps(report, sort_keys=True).encode())
    return verdicts, h.hexdigest()[:16]


def quantile(values, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="typeflow scenario benchmark")
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "typeflow", "cli.py")):
        return fail("typeflow sources not found under src/; run from a full checkout")
    try:
        scenarios = corpus.generate(args.workload, args.seed, ROOT)
    except OSError as exc:
        return fail(f"cannot read a bundled scenario: {exc}")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    manifest = corpus.write_corpus(scenarios, os.path.join(work, "corpus"))
    manifest_path = os.path.join(work, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    tasks_per_pass = sum(m["tasks"] for m in manifest)
    env = program_env()

    setup_ok = True
    if not args.trace:
        setup_times, setup_ok = measure_setup(env)
    try:
        result = run_worker(env, manifest_path, args.seconds, args.trace, work)
    except (RuntimeError, OSError, json.JSONDecodeError, subprocess.TimeoutExpired) as exc:
        return fail(f"worker failed: {exc}")

    verdicts, report_digest = check_reports(scenarios, work)
    for done in ("corpus", "reports"):
        shutil.rmtree(os.path.join(work, done), ignore_errors=True)
    failed_per_scenario = [sum(1 for v in vs if v) for vs in verdicts]
    if args.trace:
        codes = result["codes"]
    else:
        codes = [c for p in result["passes"] for c in p["codes"]]
    calls = len(codes)
    n = len(manifest)
    attempted = failed = 0
    for k in range(calls):
        attempted += manifest[k % n]["tasks"]
        failed += failed_per_scenario[k % n]
    for i in result["mismatched"]:
        failed += manifest[i]["tasks"] - failed_per_scenario[i]
    src = os.path.join(ROOT, "src", "typeflow")
    correct = (
        failed == 0
        and setup_ok
        and not result["installed_after"]
        and os.path.dirname(os.path.abspath(result["typeflow_file"])) == src
    )

    print(f"workload {args.workload} seed {args.seed}: {n} scenarios, {tasks_per_pass} tasks per pass")
    print(f"report digest (timings dropped): {report_digest}")
    for name, vs in zip((s[0] for s in scenarios), verdicts):
        for v in vs:
            if v:
                print(f"  FAILED {name}: {v}")
    print(f"failed_ratio: {failed}/{attempted} = {failed / max(attempted, 1):.6f} (failed tasks / tasks attempted)")
    for i, trace in result["crashes"].items():
        print(f"  CRASHED {scenarios[int(i)][0]}: {trace.strip().splitlines()[-1]}")
    if result["mismatched"]:
        print(f"  reports that differed from the first pass: {len(result['mismatched'])}")
    if result["installed_after"]:
        print(f"  tracing wrappers left installed: {result['installed_after'][:5]}")

    if args.trace:
        metrics = result["metrics"]
        print(
            f"traced passes: {result['traced_passes']}, spans per pass: {result['spans_per_pass']:.0f}; "
            f"overhead: traced {result['traced_ms']:.1f} ms / untraced {result['untraced_ms']:.1f} ms"
        )
        for span, (small, large) in result["tier_sizes"].items():
            print(f"  tiers of {span}: mean size {small:.1f} (small) and {large:.1f} (large)")
    else:
        # A scenario's sample is the median over passes of its wall time
        # divided by the mean calibration kernel time just before and just
        # after it: the time in reference milliseconds (kernel durations).
        passes = result["passes"]
        ref_ms = [
            statistics.median(2 * p["ns"][i] / (p["cal_ns"][i] + p["cal_ns"][i + 1]) for p in passes)
            for i in range(n)
        ]
        wall_ms = [statistics.median(p["ns"][i] for p in passes) / 1e6 for i in range(n)]
        kernel_ms = statistics.median(c for p in passes for c in p["cal_ns"]) / 1e6
        p90 = quantile(ref_ms, 0.9)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "scenario_ms_p50": {"value": quantile(ref_ms, 0.5), "unit": "ref_ms"},
            "scenario_ms_p90": {"value": p90, "unit": "ref_ms"},
            "tasks_per_s": {"value": tasks_per_pass / (sum(ref_ms) / 1000), "unit": "1/ref_s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(
            f"passes: {len(passes)}, scenario calls: {calls}; samples (one per scenario, median over passes): "
            f"{n}, beyond p90: {sum(1 for x in ref_ms if x > p90)}"
        )
        print(
            f"wall clock: calibration kernel {kernel_ms:.3f} ms (= 1 ref_ms), scenario p50 {quantile(wall_ms, 0.5):.2f} ms, "
            f"p90 {quantile(wall_ms, 0.9):.2f} ms, {tasks_per_pass / (sum(wall_ms) / 1000):.1f} tasks/s"
        )
        print(f"setup: median of {len(setup_times)} fresh --capabilities processes, catalog ok: {setup_ok}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
