"""Tests of the benchmark itself: generator, reference checker, tracing."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import corpus, reference, run, tracing, worker  # noqa: E402
from typeflow import cli  # noqa: E402


def report_of(scenario, flags=()):
    report, code = cli.run_scenario(scenario, with_oracle="--with-oracle" in flags)
    assert code == 0
    return json.loads(json.dumps(report))


SMALL = {
    "group": {"kind": "integers"},
    "level": 6,
    "tasks": [
        {"op": "is-generic", "set": {"mod": 3, "up": [0], "down": [1], "window": {"lo": -2, "hi": 2, "bits": [1, 0, 1, 1, 0]}}},
        {"op": "boolean", "kind": "union", "a": [-7, 3, 11], "b": "evens"},
        {"op": "universal-minimal-flow"},
        {"op": "is-left-ideal", "points": [{"kind": "limit", "sign": "-", "res": r, "mod": 6} for r in range(6)]},
    ],
}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_reproducible_per_seed(workload):
    first = corpus.generate(workload, 7, ROOT)
    assert first == corpus.generate(workload, 7, ROOT)
    assert first != corpus.generate(workload, 8, ROOT)
    assert all(len(s.get("tasks", [])) <= 20 for _, s, _ in first)


def test_corpora_include_the_bundled_scenarios():
    for workload, path in corpus.BUNDLED_SCENARIOS.items():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            bundled = json.load(fh)
        assert any(s == bundled for _, s, _ in corpus.generate(workload, 1, ROOT))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_reference_accepts_the_seed_code(workload):
    for _, scenario, flags in corpus.generate(workload, 3, ROOT)[:3]:
        assert reference.check_report(scenario, flags, report_of(scenario, flags)) == [None] * len(scenario["tasks"])


def corrupted(mutate):
    report = report_of(SMALL)
    assert reference.check_report(SMALL, [], report) == [None] * 4
    bad = copy.deepcopy(report)
    mutate(bad["results"])
    return reference.check_report(SMALL, [], bad)


def test_checker_flags_a_flipped_generic_verdict():
    def flip(results):
        results[0]["result"]["generic"] = not results[0]["result"]["generic"]

    verdicts = corrupted(flip)
    assert verdicts[0] and not any(verdicts[1:])


def test_checker_flags_a_wrong_union_bit():
    def flip_bit(results):
        bits = results[1]["result"]["result"]["window"]["bits"]
        bits[0] = 1 - bits[0]

    verdicts = corrupted(flip_bit)
    assert verdicts[1] and not verdicts[0] and not any(verdicts[2:])


def test_checker_flags_a_false_checks_entry():
    def falsify(results):
        results[2]["result"]["isomorphisms"][1]["checks"]["equivariant"] = False

    verdicts = corrupted(falsify)
    assert "equivariant" in verdicts[2] and not verdicts[3]


def test_checker_flags_a_wrong_ideal_verdict():
    def flip(results):
        results[3]["result"]["left_ideal"] = False

    assert corrupted(flip)[3]


def test_corrupted_report_counts_in_failed_ratio(tmp_path):
    scenarios = [("small", SMALL, [])]
    os.makedirs(tmp_path / "reports")
    report = report_of(SMALL)
    report["results"][0]["result"]["generic"] = not report["results"][0]["result"]["generic"]
    (tmp_path / "reports" / "000.json").write_text(json.dumps(report))
    verdicts, _ = run.check_reports(scenarios, str(tmp_path))
    assert sum(1 for v in verdicts[0] if v) == 1


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import typeflow.ellis
    import typeflow.flows
    import typeflow.groups

    originals = (typeflow.flows.star, typeflow.ellis.star, typeflow.groups.FiniteGroup.__dict__["__init__"], cli.main)
    assert tracing.installed_wrappers() == []
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert typeflow.flows.star is typeflow.ellis.star is not originals[0]
        assert "typeflow.cli.main" in tracing.installed_wrappers()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--scenario", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (typeflow.flows.star, typeflow.ellis.star, typeflow.groups.FiniteGroup.__dict__["__init__"], cli.main) == originals
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["flows.is_left_ideal"].counters["star"] == 12 * 6
    metrics = tracing.layer_metrics(tracer.stats, 1)
    assert metrics["flows.is_left_ideal.star_per_call"][0] == 72
    assert metrics["cli.main.self_ms"][0] > 0


def test_untraced_worker_installs_no_wrappers(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    runner = worker.Runner([{"path": str(path), "flags": [], "tasks": 4}], cli)
    result = worker.run_untraced(runner, 0, str(tmp_path))
    assert result["installed_after"] == []
    assert result["passes"][0]["codes"] == [0]
    assert json.loads((tmp_path / "000.json").read_text())["results"][0]["ok"]


def test_readme_maps_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert [n for n in names if f"`{n}`" not in readme] == []
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
