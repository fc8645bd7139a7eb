"""Shared by the drawn-seed reference tests: scenarios of one of the
benchmark's corpora, run through `run_scenario` and checked task by task
by the benchmark's own reference, which decodes the reports itself and
shares no code with typeflow."""

import json
import os
import sys

from typeflow.cli import run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import corpus, reference  # noqa: E402


def generate(workload, seed):
    """The (name, scenario, flags) list of one workload's corpus at seed."""
    return corpus.generate(workload, seed, ROOT)


def check_against_the_reference(seed, scenarios):
    for name, scenario, flags in scenarios:
        report, code = run_scenario(scenario, with_oracle="--with-oracle" in flags)
        assert code == 0, name
        # the reference reads the report as the CLI prints it
        verdicts = reference.check_report(scenario, flags, json.loads(json.dumps(report)))
        assert verdicts == [None] * len(scenario["tasks"]), (seed, name, verdicts)
