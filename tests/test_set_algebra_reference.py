"""End to end on the integer set algebra: scenarios drawn from the
benchmark's `set-algebra` generators at random seeds, run through
`run_scenario` and checked task by task by the benchmark's own reference,
which decodes the reports itself and shares no code with typeflow.

Each example runs one scenario of each kind the generator makes from one
seed's corpus: Boolean operations on sets with coprime periods, an explicit
list with difference sets, and a family search (`pestov-check`,
`kernel-intersection` or `singleton-minimal`).
"""

import json
import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow.cli import run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import corpus, reference  # noqa: E402

KINDS = (("periods",), ("list",), ("pestov-check", "kernel-intersection", "singleton-minimal"))


@settings(derandomize=True, deadline=None, max_examples=24)
@given(st.integers(min_value=0, max_value=2**32), st.data())
def test_the_reference_accepts_set_algebra_scenarios(seed, data):
    scenarios = corpus.generate("set-algebra", seed, ROOT)
    for prefixes in KINDS:
        name, scenario, flags = data.draw(st.sampled_from([s for s in scenarios if s[0].startswith(prefixes)]))
        report, code = run_scenario(scenario, with_oracle="--with-oracle" in flags)
        assert code == 0, name
        # the reference reads the report as the CLI prints it
        verdicts = reference.check_report(scenario, flags, json.loads(json.dumps(report)))
        assert verdicts == [None] * len(scenario["tasks"]), (seed, name, verdicts)
