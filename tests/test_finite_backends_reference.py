"""End to end on product backends: the rectangle-set scenarios of the
benchmark's `finite-backends` corpus at random seeds, run through
`run_scenario` and checked task by task by the benchmark's own reference,
which decodes the reports itself and shares no code with typeflow.

Each example runs every product scenario of one seed's corpus: the ℤ×F
ones and the F×F ones, each with genericity, Boolean, translate and
difference-set tasks.
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


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.integers(min_value=0, max_value=2**32))
def test_the_reference_accepts_product_scenarios(seed):
    scenarios = corpus.generate("finite-backends", seed, ROOT)
    products = [s for s in scenarios if s[1]["group"]["kind"] == "product"]
    assert any(scenario["group"]["left"]["kind"] == "integers" for _, scenario, _ in products)
    assert any(scenario["group"]["left"]["kind"] == "bundled" for _, scenario, _ in products)
    for name, scenario, flags in products:
        report, code = run_scenario(scenario, with_oracle="--with-oracle" in flags)
        assert code == 0, name
        # the reference reads the report as the CLI prints it
        verdicts = reference.check_report(scenario, flags, json.loads(json.dumps(report)))
        assert verdicts == [None] * len(scenario["tasks"]), (seed, name, verdicts)
