"""End to end on the level space: scenarios drawn from the benchmark's
`level-sweep` generators at random seeds, run through `run_scenario` and
checked task by task by the benchmark's own reference, which decodes the
reports itself and shares no code with typeflow.

Each example runs one scenario of each kind the generator makes (left
ideals, products, maps out of the level space) from one seed's corpus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_check import check_against_the_reference, generate

KINDS = ("ideals", "products", "maps")


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.integers(min_value=0, max_value=2**32), st.data())
def test_the_reference_accepts_level_sweep_scenarios(seed, data):
    scenarios = generate("level-sweep", seed)
    drawn = [data.draw(st.sampled_from([s for s in scenarios if s[0].startswith(kind)])) for kind in KINDS]
    check_against_the_reference(seed, drawn)
