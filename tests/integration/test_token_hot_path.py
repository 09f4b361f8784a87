"""Hot-path regression test for instruction tokens (no timing).

Operation-class symbols are plain token attributes and
``InstructionToken`` defines no ``__getattr__`` fallback, so every
``t.symbol`` read on the hot path is an ordinary, specialisable attribute
lookup.  The test checks that the fallback stays absent, that a genuine
miss still raises ``AttributeError`` naming the attribute, and that
``crc`` on a single- and a dual-issue model under the reference and the
source-generated backends keeps its golden cycle counts
(``tests/integration/test_golden_stats.py``).
"""

import pytest

from repro.core import InstructionToken
from repro.processors import build_processor
from repro.workloads import get_workload

#: (model, kernel) -> cycles, from the golden-statistics table.
CYCLES = {
    ("strongarm", "crc"): 7403,
    ("xscale-ds", "crc"): 6012,
}


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
@pytest.mark.parametrize(("model", "kernel"), sorted(CYCLES))
def test_simulation_never_falls_back_to_getattr(model, kernel, backend):
    assert "__getattr__" not in vars(InstructionToken)
    processor = build_processor(model, backend=backend)
    processor.load_program(get_workload(kernel, scale=1).program)
    stats = processor.run(max_cycles=1_000_000)
    assert stats.finish_reason == "halt"
    assert stats.cycles == CYCLES[(model, kernel)]


def test_a_genuine_miss_raises_attribute_error():
    token = InstructionToken(instr=None, opclass="alu")
    with pytest.raises(AttributeError, match="s1"):
        token.s1
    with pytest.raises(KeyError, match="s1"):
        token.symbol("s1")
