"""Count-based hot-path regression test for instruction tokens (no timing).

Operation-class symbols are plain token attributes, so a whole simulation
must never reach ``InstructionToken.__getattr__``: that fallback only
exists to report a genuine miss.  The test wraps it with a call counter,
runs ``crc`` on a single- and a dual-issue model under the reference and
the source-generated backends, and checks both the count and the golden
cycle counts (``tests/integration/test_golden_stats.py``).
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


@pytest.fixture
def getattr_calls(monkeypatch):
    calls = []
    original = InstructionToken.__getattr__

    def counting(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(InstructionToken, "__getattr__", counting)
    return calls


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
@pytest.mark.parametrize(("model", "kernel"), sorted(CYCLES))
def test_simulation_never_falls_back_to_getattr(getattr_calls, model, kernel, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(get_workload(kernel, scale=1).program)
    stats = processor.run(max_cycles=1_000_000)
    assert stats.finish_reason == "halt"
    assert stats.cycles == CYCLES[(model, kernel)]
    assert getattr_calls == []


def test_counter_sees_a_genuine_miss(getattr_calls):
    token = InstructionToken(instr=None, opclass="alu")
    with pytest.raises(AttributeError):
        token.s1
    assert getattr_calls == ["s1"]
