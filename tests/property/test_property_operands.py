"""Property tests for the fused operand checks ``ready(forward)``/``latch(forward)``.

The reference below is the paper-level composition the fused checks
replace: ``can_read()``, else for each forward state ``can_read(state)``
together with the pending writer's ``has_value``, then the matching
``read()`` or ``read(state)``.  Every pending-writer situation — no
writer, the operand itself, another reference with or without a value,
with no token, with a token in no place, or in a place matched by its
name, by its stage's name or by neither — must give the same readiness,
the same latched value and the same exception on a not-ready latch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Const,
    HazardProtocolError,
    InstructionToken,
    PipelineStage,
    Place,
    RegRef,
    RegisterFile,
)

ARCHITECTURAL = 11
FORWARDED = 22
NAMES = ("X1", "X2", "M", "WB")


def reference_ready(operand, forward_states):
    if operand.can_read():
        return True
    for state in forward_states:
        if operand.can_read(state):
            writer = operand.register.writer
            if writer is not None and writer.has_value:
                return True
    return False


def reference_latch(operand, forward_states):
    if operand.can_read():
        return operand.read()
    for state in forward_states:
        if operand.can_read(state):
            writer = operand.register.writer
            if writer is not None and writer.has_value:
                return operand.read(state)
    raise RuntimeError("operand %r is not ready" % (operand,))


@st.composite
def scenarios(draw):
    """A reader RegRef, its pending writer (if any) and a forward-state set."""
    regfile = RegisterFile("gpr", 2)
    regfile.data[1] = ARCHITECTURAL
    reader = RegRef(regfile.register(1))
    writer_kind = draw(st.sampled_from(("none", "self", "other")))
    place_name = draw(st.sampled_from(NAMES))
    stage_name = draw(st.sampled_from(NAMES))
    match = draw(st.sampled_from(("place", "stage", "neither")))
    extra = draw(st.frozensets(st.sampled_from(NAMES), max_size=2))
    if match == "place":
        forward = extra | {place_name}
    elif match == "stage":
        forward = (extra | {stage_name}) - {place_name}
    else:
        forward = extra - {place_name, stage_name}
    if writer_kind == "self":
        reader.reserve_write()
    elif writer_kind == "other":
        writer = RegRef(regfile.register(1))
        writer.reserve_write()
        if draw(st.booleans()):
            writer.value = FORWARDED
        residence = draw(st.sampled_from(("placed", "no place", "no token")))
        if residence != "no token":
            token = InstructionToken(instr=None, opclass="alu", operands={"d": writer})
            writer.token = token
            if residence == "placed":
                Place(place_name, PipelineStage(stage_name, capacity=4)).deposit(token, 0)
    # The reference iterates states in order; the fused check takes the set.
    return reader, tuple(sorted(forward)), frozenset(forward)


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_fused_ready_and_latch_match_the_paper_composition(scenario):
    reader, forward_states, forward = scenario
    expected_ready = reference_ready(reader, forward_states)
    assert reader.ready(forward) is expected_ready
    if expected_ready:
        expected = reference_latch(reader, forward_states)
        latched_by_reference = reader.internal_value
        reader._value = None
        assert reader.latch(forward) == expected
        assert reader.internal_value == latched_by_reference
        assert expected in (ARCHITECTURAL, FORWARDED)
    else:
        with pytest.raises(RuntimeError):
            reference_latch(reader, forward_states)
        with pytest.raises(RuntimeError):
            reader.latch(forward)
        # A not-ready latch leaves the operand untouched, and the paper's
        # unguarded read() still reports the protocol violation.
        assert reader.internal_value is None
        with pytest.raises(HazardProtocolError):
            reader.read()


@given(
    st.integers(-(2**31), 2**32 - 1),
    st.frozensets(st.sampled_from(NAMES), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_const_is_always_ready_and_latches_its_value(value, forward):
    operand = Const(value)
    forward_states = tuple(sorted(forward))
    assert operand.ready(forward) is reference_ready(operand, forward_states) is True
    assert operand.latch(forward) == reference_latch(operand, forward_states) == value
