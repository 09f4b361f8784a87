"""Unit and lifecycle tests for the generated engine (repro.codegen).

Small hand-crafted nets check the generated backend's mechanisms one at a
time: backend selection through ``EngineOptions``/``generate_simulator``,
drop-in equivalence with the interpreted engine, reservation-token
pooling, and the EngineContext services (emit / flush / stop) under
generated execution.  The processor-level cases pin the reset lifecycle:
``reset()`` keeps the emitted step function and its bound pool, and a
re-run after a full or an interrupted run reproduces a fresh run exactly.

The registry-wide equivalence sweep (every model x every supported
kernel) lives in ``tests/integration/test_backend_equivalence.py``.
"""

import pytest

from repro.codegen import GeneratedEngine
from repro.core import (
    EngineOptions,
    InstructionToken,
    OperationClass,
    RCPN,
    SimulationEngine,
    generate_simulator,
)
from repro.core.engine import ENGINE_BACKENDS
from repro.processors import build_processor, processor_names
from repro.workloads import get_workload

FULL_ISA_MODELS = ("strongarm", "xscale")
#: Every registered model runs crc, so the reset lifecycle is pinned on all.
ALL_MODELS = processor_names()


def make_linear_net(num_tokens=3, stage_delay=1):
    """fetch -> A -> B -> end with one operation class 'op'."""
    net = RCPN("linear")
    net.add_stage("A", capacity=1, delay=stage_delay)
    net.add_stage("B", capacity=1, delay=stage_delay)

    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    net.add_place("end", sub)

    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < num_tokens

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        ctx.emit(InstructionToken(instr=state["emitted"], opclass="op"))
        if state["emitted"] >= num_tokens:
            ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action,
                       capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b)
    net.add_transition("bend", sub, source=place_b, target="op.end")
    return net, state


def make_reservation_net(cycles=5):
    """A generator producing a reservation each cycle and a consumer taking it."""
    net = RCPN("reservations")
    net.add_stage("R", capacity=1, delay=0)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    net.add_place("R", sub, name="op.R", entry=True)

    state = {"produced": 0, "consumed": 0}

    def produce_guard(_t, _ctx):
        return state["produced"] < cycles

    def produce_action(_t, _ctx):
        state["produced"] += 1

    def consume_action(_t, ctx):
        state["consumed"] += 1
        if state["consumed"] >= cycles:
            ctx.stop("done")

    net.add_transition("produce", gen, guard=produce_guard, action=produce_action,
                       produces=["op.R"])
    net.add_transition("consume", gen, action=consume_action, consumes=["op.R"])
    return net, state


# -- backend selection -----------------------------------------------------------


def test_engine_backends_are_interpreted_and_generated():
    assert ENGINE_BACKENDS == ("interpreted", "generated")
    assert "lanes" not in EngineOptions.__dataclass_fields__


@pytest.mark.parametrize(
    "module", ["repro.compiled", "repro.batched", "repro.processors.common"]
)
def test_retired_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        __import__(module)


def test_generate_simulator_backend_selection():
    net, _ = make_linear_net()
    engine, report = generate_simulator(net, EngineOptions(backend="generated"))
    assert isinstance(engine, GeneratedEngine)
    assert engine.backend == "generated"
    assert report.backend == "generated"
    assert report.compilation["transitions_compiled"] == 3
    assert report.compilation["places_compiled"] == len(report.place_order)

    net2, _ = make_linear_net()
    engine2, report2 = generate_simulator(net2)
    assert isinstance(engine2, SimulationEngine)
    assert not isinstance(engine2, GeneratedEngine)
    assert report2.backend == "interpreted"
    assert report2.compilation is None


@pytest.mark.parametrize("backend", ["jit", "compiled", "batched"])
def test_generate_simulator_rejects_unknown_backend(backend):
    net, _ = make_linear_net()
    with pytest.raises(ValueError, match="unknown engine backend") as excinfo:
        generate_simulator(net, EngineOptions(backend=backend))
    assert "interpreted, generated" in str(excinfo.value)


# -- drop-in equivalence on hand-crafted nets ------------------------------------


@pytest.mark.parametrize("stage_delay", [0, 1, 2])
def test_generated_matches_interpreted_on_linear_net(stage_delay):
    results = {}
    for backend in ENGINE_BACKENDS:
        net, _ = make_linear_net(num_tokens=5, stage_delay=stage_delay)
        engine, _ = generate_simulator(net, EngineOptions(backend=backend))
        stats = engine.run(max_cycles=200)
        results[backend] = (
            stats.cycles,
            stats.instructions,
            stats.stalls,
            dict(stats.transition_firings),
            stats.finish_reason,
        )
    assert results["generated"] == results["interpreted"]
    assert results["generated"][4] == "done"


def test_generated_step_and_context_services():
    net, state = make_linear_net(num_tokens=2)
    engine = GeneratedEngine(net)
    engine.step()
    assert engine.cycle == 1
    assert state["emitted"] >= 1
    # The engine context exposes the same services as the interpreted one.
    assert engine.ctx.cycle == 1
    engine.run(max_cycles=100)
    assert engine.stats.instructions == 2


def test_generated_flush_stage_squashes_tokens():
    net, _ = make_linear_net(num_tokens=3)
    engine = GeneratedEngine(net)
    engine.step()  # fetch deposits the first token into op.A
    place_a = net.place("op.A")
    assert place_a.occupancy() == 1
    squashed = engine.flush_stage("A")
    assert squashed == 1
    assert place_a.occupancy() == 0
    assert engine.stats.squashed == 1


# -- reservation-token pooling ---------------------------------------------------


def test_reservation_tokens_are_pooled_and_reused():
    net, state = make_reservation_net(cycles=6)
    engine = GeneratedEngine(net)
    engine.step()
    # The produced reservation was consumed in the same cycle and recycled.
    assert len(engine._reservation_pool) == 1
    recycled = engine._reservation_pool[0]
    engine.step()
    # The next production reused the pooled token object rather than
    # allocating a fresh one.
    assert len(engine._reservation_pool) == 1
    assert engine._reservation_pool[0] is recycled
    engine.run(max_cycles=50)
    assert state["produced"] == 6
    assert state["consumed"] == 6
    assert engine.stats.finish_reason == "done"


def test_reservation_pool_matches_interpreted_behaviour():
    results = {}
    for backend in ENGINE_BACKENDS:
        net, _ = make_reservation_net(cycles=4)
        engine, _ = generate_simulator(net, EngineOptions(backend=backend))
        stats = engine.run(max_cycles=50)
        results[backend] = (stats.cycles, dict(stats.transition_firings), stats.finish_reason)
    assert results["generated"] == results["interpreted"]


# -- reset reuse -----------------------------------------------------------------


def test_reset_keeps_step_function_and_pool_identity():
    net, state = make_linear_net(num_tokens=3)
    engine = GeneratedEngine(net)
    first = engine.run(max_cycles=100)
    step_fn = engine._step_fn
    pool = engine._reservation_pool
    assert first.instructions == 3

    state["emitted"] = 0
    engine.reset()
    assert engine._step_fn is step_fn
    assert engine._reservation_pool is pool
    second = engine.run(max_cycles=100)
    assert second.cycles == first.cycles
    assert second.instructions == first.instructions
    assert dict(second.transition_firings) == dict(first.transition_firings)


def full_reset(processor, workload):
    """Reset all dynamic state (engine, caches, predictors) and reload."""
    processor.reset()
    processor.load_program(workload.program)


def observable_state(processor, stats):
    """Everything a backend may not change: statistics + architectural state."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "retired_by_class": dict(stats.retired_by_class),
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "registers": [processor.register(index) for index in range(16)],
        "flags": processor.flags(),
        "output": list(processor.core.output),
    }


@pytest.mark.parametrize("model", ALL_MODELS)
def test_processor_reset_reuses_the_emitted_step(model):
    workload = get_workload("crc", scale=1)

    processor = build_processor(model, backend="generated")
    processor.load_program(workload.program)
    first_state = observable_state(processor, processor.run())
    step_fn = processor.engine._step_fn
    pool = processor.engine._reservation_pool

    full_reset(processor, workload)
    second_state = observable_state(processor, processor.run())

    assert second_state == first_state
    # reset() must keep the bound step function (no re-emission or rebind)
    # and the exact pool object the emitted fire bodies captured.
    assert processor.engine._step_fn is step_fn
    assert processor.engine._reservation_pool is pool


@pytest.mark.parametrize("model", ALL_MODELS)
def test_reset_after_interrupted_run_matches_a_fresh_interpreted_run(model):
    """Resetting mid-run must leave no stale in-flight state behind."""
    workload = get_workload("crc", scale=1)

    processor = build_processor(model, backend="generated")
    processor.load_program(workload.program)
    partial = processor.run(max_cycles=50)
    assert partial.finish_reason == "max_cycles"

    full_reset(processor, workload)
    stats = processor.run()

    reference = build_processor(model, backend="interpreted")
    reference.load_program(workload.program)
    expected = reference.run()

    assert observable_state(processor, stats) == observable_state(reference, expected)


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
@pytest.mark.parametrize("kernel", ["crc", "adpcm"])
@pytest.mark.parametrize("model", FULL_ISA_MODELS)
def test_processor_reset_is_run_to_run_reproducible(model, kernel, backend):
    """``Processor.reset()`` must make re-runs bit-reproducible on every backend.

    One processor object, three runs of the same workload with a full reset
    in between: statistics, architectural state and SWI output must match
    exactly (the caches, predictors, engine state and the core's output all
    return to their initial state).
    """
    workload = get_workload(kernel, scale=1)
    processor = build_processor(model, backend=backend)

    states = []
    for _ in range(3):
        full_reset(processor, workload)
        stats = processor.run()
        states.append(observable_state(processor, stats))
        assert stats.finish_reason == "halt"

    assert states[1] == states[0]
    assert states[2] == states[0]
