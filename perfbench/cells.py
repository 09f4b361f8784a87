"""The benchmark's workloads and the checked simulation runs they are made of.

A workload is a set of *cells*: one (model, program) pair each, all on one
engine backend.  A *round* runs every cell once, each paired with a run
of the SimpleScalar-style baseline on the same program, so host speed
drifts alike for both.  Every run is checked against the functional
simulator, against earlier runs of the same cell and against other
backends' runs of it; a failed check is counted, never raised.

Only the package's public surface is used: ``build_processor``,
``Processor.load_program``/``run``, ``run_simplescalar``,
``FunctionalSimulator`` and ``repro.workloads``.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import hostspeed
from repro.analysis import run_simplescalar
from repro.baseline.functional import FunctionalSimulator
from repro.processors.registry import build_processor
from repro.workloads import SyntheticWorkloadGenerator, Workload, get_workload, workload_names

WORKLOAD_NAMES = ("fig10-generated", "fig10-interpreted", "stall-heavy")

#: The paper's Figure 10 pair: single-issue StrongARM, dual-issue XScale.
FIG10_MODELS = ("strongarm", "xscale-ds")
#: Small or L2-backed caches: many cycles fire nothing, dirty lines write back.
STALL_MODELS = ("strongarm-c512", "strongarm-l2", "xscale-l2")
#: S-box loads (high dcache miss rate on c512) and byte stores.
STALL_KERNELS = ("blowfish", "compress")
#: Multiply latency, loads, stores and deep (writeback-time) redirects.
SYNTHETIC_MIX = {"mul": 3, "load": 3, "store": 2, "jump": 1}
SYNTHETIC_PROGRAMS = 2
SYNTHETIC_BODY = 80
SYNTHETIC_ITERATIONS = 40

CACHE_LEVELS = ("icache", "dcache", "l2")


@dataclass(frozen=True)
class Plan:
    """What one workload runs."""

    name: str
    backend: str
    models: tuple
    programs: tuple  # repro.workloads.Workload, each with .name and .program
    #: The other backend whose simulated counts every cell must reproduce.
    cross_backend: str = None

    def cells(self):
        """``(model, program)`` pairs, grouped by program."""
        return [(model, program) for program in self.programs for model in self.models]


def synthetic_programs(seed, count):
    """``count`` mul/load/store/jump programs drawn from ``seed``."""
    rng = random.Random(seed)
    programs = []
    for _ in range(count):
        program_seed = rng.randrange(1, 2**31)
        generator = SyntheticWorkloadGenerator(
            mix=SYNTHETIC_MIX,
            body_length=SYNTHETIC_BODY,
            iterations=SYNTHETIC_ITERATIONS,
            seed=program_seed,
        )
        source = generator.source()
        programs.append(
            Workload(
                name="synthetic-%d" % program_seed,
                suite="synthetic",
                scale=1,
                source=source,
                program=generator.program(),
            )
        )
    return tuple(programs)


def make_plan(name, seed, smoke=False):
    """The :class:`Plan` of workload ``name``; ``smoke`` shrinks it for self-tests."""
    if name in ("fig10-generated", "fig10-interpreted"):
        backend = name.split("-", 1)[1]
        kernels = ("crc",) if smoke else workload_names()
        return Plan(
            name=name,
            backend=backend,
            models=FIG10_MODELS,
            programs=tuple(get_workload(kernel) for kernel in kernels),
            cross_backend="interpreted" if backend == "generated" else "generated",
        )
    if name == "stall-heavy":
        kernels = STALL_KERNELS[1:] if smoke else STALL_KERNELS
        count = 1 if smoke else SYNTHETIC_PROGRAMS
        return Plan(
            name=name,
            backend="generated",
            models=STALL_MODELS,
            programs=tuple(get_workload(kernel) for kernel in kernels)
            + synthetic_programs(seed, count),
        )
    raise ValueError("unknown workload %r; expected one of %s" % (name, ", ".join(WORKLOAD_NAMES)))


# -- single runs -------------------------------------------------------------
def functional_reference(program):
    """``(r0, retired instructions)`` of ``program`` on the functional simulator."""
    simulator = FunctionalSimulator()
    simulator.load_program(program.program)
    stats = simulator.run(max_instructions=50_000_000)
    if not stats.halted:
        raise RuntimeError("functional reference of %s did not halt" % program.name)
    return simulator.register(0), stats.instructions


def build(model, backend, program):
    """A fresh simulator of ``model`` with ``program`` loaded."""
    processor = build_processor(model, backend=backend)
    processor.load_program(program.program)
    return processor


@dataclass
class RunRecord:
    """One checked simulation run."""

    kind: str  # "rcpn" or "simplescalar"
    model: str
    program: str
    ok: bool = False
    cycles: int = 0
    instructions: int = 0
    stalls: int = 0
    squashed: int = 0
    seconds: float = 0.0
    #: level -> (accesses, misses, writebacks), RCPN runs only.
    cache: dict = field(default_factory=dict)
    #: InstructionDecoder.cache_info(), RCPN runs only.
    decoder: dict = field(default_factory=dict)

    def signature(self):
        """Every simulated count of the run; must repeat exactly."""
        return (
            self.cycles,
            self.instructions,
            self.stalls,
            self.squashed,
            tuple(sorted(self.cache.items())),
        )


class Checker:
    """Applies the per-run correctness rules and counts the outcomes.

    A run passes when it halts, its ``r0`` and retired-instruction count
    equal the functional simulator's, its simulated counts equal every
    earlier run of the same cell, and they equal the counts of any other
    backend that ran the same model and program.
    """

    def __init__(self, references):
        self.references = references  # program name -> (r0, instructions)
        self.seen = {}  # (kind, model, program) -> {backend: first signature}
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def fail(self, message):
        self.failures.append(message)
        print("perfbench: FAILED %s" % message, file=sys.stderr)

    def check(self, record, backend, halted, r0):
        self.attempted += 1
        label = "%s/%s/%s" % (record.model, backend, record.program)
        want_r0, want_instructions = self.references[record.program]
        problems = []
        if not halted:
            problems.append("did not halt")
        if r0 != want_r0:
            problems.append("r0=%d, functional r0=%d" % (r0, want_r0))
        if record.instructions != want_instructions:
            problems.append(
                "retired %d, functional retired %d" % (record.instructions, want_instructions)
            )
        signature = record.signature()
        by_backend = self.seen.setdefault((record.kind, record.model, record.program), {})
        first = by_backend.setdefault(backend, signature)
        if first != signature:
            problems.append("counts %r differ from an earlier run %r" % (signature, first))
        for other_backend, other in by_backend.items():
            if other_backend != backend and other != signature:
                problems.append("counts %r differ from %s's %r" % (signature, other_backend, other))
        if problems:
            self.fail("%s: %s" % (label, "; ".join(problems)))
        record.ok = not problems

    def crash(self, kind, model, backend, program):
        self.attempted += 1
        self.fail(
            "%s %s/%s/%s raised:\n%s" % (kind, model, backend, program.name, traceback.format_exc())
        )


def run_rcpn(model, backend, program, checker, profiler=None):
    """Build, run and check one cell; the record's ``seconds`` covers ``run()`` only.

    ``profiler`` (a ``cProfile.Profile`` or ``None``) is enabled around the
    calls into the simulator package only.
    """
    record = RunRecord("rcpn", model, program.name)
    try:
        with profiler or contextlib.nullcontext():
            processor = build(model, backend, program)
            start = time.perf_counter()
            stats = processor.run()
            record.seconds = time.perf_counter() - start
            cache = processor.cache_statistics()
            decoder = processor.decoder.cache_info()
        record.cycles = stats.cycles
        record.instructions = stats.instructions
        record.stalls = stats.stalls
        record.squashed = stats.squashed
        record.cache = {
            level: (cache[level].accesses, cache[level].misses, cache[level].writebacks)
            for level in CACHE_LEVELS
            if level in cache
        }
        record.decoder = decoder
        checker.check(record, backend, stats.finish_reason == "halt", processor.register(0))
    except Exception:
        checker.crash("rcpn", model, backend, program)
    return record


def run_baseline(program, checker, profiler=None):
    """Run and check the SimpleScalar-style baseline on ``program``."""
    record = RunRecord("simplescalar", "simplescalar-arm", program.name)
    try:
        with profiler or contextlib.nullcontext():
            result = run_simplescalar(program)
        record.cycles = result.cycles
        record.instructions = result.instructions
        record.seconds = result.wall_seconds
        checker.check(record, "baseline", result.finish_reason == "halt", result.final_r0)
    except Exception:
        checker.crash("simplescalar", "simplescalar-arm", "baseline", program)
    return record


def run_group(plan, program, checker, baseline_first=True, profiler=None, probes=None):
    """Every model of ``plan`` on ``program``, each paired with a baseline run.

    The baseline runs just before (``baseline_first``) or just after each
    model's run, so both sides of the ratio see the same host speed.  When
    ``probes`` is a list, a host-speed probe runs before every run, and
    its seconds are appended to it.
    """
    rcpn, baseline = [], []
    for model in plan.models:
        if baseline_first:
            _probe(probes)
            baseline.append(run_baseline(program, checker, profiler))
        _probe(probes)
        rcpn.append(run_rcpn(model, plan.backend, program, checker, profiler))
        if not baseline_first:
            _probe(probes)
            baseline.append(run_baseline(program, checker, profiler))
    return rcpn, baseline


def _probe(probes):
    if probes is not None:
        probes.append(hostspeed.probe())


@dataclass
class Round:
    """Every cell once, each with its paired baseline run."""

    rcpn: list
    baseline: list
    wall_seconds: float


def run_round(plan, checker, profiler=None):
    """Run every cell of ``plan`` once, each with its paired baseline run."""
    rcpn, baseline = [], []
    start = time.perf_counter()
    for program in plan.programs:
        group, base = run_group(plan, program, checker, profiler=profiler)
        rcpn.extend(group)
        baseline.extend(base)
    return Round(rcpn, baseline, time.perf_counter() - start)


@dataclass
class Throughput:
    """Throughput from the median ``run()`` seconds of every cell.

    ``kcps`` and ``kips`` are per host second.  ``probe_seconds`` is the
    mean of the host-speed probes run before the timed runs; the ``*_ref``
    properties are per reference second instead.
    """

    kcps: float
    kips: float
    baseline_kcps: float
    probe_seconds: float
    passes: int
    samples: int

    @property
    def ratio(self):
        return self.kcps / self.baseline_kcps if self.baseline_kcps else 0.0

    @property
    def kcps_ref(self):
        return self.kcps / hostspeed.to_reference(1.0, self.probe_seconds)

    @property
    def kips_ref(self):
        return self.kips / hostspeed.to_reference(1.0, self.probe_seconds)


def median_rate(records, attribute):
    """Sum over cells of ``attribute`` / sum over cells of median seconds."""
    by_cell = {}
    for record in records:
        if record.ok:
            by_cell.setdefault((record.model, record.program), []).append(record)
    amount = sum(getattr(runs[0], attribute) for runs in by_cell.values())
    seconds = sum(statistics.median(run.seconds for run in runs) for runs in by_cell.values())
    return amount / seconds / 1000.0 if seconds > 0 else 0.0


def measure(plan, checker, seconds):
    """Repeat the program groups of ``plan`` for ``seconds`` and summarise.

    Groups run in passes over the programs; each paired baseline run
    comes first on even passes and last on odd ones, and a host-speed
    probe runs before every run.  Measuring stops at the first
    group boundary after ``seconds`` once one full pass is done, so every
    cell has at least one sample.
    """
    rcpn, baseline, probes = [], [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for program in plan.programs:
            group, base = run_group(
                plan, program, checker, baseline_first=passes % 2 == 0, probes=probes
            )
            rcpn.extend(group)
            baseline.extend(base)
            if passes and time.perf_counter() - start >= seconds:
                break
        passes += 1
    return Throughput(
        kcps=median_rate(rcpn, "cycles"),
        kips=median_rate(rcpn, "instructions"),
        baseline_kcps=median_rate(baseline, "cycles"),
        probe_seconds=statistics.fmean(probes),
        passes=passes,
        samples=len(rcpn) + len(baseline),
    )


def warm_up(plan, checker):
    """Untimed runs of the shortest program on every model and the baseline.

    The first simulation in a process runs measurably slower than later
    ones; these runs absorb that before :func:`measure` starts timing.
    """
    program = min(plan.programs, key=lambda p: checker.references[p.name][1])
    run_group(plan, program, checker)


def cross_check(plan, checker, seed, share=4):
    """Run every ``share``-th cell (offset by ``seed``) on the other backend.

    :class:`Checker` compares its counts with the cell's runs on the
    workload's own backend; ``share`` consecutive seeds cover every cell.
    """
    for index, (model, program) in enumerate(plan.cells()):
        if index % share == seed % share:
            run_rcpn(model, plan.cross_backend, program, checker)


def build_all(plan):
    """Host seconds to build every simulator of ``plan`` (the set-up cost)."""
    total = 0.0
    for model, program in plan.cells():
        start = time.perf_counter()
        build(model, plan.backend, program)
        total += time.perf_counter() - start
    return total
