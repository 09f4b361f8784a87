"""Time each simulator build phase by wrapping the package's build functions.

While :func:`recording` is active, the functions a build goes through are
replaced by timing wrappers at the module attributes their callers look
up, and restored on exit.  Times are inclusive: ``core.generator``
contains ``core.scheduler``, ``codegen.cache`` and ``codegen.emit``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

PHASES = (
    "describe.elaborate",
    "core.scheduler",
    "codegen.emit",
    "codegen.cache",
    "core.generator",
    "load_program",
)


@dataclass
class PhaseLog:
    seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    cache_lookups: int = 0
    cache_hits: int = 0

    def add(self, phase, seconds):
        self.seconds[phase] += seconds

    def cache_hit_ratio(self):
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0


def _timed(log, phase, function):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            log.add(phase, time.perf_counter() - start)

    return wrapper


@contextlib.contextmanager
def recording():
    """Yield a :class:`PhaseLog` that fills while builds run inside the block."""
    # import_module, not ``import a.b as c``: ``repro.describe.elaborate``
    # is also the name of a function re-exported by ``repro.describe``.
    codegen_cache = importlib.import_module("repro.codegen.cache")
    codegen_engine = importlib.import_module("repro.codegen.engine")
    core_engine = importlib.import_module("repro.core.engine")
    describe_elaborate = importlib.import_module("repro.describe.elaborate")
    describe_substrate = importlib.import_module("repro.describe.substrate")
    Processor = describe_substrate.Processor

    log = PhaseLog()
    module_for = codegen_cache.ModuleCache.module_for

    def timed_module_for(cache, key, emit_source):
        start = time.perf_counter()
        try:
            module, status = module_for(cache, key, emit_source)
        finally:
            log.add("codegen.cache", time.perf_counter() - start)
        log.cache_lookups += 1
        log.cache_hits += status in ("memory", "disk")
        return module, status

    patches = [
        (describe_elaborate, "elaborate_net", "describe.elaborate"),
        (core_engine, "StaticSchedule", "core.scheduler"),
        (codegen_engine, "emit_module_source", "codegen.emit"),
        (describe_substrate, "generate_simulator", "core.generator"),
        (Processor, "load_program", "load_program"),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, phase in patches:
            setattr(owner, name, _timed(log, phase, getattr(owner, name)))
        codegen_cache.ModuleCache.module_for = timed_module_for
        yield log
    finally:
        codegen_cache.ModuleCache.module_for = module_for
        for owner, name, original in originals:
            setattr(owner, name, original)
