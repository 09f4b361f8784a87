"""Host-speed probe: a fixed pure-Python job timed between simulation runs.

A shared host's speed drifts by tens of percent over seconds to minutes,
alike for every Python program on it.  The probe is a small interpreter
loop that does what a simulator's inner loop does: dict dispatch,
attribute reads and writes, a short-lived object per step kept in a small
in-flight window, and dict-backed memory traffic.  It shares no code with
the simulator, so a change to the simulator cannot change the probe's
time.  Timing it next to the simulation runs gives the host's speed at
that moment; scaling a measured time by it converts host seconds into
*reference seconds*, the seconds the same work would take on a host that
runs the probe in :data:`REFERENCE_SECONDS`.

The host's slow spells come and go faster than one run, so a run's speed
is the *mean* probe time over it: the mean follows the share of time spent
slow, where a median would flip between the fast and slow levels.
"""

from __future__ import annotations

import time

#: Typical probe time on a shared 2-vCPU x86-64 VM under CPython 3.11: the
#: reference host whose seconds the benchmark reports.
REFERENCE_SECONDS = 0.018
#: Instructions the probe's interpreter retires per probe.
PROBE_STEPS = 18000
MEMORY_WORDS = 2048
WINDOW = 8


class _Token:
    def __init__(self, op, operands, pc):
        self.op = op
        self.operands = operands
        self.pc = pc
        self.retired = False


class _Slot:
    def __init__(self, value):
        self.value = value
        self.reads = 0


class _Interpreter:
    """A register machine running a fixed loop of load/add/mul/store/branch."""

    def __init__(self):
        self.registers = [0] * 16
        self.memory = {address * 4: _Slot(address * 7) for address in range(MEMORY_WORDS)}
        self.pc = 0
        self.window = []
        self.dispatch = {
            "load": self.load,
            "add": self.add,
            "mul": self.mul,
            "store": self.store,
            "branch": self.branch,
        }
        self.program = [
            ("load", 1, 2, 0),
            ("add", 2, 2, 1),
            ("mul", 3, 1, 2),
            ("store", 3, 2, 5),
            ("add", 4, 4, 3),
            ("load", 5, 4, 11),
            ("add", 2, 2, 5),
            ("branch", 0, 2, 0),
        ]

    def address(self, register, offset):
        return ((self.registers[register] * 2654435761 + offset) % MEMORY_WORDS) * 4

    def load(self, rd, rs, offset):
        slot = self.memory[self.address(rs, offset)]
        slot.reads += 1
        self.registers[rd] = slot.value

    def add(self, rd, rs, rt):
        self.registers[rd] = (self.registers[rs] + self.registers[rt]) & 0xFFFFFFFF

    def mul(self, rd, rs, rt):
        self.registers[rd] = (self.registers[rs] * self.registers[rt]) & 0xFFFF

    def store(self, rs, rt, offset):
        self.memory[self.address(rt, offset)].value = self.registers[rs]

    def branch(self, _rd, rs, target):
        self.pc = target - 1 if self.registers[rs] & 1 else self.pc

    def run(self, steps):
        program, dispatch, window = self.program, self.dispatch, self.window
        for _ in range(steps):
            op, a, b, c = program[self.pc]
            token = _Token(op, (a, b, c), self.pc)
            window.append(token)
            if len(window) > WINDOW:
                window.pop(0).retired = True
            dispatch[op](*token.operands)
            self.pc = (self.pc + 1) % len(program)
        return self.registers[2]


_INTERPRETER = None


def probe():
    """Host seconds of one probe job."""
    global _INTERPRETER
    if _INTERPRETER is None:
        _INTERPRETER = _Interpreter()
    start = time.perf_counter()
    _INTERPRETER.run(PROBE_STEPS)
    return time.perf_counter() - start


def to_reference(host_seconds, probe_seconds):
    """``host_seconds`` measured while the probe took ``probe_seconds``, in reference seconds."""
    return host_seconds * REFERENCE_SECONDS / probe_seconds
