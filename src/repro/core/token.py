"""Tokens of the RCPN model.

The paper distinguishes two token groups (Section 3):

* *reservation tokens* carry no data; their presence marks a pipeline stage
  as occupied (used, e.g., to stall the fetch unit while a branch resolves);
* *instruction tokens* carry the decoded instruction and its operands; one
  instruction token represents one dynamic instruction flowing through the
  pipeline.
"""

from __future__ import annotations

import itertools

from repro.core.exceptions import ModelError
from repro.core.operands import RegRef

_sequence = itertools.count()


class Token:
    """Base token: a delay-carrying object residing in a place."""

    __slots__ = ("ready_cycle", "delay_override", "place", "seq")

    is_instruction = False

    def __init__(self):
        self.ready_cycle = 0
        self.delay_override = None
        self.place = None
        self.seq = next(_sequence)

    @property
    def delay(self):
        """Pending token-delay override (paper: 'delay of a token')."""
        return self.delay_override

    @delay.setter
    def delay(self, value):
        self.delay_override = value

    def __repr__(self):
        return "<%s #%d in %s>" % (
            type(self).__name__,
            self.seq,
            self.place.name if self.place is not None else "limbo",
        )


class ReservationToken(Token):
    """A dataless token marking its place's pipeline stage as occupied.

    ``producer_seq`` records the sequence number of the instruction token
    whose transition deposited the reservation (``None`` for generator
    transitions).  It is the provenance the program-order squash
    (:meth:`~repro.core.engine.SimulationEngine.flush_younger`) needs: when
    a deep redirect squashes a wrong-path branch that already parked a
    fetch-stall reservation, the reservation must be withdrawn with it or
    the fetch guard it disables would block forever.
    """

    __slots__ = ("tag", "producer_seq")

    def __init__(self, tag=None, producer_seq=None):
        super().__init__()
        self.tag = tag
        self.producer_seq = producer_seq


class InstructionToken(Token):
    """A decoded dynamic instruction and its bound operands.

    The symbols of the instruction's operation class (bound to
    :class:`~repro.core.operands.RegRef`,
    :class:`~repro.core.operands.Const` or plain Python values) are plain
    instance attributes, set once when the token is created, so model code
    reads them exactly like the paper's examples — ``t.s1.can_read()``,
    ``t.d.reserve_write()`` — at the cost of an ordinary attribute lookup.
    The class defines no ``__getattr__``, so those lookups stay eligible
    for the interpreter's attribute-access specialisation; a name that is
    neither token state nor a symbol raises the plain ``AttributeError``.
    Tokens are normally created by a
    :class:`~repro.core.decoder.TokenLayout`; passing ``operands`` here
    binds the given objects as they are.

    The per-instruction flags the shared semantics read on the hot path are
    attributes too, with class-level defaults: ``executed`` (the condition
    passed at issue), ``redirect`` (a PC value to redirect fetch to at
    writeback, ``None`` for none), ``predicted_taken`` (the BTB redirected
    fetch after this instruction) and ``issued`` (the multi-issue arbiter
    let it issue).  Everything else a transition wants to carry between
    stages goes into the ``annotations`` dictionary.
    """

    is_instruction = True

    executed = False
    redirect = None
    predicted_taken = False
    issued = False
    squashed = False
    _register_refs = ()

    def __init__(self, instr, opclass, pc=0, operands=None):
        super().__init__()
        self.instr = instr
        self.opclass = opclass
        self.pc = pc
        self.annotations = {}
        if operands:
            check_symbols(opclass, operands)
            self.__dict__.update(operands)
            self._register_refs = _flatten_register_operands(operands.values())

    @property
    def type(self):
        """The operation class name (paper notation: ``t.type``)."""
        return self.opclass

    @property
    def operands(self):
        """The bound symbols as a fresh ``{symbol: operand}`` dictionary."""
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in RESERVED_ATTRIBUTES
        }

    def symbol(self, name):
        """Explicit symbol lookup; raises ``KeyError`` for a non-symbol."""
        if name in RESERVED_ATTRIBUTES:
            raise KeyError(name)
        return self.__dict__[name]

    def register_operands(self):
        """All RegRefs that take part in the register-hazard protocol.

        Block-transfer register lists are flattened, so squash/release
        handling covers every RegRef.  The tuple is computed once, when the
        token is created, in the order the binder bound the symbols.
        """
        return self._register_refs

    def release_reservations(self):
        """Drop any write reservations held by this token's operands.

        Called when a token is squashed (wrong-path flush) so that younger
        correct-path instructions are not blocked forever.
        """
        for operand in self._register_refs:
            operand.release()

    def __repr__(self):
        where = self.place.name if self.place is not None else "limbo"
        return "<InstructionToken #%d %s pc=%#x in %s>" % (self.seq, self.opclass, self.pc, where)


#: Names a binder may not use for a symbol: every attribute of
#: :class:`InstructionToken` (class attributes, methods and properties, the
#: :class:`Token` slots, and the attributes ``__init__`` sets).  A symbol of
#: one of these names would silently overwrite token state.
RESERVED_ATTRIBUTES = frozenset(dir(InstructionToken)) | frozenset(
    ("instr", "opclass", "pc", "annotations")
)


def check_symbols(opclass, symbols):
    """Raise :class:`ModelError` if a symbol name collides with token state."""
    clashes = RESERVED_ATTRIBUTES.intersection(symbols)
    if clashes:
        raise ModelError(
            "operation class %r binds symbol %r, which collides with an "
            "InstructionToken attribute" % (opclass, min(clashes))
        )


def _flatten_register_operands(operands):
    """The RegRefs among ``operands``, with RegRef lists/tuples flattened in place."""
    found = []
    for operand in operands:
        if isinstance(operand, RegRef):
            found.append(operand)
        elif isinstance(operand, (list, tuple)):
            found.extend(item for item in operand if isinstance(item, RegRef))
    return tuple(found)
