"""The RCPN register-access model used to capture data hazards.

The paper (Section 3.1) models registers at three levels:

* :class:`RegisterFile` — the actual data storage plus, per register, a
  pointer to the instruction (RegRef) that has reserved the register for
  writing;
* :class:`Register` — an index into a register file; several ``Register``
  objects may point at the same storage to model overlapping registers
  (register banks, windows);
* :class:`RegRef` — a per-dynamic-instruction reference with an internal
  value, standing in for the pipeline latch that carries the operand in real
  hardware.

Data hazards are expressed by pairing the Boolean interfaces
(``can_read``, ``can_read(state)``, ``can_write``) in arc guards with the
corresponding effectful interfaces (``read``, ``read(state)``,
``reserve_write``, ``writeback``) in transitions.  :class:`Const` provides
the same interface for immediate operands so operation-class code handles
registers and constants uniformly.

A bypass network that forwards from a *set* of pipeline states composes
those interfaces the same way for every operand: ``can_read()``, else for
each forward state ``can_read(state)`` and the writer's ``has_value``, and
the matching ``read()``/``read(state)``.  :meth:`RegRef.ready` and
:meth:`RegRef.latch` are that composition fused into one call each; a
forward state matches when it names the place the writer's instruction
resides in or that place's pipeline stage.
"""

from __future__ import annotations

from repro.core.exceptions import HazardProtocolError


class Operand:
    """Common interface of every operand bound to an operation-class symbol."""

    def can_read(self, state=None):
        raise NotImplementedError

    def read(self, state=None):
        raise NotImplementedError

    def ready(self, forward):
        raise NotImplementedError

    def latch(self, forward):
        raise NotImplementedError

    def can_write(self):
        raise NotImplementedError

    def reserve_write(self):
        raise NotImplementedError

    def writeback(self):
        raise NotImplementedError

    def release(self):
        """Drop any reservation this operand holds (squash support)."""

    @property
    def value(self):
        raise NotImplementedError


class RegisterFile:
    """Backing storage for a set of registers plus their writer pointers."""

    def __init__(self, name, size, initial=0):
        if size <= 0:
            raise ValueError("register file size must be positive")
        self.name = name
        self.size = size
        self.data = [initial] * size
        self.writers = [None] * size

    def reset(self, initial=0):
        self.data = [initial] * self.size
        self.clear_writers()

    def clear_writers(self):
        """Drop every pending write reservation (the list is cleared in place)."""
        self.writers[:] = [None] * self.size

    def register(self, index, name=None):
        """Create a :class:`Register` view of slot ``index``."""
        return Register(self, index, name=name)

    def registers(self):
        """Create one Register view per slot."""
        return [self.register(i) for i in range(self.size)]

    def __repr__(self):
        return "<RegisterFile %s size=%d>" % (self.name, self.size)


class Register:
    """A named view of one storage slot of a register file.

    Two ``Register`` objects with the same ``(register_file, index)`` pair
    overlap: writing through one is observed through the other, and a write
    reservation taken through one blocks reads through the other.  This is
    the paper's mechanism for overlapping register banks.
    """

    __slots__ = ("regfile", "index", "name")

    def __init__(self, regfile, index, name=None):
        if not 0 <= index < regfile.size:
            raise ValueError(
                "register index %d outside register file %r of size %d"
                % (index, regfile.name, regfile.size)
            )
        self.regfile = regfile
        self.index = index
        self.name = name or "%s[%d]" % (regfile.name, index)

    @property
    def value(self):
        return self.regfile.data[self.index]

    @value.setter
    def value(self, new_value):
        self.regfile.data[self.index] = new_value

    @property
    def writer(self):
        """The RegRef currently registered as the pending writer, if any."""
        return self.regfile.writers[self.index]

    @writer.setter
    def writer(self, regref):
        self.regfile.writers[self.index] = regref

    def overlaps(self, other):
        return self.regfile is other.regfile and self.index == other.index

    def __repr__(self):
        return "<Register %s>" % self.name


class RegRef(Operand):
    """A per-instruction reference to a register (paper's "RegRef").

    The reference carries an internal value (the pipeline latch holding the
    operand), a pointer back to the token that owns it and implements the
    full hazard-protocol interface.
    """

    __slots__ = ("register", "token", "_value", "_has_value", "_reserved")

    def __init__(self, register, token=None):
        self.register = register
        self.token = token
        self._value = None
        self._has_value = False
        self._reserved = False

    # -- read side -------------------------------------------------------
    def can_read(self, state=None):
        """Whether the register value (or a forwarded value) is available.

        Without ``state``: true if nobody (other than this RegRef itself)
        holds a pending write reservation.  With ``state``: true if the
        pending writer's instruction currently resides in the pipeline state
        (place) named ``state`` — the forwarding/bypass condition.
        """
        register = self.register
        writer = register.regfile.writers[register.index]
        if state is None:
            return writer is None or writer is self
        if writer is None or writer is self:
            return False
        return _writer_in_state(writer, state)

    def read(self, state=None):
        """Latch the operand value into this RegRef's internal storage.

        Without ``state`` the architectural register value is read; with
        ``state`` the pending writer's internal value is forwarded.  Returns
        the value read.

        Reading only latches: it deliberately does *not* mark the RegRef as
        having produced a value (:attr:`has_value`).  A flag-setting ALU
        instruction reads the previous flags through the same RegRef it
        will later write; were the latch to count as production, a
        same-cycle younger reader (possible under multi-issue) would see
        ``writer.has_value`` and forward the *stale* operand as if it were
        the writer's result.  Only the :attr:`value` setter — an actual
        result — makes the reference forwardable.
        """
        register = self.register
        regfile = register.regfile
        writer = regfile.writers[register.index]
        if state is None:
            if writer is not None and writer is not self:
                raise HazardProtocolError(
                    "read() of %s while a write is pending; guard the arc with can_read()"
                    % register.name
                )
            self._value = regfile.data[register.index]
        else:
            if writer is None or writer is self or not _writer_in_state(writer, state):
                raise HazardProtocolError(
                    "read(%r) of %s but its writer is not in that state; "
                    "guard the arc with can_read(%r)" % (state, register.name, state)
                )
            self._value = writer._value
        return self._value

    # -- fused read side (forwarding from a set of states) ---------------
    def ready(self, forward):
        """Whether :meth:`latch` can obtain the operand now.

        True when ``can_read()`` holds, or when the pending writer has
        produced its value and its instruction resides in a place whose
        name, or whose stage's name, is in the set ``forward``.
        """
        register = self.register
        writer = register.regfile.writers[register.index]
        if writer is None or writer is self:
            return True
        if not writer._has_value:
            return False
        token = writer.token
        if token is None:
            return False
        place = token.place
        return place is not None and (place.name in forward or place.stage.name in forward)

    def latch(self, forward):
        """Latch the operand, from the register or the bypass; see :meth:`ready`.

        Raises ``RuntimeError`` when :meth:`ready` is false.
        """
        register = self.register
        regfile = register.regfile
        writer = regfile.writers[register.index]
        if writer is None or writer is self:
            value = self._value = regfile.data[register.index]
            return value
        if writer._has_value:
            token = writer.token
            place = token.place if token is not None else None
            if place is not None and (place.name in forward or place.stage.name in forward):
                value = self._value = writer._value
                return value
        raise RuntimeError(
            "operand %r was latched although ready() is false; "
            "guard the transition with ready()" % (self,)
        )

    # -- write side ------------------------------------------------------
    def can_write(self):
        """True if the register can be reserved for writing (no pending writer)."""
        register = self.register
        writer = register.regfile.writers[register.index]
        return writer is None or writer is self

    def reserve_write(self):
        """Register this RegRef (and its instruction) as the pending writer."""
        register = self.register
        writers = register.regfile.writers
        writer = writers[register.index]
        if writer is not None and writer is not self:
            raise HazardProtocolError(
                "reserve_write() of %s while another write is pending; "
                "guard the arc with can_write()" % register.name
            )
        writers[register.index] = self
        self._reserved = True

    def writeback(self):
        """Commit the internal value to the register and clear the writer."""
        register = self.register
        if not self._has_value:
            raise HazardProtocolError(
                "writeback() of %s before a value was produced" % register.name
            )
        regfile = register.regfile
        index = register.index
        regfile.data[index] = self._value
        if regfile.writers[index] is self:
            regfile.writers[index] = None
        self._reserved = False

    def release(self):
        """Drop the write reservation without committing (squashed instruction)."""
        register = self.register
        writers = register.regfile.writers
        if writers[register.index] is self:
            writers[register.index] = None
        self._reserved = False

    # -- value access ----------------------------------------------------
    @property
    def value(self):
        """The internal (latched or computed) value of this reference."""
        return self._value

    @value.setter
    def value(self, new_value):
        self._value = new_value
        self._has_value = True

    @property
    def internal_value(self):
        return self._value

    @property
    def has_value(self):
        """True once the owning instruction *produced* a value.

        This is the bypass network's forwardability condition: latching an
        operand with :meth:`read` does not count (see there), only the
        :attr:`value` setter does.
        """
        return self._has_value

    @property
    def reserved(self):
        return self._reserved

    def __repr__(self):
        return "<RegRef %s value=%r reserved=%r>" % (self.register.name, self._value, self._reserved)


class Const(Operand):
    """An immediate operand exposing the RegRef interface.

    ``can_read`` is always true, ``read`` returns the constant, the write
    interfaces succeed but do nothing — exactly the "proper implementation"
    the paper prescribes so that symbols can be bound to either registers or
    constants without changing the sub-net.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def can_read(self, state=None):
        return state is None

    def read(self, state=None):
        return self._value

    def ready(self, forward):
        return True

    def latch(self, forward):
        return self._value

    def can_write(self):
        return True

    def reserve_write(self):
        pass

    def writeback(self):
        pass

    @property
    def value(self):
        return self._value

    @property
    def has_value(self):
        """Constants always carry their value."""
        return True

    def __repr__(self):
        return "<Const %r>" % (self._value,)


def _writer_in_state(writer, state):
    """True if the writer RegRef's owning token resides in pipeline state ``state``.

    ``state`` may be a place name, a stage name or a Place object.
    """
    token = writer.token
    if token is None or token.place is None:
        return False
    place = token.place
    if hasattr(state, "name"):
        return place is state or place.name == state.name or place.stage.name == state.name
    return place.name == state or place.stage.name == state
