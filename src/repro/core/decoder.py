"""Instruction decoding into RCPN instruction tokens, with partial evaluation.

The paper's simulators decode an instruction once, when its token is
generated, and cache decoded instructions for reuse ("the tokens are cached
for later reuse in the simulator", Section 5).  This module implements that
scheme generically:

* a *decode cache* keyed by the instruction word stores one
  :class:`TokenLayout` per word: the decoded ISA instruction, its operation
  class and the partially evaluated result of the class's symbol binder —
  the values and constants every instance shares, the
  :class:`~repro.core.operands.Register` each fresh RegRef wraps, and where
  the RegRefs go in the token's flat register-operand tuple;
* creating a token for a dynamic instance then allocates only the token,
  its fresh :class:`~repro.core.operands.RegRef` objects (each created
  already pointing at its token) and any block-transfer lists.  No field
  extraction, register lookup, operand-dictionary copy or type scan is
  repeated.
"""

from __future__ import annotations

from repro.core.operands import RegRef, Register
from repro.core.token import InstructionToken, check_symbols


class TokenLayout:
    """Everything needed to create tokens of one static instruction.

    Built from the binder's ``{symbol: operand}`` result.  Symbols bound to
    a :class:`RegRef` become a fresh RegRef per token; lists or tuples
    containing RegRefs (block-transfer register lists) become a fresh list
    per token; everything else (:class:`~repro.core.operands.Const`, plain
    values) is shared by every token.  Symbol names are checked against the
    token's own attributes here, once per layout.
    """

    __slots__ = ("instr", "opclass", "shared", "register_symbols", "registers", "register_lists")

    def __init__(self, instr, opclass, operands):
        check_symbols(opclass, operands)
        self.instr = instr
        self.opclass = opclass
        self.shared = {}
        register_symbols = []
        registers = []
        register_lists = []
        position = 0  # index into the token's flat register-operand tuple
        for symbol, operand in operands.items():
            if isinstance(operand, RegRef):
                register_symbols.append(symbol)
                registers.append(operand.register)
                position += 1
            elif isinstance(operand, (list, tuple)) and any(
                isinstance(item, RegRef) for item in operand
            ):
                items = tuple(
                    item.register if isinstance(item, RegRef) else item for item in operand
                )
                register_lists.append((symbol, items, position))
                position += sum(isinstance(item, RegRef) for item in operand)
            else:
                self.shared[symbol] = operand
        self.register_symbols = tuple(register_symbols)
        self.registers = tuple(registers)
        self.register_lists = tuple(register_lists)

    @classmethod
    def bind(cls, opclass, instr, context):
        """Run ``opclass``'s binder for ``instr`` and lay out the result."""
        return cls(instr, opclass.name, opclass.bind(instr, context))

    def instantiate(self, pc=0):
        """Create the token of one dynamic instance fetched from ``pc``."""
        token = InstructionToken(self.instr, self.opclass, pc)
        attributes = token.__dict__
        attributes.update(self.shared)
        refs = [RegRef(register, token) for register in self.registers]
        attributes.update(zip(self.register_symbols, refs))
        for symbol, items, position in self.register_lists:
            fresh = [RegRef(item, token) if isinstance(item, Register) else item for item in items]
            attributes[symbol] = fresh
            refs[position:position] = [ref for ref in fresh if isinstance(ref, RegRef)]
        token._register_refs = tuple(refs)
        return token


class InstructionDecoder:
    """Decode instruction words into :class:`InstructionToken` objects.

    Parameters
    ----------
    net:
        The RCPN model; its registered operation classes provide the symbol
        binders.
    isa_decode:
        ``isa_decode(word) -> ISA instruction`` (e.g. :func:`repro.isa.decode`).
    classify:
        ``classify(instr) -> operation class name``; defaults to the
        instruction's ``operation_class`` attribute.
    context:
        The :class:`~repro.core.operation_class.DecodeContext` handed to
        symbol binders.
    use_cache:
        Enables the decode cache / partial evaluation (on by default; the
        ablation benchmark turns it off, which rebuilds the layout on every
        fetch).
    """

    def __init__(self, net, isa_decode, context, classify=None, use_cache=True):
        self.net = net
        self.isa_decode = isa_decode
        self.context = context
        self.classify = classify or (lambda instr: instr.operation_class)
        self.use_cache = use_cache
        self._cache = {}
        self.hits = 0
        self.misses = 0

    def _build_layout(self, word):
        """Decode ``word`` and build its :class:`TokenLayout` (no caching)."""
        instr = self.isa_decode(word)
        opclass = self.net.operation_classes[self.classify(instr)]
        return TokenLayout.bind(opclass, instr, self.context)

    def decode_word(self, word, pc=0):
        """Decode ``word`` fetched from ``pc`` into an instruction token."""
        if self.use_cache:
            layout = self._cache.get(word)
            if layout is None:
                self.misses += 1
                layout = self._cache[word] = self._build_layout(word)
            else:
                self.hits += 1
        else:
            self.misses += 1
            layout = self._build_layout(word)
        return layout.instantiate(pc)

    def cache_info(self):
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def clear_cache(self):
        self._cache.clear()
        self.hits = 0
        self.misses = 0
