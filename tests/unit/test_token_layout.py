"""Unit tests for decode-once instruction tokens (repro.core.decoder.TokenLayout).

A token's symbols are plain instance attributes set once from a cached
per-word layout.  These tests pin what the layout must preserve from the
bind-and-scan token construction it replaced: the same register operands
in the same order, RegRefs owned by their token and never shared between
two fetches, symbols that cannot overwrite token state, and a flags
condition table that agrees with the ISA's condition evaluation.
"""

import pytest

from repro.core import (
    Const,
    InstructionToken,
    ModelError,
    OperationClass,
    RCPN,
    RegRef,
    TokenLayout,
)
from repro.core.token import RESERVED_ATTRIBUTES
from repro.describe.substrate import _CONDITION_TABLE, unpack_flags
from repro.isa.assembler import assemble
from repro.isa.conditions import Condition, condition_passes
from repro.processors import build_processor

#: One instruction per ARM operation class, block transfers included.
SOURCE = """
    add r1, r2, r3
    mul r4, r5, r6
    ldr r7, [r8, #4]
    ldmia r0!, {r1, r3-r5}
    stmdb sp!, {r4-r6, lr}
    bl target
target:
    swi #1
    halt
"""


def _old_scan(operands):
    """The isinstance scan ``InstructionToken.register_operands`` used to run."""
    found = []
    for operand in operands:
        if isinstance(operand, RegRef):
            found.append(operand)
        elif isinstance(operand, (list, tuple)):
            found.extend(item for item in operand if isinstance(item, RegRef))
    return found


@pytest.fixture(scope="module")
def processor():
    return build_processor("strongarm")


@pytest.fixture(scope="module")
def words():
    return assemble(SOURCE).words


def test_source_covers_every_operation_class(processor, words):
    decoder = processor.decoder
    classes = {decoder.decode_word(word).opclass for word in words}
    assert classes == set(processor.net.operation_classes)


def test_register_operands_match_the_old_scan(processor, words):
    decoder = processor.decoder
    for pc, word in enumerate(words):
        token = decoder.decode_word(word, pc=4 * pc)
        opclass = processor.net.operation_classes[token.opclass]
        # The binder's symbol order, applied to the token's own operands.
        bound = opclass.bind(token.instr, decoder.context)
        expected = _old_scan(getattr(token, symbol) for symbol in bound)
        refs = token.register_operands()
        assert [id(ref) for ref in refs] == [id(ref) for ref in expected]
        assert [ref.register for ref in refs] == [ref.register for ref in _old_scan(bound.values())]
        assert all(ref.token is token for ref in refs)
        assert token.pc == 4 * pc


def test_block_transfer_list_is_flattened_in_binder_order(processor, words):
    ldm = processor.decoder.decode_word(words[3])
    assert ldm.opclass == "memm"
    assert [ref.register.index for ref in ldm.regs] == [1, 3, 4, 5]
    refs = ldm.register_operands()
    assert refs == (ldm.base, *ldm.regs, ldm.fl)


def test_cached_word_fetches_share_no_regref(processor, words):
    decoder = processor.decoder
    for word in words:
        first = decoder.decode_word(word)
        second = decoder.decode_word(word)
        assert first is not second
        assert not {id(ref) for ref in first.register_operands()} & {
            id(ref) for ref in second.register_operands()
        }
        if first.opclass == "memm":
            assert first.regs is not second.regs
        assert first.instr is second.instr


def test_ablation_rebuilds_the_layout_each_fetch(words):
    uncached = build_processor("strongarm", use_decode_cache=False).decoder
    cached = build_processor("strongarm").decoder
    for word in words:
        for decoder in (cached, uncached):
            decoder.decode_word(word)
            decoder.decode_word(word)
    assert uncached.cache_info() == {"hits": 0, "misses": 2 * len(words), "entries": 0}
    assert cached.cache_info() == {"hits": len(words), "misses": len(words), "entries": len(words)}


def test_make_token_uses_the_same_layout(processor, words):
    decoder = processor.decoder
    token = decoder.decode_word(words[0], pc=8)
    opclass = processor.net.operation_classes["alu"]
    made = opclass.make_token(token.instr, decoder.context, pc=8)
    assert made.operands.keys() == token.operands.keys()
    assert [ref.register for ref in made.register_operands()] == [
        ref.register for ref in token.register_operands()
    ]
    assert all(ref.token is made for ref in made.register_operands())


def test_symbols_are_instance_attributes(processor, words):
    token = processor.decoder.decode_word(words[0])
    for symbol in ("d", "s1", "s2", "fl", "op", "writes_flags"):
        assert symbol in vars(token)
    assert token.symbol("d") is token.d
    assert "instr" not in token.operands
    with pytest.raises(AttributeError, match="no_such_symbol"):
        token.no_such_symbol
    with pytest.raises(KeyError, match="no_such_symbol"):
        token.symbol("no_such_symbol")
    with pytest.raises(KeyError):
        token.symbol("pc")


# -- symbol-collision guard ---------------------------------------------------


def _colliding_class(symbol):
    def binder(instr, context):
        return {"d": RegRef(context.register(0)), symbol: Const(1)}

    return OperationClass("clash", symbols={"d": None}, binder=binder)


@pytest.mark.parametrize(
    "symbol",
    ["pc", "instr", "opclass", "seq", "place", "squashed", "annotations", "operands", "executed", "issued"],
)
def test_colliding_symbol_is_rejected_when_the_layout_is_built(symbol):
    assert symbol in RESERVED_ATTRIBUTES
    net = RCPN("clash")
    regfile = net.add_register_file("gpr", 2)

    class Context:
        @staticmethod
        def register(index):
            return regfile.register(index)

    opclass = _colliding_class(symbol)
    with pytest.raises(ModelError, match=r"'clash'.*%r" % symbol):
        TokenLayout.bind(opclass, instr=None, context=Context)
    with pytest.raises(ModelError, match=r"'clash'.*%r" % symbol):
        opclass.make_token(None, Context)
    with pytest.raises(ModelError, match=r"'clash'.*%r" % symbol):
        InstructionToken(instr=None, opclass="clash", operands={symbol: 1})


def test_shipped_operation_classes_bind_no_reserved_symbol(processor, words):
    decoder = processor.decoder
    for word in words:
        token = decoder.decode_word(word)
        opclass = processor.net.operation_classes[token.opclass]
        assert not RESERVED_ATTRIBUTES & set(opclass.bind(token.instr, decoder.context))


# -- hot-path flags ------------------------------------------------------------


def test_hot_annotation_keys_are_attributes_with_defaults(processor, words):
    token = processor.decoder.decode_word(words[0])
    assert token.executed is False
    assert token.redirect is None
    assert token.predicted_taken is False
    assert token.issued is False
    assert token.annotations == {}


def test_condition_table_matches_condition_passes():
    for cond in Condition:
        for nzcv in range(16):
            assert _CONDITION_TABLE[cond][nzcv] is condition_passes(cond, unpack_flags(nzcv))


# -- register file ---------------------------------------------------------------


def test_net_reset_clears_writers_in_place():
    net = RCPN("writers")
    regfile = net.add_register_file("gpr", 3)
    writers = regfile.writers
    ref = RegRef(regfile.register(1))
    ref.reserve_write()
    assert writers[1] is ref
    net.reset()
    assert regfile.writers is writers
    assert writers == [None, None, None]
    ref.reserve_write()
    regfile.reset()
    assert writers == [None, None, None]
