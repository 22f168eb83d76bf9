"""The canonical semantic-ID scheme: stability, ordering, and
bit-compatibility with the historical key formats.

Every identity-bearing digest in the repo routes through
:mod:`repro.regress.semid`; these tests pin the scheme itself (a
change here silently re-keys the result cache and every committed
baseline, so drift must be loud).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import inorder_machine, sst_machine
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.regress.semid import (
    SemanticIdError,
    canonical_json,
    canonicalize,
    digest_material,
    dump_stable,
    line_digest,
    semantic_id,
    short_id,
    state_digest,
)
from repro.sim.cache import SIM_SCHEMA_VERSION, result_key
from repro.workloads import full_suite, spec_leak_gadget


# -- canonicalization rules -------------------------------------------------


def test_primitives_are_type_prefixed():
    assert canonicalize(None) == "none"
    assert canonicalize(True) == "bool:True"
    assert canonicalize(4) == "int:4"
    assert canonicalize(4.0) == "float:4.0"
    assert canonicalize("4") == "str:4"


def test_cross_type_collisions_impossible():
    values = [4, 4.0, "4", True, None]
    rendered = {canonical_json(value) for value in values}
    assert len(rendered) == len(values)


def test_bool_not_swallowed_by_int():
    # bool subclasses int; 1 and True must not share an id.
    assert semantic_id(1) != semantic_id(True)


def test_dict_key_order_never_perturbs_digest():
    assert semantic_id({"a": 1, "b": 2}) == semantic_id({"b": 2, "a": 1})


def test_nested_ordering_stability():
    left = {"outer": {"x": [1, {"p": 1, "q": 2}], "y": 3}}
    right = {"outer": {"y": 3, "x": [1, {"q": 2, "p": 1}]}}
    assert semantic_id(left) == semantic_id(right)


def test_list_order_is_significant():
    assert semantic_id([1, 2]) != semantic_id([2, 1])


def test_enum_carries_class_and_value():
    class Color(enum.Enum):
        RED = "red"

    class Paint(enum.Enum):
        RED = "red"

    assert canonicalize(Color.RED) == "enum:Color:red"
    assert semantic_id(Color.RED) != semantic_id(Paint.RED)


def test_dataclass_canonicalizes_init_fields_with_type_tag():
    @dataclasses.dataclass
    class Point:
        x: int
        y: int
        derived: int = dataclasses.field(default=0, init=False)

    rendered = canonicalize(Point(1, 2))
    assert rendered["__type__"] == "Point"
    assert "derived" not in rendered  # init=False fields are derived
    assert semantic_id(Point(1, 2)) == semantic_id(Point(1, 2))
    assert semantic_id(Point(1, 2)) != semantic_id(Point(2, 1))


def test_machine_configs_have_distinct_stable_ids():
    assert semantic_id(sst_machine()) == semantic_id(sst_machine())
    assert semantic_id(sst_machine()) != semantic_id(inorder_machine())


def test_uncanonicalizable_raises():
    with pytest.raises(SemanticIdError):
        canonicalize(object())
    with pytest.raises(SemanticIdError):
        semantic_id({"ok": object()})


# -- bit-compatibility with the historical formats --------------------------


def test_digest_material_matches_raw_sha256():
    material = {"schema": 2, "config": {"a": "str:x"}, "n": 5}
    expected = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    assert digest_material(material) == expected


def test_result_key_is_bit_identical_to_legacy_format():
    """The unified scheme changed zero cache keys: result_key still
    hashes the legacy material byte-for-byte, except that the machine
    config's canonical form leaves out its display ``name``."""
    program = full_suite("tiny")[0]
    config = sst_machine()
    machine = canonicalize(config)
    assert machine.pop("name") == f"str:{config.name}"
    legacy = hashlib.sha256(json.dumps({
        "schema": SIM_SCHEMA_VERSION,
        "config": machine,
        "program": program.fingerprint(),
        "max_instructions": 1000,
    }, sort_keys=True).encode()).hexdigest()
    assert result_key(config, program, 1000) == legacy


def image_program(image, secret_ranges=()):
    """A two-instruction program around ``image``."""
    return Program([Instruction(Op.NOP), Instruction(Op.HALT)],
                   image=image, name="imaged", secret_ranges=secret_ranges)


IMAGE_ADDRESSES = st.integers(0, 2**61 - 1).map(lambda index: index * 8)
# Any int the image reduces to 64 bits, and bools, which it keeps.
IMAGE_VALUES = st.one_of(st.integers(-2**64, 2**65), st.booleans())
SECRET_RANGES = st.lists(
    st.tuples(IMAGE_ADDRESSES, st.integers(1, 8)).map(
        lambda pair: (pair[0], pair[0] + 8 * pair[1])),
    max_size=3)


@settings(max_examples=100, deadline=None)
@given(program=st.builds(
    image_program,
    st.dictionaries(IMAGE_ADDRESSES, IMAGE_VALUES, max_size=64),
    SECRET_RANGES))
@example(program=full_suite("tiny")[0])
@example(program=image_program({}))
@example(program=image_program({0x100: 7}))
@example(program=image_program({0: 0, 2**64 - 8: 2**64 - 1}))
@example(program=image_program({0x100: True, 0x108: False, 0x110: 1}))
@example(program=spec_leak_gadget())
def test_program_fingerprint_is_bit_identical_to_legacy_format(program):
    hasher = hashlib.sha256()
    hasher.update(f"program:{program.name}\n".encode())
    for inst in program.instructions:
        hasher.update(
            f"i:{inst.op.value}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
            f"{inst.imm}:{inst.target}\n".encode()
        )
    for addr, value in program.image.items():
        hasher.update(f"d:{addr}:{value}\n".encode())
    for start, end in program.secret_ranges:
        hasher.update(f"s:{start}:{end}\n".encode())
    assert program.fingerprint() == hasher.hexdigest()


def test_line_digest_terminates_each_record():
    # ["ab"] and ["a", "b"] must not collide.
    assert line_digest(["ab"]) != line_digest(["a", "b"])
    assert line_digest([]) == hashlib.sha256(b"").hexdigest()


# -- the state digest -------------------------------------------------------

WORDS = st.one_of(st.just(0), st.integers(0, 2**64 - 1))
ADDRESSES = st.integers(0, 2**61 - 1).map(lambda index: index * 8)


@settings(max_examples=200, deadline=None)
@given(regs=st.lists(WORDS, max_size=32),
       memory=st.dictionaries(ADDRESSES, WORDS, max_size=40))
@example(regs=[0] * 32, memory={})
@example(regs=[2**64 - 1] * 32,
         memory={0: 0, 2**64 - 8: 2**64 - 1, 8: 0})
def test_state_digest_is_the_semantic_id_byte_for_byte(regs, memory):
    """The direct rendering equals the generic canonical form, whatever
    order the words come in; a changed separator or key order fails."""
    words = list(memory.items())
    assert state_digest(regs, words) == semantic_id(
        {"regs": list(regs), "memory": sorted(words)})


# -- helpers ----------------------------------------------------------------


def test_short_id_is_a_prefix():
    full = semantic_id("x")
    assert full.startswith(short_id(full))
    assert len(short_id(full)) == 12


def test_dump_stable_sorts_keys_and_ends_with_newline():
    text = dump_stable({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert dump_stable({"a": 2, "b": 1}) == text
