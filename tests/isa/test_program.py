"""Program container: validation, data image, pickling, iteration."""

import pickle
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program


def test_validate_rejects_empty():
    with pytest.raises(ReproError, match="empty"):
        Program([]).validate()


def test_validate_rejects_out_of_range_target():
    program = Program([
        Instruction(Op.BEQ, rs1=0, rs2=0, target=99),
        Instruction(Op.HALT),
    ])
    with pytest.raises(ReproError, match="targets 99"):
        program.validate()


def test_validate_requires_halt():
    program = Program([Instruction(Op.NOP)])
    with pytest.raises(ReproError, match="no HALT"):
        program.validate()


@pytest.mark.parametrize("addr, message", [
    (0x101, "misaligned address 0x101$"),
    (-8, r"address -0x8 is outside \[0, 0xfffffffffffffff8\]$"),
    (2**64, r"address 0x10000000000000000 is outside"),
], ids=["misaligned", "negative", "past-2**64"])
def test_misaligned_data_word_rejected(addr, message):
    # A bad address fails once, where the program is built, with one
    # line naming it -- not on every run that loads the image.
    with pytest.raises(ReproError, match=message):
        Program([Instruction(Op.HALT)], image={0x100: 1, addr: 1})


def test_image_values_are_reduced_to_64_bits():
    negative = Program([Instruction(Op.HALT)], image={0x100: -1})
    unsigned = Program([Instruction(Op.HALT)], image={0x100: 2**64 - 1})
    assert dict(negative.image) == {0x100: 2**64 - 1}
    assert negative.fingerprint() == unsigned.fingerprint()


def per_word_image(image):
    """The image rule word by word: the first bad address in layout
    order fails, and each value outside 64 bits is reduced."""
    words = {}
    for addr, value in image.items():
        if addr % 8:
            raise ReproError(f"data word at misaligned address {addr:#x}")
        if not 0 <= addr <= 2**64 - 8:
            raise ReproError(f"data word address {addr:#x} is outside "
                             f"[0, {2**64 - 8:#x}]")
        words[addr] = value if 0 <= value < 2**64 else value % 2**64
    return words


IMAGE_ADDRESSES = st.one_of(st.integers(0, 2**61 - 1).map(lambda i: 8 * i),
                            st.integers(-2**66, 2**66))
IMAGE_VALUES = st.one_of(st.integers(-2**66, 2**66), st.booleans())


@settings(max_examples=300, deadline=None)
@given(image=st.dictionaries(IMAGE_ADDRESSES, IMAGE_VALUES, max_size=8))
@example(image={0x100: 1, 2**64 - 8: 2**64 - 1, 0: True})
@example(image={0x100: -1, 2**64 - 8: 2**64})
@example(image={0x100: 1, 2**64 - 4: 1, -8: 1})
def test_image_check_is_the_per_word_rule(image):
    try:
        expected = per_word_image(image)
    except ReproError as error:
        with pytest.raises(ReproError, match=f"^{re.escape(str(error))}$"):
            Program([Instruction(Op.HALT)], image=image)
        return
    kept = Program([Instruction(Op.HALT)], image=image).image
    assert list(kept.items()) == list(expected.items())
    assert list(map(type, kept.values())) == list(map(type, expected.values()))


def test_image_is_a_read_only_copy():
    words = {0x100: 1}
    program = Program([Instruction(Op.HALT)], image=words)
    words[0x100] = 2
    assert program.image[0x100] == 1
    with pytest.raises(TypeError):
        program.image[0x100] = 3  # type: ignore[index]


def test_program_pickles_with_its_image():
    program = assemble("""
        .data 0x100: 5 6
        halt
    """, name="pickled")
    restored = pickle.loads(pickle.dumps(program))
    assert list(restored.image.items()) == list(program.image.items())
    assert restored.fingerprint() == program.fingerprint()


def test_iteration_and_indexing(countdown_program):
    assert len(list(countdown_program)) == len(countdown_program)
    assert countdown_program[0].op is Op.MOVI
