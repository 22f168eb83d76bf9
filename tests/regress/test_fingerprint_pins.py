"""Literal pins of ``Program.fingerprint()``.

A fingerprint is part of every result-cache key and every baseline
record's identity, so a change to how a program is built or hashed must
not move one.  The legacy-format test in ``test_semid.py`` recomputes a
digest from the program itself; these pins fix the content too: every
suite program at every scale (the bench scale is behind every
full-scale result), one assembled program with ``.data`` directives and
one program with a secret range.
"""

import pytest

from repro.isa.assembler import assemble
from repro.workloads.spec_leak import spec_leak_gadget
from repro.workloads.suite import full_suite

SUITE_FINGERPRINTS = {
    ("tiny", "oltp-chase"):
        "443cbc50cd2f8d0d9f93a8f6a1af4855a303d5fd157c8e99a56e45367cba6251",
    ("tiny", "db-hashjoin"):
        "ce41b36cad0aea2917ddf911d0d4ea124d31f79a18572f0d87d3b50cda2286db",
    ("tiny", "index-btree"):
        "a3a03bb1de99234f9dd62ddec36dc8978552d30744ff790b5a6c51a18f713c8c",
    ("tiny", "web-storelog"):
        "0b5076d04a5b1dbe3ae92bd85ec715d180b6c7a5f684a2f930f08cb718bae211",
    ("tiny", "fp-stream"):
        "0c11bc8f87b1671e5bf7954b12e187e89d88028b4eda9a738a7ff03b355af630",
    ("tiny", "int-branchy"):
        "f6a13391d2c945b16c796a18aeeff5d82d1736796646ea45e3041415015b980b",
    ("tiny", "compute-matmul"):
        "e1f1f63041637f8d8c91dfb3205dd5db93408a316df261cd615c5a4156380d8a",
    ("small", "oltp-chase"):
        "d39b563ee623faad4f53f174ef9b9354bab5c092ae7241f0166c81b40a8e2cad",
    ("small", "db-hashjoin"):
        "b8884150825eaccf85a259568a358f73dc3fb8bac2a78f862b40307a4da7d363",
    ("small", "index-btree"):
        "1b85c20f7a944c07815a78afa543046906fdd5cae3aad196bbd0647cc90b1ea8",
    ("small", "web-storelog"):
        "5ab382067471f225e9534751dd6c3d031096b5b7d507d4ad4ef60886995a2c44",
    ("small", "fp-stream"):
        "973793a598612b1f2b2e9905d3c8b19e44cccf2effa8b778d51e4344bd386cfc",
    ("small", "int-branchy"):
        "59b0d29bde692f1cc01d6be7a443bcc77da2ec7c32ab916175585b8a47693c0a",
    ("small", "compute-matmul"):
        "b4af7c12988d71462effb9e01d536af2a54322b49064dd668d494c7871caa4ce",
    ("bench", "oltp-chase"):
        "e6c7b2d9718f374a9ee0331d837a273d13d532a5b13af83988a3ffd6c7e27cd7",
    ("bench", "db-hashjoin"):
        "b9b5678c737860a75ea32ce6bf60c06dc56e8e298de2b298faeaf59805ea7e80",
    ("bench", "index-btree"):
        "6ff3e913ff78fdee249ccacec1d88f3928bb72e6d6cc2a216ee8cce389b62e9c",
    ("bench", "web-storelog"):
        "4bce1bebdd538e37206f5c678687ab2d605d327ec155952fbc1953588f0dc8c0",
    ("bench", "fp-stream"):
        "49a86765aab94f13ca101e63a43c5bb17d0d9af96e84da41368e90b2fad668f3",
    ("bench", "int-branchy"):
        "dfe084569aed1783a82669362b52538a3a3aa318425918673e56fc25caabd6e7",
    ("bench", "compute-matmul"):
        "a074aa3814ba62ffc2b94319f152e6ea979273ced9a8624d6f1cd8bb79b17cfa",
}

# Two .data directives, a negative word (stored as 2**64 - 1) and a
# pointer from one block into the other.
ASSEMBLED_SOURCE = """
    .data 0x1000: 7 0x10 -1
    .data 0x2000: 0x1008
    movi r1, 0x2000
    ld   r2, 0(r1)
    ld   r3, 0(r2)
    st   r3, 8(r1)
    halt
"""


@pytest.mark.parametrize("scale", ["tiny", "small", "bench"])
def test_suite_fingerprints_are_pinned(scale):
    digests = {(scale, program.name): program.fingerprint()
               for program in full_suite(scale)}
    assert digests == {key: digest
                       for key, digest in SUITE_FINGERPRINTS.items()
                       if key[0] == scale}


def test_assembled_fingerprint_is_pinned():
    program = assemble(ASSEMBLED_SOURCE, name="pinned")
    assert program.fingerprint() == (
        "096b10a2d2ebadd27135d7da97a20df0a639d9b9a98b9ebe94349ef6ae0d5f3a")


def test_secret_range_fingerprint_is_pinned():
    assert spec_leak_gadget().fingerprint() == (
        "594108c21e53eef3427b08ea9f8e70db03d15915ced4633edd2106ce5a89cb61")
