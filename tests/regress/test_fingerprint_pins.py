"""Literal pins of ``Program.fingerprint()``.

A fingerprint is part of every result-cache key and every baseline
record's identity, so a change to how a program is built or hashed must
not move one.  The legacy-format test in ``test_semid.py`` recomputes a
digest from the program itself; these pins fix the content too: every
suite program at every scale (the bench scale is behind every
full-scale result), every distinct generator call that a full-scale
``repro experiments run --all`` makes, one assembled program with
``.data`` directives and one program with a secret range.
"""

import pytest

import repro.workloads
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

# Every distinct (generator, kwargs) call of a full-scale ``repro
# experiments run --all``, as the experiments pass them, with the
# fingerprint of the program it builds.  Several repeat a bench-scale
# suite program above; E4's and E8's 64K-word tables are here.
FULL_SCALE_FINGERPRINTS = [
    ("array_stream", dict(words=32768),
     "49a86765aab94f13ca101e63a43c5bb17d0d9af96e84da41368e90b2fad668f3"),
    ("branchy_reduce", dict(iterations=5000, data_words=32768),
     "dfe084569aed1783a82669362b52538a3a3aa318425918673e56fc25caabd6e7"),
    ("branchy_reduce", dict(iterations=4000, data_words=32768, biased=False),
     "a5ce3075801743b7ee02f3d5c235f57efdd25fe9043372a1946366572c7a611b"),
    ("branchy_reduce",
     dict(iterations=4000, data_words=32768, biased=True,
          name="int-branchy-biased"),
     "ad11749a56c182a86e52868994f2787f080ee82898c42933fcc5ec3e48e854d8"),
    ("btree_lookup", dict(array_words=32768, lookups=512),
     "6ff3e913ff78fdee249ccacec1d88f3928bb72e6d6cc2a216ee8cce389b62e9c"),
    ("hash_join", dict(table_words=65536, probes=5000),
     "b9b5678c737860a75ea32ce6bf60c06dc56e8e298de2b298faeaf59805ea7e80"),
    ("hash_join", dict(table_words=65536, probes=3000),
     "48b752f196f1f21058eb29ad575406d469f9071a9130151437120cfa523fb68e"),
    ("hash_join", dict(table_words=8192, probes=3000, name="db-hashjoin-l2"),
     "918e23d768e233a8ee3664d5d930d3aece5abd7d7e47f33cae21c6d878a39a58"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=0, name="db-hashjoin-0"),
     "fa7829be0eadf92231a2c72da2ecee2a34554f44299c2c4f5caf4cda99c40d89"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=1, name="db-hashjoin-1"),
     "210cce3624b618c6e6f5bb60e6adec79894a333b6e6d1d64914548f8e2455c99"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=2, name="db-hashjoin-2"),
     "80791e37acee79234e36dd5ae044f4785949faf9116794ebdf53e3a81fd9ac1a"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=3, name="db-hashjoin-3"),
     "689b9461b02d462e8f02eb5784beb75638411ef3f51be53a85af935ce99ab853"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=4, name="db-hashjoin-4"),
     "b7061de395fe227d359813908ac53d3df8ef365ffe6e719fd29d413a313c287e"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=5, name="db-hashjoin-5"),
     "4214cf62d9703947b8573c29a697503c38ce92bba5900d9618f72b62df1882d1"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=6, name="db-hashjoin-6"),
     "d340253d68137496546be698b0b0702bd2fb625d6e4c65f3dd526133c18d2f24"),
    ("hash_join",
     dict(table_words=16384, probes=600, seed=7, name="db-hashjoin-7"),
     "decd0d636f3f3073bb1440c26fc4c3f141168681ad857fb4d1e932344879e3c5"),
    ("hash_join",
     dict(table_words=16384, probes=800, seed=0, name="db-hashjoin-0"),
     "98be7858bafc6c8284bf3c7a4cf2c73d775b6f924fdc5edcd45f46bccecd06f2"),
    ("hash_join",
     dict(table_words=16384, probes=800, seed=1, name="db-hashjoin-1"),
     "aaf0415aa1ea53ee3893461142444401d00237b84e8b22186a517cd1d2e12765"),
    ("matrix_multiply", dict(n=20),
     "a074aa3814ba62ffc2b94319f152e6ea979273ced9a8624d6f1cd8bb79b17cfa"),
    ("pointer_chase", dict(chains=4, nodes_per_chain=2048, hops=4096),
     "e6c7b2d9718f374a9ee0331d837a273d13d532a5b13af83988a3ffd6c7e27cd7"),
    ("pointer_chase", dict(chains=4, nodes_per_chain=2048, hops=2500),
     "efd5cd5058c212a33107f47325d8eb37540ffe81a69d0ba2d51595c208a0bbeb"),
    ("scatter_update",
     dict(table_words=16384, updates=2000, alias_per_1024=0,
          name="db-scatter-clean"),
     "dcaaed73e34fa544521779179b02a3554706ce78e6cb800c4db96e460d039127"),
    ("scatter_update",
     dict(table_words=16384, updates=2000, alias_per_1024=64,
          name="db-scatter-aliased"),
     "d6be9098cf4d4a630ecf994706740d170e0dc4a8e2fea44499332a84f1a0fe50"),
    ("spec_leak_gadget", dict(),
     "594108c21e53eef3427b08ea9f8e70db03d15915ced4633edd2106ce5a89cb61"),
    ("spec_leak_safe", dict(),
     "badd7196fad78392f84a0ecd94aa38ea39d81db9cccc443aeb933d1ea4800f2f"),
    ("spec_leak_store", dict(),
     "17191c103265229acec3811333e172e1d060c7fd6991335fcfcf138ba2d5b66d"),
    ("store_stream", dict(records=2500, payload_words=8, table_words=65536),
     "4bce1bebdd538e37206f5c678687ab2d605d327ec155952fbc1953588f0dc8c0"),
    ("store_stream", dict(records=2000, payload_words=8, table_words=65536),
     "e701e4b27d312b33577dc89d029f9df70b3a88defd2d7e5fd5d7cb1f24c37fcb"),
]

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


@pytest.mark.parametrize(
    "generator, kwargs, digest", FULL_SCALE_FINGERPRINTS,
    ids=[f"{generator}-{index}" for index, (generator, _, _)
         in enumerate(FULL_SCALE_FINGERPRINTS)])
def test_full_scale_experiment_fingerprints_are_pinned(generator, kwargs,
                                                       digest):
    program = getattr(repro.workloads, generator)(**kwargs)
    assert program.fingerprint() == digest


def test_assembled_fingerprint_is_pinned():
    program = assemble(ASSEMBLED_SOURCE, name="pinned")
    assert program.fingerprint() == (
        "096b10a2d2ebadd27135d7da97a20df0a639d9b9a98b9ebe94349ef6ae0d5f3a")


def test_secret_range_fingerprint_is_pinned():
    assert spec_leak_gadget().fingerprint() == (
        "594108c21e53eef3427b08ea9f8e70db03d15915ced4633edd2106ce5a89cb61")
