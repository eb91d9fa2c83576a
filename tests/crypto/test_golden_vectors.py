"""Golden vectors pinning the crypto layer's exact output bytes.

Every value below was captured from the pre-fast-path implementation
(the PR-2 tree), so these tests are the contract that the shared split
cache, the pre-keyed tape, the batch bucket tables, and the early-exit
HGD quantile change **nothing** about what the scheme emits: same
buckets, same ciphertexts, same tape bytes, same index bytes.

If one of these fails, the fast path broke ciphertext compatibility —
do not re-pin the vectors to make it pass.
"""

import hashlib
import random

from repro.core.params import TEST_PARAMETERS
from repro.core.rsse import EfficientRSSE
from repro.crypto.hgd import hgd_quantile, hgd_quantile_reference
from repro.crypto.keys import SchemeKey
from repro.crypto.opm import OneToManyOpm
from repro.crypto.opse import OrderPreservingEncryption
from repro.crypto.symmetric import SymmetricCipher
from repro.crypto.tape import CoinStream, KeyedTape, encode_context
from repro.ir.inverted_index import InvertedIndex

KEY = bytes(range(32))

# plaintext -> (ciphertext, (bucket.low, bucket.high)) for the full
# domain of OPSE(KEY, M=16, N=1024).
OPSE_SMALL = {
    1: (207, (1, 256)),
    2: (335, (257, 384)),
    3: (430, (417, 432)),
    4: (438, (433, 448)),
    5: (462, (449, 480)),
    6: (507, (481, 512)),
    7: (583, (513, 640)),
    8: (659, (641, 704)),
    9: (707, (705, 768)),
    10: (773, (769, 800)),
    11: (823, (801, 832)),
    12: (883, (881, 888)),
    13: (889, (889, 896)),
    14: (899, (897, 928)),
    15: (948, (929, 960)),
    16: (1001, (961, 1024)),
}

# Same shape at the paper's parameters (M=128, N=2**46).
OPSE_PAPER = {
    1: (1041427053160, (1, 1099511627776)),
    2: (1438694436634, (1099511627777, 2199023255552)),
    17: (8994823569112, (8967891714049, 9002251452416)),
    64: (33979675155494, (33535104647169, 34084860461056)),
    100: (56778159276998, (56075093016577, 57174604644352)),
    127: (70145646497010, (70128226009089, 70162585747456)),
    128: (70233595553928, (70231305224193, 70368744177664)),
}

# (score, file_id) -> OPM(KEY, M=16, N=1024) mapped value.
OPM_SMALL = {
    (1, b"file-a"): 59,
    (1, b"file-b"): 14,
    (1, b"zzz"): 75,
    (5, b"file-a"): 475,
    (5, b"file-b"): 468,
    (5, b"zzz"): 452,
    (16, b"file-a"): 1019,
    (16, b"file-b"): 1024,
    (16, b"zzz"): 978,
}

# (score, file_id) -> OPM(KEY, M=128, N=2**46) mapped value.
OPM_PAPER = {
    (1, b"file-a"): 384056263515,
    (1, b"file-b"): 453435697173,
    (33, b"file-a"): 19676439246394,
    (33, b"file-b"): 19666693188909,
    (64, b"file-a"): 33993021551379,
    (64, b"file-b"): 33788617183455,
    (128, b"file-a"): 70263781532743,
    (128, b"file-b"): 70287897608449,
}

# context tuple -> first 48 tape bytes of CoinStream(KEY, context).
TAPE_VECTORS = {
    (1, 1024, 0, 512): (
        "80744d2f2283544c1f717c10a6381363005404c5c06f463fbe000370191cce73"
        "bcc71792cd054692d5f9c2ad90f2930b"
    ),
    (5, 10, 1, 7, b"fid"): (
        "c7a23e64141b641ce435a34d9c339c5faa78d0b964a6369faf626d7fc5b0aa1f"
        "a7f5ded7b5d48fe770523b600da69b72"
    ),
}

# (context, low, high) -> CoinStream(KEY, context).choice(low, high).
CHOICE_VECTORS = {
    ((1, 1024, 0, 512), 1, 1024): 514,
    ((3, 99, 1, 50, b"f"), 3, 99): 97,
    ((1, 2, 1, 1, b"g"), 1, 2): 2,
}

# (u, population, successes, draws) -> hgd_quantile value.
HGD_VECTORS = {
    (0.5, 70368744177664, 128, 35184372088832): 64,
    (0.0001, 2048, 2048, 1024): 1024,
    (0.73, 1073741824, 1024, 536870912): 522,
    (0.25, 70368744177664, 128, 1099511627776): 1,
    (0.999, 1000, 500, 300): 172,
    (0.0, 7, 3, 5): 1,
}

# SHA-256 over (address || entries...) of the secure index built below.
INDEX_DIGEST = "a8ea84ad02a7c4de3b1e35586c472f124369e1ef1f2a8586c247f80438b07005"

# SymmetricCipher(KEY) vectors.  CIPHER_NONCE is the fixed nonce of the
# randomized mode; plaintexts are cipher_plaintext(length).
CIPHER_NONCE = bytes(range(100, 116))

# length -> SHA-256 of encrypt(cipher_plaintext(length), CIPHER_NONCE).
# 36 bytes is one posting entry; 2048 a typical file blob.
CIPHER_VECTORS = {
    0: "828a0e51c1790d72a041ed4ceeb248a7abcf2d9cc79f0e511886b3289542fb4c",
    1: "3e8900e7384d3f0695bc7cf43e81d1e534daad7103ffc63cf01a923feca3b045",
    31: "0c4fa753637e1133e5d645dfb77fe92bcf54e649dc5d0e4b3216317bf4aeb507",
    32: "f6014ccee4e9de29c4357c705372caf21c7f9d400e7b6959a621c682b4ad46d1",
    33: "963fdcdff0d8674ce219e900fc7fa9fbf1f48210df90c7109387e8938bbbdc9c",
    36: "f652ccde0f5814bd621292d9d9ea1848e92d6ef8266fe8242c46ff7f14a3182a",
    2048: "c821dc215e024ffe69726ff13755b21f6a367749e5039c579cda95bbb1884559",
}

# Full ciphertexts of the two shortest plaintexts.
CIPHER_SHORT = {
    0: "6465666768696a6b6c6d6e6f70717273176233fde90aecc2950264b1afbc9cc5",
    1: (
        "6465666768696a6b6c6d6e6f70717273646eecc512e44b925d6633ab69d66e15"
        "33"
    ),
}

# length -> (SHA-256 of encrypt_deterministic(cipher_plaintext(length)),
#            its 16-byte SIV nonce).
CIPHER_SIV_VECTORS = {
    0: (
        "6c513f861dd3cec0450276d74fda09b241c7dd2dcb6ea934e49c4b2f3072d510",
        "7367c4562d8d9091ea5534da41e1344f",
    ),
    1: (
        "8c4ae61e97297e70284f43a449526156db1f5791fc6e78eb34679a14df2fcb15",
        "8eb595ae4512c792e18280f3b2b15f3a",
    ),
    36: (
        "4b5f32b862cdec8b3ab424665440ab3ca6234f5e1fe81c1bc6a9423c20c06e9b",
        "7b611277601aa7e5e05832ee05d7643e",
    ),
    2048: (
        "75ddb99fd4f44d462ede8a67d3f16e7c5af92ee4d45871d49b8147d5e07c8b6d",
        "7ee8422891a80d3cbbf52a5b44e331c3",
    ),
}


def cipher_plaintext(length: int) -> bytes:
    return bytes((7 * i + 3) & 0xFF for i in range(length))


class TestOpseGoldens:
    def test_small_domain_full_sweep(self):
        opse = OrderPreservingEncryption(KEY, 16, 1024)
        for pt, (ct, (low, high)) in OPSE_SMALL.items():
            bucket = opse.bucket(pt)
            assert (bucket.low, bucket.high) == (low, high)
            assert opse.encrypt(pt) == ct
            assert opse.decrypt(ct) == pt

    def test_small_domain_uncached(self):
        opse = OrderPreservingEncryption(KEY, 16, 1024, cache_splits=False)
        for pt, (ct, _) in OPSE_SMALL.items():
            assert opse.encrypt(pt) == ct

    def test_paper_parameters(self):
        opse = OrderPreservingEncryption(KEY, 128, 1 << 46)
        for pt, (ct, (low, high)) in OPSE_PAPER.items():
            bucket = opse.bucket(pt)
            assert (bucket.low, bucket.high) == (low, high)
            assert opse.encrypt(pt) == ct
            assert opse.decrypt(ct) == pt

    def test_bucket_table_matches_goldens(self):
        opse = OrderPreservingEncryption(KEY, 16, 1024)
        table = opse.bucket_table()
        assert set(table) == set(range(1, 17))
        for pt, (_, (low, high)) in OPSE_SMALL.items():
            assert (table[pt].low, table[pt].high) == (low, high)


class TestOpmGoldens:
    def test_small_domain(self):
        opm = OneToManyOpm(KEY, 16, 1024)
        for (score, fid), value in OPM_SMALL.items():
            assert opm.map_score(score, fid) == value
            assert opm.invert(value) == score

    def test_small_domain_uncached(self):
        opm = OneToManyOpm(KEY, 16, 1024, cache_buckets=False)
        for (score, fid), value in OPM_SMALL.items():
            assert opm.map_score(score, fid) == value

    def test_paper_parameters(self):
        opm = OneToManyOpm(KEY, 128, 1 << 46)
        for (score, fid), value in OPM_PAPER.items():
            assert opm.map_score(score, fid) == value
            assert opm.invert(value) == score

    def test_batch_matches_goldens(self):
        opm = OneToManyOpm(KEY, 128, 1 << 46)
        items = list(OPM_PAPER)
        assert opm.map_scores(items) == list(OPM_PAPER.values())

    def test_buckets_table_contains_golden_values(self):
        opm = OneToManyOpm(KEY, 16, 1024)
        table = opm.buckets_table()
        for (score, _), value in OPM_SMALL.items():
            assert table[score].low <= value <= table[score].high


class TestTapeGoldens:
    def test_stream_bytes(self):
        for context, hexdigest in TAPE_VECTORS.items():
            assert CoinStream(KEY, context).bytes(48).hex() == hexdigest

    def test_prekeyed_stream_bytes(self):
        tape = KeyedTape(KEY)
        for context, hexdigest in TAPE_VECTORS.items():
            assert tape.stream(context).bytes(48).hex() == hexdigest

    def test_choices(self):
        tape = KeyedTape(KEY)
        for (context, low, high), value in CHOICE_VECTORS.items():
            assert CoinStream(KEY, context).choice(low, high) == value
            assert tape.choice(encode_context(context), low, high) == value


class TestCipherGoldens:
    def test_encrypt_with_nonce(self):
        cipher = SymmetricCipher(KEY)
        for length, hexdigest in CIPHER_VECTORS.items():
            ciphertext = cipher.encrypt(cipher_plaintext(length), CIPHER_NONCE)
            assert len(ciphertext) == length + cipher.overhead_bytes
            assert ciphertext[:16] == CIPHER_NONCE
            assert hashlib.sha256(ciphertext).hexdigest() == hexdigest
        for length, hexbytes in CIPHER_SHORT.items():
            ciphertext = cipher.encrypt(cipher_plaintext(length), CIPHER_NONCE)
            assert ciphertext.hex() == hexbytes

    def test_encrypt_deterministic(self):
        cipher = SymmetricCipher(KEY)
        for length, (hexdigest, nonce) in CIPHER_SIV_VECTORS.items():
            plaintext = cipher_plaintext(length)
            ciphertext = cipher.encrypt_deterministic(plaintext)
            assert cipher.deterministic_nonce(plaintext).hex() == nonce
            assert ciphertext[:16].hex() == nonce
            assert hashlib.sha256(ciphertext).hexdigest() == hexdigest

    def test_decrypt_pinned_ciphertexts(self):
        cipher = SymmetricCipher(KEY)
        for length, hexbytes in CIPHER_SHORT.items():
            plaintext = cipher.decrypt(bytes.fromhex(hexbytes))
            assert plaintext == cipher_plaintext(length)
        for length in CIPHER_VECTORS:
            plaintext = cipher_plaintext(length)
            sealed = cipher.encrypt(plaintext, CIPHER_NONCE)
            assert cipher.decrypt(sealed) == plaintext
            assert cipher.decrypt(cipher.encrypt_deterministic(plaintext)) == (
                plaintext
            )


class TestHgdGoldens:
    def test_quantiles(self):
        for (u, population, successes, draws), value in HGD_VECTORS.items():
            assert hgd_quantile(u, population, successes, draws) == value
            assert (
                hgd_quantile_reference(u, population, successes, draws)
                == value
            )


class TestIndexGolden:
    def test_build_digest(self):
        """End-to-end: the secure index's bytes are pinned exactly."""
        rng = random.Random(99)
        words = [f"kw{i}" for i in range(8)]
        index = InvertedIndex()
        for d in range(12):
            index.add_document(
                f"doc{d}",
                [rng.choice(words) for _ in range(rng.randint(4, 20))],
            )
        key = SchemeKey(
            x=b"x" * 16,
            y=b"y" * 16,
            z=b"z" * 16,
            domain_size=TEST_PARAMETERS.score_levels,
            range_size=TEST_PARAMETERS.range_size,
        )
        built = EfficientRSSE(TEST_PARAMETERS).build_index(key, index)
        h = hashlib.sha256()
        for address, entries in built.secure_index.items():
            h.update(address)
            for entry in entries:
                h.update(entry)
        assert h.hexdigest() == INDEX_DIGEST
