"""Property-based tests on the crypto substrate's core invariants."""

import hashlib
import hmac

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.hgd import hgd_quantile, support
from repro.crypto.opm import OneToManyOpm
from repro.crypto.opse import OrderPreservingEncryption
from repro.crypto.prekeyed import PrekeyedHmac
from repro.crypto.symmetric import SymmetricCipher
from repro.crypto.tape import CoinStream

key_strategy = st.binary(min_size=8, max_size=32)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    key=key_strategy,
    domain_bits=st.integers(min_value=1, max_value=6),
    extra_bits=st.integers(min_value=2, max_value=20),
)
def test_opse_bijective_on_domain(key, domain_bits, extra_bits):
    domain_size = 1 << domain_bits
    opse = OrderPreservingEncryption(
        key, domain_size, 1 << (domain_bits + extra_bits)
    )
    ciphertexts = [opse.encrypt(m) for m in range(1, domain_size + 1)]
    assert len(set(ciphertexts)) == domain_size
    assert ciphertexts == sorted(ciphertexts)
    for plaintext, ciphertext in zip(range(1, domain_size + 1), ciphertexts):
        assert opse.decrypt(ciphertext) == plaintext


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    key=key_strategy,
    scores=st.lists(
        st.integers(min_value=1, max_value=32), min_size=2, max_size=10
    ),
    file_ids=st.lists(
        st.text(min_size=1, max_size=8), min_size=2, max_size=10, unique=True
    ),
)
def test_opm_pairwise_order(key, scores, file_ids):
    opm = OneToManyOpm(key, 32, 1 << 26)
    pairs = [
        (score, opm.map_score(score, file_ids[i % len(file_ids)]))
        for i, score in enumerate(scores)
    ]
    for score_a, value_a in pairs:
        for score_b, value_b in pairs:
            if score_a < score_b:
                assert value_a < value_b


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    key=key_strategy,
    score=st.integers(min_value=1, max_value=32),
    file_id=st.text(min_size=1, max_size=16),
)
def test_opm_inversion_total(key, score, file_id):
    opm = OneToManyOpm(key, 32, 1 << 26)
    assert opm.invert(opm.map_score(score, file_id)) == score


@settings(max_examples=40, deadline=None)
@given(
    key=key_strategy,
    message=st.binary(max_size=300),
)
def test_cipher_roundtrip_any_key_any_message(key, message):
    cipher = SymmetricCipher(key)
    assert cipher.decrypt(cipher.encrypt(message)) == message


@settings(max_examples=40, deadline=None)
@given(
    population=st.integers(min_value=1, max_value=10**9),
    data=st.data(),
)
def test_hgd_quantile_respects_support(population, data):
    successes = data.draw(st.integers(min_value=0, max_value=min(population, 200)))
    draws = data.draw(st.integers(min_value=0, max_value=population))
    u = data.draw(st.floats(min_value=0.0, max_value=0.999999))
    lo, hi = support(population, successes, draws)
    assert lo <= hgd_quantile(u, population, successes, draws) <= hi


@settings(max_examples=30, deadline=None)
@given(
    key=key_strategy,
    context=st.lists(
        st.one_of(st.integers(), st.text(max_size=10), st.binary(max_size=10)),
        max_size=5,
    ),
    lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                     max_size=5),
)
def test_coinstream_chunking_invariance(key, context, lengths):
    total = sum(lengths)
    whole = CoinStream(key, context).bytes(total)
    stream = CoinStream(key, context)
    pieces = b"".join(stream.bytes(length) for length in lengths)
    assert pieces == whole


@settings(max_examples=200, deadline=None)
@given(
    # 1-130 bytes: shorter than, exactly and longer than the 64-byte
    # SHA-256 block (long keys are hashed first).
    key=st.one_of(
        st.binary(min_size=1, max_size=130),
        st.binary(min_size=64, max_size=64),
    ),
    prefix=st.binary(max_size=80),
    # Messages on both sides of the 64-byte block boundary.
    messages=st.lists(st.binary(max_size=200), min_size=1, max_size=4),
)
def test_prekeyed_hmac_equals_stdlib_hmac(key, prefix, messages):
    mac = PrekeyedHmac(key, prefix)
    for message in messages:
        assert mac.digest(message) == (
            hmac.new(key, prefix + message, hashlib.sha256).digest()
        )
