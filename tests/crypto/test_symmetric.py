"""Unit tests for the semantically secure cipher ``E``."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.symmetric import SymmetricCipher, random_bytes_like_ciphertext
from repro.errors import CryptoError, IntegrityError, ParameterError

KEY = b"sym-test-key-456"


class TestRoundtrip:
    def test_empty_plaintext(self):
        cipher = SymmetricCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_short_plaintext(self):
        cipher = SymmetricCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(b"hi")) == b"hi"

    def test_long_plaintext(self):
        cipher = SymmetricCipher(KEY)
        message = bytes(range(256)) * 100
        assert cipher.decrypt(cipher.encrypt(message)) == message

    @given(st.binary(min_size=0, max_size=500))
    def test_roundtrip_property(self, message):
        cipher = SymmetricCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(message)) == message


class TestRandomization:
    def test_equal_plaintexts_give_distinct_ciphertexts(self):
        cipher = SymmetricCipher(KEY)
        assert cipher.encrypt(b"same") != cipher.encrypt(b"same")

    def test_fixed_nonce_is_deterministic(self):
        cipher = SymmetricCipher(KEY)
        nonce = b"n" * 16
        assert cipher.encrypt(b"m", nonce) == cipher.encrypt(b"m", nonce)

    def test_rejects_bad_nonce_length(self):
        with pytest.raises(ParameterError):
            SymmetricCipher(KEY).encrypt(b"m", nonce=b"short")


class TestIntegrity:
    def test_flipped_body_bit_detected(self):
        cipher = SymmetricCipher(KEY)
        ciphertext = bytearray(cipher.encrypt(b"attack at dawn"))
        ciphertext[20] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(ciphertext))

    def test_flipped_nonce_bit_detected(self):
        cipher = SymmetricCipher(KEY)
        ciphertext = bytearray(cipher.encrypt(b"attack at dawn"))
        ciphertext[0] ^= 0x80
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(ciphertext))

    def test_truncated_tag_detected(self):
        cipher = SymmetricCipher(KEY)
        ciphertext = cipher.encrypt(b"msg")
        # XOR rather than overwrite: a fixed replacement byte collides
        # with the genuine tag byte once in 256 random nonces.
        tampered = ciphertext[:-1] + bytes([ciphertext[-1] ^ 0xFF])
        with pytest.raises(IntegrityError):
            cipher.decrypt(tampered)

    def test_every_single_bit_flip_detected(self):
        """One flipped bit anywhere — nonce, body or tag — fails."""
        cipher = SymmetricCipher(KEY)
        ciphertext = cipher.encrypt(bytes(range(36)))
        for bit in range(8 * len(ciphertext)):
            tampered = bytearray(ciphertext)
            tampered[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(IntegrityError):
                cipher.decrypt(bytes(tampered))

    def test_wrong_key_detected(self):
        ciphertext = SymmetricCipher(KEY).encrypt(b"msg")
        with pytest.raises(IntegrityError):
            SymmetricCipher(b"other-key-000000").decrypt(ciphertext)

    def test_too_short_ciphertext(self):
        with pytest.raises(CryptoError):
            SymmetricCipher(KEY).decrypt(b"tiny")

    def test_random_bytes_fail_authentication(self):
        cipher = SymmetricCipher(KEY)
        blob = random_bytes_like_ciphertext(64)
        with pytest.raises(CryptoError):
            cipher.decrypt(blob)


class TestLengths:
    def test_constant_overhead(self):
        cipher = SymmetricCipher(KEY)
        for size in (0, 1, 10, 1000):
            assert len(cipher.encrypt(b"x" * size)) == size + cipher.overhead_bytes

    def test_ciphertext_length_helper(self):
        cipher = SymmetricCipher(KEY)
        assert cipher.ciphertext_length(40) == len(cipher.encrypt(b"y" * 40))

    def test_ciphertext_length_rejects_negative(self):
        with pytest.raises(ParameterError):
            SymmetricCipher(KEY).ciphertext_length(-1)

    def test_dummy_generator_length(self):
        assert len(random_bytes_like_ciphertext(77)) == 77

    def test_dummy_generator_rejects_negative(self):
        with pytest.raises(ParameterError):
            random_bytes_like_ciphertext(-1)


class TestIntEncoding:
    def test_roundtrip(self):
        cipher = SymmetricCipher(KEY)
        for value in (0, 1, 12345, 2**63):
            assert cipher.decrypt_int(cipher.encrypt_int(value)) == value

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            SymmetricCipher(KEY).encrypt_int(-1)

    def test_rejects_too_large(self):
        with pytest.raises(ParameterError):
            SymmetricCipher(KEY).encrypt_int(1 << 64)

    def test_decrypt_int_rejects_wrong_width(self):
        cipher = SymmetricCipher(KEY)
        ciphertext = cipher.encrypt(b"not-eight-bytes!!")
        with pytest.raises(CryptoError):
            cipher.decrypt_int(ciphertext)


class TestKeySeparation:
    def test_rejects_empty_key(self):
        with pytest.raises(ParameterError):
            SymmetricCipher(b"")

    def test_distinct_keys_distinct_streams(self):
        nonce = b"n" * 16
        a = SymmetricCipher(b"a" * 16).encrypt(b"m" * 32, nonce)
        b = SymmetricCipher(b"b" * 16).encrypt(b"m" * 32, nonce)
        assert a != b
