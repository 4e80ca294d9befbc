import random

import pytest

from toscaflow.crypto import (
    FNV_OFFSET_BASIS,
    cipher_key,
    decrypt_bytes,
    encrypt_bytes,
    fnv1a_64,
)


def oracle_fnv1a_64(data: bytes) -> int:
    # published FNV-1a definition, evaluated directly
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) % 2**64
    return h


def oracle_encrypt(payload: bytes, passphrase: str) -> bytes:
    x = oracle_fnv1a_64(passphrase.encode("utf-8"))
    out = bytearray()
    for byte in payload:
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append(byte ^ (x & 0xFF))
    return bytes(out)


def test_fnv_of_empty_is_offset_basis():
    assert fnv1a_64(b"") == FNV_OFFSET_BASIS == 14695981039346656037


def test_fnv_matches_published_definition():
    for data in (b"", b"a", b"foobar", bytes(range(256))):
        assert fnv1a_64(data) == oracle_fnv1a_64(data)


def test_encrypt_empty_is_empty():
    assert encrypt_bytes(b"", "anything") == b""


def test_involution_on_all_byte_values():
    payload = bytes(range(256))
    assert decrypt_bytes(encrypt_bytes(payload, "a"), "a") == payload


def test_keystream_bit_exact_against_oracle():
    rng = random.Random(7)
    for _ in range(50):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        passphrase = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 8)))
        assert encrypt_bytes(payload, passphrase) == \
            oracle_encrypt(payload, passphrase)


@pytest.mark.parametrize("length", [255, 256, 257, 511, 512, 513, 4097, 65537])
@pytest.mark.parametrize("passphrase", ["", "s3cret", "pässwörd-\u6697\u53f7"])
def test_keystream_bit_exact_past_one_period(length, passphrase):
    # the keystream repeats every 256 bytes; lengths around the period
    # boundaries catch a tiling that is off by one
    rng = random.Random(length)
    payload = bytes(rng.randrange(256) for _ in range(length))
    assert encrypt_bytes(payload, passphrase) == \
        oracle_encrypt(payload, passphrase)


def test_mismatched_passphrase_garbles():
    rng = random.Random(11)
    payload = bytes(rng.randrange(256) for _ in range(16))
    garbled = decrypt_bytes(encrypt_bytes(payload, "right"), "wrong")
    assert garbled != payload


def test_cipher_key_is_the_text_of_the_passphrase():
    assert [cipher_key(v) for v in (7, "7", None, "", 0, "alpha")] == \
        ["7", "7", "", "", "", "alpha"]
    assert encrypt_bytes(b"abc", cipher_key(7)) == encrypt_bytes(b"abc", "7")
