"""Passphrase-keyed payload transform used by Encrypt/Decrypt blocks.

The keystream is bit-exact and portable: seed x0 with the FNV-1a-64 hash
of the passphrase bytes, step x with the 64-bit linear congruential
generator x' = x * 6364136223846793005 + 1442695040888963407 (mod 2^64),
and take the low byte of each step.  Ciphertext is plaintext XOR
keystream, so decryption is the identical operation.
"""

from __future__ import annotations

from itertools import accumulate

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_PERIOD = 256

# The low byte of x' depends only on the low byte b of x: b' = 45 * b + 79
# (mod 256), the constants' low bytes.  As 45 % 4 == 1 and 79 is odd, the
# Hull-Dobell theorem makes that map one cycle through all 256 values, so
# every keystream is this cycle entered at its first byte.  It is stored
# twice over, so a period from any entry is one slice.
_CYCLE = bytes(accumulate(range(2 * _PERIOD - 1),
                          lambda b, _: (b * _LCG_MULT + _LCG_INC) & 0xFF, initial=0))


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash of `data`."""
    value = FNV_OFFSET_BASIS
    for byte in data:
        value = ((value ^ byte) * FNV_PRIME) & _MASK64
    return value


def cipher_key(passphrase) -> str:
    """The text a passphrase property value keys the cipher with.

    Values that key the same stream are the same passphrase: `7` and `"7"`
    agree, and an unset passphrase is the empty one.
    """
    return str(passphrase or "")


def _keystream(passphrase: str, length: int) -> bytes:
    first = (fnv1a_64(passphrase.encode("utf-8")) * _LCG_MULT + _LCG_INC) & 0xFF
    entry = _CYCLE.index(first)
    period = _CYCLE[entry:entry + _PERIOD]
    return (period * (length // _PERIOD + 1))[:length]


def encrypt_bytes(payload: bytes, passphrase: str) -> bytes:
    """XOR `payload` with the passphrase-derived keystream."""
    length = len(payload)
    stream = _keystream(passphrase, length)
    return (int.from_bytes(payload, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(length, "little")


def decrypt_bytes(payload: bytes, passphrase: str) -> bytes:
    """Inverse of encrypt_bytes (XOR is an involution)."""
    return encrypt_bytes(payload, passphrase)
