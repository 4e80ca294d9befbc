"""Passphrase-keyed payload transform used by Encrypt/Decrypt blocks.

The keystream is bit-exact and portable: seed x0 with the FNV-1a-64 hash
of the passphrase bytes, step x with the 64-bit linear congruential
generator x' = x * 6364136223846793005 + 1442695040888963407 (mod 2^64),
and take the low byte of each step.  Ciphertext is plaintext XOR
keystream, so decryption is the identical operation.
"""

from __future__ import annotations

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_PERIOD = 256


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash of `data`."""
    value = FNV_OFFSET_BASIS
    for byte in data:
        value = ((value ^ byte) * FNV_PRIME) & _MASK64
    return value


def _keystream(passphrase: str, length: int) -> bytes:
    # The low byte of x' depends only on the low byte of x, so the stream
    # repeats every 256 bytes: compute one period and tile it.
    state = fnv1a_64(passphrase.encode("utf-8"))
    period = bytearray(min(length, _PERIOD))
    for i in range(len(period)):
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        period[i] = state & 0xFF
    return bytes(period * (length // _PERIOD + 1))[:length]


def encrypt_bytes(payload: bytes, passphrase: str) -> bytes:
    """XOR `payload` with the passphrase-derived keystream."""
    length = len(payload)
    stream = _keystream(passphrase, length)
    return (int.from_bytes(payload, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(length, "little")


def decrypt_bytes(payload: bytes, passphrase: str) -> bytes:
    """Inverse of encrypt_bytes (XOR is an involution)."""
    return encrypt_bytes(payload, passphrase)
