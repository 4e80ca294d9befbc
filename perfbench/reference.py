"""Reference byte kernels, written from the specifications alone.

The benchmark predicts every store's contents with these functions and
compares them with what the simulator wrote.  None of them shares code
with the library, so a kernel rewrite in the library that changes output
bytes shows up as a failed check instead of as a faster run.
"""

from __future__ import annotations

import itertools

_GRAY_TABLE = bytes(b // 2 for b in range(256))

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def grayscale(data: bytes) -> bytes:
    """Every byte halved (integer division)."""
    return data.translate(_GRAY_TABLE)


def blur(data: bytes) -> bytes:
    """Mean of each byte and its two neighbours, the ends repeating themselves."""
    if not data:
        return b""
    left = data[:1] + data[:-1]
    right = data[1:] + data[-1:]
    return bytes((a + b + c) // 3 for a, b, c in zip(left, data, right))


def rle(data: bytes) -> bytes:
    """(count, byte) pairs, runs longer than 255 split into 255-long pieces."""
    out = bytearray()
    for byte, group in itertools.groupby(data):
        run = sum(1 for _ in group)
        while run:
            piece = min(run, 255)
            out += bytes((piece, byte))
            run -= piece
    return bytes(out)


def cipher(data: bytes, passphrase: str) -> bytes:
    """XOR with the FNV-1a-seeded LCG keystream (its own inverse).

    The low byte of an LCG modulo 2**64 depends only on the previous low
    byte, so the keystream repeats every 256 bytes; one period is computed
    and tiled.
    """
    state = _FNV_OFFSET
    for byte in passphrase.encode("utf-8"):
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    period = bytearray(256)
    for i in range(256):
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        period[i] = state & 0xFF
    stream = (bytes(period) * (len(data) // 256 + 1))[:len(data)]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


# registry key in the blueprints -> reference kernel
FUNCTIONS = {
    "img-grayscale-nifi": grayscale,
    "img-blur-nifi": blur,
    "azure-compress": rle,
}
