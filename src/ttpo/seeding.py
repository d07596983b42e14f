"""Deterministic derivation of independent per-instance random streams.

Each stream is ``numpy.random.default_rng(stream_seed(...))``: a PCG64
generator seeded through a ``SeedSequence``. Drivers derive a lane chunk's
seeds with ``_stream_seeds``, which hashes the key prefix the chunk shares
once and keeps each seed as the ``[4]`` uint32 row of its little-endian
words, the form ``SeedSequence`` hashes; no Python int is made per stream.
Every synthetic draw reads one double of its stream, so a stream is read
only through ``_uniforms``, its ``Generator.random(n)``. That rests on
``_pcg64_outputs``, which computes the first raw 64-bit outputs of many
such generators at once, one lane per seed, with the same arithmetic numpy
runs per generator, so drivers read the streams without building a
``Generator`` per instance.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np


def stream_seed(global_seed: int, purpose: str, round_index: int, instance_id: str) -> int:
    """Derive a child seed from a global seed and a structured stream key.

    Streams are keyed by what they feed (``purpose``, e.g. one experiment
    arm), the round of a multi-round run, and the instance, so changing one
    instance's parameters or adding instances never perturbs any other
    stream. The seed is the 128-bit blake2b digest of the UTF-8 key
    ``f"{global_seed}|{purpose}|{round_index}|{instance_id}"``, read
    big-endian, and feeds ``numpy.random.default_rng`` directly.
    """
    words = _stream_seeds(global_seed, purpose, round_index, [instance_id])[0]
    return int.from_bytes(words.astype("<u4").tobytes(), "little")


def _stream_seeds(
    global_seed: int, purpose: str, round_index: int, instance_ids: Iterable[str]
) -> np.ndarray:
    """``stream_seed`` of each id under one (seed, purpose, round) key prefix.

    Row ``i`` is id ``i``'s seed as four uint32 words, least significant
    first: the digest's big-endian words in reverse order. UTF-8 encodes a
    concatenation as the concatenation of the encodings, so the prefix is
    hashed once and each id continues a copy of that hash.
    """
    prefix = hashlib.blake2b(f"{global_seed}|{purpose}|{round_index}|".encode(), digest_size=16)

    def digest(instance_id: str) -> bytes:
        key = prefix.copy()
        key.update(instance_id.encode())
        return key.digest()

    digests = np.frombuffer(b"".join(map(digest, instance_ids)), dtype=">u4")
    return digests.reshape(-1, 4)[:, ::-1].astype(np.uint32)


_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# The 128-bit LCG multiplier of PCG64, as the 64-bit words and the 32-bit
# limbs of its low word that _step multiplies by.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_B0, _MULT_B1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_HALF, _LOW = np.uint64(32), np.uint64(_MASK32)

# Lanes per pass of the generator. Its cost per lane falls with width while
# per-op overhead dominates (about 37 us per lane for 96 outputs at 128
# lanes, 5.5 at 2,000, 3.7 at 4,096 on a 2-vCPU host), so callers hand it a
# whole corpus, or chunks this wide; the drivers decide each chunk in one
# stop_batch call as well.
_LANES = 4096


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The running hash constant after each of ``count`` updates."""
    constants = []
    for _ in range(count):
        init = init * mult & _MASK32
        constants.append(init)
    return constants


# SeedSequence with a pool of four words hashes 4 + 4 * 3 times with the A
# constant while mixing, and 8 times with the B constant while it generates
# the four 64-bit words PCG64 is seeded with.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    """SeedSequence's ``hashmix``, given the hash constant before and after its update."""
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two pool words."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed: ``[B, 4]``.

    ``seeds`` holds each seed as ``_stream_seeds`` does, ``[B, 4]`` uint32
    words, least significant first: SeedSequence hashes a seed as its
    little-endian 32-bit words. A seed below 2**96 has fewer than four, and
    SeedSequence hashes the missing words as 0, so four words per seed give
    the same pool.
    """
    entropy = np.asarray(seeds, dtype=np.uint32).T
    constants = iter(zip([_INIT_A] + _HASH_A, _HASH_A))
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    state = [
        _hashmix(pool[i % 4], before, after)
        for i, (before, after) in enumerate(zip([_INIT_B] + _HASH_B, _HASH_B))
    ]
    return np.stack(
        [
            state[2 * k].astype(np.uint64) | (state[2 * k + 1].astype(np.uint64) << np.uint64(32))
            for k in range(4)
        ],
        axis=1,
    )


def _step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray, scratch: list
) -> None:
    """One PCG64 step of every lane, in place: ``state = state * mult + inc`` mod 2**128.

    The new high word is ``hi * c_lo + lo * c_hi + inc_hi`` (mod 2**64), plus
    the high half of ``lo * c_lo`` and the carry out of the low word. That
    high half is built from 32-bit limbs as in the ``mulhu`` of Warren's
    *Hacker's Delight*: each partial sum is at most ``(2**32 - 1)**2 +
    2**32 - 1``, so none overflows. ``scratch`` holds four uint64 buffers and
    one bool buffer of the lanes' shape, reused by every step.
    """
    a0, a1, t, w, carry = scratch
    np.bitwise_and(lo, _LOW, out=a0)
    np.right_shift(lo, _HALF, out=a1)
    np.multiply(a0, _MULT_B0, out=t)
    t >>= _HALF
    t += np.multiply(a1, _MULT_B0, out=w)
    np.bitwise_and(t, _LOW, out=w)
    a0 *= _MULT_B1
    w += a0
    a1 *= _MULT_B1
    t >>= _HALF
    a1 += t
    w >>= _HALF
    a1 += w
    hi *= _MULT_LO
    hi += np.multiply(lo, _MULT_HI, out=t)
    hi += a1
    lo *= _MULT_LO
    lo += inc_lo
    hi += inc_hi
    hi += np.less(lo, inc_lo, out=carry)


def _pcg64_outputs(seeds: np.ndarray, n: int) -> np.ndarray:
    """Outputs 1..n of ``np.random.default_rng(seed).bit_generator`` per seed.

    ``seeds`` is ``[B, 4]`` seed words, as ``_stream_seeds`` gives. The
    result is ``[B, n]`` uint64. Lanes step together, one 128-bit multiply
    by the PCG64 constant per output.
    """
    out = np.empty((n, len(seeds)), dtype=np.uint64)
    for start in range(0, len(seeds), _LANES):
        _lane_outputs(seeds[start : start + _LANES], out[:, start : start + _LANES])
    return out.T


def _lane_outputs(seeds: np.ndarray, out: np.ndarray) -> None:
    """One pass of ``_pcg64_outputs``, written to ``out`` as ``[outputs, lanes]``.

    The lanes' states step in place, in buffers every output reuses.
    """
    words = _seed_words(seeds)
    # pcg64_set_seed takes words 0-1 as initstate and 2-3 as initseq, high
    # word first: state = 0, inc = initseq << 1 | 1, step, add initstate, step.
    one = np.uint64(1)
    inc_hi = (words[:, 2] << one) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << one) | one
    lo = inc_lo + words[:, 1]
    hi = inc_hi + words[:, 0] + (lo < inc_lo)
    scratch = [np.empty_like(lo) for _ in range(4)] + [np.empty(lo.shape, dtype=bool)]
    # The output reads the step's first three buffers, which each step rewrites.
    folded, turn, right = scratch[:3]
    _step(hi, lo, inc_hi, inc_lo, scratch)
    for row in out:
        _step(hi, lo, inc_hi, inc_lo, scratch)
        # XSL-RR: rotate the xor of the halves right by the top six bits.
        np.bitwise_xor(hi, lo, out=folded)
        np.right_shift(hi, np.uint64(58), out=turn)
        np.right_shift(folded, turn, out=right)
        np.subtract(np.uint64(64), turn, out=turn)
        turn &= np.uint64(63)
        folded <<= turn
        np.bitwise_or(right, folded, out=row)


def _uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` per row of seed words: ``[B, n]`` float64.

    ``random()`` is the top 53 bits of the next output over 2**53, so double
    ``j`` is output ``j`` however the stream is split into calls.
    """
    outputs = _pcg64_outputs(seeds, n)
    return np.multiply(outputs >> np.uint64(11), 1.0 / 9007199254740992.0, dtype=np.float64)
