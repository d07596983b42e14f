"""Deterministic derivation of independent per-instance random streams.

Each stream is ``numpy.random.default_rng(stream_seed(...))``: a PCG64
generator seeded through a ``SeedSequence``. ``_pcg64_outputs`` computes the
raw 64-bit outputs of many such generators at once, one lane per seed, with
the same arithmetic numpy runs per generator, so drivers read the streams
without building a ``Generator`` per instance.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np


def stream_seed(global_seed: int, purpose: str, round_index: int, instance_id: str) -> int:
    """Derive a child seed from a global seed and a structured stream key.

    Streams are keyed by what they feed (``purpose``, e.g. one experiment
    arm), the round of a multi-round run, and the instance, so changing one
    instance's parameters or adding instances never perturbs any other
    stream. The 128-bit digest feeds ``numpy.random.default_rng`` directly.
    """
    key = f"{global_seed}|{purpose}|{round_index}|{instance_id}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=16).digest(), "big")


_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# The 128-bit LCG multiplier of PCG64.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Lanes per pass of the generator. Its cost per lane falls with width while
# per-op overhead dominates (about 37 us per lane for 96 outputs at 128
# lanes, 5.5 at 2,000, 3.7 at 4,096 on a 2-vCPU host), so callers hand it a
# whole corpus, or chunks this wide, never one kernel block at a time.
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


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed: ``[B, 4]``.

    A seed is hashed as its little-endian 32-bit words. A seed below 2**96
    has fewer than four, and SeedSequence hashes the missing words as 0, so
    padding every seed to four words gives the same pool.
    """
    raw = b"".join(seed.to_bytes(16, "little") for seed in seeds)
    entropy = np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(-1, 4).T
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


def _mul_const(hi: np.ndarray, lo: np.ndarray, const: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo) * const`` modulo 2**128.

    The high word is ``hi * c_lo + lo * c_hi`` (mod 2**64) plus the carry of
    ``lo * c_lo``, which is built from 32-bit limbs so no product overflows.
    """
    c_lo, c_hi = const & _MASK64, const >> 64
    b0, b1 = np.uint64(c_lo & _MASK32), np.uint64(c_lo >> 32)
    shift, mask = np.uint64(32), np.uint64(_MASK32)
    a0 = lo & mask
    a1 = lo >> shift
    p01 = a0 * b1
    p10 = a1 * b0
    mid = ((a0 * b0) >> shift) + (p01 & mask) + (p10 & mask)
    high = a1 * b1 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)
    high += hi * np.uint64(c_lo) + lo * np.uint64(c_hi)
    return high, lo * np.uint64(c_lo)


def _add(
    hi: np.ndarray, lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    low = lo + b_lo
    return hi + b_hi + (low < b_lo), low


def _jump(steps: int) -> tuple[int, int]:
    """(A, C) with ``steps`` LCG steps equal to ``s * A + inc * C`` (mod 2**128)."""
    mult, total = 1, 0
    for _ in range(steps):
        total = (total * _PCG_MULT + 1) & _MASK128
        mult = mult * _PCG_MULT & _MASK128
    return mult, total


def _pcg64_outputs(seeds: Sequence[int], spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """Raw outputs of ``np.random.default_rng(seed).bit_generator`` per seed.

    ``spans`` lists ``(first, count)`` runs of 1-based output positions in
    increasing order; the result is ``[len(seeds), sum(counts)]`` uint64
    with the runs side by side. Lanes step together, one 128-bit multiply
    by the PCG64 constant per output, and jump only across unread outputs.
    """
    total = sum(count for _, count in spans)
    out = np.empty((total, len(seeds)), dtype=np.uint64)
    for start in range(0, len(seeds), _LANES):
        _lane_outputs(seeds[start : start + _LANES], spans, out[:, start : start + _LANES])
    return out.T


def _lane_outputs(
    seeds: Sequence[int], spans: Sequence[tuple[int, int]], out: np.ndarray
) -> None:
    """One pass of ``_pcg64_outputs``, written to ``out`` as ``[outputs, lanes]``."""
    words = _seed_words(seeds)
    # pcg64_set_seed takes words 0-1 as initstate and 2-3 as initseq, high
    # word first: state = 0, inc = initseq << 1 | 1, step, add initstate, step.
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    hi, lo = _add(inc_hi, inc_lo, words[:, 0], words[:, 1])
    hi, lo = _add(*_mul_const(hi, lo, _PCG_MULT), inc_hi, inc_lo)
    position, row = 0, 0
    rotate = np.uint64(58)
    for first, count in spans:
        if first - 1 > position:
            mult, addend = _jump(first - 1 - position)
            hi, lo = _add(*_mul_const(hi, lo, mult), *_mul_const(inc_hi, inc_lo, addend))
        for _ in range(count):
            hi, lo = _add(*_mul_const(hi, lo, _PCG_MULT), inc_hi, inc_lo)
            # XSL-RR: rotate the xor of the halves right by the top six bits.
            folded = hi ^ lo
            turn = hi >> rotate
            np.bitwise_or(
                folded >> turn, folded << ((np.uint64(64) - turn) & np.uint64(63)), out=out[row]
            )
            row += 1
        position = first - 1 + count


def _doubles(outputs: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each output: its top 53 bits over 2**53."""
    return np.multiply(outputs >> np.uint64(11), 1.0 / 9007199254740992.0, dtype=np.float64)


def _halves(outputs: np.ndarray) -> np.ndarray:
    """The 32-bit words ``next_uint32`` hands out: each output's low half, then its high."""
    words = np.empty((*outputs.shape[:-1], 2 * outputs.shape[-1]), dtype=np.uint64)
    np.bitwise_and(outputs, np.uint64(_MASK32), out=words[..., 0::2])
    np.right_shift(outputs, np.uint64(32), out=words[..., 1::2])
    return words


def _lemire(words: np.ndarray, bound: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's 32-bit Lemire draw in ``[0, bound)`` from each word, and where it rejects.

    ``bound`` is below 2**32. A rejected draw makes numpy read one more
    word, shifting every later draw of that stream, so its value here is
    not numpy's.
    """
    bound = np.asarray(bound, dtype=np.uint64)
    product = words * bound
    rejected = (product & np.uint64(_MASK32)) < (np.uint64(1 << 32) - bound) % bound
    product >>= np.uint64(32)
    return product.view(np.int64), rejected
