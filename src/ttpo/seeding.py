"""Deterministic derivation of independent per-instance random streams.

Each stream is ``numpy.random.default_rng(stream_seed(...))``: a PCG64
generator seeded through a ``SeedSequence``. Drivers derive a lane chunk's
seeds with ``_stream_seeds``, which hashes the key prefix the chunk shares
once. Every synthetic draw reads one double of its stream, so a stream is
read only through ``_uniforms``, its ``Generator.random(n)``. That rests on
``_pcg64_outputs``, which computes the first raw 64-bit outputs of many
such generators at once, one lane per seed, with the same arithmetic numpy
runs per generator, so drivers read the streams without building a
``Generator`` per instance.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

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
    return _stream_seeds(global_seed, purpose, round_index, [instance_id])[0]


def _stream_seeds(
    global_seed: int, purpose: str, round_index: int, instance_ids: Iterable[str]
) -> list[int]:
    """``stream_seed`` of each id under one (seed, purpose, round) key prefix.

    UTF-8 encodes a concatenation as the concatenation of the encodings, so
    the prefix is hashed once and each id continues a copy of that hash.
    """
    prefix = hashlib.blake2b(f"{global_seed}|{purpose}|{round_index}|".encode(), digest_size=16)
    seeds = []
    for instance_id in instance_ids:
        key = prefix.copy()
        key.update(instance_id.encode())
        seeds.append(int.from_bytes(key.digest(), "big"))
    return seeds


_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1

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


def _pcg64_outputs(seeds: Sequence[int], n: int) -> np.ndarray:
    """Outputs 1..n of ``np.random.default_rng(seed).bit_generator`` per seed.

    The result is ``[len(seeds), n]`` uint64. Lanes step together, one
    128-bit multiply by the PCG64 constant per output.
    """
    out = np.empty((n, len(seeds)), dtype=np.uint64)
    for start in range(0, len(seeds), _LANES):
        _lane_outputs(seeds[start : start + _LANES], out[:, start : start + _LANES])
    return out.T


def _lane_outputs(seeds: Sequence[int], out: np.ndarray) -> None:
    """One pass of ``_pcg64_outputs``, written to ``out`` as ``[outputs, lanes]``."""
    words = _seed_words(seeds)
    # pcg64_set_seed takes words 0-1 as initstate and 2-3 as initseq, high
    # word first: state = 0, inc = initseq << 1 | 1, step, add initstate, step.
    inc_hi = (words[:, 2] << np.uint64(1)) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << np.uint64(1)) | np.uint64(1)
    hi, lo = _add(inc_hi, inc_lo, words[:, 0], words[:, 1])
    hi, lo = _add(*_mul_const(hi, lo, _PCG_MULT), inc_hi, inc_lo)
    rotate = np.uint64(58)
    for row in out:
        hi, lo = _add(*_mul_const(hi, lo, _PCG_MULT), inc_hi, inc_lo)
        # XSL-RR: rotate the xor of the halves right by the top six bits.
        folded = hi ^ lo
        turn = hi >> rotate
        np.bitwise_or(folded >> turn, folded << ((np.uint64(64) - turn) & np.uint64(63)), out=row)


def _uniforms(seeds: Sequence[int], n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` per seed: ``[len(seeds), n]`` float64.

    ``random()`` is the top 53 bits of the next output over 2**53, so double
    ``j`` is output ``j`` however the stream is split into calls.
    """
    outputs = _pcg64_outputs(seeds, n)
    return np.multiply(outputs >> np.uint64(11), 1.0 / 9007199254740992.0, dtype=np.float64)
