"""Deterministic seed derivation.

Every random decision in a run flows from one master seed through
`derive_seed`, which hashes the master seed together with a path of string
or integer labels ("train", round, device, ...). Labelled streams make
results independent of execution order, so a run gives identical output for
any worker count.

`seed_sequence_words` and `pcg64_states` reproduce how numpy seeds
`default_rng(s)`: `SeedSequence(s)` hashes s into four 64-bit words, and
`PCG64` turns those into its starting state. They let a caller set one
reused `PCG64` to the state `default_rng(s)` starts in, for many seeds at
once, without building a `SeedSequence`, a `PCG64` and a `Generator` per
seed. Both follow numpy's algorithms exactly (numpy/random/bit_generator.pyx
and pcg64.h); the tests compare them with numpy itself.
"""

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, as numpy's bit_generator.pyx names them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constant pairs of `count` successive hash steps.

    Each step xors with the running constant, advances it by `mult` and
    multiplies by the new value; the sequence does not depend on the data.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


# mix_entropy hashes the 4 entropy words into the pool, then each pool word
# 3 times, once into each other word; row `src` of the (4, 4) mixing tables
# holds those 3 steps' constants at the other words' columns and an unused 0
# at its own. generate_state makes 8 hash steps.
_POOL_XOR, _POOL_MUL = _hash_constants(_INIT_A, _MULT_A, 16)
_MIX_XOR, _MIX_MUL = (
    np.array([np.insert(consts[4 + 3 * src : 7 + 3 * src], src, 0) for src in range(4)])
    for consts in (_POOL_XOR, _POOL_MUL)
)
_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    value ^= value >> _SHIFT
    return value


def _hash_path(master: int, parts: tuple):
    digest = hashlib.sha256()
    digest.update(str(int(master)).encode("ascii"))
    for part in parts:
        digest.update(b"/")
        digest.update(str(part).encode("utf-8"))
    return digest


def _to_seed(digest) -> int:
    return int.from_bytes(digest.digest()[:8], "big") & _MASK63


def derive_seed(master: int, *parts: int | str) -> int:
    """Map (master seed, label path) to an independent 63-bit seed."""
    return _to_seed(_hash_path(master, parts))


def derive_seeds(master: int, *parts: int | str, count: int) -> list[int]:
    """`derive_seed(master, *parts, k)` for k in range(count), hashing the
    shared prefix once and copying it for each k."""
    prefix = _hash_path(master, parts)
    seeds = []
    for k in range(count):
        digest = prefix.copy()
        digest.update(b"/%d" % k)
        seeds.append(_to_seed(digest))
    return seeds


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is `SeedSequence(seeds[i]).generate_state(4, np.uint64)`.

    `seeds` is a 1-D uint64 array; the result is (n, 4) uint64. A seed
    enters the hash as its low and high 32-bit words, and a seed below
    2**32, which numpy reads as one word, hashes the same as with a zero
    high word, because the pool pads short entropy with hashed zeros.
    """
    # little-endian, so each seed views as its (low, high) 32-bit words
    seeds = np.ascontiguousarray(seeds, dtype="<u8")
    pool = np.zeros((len(seeds), 4), np.uint32)
    pool[:, :2] = seeds.view("<u4").reshape(-1, 2)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    # mix every pool word into every other, source by source
    for src in range(4):
        hashed = _hashmix(pool[:, src, None], _MIX_XOR[src], _MIX_MUL[src])
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> _SHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    # generate_state: cycle the pool twice through the output hash, then
    # pair the 32-bit words little-endian into 64-bit ones
    state = _hashmix(np.tile(pool, 2), _OUT_XOR, _OUT_MUL)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def pcg64_states(words: np.ndarray) -> list[dict]:
    """The `bit_generator.state` that `PCG64(SeedSequence(s))` starts in, for
    each row of `seed_sequence_words`: numpy's pcg64_set_seed."""
    states = []
    for w0, w1, w2, w3 in words.tolist():
        initstate = w0 << 64 | w1
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states
