"""``default_rng(seed).random()`` for a whole array of seeds at once.

random_for_seeds() runs, in uint64 numpy arithmetic over the seed array, the
steps numpy takes for one seed below 2**32: SeedSequence's entropy mix (one
entropy word, pool size 4), generate_state(4, uint64), PCG64's seeding and
one PCG64 draw (the 128-bit LCG step with XSL-RR output, not PCG64DXSM), then
next_double's ``(x >> 11) * 2**-53``.  NEP 19 keeps these streams fixed across
numpy versions; the tests that hold this module equal to default_rng bit for
bit are the guard if numpy ever changes what default_rng builds.

Every constant and operand is an explicit np.uint64, so numpy's legacy
value-based casting and NEP 50 promotion give the same dtypes.  The tests
have been run on numpy 2.4.6 only, not on the older versions (from 1.24)
that pyproject.toml allows.  Seeds of 2**32 or more take more than one
entropy word and are not handled here.  The one caller is verify's Born
check, whose shot seeds all lie in range; measure() takes a caller's seed,
so it draws its variate from default_rng(seed) itself.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_SHIFT16, _SHIFT32 = _U(16), _U(32)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U(0xCA01F9DD), _U(0x4973F715)
_POOL = 4
# PCG64's 128-bit LCG multiplier as (high, low) words.
_PCG_MULT = (_U(0x2360ED051FC65DA4), _U(0x4385DF649FCCF645))


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint64, np.uint64]]:
    """(xor, multiply) operands of SeedSequence's successive hashes, from one running constant."""
    pairs = []
    for _ in range(count):
        nxt = init * mult & 0xFFFFFFFF
        pairs.append((_U(init), _U(nxt)))
        init = nxt
    return pairs


_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(value: np.ndarray, xor: np.uint64, mult: np.uint64) -> np.ndarray:
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _SHIFT16)


def _mul128(a: tuple[np.ndarray, np.ndarray], b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) of a * b mod 2**128; al * bl's high word is summed from 32-bit limbs."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> _SHIFT32, al & _MASK32, bl >> _SHIFT32, bl & _MASK32
    middle = (a0 * b0 >> _SHIFT32) + (a1 * b0 & _MASK32) + (a0 * b1 & _MASK32)
    high = a1 * b1 + (a1 * b0 >> _SHIFT32) + (a0 * b1 >> _SHIFT32) + (middle >> _SHIFT32)
    return high + ah * bl + al * bh, al * bl


def _add128(a: tuple[np.ndarray, np.ndarray], b: tuple) -> tuple[np.ndarray, np.ndarray]:
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]).astype(np.uint64), low


def _seed_state(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64) for each seed, as four word arrays."""
    # mix_entropy: hash the entropy word and three zero words into the pool,
    # then mix a fresh hash of every word into every other one.
    hashes = iter(_HASH_A)
    pool = [_hash(seeds, *next(hashes))]
    pool += [_hash(np.zeros_like(seeds), *next(hashes)) for _ in range(_POOL - 1)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed = _hash(pool[src], *next(hashes))
                mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32
                pool[dst] = mixed ^ (mixed >> _SHIFT16)
    # generate_state: eight 32-bit words from the pool in turn, paired low word
    # first as they are made, so no more than two are held at once.
    state = []
    for k in range(0, 2 * _POOL, 2):
        low = _hash(pool[k % _POOL], *_HASH_B[k])
        high = _hash(pool[(k + 1) % _POOL], *_HASH_B[k + 1])
        state.append(low | high << _SHIFT32)
    return state


def random_for_seeds(seeds) -> np.ndarray:
    """float64 array: ``default_rng(s).random()`` for each seed s, all in [0, 2**32)."""
    state = _seed_state(np.asarray(seeds, dtype=np.uint64))
    # PCG64 seeding, srandom(initstate, initseq): state = 0, inc = initseq << 1 | 1,
    # step, state += initstate, step; then random() steps once more and outputs.
    initstate, initseq = (state[0], state[1]), (state[2], state[3])
    inc = (initseq[0] << _U(1) | initseq[1] >> _U(63), initseq[1] << _U(1) | _U(1))
    lcg = _add128(_mul128(_add128(inc, initstate), _PCG_MULT), inc)
    high, low = _add128(_mul128(lcg, _PCG_MULT), inc)
    # XSL-RR: xor the halves, rotate right by the top 6 bits of the state.
    xored, rot = high ^ low, high >> _U(58)
    output = xored >> rot | xored << (-rot & _U(63))
    return (output >> _U(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
