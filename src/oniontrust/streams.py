"""Spawned numpy streams, derived many at a time.

A simulation round r reads two streams, numpy's
default_rng(SeedSequence(seed, spawn_key=(key, r, child))) for child 0 and
1. Building those SeedSequences and Generators one round at a time costs
about 70 µs a round. spawned_states derives the same PCG64 states itself:
it runs SeedSequence's uint32 hash (numpy's bit_generator.pyx, after
O'Neill's seed_seq design) on STATE_CHUNK rounds at once as numpy array
operations, then seeds each state as PCG64 does, in Python ints mod 2**128.
A caller sets the states on Generators it reuses.

The hash constants stay masked Python ints and enter the uint32 arrays as
np.uint32, so every product wraps silently, as in numpy. The first state
of a call is checked against numpy's own, so a numpy whose SeedSequence
differs fails loudly instead of changing every stream.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Rounds that spawned_states hashes in one vectorized pass. The pass costs
#: about as much for 20 rounds as for 1024.
STATE_CHUNK = 1024

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> List[int]:
    """value's 32-bit words, least significant first, as SeedSequence splits
    an int ([0] for 0)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(columns: List[np.ndarray]) -> np.ndarray:
    """SeedSequence's generate_state(4, np.uint64), (rows, 4), for each row
    of an assembled entropy given by columns: one uint32 array per entropy
    word, of length 1 where every row shares the word. At least _POOL_SIZE
    words. This is mix_entropy and generate_state run on all rows at once.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> _SHIFT)

    pool = [hashmix(word) for word in columns[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):  # four uint64, low uint32 first
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ (value >> _SHIFT)).astype(np.uint64))
    return np.stack([words[k + 1] << np.uint64(32) | words[k] for k in range(0, 8, 2)], axis=1)


def _pcg64_state(words: List[int]) -> dict:
    """The PCG64 state seeded by four generate_state words: pcg64_set_seed's
    two LCG steps, mod 2**128."""
    hi, lo, inc_hi, inc_lo = words
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = (((hi << 64 | lo) + inc) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def spawned_states(seed: int, key: int, indices: range):
    """Yield, for each r in indices (step 1, r < 2**64), the PCG64 states
    of default_rng(SeedSequence(seed, spawn_key=(key, r, child))) for child
    0 and 1: the children that SeedSequence(seed, spawn_key=(key,
    r)).spawn(2) would make.

    STATE_CHUNK rounds are hashed at a time, split where r gains a
    spawn-key word (at 2**32); a state is built as its round is reached.
    """
    run = _uint32_words(seed)
    # SeedSequence pads short run entropy when there is a spawn key
    run += [0] * (_POOL_SIZE - len(run))
    head = [np.array([word], dtype=np.uint32) for word in run + _uint32_words(key)]
    for start in range(indices.start, indices.stop, STATE_CHUNK):
        stop = min(start + STATE_CHUNK, indices.stop)
        lo = start
        while lo < stop:
            size = len(_uint32_words(lo))
            hi = min(stop, 1 << 32 * size)
            r = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
            words = [np.repeat((r >> np.uint64(32 * k)).astype(np.uint32), 2)
                     for k in range(size)]
            child = np.tile(np.array([0, 1], dtype=np.uint32), hi - lo)
            seeds = _seed_words(head + words + [child])
            if lo == indices.start:
                want = np.random.PCG64(np.random.SeedSequence(
                    seed, spawn_key=(key, lo, 0))).state
                if _pcg64_state(seeds[0].tolist()) != want:
                    raise RuntimeError(
                        "numpy's SeedSequence no longer gives the streams derived "
                        "here (seed %d, spawn key (%d, %d, 0))" % (seed, key, lo)
                    )
            for first, second in zip(seeds[0::2], seeds[1::2]):
                yield _pcg64_state(first.tolist()), _pcg64_state(second.tolist())
            lo = hi
