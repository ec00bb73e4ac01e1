"""Deterministic random streams.

Every stochastic component draws from a named substream derived from one
root seed, so adding a new component never perturbs the draws seen by
existing ones — runs stay reproducible and comparable across variants.

:class:`Rng` is a standard-library PCG64 that returns, for every
seed, exactly the floats and ints ``numpy.random.default_rng(seed)``
returns from the same sequence of calls.  It seeds through numpy's
``SeedSequence`` (pool of four 32-bit words) and draws with the 128-bit
XSL-RR output function, keeping numpy's buffered upper half-word for
32-bit draws.  Only the five methods the simulator calls exist; an
argument outside what they cover raises rather than diverging from
numpy.  The repository's tests hold numpy as the oracle.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._ziggurat import EXP_R, FE, KE, WE

__all__ = ["Rng", "RandomStreams"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy.random.SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: Largest population :meth:`Rng.choice` samples without
#: replacement (numpy switches to a tail shuffle above it).
_FLOYD_MAX_POPULATION = 10_000


def _seed_state(seed: int) -> Tuple[int, int]:
    """PCG64's 128-bit initial state and stream from
    ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    words = [state[i] | (state[i + 1] << 32) for i in range(0, 8, 2)]
    return (words[0] << 64) | words[1], (words[2] << 64) | words[3]


class Rng:
    """A PCG64 stream drawing what ``numpy.random.default_rng(seed)`` draws.

    Python values only, one draw per call: ``random()``,
    ``uniform(low, high)``, ``exponential(scale)``,
    ``integers(low[, high])`` for ranges up to 2**32, and
    ``choice(a, size, replace=False)`` (a list) for populations up to
    10,000.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        # pcg_setseq_128_srandom_r: from state 0, one step (which
        # leaves ``inc``), add ``initstate``, one more step.
        self._inc = ((initseq << 1) | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._has_uint32 = False
        self._uinteger = 0

    def _next_uint64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        word = self._next_uint64()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _MASK32

    def _bounded(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` for ``rng < 2**32`` (Lemire rejection)."""
        if rng == 0:
            return 0
        if rng == _MASK32:
            return self._next_uint32()
        rng_excl = rng + 1
        m = self._next_uint32() * rng_excl
        leftover = m & _MASK32
        if leftover < rng_excl:
            threshold = (_MASK32 - rng) % rng_excl
            while leftover < threshold:
                m = self._next_uint32() * rng_excl
                leftover = m & _MASK32
        return m >> 32

    def random(self) -> float:
        """A float on ``[0, 1)`` with 53 random bits."""
        return (self._next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError("uniform() needs a finite range with high >= low")
        return low + span * self.random()

    def exponential(self, scale: float) -> float:
        """``scale`` times a standard exponential (numpy's ziggurat)."""
        if scale < 0:
            raise ValueError("scale < 0")
        while True:
            ri = self._next_uint64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x
            if idx == 0:
                return scale * (EXP_R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An int on ``[low, high)``, or on ``[0, low)`` given one bound."""
        if high is None:
            low, high = 0, low
            if high <= 0:
                raise ValueError("high <= 0")
        elif low >= high:
            raise ValueError("low >= high")
        if high - low > 1 << 32:
            raise NotImplementedError("integers() ranges above 2**32")
        return low + self._bounded(high - low - 1)

    def choice(
        self, a: Union[int, Sequence], size: int, replace: bool = True
    ) -> list:
        """``size`` distinct picks from ``range(a)`` or from sequence ``a``.

        Floyd's algorithm, then a Fisher-Yates shuffle of the picks.
        """
        if replace:
            raise NotImplementedError("only choice(..., replace=False)")
        population = a if isinstance(a, int) else len(a)
        if size > population:
            raise ValueError(
                "Cannot take a larger sample than population when replace is False"
            )
        if population > _FLOYD_MAX_POPULATION:
            raise NotImplementedError("choice() populations above 10,000")
        picks: List[int] = []
        taken = set()
        for j in range(population - size, population):
            value = self._bounded(j)
            if value in taken:
                value = j
            taken.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        if isinstance(a, int):
            return picks
        return [a[i] for i in picks]


class RandomStreams:
    """A factory of independent, named :class:`Rng` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, Rng] = {}

    def stream(self, name: str) -> Rng:
        """Return the generator for ``name``, creating it on first use.

        The substream seed mixes the root seed with a CRC of the name,
        so distinct names give independent streams and the same name
        always gives the same stream.
        """
        gen = self._streams.get(name)
        if gen is None:
            sub_seed = (self.seed << 32) ^ zlib.crc32(name.encode("utf-8"))
            gen = Rng(sub_seed)
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
