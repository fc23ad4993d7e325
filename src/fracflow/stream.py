"""Seeded draws, equal bit for bit to numpy's ``default_rng(seed)``.

numpy's own generator lives in its ``random`` subpackage, whose import
loads ``secrets``, ``hashlib`` and OpenSSL: about 6 MiB of resident memory
and 15 ms, more than a run spends drawing.  This module reproduces the same
stream with plain numpy and Python ints:

* numpy's ``SeedSequence`` hashes the seed's 32-bit words into a pool of
  four and expands the pool into PCG64's 128-bit state and increment;
* PCG64 (O'Neill, "PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation",
  HMC-CS-2014-0905) steps a 128-bit LCG and outputs the XSL-RR permutation
  of each new state;
* ``uniform`` scales the top 53 bits of an output, and ``integers`` draws
  Lemire's bounded integer ("Fast random integer generation in an
  interval", ACM TOMACS 2019) from 32-bit halves, keeping the unused upper
  half for the next 32-bit draw as numpy's PCG64 does.

An array of n outputs is one 128-bit affine map on uint64 halves: the
state k steps ahead is ``s_k = A_k s_0 + C_k``, and each stream keeps the
jump constants ``(A_k, C_k)``, k = 1..n, for the longest draw so far, up to
``_MAX_JUMP`` = 4096 columns (128 KiB); a longer draw runs in chunks of that
many.  The table grows by doubling (``A_{m+j} = A_j A_m``,
``C_{m+j} = A_j C_m + C_j``), so n draws take log2(n) array rounds once, not
n Python steps, and every later draw of at most n takes one.

Callers import this module where they draw, so a command that draws nothing
(``converge`` on bump data, say) never loads it.  Without a bytecode cache
every command compiles its modules from source: this one takes 1.4 ms
and a 0.5 MiB heap transient, 0.1-0.2 MiB of a run's peak RSS.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# most jump columns a stream keeps: 4 x 4096 uint64, 128 KiB
_MAX_JUMP = 4096

# numpy's SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _pcg_seed(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding from SeedSequence(seed)."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const, pool = _INIT_A, []
    for i in range(_POOL):
        word, const = _hashmix(words[i] if i < len(words) else 0, const)
        pool.append(word)
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                word, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in words[_POOL:]:
        for i_dst in range(_POOL):
            word, const = _hashmix(extra, const)
            pool[i_dst] = _mix(pool[i_dst], word)
    # generate_state(4, uint64): eight words, paired little-endian
    const, state = _INIT_B, []
    for i in range(8):
        word = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        state.append(word ^ (word >> 16))
    u64 = [state[2 * j] | state[2 * j + 1] << 32 for j in range(4)]
    init_state, init_seq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
    inc = (init_seq << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
    return ((inc + init_state) * _MULT + inc) & _MASK128, inc


def _affine(hi: np.ndarray, lo: np.ndarray, a: int, c_hi,
            c_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a s + c mod 2^128`` for each ``s = hi 2^64 + lo`` and
    ``c = c_hi 2^64 + c_lo`` (uint64 arrays or scalars)."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _MASK64)
    # the high word of lo * a_lo, from 32 x 32-bit products that fit 64 bits
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    x0, x1 = lo & m32, lo >> s32
    y0, y1 = a_lo & m32, a_lo >> s32
    t = x1 * y0 + ((x0 * y0) >> s32)
    w = (t & m32) + x0 * y1
    carry = x1 * y1 + (t >> s32) + (w >> s32)
    prod_lo = lo * a_lo
    out_lo = prod_lo + c_lo
    out_hi = carry + lo * a_hi + hi * a_lo + c_hi + (out_lo < prod_lo)
    return out_hi, out_lo


class Stream:
    """The draws of numpy's ``default_rng(seed)``, in the same order:
    ``uniform`` as ``Generator.uniform`` and ``integers`` as
    ``Generator.integers`` for ranges below 2^32."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._state, inc = _pcg_seed(seed)
        self._upper = None      # a 64-bit output's upper half, not yet drawn
        # rows: the halves of A_k and C_k (s_k = A_k s_0 + C_k), column k - 1
        self._jump = np.array([[_MULT >> 64], [_MULT & _MASK64],
                               [inc >> 64], [inc & _MASK64]], dtype=np.uint64)

    def _jumps(self, n: int) -> np.ndarray:
        """The kept jump constants of k = 1..n, grown by doubling."""
        jump = self._jump
        while jump.shape[1] < n:
            m = jump.shape[1]
            a_m, c_m = (int(jump[i, -1]) << 64 | int(jump[i + 1, -1])
                        for i in (0, 2))
            a_hi, a_lo, c_hi, c_lo = jump[:, :min(m, n - m)]
            new = (*_affine(a_hi, a_lo, a_m, 0, 0),
                   *_affine(a_hi, a_lo, c_m, c_hi, c_lo))
            jump = np.concatenate((jump, np.stack(new)), axis=1)
        self._jump = jump
        return jump[:, :n]

    def _next64(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs, at most ``_MAX_JUMP`` per map."""
        out = np.empty(n, dtype=np.uint64)
        for start in range(0, n, _MAX_JUMP):
            a_hi, a_lo, c_hi, c_lo = self._jumps(min(_MAX_JUMP, n - start))
            # multiplication commutes: A_k s_0 is the array A_k times s_0
            hi, lo = _affine(a_hi, a_lo, self._state, c_hi, c_lo)
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            x, rot = hi ^ lo, hi >> 58
            out[start:start + hi.size] = (x >> rot) | (x << ((64 - rot) & 63))
        return out

    def _next32(self) -> int:
        if self._upper is not None:
            out, self._upper = self._upper, None
            return out
        x = int(self._next64(1)[0])
        self._upper = x >> 32
        return x & _MASK32

    def uniform(self, low, high, size: int | None = None):
        """``low + (high - low) u`` with u uniform on [0, 1) in steps of
        2^-53; a float for scalar bounds and no size, else an array.
        Raises ValueError when high - low is not finite."""
        low = np.asarray(low, dtype=float)
        with np.errstate(over="ignore"):
            span = np.asarray(high, dtype=float) - low
        if not np.all(np.isfinite(span)):
            raise ValueError("uniform: high - low is not finite")
        shape = span.shape if size is None else (size,)
        top53 = self._next64(math.prod(shape))
        top53 >>= 11            # in place: a long draw holds one array fewer
        out = low + span * (top53 * 2.0 ** -53).reshape(shape)
        return float(out) if out.ndim == 0 else out

    def integers(self, low: int, high: int) -> int:
        """An integer uniform on [low, high), ``high - low < 2^32``."""
        rng = high - low - 1
        if not 0 <= rng < _MASK32:
            raise ValueError("integers: need 0 < high - low < 2^32")
        if rng == 0:
            return low
        excl = rng + 1
        m = self._next32() * excl
        if (m & _MASK32) < excl:
            threshold = (_MASK32 - rng) % excl
            while (m & _MASK32) < threshold:
                m = self._next32() * excl
        return low + (m >> 32)
