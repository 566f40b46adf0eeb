"""Exact phases of the GSH family sum.

The family's ordinates are gamma_j = 2t h_j + xi'_j, and its phases
gamma_j u / 2 pi reach 10^17 turns, where a float64 product has no correct
digit.  Both parts are exact floats (2t h_j by the exact range checked in
`family_phases`, xi'_j = gamma_j - 2t h_j by Sterbenz's lemma), so each phase
is reduced exactly instead: theta = frac(t u / pi) once per sample in integer
fixed point, h_j theta mod 1 in wrapping uint64 arithmetic, and xi'_j u / 2 pi
exactly for the few terms where xi'_j is nonzero.  `rotation` turns the
resulting 64-bit turns into cos and sin within 4 2^-53 of their exact values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# floor(2^320 / pi)
INV_PI = 0x517cc1b7_27220a94_fe13abe8_fa9a6ee0_6db14acc_9e21c820_ff28b1d5_ef5de2b0_db92371d_2126e970
INV_PI_BITS = 320

# the exact range: theta is kept to 96 bits as hi 2^32 + lo, so h_j lo < 2^64
# needs h_j < 2^32; below t u = 2^200 the truncation of 1/pi moves no phase by
# 2^-64 of a turn
_THETA_BITS = 96
_H_LIMIT = 1 << 32
_TU_LIMIT = 2.0 ** 200
_LO_SHIFT = np.uint64(_THETA_BITS - 64)

# e(x) = e^(2 pi i x) of a 64-bit turn: the top 12 bits pick a root-table
# entry e((k + 1/2) / 4096), and the rest, y 2^-64 of a turn with
# |y| <= 2^51, is the angle y S of a short Taylor series (to x^4 in cos and
# x^3 in sin; the first term dropped is below 2^-58 at |y S| <= 7.7e-4)
_ROOT_BITS = 12
_ROOT_SHIFT = np.uint64(64 - _ROOT_BITS)
_LOW_MASK = np.uint64((1 << (64 - _ROOT_BITS)) - 1)
_LOW_HALF = float(1 << (63 - _ROOT_BITS))
_S = 2.0 * math.pi / 2.0 ** 64
_COS2, _COS4 = _S * _S / 2.0, _S ** 4 / 24.0
_SIN3 = _S ** 3 / 6.0


class PhaseRangeError(ValueError):
    """A family outside the exact range of the phase reduction."""


def _turns(a: float, ratios, bits: int, halve: bool = False) -> list[int]:
    """floor(frac(a u / pi) 2^bits), or of a u / 2 pi when ``halve``, for
    each u given as ``(n, s)`` with u = n 2^-s: one integer product with
    floor(2^320 / pi), so the result is exact up to the truncation of 1/pi."""
    num, den = float(a).as_integer_ratio()
    k = num * INV_PI
    base = INV_PI_BITS + halve + den.bit_length() - 1 - bits
    mask = (1 << bits) - 1
    return [(k * n) >> (base + s) & mask for n, s in ratios]


class FamilyPhases(NamedTuple):
    """frac(gamma_j u_i / 2 pi) of the family at every sample, as 64-bit
    turns: h_j (t u_i / pi) through theta_i = frac(t u_i / pi) to 96 bits,
    plus xi'_j u_i / 2 pi for the few terms where xi'_j is nonzero."""

    hi: np.ndarray  # top 64 bits of each theta_i
    lo: np.ndarray  # its low 32 bits
    h: np.ndarray  # h_j as uint64
    xi_cols: np.ndarray  # the terms j with xi'_j != 0, ascending
    xi_turns: np.ndarray  # (len(xi_cols), samples) turns of xi'_j u_i / 2 pi

    def turns(self, rows: slice, cols: slice, out=None, scratch=None) -> np.ndarray:
        """The turns of samples ``rows`` by terms ``cols`` (both slices with a
        start and a stop): h_j theta_i mod 2^64 in wrapping uint64, whose
        error is below 2 units, plus the xi' turns of the terms in ``cols``.
        ``out`` and ``scratch`` are optional uint64 arrays of the tile's shape."""
        out = np.multiply.outer(self.hi[rows], self.h[cols], out=out)
        low = np.multiply.outer(self.lo[rows], self.h[cols], out=scratch)
        low >>= _LO_SHIFT
        out += low
        if self.xi_cols.size and cols.start <= self.xi_cols[-1]:
            c0, c1 = np.searchsorted(self.xi_cols, (cols.start, cols.stop))
            out[:, self.xi_cols[c0:c1] - cols.start] += self.xi_turns[c0:c1, rows].T
        return out


def family_phases(t: float, h_values, gam: np.ndarray, us: np.ndarray) -> FamilyPhases:
    """The exact phases of the family gam = 2t h + xi' at the samples us.

    Raises PhaseRangeError outside the exact range: an h_j that is not an
    integer in [0, 2^32), a product 2t h_j that is not exact in float64, an
    xi'_j that Sterbenz's lemma does not make exact (gamma_j outside
    [t h_j, 4t h_j] for h_j >= 1), or t u >= 2^200.
    """
    h = np.asarray(h_values)
    if h.dtype.kind not in "iu" or (h.size and not 0 <= h.min() <= h.max() < _H_LIMIT):
        raise PhaseRangeError("h_j outside [0, 2^32), the phase kernel's exact range")
    two_t = 2.0 * t
    num = two_t.as_integer_ratio()[0]
    if h.size and (num >> ((num & -num).bit_length() - 1)) * int(h.max()) >= 2 ** 53:
        raise PhaseRangeError("2t h_j is not exact in float64")
    lattice = two_t * h
    xi = gam - lattice
    # a difference that rounds to 0 is 0; the few others must meet Sterbenz
    xi_cols = np.flatnonzero(xi)
    g, lat = gam[xi_cols], lattice[xi_cols]
    if not np.all((h[xi_cols] == 0) | ((lat <= 2.0 * g) & (g <= 2.0 * lat))):
        raise PhaseRangeError("gamma_j - 2t h_j is not exact: gamma_j is off its lattice point")
    if not t * float(us.max()) < _TU_LIMIT:
        raise PhaseRangeError(f"t u = {t * float(us.max())} beyond the phase kernel's range")
    ratios = [(n, d.bit_length() - 1) for n, d in map(float.as_integer_ratio, us.tolist())]
    theta = _turns(t, ratios, _THETA_BITS)
    lo_mask = (1 << (_THETA_BITS - 64)) - 1
    return FamilyPhases(
        hi=np.array([x >> (_THETA_BITS - 64) for x in theta], dtype=np.uint64),
        lo=np.array([x & lo_mask for x in theta], dtype=np.uint64),
        h=h.astype(np.int64, copy=False).view(np.uint64),  # checked nonnegative
        xi_cols=xi_cols,
        xi_turns=np.array([_turns(xi[j], ratios, 64, halve=True) for j in xi_cols.tolist()],
                          dtype=np.uint64).reshape(xi_cols.size, us.size),
    )


@lru_cache(maxsize=1)
def root_table() -> np.ndarray:
    """cos and sin of 2 pi (k + 1/2) / 4096 for k < 4096, as two read-only
    contiguous rows.

    Built once per process in 128-bit fixed point: e(1/8192) and e(1/4096)
    from their Taylor series with pi = 2^320 // floor(2^320 / pi), then 1024
    steps of e(1/4096) for the first quadrant and exact sign swaps for the
    rest; each entry is within 2^-110 of its value before the correctly
    rounded division to float.
    """
    bits = 128
    one = 1 << bits
    pi = (1 << (bits + INV_PI_BITS)) // INV_PI

    def cis(x):  # cos and sin of x 2^-bits, small x
        c, s, term, k = one, 0, one, 0
        while term:
            k += 1
            term = (term * x >> bits) // k
            if k % 2:
                s += term if k % 4 == 1 else -term
            else:
                c += term if k % 4 == 0 else -term
        return c, s

    step_c, step_s = cis(pi >> (_ROOT_BITS - 1))
    c, s = cis(pi >> _ROOT_BITS)
    quadrant = np.empty((2, 1 << (_ROOT_BITS - 2)))
    for k in range(quadrant.shape[1]):
        quadrant[:, k] = c / one, s / one
        c, s = (c * step_c - s * step_s) >> bits, (c * step_s + s * step_c) >> bits
    qc, qs = quadrant
    table = np.stack((np.concatenate((qc, -qs, -qc, qs)), np.concatenate((qs, qc, -qs, -qc))))
    table.setflags(write=False)
    return table


def rotation(turns: np.ndarray, scratch=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi turns 2^-64, each within 4 2^-53 of the exact
    value: the root-table entry of the top 12 bits times cos + i sin of the
    remaining angle.

    ``scratch`` (uint64) and the three rows of ``out`` (float64), all of the
    shape of ``turns``, are optional work arrays; cos and sin are two rows
    of ``out``.  ``turns`` and ``scratch`` are overwritten: once their bits
    are read, their memory holds float64 values.
    """
    if scratch is None:
        scratch = np.empty_like(turns)
    if out is None:
        out = np.empty((3, *turns.shape))
    y, cos, sin = out
    np.bitwise_and(turns, _LOW_MASK, out=scratch)
    np.copyto(y, scratch)
    y -= _LOW_HALF
    # below 4096, so the int64 view is the index itself: take casts nothing
    index = np.right_shift(turns, _ROOT_SHIFT, out=turns).view(np.int64)
    np.multiply(y, y, out=sin)  # y^2, until sin takes its place
    np.multiply(sin, -_COS4, out=cos)
    cos += _COS2
    cos *= sin
    np.subtract(1.0, cos, out=cos)
    sin *= -_SIN3
    sin += _S
    sin *= y
    # (c1 + i s1)(cos + i sin), in place
    root_cos, root_sin = root_table()
    c1 = np.take(root_cos, index, out=y, mode="clip")  # "raise" would buffer ``out``
    s1 = np.take(root_sin, index, out=scratch.view(np.float64), mode="clip")
    t = np.multiply(s1, sin, out=turns.view(np.float64))
    s1 *= cos
    cos *= c1
    cos -= t
    sin *= c1
    sin += s1
    return cos, sin
