"""Witness search for the "good" property of odd numbers.

An odd m is good when every j in [1, m-1] admits a k in [1, m-1] such that,
among the three circle points 0, k/m, kj/m (mod 1), either exactly two
coincide, or two of the three circular gaps satisfy the spacing condition:
both in the open window (1/3, 1/2) once sorted, or exactly one of the two
exceptional pairs (6/19, 9/19), (12/37, 16/37).

All arithmetic is exact: gaps are integer numerators over the common
denominator m, and the window tests are integer cross-multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

WINDOW = (Fraction(1, 3), Fraction(1, 2))  # open, for the sorted gaps
SPECIAL_PAIRS = ((Fraction(6, 19), Fraction(9, 19)), (Fraction(12, 37), Fraction(16, 37)))
# the same bounds as integer ratios, read once: gaps_ok runs per spacing candidate
_WINDOW_RATIOS = tuple(d.as_integer_ratio() for d in WINDOW)
_SPECIAL_RATIOS = tuple(d1.as_integer_ratio() + d2.as_integer_ratio() for d1, d2 in SPECIAL_PAIRS)

_CHUNK = 256  # witness scan block size; most witnesses are small


def spacing_ok(d1: Fraction, d2: Fraction, allow_special_pairs: bool = True) -> bool:
    """Exact test: 1/3 < d1 <= d2 < 1/2, or (d1, d2) an exceptional pair."""
    d1, d2 = Fraction(d1), Fraction(d2)
    if WINDOW[0] < d1 <= d2 < WINDOW[1]:
        return True
    return allow_special_pairs and (d1, d2) in SPECIAL_PAIRS


def gaps_ok(lo, hi, m: int, allow_special_pairs: bool = True):
    """Integer form of spacing_ok(lo / m, hi / m) for gaps lo <= hi; on int
    arrays lo and hi it tests elementwise and returns a bool array."""
    (a1, b1), (a2, b2) = _WINDOW_RATIOS
    if type(lo) is int and type(hi) is int:  # a scalar returns at the first test that decides
        return (b1 * lo > a1 * m and b2 * hi < a2 * m) or (bool(allow_special_pairs) and any(
            m1 * lo == n1 * m and m2 * hi == n2 * m for n1, m1, n2, m2 in _SPECIAL_RATIOS))
    ok = (b1 * lo > a1 * m) & (b2 * hi < a2 * m)
    if allow_special_pairs:
        for n1, m1, n2, m2 in _SPECIAL_RATIOS:
            ok = ok | ((m1 * lo == n1 * m) & (m2 * hi == n2 * m))
    return ok


@lru_cache(maxsize=1024)
def witness_for(m: int, j: int, allow_special_pairs: bool = True) -> int | None:
    """Smallest k in [1, m-1] witnessing j, or None (memoised: construction II
    asks for the same few (m, j) over and over)."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    if not 1 <= j <= m - 1:
        raise ValueError(f"j must be in [1, m-1], got {j}")
    for start in range(1, m, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, m), dtype=np.int64)
        rs = ks * j % m
        ok = (rs == 0) | (rs == ks)
        t1 = np.minimum(ks, rs)
        t2 = np.maximum(ks, rs)
        g = (t1, t2 - t1, m - t2)
        for x, y in ((0, 1), (0, 2), (1, 2)):
            ok |= gaps_ok(np.minimum(g[x], g[y]), np.maximum(g[x], g[y]), m, allow_special_pairs)
        hits = np.flatnonzero(ok)
        if hits.size:
            return int(ks[hits[0]])
    return None


@dataclass
class GoodnessCertificate:
    m: int
    good: bool
    witnesses: dict[int, int] = field(default_factory=dict)
    failing_j: tuple[int, ...] = ()
    j_range: tuple[int, int] = (0, 0)
    allow_special_pairs: bool = True

    def lines(self):
        """Machine-readable record lines, one per j."""
        lo, hi = self.j_range
        for j in range(lo, hi + 1):
            k = self.witnesses.get(j)
            yield f"{j} {k if k is not None else 'NONE'}"


def is_good(
    m: int, full_range: bool = False, allow_special_pairs: bool = True
) -> GoodnessCertificate:
    """Certificate for the good property of odd m.

    The default search range [2, (m+1)/2] suffices: j=1 is witnessed by k=1,
    and a witness for j also witnesses m+1-j (the three points reflect).
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    j_lo, j_hi = (1, m - 1) if full_range else (2, (m + 1) // 2)
    witnesses: dict[int, int] = {}
    failing: list[int] = []
    for j in range(j_lo, j_hi + 1):
        k = witness_for(m, j, allow_special_pairs)
        if k is None:
            failing.append(j)
        else:
            witnesses[j] = k
    return GoodnessCertificate(
        m=m,
        good=not failing,
        witnesses=witnesses,
        failing_j=tuple(failing),
        j_range=(j_lo, j_hi),
        allow_special_pairs=allow_special_pairs,
    )


def verify_certificate(cert: GoodnessCertificate) -> bool:
    """Re-verify every recorded witness with exact fractions."""
    for j, k in cert.witnesses.items():
        points = sorted({Fraction(0), Fraction(k, cert.m) % 1, Fraction(k * j, cert.m) % 1})
        if len(points) == 2:
            continue  # two coincide (never all three: k is nonzero mod m)
        if len(points) != 3:
            return False
        gaps = (points[1] - points[0], points[2] - points[1], 1 - points[2] + points[0])
        hit = False
        for x, y in ((0, 1), (0, 2), (1, 2)):
            lo, hi = sorted((gaps[x], gaps[y]))
            if spacing_ok(lo, hi, cert.allow_special_pairs):
                hit = True
                break
        if not hit:
            return False
    return True
