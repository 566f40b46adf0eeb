import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebarrier.goodness import (
    gaps_ok,
    is_good,
    spacing_ok,
    verify_certificate,
    witness_for,
)


def witness_check(m, j, k, allow_special_pairs=True):
    """Does k witness j?  Scalar exact re-evaluation of the three points (the
    oracle for witness_for's array scan)."""
    k %= m
    if k == 0:
        return False  # all three points coincide
    r = k * j % m
    if r == 0 or r == k:
        return True  # exactly two points coincide (k != 0 rules out all three)
    t1, t2 = min(k, r), max(k, r)
    gaps = (t1, t2 - t1, m - t2)
    for x, y in ((0, 1), (0, 2), (1, 2)):
        lo, hi = min(gaps[x], gaps[y]), max(gaps[x], gaps[y])
        if gaps_ok(lo, hi, m, allow_special_pairs):
            return True
    return False


ODD_M = st.integers(min_value=1, max_value=250).map(lambda k: 2 * k + 1)


class TestSpacingOk:
    def test_boundary_strict(self):
        assert not spacing_ok(Fraction(1, 3), Fraction(1, 3))
        assert not spacing_ok(Fraction(1, 3), Fraction(2, 5))
        assert not spacing_ok(Fraction(2, 5), Fraction(1, 2))

    def test_special_pairs(self):
        assert spacing_ok(Fraction(6, 19), Fraction(9, 19))
        assert spacing_ok(Fraction(12, 37), Fraction(16, 37))
        assert not spacing_ok(Fraction(9, 19), Fraction(6, 19))
        assert not spacing_ok(Fraction(6, 19), Fraction(9, 19), allow_special_pairs=False)

    def test_window(self):
        assert spacing_ok(Fraction(2, 5), Fraction(2, 5))
        assert spacing_ok(Fraction(7, 20), Fraction(9, 20))
        assert not spacing_ok(Fraction(2, 5), Fraction(7, 20))  # needs d1 <= d2

    def test_integer_form_matches_on_every_gap_pair(self):
        for n, special in itertools.product((*range(1, 40), 57, 74, 76), (True, False)):
            # multiples of 19 and 37 reach the special pairs
            pairs = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
            expected = [spacing_ok(Fraction(lo, n), Fraction(hi, n), special) for lo, hi in pairs]
            for (lo, hi), want in zip(pairs, expected):
                # the scalar form returns a Python bool
                assert gaps_ok(lo, hi, n, special) is want, (lo, hi, n, special)
            # the array form, as witness_for calls it
            lo, hi = np.array(pairs, dtype=np.int64).T
            assert gaps_ok(lo, hi, n, special).tolist() == expected, (n, special)


class TestWitnessFor:
    def test_memo_is_bounded_and_returns_the_scan(self):
        assert witness_for.cache_info().maxsize is not None
        for m in (3, 19, 37, 91):
            for j in range(1, m):
                assert witness_for(m, j) == witness_for.__wrapped__(m, j)

    def test_j_one_uses_k_one(self):
        for m in (3, 9, 15, 91):
            assert witness_for(m, 1) == 1

    def test_m3_j2_has_none(self):
        assert witness_for(3, 2) is None

    def test_m7(self):
        assert witness_for(7, 3) is None
        assert witness_for(7, 5) is None
        assert witness_for(7, 2) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            witness_for(4, 1)
        with pytest.raises(ValueError):
            witness_for(9, 0)
        with pytest.raises(ValueError):
            witness_for(9, 9)

    @given(ODD_M, st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_witness_is_smallest_and_valid(self, m, jseed):
        j = 1 + jseed % (m - 1)
        k = witness_for(m, j)
        if k is None:
            # spot-check a few k values fail under the scalar verifier
            for kk in range(1, min(m, 40)):
                assert not witness_check(m, j, kk)
        else:
            assert witness_check(m, j, k)
            for kk in range(1, k):
                assert not witness_check(m, j, kk)


class TestSymmetry:
    def test_exhaustive_up_to_500(self):
        """A witness for j works for m+1-j with the same smallest k: the point
        sets reflect, so the gap multisets coincide."""
        for m in range(3, 501, 2):
            half = (m + 1) // 2
            for j in range(2, half + 1):
                k1 = witness_for(m, j)
                k2 = witness_for(m, m + 1 - j)
                assert k1 == k2, (m, j, k1, k2)


class TestIsGood:
    def test_m3(self):
        cert = is_good(3)
        assert not cert.good and cert.failing_j == (2,)

    def test_m9_good(self):
        assert is_good(9).good

    def test_m13(self):
        cert = is_good(13)
        assert not cert.good and cert.failing_j == (3, 5, 6)
        full = is_good(13, full_range=True)
        assert full.failing_j == (3, 5, 6, 8, 9, 11)

    def test_m21(self):
        cert = is_good(21)
        assert not cert.good and cert.failing_j == (5,)
        assert is_good(21, full_range=True).failing_j == (5, 17)

    def test_certificates_reverify(self):
        for m in (9, 25, 39, 49, 91):
            cert = is_good(m)
            assert verify_certificate(cert)

    def test_lines_format(self):
        cert = is_good(7)
        lines = list(cert.lines())
        assert lines[0].split()[0] == "2"
        assert any(line.endswith("NONE") for line in lines)

    def test_validation(self):
        with pytest.raises(ValueError):
            is_good(6)
        with pytest.raises(ValueError):
            is_good(1)
