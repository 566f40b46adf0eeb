"""Oracles for the integer fast path of the construction-I and II searches.

The existence tests that let `find_equal_sum_set` skip scans, and the
stepped conjugate-pair and power scans of a cyclic group, are checked on
every relabeling of every triple with q <= 60 against a scan over all
characters.  `find_equal_sum_set` and `find_spacing_character` are compared
with frozen copies of their earlier implementations, which worked through
`mod_div`, `Fraction` angles and per-value `DirichletCharacter` calls, on
random triples with q <= 300.  Construction II, with its gap and
multiplicity checks on `Fraction`s, is frozen too, and every q <= 50 barrier
past the equal-sum search is compared byte for byte with that path.  The
frozen spacing search marks where two values coincide; there the live
search returns None, and the equal-sum search decides the triple.
Construction III's witness search is frozen in its float form with 50-digit
mpmath escalation, and every q <= 50 triple that reaches it gets the same
witness from the exact real test and the floored imaginary test.  The GSH
character search, which scans three relabelings and reads z from the
triple's columns, is compared with its six-relabeling form on every ordered
triple with q <= 20.
"""

import cmath
import dataclasses
import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebarrier import race_simulator as sim
from racebarrier.barrier_search import (
    Barrier,
    BarrierParams,
    ConstructionError,
    EqualSumSet,
    RaceTriple,
    SpacingCharacter,
    ZeroSpec,
    _conjugate_pair_row,
    _in_subgroup,
    _multiples,
    _power_row,
    _primitive_root_row,
    barrier_to_dict,
    construction_three,
    construction_two,
    find_barrier,
    find_equal_sum_set,
    find_gsh_characters,
    find_order7_character,
    find_spacing_character,
    verify_crossing_inequality,
)
from racebarrier.characters import (
    DirichletCharacter,
    character_group,
    character_pair_constraint,
    _RootsOfUnity,
)
from racebarrier.goodness import spacing_ok, witness_for
from racebarrier.residue_group import (
    check_modulus,
    dlog_vector,
    factorize,
    mod_div,
    multiplicative_order,
    unit_group_structure,
)
from test_characters import angle_to_complex


def valid_moduli(limit):
    out = []
    for q in range(5, limit + 1):
        try:
            out.append(check_modulus(q))
        except ValueError:
            pass
    return out


def angle_matrix(q):
    """Angle numerators, units x characters."""
    group = unit_group_structure(q)
    return group.units, np.array(character_group(q).columns(group.units), dtype=np.int64)


# ---------------------------------------------------------------------------
# existence tests against a scan over all characters


def test_subgroup_membership_matches_the_characters():
    """b lies in <c> exactly when every character that is 1 on c is 1 on b."""
    for q in valid_moduli(60):
        group = unit_group_structure(q)
        units, cols = angle_matrix(q)
        trivial = cols == 0
        for ci, c in enumerate(units):
            dual = trivial[ci]  # characters that are 1 on c
            for bi, b in enumerate(units):
                expected = bool(trivial[bi][dual].all())
                assert _in_subgroup(group, b, c) == expected, (q, b, c)


def test_existence_tests_agree_with_a_scan_over_every_relabeling_up_to_60():
    cyclic_seen = noncyclic_seen = 0
    for q in valid_moduli(60):
        group = unit_group_structure(q)
        units, cols = angle_matrix(q)
        p = len(units)
        nontrivial = (cols != 0).astype(np.int64)
        trivial = 1 - nontrivial
        # power[i, j, k]: some character is 1 on units[k] and not on units[i], units[j]
        both = (nontrivial[:, None, :] * nontrivial[None, :, :]).reshape(p * p, -1)
        power = (both @ trivial.T).reshape(p, p, p) > 0
        member = np.array([[_in_subgroup(group, b, c) for c in units] for b in units])
        gate = ~member[:, None, :] & ~member[None, :, :]
        distinct = np.ones((p, p, p), dtype=bool)
        for i in range(p):
            distinct[i, i, :] = distinct[i, :, i] = distinct[:, i, i] = False
        assert (power == gate)[distinct].all(), q
        if len(group.generators) > 1:
            noncyclic_seen += 1
            continue
        cyclic_seen += 1
        equal = cols[:, None, :] == cols[None, :, :]
        for j in range(p):
            # singleton[i, k]: some character has chi(units[i]) = chi(units[j]) != chi(units[k])
            singleton = (equal[:, j, :].astype(np.int64) @ (~equal[j]).T.astype(np.int64)) > 0
            for i, k in itertools.permutations(range(p), 2):
                if j in (i, k):
                    continue
                row = _primitive_root_row(group, units[i], units[j], units[k])
                assert (row is not None) == singleton[i, k], (q, units[i], units[j], units[k])
                if row is not None:
                    assert cols[i, row] == cols[j, row] != cols[k, row]
    assert cyclic_seen and noncyclic_seen


def test_cyclic_stepping_matches_the_full_scan_up_to_60():
    """With no singleton in a cyclic group, the conjugate-pair scan over the
    multiples of n / gcd(l1 + l2, n) and the power scan over those of
    n / gcd(l3, n) return the first row of a scan over all characters, on
    every relabeling of every triple."""
    stepped = Counter()
    for q in valid_moduli(60):
        group = unit_group_structure(q)
        if len(group.generators) > 1:
            continue
        chars = character_group(q)
        n = group.exponent
        units, cols = angle_matrix(q)
        order = n // np.gcd(np.arange(n), n)
        combos = np.array(list(itertools.combinations(range(len(units)), 3)))
        x = cols[combos]  # triples x 3 x characters
        pairs = (x[:, 0] == x[:, 1]).astype(int) + (x[:, 0] == x[:, 2]) + (x[:, 1] == x[:, 2])
        no_singleton = ~(pairs[:, 1:] == 1).any(axis=1)
        rows = cols.tolist()
        for combo in combos[no_singleton]:
            for i, j, k in itertools.permutations(combo.tolist()):
                k1, k2, k3 = cols[i], cols[j], cols[k]
                conj = (((k1 == k2) | ((k1 + k2) % n == 0)) & (k3 != k1) & ((k1 + k3) % n != 0)
                        & (order > 2))
                power = ((k1 == 0) == (k2 == 0)) & ((k2 == 0) != (k3 == 0))
                l1, l2, l3 = (group.index[units[t]] for t in (i, j, k))
                c1, c2, c3 = rows[i], rows[j], rows[k]
                for name, full, row in (
                    ("conjugate-pair", conj,
                     _conjugate_pair_row(chars, n, c1, c2, c3, _multiples(n, l1 + l2))),
                    ("power", power, _power_row(c1, c2, c3, _multiples(n, l3))),
                ):
                    hits = np.flatnonzero(full[1:]) + 1
                    expected = hits[0] if hits.size else None
                    assert row == expected, (q, name, units[i], units[j], units[k])
                    stepped[name, row is not None] += 1
    assert all(stepped[name, hit] for name in ("conjugate-pair", "power") for hit in (True, False))


# ---------------------------------------------------------------------------
# frozen copies of the earlier implementations


_PERMS = tuple(itertools.permutations((0, 1, 2)))
_SMALL_PRIME_SET = frozenset((3, 7, 13))


def _relabelings(D):
    res = D.residues
    for perm in _PERMS:
        yield perm, tuple(res[i] for i in perm)


def _first_separating_character(D, cols, i, j):
    x, y = cols[i], cols[j]
    for ci in range(1, len(x)):
        if x[ci] != y[ci]:
            return character_group(D.q)[ci]
    raise ConstructionError(
        f"no character separates {D.residues[i]} and {D.residues[j]} mod {D.q}"
    )


@dataclasses.dataclass(frozen=True)
class Coincidence:
    """Where the frozen spacing search met a character with two coinciding
    values on the relabeled triple."""

    permutation: tuple
    relabeled_triple: tuple
    chi: DirichletCharacter


def frozen_find_equal_sum_set(D):
    q = D.q
    chars = character_group(q)
    group = unit_group_structure(q)
    n = group.exponent
    cols = chars.columns(D.residues)

    def package(perm, triple, family, char_list):
        chi2 = _first_separating_character(D, cols, perm[0], perm[1])
        return EqualSumSet(perm, triple, family, tuple(char_list), chi2)

    if len(group.generators) == 1:
        phi = group.phi
        for perm, (b1, b2, b3) in _relabelings(D):
            (f,) = dlog_vector(q, mod_div(q, b2, b1))
            d = math.gcd(f, phi)
            (e,) = dlog_vector(q, mod_div(q, b3, b2))
            if e % d != 0:
                chi = DirichletCharacter(q, (phi // d,))
                assert chi.evaluate(b1) == chi.evaluate(b2) != chi.evaluate(b3)
                return package(perm, (b1, b2, b3), "primitive-root", [chi])

    nonprinc = range(1, len(chars))
    for perm, triple in _relabelings(D):
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in nonprinc:
            if c1[ci] == c2[ci] != c3[ci]:
                return package(perm, triple, "singleton", [chars[ci]])
    for perm, triple in _relabelings(D):
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in nonprinc:
            if chars[ci].order <= 2:
                continue
            k1, k2, k3 = c1[ci], c2[ci], c3[ci]
            if (k1 == k2 or (k1 + k2) % n == 0) and k3 != k1 and (k1 + k3) % n != 0:
                pair = [chars[ci], chars[ci].conjugate()]
                return package(perm, triple, "conjugate-pair", pair)
    for perm, triple in _relabelings(D):
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in nonprinc:
            z1, z2, z3 = c1[ci] == 0, c2[ci] == 0, c3[ci] == 0
            if z1 == z2 != z3:
                chi = chars[ci]
                fam = [chi**i for i in range(1, chi.order)]
                return package(perm, triple, "power", fam)
    return None


def frozen_find_spacing_character(D):
    q, res = D.q, D.residues
    order = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        order[i, j] = order[j, i] = multiplicative_order(q, mod_div(q, res[j], res[i]))

    def ratio_orders(perm):
        i, j, k = perm
        return order[i, j], order[j, k], order[k, i]

    for perm, (b1, b2, b3) in _relabelings(D):
        s1, s2, s3 = ratio_orders(perm)
        for p, w in factorize(s1):
            if p**w in _SMALL_PRIME_SET:
                continue
            if s2 % p ** (w + 1) == 0 or s3 % p ** (w + 1) == 0:
                continue
            return _frozen_spacing_from_route(D, perm, (b1, b2, b3), p**w, p)
    for perm, (b1, b2, b3) in _relabelings(D):
        s1, s2, s3 = ratio_orders(perm)
        if s1 in (39, 91, 273) and 273 % s2 == 0 and 273 % s3 == 0:
            return _frozen_spacing_from_route(D, perm, (b1, b2, b3), s1, None)
    return None


def _frozen_spacing_from_route(D, perm, triple, r, p):
    q = D.q
    b1, b2, b3 = triple
    ratio21 = mod_div(q, b2, b1)
    ratio32 = mod_div(q, b3, b2)
    chi1 = character_pair_constraint(q, ratio21, ratio32, r)
    if p is not None:
        u_exp = 2 if p in _SMALL_PRIME_SET else 1
        [(_, e)] = factorize(r)
        chi2 = chi1 ** (p ** (e - u_exp))
        m = p**u_exp
    else:
        chi2 = chi1
        m = r
    angle = chi2.evaluate(ratio32)
    assert m % angle.denominator == 0
    j_tilde = int(angle * m)
    if j_tilde == 0:
        return Coincidence(perm, triple, chi2)
    j_good = j_tilde + 1
    if j_good == m:
        return Coincidence(perm, triple, chi2)
    k = witness_for(m, j_good)
    if k is None:
        raise ConstructionError(f"base modulus m={m} has no witness for j={j_good}")
    chi_k = chi2**k
    points = (0, k % m, k * j_good % m)
    if len(set(points)) < 3:
        return Coincidence(perm, triple, chi_k)
    return _frozen_assemble_spacing(D, chi_k, m, k)


def frozen_multiplicities_for(d1, d2):
    if d1 > Fraction(1, 3):
        return (1, 2)
    if (d1, d2) == (Fraction(6, 19), Fraction(9, 19)):
        return (5, 9)
    if (d1, d2) == (Fraction(12, 37), Fraction(16, 37)):
        return (3, 5)
    raise ValueError(f"gap pair {(d1, d2)} outside the admissible spacing set")


def _frozen_assemble_spacing(D, chi, m, k):
    res = D.residues
    for candidate in (chi, chi.conjugate()):
        angles = sorted((candidate.evaluate(a), a) for a in res)
        (t1, r1), (t2, r2), (t3, r3) = angles
        gaps = (t2 - t1, t3 - t2, 1 - t3 + t1)
        rotations = (
            ((r1, r2, r3), (gaps[0], gaps[1])),
            ((r2, r3, r1), (gaps[1], gaps[2])),
            ((r3, r1, r2), (gaps[2], gaps[0])),
        )
        for labels, (d1, d2) in rotations:
            if spacing_ok(d1, d2):
                perm = tuple(res.index(a) for a in labels)
                c1, c2 = frozen_multiplicities_for(d1, d2)
                return SpacingCharacter(perm, labels, candidate, d1, d2, c1, c2, m, k)
    raise ConstructionError(
        f"witness k={k} (m={m}) did not produce admissible gaps on the values"
    )


def frozen_construction_two(D, spacing, params):
    p = params
    ineq = verify_crossing_inequality(spacing.c1, spacing.c2, spacing.d1, spacing.d2)
    if not ineq.ok:
        raise ConstructionError(f"spacing inequality failed, margin {ineq.margin}")
    chi = spacing.chi
    b1_, b2_, b3_ = spacing.relabeled_triple
    t1, t2, t3 = (chi.evaluate(a) for a in (b1_, b2_, b3_))
    if ((t2 - t1) % 1, (t3 - t2) % 1) != (spacing.d1 % 1, spacing.d2 % 1):
        raise ConstructionError("character values do not realize the declared gaps")
    if (spacing.c1, spacing.c2) != frozen_multiplicities_for(spacing.d1, spacing.d2):
        raise ConstructionError("multiplicities inconsistent with the gap pair")
    chi_sq = DirichletCharacter(chi.q, tuple(2 * h % s for h, s in zip(chi.exponents, chi.group.orders)))
    if chi_sq.is_principal:
        raise ConstructionError("chi^2 is principal; spacing geometry violated")
    delta, y_worst = sim.envelope_min(spacing.d1, spacing.d2, spacing.c1, spacing.c2)
    gamma = max(p.t, 2.0 * p.tau, 1000.0)
    alpha_sigma = p.sigma1
    if not (0.5 <= p.beta1 < alpha_sigma <= 1.0):
        raise ConstructionError("need 1/2 <= beta1 < alpha <= 1")
    b1, b2, b3 = spacing.relabeled_triple
    zeros = (
        ZeroSpec(chi, alpha_sigma, gamma, spacing.c1),
        ZeroSpec(chi_sq, alpha_sigma, 2.0 * gamma, spacing.c2),
    )
    barrier = Barrier(
        triple=D,
        permutation=spacing.permutation,
        relabeled_triple=spacing.relabeled_triple,
        construction="II",
        beta1=p.beta1,
        zeros=zeros,
        excluded_ordering=(b3, b2, b1),
        parameters={
            "alpha": alpha_sigma,
            "gamma": gamma,
            "d1": [spacing.d1.numerator, spacing.d1.denominator],
            "d2": [spacing.d2.numerator, spacing.d2.denominator],
            "c1": spacing.c1,
            "c2": spacing.c2,
            "witness_m": spacing.base_modulus,
            "witness_k": spacing.witness_k,
        },
        margins={
            "envelope_delta": delta,
            "envelope_worst_y": y_worst,
            "inequality_margin": ineq.margin,
            "z1": ineq.z1,
            "z2": ineq.z2,
            "verdict_margin": delta,
        },
    )
    assert barrier.size == spacing.c1 + spacing.c2 <= 14
    if spacing.d1 > Fraction(1, 3):
        assert barrier.size == 3
    return barrier


def frozen_spacing_outcome(D):
    """The frozen spacing search as the live one reports it: None at a
    coincidence."""
    spacing = frozen_find_spacing_character(D)
    return None if isinstance(spacing, Coincidence) else spacing


def frozen_barrier_past_the_equal_sum_search(D, params):
    spacing = frozen_find_spacing_character(D)
    assert not isinstance(spacing, Coincidence)  # a singleton would have decided D
    if isinstance(spacing, SpacingCharacter):
        return frozen_construction_two(D, spacing, params)
    return construction_three(D, params)


# ---------------------------------------------------------------------------
# the fast path against the frozen copies


MODULI_300 = valid_moduli(300)


@st.composite
def triples(draw):
    """Uniform units, or units inside one cyclic subgroup (often 1 among them),
    which reaches the conjugate-pair, power and spacing paths far more often."""
    q = draw(st.sampled_from(MODULI_300))
    units = unit_group_structure(q).units
    if draw(st.booleans()):
        g = draw(st.sampled_from(units))
        pool = sorted({pow(g, e, q) for e in range(multiplicative_order(q, g))})
        if len(pool) < 3:
            pool = units
    else:
        pool = units
    return RaceTriple(q, *draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3,
                                         unique=True)))


def outcome(fn, D):
    try:
        return repr(fn(D))
    except ConstructionError as exc:
        return f"ConstructionError: {exc}"


@settings(max_examples=400, deadline=None)
@given(triples())
def test_equal_sum_set_matches_the_frozen_search(D):
    found, expected = find_equal_sum_set(D), frozen_find_equal_sum_set(D)
    assert found == expected
    assert repr(found) == repr(expected)


@settings(max_examples=400, deadline=None)
@given(triples())
def test_spacing_character_matches_the_frozen_search(D):
    assert outcome(find_spacing_character, D) == outcome(frozen_spacing_outcome, D)


def barrier_bytes(barrier):
    return json.dumps(barrier_to_dict(barrier), sort_keys=True)


@functools.lru_cache(maxsize=1)
def past_the_equal_sum_search_up_to_50():
    """Every ordered q <= 50 triple with no equal-sum set.

    Whether the search fails does not depend on the order of the residues,
    because every family condition is tried on each pair of them, so the
    search runs once per unordered triple."""
    out = []
    for q in valid_moduli(50):
        for combo in itertools.combinations(unit_group_structure(q).units, 3):
            if find_equal_sum_set(RaceTriple(q, *combo)) is None:
                out.extend(RaceTriple(q, *triple) for triple in itertools.permutations(combo))
    return tuple(out)


def test_barriers_past_the_equal_sum_search_match_the_fraction_path_up_to_50():
    """Every ordered q <= 50 triple with no equal-sum set gets the same
    barrier bytes as the frozen Fraction path (construction II or III)."""
    params = BarrierParams()
    seen = Counter()
    for D in past_the_equal_sum_search_up_to_50():
        assert find_equal_sum_set(D) is None
        barrier = find_barrier(D, params)
        seen[barrier.construction] += 1
        assert barrier_bytes(barrier) == barrier_bytes(
            frozen_barrier_past_the_equal_sum_search(D, params)), D
    assert seen == {"II": 17_760, "III": 888}


# ---------------------------------------------------------------------------
# construction III's witness search against its float and mpmath form


def _frozen_distinct(lhs, rhs, lhs_exact, rhs_exact, escalations):
    """Float inequality with high-precision escalation on near ties, each
    escalation counted in `escalations`."""
    if abs(lhs - rhs) > 1e-9:
        return True
    import mpmath as mp

    escalations["mpmath"] += 1
    with mp.workdps(50):
        return abs(lhs_exact() - rhs_exact()) > mp.mpf("1e-40")


def _frozen_mp_trig(angle, kind):
    import mpmath as mp

    x = 2 * mp.pi * mp.mpf(angle.numerator) / angle.denominator
    return mp.cos(x) if kind == "cos" else mp.sin(x)


def frozen_find_order7_character(D, escalations):
    """The witness search as it was: both determinant tests in float, with a
    50-digit mpmath test where a float gap is at most 1e-9.  Returns
    (chi exponents, h, k)."""
    chars = character_group(D.q)
    n, roots = chars.exponent, chars.roots
    x1, x2, x3 = chars.columns(D.residues)
    ratio21 = mod_div(D.q, D.a2, D.a1)

    def re_diff(power, kx, ky):
        return roots[power * kx % n].real - roots[power * ky % n].real

    def im_diff(power, kx, ky):
        return roots[power * kx % n].imag - roots[power * ky % n].imag

    def mp_diff(kind, power, kx, ky):
        return (_frozen_mp_trig(Fraction(power * kx % n, n), kind)
                - _frozen_mp_trig(Fraction(power * ky % n, n), kind))

    for ci in range(1, len(chars)):
        chi = chars[ci]
        if chi.angle_numerator(ratio21) == 0:
            continue
        k1, k2, k3 = x1[ci], x2[ci], x3[ci]
        ok_real = _frozen_distinct(
            re_diff(1, k3, k2) * re_diff(2, k2, k1),
            re_diff(1, k2, k1) * re_diff(2, k3, k2),
            lambda: mp_diff("cos", 1, k3, k2) * mp_diff("cos", 2, k2, k1),
            lambda: mp_diff("cos", 1, k2, k1) * mp_diff("cos", 2, k3, k2),
            escalations,
        )
        if not ok_real:
            continue
        for h, k in ((1, 2), (1, 3), (2, 3)):
            ok_imag = _frozen_distinct(
                im_diff(h, k3, k2) * im_diff(k, k2, k1),
                im_diff(h, k2, k1) * im_diff(k, k3, k2),
                lambda h=h, k=k: mp_diff("sin", h, k3, k2) * mp_diff("sin", k, k2, k1),
                lambda h=h, k=k: mp_diff("sin", h, k2, k1) * mp_diff("sin", k, k3, k2),
                escalations,
            )
            if ok_imag:
                if chi.order < 7:
                    raise ConstructionError(
                        f"determinant witness has order {chi.order} < 7: "
                        "triple leaks into the first construction"
                    )
                return list(chi.exponents), h, k
    raise ConstructionError(f"no character passes the determinant tests for {D}")


def test_determinant_witnesses_match_the_mpmath_search_up_to_50():
    """All 888 ordered q <= 50 triples that reach construction III get the
    same witness (det_chi, det_h, det_k) from the exact real test and the
    floored imaginary test as from the frozen float search with mpmath
    escalation, and that search never escalated: every float gap there
    exceeded 1e-9, so no imaginary determinant lies between the floors."""
    escalations, witnesses = Counter(), Counter()
    for D in past_the_equal_sum_search_up_to_50():
        if find_spacing_character(D) is not None:
            continue
        w = find_order7_character(D)
        assert (list(w.chi.exponents), w.h, w.k) == frozen_find_order7_character(
            D, escalations), D
        witnesses[w.chi.index, w.h, w.k] += 1
    assert witnesses == {(1, 1, 2): 888}
    assert not escalations


@pytest.mark.parametrize("q, orders, reaching", [
    (69, (2, 22), 62), (92, (2, 22), 63), (115, (4, 22), 15),
])
def test_multi_generator_construction_two_matches_the_fraction_path(q, orders, reaching):
    """The q <= 50 census reaches construction II only in cyclic groups.  On
    a fixed sample of 3,000 ordered triples at each of three moduli with two
    generators, every construction-II triple gets the frozen spacing search's
    character and the Fraction path's barrier bytes."""
    group = unit_group_structure(q)
    assert group.orders == orders
    rng = random.Random(f"multi-generator II {q}")
    params = BarrierParams()
    reached = 0
    for _ in range(3000):
        D = RaceTriple(q, *rng.sample(group.units, 3))
        if find_equal_sum_set(D) is not None:
            continue
        spacing = find_spacing_character(D)
        if spacing is None:
            continue
        reached += 1
        assert repr(spacing) == repr(frozen_spacing_outcome(D)), D
        assert barrier_bytes(construction_two(D, spacing, params)) == barrier_bytes(
            frozen_barrier_past_the_equal_sum_search(D, params)), D
    assert reached == reaching


def test_construction_two_rejects_what_the_fraction_path_rejects():
    """Tampered spacing data (the conjugate character, swapped gaps, other
    multiplicities) meets the same check, with the same outcome, in the
    integer and the Fraction construction II, on every q = 23 triple with a
    spacing character.  The one exception is a swapped pair with d1 > d2:
    the integer path rejects it first as outside the admissible spacing set,
    where the Fraction path, which had no such check, rejected it later."""
    params = BarrierParams()

    def outcome(build, D, spacing):
        try:
            return barrier_bytes(build(D, spacing, params))
        except (ConstructionError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    outcomes = Counter()
    for combo in itertools.combinations(unit_group_structure(23).units, 3):
        D = RaceTriple(23, *combo)
        spacing = find_spacing_character(D)
        if not isinstance(spacing, SpacingCharacter):
            continue
        for tampered in (
            dataclasses.replace(spacing, chi=spacing.chi.conjugate()),
            dataclasses.replace(spacing, d1=spacing.d2, d2=spacing.d1),
            dataclasses.replace(spacing, c1=3, c2=5),
        ):
            got = outcome(construction_two, D, tampered)
            frozen = outcome(frozen_construction_two, D, tampered)
            if tampered.d1 > tampered.d2:
                assert frozen.startswith("ConstructionError"), (D, tampered)
                assert got == (f"ConstructionError: gap pair {(tampered.d1, tampered.d2)} "
                               "outside the admissible spacing set"), (D, tampered)
                got = "ConstructionError: outside the admissible spacing set"
            else:
                assert got == frozen, (D, tampered)
            outcomes[got if got.startswith("ConstructionError") else "barrier"] += 1
    assert outcomes.keys() >= {
        "barrier", "ConstructionError: character values do not realize the declared gaps",
        "ConstructionError: multiplicities inconsistent with the gap pair",
        "ConstructionError: outside the admissible spacing set",
    }, outcomes


def test_coincidences_are_decided_by_the_equal_sum_search_up_to_20():
    """On every ordered q <= 20 triple where the frozen spacing search meets
    two coinciding values, the live search returns None, and the equal-sum
    search finds a singleton (through the primitive-root shortcut in a cyclic
    group), so `find_barrier` builds construction I."""
    families = Counter()
    for q in valid_moduli(20):
        for triple in itertools.permutations(unit_group_structure(q).units, 3):
            D = RaceTriple(q, *triple)
            coincidence = frozen_find_spacing_character(D)
            if not isinstance(coincidence, Coincidence):
                continue
            values = [coincidence.chi.evaluate(a) for a in coincidence.relabeled_triple]
            assert len(set(values)) == 2 and not coincidence.chi.is_principal, D
            assert find_spacing_character(D) is None, D
            found = find_equal_sum_set(D)
            assert found.family in ("primitive-root", "singleton"), D
            families[found.family] += 1
    assert families["primitive-root"] and families["singleton"], families


def test_frozen_comparison_reaches_every_family_and_spacing_outcome():
    """The fixed triples cover each family and each spacing outcome."""
    cases = {
        (7, 1, 2, 5): "primitive-root", (455, 2, 3, 4): "singleton",
        (401, 1, 72, 372): "power", (1009, 1, 922, 506): "conjugate-pair",
    }
    for t, family in cases.items():
        D = RaceTriple(*t)
        found = find_equal_sum_set(D)
        assert found.family == family
        assert repr(found) == repr(frozen_find_equal_sum_set(D))
    for t, kind in (((23, 2, 3, 4), SpacingCharacter), ((19, 2, 3, 14), type(None)),
                    ((5, 1, 2, 3), Coincidence), ((79, 1, 9, 2), SpacingCharacter)):
        D = RaceTriple(*t)
        assert isinstance(frozen_find_spacing_character(D), kind)
        assert outcome(find_spacing_character, D) == outcome(frozen_spacing_outcome, D)


@pytest.mark.parametrize("triple, gaps, multiplicities, size", [
    ((191, 125, 36, 180), (Fraction(6, 19), Fraction(9, 19)), (5, 9), 14),
    ((149, 24, 133, 20), (Fraction(12, 37), Fraction(16, 37)), (3, 5), 8),
])
def test_exceptional_spacing_pairs_end_to_end(triple, gaps, multiplicities, size):
    """The search itself reaches both exceptional gap pairs, which no q <= 50
    triple does: the barriers equal the frozen Fraction path byte for byte,
    and at u0 = 2e5, over ten periods of the lowest ordinate, no sample
    shows the excluded ordering by more than the remainder."""
    D = RaceTriple(*triple)
    barrier = find_barrier(D)
    params = barrier.parameters
    assert barrier.construction == "II" and barrier.size == size
    assert (Fraction(*params["d1"]), Fraction(*params["d2"])) == gaps
    assert (params["c1"], params["c2"]) == multiplicities
    assert barrier_bytes(barrier) == barrier_bytes(
        frozen_barrier_past_the_equal_sum_search(D, BarrierParams()))
    gamma = min(z.gamma for z in barrier.zeros)
    profile = sim.simulate(barrier, 2e5, 2e5 + 10 * 2 * math.pi / gamma, 4000)
    assert profile.excluded_robust == 0 and profile.margin > profile.remainder


# ---------------------------------------------------------------------------
# the GSH character search against its six-relabeling scan


def frozen_find_gsh_characters(D, sigma1=0.6, t=1000.0):
    """find_gsh_characters as it scanned all six relabelings, reading z
    through chi.value and choosing chi2 at each improvement."""
    chars = character_group(D.q)
    cols = chars.columns(D.residues)
    best = None
    best_score = -1.0
    for perm, (b1, b2, b3) in _relabelings(D):
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in range(1, len(chars)):
            if not (c1[ci] == c2[ci] != c3[ci]):
                continue
            chi1 = chars[ci]
            z = chi1.value(b2).conjugate() - chi1.value(b3).conjugate()
            alpha = -(math.atan(sigma1 / t) + cmath.phase(z)) / math.pi
            score = min(abs(alpha - round(alpha)), abs(2 * alpha - round(2 * alpha)))
            if score > best_score + 1e-12:
                chi2 = _first_separating_character(D, cols, perm[0], perm[1])
                best = (perm, (b1, b2, b3), chi1, chi2)
                best_score = score
    return best


def test_gsh_characters_match_the_six_relabeling_scan_up_to_20():
    """The condition chi1(b1) = chi1(b2) != chi1(b3) and the score are
    symmetric in the first two labels, so three relabelings choose what six
    did, on every ordered q <= 20 triple."""
    found = total = 0
    for q in valid_moduli(20):
        for triple in itertools.permutations(unit_group_structure(q).units, 3):
            D = RaceTriple(q, *triple)
            want = frozen_find_gsh_characters(D)
            assert find_gsh_characters(D) == want, D
            found += want is not None
            total += 1
    assert (found, total) == (11_328, 11_880)


# ---------------------------------------------------------------------------
# roots of unity


def test_roots_of_unity_are_bit_identical_to_the_fraction_path():
    for n in (*range(1, 501), 1008, 4095, 10007):
        roots = _RootsOfUnity(n)
        assert len(roots) == n
        for k in range(n):
            z = angle_to_complex(Fraction(k, n))
            assert (roots[k].real.hex(), roots[k].imag.hex()) == (z.real.hex(), z.imag.hex()), (k, n)
        assert sorted(roots) == list(range(n))  # every read root is stored once


def test_roots_of_unity_are_built_on_read():
    """At the cap's exponent only the roots read are stored; reads outside
    [0, n) raise IndexError instead of wrapping like a tuple's."""
    n = 999982
    roots = _RootsOfUnity(n)
    assert len(roots) == n and not roots.keys()
    picks = (0, 1, 499991, n - 1)
    first = [roots[k] for k in picks]
    assert sorted(roots) == list(picks)
    assert [roots[k] for k in picks] == first and roots[0] == 1
    for k in (n, -1, -n, n + 7):
        with pytest.raises(IndexError):
            roots[k]
    assert sorted(roots) == list(picks)
