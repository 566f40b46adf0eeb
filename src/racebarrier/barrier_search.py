"""Barrier synthesis for a race triple.

Three finite constructions and one infinite construction, each producing a
hypothetical zero configuration under which one ordering of the three
prime-counting functions cannot occur for large x:

  I   - a set S of characters whose value sums agree on two of the residues
        and differ on the third, plus one auxiliary zero at double height;
  II  - a character whose values are spaced per the window condition, with a
        zero for chi and one for chi^2 at double height;
  III - high-multiplicity zeros for every character, with multiplicities
        rationalized from a nonnegative solution of a small linear system;
  GSH - an infinite family for one character with rationally independent
        ordinates, phase-locked to a set H of integers.

Side conditions are verified at construction time and recorded in the
barrier's margins.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import race_simulator as sim
from .characters import (
    DirichletCharacter,
    character_group,
    character_pair_constraint,
    character_table,
    nonprincipal_characters,
)
from .goodness import gaps_ok, witness_for
from .residue_group import (
    check_modulus,
    check_residue,
    factorize,
    mod_div,
    multiplicative_order,
    unit_group_structure,
)

TWO_PI = 2.0 * math.pi
B_SNAP = 1e-12  # treat the phase offset as exactly zero below this
NE_SLACK = 1e-9  # float slack before escalating an (in)equality to high precision


class ConstructionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class RaceTriple:
    q: int
    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        check_modulus(self.q)
        res = [check_residue(self.q, a) for a in (self.a1, self.a2, self.a3)]
        if len(set(res)) != 3:
            raise ValueError(f"residues {res} are not pairwise distinct mod {self.q}")
        object.__setattr__(self, "a1", res[0])
        object.__setattr__(self, "a2", res[1])
        object.__setattr__(self, "a3", res[2])

    @property
    def residues(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class ZeroSpec:
    character: DirichletCharacter
    sigma: float
    gamma: float
    multiplicity: int

    def __post_init__(self):
        if not 0.5 < self.sigma <= 1.0:
            raise ValueError(f"zero real part {self.sigma} outside (1/2, 1]")
        if self.gamma <= 0:
            raise ValueError("zero ordinate must be positive")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    @property
    def rho(self) -> complex:
        return complex(self.sigma, self.gamma)


@dataclass(frozen=True)
class Barrier:
    triple: RaceTriple
    permutation: tuple[int, int, int]  # positions of the relabeled residues
    relabeled_triple: tuple[int, int, int]
    construction: str  # 'I' | 'II' | 'III'
    beta1: float
    zeros: tuple[ZeroSpec, ...]
    excluded_ordering: tuple[int, int, int]
    parameters: dict = field(default_factory=dict, compare=False)
    margins: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.zeros:
            raise ValueError("barrier needs at least one zero")
        beta2 = min(z.sigma for z in self.zeros)
        if not 0.5 <= self.beta1 < beta2:
            raise ValueError(f"beta1={self.beta1} not below the zero strip [{beta2}, ...]")
        if sorted(self.excluded_ordering) != sorted(self.triple.residues):
            raise ValueError("excluded ordering is not a permutation of the triple")

    @property
    def q(self) -> int:
        return self.triple.q

    @property
    def size(self) -> int:
        return sum(z.multiplicity for z in self.zeros)


@dataclass(frozen=True)
class GshBarrier:
    triple: RaceTriple
    permutation: tuple[int, int, int]
    relabeled_triple: tuple[int, int, int]
    chi1: DirichletCharacter
    chi2: DirichletCharacter
    t: float
    sigma1: float
    sigma2: float
    beta: float
    truncation: int
    h_values: tuple[int, ...]
    in_h: tuple[bool, ...]
    gammas: tuple[float, ...]
    deltas: tuple[float, ...]
    z: complex
    w: complex
    alpha: float
    beta_phase: float
    excluded_ordering: tuple[int, int, int]
    construction: str = "GSH"
    parameters: dict = field(default_factory=dict, compare=False)
    margins: dict = field(default_factory=dict, compare=False)

    @property
    def q(self) -> int:
        return self.triple.q


@dataclass
class BarrierParams:
    sigma: float = 0.501  # ceiling for zero real parts
    tau: float = 100.0  # floor for zero ordinates
    sigma1: float = 0.501
    sigma2: float = 0.5005
    beta1: float = 0.5
    t: float = 1000.0
    gamma: float = 1000.0
    epsilon: float = 1e-3
    q_cap_power10: int = 6  # largest denominator 10^k for rationalization
    gsh_sigma1: float = 0.6
    gsh_sigma2: float = 0.55
    gsh_beta: float = 0.5
    truncation: int = 10_000
    gap_check_limit: int = 1_000_000


# ---------------------------------------------------------------------------
# first construction: search


@dataclass(frozen=True)
class EqualSumSet:
    permutation: tuple[int, int, int]
    relabeled_triple: tuple[int, int, int]
    family: str
    characters: tuple[DirichletCharacter, ...]
    chi2: DirichletCharacter
    sums: tuple[complex, complex, complex]


_PERMS = tuple(itertools.permutations((0, 1, 2)))
# Every family condition of find_equal_sum_set is symmetric in the first two
# labels, so of the relabelings (i, j, k) and (j, i, k) only the one that comes
# first in _PERMS can be the first to succeed.
_PAIR_PERMS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _primitive_root_row(group, b1: int, b2: int, b3: int) -> int | None:
    """In a cyclic group, the row of a character with chi(b1) = chi(b2) != chi(b3).

    With discrete logs l and d = gcd(l2 - l1, phi), chi(g^x) = e(x / d) is 1
    on <b2/b1> and not on b3/b2 when d does not divide l3 - l2.  Otherwise
    b3/b2 lies in <b2/b1>, every character equal on b1 and b2 is equal on b3
    too, and None is returned: no such character exists.
    """
    phi = group.phi
    l1, l2, l3 = (group.dlog[b][0] for b in (b1, b2, b3))
    d = math.gcd((l2 - l1) % phi, phi)
    return phi // d if (l3 - l2) % phi % d else None


def _in_subgroup(group, b: int, c: int) -> bool:
    """Whether the unit b lies in the cyclic subgroup generated by c.

    In a cyclic group, g^x lies in <g^y> exactly when gcd(y, phi) divides x;
    otherwise the powers of c are walked, at most ord(c) of them.
    """
    if len(group.orders) == 1:
        return group.dlog[b][0] % math.gcd(group.dlog[c][0], group.phi) == 0
    x = c
    while x != b and x != 1:
        x = x * c % group.q
    return x == b


def _power(chars, chi: DirichletCharacter, i: int) -> DirichletCharacter:
    """chi**i, taken from the character group instead of built anew."""
    row = 0
    for h, s in zip(chi.exponents, chi.group.orders):
        row = row * s + h * i % s
    return chars[row]


def _first_separating_character(D: RaceTriple, cols, i: int, j: int) -> DirichletCharacter:
    """First non-principal character with different values at D's residues
    i and j; cols holds the table columns of D's residues."""
    x, y = cols[i], cols[j]
    for ci in range(1, len(x)):  # row 0 is the principal character
        if x[ci] != y[ci]:
            return character_group(D.q)[ci]
    raise ConstructionError(
        f"no character separates {D.residues[i]} and {D.residues[j]} mod {D.q}"
    )


def find_equal_sum_set(D: RaceTriple) -> EqualSumSet | None:
    """Character set S with equal value sums on two residues, different on the third.

    Family priority: primitive-root shortcut, singletons, conjugate pairs,
    power families (which subsume the even-power variant).  First success in
    deterministic order wins; None when no family applies.  These families
    decide every triple whose modulus has phi(q) <= 17, so no search over
    arbitrary subsets is made.  Also returns a character separating the
    first two relabeled residues.
    """
    q = D.q
    res = D.residues
    chars = character_group(q)
    group = unit_group_structure(q)
    table = character_table(q)
    n, roots = table.exponent, table.roots
    cols = table.columns(res)
    nonprinc = range(1, len(chars))  # row 0 is the principal character

    def package(perm, family, row, powers):
        # members chi^i, i in powers, with chi^i(a) = roots[i k % n] for chi(a) = roots[k]
        sums = tuple(sum(roots[i * k % n] for i in powers) for k in (cols[j][row] for j in perm))
        members = tuple(_power(chars, chars[row], i) for i in powers)
        chi2 = _first_separating_character(D, cols, perm[0], perm[1])
        return EqualSumSet(perm, tuple(res[j] for j in perm), family, members, chi2, sums)

    if len(group.generators) == 1:
        # primitive-root shortcut; it finds a singleton whenever one exists,
        # so in a cyclic group no singleton scan follows a failed pass
        for perm in _PAIR_PERMS:
            row = _primitive_root_row(group, *(res[i] for i in perm))
            if row is not None:
                k1, k2, k3 = (cols[i][row] for i in perm)
                assert k1 == k2 != k3
                return package(perm, "primitive-root", row, (1,))
    else:
        for perm in _PAIR_PERMS:
            c1, c2, c3 = (cols[i] for i in perm)
            for ci in nonprinc:
                if c1[ci] == c2[ci] != c3[ci]:
                    return package(perm, "singleton", ci, (1,))

    # conjugate pairs: sums are 2 cos(2 pi k / n)
    for perm in _PAIR_PERMS:
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in nonprinc:
            k1, k2, k3 = c1[ci], c2[ci], c3[ci]
            if ((k1 == k2 or (k1 + k2) % n == 0) and k3 != k1 and (k1 + k3) % n != 0
                    and chars[ci].order > 2):
                return package(perm, "conjugate-pair", ci, (1, -1))

    # power families {chi, ..., chi^(ord-1)}: sums depend only on chi(a) = 1 or
    # not.  No singleton exists, so no character is 1 on b1 and b2 but not on
    # b3; a member is 1 on b3 only, and one exists exactly when neither b1 nor
    # b2 lies in <b3> (a character of G/<b3> nontrivial on both images).
    for perm in _PAIR_PERMS:
        b1, b2, b3 = (res[i] for i in perm)
        if _in_subgroup(group, b1, b3) or _in_subgroup(group, b2, b3):
            continue
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in nonprinc:
            if (c1[ci] == 0) == (c2[ci] == 0) != (c3[ci] == 0):
                return package(perm, "power", ci, range(1, chars[ci].order))
    return None


# ---------------------------------------------------------------------------
# first construction: barrier


def _wrap_pi(x: float) -> float:
    """wrap into [-pi, pi)"""
    return (x + math.pi) % TWO_PI - math.pi


def construction_one(D: RaceTriple, found: EqualSumSet, params: BarrierParams) -> Barrier:
    """Simple zeros at sigma1 + it for each chi in S and sigma2 + 2it for chi2."""
    p = params
    if not (0.5 <= p.beta1 < p.sigma2 < p.sigma1 <= min(p.sigma, 0.501)):
        raise ConstructionError(
            f"need 1/2 <= beta1 < sigma2 < sigma1 <= min(sigma, 0.501), got "
            f"{p.beta1}, {p.sigma2}, {p.sigma1}, {p.sigma}"
        )
    b1, b2, b3 = found.relabeled_triple
    table = character_table(D.q)
    roots = table.roots
    c1, c2, c3 = table.columns(found.relabeled_triple)
    row = found.chi2.index
    w = roots[c2[row]].conjugate() - roots[c1[row]].conjugate()
    z = sum(roots[c2[chi.index]].conjugate() - roots[c3[chi.index]].conjugate()
            for chi in found.characters)
    if abs(w) == 0 or abs(z) == 0:
        raise ConstructionError("degenerate phase coefficients (W or Z vanished)")

    phase_diff = cmath.phase(w) - 2.0 * cmath.phase(z)
    b_val = (phase_diff / math.pi) % 1.0 - 0.5
    if abs(b_val) < B_SNAP:
        b_val = 0.0
    t = max(p.t, 2.0 * p.tau, 1000.0)
    while b_val != 0.0 and abs(b_val) <= 2.0 / t:
        t *= 2.0

    atan1, atan2 = math.atan(p.sigma1 / t), math.atan(p.sigma2 / (2.0 * t))
    f0 = 2.0 * atan1 - atan2
    c_star = _wrap_pi(phase_diff - math.pi / 2.0 + atan2 - 2.0 * atan1)
    sign = math.cos(c_star)
    phase_slack = abs(math.pi * b_val - f0)
    if sign == 0.0:
        raise ConstructionError("phase analysis inconclusive (cos C* = 0)")
    # D1 = phi(q)(pi_{b1} - pi_{b2}) keeps the sign of cos C* on the locked set
    excluded = (b2, b3, b1) if sign > 0 else (b1, b3, b2)

    zeros = [ZeroSpec(chi, p.sigma1, t, 1) for chi in found.characters]
    zeros.append(ZeroSpec(found.chi2, p.sigma2, 2.0 * t, 1))
    barrier = Barrier(
        triple=D,
        permutation=found.permutation,
        relabeled_triple=found.relabeled_triple,
        construction="I",
        beta1=p.beta1,
        zeros=tuple(zeros),
        excluded_ordering=excluded,
        parameters={"sigma1": p.sigma1, "sigma2": p.sigma2, "t": t, "family": found.family},
        margins={
            "B": b_val,
            "B_times_t": b_val * t,
            "F0": f0,
            "cos_c_star": sign,
            "phase_slack": phase_slack,
            "abs_W": abs(w),
            "abs_Z": abs(z),
            "verdict_margin": phase_slack,
        },
    )
    assert barrier.size == len(found.characters) + 1
    return barrier


# ---------------------------------------------------------------------------
# second construction: search


@dataclass(frozen=True)
class SpacingCharacter:
    permutation: tuple[int, int, int]
    relabeled_triple: tuple[int, int, int]
    chi: DirichletCharacter
    d1: Fraction
    d2: Fraction
    c1: int
    c2: int
    base_modulus: int  # m in the witness search
    witness_k: int


@dataclass(frozen=True)
class CaseIDeferral:
    """A character making two of the three values coincide: the first
    construction applies with the singleton family."""

    permutation: tuple[int, int, int]
    relabeled_triple: tuple[int, int, int]
    chi: DirichletCharacter


_SMALL_PRIME_SET = frozenset((3, 7, 13))


def multiplicities_for(d1: Fraction, d2: Fraction) -> tuple[int, int]:
    if d1 > Fraction(1, 3):
        return (1, 2)
    if (d1, d2) == (Fraction(6, 19), Fraction(9, 19)):
        return (5, 9)
    if (d1, d2) == (Fraction(12, 37), Fraction(16, 37)):
        return (3, 5)
    raise ValueError(f"gap pair {(d1, d2)} outside the admissible spacing set")


def find_spacing_character(D: RaceTriple):
    """Character with admissibly spaced values, or a coincidence deferral, or None.

    Follows the order decomposition of the ratio orders s_i: a prime-power
    route when some s_i has a prime-power divisor outside {3, 7, 13}, the
    {39, 91, 273} route otherwise, then powers the base character by the
    goodness witness to land the gaps in the admissible spacing set.
    Returns None exactly when every s_i lies in {3, 7, 13, 21}.
    """
    q, res = D.q, D.residues
    # ord(x) = ord(1/x): a triple has three ratio orders, shared by every relabeling
    order = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        order[i, j] = order[j, i] = multiplicative_order(q, mod_div(q, res[j], res[i]))

    def ratio_orders(perm):
        i, j, k = perm
        return order[i, j], order[j, k], order[k, i]

    for perm in _PERMS:
        s1, s2, s3 = ratio_orders(perm)
        for p, w in factorize(s1):
            if p**w in _SMALL_PRIME_SET:
                continue
            if s2 % p ** (w + 1) == 0 or s3 % p ** (w + 1) == 0:
                continue
            return _spacing_from_route(D, perm, p**w, p)
    # the {39, 91, 273} route
    for perm in _PERMS:
        s1, s2, s3 = ratio_orders(perm)
        if s1 in (39, 91, 273) and 273 % s2 == 0 and 273 % s3 == 0:
            return _spacing_from_route(D, perm, s1, None)
    return None


def _spacing_from_route(D: RaceTriple, perm, r: int, p: int | None):
    """Build the base character for the route and scan witness powers."""
    q = D.q
    triple = tuple(D.residues[i] for i in perm)
    b1, b2, b3 = triple
    ratio21 = mod_div(q, b2, b1)
    ratio32 = mod_div(q, b3, b2)
    chi1 = character_pair_constraint(q, ratio21, ratio32, r)
    if p is not None:
        # reduce to chi2 with chi2(b2/b1) = e(1/m), m = p or p^2
        u_exp = 2 if p in _SMALL_PRIME_SET else 1
        [(_, e)] = factorize(r)  # r = p^e
        chi2 = chi1 ** (p ** (e - u_exp))
        m = p**u_exp
    else:
        chi2 = chi1
        m = r
    n = chi2.group.exponent
    k32 = chi2.angle_numerator(ratio32)
    assert k32 * m % n == 0  # chi2(b3/b2) is an m-th root of unity
    j_tilde = k32 * m // n
    if j_tilde == 0:
        return CaseIDeferral(perm, triple, chi2)  # chi2(b2) = chi2(b3)
    j_good = j_tilde + 1
    if j_good == m:
        return CaseIDeferral(perm, triple, chi2)  # chi2(b1) = chi2(b3)
    k = witness_for(m, j_good)
    if k is None:
        raise ConstructionError(f"base modulus m={m} has no witness for j={j_good}")
    chi_k = chi2**k
    points = (0, k % m, k * j_good % m)
    if len(set(points)) < 3:
        return CaseIDeferral(perm, triple, chi_k)
    return _assemble_spacing(D, chi_k, m, k)


def _assemble_spacing(D: RaceTriple, chi: DirichletCharacter, m: int, k: int):
    """Read off the relabeling and gap pair from the actual character values.

    Gaps are compared as integer numerators over the group exponent n.
    """
    res = D.residues
    table = character_table(D.q)
    n = table.exponent
    cols = table.columns(res)
    for candidate in (chi, chi.conjugate()):
        row = candidate.index
        angles = sorted((col[row], a) for col, a in zip(cols, res))
        (t1, r1), (t2, r2), (t3, r3) = angles
        gaps = (t2 - t1, t3 - t2, n - t3 + t1)
        rotations = (
            ((r1, r2, r3), (gaps[0], gaps[1])),
            ((r2, r3, r1), (gaps[1], gaps[2])),
            ((r3, r1, r2), (gaps[2], gaps[0])),
        )
        for labels, (g1, g2) in rotations:
            if g1 <= g2 and gaps_ok(g1, g2, n):
                d1, d2 = Fraction(g1, n), Fraction(g2, n)
                perm = tuple(res.index(a) for a in labels)
                c1, c2 = multiplicities_for(d1, d2)
                return SpacingCharacter(perm, labels, candidate, d1, d2, c1, c2, m, k)
    raise ConstructionError(
        f"witness k={k} (m={m}) did not produce admissible gaps on the values"
    )


# ---------------------------------------------------------------------------
# second construction: inequality check and barrier


@dataclass(frozen=True)
class CrossingInequality:
    ok: bool
    margin: float
    z1: float
    z2: float
    lambda1: float
    lambda2: float


def verify_crossing_inequality(c1: int, c2: int, d1, d2) -> CrossingInequality:
    """z1 + z2 < pi (d1 + d2) with z_j the envelope zero crossings."""
    lam1 = (c2 / c1) * math.cos(math.pi * float(d1))
    lam2 = (c2 / c1) * math.cos(math.pi * float(d2))
    z1 = sim.v_lambda(lam1)  # raises if lam outside (0, 1)
    z2 = sim.v_lambda(lam2)
    margin = math.pi * (float(d1) + float(d2)) - (z1 + z2)
    return CrossingInequality(margin > 0.0, margin, z1, z2, lam1, lam2)


def construction_two(D: RaceTriple, spacing: SpacingCharacter, params: BarrierParams) -> Barrier:
    """Zero of order c1 for chi and order c2 for chi^2 at double height."""
    p = params
    ineq = verify_crossing_inequality(spacing.c1, spacing.c2, spacing.d1, spacing.d2)
    if not ineq.ok:
        raise ConstructionError(f"spacing inequality failed, margin {ineq.margin}")
    chi = spacing.chi
    b1_, b2_, b3_ = spacing.relabeled_triple
    t1, t2, t3 = (chi.evaluate(a) for a in (b1_, b2_, b3_))
    if ((t2 - t1) % 1, (t3 - t2) % 1) != (spacing.d1 % 1, spacing.d2 % 1):
        raise ConstructionError("character values do not realize the declared gaps")
    if (spacing.c1, spacing.c2) != multiplicities_for(spacing.d1, spacing.d2):
        raise ConstructionError("multiplicities inconsistent with the gap pair")
    chi_sq = chi * chi
    if chi_sq.is_principal:
        raise ConstructionError("chi^2 is principal; spacing geometry violated")
    delta, y_worst = sim.envelope_min(spacing.d1, spacing.d2, spacing.c1, spacing.c2)
    gamma = max(p.gamma, 2.0 * p.tau, 1000.0)
    alpha_sigma = p.sigma1
    if not (0.5 <= p.beta1 < alpha_sigma <= p.sigma):
        raise ConstructionError("need 1/2 <= beta1 < alpha <= sigma")
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


# ---------------------------------------------------------------------------
# third construction


@dataclass(frozen=True)
class DeterminantWitness:
    chi: DirichletCharacter
    h: int
    k: int


def _distinct(lhs: float, rhs: float, lhs_exact, rhs_exact) -> bool:
    """Float inequality with high-precision escalation on near ties."""
    if abs(lhs - rhs) > NE_SLACK:
        return True
    import mpmath as mp

    with mp.workdps(50):
        return abs(lhs_exact() - rhs_exact()) > mp.mpf("1e-40")


def _mp_trig(angle: Fraction, kind: str):
    import mpmath as mp

    x = 2 * mp.pi * mp.mpf(angle.numerator) / angle.denominator
    return mp.cos(x) if kind == "cos" else mp.sin(x)


def find_order7_character(D: RaceTriple) -> DeterminantWitness:
    """First character passing both 2x2 determinant tests (real and imaginary).

    Applicable whenever the first construction's search failed; any character
    nontrivial on a2/a1 then works and has order at least 7, which is asserted.
    Values of chi^p are read as roots[p k % n] for chi(x) = e(k / n), k from
    the table columns of D's residues.
    """
    chars = character_group(D.q)
    table = character_table(D.q)
    n, roots = table.exponent, table.roots
    x1, x2, x3 = table.columns(D.residues)
    ratio21 = mod_div(D.q, D.a2, D.a1)

    def re_diff(power: int, kx: int, ky: int) -> float:
        return roots[power * kx % n].real - roots[power * ky % n].real

    def im_diff(power: int, kx: int, ky: int) -> float:
        return roots[power * kx % n].imag - roots[power * ky % n].imag

    def mp_diff(kind: str, power: int, kx: int, ky: int):
        return (_mp_trig(Fraction(power * kx % n, n), kind)
                - _mp_trig(Fraction(power * ky % n, n), kind))

    for ci in range(1, len(chars)):  # row 0 is the principal character
        chi = chars[ci]
        if chi.angle_numerator(ratio21) == 0:
            continue
        k1, k2, k3 = x1[ci], x2[ci], x3[ci]
        ok_real = _distinct(
            re_diff(1, k3, k2) * re_diff(2, k2, k1),
            re_diff(1, k2, k1) * re_diff(2, k3, k2),
            lambda: mp_diff("cos", 1, k3, k2) * mp_diff("cos", 2, k2, k1),
            lambda: mp_diff("cos", 1, k2, k1) * mp_diff("cos", 2, k3, k2),
        )
        if not ok_real:
            continue
        for h, k in ((1, 2), (1, 3), (2, 3)):
            ok_imag = _distinct(
                im_diff(h, k3, k2) * im_diff(k, k2, k1),
                im_diff(h, k2, k1) * im_diff(k, k3, k2),
                lambda h=h, k=k: mp_diff("sin", h, k3, k2) * mp_diff("sin", k, k2, k1),
                lambda h=h, k=k: mp_diff("sin", h, k2, k1) * mp_diff("sin", k, k3, k2),
            )
            if ok_imag:
                if chi.order < 7:
                    raise ConstructionError(
                        f"determinant witness has order {chi.order} < 7: "
                        "triple leaks into the first construction"
                    )
                return DeterminantWitness(chi, h, k)
    raise ConstructionError(f"no character passes the determinant tests for {D}")


def solve_lambda_system(
    D: RaceTriple, chi: DirichletCharacter, h: int, k: int, z1: complex, z2: complex
) -> dict[DirichletCharacter, float]:
    """Nonnegative coefficients lambda_chi with

        z1 = sum_chi lambda_chi (conj chi(a2) - conj chi(a1))
        z2 = sum_chi lambda_chi (conj chi(a3) - conj chi(a2)).

    Solves two 2x2 systems (real parts on chi, chi^2; imaginary parts on
    chi^h, chi^k), spreads the solution over conjugate pairs, and shifts all
    coefficients up by a constant, which leaves both sums unchanged because
    the full non-principal value sum at each residue is -1.
    """
    q = D.q
    a1, a2, a3 = D.residues
    if any(a == 1 for a in (a1, a2, a3)):
        raise ValueError("residue 1 breaks the constant-shift identity")
    chars = character_group(q)
    table = character_table(q)
    n, roots = table.exponent, table.roots
    x1, x2, x3 = table.columns(D.residues)
    row = chi.index

    def vdiff(power, x, y):
        return roots[power * x[row] % n] - roots[power * y[row] % n]

    m_re = ((vdiff(1, x2, x1).real, vdiff(2, x2, x1).real),
            (vdiff(1, x3, x2).real, vdiff(2, x3, x2).real))
    m_im = ((vdiff(h, x2, x1).imag, vdiff(k, x2, x1).imag),
            (vdiff(h, x3, x2).imag, vdiff(k, x3, x2).imag))
    l1, l2 = _solve_2x2(m_re, (z1.real / 2.0, z2.real / 2.0))
    # the conjugate-antisymmetric spread turns Im sums into -2i times the
    # solved combination, so the right-hand side enters negated
    l3, l4 = _solve_2x2(m_im, (-z1.imag / 2.0, -z2.imag / 2.0))

    theta: dict[DirichletCharacter, float] = {c: 0.0 for c in nonprincipal_characters(q)}

    def bump(power, val):
        c = _power(chars, chi, power)
        theta[c] = theta.get(c, 0.0) + val

    bump(1, l1)
    bump(-1, l1)
    bump(2, l2)
    bump(-2, l2)
    bump(h, l3)
    bump(-h, -l3)
    bump(k, l4)
    bump(-k, -l4)

    y = max(0.0, -min(theta.values()))
    lam = {c: v + y for c, v in theta.items()}

    rows = [c.index for c in lam]
    r1 = sum(v * (roots[x2[i]].conjugate() - roots[x1[i]].conjugate())
             for i, v in zip(rows, lam.values()))
    r2 = sum(v * (roots[x3[i]].conjugate() - roots[x2[i]].conjugate())
             for i, v in zip(rows, lam.values()))
    resid = max(abs(r1 - z1), abs(r2 - z2))
    if resid >= 1e-10:
        raise ArithmeticError(f"linear system residual {resid} too large")
    return lam


def _solve_2x2(m, rhs):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0.0:
        raise ArithmeticError("singular 2x2 system; determinant tests inconsistent")
    x = (rhs[0] * m[1][1] - rhs[1] * m[0][1]) / det
    y = (m[0][0] * rhs[1] - m[1][0] * rhs[0]) / det
    return x, y


def construction_three(D: RaceTriple, params: BarrierParams) -> Barrier:
    """Zeros of rationalized multiplicities N/Q for every character at two heights."""
    p = params
    chars = nonprincipal_characters(D.q)
    witness = find_order7_character(D)
    nu1 = solve_lambda_system(D, witness.chi, witness.h, witness.k, 1j, -1j)
    nu2 = solve_lambda_system(D, witness.chi, witness.h, witness.k, 1j, 1j)

    q_denom = None
    errs = None
    for power in range(p.q_cap_power10 + 1):
        qq = 10**power
        e1 = max(abs(v - round(qq * v) / qq) for v in nu1.values())
        e2 = max(abs(v - round(qq * v) / qq) for v in nu2.values())
        errs = (e1, e2)
        if max(e1, e2) < p.epsilon:
            q_denom = qq
            break
    if q_denom is None:
        raise ConstructionError(
            f"epsilon={p.epsilon} unachievable with Q <= 10^{p.q_cap_power10}; "
            f"best errors {errs}"
        )

    gamma = max(p.gamma, 2.0 * p.tau, 1000.0)
    sigma1 = p.sigma1
    if not (0.5 <= p.beta1 < sigma1 <= p.sigma):
        raise ConstructionError("need 1/2 <= beta1 < sigma1 <= sigma")
    zeros = []
    for kk, nu in ((1, nu1), (2, nu2)):
        for c in chars:
            mult = max(0, round(q_denom * nu[c]))
            if mult > 0:
                zeros.append(ZeroSpec(c, sigma1, kk * gamma, mult))
    if not zeros:
        raise ConstructionError("all rationalized multiplicities vanished; raise Q")

    # bound on the drift of the normalized main terms away from the ideal
    # (Q/gamma)(±2 cos + cos 2) envelope, from the rationalization errors
    table = character_table(D.q)
    roots = table.roots
    x1, x2, x3 = table.columns(D.residues)
    scale = sum(
        abs(roots[x[ci]].conjugate() - roots[y[ci]].conjugate())
        for ci in range(1, len(chars) + 1)  # chars are rows 1 .. phi - 1
        for x, y in ((x1, x2), (x2, x3))
    )
    barrier = Barrier(
        triple=D,
        permutation=(0, 1, 2),
        relabeled_triple=D.residues,
        construction="III",
        beta1=p.beta1,
        zeros=tuple(zeros),
        excluded_ordering=D.residues,
        parameters={
            "sigma1": sigma1,
            "gamma": gamma,
            "Q": q_denom,
            "epsilon": p.epsilon,
            "det_chi": list(witness.chi.exponents),
            "det_h": witness.h,
            "det_k": witness.k,
        },
        margins={
            "err_nu1": errs[0],
            "err_nu2": errs[1],
            "rationalization_scale": scale,
            "envelope_bound": -1.0 + 2.0 * max(errs) * scale,
            "verdict_margin": 1.0 - 2.0 * max(errs) * scale,
        },
    )
    return barrier


# ---------------------------------------------------------------------------
# pipeline


def find_barrier(D: RaceTriple, params: BarrierParams | None = None) -> Barrier:
    """Construction I if the set search succeeds, else II if a spacing
    character exists, else III."""
    params = params or BarrierParams()
    found = find_equal_sum_set(D)
    if found is not None:
        barrier = construction_one(D, found, params)
    else:
        spacing = find_spacing_character(D)
        if isinstance(spacing, CaseIDeferral):
            # two values coincide: the singleton family qualifies after all
            found = _equal_sum_from_deferral(D, spacing)
            barrier = construction_one(D, found, params)
        elif isinstance(spacing, SpacingCharacter):
            barrier = construction_two(D, spacing, params)
        else:
            barrier = construction_three(D, params)
    for z in barrier.zeros:
        if z.sigma > params.sigma or z.gamma <= params.tau:
            raise ConstructionError(
                f"zero {z.rho} violates the requested region (sigma <= {params.sigma}, "
                f"gamma > {params.tau})"
            )
    return barrier


def _equal_sum_from_deferral(D: RaceTriple, deferral: CaseIDeferral) -> EqualSumSet:
    chi = deferral.chi
    b = deferral.relabeled_triple
    vals = [chi.evaluate(a) for a in b]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        kk = 3 - i - j
        if vals[i] == vals[j] != vals[kk]:
            triple = (b[i], b[j], b[kk])
            perm = tuple(D.residues.index(a) for a in triple)
            cols = character_table(D.q).columns(D.residues)
            chi2 = _first_separating_character(D, cols, perm[0], perm[1])
            sums = tuple(chi.value(a) for a in triple)
            return EqualSumSet(perm, triple, "deferral-singleton", (chi,), chi2, sums)
    raise ConstructionError("deferral character has no coinciding value pair")


# ---------------------------------------------------------------------------
# infinite construction


def _first_n_primes(n: int) -> list[int]:
    # n-th prime < n (ln n + ln ln n) for n >= 6
    if n < 6:
        limit = 14
    else:
        limit = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = np.flatnonzero(sieve)
    return primes[:n].tolist()


def _phase_quality(alpha: float) -> float:
    # both alpha near an integer and alpha near a half-integer make the walk
    # h alpha + beta drift slowly, stretching the gaps of H
    d1 = abs(alpha - round(alpha))
    d2 = abs(2 * alpha - round(2 * alpha))
    return min(d1, d2)


def find_gsh_characters(D: RaceTriple, sigma1: float = 0.6, t: float = 1000.0):
    """Characters (chi1, chi2) with chi1 equal on the first relabeled pair but
    not the third, and chi2 separating the first pair.

    Among qualifying candidates the one whose phase offset sits farthest from
    the slow-drift values 0 and 1/2 is chosen, so the window checks carry
    information at moderate heights; ties resolve to the canonical first.
    """
    chars = character_group(D.q)
    cols = character_table(D.q).columns(D.residues)
    best = None
    best_score = -1.0
    for perm in _PERMS:
        b1, b2, b3 = (D.residues[i] for i in perm)
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in range(1, len(chars)):  # row 0 is the principal character
            if not (c1[ci] == c2[ci] != c3[ci]):
                continue
            chi1 = chars[ci]
            z = chi1.value(b2).conjugate() - chi1.value(b3).conjugate()
            alpha = -(math.atan(sigma1 / t) + cmath.phase(z)) / math.pi
            score = _phase_quality(alpha)
            if score > best_score + 1e-12:
                chi2 = _first_separating_character(D, cols, perm[0], perm[1])
                best = (perm, (b1, b2, b3), chi1, chi2)
                best_score = score
    return best


def construction_gsh(D: RaceTriple, params: BarrierParams | None = None) -> GshBarrier:
    """Infinite (truncated) barrier: one isolated zero for chi1 and a family
    of zeros for chi2 whose ordinates are phase-locked through the set H."""
    p = params or BarrierParams()
    sigma1, sigma2, beta = p.gsh_sigma1, p.gsh_sigma2, p.gsh_beta
    if not 0.5 <= beta < sigma2 < sigma1:
        raise ConstructionError("need 1/2 <= beta < sigma2 < sigma1")
    t = max(p.t, 2.0 * p.tau, 1000.0)
    found = find_gsh_characters(D, sigma1=sigma1, t=t)
    if found is None:
        raise ConstructionError(f"no character pair satisfies the phase conditions for {D}")
    perm, triple, chi1, chi2 = found
    b1, b2, b3 = triple
    j_max = p.truncation

    z = chi1.value(b2).conjugate() - chi1.value(b3).conjugate()
    w = chi2.value(b2).conjugate() - chi2.value(b1).conjugate()
    assert abs(z) > 0 and abs(w) > 0

    for _ in range(64):
        alpha = -(math.atan(sigma1 / t) + cmath.phase(z)) / math.pi
        dist = abs(alpha - round(alpha))
        if 1.0 / (10.0 * t) <= dist <= 0.5 - 1.0 / (10.0 * t):
            break
        t *= 2.0
    else:
        raise ConstructionError("could not place the phase offset away from 0 and 1/2")
    beta_phase = cmath.phase(w) / TWO_PI - 0.25

    def in_h_set(hs: np.ndarray) -> np.ndarray:
        frac = hs * alpha + beta_phase
        return np.abs(frac - np.round(frac)) <= 0.2

    # first member of H in each window [j^2, j^2 + j]: probe offsets
    # [lo, lo + width) of every window with no hit yet at once, doubling the
    # width each round, in blocks of at most 2^16 elements
    js = np.arange(1, j_max + 1, dtype=np.int64)
    first = np.full(j_max, -1, dtype=np.int64)  # offset of the first hit, -1 for none
    unresolved = js - 1
    lo, width = 0, 8
    while unresolved.size:
        offsets = np.arange(lo, lo + width, dtype=np.int64)
        rows = max(1, (1 << 16) // width)
        for s in range(0, unresolved.size, rows):
            idx = unresolved[s:s + rows]
            jj = js[idx, None]
            hits = in_h_set(jj * jj + offsets) & (offsets <= jj)
            hit = hits.any(axis=1)
            first[idx[hit]] = lo + hits[hit].argmax(axis=1)
        lo += width
        width = min(2 * width, 1 << 16)
        unresolved = unresolved[(first[unresolved] < 0) & (js[unresolved] >= lo)]
    in_h = first >= 0
    missed = np.flatnonzero(~in_h & (js >= 10.0 * t))
    if missed.size:
        # a window of j+1 >= 10t+1 consecutive integers must meet H
        raise ConstructionError(f"window at j={missed[0] + 1} missed H; gap property broken")
    h_values = (js * js + np.maximum(first, 0)).tolist()
    in_h_flags = in_h.tolist()

    # decay exponents of order j^-3, clipped inside the allowed strip
    c_delta = 8.0 * (sigma2 - beta)
    cap = 0.95 * (sigma2 - beta)
    deltas = [min(cap, c_delta / (j * j * j)) for j in range(1, j_max + 1)]
    primes = _first_n_primes(j_max)
    gammas = []
    for j, (h, pr) in enumerate(zip(h_values, primes), start=1):
        xi = (math.sqrt(pr) % 1.0) * j ** -10.0
        gammas.append(2.0 * t * h + xi)
    if len(set(gammas)) != len(gammas):
        raise ConstructionError("ordinate collision in the truncated family")

    # gap property of H on the configured check range
    limit = p.gap_check_limit
    hs = np.arange(limit + 1, dtype=np.int64)
    members = np.flatnonzero(in_h_set(hs))
    if members.size < 2:
        raise ConstructionError("H has too few members on the check range")
    max_gap = int(np.diff(members).max())
    bound = int(10.0 * t) + 1
    if max_gap > bound:
        raise ConstructionError(f"H gap {max_gap} exceeds {bound} on [0, {limit}]")

    # samples below this see non-negligible mass from phase-uncontrolled terms;
    # j <= 2 count as uncontrolled because their ordinate perturbations xi_j
    # rotate the phase at moderate heights
    rec_u0 = 1000.0
    for j, flag in enumerate(in_h_flags, start=1):
        if (not flag or j <= 2) and j <= 50:
            rec_u0 = max(rec_u0, 20.0 / deltas[j - 1])

    return GshBarrier(
        triple=D,
        permutation=perm,
        relabeled_triple=triple,
        chi1=chi1,
        chi2=chi2,
        t=t,
        sigma1=sigma1,
        sigma2=sigma2,
        beta=beta,
        truncation=j_max,
        h_values=tuple(h_values),
        in_h=tuple(in_h_flags),
        gammas=tuple(gammas),
        deltas=tuple(deltas),
        z=z,
        w=w,
        alpha=alpha,
        beta_phase=beta_phase,
        excluded_ordering=(b2, b3, b1),
        parameters={"t": t, "sigma1": sigma1, "sigma2": sigma2, "beta": beta,
                    "J": j_max, "gap_check_limit": limit},
        margins={"h_max_gap": max_gap, "h_gap_bound": bound,
                 "alpha_dist": abs(alpha - round(alpha)),
                 "recommended_u0": rec_u0,
                 "uncontrolled_j": [j for j, f in enumerate(in_h_flags, 1) if not f][:20]},
    )


# ---------------------------------------------------------------------------
# serialization


def barrier_to_dict(barrier) -> dict:
    if isinstance(barrier, GshBarrier):
        return {
            "kind": "gsh",
            "q": barrier.q,
            "triple": list(barrier.triple.residues),
            "permutation": list(barrier.permutation),
            "relabeled_triple": list(barrier.relabeled_triple),
            "construction": "GSH",
            "chi1": list(barrier.chi1.exponents),
            "chi2": list(barrier.chi2.exponents),
            "t": barrier.t,
            "sigma1": barrier.sigma1,
            "sigma2": barrier.sigma2,
            "beta": barrier.beta,
            "truncation": barrier.truncation,
            "h_values": list(barrier.h_values),
            "in_h": [bool(f) for f in barrier.in_h],
            "gammas": list(barrier.gammas),
            "deltas": list(barrier.deltas),
            "z": [barrier.z.real, barrier.z.imag],
            "w": [barrier.w.real, barrier.w.imag],
            "alpha": barrier.alpha,
            "beta_phase": barrier.beta_phase,
            "excluded_ordering": list(barrier.excluded_ordering),
            "parameters": barrier.parameters,
            "margins": barrier.margins,
        }
    return {
        "kind": "finite",
        "q": barrier.q,
        "triple": list(barrier.triple.residues),
        "permutation": list(barrier.permutation),
        "relabeled_triple": list(barrier.relabeled_triple),
        "construction": barrier.construction,
        "beta1": barrier.beta1,
        "zeros": [
            {
                "character": list(z.character.exponents),
                "sigma": z.sigma,
                "gamma": z.gamma,
                "multiplicity": z.multiplicity,
            }
            for z in barrier.zeros
        ],
        "excluded_ordering": list(barrier.excluded_ordering),
        "parameters": barrier.parameters,
        "margins": barrier.margins,
    }


def barrier_from_dict(data: dict):
    q = data["q"]
    triple = RaceTriple(q, *data["triple"])
    if data.get("kind") == "gsh":
        return GshBarrier(
            triple=triple,
            permutation=tuple(data["permutation"]),
            relabeled_triple=tuple(data["relabeled_triple"]),
            chi1=DirichletCharacter(q, tuple(data["chi1"])),
            chi2=DirichletCharacter(q, tuple(data["chi2"])),
            t=data["t"],
            sigma1=data["sigma1"],
            sigma2=data["sigma2"],
            beta=data["beta"],
            truncation=data["truncation"],
            h_values=tuple(data["h_values"]),
            in_h=tuple(bool(f) for f in data["in_h"]),
            gammas=tuple(data["gammas"]),
            deltas=tuple(data["deltas"]),
            z=complex(*data["z"]),
            w=complex(*data["w"]),
            alpha=data["alpha"],
            beta_phase=data["beta_phase"],
            excluded_ordering=tuple(data["excluded_ordering"]),
            parameters=data.get("parameters", {}),
            margins=data.get("margins", {}),
        )
    zeros = tuple(
        ZeroSpec(
            DirichletCharacter(q, tuple(zd["character"])),
            zd["sigma"],
            zd["gamma"],
            zd["multiplicity"],
        )
        for zd in data["zeros"]
    )
    return Barrier(
        triple=triple,
        permutation=tuple(data["permutation"]),
        relabeled_triple=tuple(data["relabeled_triple"]),
        construction=data["construction"],
        beta1=data["beta1"],
        zeros=zeros,
        excluded_ordering=tuple(data["excluded_ordering"]),
        parameters=data.get("parameters", {}),
        margins=data.get("margins", {}),
    )
