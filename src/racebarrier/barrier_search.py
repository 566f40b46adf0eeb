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
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import race_simulator as sim
from .characters import (
    DirichletCharacter,
    character_group,
    _pair_constraint_row,
    nonprincipal_characters,
)
from .goodness import gaps_ok, witness_for
from .residue_group import (
    check_modulus,
    check_residue,
    factorize,
    mod_div,
    unit_group_structure,
    unravel,
    vector_order,
)

TWO_PI = 2.0 * math.pi
B_SNAP = 1e-12  # treat the phase offset as exactly zero below this
IM_DET_FLOOR = 1e-9  # an imaginary determinant at or below this is passed over


class ConstructionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# domain types


# The records a barrier search builds on every triple (RaceTriple,
# EqualSumSet, Barrier; SpacingCharacter on construction II) stay frozen
# dataclasses with the generated __eq__, __hash__ and __repr__, but take a
# hand-written __init__ that checks the arguments and sets every field with one
# __dict__ update, not one object.__setattr__ per field.  ZeroSpec and
# CrossingInequality, built only when their cache misses, keep the generated one.


@dataclass(frozen=True, init=False)
class RaceTriple:
    q: int
    a1: int
    a2: int
    a3: int

    def __init__(self, q: int, a1: int, a2: int, a3: int) -> None:
        check_modulus(q)
        a1, a2, a3 = check_residue(q, a1), check_residue(q, a2), check_residue(q, a3)
        if a1 == a2 or a1 == a3 or a2 == a3:
            raise ValueError(f"residues {[a1, a2, a3]} are not pairwise distinct mod {q}")
        self.__dict__.update(q=q, a1=a1, a2=a2, a3=a3)

    @property
    def residues(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class ZeroSpec:
    character: DirichletCharacter
    sigma: float
    gamma: float
    multiplicity: int

    def __post_init__(self) -> None:
        if not 0.5 < self.sigma <= 1.0:
            raise ValueError(f"zero real part {self.sigma} outside (1/2, 1]")
        if not 0 < self.gamma < math.inf:
            raise ValueError("zero ordinate must be positive" if self.gamma <= 0
                             else f"zero ordinate {self.gamma} is not finite")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


# The constructions draw their zeros from this cache: the barriers of one
# modulus repeat a few (character, sigma, gamma, multiplicity), so each is
# checked and built once and then shared.  typed=True keeps gamma 1000 and
# 1000.0 apart, since a barrier file writes them differently.
_zero_spec = lru_cache(maxsize=4096, typed=True)(ZeroSpec)


@dataclass(frozen=True, init=False)
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

    def __init__(self, triple: RaceTriple, permutation: tuple[int, int, int],
                 relabeled_triple: tuple[int, int, int], construction: str, beta1: float,
                 zeros: tuple[ZeroSpec, ...], excluded_ordering: tuple[int, int, int],
                 parameters: dict = MISSING, margins: dict = MISSING) -> None:
        if not zeros:
            raise ValueError("barrier needs at least one zero")
        beta2 = min(z.sigma for z in zeros)
        if not 0.5 <= beta1 < beta2:
            raise ValueError(f"beta1={beta1} not below the zero strip [{beta2}, ...]")
        if sorted(excluded_ordering) != sorted(triple.residues):
            raise ValueError("excluded ordering is not a permutation of the triple")
        self.__dict__.update(
            triple=triple, permutation=permutation, relabeled_triple=relabeled_triple,
            construction=construction, beta1=beta1, zeros=zeros,
            excluded_ordering=excluded_ordering,
            parameters={} if parameters is MISSING else parameters,
            margins={} if margins is MISSING else margins,
        )

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


@dataclass(frozen=True)
class BarrierParams:
    """The parameters every construction reads, each checked once, here."""
    tau: float = 100.0  # floor for zero ordinates
    sigma1: float = 0.501
    sigma2: float = 0.5005
    beta1: float = 0.5
    t: float = 1000.0  # base height, see `height`
    epsilon: float = 1e-3
    truncation: int = 10_000

    def __post_init__(self) -> None:
        for f in fields(self):
            name, kind, value = f.name, type(f.default), getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (kind, int)):
                raise ValueError(f"parameter {name!r} must be of type {kind.__name__}, not {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float holds
                raise ValueError(f"parameter {name!r} must be finite, not {value!r}")
        for name, ok, bound in (
            ("beta1", 0.5 <= self.beta1, "at least 1/2"),
            ("sigma2", self.beta1 < self.sigma2, "above beta1"),
            ("sigma1", self.sigma2 < self.sigma1, "above sigma2"),
            ("sigma1", self.sigma1 <= 1.0, "at most 1"),
            ("tau", self.tau >= 0, "at least 0"),
            ("t", self.t > 0, "positive"),
            ("epsilon", self.epsilon > 0, "positive"),
            ("truncation", self.truncation >= 1, "at least 1"),
        ):
            if not ok:
                raise ValueError(f"parameter {name!r} must be {bound}, not {getattr(self, name)!r}")

    @property
    def height(self) -> float:
        """The base ordinate of every construction (I and GSH may double it)."""
        return max(self.t, 2.0 * self.tau, 1000.0)


DEFAULT_PARAMS = BarrierParams()


# ---------------------------------------------------------------------------
# first construction: search


@dataclass(frozen=True, init=False)
class EqualSumSet:
    permutation: tuple[int, int, int]
    relabeled_triple: tuple[int, int, int]
    family: str
    characters: tuple[DirichletCharacter, ...]
    chi2: DirichletCharacter

    def __init__(self, permutation: tuple[int, int, int], relabeled_triple: tuple[int, int, int],
                 family: str, characters: tuple[DirichletCharacter, ...],
                 chi2: DirichletCharacter) -> None:
        self.__dict__.update(permutation=permutation, relabeled_triple=relabeled_triple,
                             family=family, characters=characters, chi2=chi2)


_PERMS = tuple(itertools.permutations((0, 1, 2)))
# Every family condition of find_equal_sum_set, and find_gsh_characters'
# condition and score, is symmetric in the first two labels, so of the
# relabelings (i, j, k) and (j, i, k) only the one that comes first in _PERMS
# can be the first to succeed or the strictly best.
_PAIR_PERMS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _primitive_root_row(group, b1: int, b2: int, b3: int) -> int | None:
    """In a cyclic group, the row of a character with chi(b1) = chi(b2) != chi(b3).

    With discrete logs l and d = gcd(l2 - l1, phi), chi(g^x) = e(x / d) is 1
    on <b2/b1> and not on b3/b2 when d does not divide l3 - l2.  Otherwise
    b3/b2 lies in <b2/b1>, every character equal on b1 and b2 is equal on b3
    too, and None is returned: no such character exists.
    """
    phi, index = group.phi, group.index
    l1, l2, l3 = index[b1], index[b2], index[b3]
    d = math.gcd((l2 - l1) % phi, phi)
    return phi // d if (l3 - l2) % phi % d else None


def _in_subgroup(group, b: int, c: int) -> bool:
    """Whether the unit b lies in the cyclic subgroup generated by c.

    In a cyclic group, g^x lies in <g^y> exactly when gcd(y, phi) divides x;
    otherwise the powers of c are walked, at most ord(c) of them.
    """
    if len(group.orders) == 1:
        return group.index[b] % math.gcd(group.index[c], group.phi) == 0
    x = c
    while x != b and x != 1:
        x = x * c % group.q
    return x == b


@lru_cache(maxsize=1024)
def _powers(chi: DirichletCharacter) -> tuple[DirichletCharacter, ...]:
    """chi, chi**2, ..., chi**(ord - 1), the character group's own rows,
    built once per chi."""
    chars = character_group(chi.q)
    return tuple(chars[chars.power(chi.index, p)] for p in range(1, chi.order))


@lru_cache(maxsize=1024, typed=True)
def _power_zeros(chi: DirichletCharacter, sigma: float, t: float) -> tuple[ZeroSpec, ...]:
    """Simple zeros at sigma + it for each member of chi's power family, built
    once per (chi, sigma, t); typed like _zero_spec."""
    return tuple(_zero_spec(c, sigma, t, 1) for c in _powers(chi))


def _multiples(n: int, l: int) -> range:
    """The rows h in [1, n) with h l ≡ 0 (mod n), ascending."""
    step = n // math.gcd(l, n)
    return range(step, n, step)


def _conjugate_pair_row(chars, n: int, c1, c2, c3, rows) -> int | None:
    """First row in rows whose {chi, conj chi} sums agree on columns c1, c2, not c3."""
    for ci in rows:
        k1, k2, k3 = c1[ci], c2[ci], c3[ci]
        if ((k1 == k2 or (k1 + k2) % n == 0) and k3 != k1 and (k1 + k3) % n != 0
                and chars[ci].order > 2):
            return ci
    return None


def _power_row(c1, c2, c3, rows) -> int | None:
    """First row in rows that is 1 on both or neither of c1, c2 and not so on c3."""
    for ci in rows:
        if (c1[ci] == 0) == (c2[ci] == 0) != (c3[ci] == 0):
            return ci
    return None


def _first_separating_character(D: RaceTriple, cols, i: int, j: int) -> DirichletCharacter:
    """First non-principal character with different values at D's residues
    i and j; cols holds the columns of D's residues."""
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

    In a cyclic group the primitive-root shortcut finds a singleton whenever
    one exists, so once it fails k1 == k2 forces k3 == k1 on every row h,
    where chi_h(g^l) = e(h l / n) and k_i = h l_i mod n.  A conjugate pair
    then needs h (l1 + l2) ≡ 0 and a power family h l3 ≡ 0 (mod n), so those
    scans step through the multiples of n / gcd(l1 + l2, n), resp.
    n / gcd(l3, n), in ascending order and meet the full scan's first row.
    """
    q = D.q
    res = D.residues
    chars = character_group(q)
    group = unit_group_structure(q)
    n = chars.exponent
    cols = chars.columns(res)
    cyclic = len(group.generators) == 1
    nonprinc = range(1, len(chars))  # row 0 is the principal character

    def package(perm, family, members):
        i, j, k = perm
        chi2 = _first_separating_character(D, cols, i, j)
        return EqualSumSet(perm, (res[i], res[j], res[k]), family, tuple(members), chi2)

    if cyclic:
        # primitive-root shortcut; it finds a singleton whenever one exists,
        # so in a cyclic group no singleton scan follows a failed pass
        for i, j, k in _PAIR_PERMS:
            row = _primitive_root_row(group, res[i], res[j], res[k])
            if row is not None:
                assert cols[i][row] == cols[j][row] != cols[k][row]
                return package((i, j, k), "primitive-root", (chars[row],))
    else:
        for i, j, k in _PAIR_PERMS:
            c1, c2, c3 = cols[i], cols[j], cols[k]
            for ci in nonprinc:
                if c1[ci] == c2[ci] != c3[ci]:
                    return package((i, j, k), "singleton", (chars[ci],))

    # conjugate pairs: sums are 2 cos(2 pi k / n)
    index = group.index
    for i, j, k in _PAIR_PERMS:
        rows = _multiples(n, index[res[i]] + index[res[j]]) if cyclic else nonprinc
        row = _conjugate_pair_row(chars, n, cols[i], cols[j], cols[k], rows)
        if row is not None:
            chi = chars[row]
            return package((i, j, k), "conjugate-pair", (chi, chi.conjugate()))

    # power families {chi, ..., chi^(ord-1)}: sums depend only on chi(a) = 1 or
    # not.  No singleton exists, so no character is 1 on b1 and b2 but not on
    # b3; a member is 1 on b3 only, and one exists exactly when neither b1 nor
    # b2 lies in <b3> (a character of G/<b3> nontrivial on both images).
    for i, j, k in _PAIR_PERMS:
        if _in_subgroup(group, res[i], res[k]) or _in_subgroup(group, res[j], res[k]):
            continue
        rows = _multiples(n, index[res[k]]) if cyclic else nonprinc
        row = _power_row(cols[i], cols[j], cols[k], rows)
        if row is not None:
            return package((i, j, k), "power", _powers(chars[row]))
    return None


# ---------------------------------------------------------------------------
# first construction: barrier


def _wrap_pi(x: float) -> float:
    """wrap into [-pi, pi)"""
    return (x + math.pi) % TWO_PI - math.pi


def construction_one(D: RaceTriple, found: EqualSumSet, params: BarrierParams) -> Barrier:
    """Simple zeros at sigma1 + it for each chi in S and sigma2 + 2it for chi2."""
    p = params
    if p.sigma1 > 0.501:
        raise ConstructionError(f"construction I needs sigma1 <= 0.501, got {p.sigma1}")
    b1, b2, b3 = found.relabeled_triple
    chars = character_group(D.q)
    roots = chars.roots
    c1, c2, c3 = chars.columns(found.relabeled_triple)
    row = found.chi2.index
    w = roots[c2[row]].conjugate() - roots[c1[row]].conjugate()
    members = found.characters
    z = 0
    for chi in members:
        i = chi.index
        z += roots[c2[i]].conjugate() - roots[c3[i]].conjugate()
    abs_w, abs_z = abs(w), abs(z)
    if abs_w == 0 or abs_z == 0:
        raise ConstructionError("degenerate phase coefficients (W or Z vanished)")

    phase_diff = cmath.phase(w) - 2.0 * cmath.phase(z)
    b_val = (phase_diff / math.pi) % 1.0 - 0.5
    if abs(b_val) < B_SNAP:
        b_val = 0.0
    t = p.height
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

    if found.family == "power" and members == _powers(members[0]):  # as the search builds it
        zeros = [*_power_zeros(members[0], p.sigma1, t)]
    else:
        zeros = [_zero_spec(chi, p.sigma1, t, 1) for chi in members]
    zeros.append(_zero_spec(found.chi2, p.sigma2, 2.0 * t, 1))
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
            "abs_W": abs_w,
            "abs_Z": abs_z,
            "verdict_margin": phase_slack,
        },
    )
    assert barrier.size == len(found.characters) + 1
    return barrier


# ---------------------------------------------------------------------------
# second construction: search


@dataclass(frozen=True, init=False)
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

    def __init__(self, permutation: tuple[int, int, int], relabeled_triple: tuple[int, int, int],
                 chi: DirichletCharacter, d1: Fraction, d2: Fraction, c1: int, c2: int,
                 base_modulus: int, witness_k: int) -> None:
        self.__dict__.update(permutation=permutation, relabeled_triple=relabeled_triple,
                             chi=chi, d1=d1, d2=d2, c1=c1, c2=c2, base_modulus=base_modulus,
                             witness_k=witness_k)


_SMALL_PRIME_SET = frozenset((3, 7, 13))


def multiplicities_for(n1: int, m1: int, n2: int, m2: int) -> tuple[int, int]:
    """(c1, c2) for the admissible gap pair (n1 / m1, n2 / m2), compared as
    integer cross-products, so the ratios need not be reduced."""
    if 3 * n1 > m1:
        return (1, 2)
    if 19 * n1 == 6 * m1 and 19 * n2 == 9 * m2:
        return (5, 9)
    if 37 * n1 == 12 * m1 and 37 * n2 == 16 * m2:
        return (3, 5)
    raise ValueError(f"gap pair ({n1}/{m1}, {n2}/{m2}) outside the admissible spacing set")


def _ratio_order(group, a: int, b: int) -> int:
    """ord(b/a) from the dlog index: n / gcd(l_b - l_a, n) in a one-generator
    group, the order of b/a's exponent vector otherwise."""
    index, orders = group.index, group.orders
    if len(orders) == 1:
        return orders[0] // math.gcd(index[b] - index[a], orders[0])
    return vector_order(unravel(index[b * pow(a, -1, group.q) % group.q], orders), orders)


def find_spacing_character(D: RaceTriple) -> SpacingCharacter | None:
    """Character with admissibly spaced values, or None.

    Follows the order decomposition of the ratio orders s_i: a prime-power
    route when some s_i has a prime-power divisor outside {3, 7, 13}, the
    {39, 91, 273} route otherwise, then powers the base character by the
    goodness witness to land the gaps in the admissible spacing set.
    Returns None when no route applies (every s_i lies in {3, 7, 13, 21}),
    or when the route's character makes two values coincide: it is then a
    singleton equal-sum set, and construction I has decided the triple.
    """
    q, res = D.q, D.residues
    group = unit_group_structure(q)
    # ord(x) = ord(1/x): a triple has three ratio orders, shared by every
    # relabeling, each read from the dlog index
    order = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        order[i, j] = order[j, i] = _ratio_order(group, res[i], res[j])

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
            return _spacing_from_route(D, perm, s1, s2, p**w, p)
    # the {39, 91, 273} route
    for perm in _PERMS:
        s1, s2, s3 = ratio_orders(perm)
        if s1 in (39, 91, 273) and 273 % s2 == 0 and 273 % s3 == 0:
            return _spacing_from_route(D, perm, s1, s2, s1, None)
    return None


def _spacing_from_route(D: RaceTriple, perm, s1: int, s2: int, r: int, p: int | None):
    """Build the base character for the route and scan witness powers.

    s1 and s2 are the orders of b2/b1 and b3/b2; the route guarantees the
    preconditions of `character_pair_constraint`: r = p^e divides s1 and
    p^(e+1) does not divide s2, or r = s1 in {39, 91, 273} with s2 | 273.
    None where exactly two values coincide (chi2(b2/b1) = e(1/m), m >= 3).
    Characters are rows of the character group until one is returned.
    """
    q, res = D.q, D.residues
    chars = character_group(q)
    n = chars.exponent
    cols = chars.columns(res)
    i1, i2, i3 = perm
    x1, x2, x3 = cols[i1], cols[i2], cols[i3]
    ratio21 = res[i2] * pow(res[i1], -1, q) % q
    r_primes = [p] if p is not None else [f for f, _ in factorize(r)]
    row1 = _pair_constraint_row(q, ratio21, r, s1, s2, r_primes)
    assert (x2[row1] - x1[row1]) % n * r == n  # chi1(b2/b1) = e(1/r)
    if p is not None:
        # reduce to chi2 with chi2(b2/b1) = e(1/m), m = p or p^2; m | r, since the
        # route skips r = p for p in {3, 7, 13}
        m = p ** (2 if p in _SMALL_PRIME_SET else 1)
        row2 = chars.power(row1, r // m)
    else:
        row2, m = row1, r
    k32 = (x3[row2] - x2[row2]) % n  # chi2(b3/b2) = e(k32 / n)
    assert k32 * m % n == 0  # chi2(b3/b2) is an m-th root of unity
    j_good = k32 * m // n + 1
    if j_good in (1, m):
        return None  # chi2(b3) = chi2(b2), resp. chi2(b1)
    k = witness_for(m, j_good)
    if k is None:
        raise ConstructionError(f"base modulus m={m} has no witness for j={j_good}")
    if k * j_good % m in (0, k):  # chi2^k at b1, b2, b3 sits at 0, k, k j_good (mod m)
        return None
    return _assemble_spacing(D, cols, chars.power(row2, k), m, k)


def _assemble_spacing(D: RaceTriple, cols, row: int, m: int, k: int):
    """Read off the relabeling and gap pair from the values of the character
    in `row`, on cols, the columns of D's residues.

    Gaps are compared as integer numerators over the group exponent n; the
    conjugate is taken only when the character itself fails.
    """
    res = D.residues
    chars = character_group(D.q)
    n = chars.exponent
    for conjugate in (False, True):
        candidate = chars.power(row, -1) if conjugate else row
        angles = sorted((col[candidate], a) for col, a in zip(cols, res))
        (t1, r1), (t2, r2), (t3, r3) = angles
        gaps = (t2 - t1, t3 - t2, n - t3 + t1)
        rotations = (
            ((r1, r2, r3), (gaps[0], gaps[1])),
            ((r2, r3, r1), (gaps[1], gaps[2])),
            ((r3, r1, r2), (gaps[2], gaps[0])),
        )
        for labels, (g1, g2) in rotations:
            if g1 <= g2 and gaps_ok(g1, g2, n):
                perm = tuple(res.index(a) for a in labels)
                c1, c2 = multiplicities_for(g1, n, g2, n)
                return SpacingCharacter(perm, labels, chars[candidate], Fraction(g1, n),
                                        Fraction(g2, n), c1, c2, m, k)
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
    return _crossing_inequality(c1, c2, *d1.as_integer_ratio(), *d2.as_integer_ratio())


@lru_cache(maxsize=1024)
def _crossing_inequality(c1: int, c2: int, n1: int, m1: int, n2: int,
                         m2: int) -> CrossingInequality:
    """`verify_crossing_inequality` on the gaps n1 / m1 and n2 / m2, each the
    quotient float() returns, cached on the multiplicities and gap pair."""
    f1, f2 = n1 / m1, n2 / m2
    lam1 = (c2 / c1) * math.cos(math.pi * f1)
    lam2 = (c2 / c1) * math.cos(math.pi * f2)
    z1 = sim.v_lambda(lam1)  # raises if lam outside (0, 1)
    z2 = sim.v_lambda(lam2)
    margin = math.pi * (f1 + f2) - (z1 + z2)
    return CrossingInequality(margin > 0.0, margin, z1, z2, lam1, lam2)


def construction_two(D: RaceTriple, spacing: SpacingCharacter, params: BarrierParams) -> Barrier:
    """Zero of order c1 for chi and order c2 for chi^2 at double height.

    The gap pair d = n / m must lie in the admissible spacing set, d1 <= d2
    and `gaps_ok` over their common denominator, before the crossing
    inequality reads it.  The declared gaps are checked against chi's angle
    numerators k1, k2, k3 on the relabeled triple, read from the group's
    columns: (k2 - k1) mod n over n must equal d1 mod 1 and (k3 - k2) mod n
    over n d2 mod 1, by integer cross-multiplication.
    """
    p = params
    d1, d2 = spacing.d1, spacing.d2
    (n1, m1), (n2, m2) = d1.as_integer_ratio(), d2.as_integer_ratio()
    m = math.lcm(m1, m2)
    if not (n1 * m2 <= n2 * m1 and gaps_ok(n1 * (m // m1), n2 * (m // m2), m)):
        raise ConstructionError(f"gap pair {(d1, d2)} outside the admissible spacing set")
    ineq = _crossing_inequality(spacing.c1, spacing.c2, n1, m1, n2, m2)
    if not ineq.ok:
        raise ConstructionError(f"spacing inequality failed, margin {ineq.margin}")
    chi = spacing.chi
    chars = character_group(D.q)
    n, row = chars.exponent, chi.index
    x1, x2, x3 = chars.columns(spacing.relabeled_triple)
    k1, k2, k3 = x1[row], x2[row], x3[row]
    if (k2 - k1) % n * m1 != n1 % m1 * n or (k3 - k2) % n * m2 != n2 % m2 * n:
        raise ConstructionError("character values do not realize the declared gaps")
    if (spacing.c1, spacing.c2) != multiplicities_for(n1, m1, n2, m2):
        raise ConstructionError("multiplicities inconsistent with the gap pair")
    row_sq = chars.power(row, 2)
    if row_sq == 0:
        raise ConstructionError("chi^2 is principal; spacing geometry violated")
    delta, y_worst = sim.envelope_min(d1, d2, spacing.c1, spacing.c2)
    gamma = p.height
    alpha_sigma = p.sigma1
    b1, b2, b3 = spacing.relabeled_triple
    zeros = (
        _zero_spec(chi, alpha_sigma, gamma, spacing.c1),
        _zero_spec(chars[row_sq], alpha_sigma, 2.0 * gamma, spacing.c2),
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
            "d1": [n1, m1],
            "d2": [n2, m2],
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
    if 3 * n1 > m1:  # d1 > 1/3
        assert barrier.size == 3
    return barrier


# ---------------------------------------------------------------------------
# third construction


@dataclass(frozen=True)
class DeterminantWitness:
    chi: DirichletCharacter
    h: int
    k: int


def _cosines_distinct(n: int, k1: int, k2: int, k3: int) -> bool:
    """Whether the real determinant, 2 (c3 - c2)(c2 - c1)(c1 - c3) with
    c_i = cos 2 pi k_i / n (cos 2x = 2c^2 - 1), is nonzero: no two k_i agree
    up to sign mod n.  A nonzero value is at least 1024 / n^6, since
    |c_i - c_j| = 2 |sin pi (k_i + k_j) / n  sin pi (k_i - k_j) / n| >= 8 / n^2."""
    return all((x - y) % n and (x + y) % n for x, y in ((k1, k2), (k2, k3), (k3, k1)))


def _imag_det(roots, n: int, h: int, k: int, k1: int, k2: int, k3: int) -> float:
    """Float imaginary determinant of the powers (h, k): Im of chi^p(a_i) read
    as roots[p k_i % n].  Each root's angle is within 19 u of exact
    (u = 2^-53), so each sine within 21 u, each difference within 44 u, each
    product of two within 180 u and the determinant within 370 u < 5e-14."""

    def im_diff(power: int, kx: int, ky: int) -> float:
        return roots[power * kx % n].imag - roots[power * ky % n].imag

    return (im_diff(h, k3, k2) * im_diff(k, k2, k1)
            - im_diff(h, k2, k1) * im_diff(k, k3, k2))


def find_order7_character(D: RaceTriple) -> DeterminantWitness:
    """First character passing both 2x2 determinant tests (real and imaginary).

    Applicable whenever the first construction's search failed; any character
    nontrivial on a2/a1 then works and has order at least 7, which is asserted.
    With chi(a_i) = e(k_i / n), k_i from the columns of D's residues,
    the real test is exact (`_cosines_distinct`).  The imaginary test of a
    pair (h, k) is certified: it passes when the float determinant exceeds
    IM_DET_FLOOR = 1e-9 in absolute value, far above its error (< 5e-14, see
    `_imag_det`), and a pair below the floor is passed over.
    """
    chars = character_group(D.q)
    n, roots = chars.exponent, chars.roots
    x1, x2, x3 = chars.columns(D.residues)
    ratio21 = mod_div(D.q, D.a2, D.a1)
    for ci in range(1, len(chars)):  # row 0 is the principal character
        chi = chars[ci]
        if chi.angle_numerator(ratio21) == 0:
            continue
        k1, k2, k3 = x1[ci], x2[ci], x3[ci]
        if not _cosines_distinct(n, k1, k2, k3):
            continue
        for h, k in ((1, 2), (1, 3), (2, 3)):
            if abs(_imag_det(roots, n, h, k, k1, k2, k3)) > IM_DET_FLOOR:
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
    n, roots = chars.exponent, chars.roots
    x1, x2, x3 = chars.columns(D.residues)
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
    for power, val in ((1, l1), (-1, l1), (2, l2), (-2, l2), (h, l3), (-h, -l3), (k, l4),
                       (-k, -l4)):
        c = chi**power
        theta[c] = theta.get(c, 0.0) + val

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


Q_CAP_POWER10 = 6  # largest denominator 10^k for rationalization


def construction_three(D: RaceTriple, params: BarrierParams) -> Barrier:
    """Zeros of rationalized multiplicities N/Q for every character at two heights."""
    p = params
    chars = nonprincipal_characters(D.q)
    witness = find_order7_character(D)
    nu1 = solve_lambda_system(D, witness.chi, witness.h, witness.k, 1j, -1j)
    nu2 = solve_lambda_system(D, witness.chi, witness.h, witness.k, 1j, 1j)

    # bound on the drift of the normalized main terms away from the ideal
    # (Q/gamma)(±2 cos + cos 2) envelope, from the rationalization errors
    group = character_group(D.q)
    roots = group.roots
    x1, x2, x3 = group.columns(D.residues)
    scale = sum(
        abs(roots[x[ci]].conjugate() - roots[y[ci]].conjugate())
        for ci in range(1, len(chars) + 1)  # chars are rows 1 .. phi - 1
        for x, y in ((x1, x2), (x2, x3))
    )

    # the first Q = 10^k within epsilon that leaves the verdict margin positive;
    # lambda takes at most nine distinct values (the shift y, and y plus each
    # of the eight updates), and a max over them is the max over all phi - 1
    values1, values2 = set(nu1.values()), set(nu2.values())
    q_denom = None
    errs = None
    for power in range(Q_CAP_POWER10 + 1):
        qq = 10**power
        e1 = max(abs(v - round(qq * v) / qq) for v in values1)
        e2 = max(abs(v - round(qq * v) / qq) for v in values2)
        errs = (e1, e2)
        if max(e1, e2) < p.epsilon and 1.0 - 2.0 * max(e1, e2) * scale > 0:
            q_denom = qq
            break
    if q_denom is None:
        raise ConstructionError(
            f"epsilon={p.epsilon} with a positive verdict margin unachievable with "
            f"Q <= 10^{Q_CAP_POWER10}; best errors {errs}"
        )

    gamma = p.height
    zeros = []
    for kk, nu in ((1, nu1), (2, nu2)):
        for c in chars:
            mult = max(0, round(q_denom * nu[c]))
            if mult > 0:
                zeros.append(_zero_spec(c, p.sigma1, kk * gamma, mult))
    if not zeros:
        raise ConstructionError("all rationalized multiplicities vanished; raise Q")

    barrier = Barrier(
        triple=D,
        permutation=(0, 1, 2),
        relabeled_triple=D.residues,
        construction="III",
        beta1=p.beta1,
        zeros=tuple(zeros),
        excluded_ordering=D.residues,
        parameters={
            "sigma1": p.sigma1,
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


def find_barrier(D: RaceTriple, params: BarrierParams = DEFAULT_PARAMS) -> Barrier:
    """Construction I if the set search succeeds, else II if a spacing
    character exists, else III.  Every zero has real part sigma1 or sigma2,
    and ordinate >= params.height > tau."""
    found = find_equal_sum_set(D)
    if found is not None:
        return construction_one(D, found, params)
    if (spacing := find_spacing_character(D)) is not None:
        return construction_two(D, spacing, params)
    return construction_three(D, params)


# ---------------------------------------------------------------------------
# infinite construction


# the first-hit search probes H in blocks of at most 2^13 integers: 64 KiB
# per int64 or float64 temporary, under glibc's 128 KiB mmap threshold, so
# it reuses heap memory rather than faulting in fresh pages
_H_BLOCK = 1 << 13


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


def _h_lower_bounds(alpha: float, beta_phase: float, js: np.ndarray) -> np.ndarray:
    """Per window [j^2, j^2 + j], an offset lo_j with no member of H at
    j^2 + k for k < lo_j; lo_j > j certifies that the window misses H.

    Mod 1, x_k = (j^2 + k) alpha + beta_phase equals x_0 + k eps with
    eps = alpha - round(alpha), |eps| <= 1/2.  The line x_0 + s eps is
    continuous in s, so a step k can land in the band ||x|| <= 0.2 only after
    the line has entered it: lo_j is the ceiling of that entry point.  The
    band is widened by the rounding of x_0 and of the float membership test
    (two roundings of magnitude up to h |alpha| + |beta_phase| each), so the
    bound holds for the float decisions, for either sign of eps.
    """
    eps = alpha - round(alpha)
    h_max = float(js[-1]) * float(js[-1] + 1) if js.size else 0.0
    w = 0.2 + 1e-6 + 2.0**-50 * (h_max * abs(alpha) + abs(beta_phase) + 1.0)
    frac = js * js * alpha + beta_phase
    x0 = frac - np.floor(frac)
    in_band = (x0 <= w) | (x0 >= 1.0 - w)
    if eps == 0.0:
        return np.where(in_band, 0, js + 1)
    # distance along the line to the near edge of the next band
    travel = 1.0 - w - x0 if eps > 0.0 else x0 - w
    lo = np.minimum(np.ceil(travel / abs(eps)), js + 1.0)
    return np.where(in_band, 0, lo.astype(np.int64))


def _in_h(hs: np.ndarray, alpha: float, beta_phase: float) -> np.ndarray:
    """Float membership of each h in H = {h : ||h alpha + beta_phase|| <= 1/5},
    the one test that construction_gsh and the load check both use."""
    frac = hs * alpha + beta_phase
    return np.abs(frac - np.round(frac)) <= 0.2


def _first_h_offsets(alpha: float, beta_phase: float, js: np.ndarray,
                     lo: np.ndarray) -> np.ndarray:
    """Offset k of the first member j^2 + k of H in each window [j^2, j^2 + j],
    -1 where the window misses H.

    Each window is probed from its certified lower bound lo_j: offsets
    [lo_j + pos, lo_j + pos + width) of every window with no hit yet at once,
    doubling the width each round, in blocks of at most _H_BLOCK elements.
    _in_h alone decides membership.
    """
    first = np.full(js.size, -1, dtype=np.int64)
    unresolved = np.flatnonzero(lo <= js)
    pos, width = 0, 8
    while unresolved.size:
        offsets = np.arange(pos, pos + width, dtype=np.int64)
        rows = max(1, _H_BLOCK // width)
        for s in range(0, unresolved.size, rows):
            idx = unresolved[s:s + rows]
            jj = js[idx, None]
            ks = lo[idx, None] + offsets
            hits = _in_h(jj * jj + ks, alpha, beta_phase) & (ks <= jj)
            hit = hits.any(axis=1)
            first[idx[hit]] = lo[idx[hit]] + pos + hits[hit].argmax(axis=1)
        pos += width
        width = min(2 * width, _H_BLOCK)
        unresolved = unresolved[(first[unresolved] < 0) & (lo[unresolved] + pos <= js[unresolved])]
    return first


def _h_max_gap(alpha: float) -> int | None:
    """Least N such that any N consecutive h meet H = {h : ||h alpha + b||
    <= 1/5} for all b (None: no N).  Three-distance theorem (Sos 1958;
    Slater 1967): N = m q_k + q_{k-1} multiples of alpha, p_k/q_k its
    convergents, 1 <= m <= a_{k+1}, leave a largest gap
    eta_{k-1} - (m-1) eta_k, eta_k = |q_k alpha - p_k|; H's band is 2/5."""
    q_prev, q, eta_prev, eta = 0, 1, Fraction(1), Fraction(alpha) % 1
    while eta:
        a = eta_prev // eta
        m = max(1, math.ceil((eta_prev - Fraction(2, 5)) / eta) + 1)
        if m <= a:
            return m * q + q_prev
        q_prev, q, eta_prev, eta = q, a * q + q_prev, eta, eta_prev - a * eta
    return None


@lru_cache(maxsize=8)
def _family_constants(j_max: int, sigma2: float, beta: float):
    """Decay exponents delta_j, of order j^-3 and clipped inside the allowed
    strip, and ordinate perturbations xi_j = frac(sqrt(p_j)) j^-10, for
    j = 1..J (xi read-only)."""
    c_delta = 8.0 * (sigma2 - beta)
    cap = 0.95 * (sigma2 - beta)
    deltas = tuple(min(cap, c_delta / (j * j * j)) for j in range(1, j_max + 1))
    primes = _first_n_primes(j_max)
    xi = np.array([(math.sqrt(pr) % 1.0) * j ** -10.0 for j, pr in enumerate(primes, start=1)])
    xi.flags.writeable = False
    return deltas, xi


def _phase_offset(z: complex, sigma1: float, t: float) -> float:
    """alpha = -(atan(sigma1 / t) + arg z) / pi, the drift of H's phase walk."""
    return -(math.atan(sigma1 / t) + cmath.phase(z)) / math.pi


def _gsh_coefficients(chi1, chi2, triple) -> tuple[complex, complex, float]:
    """z, w and beta_phase of the relabeled triple (b1, b2, b3):
    z = conj chi1(b2) - conj chi1(b3), w = conj chi2(b2) - conj chi2(b1),
    beta_phase = arg(w) / 2 pi - 1/4."""
    b1, b2, b3 = triple
    z = chi1.value(b2).conjugate() - chi1.value(b3).conjugate()
    w = chi2.value(b2).conjugate() - chi2.value(b1).conjugate()
    return z, w, cmath.phase(w) / TWO_PI - 0.25


def _phase_quality(alpha: float) -> float:
    # both alpha near an integer and alpha near a half-integer make the walk
    # h alpha + beta drift slowly, stretching the gaps of H
    d1 = abs(alpha - round(alpha))
    d2 = abs(2 * alpha - round(2 * alpha))
    return min(d1, d2)


# the real parts of the GSH family: chi1's zero, chi2's family and the strip
GSH_SIGMA1, GSH_SIGMA2, GSH_BETA = 0.6, 0.55, 0.5


def find_gsh_characters(D: RaceTriple, t: float = 1000.0):
    """Characters (chi1, chi2) with chi1 equal on the first relabeled pair but
    not the third, and chi2 separating the first pair.

    Among qualifying candidates the one whose phase offset sits farthest from
    the slow-drift values 0 and 1/2 is chosen, so the window checks carry
    information at moderate heights; ties resolve to the canonical first.
    """
    chars = character_group(D.q)
    cols = chars.columns(D.residues)
    roots = chars.roots
    best = None
    best_score = -1.0
    for perm in _PAIR_PERMS:
        c1, c2, c3 = (cols[i] for i in perm)
        for ci in range(1, len(chars)):  # row 0 is the principal character
            if not (c1[ci] == c2[ci] != c3[ci]):
                continue
            z = roots[c2[ci]].conjugate() - roots[c3[ci]].conjugate()
            score = _phase_quality(_phase_offset(z, GSH_SIGMA1, t))
            if score > best_score + 1e-12:
                best = (perm, ci)
                best_score = score
    if best is None:
        return None
    perm, ci = best
    chi2 = _first_separating_character(D, cols, perm[0], perm[1])
    return perm, tuple(D.residues[i] for i in perm), chars[ci], chi2


def construction_gsh(D: RaceTriple, params: BarrierParams = DEFAULT_PARAMS) -> GshBarrier:
    """Infinite (truncated) barrier: one isolated zero for chi1 and a family
    of zeros for chi2 whose ordinates are phase-locked through the set H.
    It chooses chi1, chi2, t and the first member of H in each window
    [j^2, j^2 + j] (j^2 where the window misses H); _gsh_barrier does the rest."""
    t = params.height
    found = find_gsh_characters(D, t=t)
    if found is None:
        raise ConstructionError(f"no character pair satisfies the phase conditions for {D}")
    perm, triple, chi1, chi2 = found

    z, _, beta_phase = _gsh_coefficients(chi1, chi2, triple)
    for _ in range(64):
        alpha = _phase_offset(z, GSH_SIGMA1, t)
        dist = abs(alpha - round(alpha))
        if 1.0 / (10.0 * t) <= dist <= 0.5 - 1.0 / (10.0 * t):
            break
        t *= 2.0
    else:
        raise ConstructionError("could not place the phase offset away from 0 and 1/2")

    js = np.arange(1, params.truncation + 1, dtype=np.int64)
    first = _first_h_offsets(alpha, beta_phase, js, _h_lower_bounds(alpha, beta_phase, js))
    h = js * js + np.maximum(first, 0)
    return _gsh_barrier(D, perm, triple, chi1, chi2, t, GSH_SIGMA1, GSH_SIGMA2, GSH_BETA, h)


def _gsh_barrier(D: RaceTriple, perm, triple, chi1, chi2, t, sigma1, sigma2, beta,
                 h) -> GshBarrier:
    """The GSH barrier fixed by the construction's choices: chi1 and chi2 on
    the relabeled triple, t, the real parts, and the member h_j of H taken in
    each window [j^2, j^2 + j] for j = 1..J.  Every other field is derived
    here, and the construction's checks run here, for construction_gsh and
    for a loaded file alike.

    in_h is the float test _in_h at each h_j, which is the construction's
    window outcome: offsets below the certified lower bound are float
    misses, offset 0 is probed when that bound is 0, and a missed window
    keeps h_j = j^2.
    """
    if not 0.5 <= beta < sigma2 < sigma1:
        raise ConstructionError("need 1/2 <= beta < sigma2 < sigma1")
    h_arr = np.asarray(h, dtype=np.int64)
    j_max = h_arr.size
    if j_max < 1:
        raise ConstructionError("the family has no terms; truncation J must be >= 1")
    z, w, beta_phase = _gsh_coefficients(chi1, chi2, triple)
    if z == 0 or w == 0:
        raise ConstructionError(f"phase coefficient z = {z} or w = {w} is zero")
    alpha = _phase_offset(z, sigma1, t)
    max_gap, bound = _h_max_gap(alpha), int(10.0 * t) + 1
    if max_gap is None or max_gap > bound:
        raise ConstructionError(f"H gaps exceed {bound}: {max_gap}")

    js = np.arange(1, j_max + 1, dtype=np.int64)
    sq = js * js
    in_h = _in_h(h_arr, alpha, beta_phase)
    off = (h_arr < sq) | (h_arr > sq + js) | ~(in_h | (h_arr == sq))
    if off.any():
        j = int(np.argmax(off))
        raise ConstructionError(f"h_values[{j}] is not j^2 or a member of H in window {j + 1}")
    missed = np.flatnonzero(~in_h & (js >= 10.0 * t))
    if missed.size:
        # a window of j+1 >= 10t+1 consecutive integers must meet H
        raise ConstructionError(f"window at j={missed[0] + 1} missed H; gap property broken")

    deltas, xi = _family_constants(j_max, sigma2, beta)
    gam = 2.0 * t * h_arr + xi
    if np.unique(gam).size != gam.size:
        raise ConstructionError("ordinate collision in the truncated family")
    in_h_flags = in_h.tolist()

    # samples below this see non-negligible mass from phase-uncontrolled terms;
    # j <= 2 count as uncontrolled because their ordinate perturbations xi_j
    # rotate the phase at moderate heights
    rec_u0 = 1000.0
    for j, flag in enumerate(in_h_flags[:50], start=1):
        if not flag or j <= 2:
            rec_u0 = max(rec_u0, 20.0 / deltas[j - 1])

    return GshBarrier(
        triple=D, permutation=perm, relabeled_triple=triple, chi1=chi1, chi2=chi2, t=t,
        sigma1=sigma1, sigma2=sigma2, beta=beta, truncation=j_max,
        h_values=tuple(h_arr.tolist()), in_h=tuple(in_h_flags), gammas=tuple(gam.tolist()),
        deltas=deltas, z=z, w=w, alpha=alpha, beta_phase=beta_phase,
        excluded_ordering=(triple[1], triple[2], triple[0]),
        parameters={"t": t, "sigma1": sigma1, "sigma2": sigma2, "beta": beta, "J": j_max},
        margins={"h_max_gap": max_gap, "h_gap_bound": bound,
                 "alpha_dist": abs(alpha - round(alpha)),
                 "recommended_u0": rec_u0,
                 "uncontrolled_j": (np.flatnonzero(~in_h)[:20] + 1).tolist()},
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


def _relabeling(triple: RaceTriple, data: dict) -> tuple[tuple, tuple]:
    """A file's permutation and relabeled triple, checked against each other:
    the relabeled triple must be the triple's residues in permutation order."""
    permutation = _list("permutation", data["permutation"])
    if not (all(type(i) is int for i in permutation) and sorted(permutation) == [0, 1, 2]):
        raise ValueError(f"permutation {list(permutation)} is not a permutation of (0, 1, 2)")
    relabeled = _list("relabeled_triple", data["relabeled_triple"])
    if relabeled != tuple(triple.residues[i] for i in permutation):
        raise ValueError(f"relabeled triple {list(relabeled)} is not the triple "
                         f"{list(triple.residues)} in permutation {list(permutation)}")
    return permutation, relabeled


def _list(name: str, value) -> tuple:
    """A barrier file's list field, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} = {value!r} is not a list")
    return tuple(value)


def _sequence(name: str, values) -> np.ndarray:
    """A GSH file's integer sequence: a flat list whose entries convert to
    one integer array (one conversion checks its 10^4 entries; a None, a
    float or a string gives an array of another kind) and hold no bool,
    which numpy would take as 0 or 1."""
    values = _list(name, values)
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.empty((0, 0))
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i") or bool in set(map(type, values)):
        raise ValueError(f"{name} holds an entry that is not an integer")
    return arr


def _integer(name: str, value):
    """A barrier file's integer field; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")
    return value


def _real(name: str, value):
    """A barrier file's real-number field; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} = {value!r} is not a real number")
    return value


def _character(q: int, name: str, exponents) -> DirichletCharacter:
    """A barrier file's character: a list of integer exponents."""
    if not isinstance(exponents, (list, tuple)):
        raise ValueError(f"{name} = {exponents!r} is not a list of exponents")
    for h in exponents:
        _integer(f"{name} exponent", h)
    return DirichletCharacter(q, tuple(exponents))


# what construction_gsh derives from its choices; a GSH file states none of it
_GSH_DERIVED = ("z", "w", "alpha", "beta_phase", "in_h", "gammas", "deltas",
                "excluded_ordering", "parameters", "margins")


def barrier_from_dict(data: dict):
    """The barrier a `barrier_to_dict` dict describes.  Every field's type is
    checked here, where files come in, and a defect raises ValueError (the
    records' own constructors check values, not types).  A GSH file holds
    the construction's choices only; _gsh_barrier derives the rest and runs
    the construction's checks on them."""
    if not isinstance(data, dict):
        raise ValueError("a barrier file holds one JSON object")
    q = data["q"]
    triple = RaceTriple(q, *(_integer("triple entry", a) for a in _list("triple", data["triple"])))
    permutation, relabeled = _relabeling(triple, data)
    if data.get("kind") == "gsh":
        stated = [key for key in _GSH_DERIVED if key in data]
        if stated:
            raise ValueError(f"{stated[0]} is derived from the construction's choices and a "
                             "GSH file does not state it; rebuild the file with `racebarrier gsh`")
        if data["construction"] != "GSH":
            raise ValueError(f"construction {data['construction']!r} of a GSH file is not 'GSH'")
        j_max = _integer("truncation", data["truncation"])
        h = _sequence("h_values", data["h_values"])
        if h.size != j_max:
            raise ValueError(f"h_values has {h.size} entries, truncation is {j_max}")
        try:
            return _gsh_barrier(
                triple, permutation, relabeled,
                _character(q, "chi1", data["chi1"]), _character(q, "chi2", data["chi2"]),
                _real("t", data["t"]), _real("sigma1", data["sigma1"]),
                _real("sigma2", data["sigma2"]), _real("beta", data["beta"]), h)
        except (ConstructionError, ArithmeticError) as exc:  # t = 0 or inf, say
            raise ValueError(str(exc)) from exc
    zeros = []
    for zd in _list("zeros", data["zeros"]):
        if not isinstance(zd, dict):
            raise ValueError(f"zero {zd!r} is not an object")
        zeros.append(ZeroSpec(
            _character(q, "zero character", zd["character"]),
            _real("zero sigma", zd["sigma"]),
            _real("zero gamma", zd["gamma"]),
            _integer("zero multiplicity", zd["multiplicity"]),
        ))
    return Barrier(
        triple=triple,
        permutation=permutation,
        relabeled_triple=relabeled,
        construction=data["construction"],
        beta1=_real("beta1", data["beta1"]),
        zeros=tuple(zeros),
        excluded_ordering=_list("excluded_ordering", data["excluded_ordering"]),
        parameters=data.get("parameters", {}),
        margins=data.get("margins", {}),
    )
