"""Dirichlet characters mod q with exact rational-angle values.

A character is its exponent vector (h_1..h_t) over the canonical generators:
chi(g_i) = e(h_i / s_i).  Values on units are exact fractions of a turn;
complex numbers are materialized only at the simulator boundary.  Every value
is read from one integer table per modulus (`character_table`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import angles_to_counts, reduce_root_sum
from .residue_group import (
    check_modulus,
    check_residue,
    dlog_vector,
    factorize,
    multiplicative_order,
    unit_group_structure,
    vector_order,
)

RationalAngle = Fraction  # value e(angle), angle reduced into [0, 1)


@dataclass(frozen=True)
class DirichletCharacter:
    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        group = unit_group_structure(self.q)
        if len(self.exponents) != len(group.orders):
            raise ValueError("exponent vector length mismatch")
        if any(not 0 <= h < s for h, s in zip(self.exponents, group.orders)):
            raise ValueError("exponents out of range")

    @property
    def group(self):
        return unit_group_structure(self.q)

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    @cached_property
    def order(self) -> int:
        return vector_order(self.exponents, self.group.orders)

    def evaluate(self, a: int) -> RationalAngle:
        """Exact angle of chi(a) as a fraction of a turn in [0, 1)."""
        return Fraction(self.angle_numerator(a), self.group.exponent)

    def angle_numerator(self, a: int) -> int:
        """Angle as integer k with chi(a) = e(k / exponent)."""
        return character_table(self.q).angle(self.index, a)

    def value(self, a: int) -> complex:
        return character_table(self.q).roots[self.angle_numerator(a)]

    def conjugate(self) -> "DirichletCharacter":
        orders = self.group.orders
        return DirichletCharacter(self.q, tuple((-h) % s for h, s in zip(self.exponents, orders)))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.q != other.q:
            raise ValueError("characters of different moduli")
        orders = self.group.orders
        return DirichletCharacter(
            self.q,
            tuple((h1 + h2) % s for h1, h2, s in zip(self.exponents, other.exponents, orders)),
        )

    def __pow__(self, k: int) -> "DirichletCharacter":
        orders = self.group.orders
        return DirichletCharacter(self.q, tuple((h * k) % s for h, s in zip(self.exponents, orders)))

    @cached_property
    def index(self) -> int:
        """Canonical position: row-major over the generator orders."""
        idx = 0
        for h, s in zip(self.exponents, self.group.orders):
            idx = idx * s + h
        return idx


def angle_to_complex(angle: RationalAngle) -> complex:
    """e(angle) with the argument reduced exactly before going to floats."""
    a = angle % 1
    theta = 2.0 * math.pi * (a.numerator / a.denominator)
    return complex(math.cos(theta), math.sin(theta))


@lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> tuple[complex, ...]:
    # k / n rounds to the same double as its reduced fraction, so each root is
    # bit-identical to angle_to_complex(Fraction(k, n))
    return tuple(complex(math.cos(theta), math.sin(theta))
                 for theta in (2.0 * math.pi * (k / n) for k in range(n)))


class CharacterGroup(Sequence):
    """The phi(q) characters mod q in canonical (row-major exponent) order.

    Row i is built, through DirichletCharacter's own validation, the first
    time it is read, and the same object is returned on every later read; a
    search that reads a handful of rows never pays for the other phi(q).
    """

    __slots__ = ("q", "orders", "_rows")

    def __init__(self, q: int, orders: tuple[int, ...]):
        self.q = q
        self.orders = orders
        self._rows: list[DirichletCharacter | None] = [None] * math.prod(orders)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, row: int) -> DirichletCharacter:
        chi = self._rows[row]  # raises IndexError past either end
        if chi.__class__ is not DirichletCharacter:  # not built yet, or a slice
            chi = self._build(row)
        return chi

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def _build(self, row: int) -> DirichletCharacter:
        row = operator.index(row) % len(self._rows)  # a slice raises TypeError
        exps = []
        rest = row
        for s in reversed(self.orders):
            rest, h = divmod(rest, s)
            exps.append(h)
        chi = self._rows[row] = DirichletCharacter(self.q, tuple(reversed(exps)))
        return chi


@lru_cache(maxsize=None)
def character_group(q: int) -> CharacterGroup:
    """All phi(q) characters in canonical (row-major exponent) order, each
    built when first read."""
    return CharacterGroup(q, unit_group_structure(check_modulus(q)).orders)


@dataclass(frozen=True)
class CharacterTable:
    """Every character value mod q as an integer angle numerator.

    chi(a) = e(k / exponent) with k = scaled[chi.index] . dlog(a) mod
    exponent, where scaled is the characters' exponent matrix (rows in
    `character_group` order) times exponent / s_i.  Nothing phi(q)^2 is
    stored: one value costs O(t), and one residue's column (its numerators
    over all characters) O(phi(q) t), computed when first asked for and then
    cached as a tuple of ints, the form the searches index.
    """

    q: int
    exponent: int
    scaled: np.ndarray = field(repr=False, compare=False)
    _columns: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)

    @property
    def roots(self) -> tuple[complex, ...]:
        """roots[k] = e(k / exponent), the complex value of angle numerator k."""
        return _roots_of_unity(self.exponent)

    def angle(self, row: int, a: int) -> int:
        """Angle numerator of the character in `row` at a.

        Read from a's column when a search has cached it; otherwise one row
        times the dlog vector, so a loop over residues builds no columns.
        """
        col = self._columns.get(a % self.q)
        if col is not None:
            return col[row]
        f = dlog_vector(self.q, a)
        return sum(map(operator.mul, self.scaled[row].tolist(), f)) % self.exponent

    def column(self, a: int) -> np.ndarray:
        """Angle numerators of a over all characters, in row order (read-only)."""
        col = np.array(self.columns((a,))[0], dtype=np.int64)
        col.flags.writeable = False
        return col

    def columns(self, residues) -> list[tuple[int, ...]]:
        """Per residue, its angle numerators over all characters in row order."""
        cols = self._columns
        out = []
        for a in residues:
            col = cols.get(a % self.q)
            if col is None:
                col = cols[a % self.q] = tuple(
                    (self.scaled @ dlog_vector(self.q, a) % self.exponent).tolist())
            out.append(col)
        return out


@lru_cache(maxsize=None)
def character_table(q: int) -> CharacterTable:
    """The exponent matrix, rows row-major over the generator orders, scaled by n / s_i."""
    group = unit_group_structure(check_modulus(q))
    n = group.exponent
    exps = np.indices(group.orders, dtype=np.int64).reshape(len(group.orders), -1).T
    scaled = exps * np.array([n // s for s in group.orders], dtype=np.int64)
    scaled.flags.writeable = False
    return CharacterTable(q, n, scaled)


def principal_character(q: int) -> DirichletCharacter:
    group = unit_group_structure(q)
    return DirichletCharacter(q, (0,) * len(group.orders))


def nonprincipal_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """Rows 1 .. phi(q) - 1 of the character group; row 0 is the principal character."""
    chars = character_group(q)
    return tuple(map(chars.__getitem__, range(1, len(chars))))


def character_with_unit_value(q: int, b: int) -> DirichletCharacter:
    """A character with chi(b) = e(1/m), m the order of b mod q.

    Solves sum_i h_i * (f_i m / s_i) ≡ 1 (mod m) over the generator basis,
    f the dlog vector of b; each f_i m / s_i is an integer because
    s_i / gcd(f_i, s_i) divides m, and the gcd of m and those t numbers is 1,
    so the congruence is solvable.
    """
    q = check_modulus(q)
    b = check_residue(q, b)
    orders = unit_group_structure(q).orders
    f = dlog_vector(q, b)
    m = vector_order(f, orders)
    if m == 1:
        return principal_character(q)
    coefs = [fi * m // s for fi, s in zip(f, orders)]
    h = _solve_unit_combination(m, coefs)
    exps = tuple(hi % s for hi, s in zip(h, orders))
    chi = DirichletCharacter(q, exps)
    assert chi.evaluate(b) == Fraction(1, m)
    return chi


def _solve_unit_combination(m: int, coefs: list[int]) -> list[int]:
    """Integers h_i with sum h_i coefs[i] ≡ 1 (mod m); requires gcd(m, *coefs) = 1."""
    g = m
    h = [0] * len(coefs)
    for i, c in enumerate(coefs):
        gg, u, v = _ext_gcd(g, c)
        for j in range(i):
            h[j] = h[j] * u % m
        h[i] = v % m
        g = gg
        if g == 1 and i < len(coefs) - 1:
            break
    if g != 1:
        raise ArithmeticError("combination is not solvable (gcd != 1)")
    return h


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def character_pair_constraint(q: int, b: int, c: int, r: int) -> DirichletCharacter:
    """A character with chi(b) = e(1/r) and chi(c)^r = 1.

    Requires r | ord(b), and for every prime power p^a || r that
    p^(a+1) does not divide ord(c).
    """
    q = check_modulus(q)
    b = check_residue(q, b)
    c = check_residue(q, c)
    if r < 1:
        raise ValueError("r must be positive")
    s1 = multiplicative_order(q, b)
    if s1 % r != 0:
        raise ValueError(f"r={r} does not divide ord({b}) = {s1}")
    s2 = multiplicative_order(q, c)
    for p, a in factorize(r):
        if s2 % p ** (a + 1) == 0:
            raise ValueError(
                f"prime power {p}^{a} || r={r} but {p}^{a + 1} divides ord({c}) = {s2}"
            )
    if r == 1:
        return principal_character(q)
    # split s2 = v*u with v collecting the primes of r (so v | r) and u coprime to r
    v = 1
    for p, _ in factorize(r):
        while s2 % (v * p) == 0:
            v *= p
    u = s2 // v
    chi1 = character_with_unit_value(q, b)
    chi2 = chi1 ** (s1 // r)
    x = pow(u, -1, r)
    chi = chi2 ** (x * u)
    assert chi.evaluate(b) == Fraction(1, r)
    assert (r * chi.evaluate(c)) % 1 == 0
    return chi


def character_sum_reduced(chars, a: int):
    """Canonical cyclotomic form of sum_{chi in chars} chi(a)."""
    if not chars:
        raise ValueError("empty character collection")
    n = unit_group_structure(chars[0].q).exponent
    ks = [chi.angle_numerator(a) for chi in chars]
    return reduce_root_sum(angles_to_counts(ks, n), n)
