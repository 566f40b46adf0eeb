"""Dirichlet characters mod q with exact rational-angle values.

A character is its exponent vector (h_1..h_t) over the canonical generators:
chi(g_i) = e(h_i / s_i).  Values on units are exact fractions of a turn;
complex numbers are materialized only at the simulator boundary.  One object
per modulus, `character_group(q)`, holds the characters as its rows and reads
every value as an integer angle numerator: a single value from the residue's
dlog vector, and a search's values from the residue's cached column.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import angles_to_counts, reduce_root_sum
from .residue_group import (
    PER_MODULUS,
    check_modulus,
    check_residue,
    dlog_vector,
    factorize,
    multiplicative_order,
    unit_group_structure,
    unravel,
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
        # the dataclass hash of (q, exponents), computed once: the shared zero
        # records are looked up by character
        self.__dict__["_hash"] = hash((self.q, self.exponents))

    def __hash__(self) -> int:
        return self._hash

    @property
    def group(self):
        return unit_group_structure(self.q)

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    @cached_property
    def order(self) -> int:
        return vector_order(self.exponents, self.group.orders)

    @cached_property
    def index(self) -> int:
        """Canonical position: row-major over the generator orders."""
        return character_group(self.q).row(self.exponents)

    def evaluate(self, a: int) -> RationalAngle:
        """Exact angle of chi(a) as a fraction of a turn in [0, 1)."""
        return Fraction(self.angle_numerator(a), character_group(self.q).exponent)

    def angle_numerator(self, a: int) -> int:
        """Angle as integer k with chi(a) = e(k / exponent)."""
        return character_group(self.q).angle(self.index, a)

    def value(self, a: int) -> complex:
        return character_group(self.q).roots[self.angle_numerator(a)]

    def conjugate(self) -> "DirichletCharacter":
        return self ** -1

    def __pow__(self, k: int) -> "DirichletCharacter":
        """chi**k, the character group's own row object."""
        chars = character_group(self.q)
        return chars[chars.power(self.index, k)]


class _RootsOfUnity(dict):
    """roots[k] = e(k / n), 0 <= k < n, computed on first read and kept; k / n
    rounds like the reduced Fraction(k, n), so each root is bit for bit
    e(Fraction(k, n)) taken from the reduced fraction."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __missing__(self, k: int) -> complex:
        if not 0 <= operator.index(k) < self.n:
            raise IndexError(f"root index {k} outside [0, {self.n})")
        theta = 2.0 * math.pi * (k / self.n)
        z = self[k] = complex(math.cos(theta), math.sin(theta))
        return z


class CharacterGroup(Sequence):
    """The phi(q) characters mod q in canonical (row-major exponent) order,
    with every value as an integer angle numerator.

    Row i is built, through DirichletCharacter's own validation, the first
    time it is read, and the same object is returned on every later read; a
    search that reads a handful of rows never pays for the other phi(q).

    chi(a) = e(k / exponent) with k = sum_i h_i f_i (exponent / s_i) mod
    exponent over chi's exponent vector h and a's dlog vector f.  Nothing
    phi(q)^2 is stored: `angle` reads one value from the dlog at O(t), and
    `columns` builds one residue's numerators over all rows at O(phi(q) t)
    and caches them as an int64 `array.array`, the form the searches index.
    """

    __slots__ = ("q", "orders", "exponent", "roots", "_steps", "_rows", "_columns")

    def __init__(self, group):
        self.q, self.orders, self.exponent = group.q, group.orders, group.exponent
        self.roots = _RootsOfUnity(group.exponent)  # roots[k] = e(k / exponent)
        self._steps = [group.exponent // s for s in group.orders]  # exponent / s_i
        self._rows: list[DirichletCharacter | None] = [None] * group.phi
        self._columns: dict[int, array] = {}

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
        chi = self._rows[row] = DirichletCharacter(self.q, unravel(row, self.orders))
        chi.__dict__["index"] = row  # and no reference to the group: a row is a plain value
        return chi

    def row(self, exponents) -> int:
        """Row of the character with these exponents, each taken mod its order."""
        row = 0
        for h, s in zip(exponents, self.orders):
            row = row * s + h % s
        return row

    def power(self, row: int, k: int) -> int:
        """Row of chi**k for the character chi in `row`: row k mod n with one generator."""
        if len(self.orders) == 1:
            return row * k % self.exponent
        return self.row([h * k for h in self[row].exponents])

    def angle(self, row: int, a: int) -> int:
        """Angle numerator of the character in `row` at a, read from a's dlog
        vector; a loop over residues builds no columns."""
        f = map(operator.mul, dlog_vector(self.q, a), self._steps)
        return sum(map(operator.mul, self[row].exponents, f)) % self.exponent

    def columns(self, residues) -> list[array]:
        """Per residue, its angle numerators over all characters in row order.

        With c_i = f_i n / s_i and w_i the row stride of generator i, row r
        holds sum_i c_i floor(r / w_i) mod n (c_i s_i is 0 mod n, so
        floor(r / w_i) may stand for h_i): the prefix sum of c_i placed at
        every nonzero multiple of w_i, formed in the column's own buffer.
        """
        cols = self._columns
        out = []
        for a in residues:
            col = cols.get(a % self.q)
            if col is None:
                f = dlog_vector(self.q, a)
                col = array("q", [0]) * len(self._rows)
                k = np.frombuffer(col, dtype=np.int64)
                stride = len(k)
                for fi, s, step in zip(f, self.orders, self._steps):
                    stride //= s
                    k[stride::stride] += fi * step
                np.cumsum(k, out=k)
                k %= self.exponent
                cols[a % self.q] = col  # cached only once complete
            out.append(col)
        return out


@lru_cache(maxsize=None)
def character_group(q: int) -> CharacterGroup:
    """All phi(q) characters in canonical (row-major exponent) order, each
    built when first read, with their values; kept, with q's unit group,
    until the moduli kept pass residue_group.KEPT_UNITS units."""
    return CharacterGroup(unit_group_structure(check_modulus(q)))


PER_MODULUS.append(character_group)


def principal_character(q: int) -> DirichletCharacter:
    return character_group(q)[0]


def nonprincipal_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """Rows 1 .. phi(q) - 1 of the character group; row 0 is the principal character."""
    chars = character_group(q)
    return tuple(map(chars.__getitem__, range(1, len(chars))))


def _solve_unit_combination(m: int, coefs: list[int]) -> list[int]:
    """Integers h_i with sum h_i coefs[i] ≡ 1 (mod m); requires gcd(m, *coefs) = 1.
    One coefficient (a one-generator group) is inverted mod m."""
    if len(coefs) == 1 and math.gcd(coefs[0], m) == 1:
        return [pow(coefs[0], -1, m)]
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
    factors = factorize(r)
    for p, a in factors:
        if s2 % p ** (a + 1) == 0:
            raise ValueError(
                f"prime power {p}^{a} || r={r} but {p}^{a + 1} divides ord({c}) = {s2}"
            )
    if r == 1:
        return principal_character(q)
    chi = character_group(q)[_pair_constraint_row(q, b, r, s1, s2, [p for p, _ in factors])]
    assert chi.evaluate(b) == Fraction(1, r)
    assert (r * chi.evaluate(c)) % 1 == 0
    return chi


def _pair_constraint_row(q: int, b: int, r: int, s1: int, s2: int, r_primes) -> int:
    """Row of `character_pair_constraint`'s character for r > 1, from what its
    caller already holds: s1 = ord(b), s2 = ord(c) and the primes of r, with
    the preconditions on them unchecked.

    chi1 with chi1(b) = e(1/s1) solves one unit combination; the result is
    chi1^(k) with k = (s1 / r) x u, where s2 = v u splits off the primes of
    r into v and x = u^-1 mod r.  b must be a unit mod q; it is not
    validated again.
    """
    v = 1
    for p in r_primes:
        while s2 % (v * p) == 0:
            v *= p
    u = s2 // v
    group, chars = unit_group_structure(q), character_group(q)
    f = unravel(group.index[b], group.orders)
    h = _solve_unit_combination(s1, [fi * s1 // s for fi, s in zip(f, group.orders)])
    return chars.power(chars.row(h), s1 // r * pow(u, -1, r) * u)


def character_sum_reduced(chars, a: int):
    """Canonical cyclotomic form of sum_{chi in chars} chi(a)."""
    if not chars:
        raise ValueError("empty character collection")
    n = unit_group_structure(chars[0].q).exponent
    ks = [chi.angle_numerator(a) for chi in chars]
    return reduce_root_sum(angles_to_counts(ks, n), n)
