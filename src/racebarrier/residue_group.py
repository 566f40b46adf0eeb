"""Exact structure of the unit group (Z/qZ)*.

Generators are chosen deterministically: one smallest primitive root per odd
prime-power factor of q, the {-1, 5} pair for a 2-power factor, combined in a
triangular fashion so that every generator is congruent to 1 modulo all later
prime-power factors.  Exponent vectors over the generator orders then cover
the group exactly once, which makes discrete logarithms well defined: one int32
index maps each unit to the row-major position of its exponent vector.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

# Discrete logs are built from full power tables; keep q at desk scale.
Q_CAP = 10**6

# Per-modulus state is kept for moduli of at most this many units in all (two
# near Q_CAP): the modulus that would pass it first empties every cache in
# PER_MODULUS, the lru_caches themselves (a tracer may rebind their names to
# wrappers), so a modulus's group, characters, columns and roots go together.
KEPT_UNITS = 2**21
_kept_units = 0


def check_modulus(q: int) -> int:
    """Validate a modulus: q = 5 or q >= 7 (and below the table cap)."""
    if not isinstance(q, int):
        raise ValueError(f"modulus must be an integer, got {q!r}")
    if q != 5 and q < 7:
        raise ValueError(f"modulus must be 5 or >= 7, got {q}")
    if q > Q_CAP:
        raise ValueError(f"modulus {q} exceeds the supported cap {Q_CAP}")
    return q


def check_residue(q: int, a: int) -> int:
    """Reduce a mod q and require it to be a unit."""
    a = a % q
    if a == 0 or gcd(a, q) != 1:
        raise ValueError(f"{a} is not coprime to {q}")
    return a


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def _smallest_primitive_root(m: int, order: int) -> int:
    prime_divs = [p for p, _ in factorize(order)]
    for g in range(2, m):
        if gcd(g, m) != 1:
            continue
        if all(pow(g, order // p, m) != 1 for p in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root mod {m}")


def _power_table(g: int, s: int, q: int) -> np.ndarray:
    """g^0, ..., g^(s-1) mod q: the outer product of the powers of g^b and of
    g below b = ceil(sqrt(s)), so 2b Python products in all."""
    b = isqrt(s - 1) + 1
    low, high = [1], [1]
    for _ in range(b - 1):
        low.append(low[-1] * g % q)
    for _ in range(b - 1):
        high.append(high[-1] * low[-1] * g % q)
    return (np.multiply.outer(high, low) % q).ravel()[:s]


@dataclass(frozen=True)
class UnitGroupStructure:
    """Generators of (Z/qZ)* with their orders; index[a] is the row-major
    position of a's exponent vector (the dlog when cyclic), -1 off the units."""

    q: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    exponent: int
    phi: int
    index: array = field(repr=False, compare=False, hash=False)

    @property
    def units(self) -> list[int]:
        return np.flatnonzero(np.frombuffer(self.index, dtype=np.int32) >= 0).tolist()


def unravel(flat: int, orders: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent vector at row-major position flat over orders."""
    vec = []
    for s in reversed(orders):
        flat, f = divmod(flat, s)
        vec.append(f)
    return tuple(reversed(vec))


@lru_cache(maxsize=None)
def unit_group_structure(q: int) -> UnitGroupStructure:
    """Canonical generator basis of (Z/qZ)* (triangular CRT, see module doc)."""
    global _kept_units
    q = check_modulus(q)
    phi = euler_phi(q)
    if _kept_units + phi > KEPT_UNITS:
        for cache in PER_MODULUS:
            cache.cache_clear()
        _kept_units = 0
    _kept_units += phi
    factors = factorize(q)
    gens: list[int] = []
    orders: list[int] = []
    for i, (p, e) in enumerate(factors):
        qi = p**e
        later = 1
        for p2, e2 in factors[i + 1 :]:
            later *= p2**e2
        if p == 2:
            if e == 1:
                local = []
            elif e == 2:
                local = [(qi - 1, 2)]
            else:
                local = [(qi - 1, 2), (5, 2 ** (e - 2))]
        else:
            s = qi // p * (p - 1)
            local = [(_smallest_primitive_root(qi, s), s)]
        earlier = q // (qi * later)
        for g_local, s in local:
            # x ≡ g_local (mod qi), x ≡ 1 (mod all later factors); among such x,
            # the smallest one coprime to q whose full order is exactly s, i.e.
            # whose earlier-factor components have order dividing s.  Leaving
            # the earlier components free (instead of forcing them to 1) is
            # what makes the (15 -> [(11,2),(2,4)]) style basis come out.
            m_con = qi * later
            inv = pow(qi, -1, later) if later > 1 else 0
            x0 = (g_local + qi * ((inv * (1 - g_local)) % later)) % m_con
            if x0 == 0:
                x0 = m_con
            x = x0
            while gcd(x, q) != 1 or pow(x, s, earlier) != 1 % earlier:
                x += m_con
            gens.append(x)
            orders.append(s)

    # units[v] = prod g_i^(v_i) mod q over exponent vectors v in row-major
    # order: outer products of the generators' power tables, each entry one
    # product of two residues below q <= 10^6, so below 2^63
    units = np.ones(1, dtype=np.int64)
    for g, s in zip(gens, orders):
        units = (np.multiply.outer(units, _power_table(g, s, q)) % q).ravel()
    index = array("i", [-1]) * q
    flat = np.frombuffer(index, dtype=np.int32)
    flat[units] = np.arange(len(units), dtype=np.int32)
    if np.count_nonzero(flat >= 0) != phi:
        raise ArithmeticError(f"generator basis for q={q} does not cover the group")
    return UnitGroupStructure(q, tuple(gens), tuple(orders), lcm(*orders), phi, index)


PER_MODULUS = [unit_group_structure]  # characters.py adds character_group


def vector_order(vec: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Order of the element with exponent vector vec: lcm of s_i / gcd(f_i, s_i)."""
    return lcm(*(s // gcd(f, s) for f, s in zip(vec, orders))) if orders else 1


def multiplicative_order(q: int, b: int) -> int:
    """Smallest m >= 1 with b^m ≡ 1 (mod q), from the dlog vector of b."""
    q = check_modulus(q)
    return vector_order(dlog_vector(q, b), unit_group_structure(q).orders)


def dlog_vector(q: int, b: int) -> tuple[int, ...]:
    """Exponent vector of b over the canonical generators."""
    group = unit_group_structure(q)
    return unravel(group.index[check_residue(q, b)], group.orders)


def mod_div(q: int, a: int, b: int) -> int:
    """a / b in (Z/qZ)*."""
    q = check_modulus(q)
    a = check_residue(q, a)
    b = check_residue(q, b)
    return a * pow(b, -1, q) % q
