"""Main-term evaluation for hypothesized zero configurations.

Evaluates the normalized explicit-formula main terms

    -2 Re sum_chi (conj(chi)(a) - conj(chi)(b)) sum_rho n(rho, chi) e^(rho u) / (rho u)

multiplied by u / e^(sigma_max u), on grids of u = log x.  The dropped remainders
(the integral tail of each zero term and the contribution of unhypothesized
zeros below the beta_1 ceiling) are never silently added; explicit bounds are
computed alongside and every ordering verdict is compared against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, character_group

LN2 = math.log(2.0)


class SimulationError(ValueError):
    """A simulation found a configuration that fails its verification."""


class SimulationInputError(SimulationError):
    """Arguments or a barrier that a simulation rejects before evaluating it."""


@dataclass(frozen=True)
class MainTermConfig:
    """Zero data ready for grid evaluation."""

    q: int
    zeros: tuple[tuple[DirichletCharacter, complex, int], ...]  # (chi, rho, multiplicity)
    sigma_max: float
    beta1: float = 0.5

    @classmethod
    def from_zeros(cls, q, zeros, beta1=0.5) -> "MainTermConfig":
        packed = tuple((z.character, complex(z.sigma, z.gamma), int(z.multiplicity)) for z in zeros)
        sigma_max = max((z.sigma for z in zeros), default=beta1)
        return cls(q=q, zeros=packed, sigma_max=sigma_max, beta1=beta1)

    def max_gamma(self) -> float:
        return max((rho.imag for _, rho, _ in self.zeros), default=0.0)

    def coefficients(self, pairs) -> list[dict[complex, complex]]:
        """Per pair (a, b), the per-distinct-rho coefficient
        sum_chi n(rho,chi)(conj chi(a) - conj chi(b)), reading each residue's
        column once."""
        chars = character_group(self.q)
        roots = chars.roots
        residues = list(dict.fromkeys(r for pair in pairs for r in pair))
        cols = dict(zip(residues, chars.columns(residues)))
        out = [{} for _ in pairs]
        for chi, rho, mult in self.zeros:
            row = chi.index
            conj = {r: roots[col[row]].conjugate() for r, col in cols.items()}
            for coeffs, (a, b) in zip(out, pairs):
                coeffs[rho] = coeffs.get(rho, 0j) + (conj[a] - conj[b]) * mult
        return out


def pair_diff_grid(config: MainTermConfig, a: int, b: int, us: np.ndarray) -> np.ndarray:
    """Vectorized main term over a u grid (leading f term only, normalized)."""
    return pair_diff_grids(config, ((a, b),), us)[0]


def pair_diff_grids(config: MainTermConfig, pairs, us: np.ndarray) -> list[np.ndarray]:
    """Main terms of several residue pairs over one u grid of any shape.

    The stacked kernel `_main_terms` evaluates each distinct rho's amplitude
    and rotation e^(i gamma u) once, here afresh on every call, and adds the
    term into every pair with a nonzero coefficient there; the bytes equal a
    pair-by-pair evaluation.
    """
    us = np.asarray(us, dtype=float)
    flat = us.reshape(-1)
    rows = _main_terms(config, config.coefficients(pairs), flat.size, _rotations(flat),
                       lambda offset: _amplitude(offset, flat))
    return [row.reshape(us.shape) for row in rows]


def _sincos(gamma: float, us: np.ndarray) -> np.ndarray:
    """e^(i gamma u) over a grid: cos in the real part and sin in the imaginary.

    The phases gamma u reach 4e8 on the criterion-7 window, where argument
    reduction is most of the cost; one complex exp reduces once for both, equal
    bit for bit to np.cos and np.sin on glibc.
    """
    return np.exp(1j * (gamma * us))


def _rotations(us: np.ndarray):
    """Uncached ``rotation`` for `_main_terms`: cos and sin of gamma u over us
    from one sincos per call."""
    def rotation(gamma):
        rot = _sincos(gamma, us)
        return rot.real, rot.imag
    return rotation


def _amplitude(offset: float, us: np.ndarray) -> np.ndarray:
    """-2 e^(offset u) over a grid, for offset = sigma - sigma_max."""
    return -2.0 * np.exp(offset * us)


# windows, (ordinate, window) rotations and (offset, window) amplitudes kept
# for simulate; every census barrier has the ordinates t = 1000 and 2t and at
# most one offset below sigma_max, so all barriers checked on one window share
# one grid and three arrays
_GRIDS = 2
_ROTATIONS = 8
_AMPLITUDES = 4


@lru_cache(maxsize=_GRIDS)
def _window_grid(u0: float, u1: float, n: int) -> np.ndarray:
    """Read-only simulate grid np.linspace(u0, u1, n)."""
    us = np.linspace(u0, u1, n)
    us.setflags(write=False)
    return us


@lru_cache(maxsize=_ROTATIONS)
def _window_rotation(gamma: float, u0: float, u1: float, n: int) -> np.ndarray:
    """Read-only rows cos(gamma u), sin(gamma u) over simulate's grid
    `_window_grid(u0, u1, n)`, each contiguous."""
    rot = _sincos(gamma, _window_grid(u0, u1, n))
    out = np.stack((rot.real, rot.imag))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=_AMPLITUDES)
def _window_amplitude(offset: float, u0: float, u1: float, n: int) -> np.ndarray:
    """Read-only -2 e^(offset u) over simulate's grid `_window_grid(u0, u1, n)`."""
    amp = _amplitude(offset, _window_grid(u0, u1, n))
    amp.setflags(write=False)
    return amp


# cells of one (rows x columns) temporary of `_main_terms`: 96 KiB of float64,
# under glibc's 128 KiB mmap threshold, so each tile reuses heap memory; three
# rows give tiles of 4096 samples
_TILE_CELLS = 3 * 4096


def _main_terms(config: MainTermConfig, coeffs, n: int, rotation, amplitude) -> np.ndarray:
    """Rows -2 Re sum_rho c(rho) e^((rho - sigma_max) u) / rho over n samples,
    one row per coefficient dict {rho: c}.

    ``rotation(gamma)`` gives cos(gamma u) and sin(gamma u), and
    ``amplitude(offset)`` -2 e^(offset u), an array or, where it is constant,
    a float.  Rhos are visited in the order they first appear in
    ``config.zeros``; each visit updates the rows whose coefficient is
    nonzero there as one stack, t = zr cos - zi sin, t = amp t, row += t with
    z = c / rho.  Every element gets the float operations of a row-by-row
    loop in the same order, so the bytes, signed zeros and NaNs included, do
    not depend on the stacking or on the column tiles the grid is swept in.
    """
    out = np.zeros((len(coeffs), n))
    passes = []
    for rho in dict.fromkeys(rho for _, rho, _ in config.zeros):
        rows = [r for r, c in enumerate(coeffs) if c.get(rho, 0) != 0]
        if not rows:
            continue
        z = np.array([coeffs[r][rho] / rho for r in rows])[:, None]
        if rows[-1] - rows[0] == len(rows) - 1:  # a run of rows updates in place
            rows = slice(rows[0], rows[-1] + 1)
        passes.append((rows, z.real, z.imag,
                       *rotation(rho.imag), amplitude(rho.real - config.sigma_max)))
    width = max(1, _TILE_CELLS // max(1, len(coeffs)))
    for s in range(0, n, width):
        cols = slice(s, s + width)
        block = out[:, cols]
        for rows, zr, zi, cos, sin, amp in passes:
            t = zr * cos[cols]
            t -= zi * sin[cols]
            np.multiply(amp if isinstance(amp, float) else amp[cols], t, out=t)
            block[rows] += t
    return out


def _remainder_bound(config: MainTermConfig, coeffs: dict[complex, complex], u: float) -> float:
    """Upper bound at u on everything the main term of a pair with
    coefficients ``coeffs`` drops, at the same normalization.

    Per distinct rho the integral tail of f is at most
    (1/|rho|) [4 e^(sigma u)/(sigma u^2) + e^(sigma u/2)/ln 2].  Zeros below
    the beta_1 ceiling contribute at most e^(beta1 u) u^2 times a constant
    depending only on q; that constant is taken as 1, an assumption no part
    of the package proves.
    """
    total = 0.0
    for rho, c in coeffs.items():
        mag = abs(c)
        if mag == 0.0:
            continue
        sig = rho.real
        norm_main = 4.0 * math.exp((sig - config.sigma_max) * u) / (sig * u)
        norm_half = u * math.exp((sig / 2.0 - config.sigma_max) * u) / LN2
        total += 2.0 * mag * (norm_main + norm_half) / abs(rho)
    tail = 2.0 * math.exp((config.beta1 - config.sigma_max) * u) * u * u
    return total + tail


def remainder_sup(config: MainTermConfig, a: int, b: int, u0: float, u1: float,
                  coeffs: dict[complex, complex]) -> float:
    """Supremum of the remainder bound over [u0, u1].

    Each piece is monotone except the ceiling term u^2 e^((beta1 - sigma_max) u),
    whose interior maximum sits at u = 2 / (sigma_max - beta1).  ``coeffs`` are
    the coefficients of (a, b) or of (b, a): only their moduli are read.
    """
    if a == b:
        return 0.0
    us = [u0, u1]
    if config.sigma_max > config.beta1:
        critical = 2.0 / (config.sigma_max - config.beta1)
        if u0 < critical < u1:
            us.append(critical)
    return max(_remainder_bound(config, coeffs, u) for u in us)


@dataclass
class RaceProfile:
    """Samples of a simulation and the verdict on its excluded ordering."""

    u: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    ordering_codes: np.ndarray  # int8 per sample: index into ordering_labels, -1 tie
    ordering_labels: tuple
    ordering_histogram: dict[tuple, int]
    ties: int
    excluded_ordering: tuple
    excluded_raw: int  # samples where the excluded ordering shows
    excluded_robust: int  # samples where it shows with slack above the remainder
    margin: float  # avoidance margin: minus the largest slack
    remainder: float | None  # None where no remainder is accounted
    first_violation_u: float | None  # first u of a robust occurrence

    @property
    def verified(self) -> bool:
        """No sample shows the excluded ordering with slack above the remainder."""
        return self.excluded_robust == 0


@lru_cache(maxsize=4096)
def _ordering_table(triple: tuple) -> tuple[tuple, np.ndarray, tuple]:
    """Ordering labels of a triple, the int8 lookup from sign keys to them, and
    the sign key of each label.

    A sign key sets bits 0, 1, 2 where the differences (ab, bc, ac) are
    positive and bits 3, 4, 5 where they are negative.  A key with each
    difference one or the other is ranked by pairwise wins, largest first.
    Every other key (a difference that is 0, -0.0 or NaN), and a sign cycle,
    where no ranking fits the wins, maps to the tie code -1.
    """
    a, b, c = triple
    ranked = {}
    for code in range(8):
        x, y, z = (code >> bit & 1 for bit in range(3))
        wins = {a: x + z, b: (1 - x) + y, c: (1 - y) + (1 - z)}
        if sorted(wins.values()) == [0, 1, 2]:
            ranked[tuple(sorted(wins, key=wins.get, reverse=True))] = code | (7 ^ code) << 3
    labels = tuple(sorted(ranked))
    table = np.full(64, -1, dtype=np.int8)
    table[[ranked[order] for order in labels]] = range(len(labels))
    table.setflags(write=False)
    return labels, table, tuple(ranked[order] for order in labels)


# weight of each sign row (ab, bc, ac positive, then negative) in a sign key
_SIGN_BITS = np.array([[1], [2], [4], [8], [16], [32]], dtype=np.uint8)


def classify_orderings(triple, diffs) -> tuple[np.ndarray, tuple, dict[tuple, int], int]:
    """Ordering code per sample from pairwise signs, the labels it indexes,
    the occurrences per observed ordering and the number of ties.

    ``diffs`` stacks the differences (ab, bc, ac) as three rows.  Each is taken
    as computed (no cocycle), because the pairwise coefficients can cancel
    exactly for one pair, leaving a term many orders of magnitude below the
    others.  A difference that is not strictly positive or strictly negative
    (0, -0.0, NaN), or a sign cycle from float noise, gives the tie code -1.
    The counts come from one bincount over the sign keys.
    """
    labels, table, label_keys = _ordering_table(tuple(triple))
    diffs = np.asarray(diffs)
    signs = np.concatenate((diffs > 0, diffs < 0)).view(np.uint8)
    keys = (signs * _SIGN_BITS).sum(axis=0, dtype=np.uint8).astype(np.intp)
    counts = np.bincount(keys, minlength=len(table)).tolist()
    histogram = {label: counts[k] for label, k in zip(labels, label_keys) if counts[k]}
    return table.take(keys), labels, histogram, len(keys) - sum(histogram.values())


# row of each pair of triple positions i < j in the stacked differences (ab, bc, ac)
_PAIR_ROW = {(0, 1): 0, (1, 2): 1, (0, 2): 2}


def _excluded_pairs(triple: tuple, diffs, ordering):
    """x - y and y - z for the excluded ordering x > y > z of the triple, each
    as its stacked row of `diffs` (negated for a reversed pair) and that
    row's index."""
    x, y, z = ordering
    out = []
    for s, t in ((x, y), (y, z)):
        i, j = triple.index(s), triple.index(t)
        row = _PAIR_ROW[min(i, j), max(i, j)]
        out.append((diffs[row] if i < j else -diffs[row], row))
    return out


def _check_window(u0: float, u1: float, n: int, max_gamma: float) -> None:
    """Reject fewer than 2 samples, a window that is not finite or empty, and
    a u0 below the admissible floor: 10, or log of the largest ordinate."""
    if n < 2:
        raise SimulationInputError("need at least 2 samples")
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise SimulationInputError(f"u range [{u0}, {u1}] is not finite")
    if u1 <= u0:
        raise SimulationInputError("empty u range")
    floor = max(10.0, math.log(max_gamma) if max_gamma > 0 else 0.0)
    if u0 < floor:
        raise SimulationInputError(f"u0={u0} below admissible floor {floor:.3f}")


def _race_profile(cls, triple: tuple, diffs, ordering: tuple, us: np.ndarray, remainder, **own):
    """The ``cls`` profile of the stacked differences ``diffs`` (ab, bc, ac)
    of ``triple`` over the grid ``us``, with the fields ``own`` of ``cls``.

    Every sample's ordering is classified, and the slack min(x - y, y - z) of
    the excluded ordering x > y > z shows that ordering where it is
    positive.  ``remainder(row)`` bounds over the window what the main term
    of stacked row ``row`` drops; an occurrence is robust where the slack
    exceeds the larger bound of the two excluded rows.  With ``remainder``
    None no remainder is accounted and every occurrence is robust.  d1 and
    d2 are the rows x - y and y - z unless ``own`` gives them.
    """
    codes, labels, histogram, ties = classify_orderings(triple, diffs)
    (d1, r1), (d2, r2) = _excluded_pairs(triple, diffs, ordering)
    slack = np.minimum(d1, d2)
    raw = slack > 0
    rem = None if remainder is None else max(remainder(r1), remainder(r2))
    robust = raw if rem is None else slack > rem
    excluded_robust = int(np.count_nonzero(robust))
    own.setdefault("d1", d1)
    own.setdefault("d2", d2)
    return cls(**own, u=us, ordering_codes=codes,
               ordering_labels=labels, ordering_histogram=histogram, ties=ties,
               excluded_ordering=tuple(ordering), excluded_raw=int(np.count_nonzero(raw)),
               excluded_robust=excluded_robust, margin=float(-slack.max()), remainder=rem,
               first_violation_u=float(us[robust.argmax()]) if excluded_robust else None)


def simulate(barrier, u0: float, u1: float, n: int) -> RaceProfile:
    """Grid evaluation of the main terms of a finite barrier.

    Classifies every sample's strict ordering, counts occurrences of the
    barrier's excluded ordering, and reports the avoidance margin next to the
    remainder bound.  The differences of the pairs (ab, bc, ac) come from one
    stacked kernel pass per distinct rho (`_main_terms`).  The grid, its
    rotations e^(i gamma u) and its amplitudes -2 e^((sigma - sigma_max) u)
    come from three small caches keyed by (u0, u1, n), (gamma, u0, u1, n) and
    (sigma - sigma_max, u0, u1, n), shared by every barrier checked on the
    same window; at sigma = sigma_max the amplitude is the scalar -2.0.
    """
    config = MainTermConfig.from_zeros(barrier.q, list(barrier.zeros), beta1=barrier.beta1)
    _check_window(u0, u1, n, config.max_gamma())
    u0, u1 = float(u0), float(u1)  # the cached arrays' grid is built from the same floats
    triple = tuple(barrier.relabeled_triple)
    a, b, c = triple
    pairs = [(a, b), (b, c), (a, c)]
    coeffs = config.coefficients(pairs)
    # at sigma = sigma_max the amplitude -2 e^(0 u) is -2.0 at every finite u
    diffs = _main_terms(config, coeffs, n, lambda gamma: _window_rotation(gamma, u0, u1, n),
                        lambda offset: -2.0 if offset == 0.0 else
                        _window_amplitude(offset, u0, u1, n))
    return _race_profile(RaceProfile, triple, diffs, barrier.excluded_ordering,
                         _window_grid(u0, u1, n).copy(),
                         lambda row: remainder_sup(config, *pairs[row], u0, u1, coeffs[row]))


# ---------------------------------------------------------------------------
# envelope analysis


def v_lambda(lam: float) -> float:
    """Zero crossing of cos y + lam cos 2y on [0, pi], for 0 < lam < 1.

    Uses 2 lam / (1 + sqrt(1 + 8 lam^2)) for the cosine, which is stable for
    small lam (the textbook (-1 + sqrt(8 lam^2 + 1)) / (4 lam) form cancels).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    return math.acos(2.0 * lam / (1.0 + math.sqrt(1.0 + 8.0 * lam * lam)))


def envelope_min(d1, d2, c1: int, c2: int):
    """delta > 0 and the worst y with min(g1(y), g2(y - pi(d1+d2))) <= -delta for all y.

    g_j(y) = c1 sin(pi d_j) cos y + (c2/2) sin(2 pi d_j) cos 2y.  Four passes of
    2^16 grid points, one period then three finer windows, each finding the
    grid argmax of the min m (Piyavskii 1972; Shubert 1972): m is evaluated at
    every 64th point and the last, then in full only on the cells whose bound
    max(m(a), m(b)) + L h / 2 + eps (ends a, b, width h) reaches the largest of
    those values.  Every other point lies strictly below it, so the first
    maximal index among the evaluated points is the grid's argmax.
    L = max_j |c1 sin pi d_j| + |c2 sin 2 pi d_j| bounds |g_j'|.  numpy's
    accuracy tests hold float64 cos within 1 ulp of its correctly rounded
    value, so within 3u of cos (u = 2^-53), and an evaluated g_j is within 5uL
    of g_j at its argument; rounding y - pi(d1+d2), under 8 in size, adds 8uL
    to g2.  eps = 2^-48 L = 32uL covers twice 13uL and the bound's rounding.
    Each gap enters as numerator / denominator of its integer ratio, the
    quotient float() returns, and the result is cached on those integers.
    """
    delta, best_y = _envelope_min(*d1.as_integer_ratio(), *d2.as_integer_ratio(), c1, c2)
    if delta <= 0.0:
        raise ArithmeticError(f"envelope maximum {-delta} is not negative for {(d1, d2, c1, c2)}")
    return delta, best_y


@lru_cache(maxsize=4096)
def _envelope_min(n1: int, m1: int, n2: int, m2: int, c1: int, c2: int) -> tuple[float, float]:
    """`envelope_min` on the gaps n1 / m1 and n2 / m2, with delta unchecked."""
    d1f, d2f = n1 / m1, n2 / m2
    shift = math.pi * (d1f + d2f)

    def g(dj, y):
        return c1 * math.sin(math.pi * dj) * np.cos(y) + 0.5 * c2 * math.sin(
            2.0 * math.pi * dj
        ) * np.cos(2.0 * y)

    def m(ys):
        return np.minimum(g(d1f, ys), g(d2f, ys - shift))

    slope = max(abs(c1 * math.sin(math.pi * dj)) + abs(c2 * math.sin(2.0 * math.pi * dj))
                for dj in (d1f, d2f))
    eps = 2.0**-48 * slope
    lo, hi = 0.0, 2.0 * math.pi
    points, cell = 1 << 16, 64
    ends = np.append(np.arange(0, points, cell), points - 1)
    for _ in range(4):
        ys = np.linspace(lo, hi, points)
        coarse = m(ys[ends])
        bound = np.maximum(coarse[:-1], coarse[1:]) + 0.5 * slope * np.diff(ys[ends]) + eps
        # each run of kept cells, in grid order; > keeps the first maximal index
        edges = np.flatnonzero(np.diff(bound >= coarse.max(), prepend=False, append=False))
        top = -math.inf
        for a, b in (edges.reshape(-1, 2) * cell).tolist():
            run = m(ys[a:b])
            j = int(np.argmax(run))
            if run[j] > top:
                top, i = run[j], a + j
        best_y = float(ys[i])
        width = (hi - lo) / points * 4.0
        lo, hi = best_y - width, best_y + width
    worst = min(
        c1 * math.sin(math.pi * d1f) * math.cos(best_y)
        + 0.5 * c2 * math.sin(2 * math.pi * d1f) * math.cos(2 * best_y),
        c1 * math.sin(math.pi * d2f) * math.cos(best_y - shift)
        + 0.5 * c2 * math.sin(2 * math.pi * d2f) * math.cos(2 * (best_y - shift)),
    )
    return -worst, best_y


def envelope3_max(grid: int = 10**6):
    """Grid maximum of min(2cos u + cos 2u, -2cos u + cos 2u) over one period."""
    us = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    c2 = np.cos(2.0 * us)
    c1 = 2.0 * np.cos(us)
    m = np.minimum(c1 + c2, -c1 + c2)
    i = int(np.argmax(m))
    return float(m[i]), float(us[i]), us, m


# ---------------------------------------------------------------------------
# infinite construction


@dataclass
class GshProfile(RaceProfile):
    """A GSH simulation's profile: d1 and d2 are its first and second main
    terms, and no remainder is accounted yet."""

    regime2: np.ndarray
    controlled: np.ndarray
    phase_bound_max: float
    tail_constant: float
    controlled_positive: int
    controlled_total: int
    dominance_violations: int


def gsh_simulate(gsh, u0: float, u1: float, n: int, max_lock_points: int = 2000) -> GshProfile:
    """Two-regime evaluation of a truncated infinite barrier.

    The second main term uses the single isolated zero; the first sums the
    infinite family truncated at J.  Samples split by whether t u / pi is
    within u^-0.9 of the phase offset alpha (nearest-integer distance).  The
    positivity assertion applies to the phase-controlled subset of those
    samples; at desk scale the window phases are only pinned where
    ||t u / pi - alpha|| * max h_j is small, so the rest are reported, not
    asserted.

    The first term's phases are reduced exactly (`gsh_phases`), so each
    term's cos and sin are within 4 2^-53 of those of fl(gamma_j) fl(u) at
    any u; a barrier outside that module's exact range raises
    SimulationInputError.  The regime split and the second term stay in
    float.  The certificate (`gsh_family.Certificate`) decides each regime-2
    sample from an interval built from three weighted sums of the family
    tiles' damping, and runs its float per-term expression only where the
    interval lies within a margin of 0, so its decisions are that
    expression's.
    """
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    _check_window(u0, u1, n, gam.max())
    if max_lock_points < 0:
        raise SimulationInputError(f"max_lock_points = {max_lock_points} is negative")
    t = gsh.t
    if gsh.truncation < u1 ** 0.4:
        raise SimulationInputError(
            f"truncation J={gsh.truncation} too small for u1={u1} (need >= u1^0.4)"
        )

    us = np.linspace(u0, u1, n)
    if max_lock_points:
        # u with t u / pi = alpha (mod 1): the phase-locked spine of regime 2
        n_lo = math.ceil(t * u0 / math.pi - gsh.alpha)
        n_hi = math.floor(t * u1 / math.pi - gsh.alpha)
        if n_hi >= n_lo:
            idx = np.unique(np.linspace(n_lo, n_hi, min(max_lock_points, n_hi - n_lo + 1)).astype(np.int64))
            locks = (math.pi / t) * (gsh.alpha + idx)
            us = np.unique(np.concatenate([us, locks]))

    w = complex(gsh.w)
    z = complex(gsh.z)
    sigma1, sigma2 = gsh.sigma1, gsh.sigma2

    # second term: 2 Re(e^{itu} Z / (sigma1 + it)), at the x^{sigma1}/u scale
    z1 = z / complex(sigma1, t)
    d2 = 2.0 * (z1.real * np.cos(t * us) - z1.imag * np.sin(t * us))

    # first term: 2 sum_j Re(W e^{(-delta_j + i gamma_j) u} / rho_j), x^{sigma2}/u scale,
    # and the tail sum_j e^{-delta_j u} / gamma_j^2 from the same damping.  The
    # phases gamma_j u reach 1e18, where a float product has no correct
    # digit; they are reduced exactly instead
    rho = (sigma2 - del_) + 1j * gam
    # imported here, as only GSH barriers need them
    from .gsh_family import Certificate, family_tasks, nearest_int_dist, run_pooled
    from .gsh_phases import PhaseRangeError, family_phases

    try:
        phases = family_phases(t, gsh.h_values, gam, us)
    except PhaseRangeError as exc:
        raise SimulationInputError(str(exc)) from None
    certificate = Certificate(gsh, gam, del_)
    d1, tails, sums, tasks = family_tasks(us, phases, gam, del_, w / rho, certificate.weights)

    # regime split, and the positivity certificate of the regime-2 samples
    # from the sums the family tiles formed
    dist = nearest_int_dist(t * us / math.pi - gsh.alpha)
    regime2 = dist <= us ** -0.9
    run_pooled(tasks)  # its threads, and with them their tile arrays, end here
    controlled = np.zeros_like(regime2)
    rows2 = np.flatnonzero(regime2)
    controlled[rows2] = certificate.controlled(us, dist, rows2, sums)
    ctrl_tot = int(controlled.sum())
    ctrl_pos = int((d1[controlled] > 0).sum())
    phase_bound_max = certificate.phase_bound_max(us[controlled])

    # regime 1 dominance: |D2| at x^{sigma1} beats D1 at x^{sigma2}
    scale = np.exp(np.minimum((sigma1 - sigma2) * us, 700.0))
    dom_viol = int(((np.abs(d2) * scale) <= np.abs(d1))[~regime2].sum())

    # tail constant: the tail sum against u^{-3/4}
    tail_c = float((tails * us ** 0.75).max())

    if ctrl_tot and ctrl_pos != ctrl_tot:
        raise SimulationError(
            f"positivity failed on {ctrl_tot - ctrl_pos} of {ctrl_tot} controlled samples"
        )
    if dom_viol:
        raise SimulationError(f"dominance failed on {dom_viol} regime-1 samples")

    # orderings: d1 = phi(q)(pi_a1 - pi_a2) normalized, d2 = phi(q)(pi_a3 - pi_a2) normalized
    d_a1a2 = d1 * np.exp((sigma2 - sigma1) * us)  # common x^{sigma1} scale
    diffs = (d_a1a2, -d2, d_a1a2 - d2)  # (ab, bc, ac) over (a1, a2, a3)
    return _race_profile(GshProfile, tuple(gsh.relabeled_triple), diffs, gsh.excluded_ordering,
                         us, None, d1=d1, d2=d2, regime2=regime2, controlled=controlled,
                         phase_bound_max=phase_bound_max, tail_constant=tail_c,
                         controlled_positive=ctrl_pos, controlled_total=ctrl_tot,
                         dominance_violations=dom_viol)


# ---------------------------------------------------------------------------
# export


def write_profile(profile, path) -> None:
    """Delimited text: header, then u, D1, D2 and the ordering per sample.

    The ordering is written largest first as ``a>b>c``, or ``tie``.
    """
    import csv  # imported here: no finite barrier query writes a profile

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["u", "D1", "D2", "ordering"])
        # the tie code -1 picks the last entry
        names = [">".join(map(str, o)) for o in profile.ordering_labels] + ["tie"]
        for u, x, y, code in zip(profile.u, profile.d1, profile.d2, profile.ordering_codes):
            wr.writerow([format(u, ".15g"), format(x, ".15g"), format(y, ".15g"), names[code]])
