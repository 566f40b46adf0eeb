"""The GSH family: its construction, which `construction_gsh` and a GSH
file load share, its first main term and its regime-2 positivity
certificate.

`family_tasks` sums the truncated family at every sample in tiles on a
thread pool.  From each tile's damping factors e^(-delta_j u) it also forms
three weighted sums per sample, and `Certificate.controlled` turns them into
an interval around the certificate's lower bound.  Only a sample that the
interval cannot decide runs the certificate's per-term expression, so every
decision is the one that expression makes.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .barrier_search import TWO_PI, ConstructionError, GshBarrier, _gsh_coefficients, _phase_offset
from .gsh_phases import rotation


def nearest_int_dist(x):
    return np.abs(x - np.round(x))


# the first-hit search probes H in blocks of at most 2^13 integers: 64 KiB
# per int64 or float64 temporary, under glibc's 128 KiB mmap threshold, so
# it reuses heap memory rather than faulting in fresh pages
_H_BLOCK = 1 << 13


def _first_n_primes(n: int) -> list[int]:
    # n-th prime < n (ln n + ln ln n) for n >= 6
    limit = 14 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 10
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
    bound holds for the float decisions, for either sign of eps.  eps is
    not 0: construction_gsh places t so that |eps| >= 1/(10t).
    """
    eps = alpha - round(alpha)
    h_max = float(js[-1]) * float(js[-1] + 1) if js.size else 0.0
    w = 0.2 + 1e-6 + 2.0**-50 * (h_max * abs(alpha) + abs(beta_phase) + 1.0)
    frac = js * js * alpha + beta_phase
    x0 = frac - np.floor(frac)
    in_band = (x0 <= w) | (x0 >= 1.0 - w)
    # distance along the line to the near edge of the next band
    travel = 1.0 - w - x0 if eps > 0.0 else x0 - w
    lo = np.minimum(np.ceil(travel / abs(eps)), js + 1.0)
    return np.where(in_band, 0, lo.astype(np.int64))


def _in_h(hs: np.ndarray, alpha: float, beta_phase: float) -> np.ndarray:
    """Float membership of each h in H = {h : ||h alpha + beta_phase|| <= 1/5},
    the one test that construction_gsh and the load check both use."""
    return nearest_int_dist(hs * alpha + beta_phase) <= 0.2


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


def _gsh_barrier(D, perm, triple, chi1, chi2, t, sigma1, sigma2, beta, h) -> GshBarrier:
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


# the phase tile: 64 samples by 512 terms, 2^15 terms, so each thread's five
# tile arrays (float64, two also used as uint64 views) take 256 KiB each and
# 1.25 MiB together, inside a 2 MiB per-core L2.  Each tile makes about 40
# numpy calls, and the GIL changes hands at every one: at 30 rows the second
# thread gained nothing; at 100 rows the arrays outgrow the L2 and a warm
# call faulted about 1,050 pages against about 40.  The chunk width fixes
# the summation order of d1 and the tails and so their bytes; the row count
# fixes neither.
_ROWS = 64
_CHUNK = 512

# cos 2 pi b at b = 0.2, its largest value over a certified budget b
_COS_CAP = math.cos(0.4 * math.pi)
# the interval test's margin, relative to the size of its sums: far above
# the float error of the sums and of the per-term expression (about 2^-40)
_MARGIN = 2.0 ** -30


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_pooled(tasks) -> None:
    """Run the callables on one thread per CPU (at most one per task), in
    submission order, and re-raise the first failure after all have ended."""
    # imported here: concurrent.futures pulls in logging, about 5 ms of
    # start-up that a GSH build or load does not need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(_cpu_count(), len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
    for future in futures:
        future.result()


def family_tasks(us, phases, gam, del_, wj, weights):
    """First main term d1 = 2 sum_j Re(wj e^{(-delta_j + i gamma_j) u}),
    damping tail sum_j e^{-delta_j u} / gamma_j^2 and the three weighted
    sums sum_j e^{-delta_j u} W[j] at every sample u, as three zeroed arrays
    (the last of shape (samples, 3)) and the row-block tasks that fill them.
    ``weights`` holds W as one (chunk, 3) array per _CHUNK terms.  The
    rotations e^{i gamma_j u} come from the exact turns of ``phases``, a
    `gsh_phases.FamilyPhases`.

    Tiles of _ROWS samples by _CHUNK terms: each row sums its chunks in the
    same order with the same expressions as one pass over all samples, so
    the bytes of d1 and the tails depend neither on the tiling nor on how
    many threads run the row blocks (the tasks run numpy calls only, which
    release the GIL).
    """
    d1 = np.zeros_like(us)
    tails = np.zeros_like(us)
    sums = np.zeros((len(us), 3))
    # the per-term factors, formed once per call and sliced per chunk
    gam2 = gam ** 2
    w_re, w_im = wj.real.copy(), wj.imag.copy()
    # each thread's five tile arrays, kept from tile to tile: a loop that
    # allocated its temporaries afresh made glibc trim and re-fault the heap
    # top, about 26 minor faults per tile
    local = threading.local()

    def row_block(r0):
        if not hasattr(local, "tile"):
            local.tile = [np.empty(_ROWS * _CHUNK) for _ in range(5)]
        rows = slice(r0, min(r0 + _ROWS, len(us)))
        neg_u = -us[rows]
        for s in range(0, len(gam), _CHUNK):
            sl = slice(s, min(s + _CHUNK, len(gam)))
            shape = (rows.stop - rows.start, sl.stop - sl.start)
            turns, scratch, *work = (a[:shape[0] * shape[1]].reshape(shape) for a in local.tile)
            turns, scratch = turns.view(np.uint64), scratch.view(np.uint64)
            cos, sin = rotation(phases.turns(rows, sl, turns, scratch), scratch, work)
            # (-u) delta is -(u delta) bit for bit
            damp = np.exp(np.multiply.outer(neg_u, del_[sl], out=work[0]), out=work[0])
            sums[rows] += damp @ weights[s // _CHUNK]
            cos *= w_re[sl]
            sin *= w_im[sl]
            cos -= sin
            cos *= damp
            d1[rows] += 2.0 * cos.sum(axis=1)
            tails[rows] += np.divide(damp, gam2[sl], out=sin).sum(axis=1)

    return d1, tails, sums, [partial(row_block, r0) for r0 in range(0, len(us), _ROWS)]


class Certificate:
    """The regime-2 positivity certificate of one GSH barrier.

    At a sample u with phase distance dist, term j has magnitude
    mag_j = |W| e^{-delta_j u} / gamma_j and phase budget
    b_j = 0.2 + h_j dist + xi'_j u / 2 pi, and counts as certified when it
    is in H and b_j < 0.24.  The sample is controlled when

        lower = sum_cert mag_j cos 2 pi b_j - sum_uncert mag_j
                - sum_j mag_j sigma2 / gamma_j
              = sum_cert mag_j (cos 2 pi b_j + 1) - total

    is positive (or NaN), with total = sum_j mag_j (1 + sigma2 / gamma_j).
    A certified term with xi'_j = 0 has b_j in [0.2, 0.24], where
    cos 0.4 pi - 2 pi h_j dist <= cos 2 pi b_j <= cos 0.4 pi.  So with
    M = sum mag_j and H = sum mag_j h_j over those terms, and X the other
    certified terms (the dozen or so with xi'_j != 0) at their own
    expression, lower lies in [hi - 2 pi dist H, hi],
    hi = (cos 0.4 pi + 1) M + X - total.
    """

    def __init__(self, gsh, gam, del_):
        self.t, self.sigma2 = gsh.t, gsh.sigma2
        self.h = np.asarray(gsh.h_values, dtype=float)
        self.in_h = np.asarray(gsh.in_h, dtype=bool)
        self.gam, self.del_ = gam, del_
        self.w = complex(gsh.w)
        self.abs_w = abs(self.w)
        # the terms the sums M and H cover, and the others at their expression
        xi = self._xi()
        self.lock = self.in_h & (xi == 0.0)
        self.xi_cols = np.flatnonzero(xi)
        self.xi_at_cols = xi[self.xi_cols]
        self.h_top = self.h[self.lock].max(initial=0.0)
        # a damping row times these gives total, M and H of every lock
        # term; they are M and H where the largest lock h is certified.  Kept
        # per chunk: as one 240 KB array they would be fresh mmapped pages
        # alive beside the tile arrays, about 0.4 MB of peak RSS
        inv = self.abs_w / gam
        weights = np.zeros((len(gam), 3))
        np.multiply(inv, 1.0 + gsh.sigma2 / gam, out=weights[:, 0])
        np.copyto(weights[:, 1], inv, where=self.lock)
        np.multiply(inv, self.h, out=weights[:, 2], where=self.lock)
        self.weights = [weights[s:s + _CHUNK].copy() for s in range(0, len(gam), _CHUNK)]

    def _xi(self):
        """xi'_j = gamma_j - 2t h_j, formed again where needed rather than
        kept alive through the family pool beside the tile arrays."""
        return self.gam - 2.0 * self.t * self.h

    def controlled(self, us, dist, rows, sums) -> np.ndarray:
        """Controlled flags of the samples ``rows``, given ``sums`` from
        `family_tasks` with `weights`: the interval decides where it lies
        clear of 0 by the margin, and the per-term expression elsewhere."""
        u, d = us[rows], dist[rows]
        total, m_c, h_c = sums[rows].T
        # b = fl(0.2 + fl(h dist)) grows with h, so where the largest lock h
        # is certified every lock term is; elsewhere M and H are summed over
        # the certified prefix of the lock terms in ascending h
        partial_rows = np.flatnonzero(~(0.2 + self.h_top * d < 0.24)).tolist()
        if partial_rows:
            js = np.flatnonzero(self.lock)
            js = js[np.argsort(self.h[js], kind="stable")]
            h, del_, gam = self.h[js], self.del_[js], self.gam[js]
        for k in partial_rows:
            n = np.searchsorted(0.2 + h * d[k], 0.24)
            mag = self.abs_w * np.exp(-del_[:n] * u[k]) / gam[:n]
            m_c[k], h_c[k] = mag.sum(), mag @ h[:n]
        o = self.xi_cols
        budget = 0.2 + np.multiply.outer(d, self.h[o])
        budget += np.multiply.outer(u, self.xi_at_cols) / TWO_PI
        mag = self.abs_w * np.exp(-np.multiply.outer(u, self.del_[o])) / self.gam[o]
        certified = self.in_h[o] & (budget < 0.24)
        x = np.where(certified, mag * (np.cos(TWO_PI * budget) + 1.0), 0.0).sum(axis=1)
        hi = (_COS_CAP + 1.0) * m_c + x - total
        lo = hi - TWO_PI * d * h_c
        slack = _MARGIN * (total + x + 2.0 * m_c)
        controlled = lo > slack
        for k in np.flatnonzero(~controlled & ~(hi < -slack)).tolist():
            controlled[k] = not self.lower(u[k], d[k]) <= 0.0
        return controlled

    def lower(self, u, dist) -> float:
        """The certificate's lower bound at one sample, term by term."""
        mag = self.abs_w * np.exp(-self.del_ * u) / self.gam  # |B_j|
        rho_corr = mag * (self.sigma2 / self.gam)  # 1/rho_j vs 1/(i gamma_j) drift
        # rigorous per-term phase budget: H membership (0.2) plus the drift
        # from the sample's offset and the ordinate perturbation
        budget = 0.2 + self.h * dist + self._xi() * u / TWO_PI
        certified = self.in_h & (budget < 0.24)
        lower = (mag[certified] * np.cos(TWO_PI * budget[certified])).sum()
        lower -= mag[~certified].sum() + rho_corr.sum()
        return lower

    def phase_bound_max(self, us) -> float:
        """The largest phase distance of the locked terms j in
        [u^(1/4), u^(2/5)] over the controlled samples ``us``."""
        bound = 0.0
        for u in us:
            j_lo = max(2, math.ceil(u ** 0.25))
            j_hi = min(len(self.gam), math.floor(u ** 0.4))
            if j_hi >= j_lo:
                js = np.arange(j_lo - 1, j_hi)
                bj = self.w * np.exp((-self.del_[js] + 1j * self.gam[js]) * u) / (1j * self.gam[js])
                bound = max(bound, float(nearest_int_dist(np.angle(bj) / TWO_PI).max()))
        return bound
