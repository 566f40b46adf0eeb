"""The GSH family's first main term and its regime-2 positivity certificate.

`family_tasks` sums the truncated family at every sample in tiles on a
thread pool.  From each tile's damping factors e^(-delta_j u) it also forms
three weighted sums per sample, and `Certificate.controlled` turns them into
an interval around the certificate's lower bound.  Only a sample that the
interval cannot decide runs the certificate's per-term expression, so every
decision is the one that expression makes.  Only `gsh_simulate` imports this
module, so no finite-barrier caller compiles it.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial

import numpy as np

from .gsh_phases import rotation

TWO_PI_ = 2.0 * math.pi

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


def nearest_int_dist(x):
    return np.abs(x - np.round(x))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_pooled(tasks) -> None:
    """Run the callables on one thread per CPU (at most one per task), in
    submission order, and re-raise the first failure after all have ended."""
    if not tasks:
        return
    # imported here: concurrent.futures pulls in logging, about 5 ms of
    # start-up that no finite-barrier caller needs
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
        budget += np.multiply.outer(u, self.xi_at_cols) / TWO_PI_
        mag = self.abs_w * np.exp(-np.multiply.outer(u, self.del_[o])) / self.gam[o]
        certified = self.in_h[o] & (budget < 0.24)
        x = np.where(certified, mag * (np.cos(TWO_PI_ * budget) + 1.0), 0.0).sum(axis=1)
        hi = (_COS_CAP + 1.0) * m_c + x - total
        lo = hi - TWO_PI_ * d * h_c
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
        budget = 0.2 + self.h * dist + self._xi() * u / TWO_PI_
        certified = self.in_h & (budget < 0.24)
        lower = (mag[certified] * np.cos(TWO_PI_ * budget[certified])).sum()
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
                bound = max(bound, float(nearest_int_dist(np.angle(bj) / TWO_PI_).max()))
        return bound
