"""Byte identity of `find_barrier` output on a fixed population.

One sha256 covers `json.dumps(barrier_to_dict(find_barrier(D)), sort_keys=True)`
for every ordered triple with q <= 30, then a few fixed triples at q = 401,
455 (non-cyclic) and 1009.  The digest was recorded while character values
still came from a per-call dlog sum, before the integer character table;
a change to any byte of any of these barriers shows here.  A second digest
covers one triple at q = 99991, where a cold modulus is costly to build.

The GSH digests cover, per triple, the barrier JSON of `construction_gsh` at
J = 10^4 and the `gsh_simulate` output over a 10-unit window from the
recommended u0: the bytes of u, d1, d2 and the ordering codes, the reprs of
the tail constant and the phase bound, and the controlled counts.  They were
recorded while the H-set search ran one window at a time and the phase
kernel called `np.cos` and `np.sin` separately.
"""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from racebarrier.barrier_search import (
    BarrierParams,
    RaceTriple,
    barrier_to_dict,
    construction_gsh,
    find_barrier,
)
from racebarrier.race_simulator import gsh_simulate
from racebarrier.residue_group import check_modulus, unit_group_structure

DIGEST = "69de0ca43dc7f936b38ff4a722bed99a5f0879d69034d7903a1fbc2a881efeaa"

FIXED = (
    (401, 2, 3, 5), (401, 1, 400, 20), (1009, 2, 3, 11), (1009, 1, 1008, 374),
    (455, 2, 3, 4), (455, 1, 454, 64), (455, 2, 8, 32),
    (401, 1, 72, 372), (1009, 1, 935, 431), (1009, 1, 922, 506),
)

# recorded with the dlog table built by a pow loop per unit and every
# character of the group built eagerly
LARGE_TRIPLE = (99991, 2, 3, 5)
LARGE_DIGEST = "143bcf5a570e85f3b234c822642a1e4b00dce41c9a8d4d2f9a264c6fcaeabeb9"

# 7 1 2 5 drifts fast; 5 1 2 3 and 21 1 2 10 have alpha 2e-4 from an integer
GSH_DIGESTS = {
    (7, 1, 2, 5): "dc48f1d8c0ff614cf18e0ddf0bb6d1ee3b91f69fcc66c83db7de74de6bd9d2a8",
    (5, 1, 2, 3): "9d6beffa6fb1c1ca6e8e175f2c0de169663750e965cc30651875f148265f1980",
    (21, 1, 2, 10): "b6036f3970701834f6987e288d7b866942ad03ff44f691265206b4f6534a7993",
    (29, 2, 3, 5): "0724468e34342f5107657463994a7f6bf56832407d85e6a6c84f727eb8ce2db3",
}


def population():
    for q in range(5, 31):
        try:
            check_modulus(q)
        except ValueError:
            continue
        for triple in itertools.permutations(unit_group_structure(q).units, 3):
            yield (q, *triple)
    yield from FIXED


def test_barrier_json_digest():
    digest = hashlib.sha256()
    constructions = Counter()
    families = Counter()
    for t in population():
        data = barrier_to_dict(find_barrier(RaceTriple(*t)))
        constructions[data["construction"]] += 1
        if t in FIXED:
            families[data["parameters"]["family"]] += 1
        digest.update(json.dumps(data, sort_keys=True).encode())
        digest.update(b"\n")
    assert constructions == {"I": 56_664 + len(FIXED), "II": 960, "III": 240}
    assert families == {"primitive-root": 4, "singleton": 3, "power": 2, "conjugate-pair": 1}
    assert digest.hexdigest() == DIGEST


def test_barrier_json_digest_at_a_large_modulus():
    data = barrier_to_dict(find_barrier(RaceTriple(*LARGE_TRIPLE)))
    text = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == LARGE_DIGEST


@pytest.mark.parametrize("triple", sorted(GSH_DIGESTS))
def test_gsh_digest(triple):
    digest = hashlib.sha256()
    gsh = construction_gsh(RaceTriple(*triple), BarrierParams(truncation=10_000))
    digest.update(json.dumps(barrier_to_dict(gsh), sort_keys=True).encode())
    u0 = max(1000.0, gsh.margins["recommended_u0"])
    prof = gsh_simulate(gsh, u0, u0 + 10.0, 200, max_lock_points=200)
    for arr in (prof.u, prof.d1, prof.d2, prof.ordering_codes):
        digest.update(arr.tobytes())
    digest.update(repr((prof.tail_constant, prof.phase_bound_max)).encode())
    digest.update(repr((prof.controlled_positive, prof.controlled_total)).encode())
    assert digest.hexdigest() == GSH_DIGESTS[triple]
