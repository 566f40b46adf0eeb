"""Byte identity of `find_barrier` output on a fixed population.

One sha256 covers `json.dumps(barrier_to_dict(find_barrier(D)), sort_keys=True)`
for every ordered triple with q <= 30, then a few fixed triples at q = 401,
455 (non-cyclic) and 1009.  The digest was recorded while character values
still came from a per-call dlog sum, before the integer character table;
a change to any byte of any of these barriers shows here.
"""

import hashlib
import itertools
import json
from collections import Counter

from racebarrier.barrier_search import RaceTriple, barrier_to_dict, find_barrier
from racebarrier.residue_group import check_modulus, unit_group_structure

DIGEST = "69de0ca43dc7f936b38ff4a722bed99a5f0879d69034d7903a1fbc2a881efeaa"

FIXED = (
    (401, 2, 3, 5), (401, 1, 400, 20), (1009, 2, 3, 11), (1009, 1, 1008, 374),
    (455, 2, 3, 4), (455, 1, 454, 64), (455, 2, 8, 32),
    (401, 1, 72, 372), (1009, 1, 935, 431), (1009, 1, 922, 506),
)


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
