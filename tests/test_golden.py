"""Byte identity of `find_barrier` output on a fixed population.

One sha256 covers `json.dumps(barrier_to_dict(find_barrier(D)), sort_keys=True)`
for every ordered triple with q <= 30, then a few fixed triples at q = 401,
455 (non-cyclic) and 1009.  The digest was recorded while character values
still came from a per-call dlog sum, before the integer character table;
a change to any byte of any of these barriers shows here.  A second digest
covers one triple at q = 99991, where a cold modulus is costly to build.

The GSH digests are three per triple, for `construction_gsh` at J = 10^4:
the record (the repr of every `GshBarrier` field, margins and parameters
included), the `gsh_simulate` output over a 10-unit window from the
recommended u0 (the bytes of u, d1, d2 and the ordering codes, the reprs of
the tail constant and the phase bound, and the controlled counts), and the
barrier file's JSON.  They began as one digest of the file and the
simulation, first recorded while the H-set search ran one window at a time
and the phase kernel called `np.cos` and `np.sin` separately, and
re-recorded when d1's phases became exact integer reductions (only d1's
bytes moved) and when the gap of H came to be proved instead of scanned
(the file lost `parameters.gap_check_limit`).  The record and simulation
digests were split out when the file came to hold only the construction's
choices, and recorded before that change; only the file digests moved.
"""

import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import pytest

from racebarrier.barrier_search import (
    BarrierParams,
    RaceTriple,
    barrier_from_dict,
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
    (7, 1, 2, 5): {
        "record": "4540730be8086f836827ee6be447ac7cfa54293bfee874622ccdc95f17fca11c",
        "simulation": "44b9166549c9fa629bc1d30c02e1ba82e784b4356d4479a4601e88ff1747986d",
        "file": "48f92bbda8c810f96b83ef76f2916f07ec1ef1f4ce0684d90d64033b73eb282d",
    },
    (5, 1, 2, 3): {
        "record": "4a85c21727f78ebb2cac3482c844740c98f1c9c52b6fe036c44cc91ab66d9caa",
        "simulation": "0dfc1ba60b659104f6ec7238566d47b182f64b1ee0436afef47c3ce78768f8fe",
        "file": "246131bbd151a15dd7a8715231c3ba90eaee636d29af8390a7f9fe3f74ff5e94",
    },
    (21, 1, 2, 10): {
        "record": "61775eb0e7baee8bb0971c833150f54a7612b0c679e67a8fcbdd6123b2b97447",
        "simulation": "387a4f950954b59c87c23bd923444042495345738d78a1d5caf7f0ec925f9300",
        "file": "66abb85e84ece34323c25d9386a431b95d0e2b9b5ce9e40b6e6733cb56f77c59",
    },
    (29, 2, 3, 5): {
        "record": "551f99c11e84d925d061ae3d65be06fc57e4f2ff6929e586b9fd587e9350d1e0",
        "simulation": "d29c6760f2856a32c0d6fef20c9d4c9a95b1ac25d68fa6888dcd9263d9c92af5",
        "file": "d207c2ad41048902c6c894fac6d89cca047a479c8f56140cd4e0c02a574e2279",
    },
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


def record_digest(gsh):
    """sha256 of the repr of every GshBarrier field, in field order."""
    fields = [(f.name, getattr(gsh, f.name)) for f in dataclasses.fields(gsh)]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("triple", sorted(GSH_DIGESTS))
def test_gsh_digest(triple):
    gsh = construction_gsh(RaceTriple(*triple), BarrierParams(truncation=10_000))
    u0 = max(1000.0, gsh.margins["recommended_u0"])
    prof = gsh_simulate(gsh, u0, u0 + 10.0, 200, max_lock_points=200)
    simulation = hashlib.sha256()
    for arr in (prof.u, prof.d1, prof.d2, prof.ordering_codes):
        simulation.update(arr.tobytes())
    simulation.update(repr((prof.tail_constant, prof.phase_bound_max)).encode())
    simulation.update(repr((prof.controlled_positive, prof.controlled_total)).encode())
    text = json.dumps(barrier_to_dict(gsh), sort_keys=True).encode()
    assert {"record": record_digest(gsh), "simulation": simulation.hexdigest(),
            "file": hashlib.sha256(text).hexdigest()} == GSH_DIGESTS[triple]


@pytest.mark.parametrize("triple", sorted(GSH_DIGESTS))
def test_gsh_barrier_round_trips(triple):
    """Every golden GSH barrier comes back from its file equal, margins and
    parameters included, with every field the loader derives."""
    gsh = construction_gsh(RaceTriple(*triple), BarrierParams(truncation=10_000))
    text = json.dumps(barrier_to_dict(gsh), sort_keys=True)
    back = barrier_from_dict(json.loads(text))
    assert record_digest(back) == record_digest(gsh)
    assert json.dumps(barrier_to_dict(back), sort_keys=True) == text
