"""The ladder input generator: seeded, deterministic and engine-free."""

import json
import subprocess
import sys

import pytest

import ladder
from cdgalab import cohomology, serialize

SMALL_RUNGS = [("H", 2), ("L", 5), ("N", 3)]


def betti(doc):
    spec, _, _, _, _ = serialize.document_from_json(json.loads(json.dumps(doc)))
    return cohomology(spec, doc["dim"]).betti


@pytest.mark.parametrize("family,size", SMALL_RUNGS)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("zeta", [1, 12])
def test_rebased_rung_keeps_the_standard_betti_table(family, size, seed, zeta):
    rebased = ladder.rung_document(family, size, seed=seed, zeta=zeta)
    assert rebased != ladder.rung_document(family, size)
    assert betti(rebased) == betti(ladder.rung_document(family, size))


@pytest.mark.parametrize("family,size", SMALL_RUNGS)
def test_same_seed_gives_byte_identical_documents(family, size):
    def text(seed):
        return json.dumps(ladder.rung_document(family, size, seed=seed, zeta=12))
    assert text(5) == text(5)
    assert text(5) != text(6)


def test_standard_rungs_have_the_known_shape():
    assert betti(ladder.rung_document("H", 2)) == [1, 4, 5, 5, 4, 1]
    doc = ladder.rung_document("N", 3)
    assert doc["dim"] == 6 and doc["algebra"]["degree_cap"] == 7


def test_generator_does_not_import_the_engine():
    code = ("import sys, ladder; ladder.rung_document('H', 3, seed=1, zeta=12); "
            "sys.exit(any(m.split('.')[0] == 'cdgalab' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ladder.__file__.rsplit("/", 1)[0])
    assert proc.returncode == 0
