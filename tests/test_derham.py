import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from elacomplex import derham, fa_toolbox as fa


def test_differentials_compose_to_zero():
    (d0, d1, d2), _ = derham.build_cubical(derham.solid_box_cells(3, 2, 2))
    assert not np.any(d1 @ d0)
    assert not np.any(d2 @ d1)


_BROKEN_ORIENTATION = """
import sys
from elacomplex import derham, fa_toolbox as fa

if __debug__:
    sys.exit("not optimized")
real = derham._incidence


def flipped(cells):
    (d0, d1, d2), entities = real(cells)
    d0 = d0.copy()
    d0[0] *= -1  # one edge against its axis: d1 d0 != 0
    return (d0, d1, d2), entities


derham._incidence = flipped
try:
    derham.build_cubical(derham.solid_box_cells())
except fa.NotAComplex as exc:
    print(exc)
"""


def test_composition_check_survives_python_O():
    # python -O strips assert statements; the check must still raise
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ORIENTATION],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "d1 d0 != 0"


def test_solid_box_betti_oracle():
    assert derham.incidence_betti(derham.solid_box_cells()) == (1, 0, 0, 0)
    assert derham.incidence_betti(derham.solid_box_cells(3, 3, 3)) == (1, 0, 0, 0)
    assert derham.incidence_betti([(0, 0, 0)]) == (1, 0, 0, 0)


def test_torus_betti_oracle():
    assert derham.incidence_betti(derham.torus_cells()) == (1, 1, 0, 0)


def test_float_cohomology_matches_incidence_oracle():
    for cells in (derham.solid_box_cells(), derham.torus_cells()):
        betti = derham.incidence_betti(cells)
        cx = derham.cubical_complex(cells)
        dims = [fa.cohomology(cx, n).dimension for n in range(4)]
        assert tuple(dims) == betti


def test_path_graph_gradient():
    d = derham.path_graph_gradient(4)
    assert d.shape == (3, 4)
    assert not np.any(d @ np.ones(4))
