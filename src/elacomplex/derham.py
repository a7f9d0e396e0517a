"""Cubical de Rham incidence complexes over voxel sets.

A complex is generated from a set of unit cells (i, j, k) on the integer
grid: vertices, edges, square faces and the cells themselves, with the
usual cochain differentials d0 (gradient), d1 (curl), d2 (divergence) as
signed incidence matrices.  These serve as small, topology-rich fixtures:
their cohomology is known from the voxel geometry and independently
computable by exact integer rank-nullity, which is the oracle the float
toolbox is tested against.

Cell sets for the shipped fixtures: a solid box (Betti 1, 0, 0) and a one
-hole slab ("torus", Betti 1, 1, 0).
"""

import numpy as np

from . import exactlin
from .fa_toolbox import FiniteComplex

_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cell_vertices(c):
    i, j, k = c
    return [
        (i + a, j + b, k + d) for a in (0, 1) for b in (0, 1) for d in (0, 1)
    ]


def _cell_edges(c):
    i, j, k = c
    out = []
    for axis in range(3):
        for a in (0, 1):
            for b in (0, 1):
                base = [i, j, k]
                others = [ax for ax in range(3) if ax != axis]
                base[others[0]] += a
                base[others[1]] += b
                out.append((tuple(base), axis))
    return out


def _cell_faces(c):
    i, j, k = c
    out = []
    for normal in range(3):
        for side in (0, 1):
            base = [i, j, k]
            base[normal] += side
            out.append((tuple(base), normal))
    return out


def build_cubical(cells):
    """Signed incidence matrices (d0, d1, d2) and entity lists for a voxel set.

    Orientation conventions: edges point along the positive axes; a face
    with normal axis n is oriented by the ordered pair of the remaining
    axes (cyclic: x->(y,z), y->(z,x), z->(x,y)); cells take outward-normal
    signs.  These make d1 d0 = 0 and d2 d1 = 0 exactly, which the
    constructor asserts on the integer matrices.
    """
    cells = sorted(set(tuple(c) for c in cells))
    if not cells:
        raise ValueError("empty cell set")
    verts = sorted({v for c in cells for v in _cell_vertices(c)})
    edges = sorted({e for c in cells for e in _cell_edges(c)})
    faces = sorted({f for c in cells for f in _cell_faces(c)})
    vi = {v: n for n, v in enumerate(verts)}
    ei = {e: n for n, e in enumerate(edges)}
    fi = {f: n for n, f in enumerate(faces)}

    d0 = np.zeros((len(edges), len(verts)), dtype=np.int64)
    for (base, axis), row in ei.items():
        head = tuple(b + d for b, d in zip(base, _AXES[axis]))
        d0[row, vi[base]] = -1
        d0[row, vi[head]] = 1

    # face with normal n spans ordered axes (a, b) = cyclic successors of n
    d1 = np.zeros((len(faces), len(edges)), dtype=np.int64)
    for (base, normal), row in fi.items():
        a, b = (normal + 1) % 3, (normal + 2) % 3
        sa = tuple(base[t] + _AXES[a][t] for t in range(3))
        sb = tuple(base[t] + _AXES[b][t] for t in range(3))
        d1[row, ei[(base, a)]] += 1
        d1[row, ei[(sa, b)]] += 1
        d1[row, ei[(sb, a)]] -= 1
        d1[row, ei[(base, b)]] -= 1

    d2 = np.zeros((len(cells), len(faces)), dtype=np.int64)
    for row, c in enumerate(cells):
        for normal in range(3):
            lower = tuple(c)
            upper = tuple(c[t] + _AXES[normal][t] for t in range(3))
            d2[row, fi[(upper, normal)]] += 1
            d2[row, fi[(lower, normal)]] -= 1

    assert not np.any(d1 @ d0), "d1 d0 != 0"
    assert not np.any(d2 @ d1), "d2 d1 != 0"
    return (d0, d1, d2), (verts, edges, faces, cells)


def incidence_betti(cells):
    """Betti numbers (b0, b1, b2, b3) by exact integer rank-nullity.

    Independent of the float toolbox: each rank is the size of the kept
    set of a certified modular row selection on an integer incidence matrix.
    """
    (d0, d1, d2), (verts, edges, faces, cs) = build_cubical(cells)
    r0, r1, r2 = (len(exactlin.select_rows(d)[0]) for d in (d0, d1, d2))
    b0 = len(verts) - r0
    b1 = (len(edges) - r1) - r0
    b2 = (len(faces) - r2) - r1
    b3 = len(cs) - r2
    return (b0, b1, b2, b3)


def cubical_complex(cells):
    """FiniteComplex over the voxel set, with identity Grams."""
    (d0, d1, d2), (verts, edges, faces, cs) = build_cubical(cells)
    grams = [np.eye(len(x)) for x in (verts, edges, faces, cs)]
    return FiniteComplex(grams, [d.astype(np.float64) for d in (d0, d1, d2)])


def solid_box_cells(nx=2, ny=2, nz=2):
    return [
        (i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)
    ]


def torus_cells():
    """3 x 3 x 1 slab with the middle cell removed: one through-hole."""
    return [
        (i, j, 0) for i in range(3) for j in range(3) if (i, j) != (1, 1)
    ]


def path_graph_gradient(n):
    """Gradient incidence matrix of the n-node path graph (edges x nodes)."""
    d = np.zeros((n - 1, n), dtype=np.float64)
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d


FIXTURE_BUILDERS = {
    "solid_box": solid_box_cells,
    "torus": torus_cells,
}

