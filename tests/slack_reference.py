"""The slow reference for the slack of every basis diagram.

assignment._slacks reads each diagram's slack off one _chain_radii sweep per
chain of nested centers and target graph.  This reference grows each diagram's slice one
thickening step at a time instead, on the oracle's own cell bitmasks and
component labels, and takes face images from those labels too.  It lists
every diagram, slack 0 included; the differential tests compare it with
basis_loss, loss_report, loss_at and the four check_* entry points.
"""

from __future__ import annotations

import math

from mapperbound.assignment import Assignment
from mapperbound.cosheaf import CosheafGraph
from mapperbound.oracle import TinyCaps, _labelers, _pair_checks, _pointers, check_tiny


def reference_loss(F: CosheafGraph, G: CosheafGraph, a: Assignment,
                   caps: TinyCaps = TinyCaps(max_nodes_per_side=300, max_L=8)
                   ) -> dict[tuple, float | int]:
    """The slack of every basis diagram: the least k >= 0 at which it passes,
    keyed (kind, sigma, tau, element id) with tau None for a triangle.

    Each diagram starts from the thickened star of sigma at the level it is
    checked at (n for a parallelogram, 2n for a triangle) and grows it one
    step at a time until its two chased nodes share a component; a triangle's
    slack is half that growth, rounded up.  The basis loss L_B is the largest
    value, 0 when there is none.  An invalid assignment raises AssignmentError
    with validate_assignment's messages.
    """
    check_tiny(F, G, caps)
    n = a.n
    labF, labG = _labelers(F, G)
    phi, psi = _pointers(labF, labG, a)
    out: dict[tuple, float | int] = {}
    for kind, src, ptr, lab in (("parallelogram_left", labF, phi, labG),
                                ("parallelogram_right", labG, psi, labF)):
        graph = src.graph
        for i, j, sigma in _pair_checks(src):
            out[kind, sigma, graph.cells[i], graph.ids[i]] = lab.node_distance(
                lab.star(sigma, n), ptr[i], ptr[j])
    for kind, lab, there, back in (("triangle_down", labF, phi, psi),
                                   ("triangle_up", labG, psi, phi)):
        src = lab.graph
        for i, sigma in enumerate(src.cells):
            d = lab.node_distance(lab.star(sigma, 2 * n), i, back[there[i]])
            out[kind, sigma, None, src.ids[i]] = d if math.isinf(d) else (d + 1) // 2
    return out
