"""Golden bytes: sha256 digests of CLI output on fixed inputs.

The digests were taken from the midpoint-subdivision ingest that preceded the
walk over each edge's cuts.  They pin the contract that ingest rewrites keep
`mapperbound ingest` output and `bound` stdout byte-identical: node numbering,
link lists and key order included.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from mapperbound.assignment import assignment_to_json
from mapperbound.cli import main
from mapperbound.cosheaf import to_json
from mapperbound.ingest import GeometricGraph, graph_to_json

from conftest import (
    fork_graph,
    hook_graph,
    hook_lam_assignment,
    hook_lam_pair,
    lam_graph,
    listing_graph,
    random_geometric,
    split_graph,
    strand_graph,
)


def _random(seed: int, d: int, n: int, denom: int, extra: int) -> GeometricGraph:
    # small denominators put many values and whole edges on grid hyperplanes
    return random_geometric(random.Random(seed), "r", n, d=d, denom=denom,
                            spread=3 * denom, extra_edges=extra)


GRAPHS = {
    "fork": fork_graph,
    "hook": hook_graph,
    "lambda": lam_graph,
    "split": split_graph,
    "strand": strand_graph,
    "listing": listing_graph,
    "random-1d": lambda: _random(101, 1, 14, 4, 4),
    "random-2d": lambda: _random(202, 2, 9, 2, 3),
    "random-3d": lambda: _random(303, 3, 6, 2, 2),
}

INGEST_SHA256 = {
    "fork":
        "477972424c135c2799a6b3026b2915d5defa2ebfb6c1c47db2cc0dde3e2b5e46",
    "hook":
        "05a71f11777d8203a5c18b5b11c1039267c88abaeaff5b500e3089d0d7285001",
    "lambda":
        "7daea2af247bfc5c60ae70ed7675a9b846b01521233aa8999a261d1dfeddb34d",
    "split":
        "a267b64195acc7140f3de6f0572a3124b1d4de6462bae4e0d88fb58cc9aa2cc9",
    "strand":
        "13507995ddb69c635ab981c1ac408db8fa5ccf0d05a290b98cf4accd7dd635f4",
    "listing":
        "df03aed49f4b52c3e0c1a09bea38e1003f534888706225ab3a56ca1e1ae94db9",
    "random-1d":
        "0830bd9404570eb850b15ff80e4da49e463cdbac9bfb84eed43056f312a24930",
    "random-2d":
        "036bc8b65f5a354f982a65486e44fa5fe6db473bc4a08bc887581c7d343df2da",
    "random-3d":
        "c7b8ddd479c32921a508c6d0d98ac721b712d90b179616eaa2eb6f8bc6c1588d",
}

BOUND_HOOK_LAMBDA_SHA256 = \
    "70cfb342cddf632ff23ac780d99dac958c7c9d3d38962af9dda3c3b45ed7357d"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_ingest_output_bytes(name, tmp_path, capsys):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(graph_to_json(GRAPHS[name]()))
    assert main(["ingest", "--input", str(src), "--delta", "1.0", "--output", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_text()) == INGEST_SHA256[name]


def test_bound_hook_lambda_stdout_bytes(tmp_path, capsys):
    bF, bG = hook_lam_pair()
    paths = [tmp_path / "F.json", tmp_path / "G.json", tmp_path / "a.json"]
    for p, text in zip(paths, (to_json(bF.graph), to_json(bG.graph),
                               assignment_to_json(hook_lam_assignment(bF, bG)))):
        p.write_text(text)
    f, g, a = map(str, paths)
    assert main(["bound", "--f", f, "--g", g, "--assignment", a]) == 0
    assert _sha(capsys.readouterr().out) == BOUND_HOOK_LAMBDA_SHA256
