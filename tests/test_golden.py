"""Golden bytes: sha256 digests of CLI output on fixed inputs.

The ingest digests were taken from the midpoint-subdivision ingest that
preceded the walk over each edge's cuts, and the `bound` and `check` digests of
random pairs from the bisection over the slack that preceded the ring sweep.
They pin the contract that rewrites keep `mapperbound ingest` output and
`bound` and `check` stdout byte-identical: node numbering, link lists, witness
order and key order included.  The `oracle --mode full-loss` digests were
taken before the full loss memoised its thickening steps and gathered its
parallelogram pairs per larger open.  The demo digests were taken from the
breadth-first slice labelling that preceded the union-find one, and the
`oracle --mode pi0` digests from the per-cell interval arithmetic that preceded
the walk over each edge's cuts.  The `bound` and `check` digests of
pair-1d-a, pair-1d-b, pair-2d-a, pair-2d-b and pair-3d-b were re-taken when
GeometricGraph began to sort its edges on construction: they are the parent
code's output for the same graphs built after a graph_to_json round trip.
"""

from __future__ import annotations

import hashlib
import random
import runpy
from pathlib import Path

import pytest

from mapperbound.assignment import assignment_to_json
from mapperbound.cli import main
from mapperbound.cosheaf import from_json, to_json
from mapperbound.ingest import GeometricGraph, build, fit_grid, graph_to_json

from conftest import (
    fork_graph,
    hook_graph,
    hook_lam_assignment,
    hook_lam_pair,
    feasible_level,
    lam_graph,
    listing_graph,
    random_assignment,
    random_geometric,
    split_graph,
    split_pair,
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


# (seed, d, vertices, denominator, spread) of random pairs with chords; each
# pair gets a random assignment at its least feasible level
PAIRS = {
    "pair-1d-a": (1000, 1, 9, 4, 12),
    "pair-1d-b": (1005, 1, 9, 4, 12),
    "pair-2d-a": (2000, 2, 6, 2, 6),
    "pair-2d-b": (2000, 2, 5, 2, 2),
    "pair-3d-a": (3004, 3, 3, 2, 2),
    "pair-3d-b": (3004, 3, 4, 1, 2),
}

# sha256 of stdout of `bound`, `check --k 0` and `check --k 1`, with exit codes
PAIR_SHA256 = {
    "pair-1d-a": [
        (0, "dad56c8fce3eda59587ff8d03d99fc995f9f9c252b811ba927643ff9cd7bc3ad"),
        (1, "10317f3cdea33ef7514d19c970726e59a7ecad6f379f3d824ffaafe11180b0f3"),
        (1, "4fc80907c51220387e01bba6875ea3aee0594facab4ce132824189639878873d"),
    ],
    "pair-1d-b": [
        (0, "5018ec797d3d977e181ecbb41dc03b070558550faa1356b8872772e799708693"),
        (1, "f9155b4c5bea0c34ac148673f047df6e30cd7ef238969858c874a0cb60081218"),
        (0, "ac56c36d36cdcf5734ce5c929f144a4fddc8452ef12dc3e4379ae787dc46d026"),
    ],
    "pair-2d-a": [
        (0, "46d222fb6971ee680d606923d200ddb36f26aca0588454904b110940c9237a4f"),
        (1, "6edc4a1398153354c40da2480b6d7708d3a6b9307dd008535f381865efff4d8d"),
        (1, "f04e0a61432c6584c0abdca124c713bd117cdaa7bc6372d5fc450b2f8f3ca81e"),
    ],
    "pair-2d-b": [
        (0, "8a7fc56e56ba7448a95eeec4857db5aeac1ede91a734c695dec6fd974ab5dd9a"),
        (1, "4f3a844280277b5e6bb63a519a998325bf2b071487e22cc1ae6827ad95fa655f"),
        (1, "3658f26d8e68d0725a571391b96835ff68d49b39b8a987e63ba9136a5a1f17dd"),
    ],
    "pair-3d-a": [
        (0, "d6d7863feeebab4ca9701e296f4b96ec8aa4a7a01c878989e85bccf6bb884a8b"),
        (1, "5e117096e67e60e556d7e5f503ad818d6faca8df5524f297333c331c7e161162"),
        (0, "ac56c36d36cdcf5734ce5c929f144a4fddc8452ef12dc3e4379ae787dc46d026"),
    ],
    "pair-3d-b": [
        (0, "e4c230d0e397d6d3d91e5859ae9faa63b318f63cc46667b41837b052e992f28b"),
        (1, "dc9a0882556e1665a1737d1feec2153d99883d17af36daf3c483e0f6523fbeec"),
        (1, "c53f7aa8ed24c02c4c2b0e8b4db0ea7ca4943cbf63cd96978ce2933e081c839b"),
    ],
    "split": [
        (3, "2d675d7a4d700ba0a75cd642ba927f72006c53c35576ff77e444b703d1f9554b"),
        (1, "ae869e010272084b3ffab78880c9e9d35825bb1a1111f0a27a4c8928a9977866"),
        (1, "d3af0a5df143a5850d69b5d60078d2eabe56c90e78c2fe5714bfa6036204c577"),
    ],
}


# a pair on the 1-D grid at L = 2, small enough for the full-loss oracle
TINY_PAIRS = {
    "tiny-1d": (4012, 1, 4, 10, 17),
}


def _geometric_pair(name: str) -> tuple[random.Random, GeometricGraph, GeometricGraph]:
    seed, d, nv, denom, spread = {**PAIRS, **TINY_PAIRS}[name]
    rng = random.Random(seed)
    X, Y = (random_geometric(rng, tag, nv, d=d, denom=denom, spread=spread,
                             extra_edges=2) for tag in "xy")
    return rng, X, Y


def _pair_texts(name: str) -> tuple[str, str, str]:
    if name == "split":
        bF, bG = split_pair()
        F, G = bF.graph, bG.graph
        a = random_assignment(F, G, 1, random.Random(3))
        return to_json(F), to_json(G), assignment_to_json(a)
    rng, X, Y = _geometric_pair(name)
    grid = fit_grid([X, Y], 1.0)
    texts = [to_json(build(g, grid).graph) for g in (X, Y)]
    F, G = map(from_json, texts)
    a = random_assignment(F, G, feasible_level(F, G), rng)
    return texts[0], texts[1], assignment_to_json(a)


@pytest.mark.parametrize("name", sorted(PAIRS) + ["split"])
def test_bound_and_check_stdout_bytes(name, tmp_path, capsys):
    paths = [tmp_path / "F.json", tmp_path / "G.json", tmp_path / "a.json"]
    for p, text in zip(paths, _pair_texts(name)):
        p.write_text(text)
    common = ["--f", str(paths[0]), "--g", str(paths[1]), "--assignment", str(paths[2])]
    got = []
    for argv in (["bound", *common], ["check", *common, "--k", "0"],
                 ["check", *common, "--k", "1"]):
        rc = main(argv)
        got.append((rc, _sha(capsys.readouterr().out)))
    assert got == PAIR_SHA256[name]


# sha256 of `oracle --mode full-loss` stdout on a pair and its assignment
FULL_LOSS_SHA256 = {
    "tiny-1d":
        "d605910b4a93be231df0eb580edfaa71391e23275cb7b0c98bc62dd5e7c281de",
    "split":
        "fd9a4a14cfbd154b65ccec8a1e1bf2c3ba506fbadfe25968ad234b35fbefa72e",
}


@pytest.mark.parametrize("name", sorted(FULL_LOSS_SHA256))
def test_oracle_full_loss_stdout_bytes(name, tmp_path, capsys):
    paths = [tmp_path / "F.json", tmp_path / "G.json", tmp_path / "a.json"]
    for p, text in zip(paths, _pair_texts(name)):
        p.write_text(text)
    assert main(["oracle", "--mode", "full-loss", "--f", str(paths[0]), "--g", str(paths[1]),
                 "--assignment", str(paths[2]), "--cap", "24"]) == 0
    assert _sha(capsys.readouterr().out) == FULL_LOSS_SHA256[name]


# sha256 of `oracle --mode pi0` stdout on the geometric graphs of a pair, by grid step
PI0_SHA256 = {
    ("pair-1d-a", 0.5):
        "f7f4e81a3efe4dc7cb6dba1344dabfa3cc371b3e007f84220a09912b5af007f5",
    ("pair-2d-a", 1.0):
        "6b5134701cf142bccc3c82f6f652afff7f9e239b9cc592fca032478187bbb56c",
}


@pytest.mark.parametrize("name,delta", sorted(PI0_SHA256))
def test_oracle_pi0_stdout_bytes(name, delta, tmp_path, capsys):
    _, X, Y = _geometric_pair(name)
    f, g = tmp_path / "X.json", tmp_path / "Y.json"
    f.write_text(graph_to_json(X))
    g.write_text(graph_to_json(Y))
    assert main(["oracle", "--mode", "pi0", "--f", str(f), "--g", str(g),
                 "--delta", str(delta)]) == 0
    assert _sha(capsys.readouterr().out) == PI0_SHA256[name, delta]


# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_grid_and_thickening.py":
        "f8d2aa49afd38de47f00ced39215b073e4fdbf93679be9ba4b7388074722ecba",
    "02_slices_and_distances.py":
        "faa160d9efc49c09e8129a1bbf1539ff6d0cdf0508ee73cee355eab5741dc3c1",
    "03_certified_bound.py":
        "2c3ac307ec6324f0140296c07630dbc75845da137200c653fda27be18b3986f9",
    "04_independent_verification.py":
        "3a6b79d1e9f392acce1c5687a70bcc6ac6306e713c4c06fed5a81e3b34f78453",
}

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_bytes(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert _sha(capsys.readouterr().out) == DEMO_SHA256[name]


def test_readme_quickstart_prints_what_it_says(capsys):
    readme = (DEMOS.parent / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out == "0 1.0\n"
