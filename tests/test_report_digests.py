"""Report bytes pinned by sha256.

Each case runs one small CLI invocation and compares the sha256 of its
``--out`` file with a digest recorded before the Monte Carlo tallies
and the oracle's accumulators were rebuilt on histograms.  A refactor
that is meant to leave reports unchanged must keep every digest; a
change that alters report bytes on purpose must re-record them and say
why.
"""

import hashlib

import pytest

from randsurf.cli import main

_STATS_TOPOLOGY = ["stats", "--n", "10", "--samples", "300", "--max-trace", "4", "--seed", "3"]
_TOPOLOGY_DIGEST = "eb15f9af518b9b6fcf344e2df39b8ae94a4a4aa8ccf4814437155738435fe28d"

CASES = {
    # two chunks, so the second case merges tallies from a worker pool
    "stats_topology_w1": (_STATS_TOPOLOGY, _TOPOLOGY_DIGEST),
    "stats_topology_w2": ([*_STATS_TOPOLOGY, "--workers", "2"], _TOPOLOGY_DIGEST),
    # parabolic ([L], [LL], ...) and non-primitive ([LL], [LRLR]) classes
    "stats_max_word_len": (
        ["stats", "--n", "6", "--samples", "200", "--max-word-len", "4", "--seed", "5"],
        "70bde938876ca1771781cba67ed8c27fc9e2da0638c6d8b46cc41be22a429d02",
    ),
    "stats_csv": (
        ["stats", "--n", "20", "--samples", "100", "--classes", "LR,LLR,LRLR",
         "--seed", "1", "--format", "csv"],
        "ce7afcd19b94021413cddbccf2328e27cf5e4d205019124d42629678cd89474f",
    ),
    # N = 100 and m_W = 4 keep the exact shadow of the refined bound on
    "bound_json": (
        ["bound", "--n", "100", "--max-trace", "5"],
        "e173c7c9b3d1ce3d9261e163c07bd361a976b1a28e7d46c0579815700e8ebb9e",
    ),
    "bound_csv": (
        ["bound", "--n", "100", "--max-trace", "5", "--format", "csv"],
        "4022704e69ebb1f2340039c662f65bd9f2b9d0be60e956b7b21ae43ddc68e513",
    ),
    # ten classes: 299 joint atoms and 45 pairs, summed in histogram order
    "stats_trace9": (
        ["stats", "--n", "20", "--max-trace", "9", "--samples", "300", "--no-topology",
         "--seed", "2"],
        "fa7ed1e8ced0a122951647bd65685781b89262f6e1a4aaa9a980b361c82ebf69",
    ),
    "oracle_json": (
        ["oracle", "--n", "1", "--classes", "LR,LLR,LRLR"],
        "cbd76357cfa02d6cd18ad4f9280804230abd9b79f5c92cebcd3372077486d040",
    ),
    "oracle_csv": (
        ["oracle", "--n", "1", "--classes", "LR,LLR,LRLR", "--format", "csv"],
        "46afe374c37a954982a5c26a126b3a1193cba36c6cd06ffc69e963155fa16a3e",
    ),
    # the Decimal distance over 92 atoms, at the default 60 digits
    "oracle_n3_trace6": (
        ["oracle", "--n", "3", "--max-trace", "6"],
        "07d7eb09f2d4f0a39b085980a0a8c5a7b7de244c9798fac009b8b7716f2bb358",
    ),
    "words": (
        ["words", "--max-len", "4"],
        "e4903b0f8cc6fd0610bdb10aaa083b52f37ee826fe17f7d4d4409e3f2cb401c7",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, tmp_path):
    args, digest = CASES[name]
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
