"""Tests of the benchmark itself, on scaled-down copies of its workloads.

Each copy keeps its workload's command shape (same subcommand, class
selection, topology flag and worker count) at a size that runs in well
under a second, so the digest gate and the layer accounting are checked
on the same code paths the full workloads take.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from spans import PER_LAYER, Tracer, covered

SMALL = {
    "mc_many": bench.Workload(
        "mc_many",
        ("stats", "--n", "10", "--classes", "LR,LLR", "--no-topology", "--samples", "600"),
        seeded=True,
    ),
    "mc_topology": bench.Workload(
        "mc_topology",
        ("stats", "--n", "30", "--max-trace", "4", "--workers", "2", "--samples", "520"),
        seeded=True,
    ),
    "mc_deep": bench.Workload(
        "mc_deep",
        ("stats", "--n", "30", "--max-trace", "7", "--no-topology", "--samples", "40"),
        seeded=True,
    ),
    "oracle": bench.Workload("oracle", ("oracle", "--n", "1", "--max-trace", "6"), seeded=False),
}
MC = ("mc_many", "mc_topology", "mc_deep")


@pytest.fixture(scope="module")
def cli_main():
    return bench.load_cli()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_untraced_digests(cli_main, name):
    result, record = bench.measure(cli_main, SMALL[name], 5, 0, True, pins={})
    assert result["correct"] and result["failed"] == 0
    at_seed = [r for r in record["runs"] if r["seed"] == 5]
    assert {r["traced"] for r in at_seed} == {False, True}
    assert len({r["digest"] for r in at_seed}) == 1
    assert at_seed[0]["digest"] is not None
    assert set(result["metrics"]) == set(PER_LAYER)


def test_wrong_pinned_digest_counts_as_failed(cli_main):
    wrong = {"mc_many": {"0": "0" * 64}}
    result, record = bench.measure(cli_main, SMALL["mc_many"], 0, 0, False, wrong)
    assert result["attempted"] == len(record["runs"]) >= 1 + bench.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    # an unpinned seed still checks the warm-up at the pinned default seed
    result, _ = bench.measure(cli_main, SMALL["mc_many"], 3, 0, False, wrong)
    assert result["failed"] == 1 and result["correct"] is False


def test_pinned_digest_lookup():
    pins = bench.load_pins()
    for w in bench.WORKLOADS.values():
        seeds = (bench.DEFAULT_SEED, 97) if w.seeded else (0, 1)
        digests = [bench.pinned_digest(pins, w, s) for s in seeds]
        assert all(d is not None and len(d) == 64 for d in digests)
        assert (digests[0] != digests[1]) == w.seeded


@pytest.mark.parametrize("name", MC)
def test_layer_self_times_add_up_to_run_plan(cli_main, name, tmp_path):
    workload = SMALL[name]
    tracer = Tracer()
    run = bench.run_command(cli_main, workload.argv(1), tmp_path / "r", 1, tracer)
    assert run.digest is not None
    m = run.layers
    layers = (
        "gluing.sample_s", "gluing.validate_s", "gluing.topology_s",
        "cycles.fixed_point_s", "cycles.search_s",
        "montecarlo.chunk_self_s", "montecarlo.run_plan_self_s",
    )
    chunks = [(s.start, s.end) for s in tracer.spans if s.name == "montecarlo.chunk"]
    # chunks run side by side in pool workers each count their own time
    overlap = sum(b - a for a, b in chunks) - covered(chunks, -math.inf, math.inf)
    assert sum(m[k] for k in layers) == pytest.approx(
        m["montecarlo.run_plan_s"] + overlap, rel=1e-9, abs=1e-9
    )
    samples = int(workload.args[workload.args.index("--samples") + 1])
    assert m["gluing.sample_calls"] == samples
    assert m["montecarlo.chunks"] == math.ceil(samples / 256)
    topology = "--no-topology" not in workload.args
    assert m["gluing.topology_calls"] == (samples if topology else 0)


def test_benchmark_json_matches_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert (bench.ROOT / spec["command"][1]).resolve() == Path(bench.__file__).resolve()


def test_exits_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench.HERE.name}/bench.py", "--workload", "oracle_n2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
