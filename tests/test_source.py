"""Static checks on the package source."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "randsurf"


def test_no_assert_statements_in_the_package():
    # invariants must raise real errors; assert vanishes under python -O
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_readme_library_map_names_real_attributes():
    # every identifier a bullet names must exist in that bullet's module
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library map", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- ", section, flags=re.MULTILINE)[1:]
    assert len(bullets) >= 9, bullets
    missing = []
    for bullet in bullets:
        module_name, *names = re.findall(r"`([^`]+)`", bullet)
        module = importlib.import_module(module_name)
        for name in names:
            if module_name == "randsurf.cli" and name == "randsurf":
                continue  # the console script, not an attribute
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert not missing, f"README library map names missing attributes: {missing}"


def _fresh_run(code: str) -> str:
    path = [str(SOURCE.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the sampler imports numpy.random on first use; every command that
    # samples nothing (oracle, bound, words) runs without it
    code = (
        "import os, sys, randsurf.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "randsurf.cli.main(['oracle', '--n', '1', '--classes', 'LR', '--out', os.devnull])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_run(code).split() == ["False", "False"]


# A stand-in for multiprocessing.Pool that runs starmap in-process and
# starts no process; on start it prints whether the parent holds numpy.random.
_RECORDING_POOL = (
    "class RecordingPool:\n"
    "    def __init__(self, processes):\n"
    "        print('numpy.random' in sys.modules)\n"
    "    def __enter__(self):\n"
    "        return self\n"
    "    def __exit__(self, *exc):\n"
    "        return False\n"
    "    def starmap(self, fn, args, chunksize=1):\n"
    "        return [fn(*a) for a in args]\n"
)


def test_pool_parent_loads_numpy_random_before_the_workers_fork():
    # forked workers inherit the sampler's import instead of each paying it
    # on its first sample; the stand-in pool records what the parent holds
    code = (
        "import sys\n"
        "from randsurf import montecarlo\n"
        "from randsurf.words import canonicalize\n"
        + _RECORDING_POOL
        + "import multiprocessing\n"
        "multiprocessing.Pool = RecordingPool\n"
        "print('numpy.random' in sys.modules)\n"
        "plan = montecarlo.ExperimentPlan(\n"
        "    half_count=2, classes=(canonicalize('LR'),), samples=montecarlo.CHUNK + 1,\n"
        "    seed=1, workers=2,\n"
        ")\n"
        "montecarlo.run_plan(plan)\n"
    )
    assert _fresh_run(code).split() == ["False", "True"]


def test_pool_oracle_and_csv_modules_load_only_in_the_runs_that_use_them():
    # importing the CLI loads none of multiprocessing, randsurf.exact and csv;
    # a pooled stats run, an oracle run and a CSV report each load their own.
    # The real multiprocessing gets the stand-in Pool as it loads, so the
    # pooled run starts no process.
    code = (
        "import importlib.machinery, os, sys\n"
        + _RECORDING_POOL
        + "class StandInOnLoad:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name != 'multiprocessing':\n"
        "            return None\n"
        "        spec = importlib.machinery.PathFinder.find_spec(name, path)\n"
        "        load = spec.loader.exec_module\n"
        "        def exec_module(module):\n"
        "            load(module)\n"
        "            module.Pool = RecordingPool\n"
        "        spec.loader.exec_module = exec_module\n"
        "        return spec\n"
        "sys.meta_path.insert(0, StandInOnLoad())\n"
        "import randsurf.cli\n"
        "def loaded():\n"
        "    print(*(m in sys.modules for m in ('multiprocessing', 'randsurf.exact', 'csv')))\n"
        "def run(*argv):\n"
        "    randsurf.cli.main([*argv, '--classes', 'LR', '--out', os.devnull])\n"
        "    loaded()\n"
        "loaded()\n"
        "if 'multiprocessing' in sys.modules:\n"
        "    sys.exit('multiprocessing was loaded before any run')\n"
        "run('stats', '--n', '2', '--samples', '300', '--workers', '2')\n"
        "run('oracle', '--n', '1')\n"
        "run('stats', '--n', '2', '--samples', '3', '--format', 'csv')\n"
    )
    assert _fresh_run(code).splitlines() == [
        "False False False",
        "True",  # the stand-in pool starts, with numpy.random in the parent
        "True False False",
        "True True False",
        "True True True",
    ]


# each result record: a NamedTuple, with its fields in this order
RECORDS = {
    "randsurf.gluing.TopologyReport": (
        "connected", "component_count", "cusp_count", "euler_characteristic",
        "total_genus", "cusp_degrees",
    ),
    "randsurf.cycles.SpectrumReport": (
        "half_count", "max_length", "counts", "shortest_geodesic_length",
    ),
    "randsurf.bounds.SigmaSet": ("s1", "s2", "s3", "s4"),
    "randsurf.bounds.BoundReport": (
        "half_count", "classes", "card", "m_w", "c_w", "sigma", "refined", "main",
        "exact_refined", "exact_main",
    ),
    "randsurf.exact.ExactSystem": (
        "half_count", "gluing_count", "classes", "joint_law", "exact_means", "exact_mtv",
    ),
    "randsurf.montecarlo.ClassSummary": (
        "word_class", "mean", "mean_se", "variance", "tv_vs_poisson", "tv_se", "max_count",
    ),
    "randsurf.montecarlo.PairSummary": ("left", "right", "covariance", "covariance_se"),
    "randsurf.montecarlo.TopologySummary": (
        "connected_fraction", "connected_se", "mean_components", "mean_genus",
        "genus_se", "mean_cusps", "cusps_se",
    ),
    "randsurf.montecarlo.StatsReport": (
        "plan", "per_class", "pairs", "joint_mtv", "joint_mtv_se", "joint_support_size",
        "bounds", "bounds_note", "topology",
    ),
}


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_result_records_keep_their_fields_and_refuse_assignment(path):
    module, name = path.rsplit(".", 1)
    record = getattr(importlib.import_module(module), name)
    fields = RECORDS[path]
    assert record._fields == fields
    value = record._make(range(len(fields)))
    for attr in (fields[0], fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)


def test_commands_run_without_mpmath():
    # the exact distance is computed with the decimal module; mpmath is a
    # test-only reference
    code = (
        "import os, sys, randsurf.cli\n"
        "print('mpmath' in sys.modules)\n"
        "randsurf.cli.main(['oracle', '--n', '1', '--classes', 'LR', '--out', os.devnull])\n"
        "print('mpmath' in sys.modules)\n"
        "randsurf.cli.main(\n"
        "    ['stats', '--n', '2', '--samples', '3', '--classes', 'LR', '--out', os.devnull]\n"
        ")\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert _fresh_run(code).split() == ["False", "False", "False"]


def test_numpy_is_the_only_third_party_import_and_dependency():
    imported = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"randsurf"}
    assert third_party == {"numpy"}
    # no tomllib before Python 3.11: read the [project] dependencies list by hand
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    requirements = re.findall(r'"([^"]+)"', listed[1])
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}
    assert names == third_party


def test_no_seed_sequence_is_built_in_the_package():
    # the sampler hashes whole blocks of spawn keys; the per-sample
    # SeedSequence and default_rng path lives only in the tests
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("SeedSequence", "default_rng")
    ]
    assert not calls, f"seed sequences built in the package: {calls}"


def test_side_budget_is_read_only_by_block_rows():
    # block_rows is the one rule for a block's size; the sampler, the Monte
    # Carlo and the exact oracle all take their rows from it
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                imported = isinstance(node, ast.alias) and node.name == "SIDE_BUDGET"
                loaded = (
                    isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and getattr(node, "id", getattr(node, "attr", None)) == "SIDE_BUDGET"
                )
                if imported or loaded:
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("gluing.py", "block_rows")}
