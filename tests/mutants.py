"""A mutant gate: each listed mutant must be killed by the tests named for it.

A mutant is one text replacement in one source file: the old text must
occur in the file exactly once.  For each mutant the script copies the
checkout's ``src``, ``tests``, ``pyproject.toml`` and ``README.md`` to a
fresh temporary directory, applies the replacement there, and runs each
of the mutant's killer tests on its own, with ``pytest -x``.  The mutant is
killed when every one of its killers reports a failing test, so a mutant
listed with several killers checks each of them.  Before any mutant, all
the killers run once on an unchanged copy and must pass, so a killer that
fails anyway kills nothing.

The gate fails (exit status 1) when a mutant survives, when its old text
is not found exactly once, or when pytest ends for another reason than
passing or failing tests (a wrong test id, say).  A mutant listed with a
``gap`` is one that no semantic test kills yet, only a pinned report
digest.  It must still be killed, by its digest, but it is reported as a
known gap and does not fail the gate.

Run it as ``python tests/mutants.py``, from any directory.  The file name
does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")

ACCEPTANCE = "tests/test_acceptance.py::"
C01 = ACCEPTANCE + "test_c01_fast_counter_matches_brute_force_on_every_small_gluing"
PARABOLIC = "tests/test_cycles.py::test_parabolic_counts_are_sums_of_short_cusp_counts"
IHARA_BASS = "tests/test_cycles.py::test_length_sums_of_the_counter_equal_the_ihara_bass_traces"
CLASS_RULE = "tests/test_rules.py::test_every_entry_point_refuses_a_bad_class_set_alike"
DIGESTS = "tests/test_report_digests.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the checkout
    gap: str | None = None  # why no semantic test kills it yet


MUTANTS = (
    Mutant(
        "burnside_weights_one",
        "src/randsurf/cycles.py",
        "(canonical[:d], _totient(k // d))",
        "(canonical[:d], 1)",
        (C01,),
    ),
    Mutant(
        "burnside_phi_to_mu",
        "src/randsurf/cycles.py",
        "    return sum(1 for r in range(1, n + 1) if math.gcd(r, n) == 1)",
        # the Moebius function, as the sum of the primitive n-th roots of unity
        "    return round(sum(math.cos(2 * math.pi * r / n)"
        " for r in range(1, n + 1) if math.gcd(r, n) == 1))",
        (C01, PARABOLIC, IHARA_BASS),
    ),
    Mutant(
        "turn_tables_swapped",
        "src/randsurf/gluing.py",
        "    left = np.concatenate(([0], base + (sides + 1) % 3 + 1))\n"
        "    right = np.concatenate(([0], base + (sides + 2) % 3 + 1))",
        "    left = np.concatenate(([0], base + (sides + 2) % 3 + 1))\n"
        "    right = np.concatenate(([0], base + (sides + 1) % 3 + 1))",
        (
            "tests/test_gluing.py::test_next_arrays_are_cached_and_read_only",
            "tests/test_gluing.py::test_side_navigation",
            "tests/test_gluing.py::test_torus_vertex_orbit",
            "tests/test_cycles.py::test_counts_of_chiral_classes_follow_the_documented_handedness",
        ),
    ),
    Mutant(
        "burnside_remainder_unchecked",
        "src/randsurf/cycles.py",
        "if np.count_nonzero(rest):",
        "if False:",
        ("tests/test_cycles.py::test_indivisible_burnside_sum_raises",),
    ),
    Mutant(
        "seed_pool_ignores_long_seeds",
        "src/randsurf/gluing.py",
        "step = _POOL * max(_POOL, len(_uint32_words(seed)))",
        "step = _POOL * _POOL",
        ("tests/test_gluing.py::test_seed_block_rows_equal_seed_sequence_state",),
    ),
    Mutant(
        "seed_mix_constant",
        "src/randsurf/gluing.py",
        "_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715",
        "_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DC, 0x4973F715",
        ("tests/test_gluing.py::test_seed_blocks_equal_seed_sequence_state_on_every_row",),
    ),
    Mutant(
        "euler_check_without_parity",
        "src/randsurf/gluing.py",
        "if chi > 2 or chi % 2:",
        "if chi > 2:",
        ("tests/test_gluing.py::test_topology_refuses_an_odd_euler_characteristic_below_two",),
    ),
    Mutant(
        "odd_triangle_check_dropped",
        "src/randsurf/gluing.py",
        "if tri % 2:",
        "if False:",
        ("tests/test_gluing.py::test_topology_invariant_errors_raise",),
    ),
    Mutant(
        "half_count_rule_without_index",
        "src/randsurf/words.py",
        "    n = operator.index(n)\n    if n < 1:",
        "    if n < 1:",
        ("tests/test_rules.py::test_a_numpy_integer_n_gives_the_results_of_an_int",),
    ),
    Mutant(
        "class_rule_without_canonical_words",
        "src/randsurf/words.py",
        "if len({c.canonical for c in classes}) != len(classes):",
        "if len(set(classes)) != len(classes):",
        (CLASS_RULE,),
    ),
    Mutant(
        "class_rule_allows_empty",
        "src/randsurf/words.py",
        '    if not classes:\n        raise ValueError("need at least one class")\n',
        "",
        (CLASS_RULE,),
    ),
    Mutant(
        "sigma3_index_shifted",
        "src/randsurf/bounds.py",
        "a[m + mp - i - t - 1]",
        "a[m + mp - i - t]",
        (ACCEPTANCE + "test_c07_inequality_grids_hold_exactly",),
    ),
    Mutant(
        "sigma4_with_m_w",
        "src/randsurf/bounds.py",
        "Fraction(m_w**2 * (base + extra) ** 2, n * d * d)",
        "Fraction(m_w * (base + extra) ** 2, n * d * d)",
        ("tests/test_bounds.py::test_sums_per_length_equal_the_term_by_term_reference",),
    ),
    Mutant(
        "range_rule_at_the_boundary",
        "src/randsurf/bounds.py",
        "    if m_w > n:\n",
        "    if m_w >= n:\n",
        ("tests/test_bounds.py::test_one_range_rule_for_the_bounds_and_the_stats_note",),
    ),
    Mutant(
        "oracle_digits_fifty",
        "src/randsurf/exact.py",
        "DPS = 60",
        "DPS = 50",
        ("tests/test_dists.py::test_exact_mtv_is_a_decimal_at_the_requested_digits[60]",),
    ),
    Mutant(
        "tv_without_tail_mass",
        "src/randsurf/dists.py",
        "return (gap + reference.tail_mass) / 2",
        "return gap / 2",
        ("tests/test_cli.py::test_oracle_n1_golden",),
    ),
    Mutant(
        "tv_se_denominator_off_by_one",
        "src/randsurf/dists.py",
        "return math.sqrt(max(0.0, mean_sq - mean * mean) / total)",
        "return math.sqrt(max(0.0, mean_sq - mean * mean) / (total - 1))",
        ("tests/test_dists.py::test_tv_standard_error_bounds_and_hand_value",),
    ),
    Mutant(
        "exact_refined_gate_at_five",
        "src/randsurf/cli.py",
        "_EXACT_LEN_LIMIT = 6",
        "_EXACT_LEN_LIMIT = 5",
        ("tests/test_cli.py::test_exact_refined_bound_prints_only_for_short_digits",),
    ),
    Mutant(
        "number_rule_eleven_digits",
        "src/randsurf/cli.py",
        "decimal.Context(prec=12,",
        "decimal.Context(prec=11,",
        ("tests/test_cli.py::test_number_rounds_the_exact_value_not_its_double",),
    ),
    Mutant(
        "covariance_se_term",
        "src/randsurf/montecarlo.py",
        "- 2 * mx * my * my * sx",
        "- mx * my * my * sx",
        (DIGESTS,),
        gap="no test checks covariance_se against replication (ROADMAP item 15)",
    ),
    Mutant(
        "genus_se_from_cusp_variance",
        "src/randsurf/montecarlo.py",
        "genus_se=math.sqrt(genus_var / m)",
        "genus_se=math.sqrt(cusp_var / m)",
        (DIGESTS,),
        gap="no test checks genus_se against replication (ROADMAP item 15)",
    ),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _env(checkout: Path) -> dict:
    # the copy's package comes first on the path, and no bytecode is left
    # that a later copy could pick up
    path = [str(checkout / "src"), os.environ.get("PYTHONPATH")]
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def _pytest(checkout: Path, ids: list[str]) -> int:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    done = subprocess.run(
        command, cwd=checkout, env=_env(checkout), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    if done.returncode not in (0, 1):
        print(done.stdout[-4000:])
    return done.returncode


def _imports_the_copy(checkout: Path) -> bool:
    code = "import randsurf; print(randsurf.__file__)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, env=_env(checkout),
        capture_output=True, text=True, check=True,
    ).stdout
    return Path(out.strip()).resolve().is_relative_to(checkout.resolve())


def _apply(checkout: Path, mutant: Mutant) -> bool:
    path = checkout / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def run(mutants: list[Mutant]) -> int:
    killers = list(dict.fromkeys(k for m in mutants for k in m.killers))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "unchanged"
        _copy(base)
        if not _imports_the_copy(base):
            print("the copy does not import its own randsurf; is PYTHONPATH overridden?")
            return 1
        if _pytest(base, killers) != 0:
            print("the killer tests do not all pass on the unchanged sources")
            return 1
        failed = []
        for i, mutant in enumerate(mutants):
            checkout = Path(tmp) / f"m{i}"
            _copy(checkout)
            start = time.monotonic()
            if not _apply(checkout, mutant):
                verdict = "OLD TEXT NOT FOUND EXACTLY ONCE"
            else:
                verdict = "killed"
                for killer in mutant.killers:
                    code = _pytest(checkout, [killer])
                    if code != 1:
                        verdict = {0: "SURVIVED"}.get(code, f"PYTEST EXIT {code}")
                        verdict += f" under {killer}"
                        break
            if verdict == "killed" and mutant.gap:
                verdict = f"killed by a digest only, known gap: {mutant.gap}"
            elif verdict != "killed":
                failed.append(mutant.name)
            print(f"{mutant.name:36} {time.monotonic() - start:5.1f} s  {verdict}", flush=True)
            shutil.rmtree(checkout)
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed by their tests")
    if failed:
        print("not killed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(list(MUTANTS)))
