import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from randsurf import cli
from randsurf.bounds import _class_sigmas, refined_mtv_bound, theorem_bound_value
from randsurf.cli import _number, main
from randsurf.lognum import LogNumber
from randsurf.words import enumerate_classes_by_trace


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / f"{name}"
    code = main([*args, "--out", str(path)])
    assert code == 0
    return path.read_text()


def test_words_census_max_len(tmp_path):
    payload = json.loads(run_cli(["words", "--max-len", "2"], tmp_path))
    assert payload["schema_version"] == 1
    assert payload["count"] == 3
    assert [r["word"] for r in payload["classes"]] == ["L", "LL", "LR"]
    lr = payload["classes"][2]
    assert lr["lambda_exact"] == "1/2"
    assert lr["trace"] == 3
    assert not lr["parabolic"]
    assert lr["geodesic_length"].startswith("1.9248473")


def test_words_census_max_trace(tmp_path):
    payload = json.loads(run_cli(["words", "--max-trace", "4"], tmp_path))
    assert [r["word"] for r in payload["classes"]] == ["LR", "LLR"]


def test_words_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["words", "--max-len", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["words", "--max-len", "2", "--max-trace", "4"])
    assert exc.value.code == 2


def test_words_csv(tmp_path):
    text = run_cli(["words", "--max-trace", "4", "--format", "csv"], tmp_path)
    lines = text.strip().split("\n")
    assert lines[0].startswith("word,word_length,class_size,trace")
    assert len(lines) == 3


def test_stats_json_payload(tmp_path):
    payload = json.loads(
        run_cli(
            ["stats", "--n", "6", "--samples", "400", "--seed", "1",
             "--classes", "LR,LLR"],
            tmp_path,
        )
    )
    assert payload["config"] == {
        "n": 6,
        "samples": 400,
        "seed": 1,
        "classes": ["LR", "LLR"],
        "with_topology": True,
    }
    per_class = payload["per_class"]
    assert [r["word"] for r in per_class] == ["LR", "LLR"]
    for r in per_class:
        # decimal and exact renderings describe the same number
        assert float(Fraction(r["mean_exact"])) == pytest.approx(float(r["mean"]))
    assert len(payload["pairs"]) == 1
    assert payload["bounds"]["refined_le_main"] is True
    assert payload["bounds_note"] is None
    assert payload["topology"] is not None
    mtv = float(payload["joint"]["mtv_vs_product_poisson"])
    assert 0 <= mtv <= 1


def test_stats_reports_bound_gap_when_words_outgrow_n(tmp_path):
    payload = json.loads(
        run_cli(
            ["stats", "--n", "2", "--samples", "50", "--classes", "LR,LLR"],
            tmp_path,
        )
    )
    assert payload["bounds"] is None
    assert "m_W" in payload["bounds_note"]


def test_stats_replays_are_identical(tmp_path):
    args = ["stats", "--n", "5", "--samples", "300", "--seed", "9",
            "--classes", "LR", "--no-topology"]
    first = run_cli(args, tmp_path, "a")
    second = run_cli(args, tmp_path, "b")
    assert first == second


def test_stats_worker_count_never_changes_bytes(tmp_path):
    outs = []
    for w in ("1", "3"):
        outs.append(
            run_cli(
                ["stats", "--n", "4", "--samples", "520", "--seed", "12",
                 "--classes", "LR,LLR", "--workers", w],
                tmp_path,
                f"w{w}",
            )
        )
    assert outs[0] == outs[1]


def test_stats_rejects_duplicate_and_malformed_classes():
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--n", "2", "--samples", "10", "--classes", "LR,RL"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--n", "2", "--samples", "10", "--classes", "LX"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [["stats", "--n", "2", "--samples", "10"], ["bound", "--n", "2"], ["oracle", "--n", "1"]],
    ids=lambda command: command[0],
)
def test_empty_classes_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--classes="])
    assert exc.value.code == 2
    assert "--classes needs at least one word" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["words", "--max-trace", "2"],
        ["stats", "--n", "2", "--samples", "10", "--classes", "LX"],
        ["bound", "--n", "2", "--classes", "LLR"],
        ["oracle", "--n", "1", "--max-trace", "4", "--dps", "10"],
    ],
    ids=lambda command: command[0],
)
def test_usage_errors_print_the_subcommand_usage(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: randsurf {command[0]} ")


def test_stats_csv_is_a_flat_class_table(tmp_path):
    text = run_cli(
        ["stats", "--n", "4", "--samples", "100", "--classes", "LR,LLR",
         "--format", "csv"],
        tmp_path,
    )
    lines = text.strip().split("\n")
    assert lines[0] == (
        "word,word_length,class_size,lambda,mean,mean_se,variance,"
        "tv_vs_poisson,tv_se,max_count"
    )
    assert len(lines) == 3


def test_bound_command_golden(tmp_path):
    payload = json.loads(
        run_cli(["bound", "--n", "1000000000000", "--classes", "LR"], tmp_path)
    )
    assert Fraction(payload["main_exact"]) == Fraction(18 * 12**10, 10**12)
    assert payload["main"]["value"].startswith("1.114512556")
    assert payload["refined_exact"] is None  # gated at this N
    assert payload["refined_le_main"] is True


def _mpf(x) -> mpmath.mpf:
    """A Fraction or its string as an mpf at the working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _rounded_12(x) -> str:
    """12-significant-digit string of an mpf, in the report's format."""
    return format(float(mpmath.nstr(x, 12)), ".12g")


# (72, 6) and (10**11, 4) sit next to a 12-digit boundary: rounding the
# double of main at N = 72, or of LR's sigma4 at N = 10**11, moves the last digit
@pytest.mark.parametrize(
    "n, trace",
    [(10, 8), (1_000_000, 6), (6, 4), (1_000_000_000, 8), (72, 6), (10**11, 4)],
)
def test_bound_strings_are_correctly_rounded(tmp_path, n, trace):
    payload = json.loads(
        run_cli(["bound", "--n", str(n), "--max-trace", str(trace)], tmp_path)
    )
    classes = enumerate_classes_by_trace(trace).classes
    m_w = max(c.word_length for c in classes)
    exact = {
        "refined": refined_mtv_bound(classes, n),
        "main": theorem_bound_value(len(classes), m_w, n),
    }
    views = {"refined": payload["refined"], "main": payload["main"]}
    for c, s in _class_sigmas(classes, n, m_w).items():
        record = payload["per_class_sigma"][c.canonical]
        values = {"sigma1": s.s1, "sigma2": s.s2, "sigma3": s.s3, "sigma4": s.s4}
        for key, value in [*values.items(), ("total", s.total)]:
            exact[c, key] = value
            views[c, key] = record[key]
    assert len(views) == 5 * len(classes) + 2
    with mpmath.workdps(60):
        for key, value in exact.items():
            x = _mpf(value)
            assert sys.float_info.min < x < sys.float_info.max
            expected = {"log10": _rounded_12(mpmath.log10(x)), "value": _rounded_12(x)}
            assert views[key] == expected, key


@pytest.mark.parametrize(
    "n, trace, shown", [(1000, 7, True), (1001, 7, False), (1000, 8, False)]
)
def test_exact_refined_bound_prints_only_for_short_digits(tmp_path, n, trace, shown):
    payload = json.loads(
        run_cli(["bound", "--n", str(n), "--max-trace", str(trace)], tmp_path)
    )
    classes = enumerate_classes_by_trace(trace).classes
    refined = refined_mtv_bound(classes, n)
    assert payload["refined_exact"] == (str(refined) if shown else None)
    main_value = theorem_bound_value(len(classes), trace - 1, n)
    assert payload["main_exact"] == str(main_value)
    assert payload["refined_le_main"] is (refined <= main_value)
    assert payload["refined_clamped"] == format(float(min(1, refined)), ".12g")
    assert payload["main_clamped"] == format(float(min(1, main_value)), ".12g")


def test_number_rounds_the_exact_value_not_its_double():
    # the double nearest this value is past the 12-digit rounding boundary
    x = Fraction(9922499986034999987, 10**25)
    assert format(float(x), ".12g") == "9.92249998604e-07"
    assert _number("x", x) == {"x_exact": str(x), "x": "9.92249998603e-07"}
    assert _number("x", Decimal("9.922499986034999987E-7")) == {"x": "9.92249998603e-07"}
    assert _number("x", LogNumber(x))["x"]["value"] == "9.92249998603e-07"
    # a float's digits are those of its own exact value
    assert _number("x", float(x)) == {"x": "9.92249998604e-07"}
    assert _number("x", -0.0) == {"x": "-0"}
    assert _number("x", LogNumber(10**400)) == {"x": {"log10": "400", "value": "inf"}}
    for plain in (3, True, "LR", None):
        assert _number("x", plain) == {"x": plain}


def test_bound_rejects_short_n():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "2", "--classes", "LLR"])
    assert exc.value.code == 2


def test_bound_accepts_census_selection(tmp_path):
    payload = json.loads(run_cli(["bound", "--n", "50", "--max-trace", "5"], tmp_path))
    assert payload["card"] == 3
    assert payload["m_w"] == 4


def test_oracle_n1_golden(tmp_path):
    payload = json.loads(run_cli(["oracle", "--n", "1", "--classes", "LR"], tmp_path))
    assert payload["gluing_count"] == 15
    assert payload["per_class"][0]["mean_exact"] == "3/5"
    law = {tuple(rec["counts"]): rec["probability_exact"] for rec in payload["joint_law"]}
    assert law == {(0,): "4/5", (3,): "1/5"}
    assert payload["mtv_vs_product_poisson"].startswith("0.380833284")


@pytest.mark.parametrize("n, classes", [(1, "LR"), (2, "LR,LLR"), (3, "LR,LLR,LLLR")])
def test_oracle_strings_are_correctly_rounded(tmp_path, n, classes):
    payload = json.loads(run_cli(["oracle", "--n", str(n), "--classes", classes], tmp_path))
    lams = [Fraction(rec["lambda_exact"]) for rec in payload["per_class"]]
    with mpmath.workdps(60):
        # total variation to the product Poisson law: 1 - sum of min(p, q)
        overlap = mpmath.mpf(0)
        for rec in payload["joint_law"]:
            p = _mpf(rec["probability_exact"])
            assert rec["probability"] == _rounded_12(p)
            q = mpmath.fprod(
                mpmath.exp(-_mpf(lam)) * _mpf(lam) ** k / math.factorial(k)
                for lam, k in zip(lams, rec["counts"])
            )
            overlap += min(p, q)
        assert payload["mtv_vs_product_poisson"] == _rounded_12(1 - overlap)
        for rec in payload["per_class"]:
            assert rec["mean"] == _rounded_12(_mpf(rec["mean_exact"]))


def test_oracle_gates(capsys):
    for n in ("0", "6"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", n, "--classes", "LR"])
        assert exc.value.code == 2
        assert "1 <= N <= 5" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "3", "--classes", "LR", "--allow-n3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-n3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "1", "--classes", "LR", "--dps", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "args",
    [
        ["words", "--max-len", "3"],
        ["stats", "--n", "2", "--samples", "20", "--classes", "LR"],
        ["bound", "--n", "50", "--max-trace", "5"],
        ["oracle", "--n", "1", "--classes", "LR,LLR"],
    ],
    ids=lambda args: args[0],
)
def test_reports_print_to_stdout_by_default(args, fmt, tmp_path, capsys):
    argv = [*args, "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    written = run_cli(argv, tmp_path)
    assert printed == written
    assert capsys.readouterr().out == ""
    if fmt == "json":
        assert json.loads(printed)["command"] == args[0]


# one of each command, a CSV report and a usage error, as a sweep would run them
WARM_SEQUENCE = [
    ["words", "--max-len", "3"],
    ["stats", "--n", "2", "--samples", "20", "--classes", "LR"],
    ["stats", "--n", "2", "--samples", "20", "--classes", "LR", "--format", "csv"],
    ["bound", "--n", "2", "--classes", "LLR"],  # usage error: m_W = 3 > N
    ["bound", "--n", "50", "--max-trace", "5"],
    ["oracle", "--n", "1", "--max-trace", "4"],
]


def _cold(argv, out, env) -> tuple[int, bytes, str]:
    """Exit code, report bytes and stderr of a fresh ``python -m randsurf.cli``."""
    done = subprocess.run(
        [sys.executable, "-m", "randsurf.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, out.read_bytes() if out.exists() else b"", done.stderr


def _warm(argv, out, capsys) -> tuple[int, bytes, str]:
    """The same, from a ``main`` call in this process."""
    capsys.readouterr()
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    return code, out.read_bytes() if out.exists() else b"", capsys.readouterr().err


def test_warm_commands_equal_cold_ones_and_share_one_parser(tmp_path, capsys, monkeypatch):
    # the usage line wraps at the terminal width, here and in the fresh runs
    monkeypatch.setenv("COLUMNS", "80")
    source = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    cold = [_cold(argv, tmp_path / f"cold{i}", env) for i, argv in enumerate(WARM_SEQUENCE)]
    assert [code for code, _, _ in cold] == [0, 0, 0, 2, 0, 0]
    assert cold[3][2].startswith("usage: randsurf bound ")
    cli.build_parser.cache_clear()
    for round_ in range(2):
        for i, argv in enumerate(WARM_SEQUENCE):
            warm = _warm(argv, tmp_path / f"warm{round_}_{i}", capsys)
            assert warm == cold[i], (round_, argv)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(WARM_SEQUENCE) - 1)
