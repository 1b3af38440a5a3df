"""Command line front door.

Subcommands
-----------
words    enumerate word classes by combinatorial length or by trace
stats    seeded Monte Carlo over gluings with full statistics report
bound    evaluate the explicit distance bounds for a class set
oracle   exact law over all gluings (N <= 5)

Every command's output is a pure function of its flags, so replays and
golden files compare byte for byte.  Every number goes through one rule,
_number, chosen by the value's type: 12 significant digits correctly
rounded from the exact value, the exact rational alongside where the
value is a Fraction, and log10 next to the digits where it is a
LogNumber.  The bound module returns exact rationals only; the report
format (log views, clamps, which bounds also print exactly) is decided
here.  The worker count is an execution detail and never appears in a
report.

Importing this module loads the words, sampler, counter, Monte Carlo
and bound code.  The exact oracle (randsurf.exact), the worker pool
(multiprocessing) and the csv writer load only in the commands that
run them.

``main`` may be called again and again in one process, as the benchmark
and library sweeps do.  It builds its parser once (``build_parser`` is
cached) and reads the class censuses that randsurf.words caches, so a
warm command pays for its own work only.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from randsurf.bounds import BoundReport, bound_report
from randsurf.lognum import LogNumber
from randsurf.montecarlo import ExperimentPlan, run_plan, summarize
from randsurf.words import (
    WordClass,
    canonicalize,
    enumerate_classes_by_length,
    enumerate_classes_by_trace,
)

SCHEMA_VERSION = 1


# 12 digits over any exponent range: past the double range the value prints inf
_DECIMAL_12 = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _dec(x) -> str:
    """12 significant digits of a float, Decimal or Fraction.

    The digits are rounded from the exact value: rounding a Fraction's
    double instead can land on the wrong side of a 12-digit boundary.
    """
    if isinstance(x, Fraction):
        x = _DECIMAL_12.divide(x.numerator, x.denominator)
    return format(float(_DECIMAL_12.create_decimal(x)), ".12g")


def _number(name: str, value) -> dict:
    """The one number rule of every report, chosen by the value's type.

    A Fraction becomes ``<name>_exact`` (the exact rational) followed by
    ``<name>`` (12 digits); a Decimal or a float becomes ``<name>`` at 12
    digits; a LogNumber becomes ``<name>`` holding its ``log10`` and its
    12-digit ``value``; any other value (int, bool, str, None, ...)
    passes through unchanged.
    """
    if isinstance(value, Fraction):
        return {f"{name}_exact": str(value), name: _dec(value)}
    if isinstance(value, (float, decimal.Decimal)):
        return {name: _dec(value)}
    if isinstance(value, LogNumber):
        return {name: {"log10": _dec(value.log10), "value": _dec(value.value)}}
    return {name: value}


def _record(fields: Iterable[tuple[str, object]]) -> dict:
    """A report record: each (name, value) rendered by _number, in order."""
    return {k: v for name, value in fields for k, v in _number(name, value).items()}


def _class_record(c: WordClass) -> dict:
    return _record(
        {
            "word": c.canonical,
            "word_length": c.word_length,
            "class_size": c.class_size,
            "trace": c.trace,
            "lambda": c.lam,
            "primitive": c.primitive,
            "parabolic": c.parabolic,
            "geodesic_length": None if c.parabolic else c.length,
            "mirror_word": c.mirror_class().canonical,
        }.items()
    )


def _write(
    args: argparse.Namespace, command: str, config: dict, body: dict, rows: list[dict]
) -> None:
    """The one report writer: the JSON envelope or the CSV table, to --out or stdout."""
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        payload = {"schema_version": SCHEMA_VERSION, "command": command, "config": config, **body}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _or_usage(parser: argparse.ArgumentParser, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError turned into a usage error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# class selection shared by words / stats / bound / oracle


def _parse_word_list(parser: argparse.ArgumentParser, text: str) -> tuple[WordClass, ...]:
    out: list[WordClass] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        c = _or_usage(parser, canonicalize, token)
        if c in out:
            parser.error(
                f"class of {token!r} appears twice (words of one class collapse to {c.canonical})"
            )
        out.append(c)
    if not out:
        parser.error("--classes needs at least one word")
    return tuple(out)


def _resolve_classes(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[WordClass, ...]:
    if getattr(args, "classes", None) is not None:
        return _parse_word_list(parser, args.classes)
    if getattr(args, "max_word_len", None) is not None:
        return _or_usage(parser, enumerate_classes_by_length, args.max_word_len)
    return _or_usage(parser, enumerate_classes_by_trace, args.max_trace).classes


def _add_selection(sub: argparse.ArgumentParser, with_length: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--classes", metavar="W1,W2,...", help="comma-separated words over {L,R}"
    )
    if with_length:
        group.add_argument(
            "--max-word-len", type=int, metavar="M", help="all classes of length <= M"
        )
    group.add_argument(
        "--max-trace", type=int, metavar="K", help="all geodesic classes of trace <= K"
    )


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", metavar="PATH", help="write here instead of stdout")


# ---------------------------------------------------------------------------
# words


def cmd_words(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    classes = _resolve_classes(parser, args)
    if args.max_word_len is not None:
        config = {"max_len": args.max_word_len}
    else:
        config = {"max_trace": args.max_trace}
    records = [_class_record(c) for c in classes]
    _write(args, "words", config, {"count": len(records), "classes": records}, records)


# ---------------------------------------------------------------------------
# stats


# reports carry the exact refined bound only in this corner of parameter
# space, where its digits stay short; bound_report computes it for every
# report, so the gate sets the format, not the cost
_EXACT_N_LIMIT = 1000
_EXACT_LEN_LIMIT = 6


def _bounds_payload(report: BoundReport) -> dict:
    refined, main = report.refined, report.main
    per_class = {
        c.canonical: _record(
            zip(("sigma1", "sigma2", "sigma3", "sigma4", "total"), map(LogNumber, (*s, s.total)))
        )
        for c, s in report.sigma.items()
    }
    shown = report.card and report.half_count <= _EXACT_N_LIMIT and report.m_w <= _EXACT_LEN_LIMIT
    return _record(
        [
            ("card", report.card),
            ("m_w", report.m_w),
            ("c_w", report.c_w),
            ("per_class_sigma", per_class),
            ("refined", LogNumber(refined)),
            ("refined_clamped", float(min(1, refined))),
            ("main", LogNumber(main)),
            ("main_clamped", float(min(1, main))),
            ("refined_le_main", refined <= main),
            ("refined_exact", str(refined) if shown else None),
            ("main_exact", str(main) if report.card else None),
        ]
    )


def cmd_stats(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    classes = _resolve_classes(parser, args)
    plan = _or_usage(
        parser,
        ExperimentPlan,
        half_count=args.n,
        classes=classes,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        with_topology=not args.no_topology,
    )
    report = summarize(plan, run_plan(plan))

    # each summary record after its class identity, in field order
    per_class = [
        _record(
            [("word", s.word_class.canonical), ("lambda", s.word_class.lam),
             *zip(s._fields[1:], s[1:])]
        )
        for s in report.per_class
    ]
    pairs = [
        _record(
            [("left", p.left.canonical), ("right", p.right.canonical), *zip(p._fields[2:], p[2:])]
        )
        for p in report.pairs
    ]
    topo = None if report.topology is None else _record(report.topology._asdict().items())
    config = {
        "n": plan.half_count,
        "samples": plan.samples,
        "seed": plan.seed,
        "classes": [c.canonical for c in plan.classes],
        "with_topology": plan.with_topology,
    }
    body = {
        "per_class": per_class,
        "pairs": pairs,
        "joint": _record(
            [
                ("mtv_vs_product_poisson", report.joint_mtv),
                ("mtv_se", report.joint_mtv_se),
                ("support_size", report.joint_support_size),
            ]
        ),
        "bounds": None if report.bounds is None else _bounds_payload(report.bounds),
        "bounds_note": report.bounds_note,
        "topology": topo,
    }
    # the CSV is the per-class table: the JSON records without the exact companions
    rows = [
        {
            "word": r["word"],
            "word_length": s.word_class.word_length,
            "class_size": s.word_class.class_size,
            **{k: v for k, v in r.items() if not k.endswith("_exact")},
        }
        for r, s in zip(per_class, report.per_class)
    ]
    _write(args, "stats", config, body, rows)


# ---------------------------------------------------------------------------
# bound


def cmd_bound(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    classes = _resolve_classes(parser, args)
    report = _or_usage(parser, bound_report, classes, args.n)
    body = _bounds_payload(report)
    # the CSV is one row per aggregate bound, as rendered in the JSON
    rows = [{"name": k, **body[k], "clamped": body[f"{k}_clamped"]} for k in ("refined", "main")]
    config = {"n": args.n, "classes": [c.canonical for c in classes]}
    _write(args, "bound", config, body, rows)


# ---------------------------------------------------------------------------
# oracle


def exact_joint_distribution(classes: Sequence[WordClass], n: int, dps: int):
    """randsurf.exact.exact_joint_distribution, imported on the first oracle run.

    Kept as a name of this module so that benchmarks/spans.py can wrap
    the oracle's enumeration where the CLI calls it.
    """
    from randsurf import exact

    return exact.exact_joint_distribution(classes, n, dps=dps)


def cmd_oracle(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    classes = _resolve_classes(parser, args)
    system = _or_usage(parser, exact_joint_distribution, classes, args.n, dps=args.dps)

    joint_rows = [
        {
            "counts": [int(v) for v in vec],
            **_number("probability", Fraction(count, system.gluing_count)),
        }
        for vec, count in sorted(system.joint_law.items())
    ]
    per_class = [
        {"word": c.canonical, "lambda_exact": str(c.lam), **_number("mean", system.exact_means[c])}
        for c in system.classes
    ]
    config = {"n": args.n, "classes": [c.canonical for c in classes], "dps": args.dps}
    body = {
        "gluing_count": system.gluing_count,
        "per_class": per_class,
        "joint_law": joint_rows,
        **_number("mtv_vs_product_poisson", system.exact_mtv),
    }
    rows = [{**row, "counts": ",".join(map(str, row["counts"]))} for row in joint_rows]
    _write(args, "oracle", config, body, rows)


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The randsurf parser, built on the first call.

    Every later call returns the same parser, shared by every caller in
    the process: parse with it, but do not mutate it (no added
    arguments, defaults or subcommands).  Parsing leaves it unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="randsurf",
        description="length spectrum statistics of random ideal-triangle gluings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    words = sub.add_parser("words", help="enumerate word classes")
    sel = words.add_mutually_exclusive_group(required=True)
    sel.add_argument("--max-len", type=int, metavar="M", dest="max_word_len")
    sel.add_argument("--max-trace", type=int, metavar="K")
    _add_output(words)
    words.set_defaults(func=cmd_words, parser=words)

    stats = sub.add_parser("stats", help="Monte Carlo statistics report")
    stats.add_argument("--n", type=int, required=True, metavar="N")
    stats.add_argument("--samples", type=int, required=True, metavar="M")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--workers", type=int, default=1)
    stats.add_argument(
        "--no-topology", action="store_true", help="skip per-sample topology"
    )
    _add_selection(stats, with_length=True)
    _add_output(stats)
    stats.set_defaults(func=cmd_stats, parser=stats)

    bound = sub.add_parser("bound", help="explicit distance bounds")
    bound.add_argument("--n", type=int, required=True, metavar="N")
    _add_selection(bound, with_length=False)
    _add_output(bound)
    bound.set_defaults(func=cmd_bound, parser=bound)

    oracle = sub.add_parser("oracle", help="exact law over all gluings")
    oracle.add_argument("--n", type=int, required=True, metavar="N")
    oracle.add_argument(
        "--dps", type=int, default=60, help="significant digits of the exact distance"
    )
    _add_selection(oracle, with_length=False)
    _add_output(oracle)
    oracle.set_defaults(func=cmd_oracle, parser=oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # usage errors after parsing print the subcommand's usage line
    args.func(args.parser, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
