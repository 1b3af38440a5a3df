"""Command line front door.

Subcommands
-----------
words    enumerate word classes by combinatorial length or by trace
stats    seeded Monte Carlo over gluings with full statistics report
bound    evaluate the explicit distance bounds for a class set
oracle   exact law over all gluings (N <= 5)

Every command's output is a pure function of its flags.  Floats are
serialized as 12-significant-digit decimal strings, with exact
rationals alongside where the computation was rational, so replays and
golden files compare byte for byte.  The worker count is an execution
detail and never appears in a report.

Importing this module loads the words, sampler, counter, Monte Carlo
and bound code.  The exact oracle (randsurf.exact), the worker pool
(multiprocessing) and the csv writer load only in the commands that
run them.
"""

from __future__ import annotations

import argparse
import decimal
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

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


def _dec(x) -> str:
    """12 significant digits, enough to pin doubles across platforms."""
    return format(float(x), ".12g")


def _exact(x) -> str:
    return str(Fraction(x))


# 12 digits over any exponent range: past the double range the value prints inf
_DECIMAL_12 = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _lognum(x: LogNumber) -> dict:
    # round the exact value to 12 digits first: _dec of its double can
    # land on the wrong side of a 12-digit rounding boundary
    num, den = x.value.numerator, x.value.denominator
    value = _DECIMAL_12.divide(decimal.Decimal(num), decimal.Decimal(den))
    return {"log10": _dec(x.log10), "value": _dec(value)}


def _class_record(c: WordClass) -> dict:
    return {
        "word": c.canonical,
        "word_length": c.word_length,
        "class_size": c.class_size,
        "trace": c.trace,
        "lambda_exact": _exact(c.lam),
        "lambda": _dec(c.lam),
        "primitive": c.primitive,
        "parabolic": c.parabolic,
        "geodesic_length": None if c.parabolic else _dec(c.length),
        "mirror_word": c.mirror_class().canonical,
    }


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
        return tuple(_or_usage(parser, enumerate_classes_by_length, args.max_word_len))
    return tuple(_or_usage(parser, enumerate_classes_by_trace, args.max_trace).classes)


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


def _bounds_payload(report: BoundReport) -> dict:
    per_class = {}
    for c, s in report.sigma.items():
        per_class[c.canonical] = {
            "sigma1": _lognum(s.s1),
            "sigma2": _lognum(s.s2),
            "sigma3": _lognum(s.s3),
            "sigma4": _lognum(s.s4),
            "total": _lognum(s.total),
        }
    payload = {
        "card": report.card,
        "m_w": report.m_w,
        "c_w": report.c_w,
        "per_class_sigma": per_class,
        "refined": _lognum(report.refined),
        "refined_clamped": _dec(report.refined_clamped),
        "main": _lognum(report.main),
        "main_clamped": _dec(report.main_clamped),
        "refined_le_main": report.refined_le_main,
        "refined_exact": None
        if report.exact_refined is None
        else _exact(report.exact_refined),
        "main_exact": None if report.exact_main is None else _exact(report.exact_main),
    }
    return payload


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

    per_class = []
    for s in report.per_class:
        per_class.append(
            {
                "word": s.word_class.canonical,
                "lambda_exact": _exact(s.word_class.lam),
                "lambda": _dec(s.word_class.lam),
                "mean_exact": _exact(s.mean),
                "mean": _dec(s.mean),
                "mean_se": _dec(s.mean_se),
                "variance_exact": _exact(s.variance),
                "variance": _dec(s.variance),
                "tv_vs_poisson": _dec(s.tv_vs_poisson),
                "tv_se": _dec(s.tv_se),
                "max_count": s.max_count,
            }
        )
    pairs = []
    for p in report.pairs:
        pairs.append(
            {
                "left": p.left.canonical,
                "right": p.right.canonical,
                "covariance_exact": _exact(p.covariance),
                "covariance": _dec(p.covariance),
                "covariance_se": _dec(p.covariance_se),
            }
        )
    topo = None
    if report.topology is not None:
        t = report.topology
        topo = {
            "connected_fraction_exact": _exact(t.connected_fraction),
            "connected_fraction": _dec(t.connected_fraction),
            "connected_se": _dec(t.connected_se),
            "mean_components_exact": _exact(t.mean_components),
            "mean_components": _dec(t.mean_components),
            "mean_genus_exact": _exact(t.mean_genus),
            "mean_genus": _dec(t.mean_genus),
            "genus_se": _dec(t.genus_se),
            "mean_cusps_exact": _exact(t.mean_cusps),
            "mean_cusps": _dec(t.mean_cusps),
            "cusps_se": _dec(t.cusps_se),
        }
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
        "joint": {
            "mtv_vs_product_poisson": _dec(report.joint_mtv),
            "mtv_se": _dec(report.joint_mtv_se),
            "support_size": report.joint_support_size,
        },
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
    rows = [
        {
            "name": "refined",
            **_lognum(report.refined),
            "clamped": _dec(report.refined_clamped),
        },
        {"name": "main", **_lognum(report.main), "clamped": _dec(report.main_clamped)},
    ]
    config = {"n": args.n, "classes": [c.canonical for c in classes]}
    _write(args, "bound", config, _bounds_payload(report), rows)


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

    joint_rows = []
    for vec, count in sorted(system.joint_law.items()):
        p = Fraction(count, system.gluing_count)
        joint_rows.append(
            {
                "counts": [int(v) for v in vec],
                "probability_exact": _exact(p),
                "probability": _dec(p),
            }
        )
    per_class = []
    for c in system.classes:
        mean = system.exact_means[c]
        per_class.append(
            {
                "word": c.canonical,
                "lambda_exact": _exact(c.lam),
                "mean_exact": _exact(mean),
                "mean": _dec(mean),
            }
        )
    config = {"n": args.n, "classes": [c.canonical for c in classes], "dps": args.dps}
    body = {
        "gluing_count": system.gluing_count,
        "per_class": per_class,
        "joint_law": joint_rows,
        "mtv_vs_product_poisson": _dec(system.exact_mtv),
    }
    rows = [{**row, "counts": ",".join(map(str, row["counts"]))} for row in joint_rows]
    _write(args, "oracle", config, body, rows)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
