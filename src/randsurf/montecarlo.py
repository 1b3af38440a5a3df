"""Seeded Monte Carlo over gluings with reproducible parallelism.

Sample i is always drawn from the stream keyed by (seed, i): PCG64
seeded by SeedSequence(entropy=seed, spawn_key=(i,)), one
sample_uniform_gluing call per sample.  The sampler hashes the seeds of
SEED_BLOCK = 256 consecutive indices at once and builds their partner
arrays in blocks of gluing.block_rows(N) rows (one at a time above
N = 170), and a chunk is the same 256 indices.  So a chunk pays for one
hash pass and two scatters per partner block, besides one shuffle per
sample.  The only accumulators are histograms of integer outcomes,
merged in fixed chunk order, and ``summarize`` derives every reported
sum from them, so results do not depend on chunk scheduling.  Workers
therefore change wall time, never output.

A chunk of CHUNK samples is counted in blocks of the sampler's
block_rows(N) rows: 64 samples at N = 10, one sample at N = 1000.  Each
block's samples are drawn with one sample_uniform_gluing call each, and
the shared block counter then reads the sampler's cached, read-only
partner block in place (gluing.sampled_block), with no copy of its
rows; the counts are tallied in sample order.  The row budget
keeps a block's arrays small at every N.  Large blocks gain nothing
there: at N = 1000, counting 32 samples over the trace <= 7 classes
took 6.4-6.7 ms as one 32-sample block and as 32 one-sample blocks
alike (2-core Xeon, in process), while each of the counter's arrays
holds 48 kB per row.  The counter comes from cycles.cached_counter, so
a process builds it once per run, not once per chunk; a pool parent
builds none, since it counts nothing.

With more than one worker the chunks run in a multiprocessing pool.
run_plan imports multiprocessing in that branch only, so a serial run
never loads it.  Before the pool starts, the parent loads the sampler's
lazy numpy.random import (gluing._generator_from_state), which forked
workers inherit instead of each importing it on its first sample.  In a
one-shot CLI run that saves workers - 1 imports of CPU time and leaves
wall time about the same, as the parent imports while no worker runs
yet.  Repeated runs in one process, such as the benchmark or a library
sweep, save every import after the first run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from randsurf.bounds import BoundReport, bound_report
from randsurf.cycles import cached_counter
from randsurf.dists import (
    empirical_distribution,
    product_poisson_on,
    tv_distance,
    tv_standard_error,
)
from randsurf.gluing import (
    _generator_from_state,
    block_rows,
    sample_uniform_gluing,
    sampled_block,
    topology,
)
from randsurf.words import WordClass

CHUNK = 256  # fixed work unit, deliberately independent of the worker count


@dataclass(frozen=True)
class ExperimentPlan:
    half_count: int
    classes: tuple[WordClass, ...]
    samples: int
    seed: int
    workers: int = 1
    with_topology: bool = True

    def __post_init__(self):
        if self.half_count < 1 or self.samples < 1 or self.seed < 0:
            raise ValueError("need N >= 1, samples >= 1, seed >= 0")
        if not self.classes:
            raise ValueError("need at least one class")
        # count vectors are keyed by class
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate classes")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class Tallies:
    """Histograms of per-sample outcomes, the only accumulators.

    joint counts class-count vectors; shapes counts (component_count,
    total_genus, cusp_count) triples when topology is on.
    """

    joint: Counter = field(default_factory=Counter)
    shapes: Counter = field(default_factory=Counter)

    def merge(self, other: "Tallies") -> None:
        self.joint.update(other.joint)
        self.shapes.update(other.shapes)


def _run_chunk(plan: ExperimentPlan, start: int, stop: int) -> Tallies:
    """Tallies of samples start..stop-1, counted in the sampler's blocks.

    start is a multiple of block_rows(N), as every chunk start is, so
    each block of the loop is one of the sampler's partner blocks.
    """
    t = Tallies()
    n = plan.half_count
    rows = block_rows(n)
    count = cached_counter(n, rows, tuple(plan.classes))
    for first in range(start, stop, rows):
        indices = range(first, min(first + rows, stop))
        gluings = [sample_uniform_gluing(n, plan.seed, i) for i in indices]
        block = sampled_block(n, plan.seed, first)[: len(indices)]
        t.joint.update(map(tuple, count(block).tolist()))
        if plan.with_topology:
            for g in gluings:
                top = topology(g)
                t.shapes[top.component_count, top.total_genus, top.cusp_count] += 1
    return t


def run_plan(plan: ExperimentPlan) -> Tallies:
    """All samples of the plan, merged in fixed chunk order."""
    spans = [
        (start, min(start + CHUNK, plan.samples))
        for start in range(0, plan.samples, CHUNK)
    ]
    if plan.workers == 1 or len(spans) == 1:
        parts = (_run_chunk(plan, a, b) for a, b in spans)
    else:
        import multiprocessing  # loaded by pooled runs only

        _generator_from_state()  # forked workers inherit numpy.random
        with multiprocessing.Pool(processes=min(plan.workers, len(spans))) as pool:
            parts = pool.starmap(
                _run_chunk, [(plan, a, b) for a, b in spans], chunksize=1
            )
    total = Tallies()
    for part in parts:
        total.merge(part)
    return total


# ---------------------------------------------------------------------------
# summaries


class ClassSummary(NamedTuple):
    word_class: WordClass
    mean: Fraction
    mean_se: float
    variance: Fraction
    tv_vs_poisson: float
    tv_se: float
    max_count: int


class PairSummary(NamedTuple):
    left: WordClass
    right: WordClass
    covariance: Fraction
    covariance_se: float


class TopologySummary(NamedTuple):
    connected_fraction: Fraction
    connected_se: float
    mean_components: Fraction
    mean_genus: Fraction
    genus_se: float
    mean_cusps: Fraction
    cusps_se: float


class StatsReport(NamedTuple):
    plan: ExperimentPlan
    per_class: tuple[ClassSummary, ...]
    pairs: tuple[PairSummary, ...]
    joint_mtv: float
    joint_mtv_se: float
    joint_support_size: int
    bounds: BoundReport | None
    bounds_note: str | None
    topology: TopologySummary | None


def _moment_sums(
    hist: Counter, width: int
) -> tuple[list[int], list[int], dict[tuple[int, int], list[int]]]:
    """Coordinate sums, squared sums and per-pair cross sums of a histogram.

    The per-sample accumulation run once per atom, weighted by its
    multiplicity, so the totals equal those of a loop over the samples.
    """
    sums = [0] * width
    squares = [0] * width
    # per unordered pair i < j: sum xy, x^2 y, x y^2, x^2 y^2
    cross = {(i, j): [0, 0, 0, 0] for i in range(width) for j in range(i + 1, width)}
    for vec, w in hist.items():
        for i, v in enumerate(vec):
            sums[i] += w * v
            squares[i] += w * v * v
        for (i, j), acc in cross.items():
            x, y = vec[i], vec[j]
            acc[0] += w * x * y
            acc[1] += w * x * x * y
            acc[2] += w * x * y * y
            acc[3] += w * x * x * y * y
    return sums, squares, cross


def _variance(total: int, total_sq: int, m: int) -> Fraction:
    if m < 2:
        return Fraction(0)
    return Fraction(m * total_sq - total * total, m * (m - 1))


def summarize(plan: ExperimentPlan, tallies: Tallies) -> StatsReport:
    m = sum(tallies.joint.values())
    classes = plan.classes
    sums, squares, cross = _moment_sums(tallies.joint, len(classes))
    lambdas = [c.lam for c in classes]
    joint_emp = empirical_distribution(tallies.joint)

    per_class = []
    for i, c in enumerate(classes):
        marg = joint_emp.marginal(i)
        max_count = max(vec[0] for vec in marg.atoms)
        ref = product_poisson_on([c.lam], marg.support())
        mean = Fraction(sums[i], m)
        var = _variance(sums[i], squares[i], m)
        per_class.append(
            ClassSummary(
                word_class=c,
                mean=mean,
                mean_se=math.sqrt(var / m) if m > 1 else float("nan"),
                variance=var,
                tv_vs_poisson=float(tv_distance(marg, ref)),
                tv_se=tv_standard_error(marg, ref),
                max_count=max_count,
            )
        )

    pairs = []
    for (i, j), (sxy, sxxy, sxyy, sxxyy) in cross.items():
        sx, sy = sums[i], sums[j]
        sxx, syy = squares[i], squares[j]
        cov = (
            Fraction(m * sxy - sx * sy, m * (m - 1)) if m > 1 else Fraction(0)
        )
        # delta method: var(cov_hat) ~ (E[(X-mx)^2 (Y-my)^2] - cov^2) / M
        mx, my = sx / m, sy / m
        mu22 = (
            sxxyy
            - 2 * my * sxxy
            - 2 * mx * sxyy
            + my * my * sxx
            + mx * mx * syy
            + 4 * mx * my * sxy
            - 2 * mx * my * my * sx
            - 2 * mx * mx * my * sy
            + m * mx * mx * my * my
        ) / m
        se = math.sqrt(max(0.0, mu22 - float(cov) ** 2) / m)
        pairs.append(PairSummary(classes[i], classes[j], cov, se))

    joint_ref = product_poisson_on(lambdas, joint_emp.support())
    report_bounds = None
    note = None
    m_w = max(c.word_length for c in classes)
    if m_w <= plan.half_count:
        report_bounds = bound_report(classes, plan.half_count)
    else:
        note = f"distance bounds need m_W <= N, have m_W={m_w} > N={plan.half_count}"

    topo = None
    if plan.with_topology:
        (components, genus, cusps), (_, genus_sq, cusp_sq), _ = _moment_sums(
            tallies.shapes, 3
        )
        genus_var = _variance(genus, genus_sq, m)
        cusp_var = _variance(cusps, cusp_sq, m)
        connected = sum(w for shape, w in tallies.shapes.items() if shape[0] == 1)
        conn = Fraction(connected, m)
        topo = TopologySummary(
            connected_fraction=conn,
            connected_se=math.sqrt(max(0.0, float(conn * (1 - conn))) / m),
            mean_components=Fraction(components, m),
            mean_genus=Fraction(genus, m),
            genus_se=math.sqrt(genus_var / m) if m > 1 else float("nan"),
            mean_cusps=Fraction(cusps, m),
            cusps_se=math.sqrt(cusp_var / m) if m > 1 else float("nan"),
        )

    return StatsReport(
        plan=plan,
        per_class=tuple(per_class),
        pairs=tuple(pairs),
        joint_mtv=float(tv_distance(joint_emp, joint_ref)),
        joint_mtv_se=tv_standard_error(joint_emp, joint_ref),
        joint_support_size=len(joint_emp.atoms),
        bounds=report_bounds,
        bounds_note=note,
        topology=topo,
    )
