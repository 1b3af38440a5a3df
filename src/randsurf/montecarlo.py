"""Seeded Monte Carlo over gluings with reproducible parallelism.

Sample i is always drawn from the stream keyed by (seed, i): PCG64
seeded by SeedSequence(entropy=seed, spawn_key=(i,)), one
sample_uniform_gluing call per sample.  The sampler mixes the spawn
keys of SEED_BLOCK = 256 consecutive indices into the pool of one
SeedSequence(seed) at once and builds their partner arrays in blocks of
gluing.block_rows(N) rows (one at a time above N = 170), and a chunk
(CHUNK = SEED_BLOCK) is the same 256 indices.  So a chunk pays for one
SeedSequence and one hash pass, two scatters per partner block, and one
shuffle per sample.  The only accumulators are histograms
of integer outcomes, merged in fixed chunk order, and ``summarize``
derives every reported sum from them, so results do not depend on
chunk scheduling.  Workers therefore change wall time, never output.

A chunk of CHUNK samples is counted in blocks of the sampler's
block_rows(N) rows: 64 samples at N = 10, one sample at N = 1000.  Each
block's samples are drawn with one sample_uniform_gluing call each, and
the class counter then reads the sampler's cached, read-only partner
block in place (gluing.sampled_block), with no copy of its rows; the
counts are tallied in sample order.  The row budget keeps a block's
arrays small at every N.  Large blocks gain nothing there: at N = 1000,
counting 32 samples over the trace <= 7 classes took 6.4-6.7 ms as one
32-sample block and as 32 one-sample blocks alike (2-core Xeon, in
process), while each of a call's work arrays takes 48 kB per row.  The
counter is cycles.block_counter(N, classes), cached per process, so a
process builds it once per run, not once per chunk, and shares it with
count_vector; a pool parent builds none, since it counts nothing.

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
from itertools import combinations
from operator import index, mul
from typing import NamedTuple, Sequence

from randsurf.bounds import BoundReport, bound_report, out_of_range
from randsurf.cycles import block_counter
from randsurf.dists import product_poisson_on, tv_distance, tv_standard_error
from randsurf.gluing import (
    SEED_BLOCK,
    _generator_from_state,
    block_rows,
    sample_uniform_gluing,
    sampled_block,
    topology,
)
from randsurf.words import WordClass, check_classes, check_half_count

# the fixed work unit, independent of the worker count: every block_rows(N)
# divides the sampler's seed block, so a chunk starts on a block start at every N
CHUNK = SEED_BLOCK


@dataclass(frozen=True)
class ExperimentPlan:
    half_count: int
    classes: tuple[WordClass, ...]
    samples: int
    seed: int
    workers: int = 1
    with_topology: bool = True

    def __post_init__(self):
        object.__setattr__(self, "half_count", check_half_count(self.half_count))
        object.__setattr__(self, "classes", check_classes(self.classes))
        for name in ("samples", "seed", "workers"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.samples < 1 or self.seed < 0 or self.workers < 1:
            raise ValueError("need samples >= 1, seed >= 0, workers >= 1")


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
    count = block_counter(n, plan.classes)
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

    Each sum runs over the histogram's atoms, weighted by multiplicity, so
    the totals equal those of a loop over the samples.  The atoms are taken
    as columns and every product is a Python int, which cannot overflow.
    """
    columns = list(zip(*hist)) or [()] * width
    weighted = [list(map(mul, hist.values(), col)) for col in columns]  # w x
    sums = [sum(wx) for wx in weighted]
    squares = [sum(map(mul, wx, col)) for wx, col in zip(weighted, columns)]
    # per unordered pair i < j: sum xy, x^2 y, x y^2, x^2 y^2
    cross = {}
    for i, j in combinations(range(width), 2):
        x, y = columns[i], columns[j]
        wxy = list(map(mul, weighted[i], y))
        wxxy = list(map(mul, wxy, x))
        cross[i, j] = [sum(wxy), sum(wxxy), sum(map(mul, wxy, y)), sum(map(mul, wxxy, y))]
    return sums, squares, cross


def _variance(total: int, total_sq: int, m: int) -> Fraction:
    if m < 2:
        return Fraction(0)
    return Fraction(m * total_sq - total * total, m * (m - 1))


def summarize(plan: ExperimentPlan, tallies: Tallies) -> StatsReport:
    """The report of a run, derived from its integer histograms alone.

    Means, variances and covariances are exact sums over tallies.joint.
    Each distance compares a histogram, the joint one or a class's
    marginal (built in one pass over the joint), with a float product
    Poisson on its own sorted support.  The bounds are bound_report's,
    unless bounds.out_of_range gives a reason, which becomes the note.
    """
    joint = tallies.joint
    m = sum(joint.values())
    classes = plan.classes
    sums, squares, cross = _moment_sums(joint, len(classes))
    lambdas = [c.lam for c in classes]
    # marginal histograms keep the joint's first-appearance order
    marginals = [Counter() for _ in classes]
    for vec, count in joint.items():
        for marg, k in zip(marginals, vec):
            marg[(k,)] += count

    per_class = []
    for i, (c, marg) in enumerate(zip(classes, marginals)):
        support = sorted(marg)
        ref = product_poisson_on([c.lam], support)
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
                max_count=support[-1][0],
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

    joint_ref = product_poisson_on(lambdas, sorted(joint))
    note = out_of_range(max(c.word_length for c in classes), plan.half_count)
    report_bounds = None if note else bound_report(classes, plan.half_count)

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
        joint_mtv=float(tv_distance(joint, joint_ref)),
        joint_mtv_se=tv_standard_error(joint, joint_ref),
        joint_support_size=len(joint),
        bounds=report_bounds,
        bounds_note=note,
        topology=topo,
    )
