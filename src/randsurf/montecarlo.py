"""Seeded Monte Carlo over gluings with reproducible parallelism.

Sample i is always drawn from the stream keyed by (seed, i), and every
accumulator is an integer (count sums, squared sums, cross products,
joint histogram, topology tallies), so merged results do not depend on
chunk scheduling.  Workers therefore change wall time, never output.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from randsurf.bounds import BoundReport, bound_report
from randsurf.cycles import class_count
from randsurf.dists import (
    empirical_distribution,
    product_poisson_on,
    tv_distance,
    tv_standard_error,
)
from randsurf.gluing import sample_uniform_gluing, topology
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class Tallies:
    samples: int = 0
    count_sums: list[int] = field(default_factory=list)
    square_sums: list[int] = field(default_factory=list)
    # per unordered pair i < j: sum xy, x^2 y, x y^2, x^2 y^2
    cross_sums: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    joint: Counter = field(default_factory=Counter)
    connected: int = 0
    component_sum: int = 0
    genus_sum: int = 0
    genus_square_sum: int = 0
    cusp_sum: int = 0
    cusp_square_sum: int = 0

    @classmethod
    def zero(cls, width: int) -> "Tallies":
        return cls(
            count_sums=[0] * width,
            square_sums=[0] * width,
            cross_sums={
                (i, j): [0, 0, 0, 0] for i in range(width) for j in range(i + 1, width)
            },
        )

    def merge(self, other: "Tallies") -> None:
        self.samples += other.samples
        for i, v in enumerate(other.count_sums):
            self.count_sums[i] += v
        for i, v in enumerate(other.square_sums):
            self.square_sums[i] += v
        for key, vals in other.cross_sums.items():
            mine = self.cross_sums[key]
            for i, v in enumerate(vals):
                mine[i] += v
        self.joint.update(other.joint)
        self.connected += other.connected
        self.component_sum += other.component_sum
        self.genus_sum += other.genus_sum
        self.genus_square_sum += other.genus_square_sum
        self.cusp_sum += other.cusp_sum
        self.cusp_square_sum += other.cusp_square_sum


def _run_chunk(plan: ExperimentPlan, start: int, stop: int) -> Tallies:
    classes = plan.classes
    t = Tallies.zero(len(classes))
    for index in range(start, stop):
        g = sample_uniform_gluing(plan.half_count, plan.seed, index)
        vec = tuple([class_count(g, c) for c in classes])

        t.samples += 1
        for i, v in enumerate(vec):
            t.count_sums[i] += v
            t.square_sums[i] += v * v
        for (i, j), acc in t.cross_sums.items():
            x, y = vec[i], vec[j]
            acc[0] += x * y
            acc[1] += x * x * y
            acc[2] += x * y * y
            acc[3] += x * x * y * y
        t.joint[vec] += 1

        if plan.with_topology:
            top = topology(g)
            t.connected += top.connected
            t.component_sum += top.component_count
            t.genus_sum += top.total_genus
            t.genus_square_sum += top.total_genus**2
            t.cusp_sum += top.cusp_count
            t.cusp_square_sum += top.cusp_count**2
    return t


def run_plan(plan: ExperimentPlan) -> Tallies:
    """All samples of the plan, merged in fixed chunk order."""
    spans = [
        (start, min(start + CHUNK, plan.samples))
        for start in range(0, plan.samples, CHUNK)
    ]
    total = Tallies.zero(len(plan.classes))
    if plan.workers == 1 or len(spans) == 1:
        parts = (_run_chunk(plan, a, b) for a, b in spans)
        for part in parts:
            total.merge(part)
        return total
    with multiprocessing.Pool(processes=plan.workers) as pool:
        parts = pool.starmap(
            _run_chunk, [(plan, a, b) for a, b in spans], chunksize=1
        )
    for part in parts:
        total.merge(part)
    return total


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class ClassSummary:
    word_class: WordClass
    mean: Fraction
    mean_se: float
    variance: Fraction
    tv_vs_poisson: float
    tv_se: float
    max_count: int


@dataclass(frozen=True)
class PairSummary:
    left: WordClass
    right: WordClass
    covariance: Fraction
    covariance_se: float


@dataclass(frozen=True)
class TopologySummary:
    connected_fraction: Fraction
    connected_se: float
    mean_components: Fraction
    mean_genus: Fraction
    genus_se: float
    mean_cusps: Fraction
    cusps_se: float


@dataclass(frozen=True)
class StatsReport:
    plan: ExperimentPlan
    per_class: tuple[ClassSummary, ...]
    pairs: tuple[PairSummary, ...]
    joint_mtv: float
    joint_mtv_se: float
    joint_support_size: int
    bounds: BoundReport | None
    bounds_note: str | None
    topology: TopologySummary | None


def _variance(total: int, total_sq: int, m: int) -> Fraction:
    if m < 2:
        return Fraction(0)
    return Fraction(m * total_sq - total * total, m * (m - 1))


def summarize(plan: ExperimentPlan, tallies: Tallies) -> StatsReport:
    m = tallies.samples
    classes = plan.classes
    lambdas = [c.lam for c in classes]
    joint_emp = empirical_distribution(tallies.joint)

    per_class = []
    for i, c in enumerate(classes):
        marg = joint_emp.marginal(i)
        max_count = max(vec[0] for vec in marg.atoms)
        ref = product_poisson_on([c.lam], marg.support())
        mean = Fraction(tallies.count_sums[i], m)
        var = _variance(tallies.count_sums[i], tallies.square_sums[i], m)
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
    for (i, j), (sxy, sxxy, sxyy, sxxyy) in sorted(tallies.cross_sums.items()):
        sx, sy = tallies.count_sums[i], tallies.count_sums[j]
        sxx, syy = tallies.square_sums[i], tallies.square_sums[j]
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
        genus_var = _variance(tallies.genus_sum, tallies.genus_square_sum, m)
        cusp_var = _variance(tallies.cusp_sum, tallies.cusp_square_sum, m)
        conn = Fraction(tallies.connected, m)
        topo = TopologySummary(
            connected_fraction=conn,
            connected_se=math.sqrt(max(0.0, float(conn * (1 - conn))) / m),
            mean_components=Fraction(tallies.component_sum, m),
            mean_genus=Fraction(tallies.genus_sum, m),
            genus_se=math.sqrt(genus_var / m) if m > 1 else float("nan"),
            mean_cusps=Fraction(tallies.cusp_sum, m),
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
