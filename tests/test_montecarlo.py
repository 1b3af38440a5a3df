import math
from collections import Counter
from fractions import Fraction

import pytest

from randsurf.cycles import count_vector
from randsurf.gluing import sample_uniform_gluing
from randsurf.montecarlo import (
    CHUNK,
    ExperimentPlan,
    run_plan,
    summarize,
)
from randsurf.words import canonicalize


def test_plan_validation(lr):
    with pytest.raises(ValueError):
        ExperimentPlan(half_count=0, classes=(lr,), samples=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentPlan(half_count=1, classes=(), samples=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentPlan(half_count=1, classes=(lr,), samples=0, seed=0)
    with pytest.raises(ValueError):
        ExperimentPlan(half_count=1, classes=(lr,), samples=10, seed=0, workers=0)


def test_tallies_match_a_direct_loop(lr, llr):
    plan = ExperimentPlan(
        half_count=3, classes=(lr, llr), samples=40, seed=5, workers=1
    )
    tallies = run_plan(plan)

    sums = [0, 0]
    joint = Counter()
    for i in range(plan.samples):
        g = sample_uniform_gluing(plan.half_count, plan.seed, i)
        vec = count_vector(g, plan.classes)
        key = tuple(vec[c] for c in plan.classes)
        joint[key] += 1
        sums[0] += key[0]
        sums[1] += key[1]
    assert tallies.samples == plan.samples
    assert tallies.count_sums == sums
    assert tallies.joint == joint


def test_run_plan_tallies_equal_count_vector_sums_with_non_primitive_classes():
    ll = canonicalize("LL")
    lrlr = canonicalize("LRLR")
    lr = canonicalize("LR")
    plan = ExperimentPlan(
        half_count=2, classes=(ll, lr, lrlr), samples=30, seed=9, workers=1
    )
    tallies = run_plan(plan)
    sums = [0, 0, 0]
    for i in range(plan.samples):
        g = sample_uniform_gluing(2, 9, i)
        vec = count_vector(g, plan.classes)
        for j, c in enumerate(plan.classes):
            sums[j] += vec[c]
    assert tallies.count_sums == sums


def test_worker_counts_agree_even_mid_chunk(lr):
    samples = CHUNK + 17  # forces an uneven final chunk
    plans = [
        ExperimentPlan(half_count=4, classes=(lr,), samples=samples, seed=3, workers=w)
        for w in (1, 3)
    ]
    a, b = (run_plan(p) for p in plans)
    assert a == b


def test_mean_matches_exact_oracle_n1(mc_n1):
    plan, tallies = mc_n1
    report = summarize(plan, tallies)
    (stat,) = report.per_class
    exact_mean = 3 / 5
    # exact variance at N=1: E Z^2 = 9/5, so var = 9/5 - 9/25
    assert stat.mean_se == pytest.approx(
        math.sqrt((9 / 5 - 9 / 25) / plan.samples), rel=0.05
    )
    assert abs(float(stat.mean) - exact_mean) < 3 * stat.mean_se
    assert stat.max_count in (0, 3)  # N=1 counts are 0 or 3


def test_summary_matches_exact_oracle_n2(mc_n2):
    plan, tallies = mc_n2
    report = summarize(plan, tallies)
    lr_stat, llr_stat = report.per_class
    assert abs(float(lr_stat.mean) - 6 / 11) < 3 * lr_stat.mean_se
    assert abs(float(llr_stat.mean) - 72 / 77) < 3 * llr_stat.mean_se
    # plug-in joint distance sits near the exactly known value
    assert report.joint_mtv == pytest.approx(0.34347912544031367, abs=0.02)
    assert report.joint_mtv_se < 0.005
    assert report.bounds is None  # m_W = 3 > N = 2
    assert "m_W" in report.bounds_note


def test_summary_shapes(lr, llr):
    plan = ExperimentPlan(
        half_count=10, classes=(lr, llr), samples=500, seed=21, workers=1
    )
    report = summarize(plan, run_plan(plan))
    assert len(report.per_class) == 2
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert pair.left == lr and pair.right == llr
    assert pair.covariance_se > 0
    assert isinstance(pair.covariance, Fraction)
    assert report.bounds is not None
    assert report.bounds.refined_le_main
    assert report.topology is not None
    assert 0 <= float(report.topology.connected_fraction) <= 1
    assert report.joint_support_size == len(
        set(map(tuple, (tallies_key for tallies_key in run_plan(plan).joint)))
    )


def test_topology_tallies_track_reports(lr):
    plan = ExperimentPlan(half_count=6, classes=(lr,), samples=50, seed=2, workers=1)
    tallies = run_plan(plan)
    from randsurf.gluing import topology

    genus = sum(
        topology(sample_uniform_gluing(6, 2, i)).total_genus for i in range(50)
    )
    assert tallies.genus_sum == genus
    assert tallies.connected <= 50


def test_variance_uses_the_unbiased_denominator(lr):
    plan = ExperimentPlan(half_count=1, classes=(lr,), samples=3, seed=6, workers=1)
    tallies = run_plan(plan)
    report = summarize(plan, tallies)
    xs = []
    for i in range(3):
        g = sample_uniform_gluing(1, 6, i)
        xs.append(count_vector(g, [lr])[lr])
    mean = Fraction(sum(xs), 3)
    var = sum((Fraction(x) - mean) ** 2 for x in xs) / 2
    assert report.per_class[0].mean == mean
    assert report.per_class[0].variance == var
