import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randsurf import cycles, gluing
from randsurf.cycles import brute_force_counts, count_vector
from randsurf.gluing import block_rows, sample_uniform_gluing, topology
from randsurf.montecarlo import CHUNK, ExperimentPlan, _moment_sums, run_plan, summarize
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
    with pytest.raises(ValueError, match="duplicate classes"):
        ExperimentPlan(half_count=1, classes=(lr, lr), samples=10, seed=0)

    # integers only; a numpy integer is stored as int
    args = dict(half_count=10, classes=(lr,), samples=5, seed=1, workers=1)
    for field in ("half_count", "samples", "seed", "workers"):
        with pytest.raises(TypeError):
            ExperimentPlan(**{**args, field: 2.0})
        plan = ExperimentPlan(**{**args, field: np.int64(2)})
        assert type(getattr(plan, field)) is int and getattr(plan, field) == 2


def test_tallies_match_a_direct_loop(lr, llr):
    plan = ExperimentPlan(
        half_count=3, classes=(lr, llr), samples=40, seed=5, workers=1
    )
    tallies = run_plan(plan)

    joint = Counter()
    shapes = Counter()
    for i in range(plan.samples):
        g = sample_uniform_gluing(plan.half_count, plan.seed, i)
        vec = count_vector(g, plan.classes)
        joint[tuple(vec[c] for c in plan.classes)] += 1
        top = topology(g)
        shapes[top.component_count, top.total_genus, top.cusp_count] += 1
    assert sum(tallies.joint.values()) == plan.samples
    assert tallies.joint == joint
    assert tallies.shapes == shapes
    assert list(vars(tallies)) == ["joint", "shapes"]


def test_run_plan_tallies_equal_count_vector_sums_with_non_primitive_classes():
    ll = canonicalize("LL")
    lrlr = canonicalize("LRLR")
    lr = canonicalize("LR")
    plan = ExperimentPlan(
        half_count=2,
        classes=(ll, lr, lrlr),
        samples=30,
        seed=9,
        workers=1,
        with_topology=False,
    )
    tallies = run_plan(plan)
    sums = [0, 0, 0]
    for i in range(plan.samples):
        g = sample_uniform_gluing(2, 9, i)
        vec = count_vector(g, plan.classes)
        for j, c in enumerate(plan.classes):
            sums[j] += vec[c]
    hist_sums = [
        sum(vec[j] * w for vec, w in tallies.joint.items()) for j in range(3)
    ]
    assert hist_sums == sums
    assert not tallies.shapes  # topology off: no shape is tallied
    assert summarize(plan, tallies).per_class[2].mean == Fraction(sums[2], 30)


@pytest.mark.parametrize("n, samples, rows", [(10, CHUNK + 150, 64), (700, 5, 1)])
def test_blocked_tallies_equal_a_per_sample_brute_force_loop(n, samples, rows):
    # chunks of 256 are counted in the sampler's blocks of rows samples:
    # at N = 10 the 64-row blocks divide a full chunk, but the final chunk
    # of 150 samples ends in a short 22-row block; at N = 700 every block
    # is one sample
    assert block_rows(n) == rows
    classes = tuple(canonicalize(w) for w in ("LR", "LL", "LLR"))
    plan = ExperimentPlan(half_count=n, classes=classes, samples=samples, seed=8)
    tallies = run_plan(plan)

    joint = Counter()
    shapes = Counter()
    for i in range(samples):
        g = sample_uniform_gluing(n, 8, i)
        ref = brute_force_counts(g, 3)
        joint[tuple(ref.get(c, 0) for c in classes)] += 1
        top = topology(g)
        shapes[top.component_count, top.total_genus, top.cusp_count] += 1
    assert tallies.joint == joint
    assert list(tallies.joint) == list(joint)  # atoms in order of first appearance
    assert tallies.shapes == shapes


def test_a_chunk_hashes_its_seeds_once_and_shuffles_each_row_once(monkeypatch, lr):
    # the sampler's blocks are the counter's blocks: 256 samples at N = 10
    # are four 64-row partner blocks from one seed block, whose state words
    # come from one SeedSequence(seed)
    gluing._seed_block.cache_clear()
    gluing._partner_block.cache_clear()
    built, shuffled = [], []
    real_seed_sequence, make = np.random.SeedSequence, gluing._generator_from_state()

    def counting_seed_sequence(*args, **kwargs):
        built.append((args, kwargs))
        return real_seed_sequence(*args, **kwargs)

    class CountingGenerator:
        def __init__(self, words):
            self.generator = make(words)

        def shuffle(self, row):
            shuffled.append(len(row))
            self.generator.shuffle(row)

    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    monkeypatch.setattr(gluing, "_generator_from_state", lambda: CountingGenerator)
    plan = ExperimentPlan(
        half_count=10, classes=(lr,), samples=CHUNK, seed=4, with_topology=False
    )
    assert sum(run_plan(plan).joint.values()) == CHUNK
    assert built == [((4,), {})]
    assert shuffled == [60] * CHUNK


def test_a_run_builds_its_counter_once_and_keeps_one_partner_block(lr):
    # three chunks of 64-row blocks at N = 10 share one counter, and the
    # sampler keeps only the block being read
    cycles.block_counter.cache_clear()
    plan = ExperimentPlan(
        half_count=10, classes=(lr,), samples=3 * CHUNK, seed=6, with_topology=False
    )
    assert sum(run_plan(plan).joint.values()) == 3 * CHUNK
    info = cycles.block_counter.cache_info()
    assert (info.misses, info.hits) == (1, 2)  # one lookup per chunk
    assert gluing._partner_block.cache_info().currsize == 1
    run_plan(plan)
    assert cycles.block_counter.cache_info().misses == 1


def test_count_vector_reuses_the_counter_of_a_run(lr, llr):
    # the Monte Carlo and count_vector share the counter of (N, classes)
    classes = (lr, llr)
    plan = ExperimentPlan(
        half_count=10, classes=classes, samples=70, seed=2, with_topology=False
    )
    tallies = run_plan(plan)
    misses = cycles.block_counter.cache_info().misses
    g = sample_uniform_gluing(10, 2, 0)
    vec = tuple(count_vector(g, classes).values())
    assert cycles.block_counter.cache_info().misses == misses
    assert vec in tallies.joint


def test_every_chunk_starts_on_a_block_start():
    assert all(CHUNK % block_rows(n) == 0 for n in range(1, 201))


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
    tallies = run_plan(plan)
    report = summarize(plan, tallies)
    assert len(report.per_class) == 2
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert pair.left == lr and pair.right == llr
    assert pair.covariance_se > 0
    assert isinstance(pair.covariance, Fraction)
    assert report.bounds is not None
    assert report.bounds.refined <= report.bounds.main
    assert report.topology is not None
    assert 0 <= float(report.topology.connected_fraction) <= 1
    assert report.joint_support_size == len(tallies.joint)


def test_topology_tallies_track_reports(lr):
    plan = ExperimentPlan(half_count=6, classes=(lr,), samples=50, seed=2, workers=1)
    tallies = run_plan(plan)
    tops = [topology(sample_uniform_gluing(6, 2, i)) for i in range(50)]
    report = summarize(plan, tallies).topology

    assert sum(tallies.shapes.values()) == 50
    assert report.mean_genus == Fraction(sum(t.total_genus for t in tops), 50)
    assert report.mean_components == Fraction(sum(t.component_count for t in tops), 50)
    assert report.connected_fraction == Fraction(sum(t.connected for t in tops), 50)


def test_variance_uses_the_unbiased_denominator(lr, llr):
    # at N = 3 these six samples vary in every coordinate and repeat the
    # atom (1, 0) three times, so the histogram weights are exercised
    plan = ExperimentPlan(
        half_count=3, classes=(lr, llr), samples=6, seed=6, workers=1
    )
    tallies = run_plan(plan)
    report = summarize(plan, tallies)
    xs, ys, genus, cusps = [], [], [], []
    for i in range(6):
        g = sample_uniform_gluing(3, 6, i)
        vec = count_vector(g, [lr, llr])
        xs.append(vec[lr])
        ys.append(vec[llr])
        top = topology(g)
        genus.append(top.total_genus)
        cusps.append(top.cusp_count)
    mean = Fraction(sum(xs), 6)
    var = sum((Fraction(x) - mean) ** 2 for x in xs) / 5
    mean_y = Fraction(sum(ys), 6)
    cov = sum((x - mean) * (y - mean_y) for x, y in zip(xs, ys)) / 5
    assert report.per_class[0].mean == mean
    assert report.per_class[0].variance == var
    assert report.pairs[0].covariance == cov
    assert cov != 0 and len(set(genus)) > 1 and len(set(cusps)) > 1
    assert report.topology.mean_genus == Fraction(sum(genus), 6)
    assert report.topology.mean_cusps == Fraction(sum(cusps), 6)


def _sample_loop_moments(samples, width):
    """Sums, squared sums and pair cross sums by a plain loop over (sample, weight)."""
    sums, squares = [0] * width, [0] * width
    cross = {(i, j): [0, 0, 0, 0] for i in range(width) for j in range(i + 1, width)}
    for vec, w in samples:
        for i, x in enumerate(vec):
            sums[i] += w * x
            squares[i] += w * x**2
        for (i, j), acc in cross.items():
            x, y = vec[i], vec[j]
            for k, term in enumerate((x * y, x**2 * y, x * y**2, x**2 * y**2)):
                acc[k] += w * term
    return sums, squares, cross


@st.composite
def _histograms(draw):
    width = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(0, 60)] * width)
    # small multiplicities expand into samples; large ones reach 10^6
    weight = st.one_of(st.integers(1, 4), st.integers(1, 10**6))
    return width, Counter(draw(st.dictionaries(vec, weight, min_size=1, max_size=12)))


@given(_histograms())
def test_moment_sums_equal_a_loop_over_the_samples(case):
    width, hist = case
    got = _moment_sums(hist, width)
    if hist.total() <= 10_000:
        assert got == _sample_loop_moments(((vec, 1) for vec in hist.elements()), width)
    # an atom of multiplicity w stands for w equal samples
    assert got == _sample_loop_moments(hist.items(), width)
    # pairs in the summary's order, and exact Python ints throughout
    assert list(got[2]) == [(i, j) for i in range(width) for j in range(i + 1, width)]
    assert all(type(v) is int for v in [*got[0], *got[1], *sum(got[2].values(), [])])


def test_pool_never_outnumbers_the_chunks(monkeypatch, lr):
    sizes = []

    class InlinePool:
        """Records its size and runs starmap in-process; starts no process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args, chunksize=1):
            return [fn(*a) for a in args]

    monkeypatch.setattr("multiprocessing.Pool", InlinePool)
    plans = [
        ExperimentPlan(half_count=3, classes=(lr,), samples=CHUNK + 44, seed=1, workers=w)
        for w in (64, 1)
    ]
    pooled, serial = (run_plan(p) for p in plans)
    assert sizes == [2]
    assert pooled == serial
