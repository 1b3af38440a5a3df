import itertools
import math
from collections import Counter
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randsurf.dists import (
    PoissonReference,
    poisson_pmf,
    product_poisson_on,
    tv_distance,
    tv_standard_error,
)
from randsurf.exact import exact_joint_distribution


def test_poisson_pmf_values():
    assert poisson_pmf(0.5, 0) == pytest.approx(math.exp(-0.5))
    assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1.0))
    assert poisson_pmf(2.0, 3) == pytest.approx(8 / 6 * math.exp(-2.0))


def test_distribution_validation():
    # the reference checks its rates and support; histograms are trusted
    with pytest.raises(ValueError, match="at least one rate"):
        product_poisson_on([], [(0,)])
    with pytest.raises(ValueError, match="wrong dimension"):
        product_poisson_on([0.5, 1.0], [(0,)])
    with pytest.raises(ValueError, match="nonnegative"):
        product_poisson_on([0.5], [(0,), (-1,)])
    with pytest.raises(ValueError):
        product_poisson_on([Fraction(1, 2)], [(0,), (-1,)], precision=60)


def test_marginals_of_a_product_grid():
    grid = [(i, j) for i in range(26) for j in range(26)]
    joint = product_poisson_on([0.5, 1.0], grid)
    assert joint.tail_mass < 1e-10
    for axis, lam in ((0, 0.5), (1, 1.0)):
        marg = Counter()
        for vec, prob in joint.atoms.items():
            marg[vec[axis]] += prob
        for k in range(6):
            assert marg[k] == pytest.approx(poisson_pmf(lam, k), rel=1e-9)


def test_product_poisson_on_prescribed_support():
    dist = product_poisson_on([0.5], [(0,), (3,)])
    assert set(dist.atoms) == {(0,), (3,)}
    assert dist.atoms[(0,)] == pytest.approx(math.exp(-0.5))
    assert dist.atoms[(3,)] == poisson_pmf(0.5, 3)
    assert dist.tail_mass == pytest.approx(
        1 - math.exp(-0.5) - poisson_pmf(0.5, 3)
    )


def test_tv_hand_example():
    hist = Counter({(0,): 4, (3,): 1})
    half = Decimal(1) / 2
    q = PoissonReference({(0,): half, (1,): half}, Decimal(0))
    assert tv_distance(hist, q) == Decimal("0.5")


def test_tv_against_restricted_poisson_is_exact_in_any_dimension():
    # supports of the two laws coincide, so the tail term is the exact
    # remainder of the reference law
    hist = Counter({(0, 0): 1, (1, 2): 1})
    q = product_poisson_on([0.5, 1.0], sorted(hist))
    tv = tv_distance(hist, q)
    direct = (
        abs(0.5 - poisson_pmf(0.5, 0) * poisson_pmf(1.0, 0))
        + abs(0.5 - poisson_pmf(0.5, 1) * poisson_pmf(1.0, 2))
        + q.tail_mass
    ) / 2
    assert tv == pytest.approx(direct, rel=1e-12)


weights_st = st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(sum)


def _hist(weights) -> Counter:
    return Counter({(k,): w for k, w in enumerate(weights) if w})


def _as_reference(hist) -> PoissonReference:
    total = sum(hist.values())
    return PoissonReference({vec: c / total for vec, c in hist.items()}, 0.0)


@given(weights_st, weights_st, weights_st)
def test_tv_is_a_metric(wa, wb, wc):
    a, b, c = _hist(wa), _hist(wb), _hist(wc)

    def tv(x, y):
        return tv_distance(x, _as_reference(y))

    assert tv(a, a) == 0
    assert tv(a, b) == pytest.approx(tv(b, a), abs=1e-15)
    assert 0 <= tv(a, b) <= 1
    assert tv(a, c) <= tv(a, b) + tv(b, c) + 1e-15


def test_tv_standard_error_bounds_and_hand_value():
    hist = Counter({(0,): 3, (1,): 1})
    ref = product_poisson_on([1.0], sorted(hist))
    se = tv_standard_error(hist, ref)
    assert 0 <= se <= 0.5 / math.sqrt(4)
    # p(0)=3/4 > e^-1, p(1)=1/4 < e^-1: weights +1/2 and -1/2
    mean = 0.75 * 0.5 - 0.25 * 0.5
    mean_sq = 0.75 * 0.25 + 0.25 * 0.25
    assert se == pytest.approx(math.sqrt((mean_sq - mean**2) / 4))


def test_empirical_law_approaches_exact_law(mc_n1):
    plan, tallies = mc_n1
    exact = PoissonReference({(0,): 0.8, (3,): 0.2}, 0.0)
    assert set(tallies.joint) == set(exact.atoms)
    assert tv_distance(tallies.joint, exact) < 0.01


# Reference: the distance and its standard error on a law of exact
# Fraction shares, each converted only where it meets a reference atom
def _fraction_law_tv(hist, reference):
    total = sum(hist.values())
    law = {vec: Fraction(count, total) for vec, count in hist.items()}
    gap = 0
    for vec in set(law) | set(reference.atoms):
        p, q = law.get(vec, 0), reference.atoms.get(vec, 0)
        if isinstance(p, Fraction) and isinstance(q, Decimal):
            p = Decimal(p.numerator) / p.denominator
        gap = gap + abs(p - q)
    return (gap + 0 + reference.tail_mass) / 2


def _fraction_law_se(hist, reference):
    total = sum(hist.values())
    mean = mean_sq = 0.0
    for vec, count in hist.items():
        prob = Fraction(count, total)
        diff = float(prob - reference.atoms.get(vec, 0))
        c = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
        mean += float(prob) * c
        mean_sq += float(prob) * c * c
    return math.sqrt(max(0.0, mean_sq - mean * mean) / total)


@st.composite
def histogram_cases(draw):
    """A 1-3 dimensional histogram in shuffled insertion order, rates, extra support."""
    d = draw(st.integers(min_value=1, max_value=3))
    vec_st = st.tuples(*[st.integers(min_value=0, max_value=6)] * d)
    vecs = draw(st.lists(vec_st, min_size=1, max_size=30, unique=True))
    counts = draw(st.lists(st.integers(1, 500), min_size=len(vecs), max_size=len(vecs)))
    hist = Counter(dict(draw(st.permutations(list(zip(vecs, counts))))))
    rates = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=12),
            min_size=d,
            max_size=d,
        )
    )
    return hist, rates, draw(st.lists(vec_st, max_size=5))


@given(histogram_cases())
def test_histogram_distances_equal_the_fraction_law_on_floats(case):
    hist, rates, extra = case
    ref = product_poisson_on(rates, sorted(set(hist) | set(extra)))
    tv = tv_distance(hist, ref)
    assert isinstance(tv, float)
    assert tv == _fraction_law_tv(hist, ref)
    assert tv_standard_error(hist, ref) == _fraction_law_se(hist, ref)


@given(histogram_cases())
def test_histogram_distance_equals_the_fraction_law_at_60_digits(case):
    hist, rates, extra = case
    ref = product_poisson_on(rates, sorted(set(hist) | set(extra)), precision=60)
    with localcontext(Context(prec=60)):
        tv = tv_distance(hist, ref)
        expected = _fraction_law_tv(hist, ref)
    assert isinstance(tv, Decimal)
    assert str(tv) == str(expected)


# the Decimal path against mpmath's log-space pmf, 20 guard digits up
RATE_SETS = [
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1, 6), Fraction(1, 2), Fraction(3, 2)),
    (Fraction(7, 3),),
]


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_product_poisson(rates, support, digits):
    with mpmath.workdps(digits + 20):
        atoms = {
            vec: mpmath.fprod(
                mpmath.exp(k * mpmath.log(_mp(lam)) - _mp(lam) - mpmath.loggamma(k + 1))
                for lam, k in zip(rates, vec)
            )
            for vec in support
        }
        return atoms, 1 - mpmath.fsum(atoms.values())


def _mp_tv(hist, rates, digits):
    atoms, tail = _mp_product_poisson(rates, sorted(hist), digits)
    total = sum(hist.values())
    with mpmath.workdps(digits + 20):
        gaps = [abs(mpmath.mpf(c) / total - atoms[vec]) for vec, c in hist.items()]
        return (mpmath.fsum(gaps) + tail) / 2


def _agrees(value, reference, digits):
    assert isinstance(value, Decimal)
    with mpmath.workdps(digits + 20):
        gap = abs(mpmath.mpf(str(value)) - reference)
        assert gap <= abs(reference) * mpmath.mpf(10) ** (5 - digits)


def _grid_law(rates):
    # a histogram on a grid around the rates, off the product Poisson law
    support = itertools.product(range(5 if len(rates) < 3 else 4), repeat=len(rates))
    return Counter({vec: 1 + sum(vec) for vec in support})


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("rates", RATE_SETS, ids=lambda r: ",".join(map(str, r)))
def test_decimal_product_poisson_matches_mpmath(rates, digits):
    support = sorted(_grid_law(rates))
    dist = product_poisson_on(rates, support, precision=digits)
    atoms, tail = _mp_product_poisson(rates, support, digits)
    assert set(dist.atoms) == set(atoms)
    for vec, prob in dist.atoms.items():
        _agrees(prob, atoms[vec], digits)
    _agrees(dist.tail_mass, tail, digits)


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("rates", RATE_SETS, ids=lambda r: ",".join(map(str, r)))
def test_decimal_tv_against_an_exact_law_matches_mpmath(rates, digits):
    law = _grid_law(rates)
    reference = product_poisson_on(rates, sorted(law), precision=digits)
    with localcontext(Context(prec=digits)):
        tv = tv_distance(law, reference)
    _agrees(tv, _mp_tv(law, rates, digits), digits)


# the oracle's one precision, exact.DPS, written out so that a change of it fails
@pytest.mark.parametrize("digits", [60])
def test_exact_mtv_is_a_decimal_at_the_requested_digits(lr, llr, digits):
    system = exact_joint_distribution([lr, llr], 2)
    rates = [c.lam for c in system.classes]
    _agrees(system.exact_mtv, _mp_tv(system.joint_law, rates, digits), digits)


@pytest.mark.parametrize("precision", [None, 60])
@pytest.mark.parametrize("rates", [[Fraction(0)], [Fraction(1), Fraction(-1, 2)]])
def test_non_positive_rates_raise_on_both_paths(rates, precision):
    support = [(0,) * len(rates), (1,) * len(rates)]
    with pytest.raises(ValueError, match="rate must be positive"):
        product_poisson_on(rates, support, precision=precision)
