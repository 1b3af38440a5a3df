import math
import random
from fractions import Fraction
from math import comb

import pytest

from randsurf.bounds import (
    SigmaSet,
    _class_sigmas,
    a_k_n,
    admissible_trace_for_n,
    bound_report,
    main_bound,
    p_k_n,
    refined_mtv_bound,
    sigma_word_bounds,
    simplified_sigma_bounds,
    theorem_bound_value,
)
from randsurf.lognum import LogNumber
from randsurf.words import canonicalize, enumerate_classes_by_length, enumerate_classes_by_trace


def reference_sigma_word(m, lengths, m_w, n):
    """Word-level sigma sums of a length-m word, term by term as written."""
    s1 = a_k_n(m, n) * p_k_n(m, n) ** 2
    for i in range(1, m - 1):
        s1 += 3**i * (m - i) ** m * a_k_n(m - i, n) * p_k_n(m - i, n) ** 2

    s2 = Fraction(0)
    for mp in lengths:
        pp = p_k_n(m, n) * p_k_n(mp, n)
        for i in range(1, 2 * m + 1):
            for j in range(m + 1):
                for k in range(mp + 1):
                    idx = m + mp - i - j - k
                    if idx >= 0:
                        coef = comb(2 * m, i) * 3 ** (i + j + k) * (m - j) ** m * (mp - k) ** mp
                        s2 += coef * a_k_n(idx, n) * pp

    s3 = Fraction(0)
    for mp in lengths:
        for i in range(1, m + 1):
            p_factor = p_k_n(m + mp - i, n)
            for j in range(m + 1):
                for k in range(mp + 1):
                    idx = m + mp - i - j - k - 1
                    if idx >= 0:
                        coef = comb(m, i) * 3 ** (i + j + k) * (m - j) ** m * (mp - k) ** mp
                        s3 += coef * a_k_n(idx, n) * p_factor

    base = sum(a_k_n(mp, n) * p_k_n(mp, n) for mp in lengths)
    extra = sum(
        3**i * (m - i) ** m * a_k_n(m - i, n) * p_k_n(m - i, n) for i in range(1, m - 1)
    )
    s4 = Fraction(m_w**2, n) * (base + extra) ** 2
    return SigmaSet(s1, s2, s3, s4)


def _reference_families():
    pool = enumerate_classes_by_length(6)
    families = [enumerate_classes_by_trace(k).classes for k in range(3, 9)]
    families += [tuple(c for c in pool if c.word_length <= m) for m in range(1, 7)]
    picker = random.Random(314_159)
    for size in (4, 7, 10):
        subset = tuple(picker.sample(pool, size))
        assert len({c.word_length for c in subset}) < size  # lengths repeat
        families.append(subset)
    return families


def test_sums_per_length_equal_the_term_by_term_reference():
    for classes in _reference_families():
        lengths = [c.word_length for c in classes]
        m_w = max(lengths)
        for n in sorted({m_w, 10, 1000, 10**12}):
            if n < m_w:
                continue
            # the reference depends on a class only through its length
            reference = {m: reference_sigma_word(m, lengths, m_w, n) for m in set(lengths)}
            got = sigma_word_bounds(classes, n, mode="exact")
            for c in classes:
                assert got[c] == reference[c.word_length], (lengths, n, c)


@pytest.mark.parametrize(
    "bound", [sigma_word_bounds, main_bound, refined_mtv_bound]
)
def test_unknown_mode_raises(bound):
    with pytest.raises(ValueError, match="mode"):
        bound(enumerate_classes_by_trace(4).classes, 10, mode="bogus")


def test_log_mode_is_a_view_of_exact_mode():
    classes = enumerate_classes_by_trace(6).classes
    for s in _class_sigmas(classes, 100).values():
        assert s.view(LogNumber).total == LogNumber(s.total)
    assert refined_mtv_bound(classes, 100, mode="log") == LogNumber(
        refined_mtv_bound(classes, 100)
    )


def test_pair_probability_values():
    assert p_k_n(0, 1) == 1
    assert p_k_n(1, 1) == Fraction(1, 5)
    assert p_k_n(2, 1) == Fraction(1, 15)
    assert p_k_n(3, 1) == Fraction(1, 15)  # last factor is 1
    assert p_k_n(1, 2) == Fraction(1, 11)
    with pytest.raises(ValueError):
        p_k_n(4, 1)


def test_side_sequence_counts():
    # 3^k times a falling factorial of the triangle count
    assert a_k_n(1, 1) == 6
    assert a_k_n(2, 1) == 18
    assert a_k_n(2, 2) == 108
    assert a_k_n(3, 2) == 648
    assert a_k_n(4, 2) == 1944
    # sums only ever need indices up to 2 m_W <= 2N; outside is an error
    with pytest.raises(ValueError):
        a_k_n(3, 1)
    with pytest.raises(ValueError):
        a_k_n(5, 2)


def test_theorem_bound_goldens():
    assert theorem_bound_value(1, 1, 1) == 5_038_848
    assert math.log10(5_038_848) == pytest.approx(6.7023, abs=5e-5)
    val = theorem_bound_value(1, 2, 10**12)
    assert val == Fraction(18 * 12**10, 10**12)
    assert 1.1145 < float(val) < 1.1146


def test_main_bound_modes_agree():
    classes = enumerate_classes_by_trace(6).classes
    for n in (10, 100, 10**4):
        exact = main_bound(classes, n, mode="exact")
        logv = main_bound(classes, n, mode="log")
        assert logv.log10 == pytest.approx(math.log10(float(exact)), rel=1e-10)


def test_refined_modes_agree_to_many_digits():
    classes = enumerate_classes_by_trace(5).classes
    for n in (10, 250):
        exact = refined_mtv_bound(classes, n, mode="exact")
        logv = refined_mtv_bound(classes, n, mode="log")
        assert float(logv.log10) == pytest.approx(
            math.log10(float(exact)), abs=1e-10
        )


def test_sigma1_single_length_two_class():
    # for |w| = 2 the correction sum is empty: sigma1 = a_2 p_2^2
    lr = canonicalize("LR")
    word_level = sigma_word_bounds((lr,), 10, mode="exact")[lr]
    assert word_level.s1 == a_k_n(2, 10) * p_k_n(2, 10) ** 2
    class_level = _class_sigmas((lr,), 10)[lr]
    assert class_level.s1 == lr.lam * word_level.s1
    assert class_level.s2 == lr.lam**2 * word_level.s2


def test_sigma_values_positive_and_total():
    classes = enumerate_classes_by_trace(4).classes
    sig = _class_sigmas(classes, 25)
    for s in sig.values():
        assert s.s1 > 0 and s.s2 > 0 and s.s3 > 0 and s.s4 > 0
        assert s.total == s.s1 + s.s2 + s.s3 + s.s4
    assert refined_mtv_bound(classes, 25) == 3 * sum(s.total for s in sig.values())


def test_simplified_forms_dominate_exact_sums():
    for k in (3, 4, 5):
        classes = enumerate_classes_by_trace(k).classes
        for n in (10, 100):
            simple = simplified_sigma_bounds(classes, n)
            word_level = sigma_word_bounds(classes, n, mode="exact")
            for cls in classes:
                exact = word_level[cls]
                assert exact.s1 <= simple.s1, (k, n, cls, "s1")
                assert exact.s2 <= simple.s2, (k, n, cls, "s2")
                assert exact.s3 <= simple.s3, (k, n, cls, "s3")
                assert exact.s4 <= simple.s4, (k, n, cls, "s4")


def test_refined_below_main():
    for k in (3, 5, 7):
        classes = enumerate_classes_by_trace(k).classes
        for n in (10, 100):
            assert refined_mtv_bound(classes, n) <= main_bound(classes, n)


def test_refined_scales_like_one_over_n():
    classes = enumerate_classes_by_trace(5).classes
    r3 = refined_mtv_bound(classes, 10**3)
    r4 = refined_mtv_bound(classes, 10**4)
    assert float(r3 / r4) == pytest.approx(10.0, rel=0.05)


def test_hypothesis_guard():
    classes = enumerate_classes_by_trace(4).classes  # m_W = 3
    with pytest.raises(ValueError):
        _class_sigmas(classes, 2)
    with pytest.raises(ValueError):
        main_bound(classes, 2)
    with pytest.raises(ValueError):
        theorem_bound_value(1, 3, 2)


def test_duplicate_classes_rejected():
    lr = canonicalize("LR")
    with pytest.raises(ValueError):
        _class_sigmas((lr, lr), 10)


def test_admissible_trace_examples():
    assert admissible_trace_for_n(10**6, 1) is None
    assert admissible_trace_for_n(10**12, 1) is None
    assert admissible_trace_for_n(10**15, 1) == 3
    assert admissible_trace_for_n(10**21, 1) == 4
    assert admissible_trace_for_n(10**27, 1) == 5


def test_admissible_trace_stops_at_the_census_cap(monkeypatch):
    monkeypatch.setattr("randsurf.bounds.MAX_TRACE", 5)
    assert admissible_trace_for_n(10**300, 1) == 5


def test_admissible_trace_tightens_with_tolerance():
    loose = admissible_trace_for_n(10**21, 1)
    tight = admissible_trace_for_n(10**21, Fraction(1, 10**6))
    assert tight is None or tight <= loose
    with pytest.raises(ValueError):
        admissible_trace_for_n(10**6, 0)
    with pytest.raises(ValueError):
        admissible_trace_for_n(10**6, 2)


def test_bound_report_exact_shadow_matches_log_values():
    classes = enumerate_classes_by_trace(5).classes
    report = bound_report(classes, 100)
    assert report.exact_refined is not None
    assert report.refined == refined_mtv_bound(classes, 100, mode="log")
    assert report.refined.log10 == pytest.approx(
        math.log10(float(report.exact_refined)), abs=1e-10
    )
    assert report.main.log10 == pytest.approx(
        math.log10(float(report.exact_main)), abs=1e-10
    )
    assert report.refined_le_main
    assert report.m_w == 4 and report.card == 3
    huge = bound_report(classes, 10**9)
    assert huge.exact_refined is None  # computed, but past the report's gate
    assert huge.refined == refined_mtv_bound(classes, 10**9, mode="log")
    assert huge.exact_main == theorem_bound_value(3, 4, 10**9)
