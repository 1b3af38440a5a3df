"""The two input rules of randsurf.words and the entry points that apply them.

check_classes takes a class set W and check_half_count takes N.  Every
library entry point that takes W or N goes through them, so each entry
point refuses the same inputs with the same message, and computes with
a numpy integer N exactly as with the int it stands for.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from randsurf import bounds
from randsurf.cycles import count_vector
from randsurf.exact import exact_joint_distribution
from randsurf.gluing import Gluing
from randsurf.montecarlo import ExperimentPlan
from randsurf.words import canonicalize, check_classes, check_half_count

LR, LLR = canonicalize("LR"), canonicalize("LLR")
# a class of the canonical word LR with a wrong size: not equal to [LR],
# but W would hold the word LR twice
FORGED_LR = dataclasses.replace(LR, class_size=1, lam=Fraction(1, 4))
TORUS = Gluing.from_pairs(1, [(1, 4), (2, 5), (3, 6)])


def _plan(classes, n=10):
    return ExperimentPlan(half_count=n, classes=classes, samples=1, seed=0)


# every library entry point that takes a class set, at an N it accepts
CLASS_SET_ENTRY_POINTS = {
    "check_classes": check_classes,
    "ExperimentPlan": _plan,
    "count_vector": lambda w: count_vector(TORUS, w),
    "exact_joint_distribution": lambda w: exact_joint_distribution(w, 1),
    "bound_report": lambda w: bounds.bound_report(w, 10),
    "sigma_word_bounds": lambda w: bounds.sigma_word_bounds(w, 10),
    "simplified_sigma_bounds": lambda w: bounds.simplified_sigma_bounds(w, 10),
    "main_bound": lambda w: bounds.main_bound(w, 10),
    "refined_mtv_bound": lambda w: bounds.refined_mtv_bound(w, 10),
}


@pytest.mark.parametrize(
    "classes, message",
    [
        ((), "need at least one class"),
        ([], "need at least one class"),
        ((LR, LLR, LR), "duplicate classes"),
        ((LR, FORGED_LR), "duplicate classes"),
    ],
    ids=["empty-tuple", "empty-list", "repeat", "same-canonical-word"],
)
@pytest.mark.parametrize("entry", sorted(CLASS_SET_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_class_set_alike(entry, classes, message):
    with pytest.raises(ValueError) as exc:
        CLASS_SET_ENTRY_POINTS[entry](classes)
    assert str(exc.value) == message


def test_the_class_rule_returns_the_classes_as_a_tuple():
    assert check_classes([LLR, LR]) == (LLR, LR)
    assert check_classes(iter([LR])) == (LR,)


def test_the_half_count_rule():
    assert check_half_count(np.int64(7)) == 7
    assert type(check_half_count(np.int64(7))) is int
    for bad in (0, -3, np.int64(0)):
        with pytest.raises(ValueError, match="N must be >= 1"):
            check_half_count(bad)
    for bad in (2.0, np.float64(2), "2", Fraction(2)):
        with pytest.raises(TypeError):
            check_half_count(bad)


def _outcome(call):
    """(value, field types) of a call, or its exception type and message."""
    try:
        value = call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if dataclasses.is_dataclass(value):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        fields = value if isinstance(value, tuple) else (value,)
    return value, [type(v) for v in fields]


W = (LR, LLR)

# every public entry point that takes N, as a function of N
HALF_COUNT_ENTRY_POINTS = {
    "p_k_n": lambda n: bounds.p_k_n(10, n),
    "a_k_n": lambda n: bounds.a_k_n(5, n),
    "theorem_bound_value": lambda n: bounds.theorem_bound_value(2, 3, n),
    "admissible_trace_for_n": lambda n: bounds.admissible_trace_for_n(n, Fraction(1, 2)),
    "bound_report": lambda n: bounds.bound_report(W, n),
    "sigma_word_bounds": lambda n: bounds.sigma_word_bounds(W, n),
    "sigma_word_bounds_log": lambda n: bounds.sigma_word_bounds(W, n, mode="log"),
    "simplified_sigma_bounds": lambda n: bounds.simplified_sigma_bounds(W, n),
    "main_bound": lambda n: bounds.main_bound(W, n),
    "refined_mtv_bound": lambda n: bounds.refined_mtv_bound(W, n),
    "refined_mtv_bound_log": lambda n: bounds.refined_mtv_bound(W, n, mode="log"),
    "exact_joint_distribution": lambda n: exact_joint_distribution(W, n),
    "ExperimentPlan": lambda n: _plan(W, n),
}


@pytest.mark.parametrize("entry", sorted(HALF_COUNT_ENTRY_POINTS))
def test_a_numpy_integer_n_gives_the_results_of_an_int(entry):
    # int64 arithmetic would overflow in the bounds' products at these N;
    # the exact oracle refuses both N alike and is checked in range too
    call = HALF_COUNT_ENTRY_POINTS[entry]
    sizes = (1, 2, 10, 1000) if entry == "exact_joint_distribution" else (10, 1000)
    for n in sizes:
        assert _outcome(lambda: call(np.int64(n))) == _outcome(lambda: call(n)), n
    with pytest.raises(TypeError):
        call(2.0)
