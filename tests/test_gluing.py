from collections import Counter

import numpy as np
import pytest
from scipy import stats as spstats

from randsurf.gluing import (
    Gluing,
    _next_arrays,
    next_side,
    sample_uniform_gluing,
    step,
    topology,
    triangle_of,
    vertex_permutation,
)


def test_side_navigation():
    assert triangle_of(1) == 1 and triangle_of(3) == 1 and triangle_of(4) == 2
    # Left walks forward around the triangle, Right backward
    assert next_side(1, "L") == 2 and next_side(2, "L") == 3 and next_side(3, "L") == 1
    assert next_side(1, "R") == 3 and next_side(3, "R") == 2 and next_side(2, "R") == 1
    assert next_side(4, "L") == 5 and next_side(6, "L") == 4


def test_involution_validation():
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 2), (1, 3), (5, 6)])
    with pytest.raises(ValueError):  # partner out of range
        Gluing(1, np.array([0, 2, 1, 4, 3, 6, 99]))
    with pytest.raises(ValueError):  # not an integer array
        Gluing(1, np.array([0, 2, 1, 4, 3, 6, 5], dtype=float))


def test_pairs_round_trip(torus_gluing):
    assert torus_gluing.pairs() == ((1, 4), (2, 5), (3, 6))
    assert torus_gluing.partner_of(1) == 4
    assert torus_gluing.partner_of(4) == 1


def test_step_goldens(torus_gluing, sphere_gluing):
    assert step(torus_gluing, 1, "L") == 5
    assert step(sphere_gluing, 1, "L") == 1


def test_step_is_a_bijection_for_each_turn():
    g = sample_uniform_gluing(7, seed=5, index=0)
    for turn in "LR":
        images = {step(g, s, turn) for s in range(1, 43)}
        assert images == set(range(1, 43))


def test_sampling_is_deterministic_and_index_sensitive():
    a = sample_uniform_gluing(3, seed=99, index=4)
    b = sample_uniform_gluing(3, seed=99, index=4)
    c = sample_uniform_gluing(3, seed=99, index=5)
    d = sample_uniform_gluing(3, seed=98, index=4)
    assert np.array_equal(a.partner, b.partner)
    assert not np.array_equal(a.partner, c.partner)
    assert not np.array_equal(a.partner, d.partner)


def test_sampling_guards():
    with pytest.raises(ValueError):
        sample_uniform_gluing(0, seed=1, index=0)


def test_sampling_is_uniform_at_n1():
    # all 15 matchings of 6 labels, chi-square at significance 0.001
    draws = Counter(
        sample_uniform_gluing(1, seed=7, index=i).pairs() for i in range(150_000)
    )
    assert len(draws) == 15
    result = spstats.chisquare(list(draws.values()))
    assert result.pvalue > 0.001


def test_topology_torus(torus_gluing):
    report = topology(torus_gluing)
    assert report.connected
    assert report.component_count == 1
    assert report.cusp_count == 1
    assert report.euler_characteristic == 0
    assert report.total_genus == 1
    assert tuple(sorted(report.cusp_degrees)) == (6,)


def test_topology_sphere(sphere_gluing):
    report = topology(sphere_gluing)
    assert report.connected
    assert report.cusp_count == 3
    assert report.euler_characteristic == 2
    assert report.total_genus == 0
    assert tuple(sorted(report.cusp_degrees)) == (1, 1, 4)


def test_torus_vertex_orbit(torus_gluing):
    v = vertex_permutation(torus_gluing)
    orbit = [1]
    while True:
        nxt = int(v[orbit[-1]])
        if nxt == 1:
            break
        orbit.append(nxt)
    assert orbit == [1, 5, 3, 4, 2, 6]


def test_topology_invariants_fuzz():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        g = sample_uniform_gluing(n, seed=int(rng.integers(1 << 30)), index=0)
        report = topology(g)
        assert report.euler_characteristic == report.cusp_count - n
        assert sum(report.cusp_degrees) == 6 * n
        assert report.component_count >= 1
        assert report.total_genus >= 0
        if report.connected:
            assert (n - report.cusp_count) % 2 == 0
            assert report.total_genus == (2 + n - report.cusp_count) // 2


def test_connectivity_becomes_typical():
    def connected_fraction(n: int, samples: int) -> float:
        hits = sum(
            topology(sample_uniform_gluing(n, seed=31, index=i)).connected
            for i in range(samples)
        )
        return hits / samples

    low = connected_fraction(5, 300)
    high = connected_fraction(50, 300)
    assert high >= low
    assert high > 0.97


def test_next_arrays_are_cached_and_read_only():
    left, right = _next_arrays(3)
    assert _next_arrays(3)[0] is left
    assert [int(left[s]) for s in (1, 2, 3)] == [2, 3, 1]
    assert [int(right[s]) for s in (1, 2, 3)] == [3, 1, 2]
    with pytest.raises(ValueError):
        right[1] = 0
