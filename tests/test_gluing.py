from collections import Counter

import numpy as np
import pytest
from scipy import stats as spstats

from randsurf.exact import enumerate_all_gluings
from randsurf.gluing import (
    Gluing,
    TopologyReport,
    _next_arrays,
    next_side,
    sample_uniform_gluing,
    step,
    topology,
    triangle_of,
    vertex_permutation,
)


def reference_topology(g: Gluing) -> TopologyReport:
    """Union-find over triangles and a walk of every vertex orbit.

    The loop version that ``topology``'s array code replaced, kept as
    the independent reference it is checked against.
    """
    n = g.half_count
    v = vertex_permutation(g)

    root = list(range(2 * n + 1))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for s in range(1, 6 * n + 1):
        a = find(triangle_of(s))
        b = find(triangle_of(int(g.partner[s])))
        if a != b:
            root[a] = b

    triangles_in = Counter(find(t) for t in range(1, 2 * n + 1))

    cusps_in: Counter = Counter()
    degrees = []
    seen = bytearray(6 * n + 1)
    for rep in range(1, 6 * n + 1):
        if seen[rep]:
            continue
        size = 0
        t = rep
        while not seen[t]:
            seen[t] = 1
            size += 1
            t = int(v[t])
        degrees.append(size)
        cusps_in[find(triangle_of(rep))] += 1

    total_genus = 0
    for r, tri in triangles_in.items():
        assert tri % 2 == 0
        chi = cusps_in[r] - tri // 2  # V - 3T/2 + T
        assert chi <= 2 and chi % 2 == 0
        total_genus += (2 - chi) // 2

    return TopologyReport(
        connected=len(triangles_in) == 1,
        component_count=len(triangles_in),
        cusp_count=len(degrees),
        euler_characteristic=len(degrees) - n,
        total_genus=total_genus,
        cusp_degrees=tuple(sorted(degrees)),
    )


def side_by_side(blocks) -> Gluing:
    """Disjoint union of gluings, block k relabelled after blocks 0..k-1."""
    pairs, offset = [], 0
    for g in blocks:
        pairs += [(a + offset, b + offset) for a, b in g.pairs()]
        offset += 6 * g.half_count
    return Gluing.from_pairs(offset // 6, pairs)


def chain_gluing(n: int) -> Gluing:
    """Side 3 of triangle t glued to side 1 of triangle t+1: a path of 2N triangles.

    The two end triangles glue their spare sides to themselves and the
    middle ones pair up their second sides with a path neighbour, so
    the adjacency stays a path of diameter 2N - 1.
    """
    pairs = [(3 * t, 3 * t + 1) for t in range(1, 2 * n)]
    pairs += [(1, 2), (6 * n - 1, 6 * n)]
    pairs += [(3 * t - 1, 3 * t + 2) for t in range(2, 2 * n - 1, 2)]
    return Gluing.from_pairs(n, pairs)


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


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
def test_sampled_partners_are_valid_gluings(monkeypatch, n):
    validated = []
    original = Gluing.__post_init__
    monkeypatch.setattr(Gluing, "__post_init__", lambda g: validated.append(g))
    sampled = [sample_uniform_gluing(n, seed=11, index=i) for i in range(20)]
    assert validated == []  # the sampler builds involutions; it skips the checks
    monkeypatch.setattr(Gluing, "__post_init__", original)
    for g in sampled:
        assert g.half_count == n and g.partner.dtype == np.int64
        Gluing(n, g.partner)  # raises unless a fixed-point-free involution


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
        assert report == reference_topology(g)
        assert report.euler_characteristic == report.cusp_count - n
        assert sum(report.cusp_degrees) == 6 * n
        assert report.component_count >= 1
        assert report.total_genus >= 0
        if report.connected:
            assert (n - report.cusp_count) % 2 == 0
            assert report.total_genus == (2 + n - report.cusp_count) // 2


def test_topology_matches_the_reference_on_every_small_gluing():
    # all 15 + 10395 gluings at N = 1 and 2, disconnected ones included
    disconnected = 0
    for n in (1, 2):
        for g in enumerate_all_gluings(n):
            report = topology(g)
            assert report == reference_topology(g)
            disconnected += not report.connected
    assert disconnected > 0


def test_topology_of_side_by_side_copies(torus_gluing, sphere_gluing):
    tori = side_by_side([torus_gluing] * 500)
    report = topology(tori)
    assert report == reference_topology(tori)
    assert report.component_count == 500
    assert report.total_genus == 500
    assert report.cusp_degrees == (6,) * 500
    assert not report.connected

    mix = side_by_side([torus_gluing, sphere_gluing, sphere_gluing, torus_gluing] * 25)
    report = topology(mix)
    assert report == reference_topology(mix)
    assert report.component_count == 100
    assert report.total_genus == 50
    assert report.cusp_count == 50 * 1 + 50 * 3
    assert report.cusp_degrees == (1,) * 100 + (4,) * 50 + (6,) * 50


def test_topology_of_a_long_chain():
    # the path of 20000 triangles is the worst case for label propagation
    g = chain_gluing(10_000)
    report = topology(g)
    assert report == reference_topology(g)
    assert report.connected


def test_topology_fields_are_python_scalars(torus_gluing):
    # shapes histogram keys feed exact integer sums: no numpy scalar may leak
    for g in (torus_gluing, sample_uniform_gluing(40, seed=3, index=0)):
        report = topology(g)
        assert type(report.connected) is bool
        for name in ("component_count", "cusp_count", "euler_characteristic", "total_genus"):
            assert type(getattr(report, name)) is int, name
        assert type(report.cusp_degrees) is tuple
        assert all(type(d) is int for d in report.cusp_degrees)


def test_topology_invariant_errors_raise(torus_gluing, monkeypatch):
    # neither can happen on a real gluing, so break the inputs topology reads
    broken = Gluing.from_pairs(1, [(1, 2), (4, 5), (3, 6)])
    object.__setattr__(broken, "partner", np.array([0, 2, 1, 3, 5, 4, 6]))
    with pytest.raises(RuntimeError, match="odd side count"):
        topology(broken)
    monkeypatch.setattr("randsurf.gluing.vertex_permutation", lambda g: np.arange(7))
    with pytest.raises(RuntimeError, match="Euler characteristic 5"):
        topology(torus_gluing)


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
