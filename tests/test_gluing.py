import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from randsurf import gluing
from randsurf.cycles import count_cycles, count_vector
from randsurf.exact import enumerate_all_gluings
from randsurf.gluing import (
    SEED_BLOCK,
    Gluing,
    TopologyReport,
    _next_arrays,
    _seed_block,
    block_rows,
    sample_uniform_gluing,
    sampled_block,
    topology,
    vertex_permutation,
)
from randsurf.words import enumerate_classes_by_length


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
        a = find((s + 2) // 3)
        b = find((int(g.partner[s]) + 2) // 3)
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
        cusps_in[find((rep + 2) // 3)] += 1

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


def cusp_of_each_label(g: Gluing) -> np.ndarray:
    """The least label of the vertex orbit of each label, walked one step at a time."""
    v = vertex_permutation(g).tolist()
    least = [0] * len(v)
    for rep in range(1, len(v)):
        s = rep
        while not least[s]:
            least[s] = rep
            s = v[s]
    return np.array(least)


def one_cusp_gluing(g: Gluing) -> Gluing:
    """Reglue a connected gluing at odd N until its vertex permutation is one orbit.

    Trading the pairs {a, a'} and {b, b'} for {a, b'} and {b, a'} turns
    the vertex permutation v into v (a b) (a' b').  The first factor joins
    the cusps of a and b; the second joins two more cusps unless a' and b'
    then share one.  Each trade picks the first such a and b, so the
    cusp count falls by two.
    """
    n = g.half_count
    partner = g.partner.copy()
    labels = np.arange(6 * n + 1)
    while True:
        cusp = cusp_of_each_label(Gluing(n, partner))
        if (cusp[1:] == 1).all():
            return Gluing(n, partner)
        mate = cusp[partner]  # the cusp of each label's partner
        for a in range(1, 6 * n + 1):
            # cusps of a' and of every b', once the cusp of b has joined a's
            joined_a, joined_b = (np.where(m == cusp, cusp[a], m) for m in (mate[a], mate))
            fits = (cusp != cusp[a]) & (joined_a != joined_b) & (labels != partner[a])
            fits[0] = False
            if fits.any():
                b = int(np.argmax(fits))
                a2, b2 = int(partner[a]), int(partner[b])
                partner[a], partner[b2], partner[b], partner[a2] = b2, a, a2, b
                break
        else:
            raise ValueError("no trade joins three cusps: disconnected, or N is even")


def short_cusp_gluings() -> list[Gluing]:
    """Sampled N = 3 gluings whose cusps all fit in topology's doubling window.

    The window is 2^WINDOW_ROUNDS = 16 labels, and some of these cusps
    are exactly that long.
    """
    window = 2**gluing.WINDOW_ROUNDS
    sampled = (sample_uniform_gluing(3, seed=37, index=i) for i in range(120))
    return [g for g in sampled if max(reference_topology(g).cusp_degrees) <= window]


def test_side_navigation():
    # Left walks forward around each triangle, Right backward
    left, right = _next_arrays(2)
    assert left.tolist() == [0, 2, 3, 1, 5, 6, 4, 8, 9, 7, 11, 12, 10]
    assert right.tolist() == [0, 3, 1, 2, 6, 4, 5, 9, 7, 8, 12, 10, 11]
    for n in range(1, 6):
        left, right = _next_arrays(n)
        labels = np.arange(6 * n + 1)
        # the turns are inverse to each other, and three Lefts go round once
        assert np.array_equal(left[right], labels)
        assert np.array_equal(left[left[left]], labels)
        # every turn stays in its triangle
        assert np.array_equal((left + 2) // 3, (labels + 2) // 3)


def test_involution_validation():
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        Gluing.from_pairs(1, [(1, 2), (1, 3), (5, 6)])
    with pytest.raises(ValueError):  # partner out of range
        Gluing(1, np.array([0, 2, 1, 4, 3, 6, 99]))
    for not_integers in (
        np.array([0, 2, 1, 4, 3, 6, 5], dtype=float),
        [0.0, 2.0, 1.0, 4.0, 3.0, 6.0, 5.0],
        [0, 2, 1, 4, 3, 6, "5"],
        [False, True, False, True, False, True, False],
    ):
        with pytest.raises(ValueError, match="integer"):
            Gluing(1, not_integers)


@pytest.mark.parametrize("seq", [[0, 2, 1, 4, 3, 6, 5], (0, 2, 1, 4, 3, 6, 5)])
def test_integer_sequences_are_partner_arrays(seq):
    g = Gluing(1, seq)
    assert g.partner.dtype == np.int64
    assert g == Gluing.from_pairs(1, [(1, 2), (3, 4), (5, 6)])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
def test_integer_partners_of_any_dtype_count_like_int64(dtype):
    sampled = sample_uniform_gluing(10, seed=7, index=0)
    g = Gluing(10, sampled.partner.astype(dtype))
    assert g.partner.dtype == np.int64
    classes = enumerate_classes_by_length(5)
    assert count_vector(g, classes) == count_vector(sampled, classes)
    assert count_cycles(g, 5) == count_cycles(sampled, 5)
    assert topology(g) == topology(sampled)


def test_pairs_round_trip(torus_gluing):
    assert torus_gluing.pairs() == ((1, 4), (2, 5), (3, 6))


def test_gluings_compare_and_hash_by_value(torus_gluing, sphere_gluing):
    same = Gluing.from_pairs(1, torus_gluing.pairs())
    assert same == torus_gluing and not same != torus_gluing
    assert hash(same) == hash(torus_gluing)
    assert torus_gluing != sphere_gluing
    # a sampled (trusted) gluing equals its checked copy, whatever the dtype
    sampled = sample_uniform_gluing(10, seed=3, index=0)
    narrow = Gluing(10, sampled.partner.astype(np.int32))
    assert narrow == sampled and hash(narrow) == hash(sampled)
    assert sampled != sample_uniform_gluing(10, seed=3, index=1)
    assert len({sampled, narrow, same, torus_gluing, sphere_gluing}) == 3
    # other types never compare equal
    assert torus_gluing != torus_gluing.partner.tolist()


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
        with pytest.raises(ValueError):  # rows of a shared cached block
            g.partner[1] = 0


def test_sampling_guards():
    # a sample and the block that holds it take the same arguments
    bad = [(0, 1, 0), (1, -1, 0), (1, 1, -1), (10, 0, -5), (10, -3, 0), (0, 0, 0)]
    not_integers = [(10.0, 0, 0), (10, 0.5, 0), (10, 0, 2.0)]
    for sample in (sample_uniform_gluing, sampled_block):
        for n, seed, index in bad:
            with pytest.raises(ValueError):
                sample(n, seed, index)
        for n, seed, index in not_integers:
            with pytest.raises(TypeError):
                sample(n, seed, index)
    # numpy integers are integers
    g = sample_uniform_gluing(np.int64(10), np.uint32(0), np.int8(3))
    assert type(g.half_count) is int
    assert g == sample_uniform_gluing(10, 0, 3)


def test_half_count_is_an_int():
    partner = [0, 2, 1, 4, 3, 6, 5]
    for not_an_integer in (1.0, np.float64(1.0), "1"):
        with pytest.raises(TypeError):
            Gluing(not_an_integer, partner)
    g = Gluing(np.int64(1), partner)
    assert type(g.half_count) is int and g == Gluing(1, partner)


def test_pair_labels_are_ints():
    torus = Gluing.from_pairs(1, [(1, 4), (2, 5), (3, 6)])
    for not_an_integer in ((1.5, 4), (1.0, 4), (1, np.float64(4.0)), ("1", 4)):
        with pytest.raises(TypeError):
            Gluing.from_pairs(1, [not_an_integer, (2, 5), (3, 6)])
    # True is the label 1, not a boolean mask over the partner array
    assert Gluing.from_pairs(1, [(True, 4), (2, 5), (3, 6)]) == torus
    assert Gluing.from_pairs(1, [(np.int64(1), np.uint8(4)), (2, 5), (3, 6)]) == torus
    with pytest.raises(ValueError, match=r"labels out of range: \(7, 1\)"):
        Gluing.from_pairs(1, [(np.int32(7), 1), (2, 5), (3, 6)])


# the pool has 4 words: 2^96 + 7 fills it exactly, and 2^128 + 1 and
# 2^200 + 3 have five and seven seed words, mixed in after the pool's
# set-up; indices from 2^32 on have a two-word spawn key
@pytest.mark.parametrize(
    "seed", [0, 1, 97, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7, 2**128 + 1, 2**200 + 3]
)
@pytest.mark.parametrize("index", [0, 255, 256, 2**32 - 1, 2**32, 2**32 + 300])
def test_seed_block_rows_equal_seed_sequence_state(seed, index):
    block, row = divmod(index, SEED_BLOCK)
    want = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(4, np.uint64)
    got = _seed_block(seed, block)[row]
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


def test_seed_blocks_equal_seed_sequence_state_on_every_row():
    cases = (
        (0, 0),
        (97, 3),
        (2**64 + 5, 2**24 - 1),
        (2**32, 2**24),
        (2**96 + 7, 5),
        (2**200 + 3, 2**24 + 5),
    )
    for seed, block in cases:
        want = [
            np.random.SeedSequence(seed, spawn_key=(block * SEED_BLOCK + r,))
            .generate_state(4, np.uint64)
            for r in range(SEED_BLOCK)
        ]
        assert np.array_equal(_seed_block(seed, block), want)


def reference_partner(n: int, seed: int, index: int) -> np.ndarray:
    """The stream's one definition, built the slow way."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    perm = np.random.default_rng(ss).permutation(6 * n) + 1
    return Gluing.from_pairs(n, zip(perm[0::2].tolist(), perm[1::2].tolist())).partner


def forget_draws():
    """Empty the sampler's caches, so that the next draw from any block is its first."""
    gluing._seed_block.cache_clear()
    gluing._partner_block.cache_clear()


@pytest.fixture
def fresh_sampler():
    forget_draws()


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
def test_samples_equal_the_seed_sequence_reference(fresh_sampler, n):
    rows = block_rows(n)
    assert rows == {1: 256, 2: 256, 10: 64, 1000: 1}[n]
    # block edges; indices from 2^32 on have a two-word spawn key
    edges = (rows - 1, rows, 255, 256, 2**32 - 1, 2**32)
    cases = [(2024, i) for i in edges] + [(0, 0), (7, 2**32 + 9), (2**64 + 5, 1)]
    for seed, index in cases + [(np.int64(2**40 + 3), np.uint64(2**33 + 1))]:
        want = reference_partner(n, int(seed), int(index))
        # the first draw builds the partner block; the second reads it
        for _ in range(2):
            assert np.array_equal(sample_uniform_gluing(n, seed, index).partner, want)


def test_every_index_of_a_seed_block_equals_the_reference(fresh_sampler):
    for index in range(SEED_BLOCK):
        want = reference_partner(10, 31, index)
        assert np.array_equal(sample_uniform_gluing(10, 31, index).partner, want)


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_draw_order_does_not_change_samples(n):
    indices = range(2 * SEED_BLOCK + 3)
    consecutive = {
        (seed, i): sample_uniform_gluing(n, seed, i).partner.copy()
        for seed in (5, 6)
        for i in indices
    }
    orders = {
        "reverse": [(5, i) for i in reversed(indices)],
        "interleaved": [(seed, i) for i in indices for seed in (5, 6)],
        # each the first draw from its seed block
        "one-off": [(5, 0), (6, 257), (5, 514), (6, 3)],
    }
    for order in orders.values():
        forget_draws()
        for seed, i in order:
            got = sample_uniform_gluing(n, seed, i).partner
            assert np.array_equal(got, consecutive[seed, i]), (order, seed, i)


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


@pytest.mark.parametrize("n, samples", [(100, 50), (1000, 10), (10_000, 2)])
def test_topology_matches_the_reference_on_large_samples(n, samples):
    # large cusps are where the cusp-seeded forest does most of the merging
    for i in range(samples):
        g = sample_uniform_gluing(n, seed=23, index=i)
        assert topology(g) == reference_topology(g)


def test_topology_of_unions_of_sampled_gluings():
    # two components sit side by side: seeding from the cusps never joins them
    for i in range(0, 10, 2):
        pair = [sample_uniform_gluing(300, seed=29, index=i + k) for k in (0, 1)]
        g = side_by_side(pair)
        report = topology(g)
        assert report == reference_topology(g)
        assert report.component_count == sum(topology(h).component_count for h in pair)
        assert not report.connected


@pytest.mark.parametrize("n", [3, 1001])
def test_topology_of_a_single_orbit_of_all_labels(n):
    # every run of window minima lies on one cycle, the longest there can be
    g = one_cusp_gluing(sample_uniform_gluing(n, seed=43, index=0))
    report = topology(g)
    assert report == reference_topology(g)
    assert report.cusp_degrees == (6 * n,)
    assert report.total_genus == (n + 1) // 2


def test_topology_when_every_cusp_fits_in_the_doubling_window():
    # every orbit is settled by the plain rounds, so no run is contracted
    short = short_cusp_gluings()
    g = side_by_side(short)
    report = topology(g)
    assert report == reference_topology(g)
    assert report.component_count >= len(short)
    assert max(report.cusp_degrees) == 2**gluing.WINDOW_ROUNDS


def test_topology_of_long_and_short_cusps_side_by_side():
    # contracted orbits and settled ones in one vertex permutation
    short = short_cusp_gluings()
    long = [
        one_cusp_gluing(sample_uniform_gluing(n, seed=47, index=0)) for n in (101, 151)
    ]
    g = side_by_side(short[:10] + long[:1] + short[10:] + long[1:])
    assert g.half_count >= 300
    report = topology(g)
    assert report == reference_topology(g)
    assert (606, 906) == report.cusp_degrees[-2:]


def test_topology_reads_a_read_only_partner_without_writing():
    g = sample_uniform_gluing(1000, seed=31, index=0)
    assert not g.partner.flags.writeable
    writable = Gluing.from_pairs(1000, g.pairs())
    before = writable.partner.copy()
    assert topology(g) == topology(writable) == reference_topology(g)
    assert np.array_equal(writable.partner, before)


gluings_up_to_40 = st.integers(1, 40).flatmap(
    lambda n: st.permutations(range(1, 6 * n + 1)).map(
        lambda perm: Gluing.from_pairs(n, zip(perm[0::2], perm[1::2]))
    )
)


@settings(max_examples=60, deadline=None)
@given(gluings_up_to_40, st.none() | gluings_up_to_40)
def test_topology_equals_the_reference_on_random_gluings(g, other):
    # with a second gluing beside the first the surface is disconnected
    if other is not None:
        g = side_by_side([g, other])
    assert topology(g) == reference_topology(g)


def test_trusted_gluings_stay_frozen_and_equal_checked_ones():
    sampled = sample_uniform_gluing(10, seed=3, index=0)
    direct = Gluing._trusted(1, np.array([0, 4, 5, 6, 1, 2, 3]))
    for g in (sampled, direct):
        checked = Gluing.from_pairs(g.half_count, g.pairs())
        assert vars(g).keys() == vars(checked).keys()
        assert g.half_count == checked.half_count
        assert np.array_equal(g.partner, checked.partner)
        for field in dataclasses.fields(Gluing):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, field.name, getattr(g, field.name))


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


def test_topology_refuses_an_odd_euler_characteristic_below_two(torus_gluing, monkeypatch):
    # two cusps of degree 3 on the two triangles of N = 1: chi = 2 - 1 = 1,
    # which only the parity half of the Euler check catches
    fake = np.array([0, 2, 3, 1, 5, 6, 4])
    monkeypatch.setattr("randsurf.gluing.vertex_permutation", lambda g: fake)
    with pytest.raises(
        RuntimeError, match="component Euler characteristic 1 is not even and <= 2"
    ):
        topology(torus_gluing)


def test_topology_errors_name_the_component_of_least_root(monkeypatch):
    # two components break one invariant each; the one whose root, its least
    # triangle, is smaller is named, even where it is the larger component.
    # First triangles 1-3 and triangle 4, each with one side glued to itself
    broken = Gluing._trusted(2, np.array([0, 4, 3, 2, 1, 7, 6, 5, 9, 8, 11, 10, 12]))
    with pytest.raises(RuntimeError, match="component with 3 triangles"):
        topology(broken)
    # triangles 1-4 and 5-6; with every label a cusp, chi = 5T/2 is 10 and 5
    two = Gluing.from_pairs(
        3,
        [(1, 4), (2, 7), (3, 10), (5, 6), (8, 9), (11, 12), (13, 16), (14, 17), (15, 18)],
    )
    assert topology(two).component_count == 2
    monkeypatch.setattr("randsurf.gluing.vertex_permutation", lambda g: np.arange(19))
    with pytest.raises(RuntimeError, match="Euler characteristic 10 "):
        topology(two)


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
