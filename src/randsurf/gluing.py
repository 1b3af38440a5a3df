"""Random gluings of 2N ideal triangles along their 6N sides.

Triangle i (1-based) owns the side labels 3i-2, 3i-1, 3i, in cyclic
order.  A gluing is a perfect matching of {1, ..., 6N}; there are
(6N-1)!! of them and the model picks one uniformly.

Orientation convention: a Left turn moves to the cyclic successor
inside a triangle (3i-2 -> 3i-1 -> 3i -> 3i-2) and a Right turn to
the predecessor.  Crossing to the matched partner of the exit side
gives the step map, which is a bijection on labels for each turn.

Labels are 1-based everywhere in this module; the partner array keeps
a dummy slot 0 mapped to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

TURNS = ("L", "R")


def _check_half_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")


def triangle_of(side: int) -> int:
    return (side + 2) // 3


def next_side(side: int, turn: str) -> int:
    """Neighbouring side label inside the same triangle."""
    if turn not in TURNS:
        raise ValueError(f"turn must be 'L' or 'R', got {turn!r}")
    base = (side - 1) // 3 * 3
    off = (side - 1) % 3
    if turn == "L":
        off = (off + 1) % 3
    else:
        off = (off + 2) % 3
    return base + off + 1


@lru_cache(maxsize=64)
def _next_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """next_side as label-indexed arrays (slot 0 is a dummy).

    Cached per N and shared by every caller, hence read-only.
    """
    sides = np.arange(6 * n, dtype=np.int64)
    base = sides // 3 * 3
    left = np.concatenate(([0], base + (sides + 1) % 3 + 1))
    right = np.concatenate(([0], base + (sides + 2) % 3 + 1))
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


@dataclass(frozen=True)
class Gluing:
    """A perfect matching of the 6N side labels.

    partner[s] is the label matched with s; partner is an involution
    without fixed points on 1..6N.
    """

    half_count: int
    partner: np.ndarray

    def __post_init__(self):
        n = self.half_count
        _check_half_count(n)
        p = self.partner
        if p.shape != (6 * n + 1,):
            raise ValueError(f"partner array must have length {6 * n + 1}")
        labels = np.arange(6 * n + 1)
        try:
            bad = p[0] != 0 or (p[1:] == labels[1:]).any() or (p[p] != labels).any()
        except IndexError:  # entries out of range or not integers
            bad = True
        if bad:
            raise ValueError("partner must be a fixed-point-free involution on labels")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Gluing":
        _check_half_count(n)
        partner = np.zeros(6 * n + 1, dtype=np.int64)
        for a, b in pairs:
            if not (1 <= a <= 6 * n and 1 <= b <= 6 * n):
                raise ValueError(f"labels out of range: ({a}, {b})")
            partner[a] = b
            partner[b] = a
        return cls(half_count=n, partner=partner)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for s in range(1, 6 * self.half_count + 1):
            t = int(self.partner[s])
            if s < t:
                out.append((s, t))
        return tuple(out)

    def partner_of(self, side: int) -> int:
        return int(self.partner[side])


def sample_uniform_gluing(n: int, seed: int, index: int) -> Gluing:
    """Uniform gluing from the stream determined by (seed, index).

    The sample depends only on the pair (seed, index): drawing sample
    index i is identical whether it happens in a serial loop or inside
    a worker, which is what makes parallel runs reproducible.
    """
    _check_half_count(n)
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be nonnegative integers")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    perm = np.random.default_rng(ss).permutation(6 * n)
    partner = np.zeros(6 * n + 1, dtype=np.int64)
    left = perm[0::2] + 1
    right = perm[1::2] + 1
    partner[left] = right
    partner[right] = left
    return Gluing(half_count=n, partner=partner)


def step(g: Gluing, side: int, turn: str) -> int:
    """Exit through the turn-side of the current triangle and cross over."""
    if not 1 <= side <= 6 * g.half_count:
        raise ValueError(f"side out of range: {side}")
    return int(g.partner[next_side(side, turn)])


def step_arrays(g: Gluing) -> tuple[np.ndarray, np.ndarray]:
    """step as label-indexed arrays, one per turn (slot 0 is a dummy)."""
    left, right = _next_arrays(g.half_count)
    return g.partner[left], g.partner[right]


def vertex_permutation(g: Gluing) -> np.ndarray:
    """Permutation whose orbits are the cusps: cross over, then turn Left."""
    left, _ = _next_arrays(g.half_count)
    return left[g.partner]


@dataclass(frozen=True)
class TopologyReport:
    connected: bool
    component_count: int
    cusp_count: int
    euler_characteristic: int
    total_genus: int
    cusp_degrees: tuple[int, ...]


def _orbit_sizes(perm: np.ndarray, start: int) -> Iterator[tuple[int, int]]:
    """(representative, orbit size) for each orbit of perm on start..len-1."""
    n = len(perm)
    seen = bytearray(n)
    for s in range(start, n):
        if seen[s]:
            continue
        size = 0
        t = s
        while not seen[t]:
            seen[t] = 1
            size += 1
            t = int(perm[t])
        yield s, size


def topology(g: Gluing) -> TopologyReport:
    """Cusps, Euler characteristic, connectivity and genus of the surface.

    Gluings are kept even when the surface is disconnected; the genus
    is then the sum of the per-component genera, each obtained from the
    component Euler characteristic V - E + F = 2 - 2g.
    """
    n = g.half_count
    v = vertex_permutation(g)

    # connected components of the triangle adjacency, by union-find
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

    triangles_in: dict[int, int] = {}
    for t in range(1, 2 * n + 1):
        r = find(t)
        triangles_in[r] = triangles_in.get(r, 0) + 1

    cusps_in: dict[int, int] = {}
    degrees = []
    for rep, size in _orbit_sizes(v, 1):
        degrees.append(size)
        r = find(triangle_of(rep))
        cusps_in[r] = cusps_in.get(r, 0) + 1

    total_genus = 0
    for r, tri in triangles_in.items():
        if tri % 2:
            raise RuntimeError(f"component with {tri} triangles has an odd side count")
        chi = cusps_in.get(r, 0) - tri // 2  # V - 3T/2 + T
        if chi > 2 or chi % 2:
            raise RuntimeError(f"component Euler characteristic {chi} is not even and <= 2")
        total_genus += (2 - chi) // 2

    cusp_count = len(degrees)
    return TopologyReport(
        connected=len(triangles_in) == 1,
        component_count=len(triangles_in),
        cusp_count=cusp_count,
        euler_characteristic=cusp_count - n,  # V - E + F = n - 3N + 2N
        total_genus=total_genus,
        cusp_degrees=tuple(sorted(degrees)),
    )
