import hashlib
import itertools
import math
import random

import pytest

from bidouble.errors import ConsistencyError, DomainError, ShapeError
from bidouble.geometry import BranchTriple
from bidouble.lattice import (
    DivisorClass,
    IntersectionLattice,
    _orderings,
    _swap_runs,
    arithmetic_genus,
    brute_force_search,
    delpezzo_lattice,
    k3_024_lattice,
    p1xp1_lattice,
    pair,
    preset_lattice,
    rank1_bidouble_lattice,
)
from bidouble.numerics import UlrichCandidate


def full_scan(lat, bound, degree_target, selfint_target):
    # Reference scan of every cell of the box; the pruned search is held to
    # its result, order included.
    out = []
    gh = [sum(g * h for g, h in zip(row, lat.h.coords)) for row in lat.gram]
    for coords in itertools.product(range(-bound, bound + 1), repeat=lat.rank):
        if sum(c * v for c, v in zip(coords, gh)) != degree_target:
            continue
        gd = [sum(g * c for g, c in zip(row, coords)) for row in lat.gram]
        if sum(c * v for c, v in zip(coords, gd)) == selfint_target:
            out.append(DivisorClass(coords))
    return out


def exact_det(gram):
    # Leibniz expansion; fine at these ranks and keeps the test independent
    # of any linear-algebra library.
    n = len(gram)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= gram[i][perm[i]]
        total += term
    return total


def test_divisor_class_arithmetic():
    d = DivisorClass((1, -2, 3))
    e = DivisorClass((0, 1, 1))
    assert (d + e).coords == (1, -1, 4)
    assert (d - e).coords == (1, -3, 2)
    assert (-d).coords == (-1, 2, -3)
    assert (3 * d).coords == (3, -6, 9)
    assert (d * -1).coords == (-1, 2, -3)
    assert DivisorClass.zero(4).coords == (0, 0, 0, 0)
    assert DivisorClass.basis(3, 1).coords == (0, 1, 0)
    assert len(d) == 3


def test_divisor_class_adds_plain_tuples():
    d = DivisorClass((1, -2))
    assert d == (1, -2)
    assert (3, 4) + d == d + (3, 4) == DivisorClass((4, 2))
    assert isinstance((3, 4) + d, DivisorClass)


def test_divisor_class_repr():
    d = DivisorClass([1, -2])
    assert repr(d) == "DivisorClass([1, -2])"
    assert eval(repr(d), {"DivisorClass": DivisorClass}) == d


def test_divisor_class_shape_mismatch():
    with pytest.raises(ShapeError):
        DivisorClass((1, 2)) + DivisorClass((1, 2, 3))


def test_divisor_class_rejects_non_integers():
    # Coordinates are exact integers; nothing is truncated or parsed.
    for coords in [(1.5, 2.9), (2.0,), ("3",), (True, 0), (1, False), (1, None)]:
        with pytest.raises(DomainError):
            DivisorClass(coords)
    with pytest.raises(DomainError):
        0.5 * DivisorClass((2, 4))


def test_lattice_validation():
    with pytest.raises(DomainError):
        IntersectionLattice(
            rank=2,
            basis_labels=("a", "b"),
            gram=((1, 2), (3, 1)),
            h=DivisorClass((1, 0)),
            k=DivisorClass((0, 0)),
        )
    with pytest.raises(ShapeError):
        IntersectionLattice(
            rank=2,
            basis_labels=("a",),
            gram=((1, 0), (0, 1)),
            h=DivisorClass((1, 0)),
            k=DivisorClass((0, 0)),
        )
    with pytest.raises(ShapeError):
        IntersectionLattice(
            rank=2,
            basis_labels=("a", "b"),
            gram=((1, 0), (0, 1)),
            h=DivisorClass((1, 0, 0)),
            k=DivisorClass((0, 0)),
        )
    # H^2 <= 0 is rejected: the polarization must be positive
    with pytest.raises(DomainError):
        IntersectionLattice(
            rank=2,
            basis_labels=("a", "b"),
            gram=((-1, 0), (0, -1)),
            h=DivisorClass((1, 0)),
            k=DivisorClass((0, 0)),
        )


def plane_lattice(**changes):
    fields = dict(
        rank=2,
        basis_labels=("a", "b"),
        gram=((1, 0), (0, 1)),
        h=DivisorClass((1, 0)),
        k=DivisorClass((0, 0)),
    )
    return IntersectionLattice(**(fields | changes))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: BranchTriple(0, 2, 4.0), DomainError),
        (lambda: BranchTriple(False, 1, 1), DomainError),
        (lambda: DivisorClass(c for c in (1, 0.5)), DomainError),
        (lambda: UlrichCandidate(DivisorClass((1,)), True, 2), DomainError),
        (
            lambda: plane_lattice(
                rank=0, basis_labels=(), gram=(), h=DivisorClass(()), k=DivisorClass(())
            ),
            DomainError,
        ),
        (lambda: plane_lattice(gram=((1, 0), (0,))), ShapeError),
        (lambda: plane_lattice(k=DivisorClass((0,))), ShapeError),
    ],
    ids=["triple_float", "triple_bool", "class_from_generator", "candidate_bool_c2",
         "lattice_rank0", "lattice_ragged_gram", "lattice_short_k"],
)
def test_record_constructors_validate(build, error):
    # The cases the other validation tests leave out.
    with pytest.raises(error):
        build()


def test_k3_024_pairings():
    lat = k3_024_lattice()
    h = lat.h
    assert pair(lat, h, h) == 4
    assert pair(lat, h, lat.k) == 0
    gamma1 = lat.basis_class("Gamma1")
    gamma2 = lat.basis_class("Gamma2")
    e1 = lat.basis_class("E1'")
    e2 = lat.basis_class("E2'")
    assert pair(lat, gamma1, gamma1) == 0
    assert pair(lat, gamma1, gamma2) == 2
    assert pair(lat, gamma1, e1) == 1
    assert pair(lat, e1, e1) == -2
    assert pair(lat, e1, e2) == 0
    assert pair(lat, h, e1) == 2
    assert pair(lat, h, e2) == 2
    assert lat.chi == 2
    with pytest.raises(DomainError):
        lat.basis_class("nope")


def test_delpezzo_lattice():
    lat = delpezzo_lattice(4)
    assert lat.rank == 6
    assert pair(lat, lat.h, lat.h) == 4
    assert pair(lat, lat.h, lat.k) == -4
    assert lat.k == -1 * lat.h
    line = DivisorClass((1, 0, 0, 0, 0, 0))
    exc = DivisorClass((0, 1, 0, 0, 0, 0))
    assert pair(lat, line, line) == 1
    assert pair(lat, exc, exc) == -1
    assert pair(lat, line, exc) == 0
    assert arithmetic_genus(lat, line) == 0
    assert arithmetic_genus(lat, exc) == 0
    # degree bounds
    assert delpezzo_lattice(9).rank == 1
    assert delpezzo_lattice(1).rank == 9
    with pytest.raises(DomainError):
        delpezzo_lattice(0)
    with pytest.raises(DomainError):
        delpezzo_lattice(10)


def test_p1xp1_lattice():
    lat = p1xp1_lattice()
    f1 = DivisorClass((1, 0))
    f2 = DivisorClass((0, 1))
    assert pair(lat, f1, f1) == 0
    assert pair(lat, f1, f2) == 1
    assert pair(lat, lat.h, lat.h) == 2
    assert arithmetic_genus(lat, f1) == 0
    assert arithmetic_genus(lat, lat.h) == 0


def test_rank1_bidouble_lattice():
    lat = rank1_bidouble_lattice((2, 4, 6))
    assert lat.rank == 1
    assert pair(lat, lat.h, lat.h) == 4
    assert lat.k.coords == (3,)  # m - 3 = 6 - 3
    assert pair(lat, lat.h, lat.k) == 12  # 2(n - 6)
    assert lat.chi == 11
    with pytest.raises(DomainError):
        rank1_bidouble_lattice((1, 1, 3))


def test_preset_dispatch():
    assert preset_lattice("p1xp1").name == "p1xp1"
    assert preset_lattice("k3_024").rank == 4
    assert preset_lattice("delpezzo", 4).rank == 6
    assert preset_lattice("delpezzo4").rank == 6
    assert preset_lattice("rank1_bidouble", 2, 2, 2).chi == 1
    assert preset_lattice("rank1_bidouble", (2, 2, 2)).chi == 1
    with pytest.raises(DomainError):
        preset_lattice("nope")
    with pytest.raises(DomainError):
        preset_lattice("p1xp1", 3)
    with pytest.raises(DomainError):
        preset_lattice("delpezzo")
    for params in ((2, 4), (5,), (5.0,)):
        with pytest.raises(DomainError, match="^rank1_bidouble takes three branch degrees$"):
            preset_lattice("rank1_bidouble", *params)


def test_parameterless_presets_refuse_parameters():
    for name in ("p1xp1", "k3_024"):
        with pytest.raises(DomainError, match=f"^{name} takes no parameters$"):
            preset_lattice(name, 1)


def test_delpezzo_degree_is_an_int():
    # Nothing is truncated or parsed: the degree is an int or a DomainError.
    for degree in (4.5, 4.0, "4", True, None):
        with pytest.raises(DomainError, match="must be an integer"):
            delpezzo_lattice(degree)
    for degree in (4.9, "4", True):
        with pytest.raises(DomainError, match="must be an integer"):
            preset_lattice("delpezzo", degree)


def test_delpezzo_compact_spelling():
    assert preset_lattice("delpezzo9").rank == 1
    assert preset_lattice("delpezzo04").name == "delpezzo4"
    for name, value in (("delpezzo0", "0"), ("delpezzo10", "10"), ("delpezzo00", "0")):
        with pytest.raises(DomainError, match=f"must be in 1..9, got {value}$"):
            preset_lattice(name)
    # ASCII digits only; other Unicode digits name no preset.
    for name in ("delpezzo\u00b2", "delpezzo\u0664", "delpezzo\uff14", "delpezzo-4", "delpezzo 4"):
        with pytest.raises(DomainError, match="unknown lattice preset"):
            preset_lattice(name)
    # A long digit string is refused by its length, never converted.
    with pytest.raises(DomainError, match="got a number of 5000 digits") as info:
        preset_lattice("delpezzo" + "1" * 5000)
    assert len(str(info.value)) < 200
    with pytest.raises(DomainError):
        preset_lattice("delpezzo4", 4)


def test_presets_nondegenerate():
    # None of the preset Gram forms has a kernel, so numerical equivalence
    # is coordinate equality on them.
    for lat in (k3_024_lattice(), p1xp1_lattice(), delpezzo_lattice(4),
                rank1_bidouble_lattice((2, 2, 2))):
        assert exact_det(lat.gram) != 0, lat.describe()


def test_pair_shape_error():
    lat = p1xp1_lattice()
    with pytest.raises(ShapeError):
        pair(lat, DivisorClass((1, 2, 3)), lat.h)


def test_genus_fraction():
    lat = k3_024_lattice()
    gamma1 = lat.basis_class("Gamma1")
    assert arithmetic_genus(lat, gamma1) == 1  # genus-one halves
    assert arithmetic_genus(lat, lat.h) == 3
    e1 = lat.basis_class("E1'")
    assert arithmetic_genus(lat, e1) == 0
    # L + H on delpezzo4: D^2 + D.K = 11 - 7 = 4, so the genus is 3
    dp = delpezzo_lattice(4)
    line = DivisorClass((1, 0, 0, 0, 0, 0))
    twisted = line + dp.h
    assert arithmetic_genus(dp, twisted) == 3
    # where K is not characteristic, D^2 + D.K can be odd: no integer genus
    odd = IntersectionLattice(
        rank=1, basis_labels=("H",), gram=((1,),), h=DivisorClass((1,)), k=DivisorClass((0,))
    )
    with pytest.raises(
        ConsistencyError,
        match=r"^D\^2 \+ D\.K = 1 is odd for D = \(1\) on rank-1 lattice: K is not "
        r"characteristic, and adjunction gives no integer genus$",
    ):
        arithmetic_genus(odd, odd.h)


def test_preset_canonical_classes_are_characteristic():
    # D^2 + D.K is even for every D exactly when G_ii + (G K)_i is even for
    # every i, so no preset class has a fractional genus.
    presets = [p1xp1_lattice(), k3_024_lattice()]
    presets += [delpezzo_lattice(d) for d in range(1, 10)]
    presets += [
        rank1_bidouble_lattice(t) for t in ((0, 2, 2), (0, 2, 6), (2, 2, 2), (2, 4, 6), (4, 4, 4))
    ]
    for lat in presets:
        for i in range(lat.rank):
            e = DivisorClass.basis(lat.rank, i)
            assert (pair(lat, e, e) + pair(lat, e, lat.k)) % 2 == 0, (lat.describe(), i)


def assert_matches_full_scan(lat, bound, deg, self_int):
    hits = brute_force_search(lat, bound, deg, self_int)
    assert hits == full_scan(lat, bound, deg, self_int), (
        lat.describe(), bound, deg, self_int)
    return hits


def test_search_matches_full_scan():
    cases = [
        (delpezzo_lattice(4), 2, 4, 2),
        (k3_024_lattice(), 4, 6, 4),
        (p1xp1_lattice(), 20, 4, 0),
        (rank1_bidouble_lattice((2, 2, 2)), 50, 12, 36),
    ]
    for lat, bound, deg, self_int in cases:
        hits = assert_matches_full_scan(lat, bound, deg, self_int)
        assert hits
        assert hits == sorted(hits, key=lambda d: d.coords)


def test_search_matches_full_scan_on_random_boxes():
    # Targets are read off a random class of the box, so most have hits;
    # the perturbed self-intersections probe near misses.
    rng = random.Random(20240)
    lattices = [delpezzo_lattice(d) for d in range(1, 10)] + [
        k3_024_lattice(), p1xp1_lattice(),
        rank1_bidouble_lattice((2, 2, 2)), rank1_bidouble_lattice((2, 4, 6)),
    ]
    total_hits = 0
    for _ in range(420):
        lat = rng.choice(lattices)
        bound = rng.randint(0, 6)
        while (2 * bound + 1) ** lat.rank > 1000:
            bound -= 1
        d = DivisorClass([rng.randint(-bound, bound) for _ in range(lat.rank)])
        self_int = pair(lat, d, d) + rng.choice((0, 0, 0, 1, -1, 2, -3))
        total_hits += len(assert_matches_full_scan(lat, bound, pair(lat, d, lat.h), self_int))
    assert total_hits > 500


def test_search_matches_full_scan_on_mid_size_boxes():
    # delpezzo4 is diagonal (every depth cached), k3_024 is coupled.
    assert len(assert_matches_full_scan(delpezzo_lattice(4), 4, 3, -5)) == 230
    assert len(assert_matches_full_scan(k3_024_lattice(), 12, 8, 0)) == 12


def hand_built(gram, h):
    rank = len(gram)
    return IntersectionLattice(
        rank=rank,
        basis_labels=tuple(f"b{i}" for i in range(rank)),
        gram=tuple(map(tuple, gram)),
        h=DivisorClass(h),
        k=DivisorClass.zero(rank),
    )


@pytest.mark.parametrize(
    "gram, h",
    [
        # G.h = (2, 1, 0): the last coordinate does not enter the degree, so
        # it is found by trying every value.
        pytest.param([[2, 1, 0], [1, -2, 1], [0, 1, -2]], (1, 0, 0), id="last_degree_zero"),
        # G.h = (2, 0, 1) and the last block [[0, 1], [1, 0]]: eliminating
        # the last coordinate leaves no square term (A = 0).
        pytest.param([[1, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 1, -1), id="degenerate_quadratic"),
    ],
)
def test_search_fallback(gram, h):
    lat = hand_built(gram, h)
    total = 0
    for deg in range(-4, 5):
        for self_int in range(-12, 13):
            total += len(assert_matches_full_scan(lat, 3, deg, self_int))
    assert total > 0


def test_search_degree_beyond_reach():
    # G.h = (0, 1, 0): the first coordinate does not enter the degree, and
    # the other two reach degrees of size 3 at most in the box of bound 3,
    # so a degree of 4 ends the search at the first coordinate.
    lat = hand_built([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 1, 0))
    for deg in (-4, 4):
        for self_int in (-1, 0, 16):
            assert brute_force_search(lat, 3, deg, self_int) == [] == full_scan(
                lat, 3, deg, self_int
            )


def assert_every_target(lat, bound):
    # One scan of the box buckets every class by its (degree, self-
    # intersection); the search must return each bucket for its target and
    # nothing for the targets between them.
    buckets = {}
    for coords in itertools.product(range(-bound, bound + 1), repeat=lat.rank):
        d = DivisorClass(coords)
        buckets.setdefault((pair(lat, d, lat.h), pair(lat, d, d)), []).append(d)
    degrees = [deg for deg, _ in buckets]
    self_ints = [s for _, s in buckets]
    for deg in range(min(degrees) - 1, max(degrees) + 2):
        for self_int in range(min(self_ints) - 1, max(self_ints) + 2):
            assert brute_force_search(lat, bound, deg, self_int) == buckets.get(
                (deg, self_int), []
            ), (lat.describe(), bound, deg, self_int)


def test_search_every_target_of_small_boxes():
    for d, bound in ((2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 3), (9, 3)):
        assert_every_target(delpezzo_lattice(d), bound)
    assert_every_target(k3_024_lattice(), 2)


def test_search_matches_full_scan_on_random_lattices():
    # Random symmetric Gram matrices reach every branch: either sign of the
    # square term, zero degree entries, coupled and decoupled blocks, and
    # targets off a class's own self-intersection, which the window of a
    # coupled suffix must reject no more of than the scan does.
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        rank = rng.randint(1, 5)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, 1, -1, 2, -2, 3))
        h = [rng.randint(-1, 2) for _ in range(rank)]
        if sum(h[i] * gram[i][j] * h[j] for i in range(rank) for j in range(rank)) <= 0:
            continue
        lat = hand_built(gram, h)
        bound = 3 if rank < 4 else 2
        d = DivisorClass([rng.randint(-bound, bound) for _ in range(rank)])
        self_int = pair(lat, d, d) + rng.choice((0, 0, 1, -1, -2, -4))
        assert_matches_full_scan(lat, bound, pair(lat, d, lat.h), self_int)
        checked += 1


# The seven queries of the benchmark's seed-1 lattice workload: preset, degree,
# self-intersection, bound, then the hit count and the SHA-256 of the repr of
# the ordered coordinate tuples.  The boxes hold 10^7 to 5*10^7 cells, beyond
# any full scan here, so their hits are pinned: a change to the enumerator
# must return them, order included.
WORKLOAD_BOXES = [
    ("delpezzo1", 2, -64, 3, 280,
     "83fe3c5d3d13e71fc066a7d128ccb2977714eaa73e2dbc7bf2ad9517c14b14ae"),
    ("delpezzo2", 3, -91, 4, 735,
     "13f4b4d5eeca65a4283981e770f5a280ba583989454467e0ddc865749a06514c"),
    ("delpezzo3", 6, -106, 5, 780,
     "89674f8a681bdc14fed1108567f10ac2bf15e079142c4db539aa1b869a1766bb"),
    ("delpezzo4", 3, -217, 8, 855,
     "4f88a25faa8bc2345c81dc8419ca3d9e95aab00c754d496aec804b8f7e347fa8"),
    ("delpezzo5", 5, -393, 13, 252,
     "270adbad10b6da7a5b0ba7c23b990149defe2616ee345092fc114902dd161d55"),
    ("k3_024", 20, -3300, 30, 146,
     "660fde53494f26263f0f6f8776695b42d9b320e941fe11537ac4e0498cc49115"),
    ("p1xp1", 361, -18480, 2000, 2,
     "d62d14db892cb5f3f5ed45223558910918b23caac0e334cd9a3c280db71ea2df"),
]


@pytest.mark.parametrize(
    "preset, deg, self_int, bound, count, digest", WORKLOAD_BOXES,
    ids=[box[0] for box in WORKLOAD_BOXES],
)
def test_search_pins_the_workload_boxes(preset, deg, self_int, bound, count, digest):
    hits = brute_force_search(preset_lattice(preset), bound, deg, self_int)
    assert len(hits) == count
    assert hashlib.sha256(repr([tuple(d) for d in hits]).encode()).hexdigest() == digest


def simple_roots(lat):
    # The simple roots e_i - e_{i+1} and, from three points on,
    # L - e1 - e2 - e3 of a del Pezzo lattice: each has alpha^2 = -2 and
    # alpha.K = 0, so s(D) = D + (D.alpha) alpha fixes H = -K and keeps D.H
    # and D^2 (Manin, "Cubic Forms", ch. IV).
    points = lat.rank - 1
    roots = [DivisorClass.basis(lat.rank, i) - DivisorClass.basis(lat.rank, i + 1)
             for i in range(1, points)]
    if points >= 3:
        roots.append(DivisorClass((1, -1, -1, -1) + (0,) * (points - 3)))
    for alpha in roots:
        assert pair(lat, alpha, alpha) == -2 and pair(lat, alpha, lat.k) == 0
    return roots


def reflect(lat, d, alpha):
    return d + pair(lat, d, alpha) * alpha


@pytest.mark.parametrize("box", WORKLOAD_BOXES[:5], ids=lambda box: box[0])
def test_search_is_closed_under_simple_reflections(box):
    # Every image of a hit under a simple reflection that stays in the box
    # is a hit too.  The boxes and targets are the workload's, on delpezzo1
    # to delpezzo5.  The search itself uses only the swaps e_i <-> e_{i+1};
    # on delpezzo4 and delpezzo5 the reflection in L - e1 - e2 - e3 also
    # keeps some hits in the box, and so checks the expanded orbits from
    # outside them.
    preset, deg, self_int, bound, _, _ = box
    lat = preset_lattice(preset)
    roots = simple_roots(lat)
    hits = brute_force_search(lat, bound, deg, self_int)
    found = set(hits)
    moved = 0
    for d in hits:
        for alpha in roots:
            image = reflect(lat, d, alpha)
            if image != d and max(map(abs, image)) <= bound:
                assert image in found, (d, alpha, image)
                moved += 1
    assert moved > 500


# The lines (D.H = 1, D^2 = -1) of the del Pezzo surfaces of degree 7 to 2:
# 3, 6, 10, 16, 27 and 56 (Manin, "Cubic Forms", ch. IV), the least box that
# holds them all (delpezzo4 at bound 1 holds only 15, delpezzo2 at bound 2
# only 49), and how many of them the reflection in L - e1 - e2 - e3 moves
# (delpezzo7 has no such root).
LINE_BOXES = [("delpezzo7", 1, 3, None), ("delpezzo6", 1, 6, 6), ("delpezzo5", 1, 10, 6),
              ("delpezzo4", 2, 16, 8), ("delpezzo3", 2, 27, 12), ("delpezzo2", 3, 56, 24)]


@pytest.mark.parametrize("preset, bound, count, moved", LINE_BOXES,
                         ids=[box[0] for box in LINE_BOXES])
def test_search_finds_every_line_and_each_reflection_permutes_them(preset, bound, count, moved):
    # The box holds every line, so each simple reflection maps the hits onto
    # themselves, with no image leaving the box.  The reflection in
    # L - e1 - e2 - e3 moves lines the swaps e_i <-> e_{i+1} do not reach,
    # so it checks the search from outside the symmetry it uses itself.
    lat = preset_lattice(preset)
    hits = brute_force_search(lat, bound, 1, -1)
    assert len(hits) == count
    assert all(arithmetic_genus(lat, d) == 0 for d in hits)
    roots = simple_roots(lat)
    for alpha in roots:
        assert sorted(reflect(lat, d, alpha) for d in hits) == hits, alpha
    if lat.rank > 3:  # roots[-1] is L - e1 - e2 - e3
        assert sum(reflect(lat, d, roots[-1]) != d for d in hits) == moved


def gram_dot_h(lat):
    return [sum(g * h for g, h in zip(row, lat.h)) for row in lat.gram]


def test_swap_runs_of_every_preset():
    # The runs of adjacent coordinates whose swaps fix the Gram matrix and
    # G.h: the points e_i of a del Pezzo, the two Gamma and the two E' of
    # k3_024, the two rulings of p1xp1; a lone e1 or a rank-one lattice has
    # none.
    expected = {f"delpezzo{d}": [(1, 10 - d)] for d in range(1, 8)}
    expected |= {"delpezzo8": [], "delpezzo9": [], "p1xp1": [(0, 2)],
                 "k3_024": [(0, 2), (2, 4)]}
    for name, runs in expected.items():
        lat = preset_lattice(name)
        assert _swap_runs(lat.gram, gram_dot_h(lat)) == runs, name
    for triple in ((2, 2, 2), (2, 4, 6)):
        lat = rank1_bidouble_lattice(triple)
        assert _swap_runs(lat.gram, gram_dot_h(lat)) == []


@pytest.mark.parametrize(
    "values",
    [(), (5,), (2, 2), (3, -1), (0, 1, 0), (2, 1, 1, 0, 0, 0), (3, 2, 1, 0),
     (1, 1, 0, 0, 0, -1, -1, -1)],
    ids=str,
)
def test_orderings_once_each_in_lexicographic_order(values):
    orderings = _orderings(values)
    assert orderings == sorted(set(itertools.permutations(values)))
    multinomial = math.factorial(len(values))
    for v in set(values):
        multinomial //= math.factorial(values.count(v))
    assert len(orderings) == multinomial


@pytest.mark.parametrize(
    "gram, h, runs",
    [
        # G.h = (2, 2, 2, 1): a decoupled run of positive degree at the front.
        pytest.param([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                     (-1, -1, 2, 1), [(0, 2)], id="front_decoupled_positive"),
        # G.h = (5, -2, -2, 4): a run of negative degree in the middle,
        # coupled to the coordinates on both sides.
        pytest.param([[1, 1, 1, 0], [1, -2, 1, 2], [1, 1, -2, 2], [0, 2, 2, 0]],
                     (3, 1, 1, -2), [(1, 3)], id="middle_coupled_negative"),
        # G.h = (4, 1, 0, 0): a coupled run of degree zero at the tail, which
        # leaves the last two coordinates to the descent.
        pytest.param([[2, 1, 1, 1], [1, 0, 0, 0], [1, 0, -2, 1], [1, 0, 1, -2]],
                     (1, 0, 1, 1), [(2, 4)], id="tail_coupled_zero"),
        # G.h = (4, 1, 1, 1): a decoupled tail run, as on a del Pezzo, with the
        # mean bound and the quadratic for the last two coordinates.
        pytest.param([[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                     (2, -1, -1, -1), [(1, 4)], id="tail_decoupled_positive"),
        # G.h = (2, 0, 0, 1) and (2, 0, 0, 0): decoupled runs of degree zero,
        # where no mean bound applies and only the run's cap and the
        # self-intersection window bound each coordinate.
        pytest.param([[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
                     (1, 0, 0, 1), [(1, 3)], id="middle_decoupled_zero"),
        pytest.param([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                     (2, 0, 0, 0), [(1, 4)], id="tail_decoupled_zero"),
        # G.h = (3, -1, -1): the mean bound at a negative degree entry.
        pytest.param([[3, 0, 0], [0, 1, 0], [0, 0, 1]], (1, -1, -1), [(1, 3)],
                     id="tail_decoupled_negative"),
        # G.h = (2, 2, 2): every coordinate in one coupled run.
        pytest.param([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 1, 1), [(0, 3)],
                     id="whole_coupled_positive"),
    ],
)
def test_search_matches_full_scan_with_planted_runs(gram, h, runs):
    # The search keeps one representative per orbit of the swaps of each
    # run and expands it back; every target of each box, bound 0 included,
    # must still give the scan's classes in the scan's order.
    lat = hand_built(gram, h)
    assert _swap_runs(lat.gram, gram_dot_h(lat)) == runs
    for bound in (0, 1, 2):
        assert_every_target(lat, bound)


def test_search_box_semantics():
    lat = p1xp1_lattice()
    # only the zero vector sits in the bound-0 box
    assert brute_force_search(lat, 0, 0, 0) == [DivisorClass((0, 0))]
    assert brute_force_search(lat, 0, 1, 0) == []
    with pytest.raises(DomainError):
        brute_force_search(lat, -1, 0, 0)
    # degrees on p1xp1: (a, b).H = a + b, (a, b)^2 = 2ab
    hits = brute_force_search(lat, 3, 2, 0)
    assert DivisorClass((0, 2)) in hits
    assert DivisorClass((2, 0)) in hits
    for d in hits:
        assert pair(lat, d, lat.h) == 2
        assert pair(lat, d, d) == 0


def test_search_cell_cap():
    lat = delpezzo_lattice(1)  # rank 9
    with pytest.raises(DomainError):
        brute_force_search(lat, 10, 0, 0)


def test_delpezzo4_conic_classes():
    lat = delpezzo_lattice(4)
    hits = brute_force_search(lat, 3, 4, 2)
    assert DivisorClass((2, -1, -1, 0, 0, 0)) in hits
    for d in hits:
        assert pair(lat, d, lat.h) == 4
        assert pair(lat, d, d) == 2
        assert arithmetic_genus(lat, d) == 0
