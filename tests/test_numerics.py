import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import bidouble.numerics as numerics_module
from bidouble.classify import classify_triple
from bidouble.errors import ConsistencyError, DomainError
from bidouble.geometry import validate_triple
from bidouble.lattice import (
    DivisorClass,
    brute_force_search,
    IntersectionLattice,
    delpezzo_lattice,
    k3_024_lattice,
    p1xp1_lattice,
    pair,
    rank1_bidouble_lattice,
)
from bidouble.numerics import (
    UlrichCandidate,
    check_numerical_ulrich,
    is_perfect_square,
    odd_rank_obstruction,
    p1xp1_line_search,
    rank1_rho1_search,
    special_ulrich_targets,
    verify_024_certificate,
)

RESIDUAL = re.compile(r"n1\^2 \+ n2\^2 \+ n3\^2 = (\d+) != 0$")


def even_triples(max_degree):
    for n1 in range(0, max_degree + 1, 2):
        for n2 in range(max(n1, 2), max_degree + 1, 2):
            for n3 in range(n2, max_degree + 1, 2):
                yield validate_triple((n1, n2, n3))


def odd_triples(max_degree):
    for n1 in range(1, max_degree + 1, 2):
        for n2 in range(n1, max_degree + 1, 2):
            for n3 in range(n2, max_degree + 1, 2):
                yield validate_triple((n1, n2, n3))


def test_candidate_validation():
    with pytest.raises(DomainError):
        UlrichCandidate(DivisorClass((1,)), 0, 0)
    with pytest.raises(DomainError):
        UlrichCandidate(DivisorClass((1,)), 0, True)
    with pytest.raises(DomainError):
        UlrichCandidate(DivisorClass((1,)), 5, 1)  # rank 1 needs c2 = 0
    with pytest.raises(DomainError):
        UlrichCandidate(DivisorClass((1,)), "0", 2)
    UlrichCandidate(DivisorClass((1,)), 5, 2)


def test_check_numerical_ulrich_k3_witness():
    lat = k3_024_lattice()
    d = lat.h + lat.basis_class("Gamma1") + lat.basis_class("E1'") - lat.basis_class("E2'")
    assert d.coords == (2, 1, 1, -1)
    assert check_numerical_ulrich(lat, UlrichCandidate(d, 0, 1))
    # the wrong c2 or rank breaks it
    assert not check_numerical_ulrich(lat, UlrichCandidate(d, 2, 2))
    assert not check_numerical_ulrich(lat, UlrichCandidate(lat.h, 0, 1))


def test_check_numerical_ulrich_delpezzo_witness():
    lat = delpezzo_lattice(4)
    conic = DivisorClass((2, -1, -1, 0, 0, 0))
    assert check_numerical_ulrich(lat, UlrichCandidate(conic, 0, 1))
    zero = DivisorClass.zero(6)
    assert pair(lat, 3 * lat.h + lat.k, lat.h) != 0
    assert not check_numerical_ulrich(lat, UlrichCandidate(zero, 0, 1))


def test_check_numerical_ulrich_rank2_special():
    # c1 = mH, c2 = M satisfies both equalities on the rank-1 sublattice
    for t in [(2, 2, 2), (0, 2, 4), (0, 4, 4), (2, 4, 6), (4, 4, 4)]:
        t = validate_triple(t)
        lat = rank1_bidouble_lattice(t)
        targets = special_ulrich_targets(t)
        cand = UlrichCandidate(
            DivisorClass((targets.m,)), targets.big_m, 2
        )
        assert check_numerical_ulrich(lat, cand), t.as_tuple()


def test_check_numerical_ulrich_chi_handling():
    lat = IntersectionLattice(
        rank=1,
        basis_labels=("H",),
        gram=((4,),),
        h=DivisorClass((1,)),
        k=DivisorClass((0,)),
        chi=None,
    )
    cand = UlrichCandidate(DivisorClass((1,)), 0, 1)
    with pytest.raises(DomainError):
        check_numerical_ulrich(lat, cand)


def test_check_numerical_ulrich_kernel_invariance():
    # On a degenerate pairing, classes differing by a kernel vector are
    # numerically equal and must get identical verdicts.
    lat = IntersectionLattice(
        rank=2,
        basis_labels=("a", "b"),
        gram=((4, 4), (4, 4)),
        h=DivisorClass((1, 0)),
        k=DivisorClass((0, 0)),
        chi=2,
    )
    kernel = DivisorClass((1, -1))
    assert pair(lat, kernel, lat.h) == 0
    assert pair(lat, kernel, kernel) == 0
    for base in [DivisorClass((1, 0)), DivisorClass((3, -2)), DivisorClass((0, 2))]:
        for c2 in (0, 4, -6):
            for rank in (1, 2, 3):
                if rank == 1 and c2 != 0:
                    continue
                cand = UlrichCandidate(base, c2, rank)
                shifted = UlrichCandidate(base + kernel, c2, rank)
                assert check_numerical_ulrich(lat, cand) == check_numerical_ulrich(
                    lat, shifted
                )


def c2_reference(lat, c1, rank):
    """Right-hand side of Equality (2.2), c2 = (c1^2 - c1.K)/2 - r (H^2 - chi)."""
    c1_sq_minus_k = pair(lat, c1, c1) - pair(lat, c1, lat.k)
    return Fraction(c1_sq_minus_k, 2) - rank * (pair(lat, lat.h, lat.h) - lat.chi)


def ulrich_reference(lat, c1, c2, rank):
    """Equalities (2.1) and (2.2) as the paper states them (Prop. 2.3; also
    Beauville, "An introduction to Ulrich bundles", Eur. J. Math. 4, 2018),
    evaluated in Fractions without clearing the halves:

        (2.1)  c1.H = (r/2) (3H + K).H
        (2.2)  c2   = (c1^2 - c1.K)/2 - r (H^2 - chi)
    """
    h = lat.h
    degree_ok = Fraction(pair(lat, c1, h)) == Fraction(rank, 2) * pair(lat, 3 * h + lat.k, h)
    return degree_ok and Fraction(c2) == c2_reference(lat, c1, rank)


def assert_matches_reference(lat, c1, c2, rank):
    got = check_numerical_ulrich(lat, UlrichCandidate(c1, c2, rank))
    assert got == ulrich_reference(lat, c1, c2, rank), (lat.describe(), c1, c2, rank)
    return got


def c2_choices(lat, c1, rank, rng):
    """c2 at the (2.2) target where it is integral, and around it."""
    if rank == 1:
        return [0]
    floor = math.floor(c2_reference(lat, c1, rank))
    return [floor - 1, floor, floor + 1, rng.randint(-50, 50)]


def random_gram_lattice(rng):
    while True:
        rank = rng.randint(1, 4)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        h = [rng.randint(-2, 2) for _ in range(rank)]
        if sum(h[i] * gram[i][j] * h[j] for i in range(rank) for j in range(rank)) > 0:
            return IntersectionLattice(
                rank=rank,
                basis_labels=tuple(f"e{i}" for i in range(rank)),
                gram=tuple(map(tuple, gram)),
                h=DivisorClass(h),
                k=DivisorClass([rng.randint(-3, 3) for _ in range(rank)]),
                chi=rng.randint(-3, 5),
            )


def preset_lattices():
    return [delpezzo_lattice(d) for d in range(1, 10)] + [
        k3_024_lattice(),
        p1xp1_lattice(),
        rank1_bidouble_lattice((2, 2, 2)),
        rank1_bidouble_lattice((2, 4, 6)),
        rank1_bidouble_lattice((0, 2, 4)),
    ]


def test_check_numerical_ulrich_matches_fraction_reference():
    # Random integral c1 on every preset and on random Gram matrices, rank
    # 1-3, with c2 at the (2.2) target and off it.
    rng = random.Random(2018)
    lattices = preset_lattices() + [random_gram_lattice(rng) for _ in range(60)]
    outcomes = set()
    for lat in lattices:
        for _ in range(25):
            c1 = DivisorClass([rng.randint(-6, 6) for _ in range(lat.rank)])
            for rank in (1, 2, 3):
                for c2 in c2_choices(lat, c1, rank, rng):
                    outcomes.add(assert_matches_reference(lat, c1, c2, rank))
        # c1 on the (2.1) hyperplane wherever H is primitive enough to reach it
        for rank in (1, 2, 3):
            for c1 in itertools.product(range(-3, 4), repeat=min(lat.rank, 3)):
                c1 = DivisorClass(c1 + (0,) * (lat.rank - len(c1)))
                if 2 * pair(lat, c1, lat.h) == rank * pair(lat, 3 * lat.h + lat.k, lat.h):
                    for c2 in c2_choices(lat, c1, rank, rng):
                        outcomes.add(assert_matches_reference(lat, c1, c2, rank))
    assert outcomes == {True, False}


def test_check_numerical_ulrich_true_cases_match_reference():
    holds = {}
    for lat in preset_lattices():
        # Every class of a small box is a hit of some ``search lattice`` query.
        bound = 3
        while (2 * bound + 1) ** lat.rank > 3000:
            bound -= 1
        for coords in itertools.product(range(-bound, bound + 1), repeat=lat.rank):
            assert_matches_reference(lat, DivisorClass(coords), 0, 1)
        # The hits of the rank-1 Ulrich query are the true cases.  K is a
        # rational multiple of H on every preset, so c1.K follows from c1.H.
        h_sq, h_k = pair(lat, lat.h, lat.h), pair(lat, lat.k, lat.h)
        degree = Fraction(3 * h_sq + h_k, 2)
        selfint = degree * h_k / h_sq + 2 * (h_sq - lat.chi)
        hits = []
        if degree.denominator == 1 and selfint.denominator == 1:
            hits = brute_force_search(lat, 3, int(degree), int(selfint))
        for d in hits:
            assert assert_matches_reference(lat, d, 0, 1), (lat.describe(), d)
        holds[lat.describe()] = len(hits)
    assert holds["k3_024"] > 0
    assert holds["p1xp1"] == 2  # O(1,0) and O(0,1)
    assert holds[delpezzo_lattice(4).describe()] > 0
    # c1 = mH, c2 = M on the rank-1 sublattice of every even cover
    for t in even_triples(30):
        lat = rank1_bidouble_lattice(t)
        targets = special_ulrich_targets(t)
        c1 = DivisorClass((targets.m,))
        assert assert_matches_reference(lat, c1, targets.big_m, 2), t.as_tuple()
        assert not assert_matches_reference(lat, c1, targets.big_m + 1, 2), t.as_tuple()


def test_special_ulrich_targets():
    t = special_ulrich_targets((2, 2, 2))
    assert (t.m, t.big_m) == (3, 12)
    t = special_ulrich_targets((0, 2, 4))
    assert (t.m, t.big_m) == (3, 14)
    t = special_ulrich_targets((0, 4, 4))
    assert (t.m, t.big_m) == (4, 24)
    t = special_ulrich_targets((2, 4, 6))
    assert (t.m, t.big_m) == (6, 50)
    with pytest.raises(DomainError):
        special_ulrich_targets((1, 1, 3))


def test_special_ulrich_double_route_to_60():
    for t in even_triples(60):
        targets = special_ulrich_targets(t)
        m, (m1, m2, m3) = t.n // 2, (d // 2 for d in t)
        assert targets.m == m
        assert targets.big_m == m**2 + m1**2 + m2**2 + m3**2


def test_rank1_degree_equation_to_40():
    # (3H + K).H / 2 evaluates to n1 + n2 + n3 on the rank-1 sublattice
    for t in even_triples(40):
        lat = rank1_bidouble_lattice(t)
        assert pair(lat, 3 * lat.h + lat.k, lat.h) == 2 * t.n


def test_odd_rank_obstruction_examples():
    v = odd_rank_obstruction((1, 1, 3), 1)
    assert v.status == "infeasible_parity"
    assert "= -5" in v.trace[0].text
    v = odd_rank_obstruction((1, 1, 3), 2)
    assert v.status == "not_applicable"
    v = odd_rank_obstruction((3, 3, 5), 3)
    assert v.status == "infeasible_parity"
    assert "165" in v.trace[0].text
    # vacuous on even covers at any rank
    for rank in (1, 2, 3):
        assert odd_rank_obstruction((2, 2, 2), rank).status == "not_applicable"
    with pytest.raises(DomainError):
        odd_rank_obstruction((1, 1, 3), 0)
    with pytest.raises(DomainError):
        odd_rank_obstruction((1, 1, 3), True)


def test_odd_rank_obstruction_all_odd_ranks():
    for t in odd_triples(19):
        for rank in (1, 3, 5):
            assert odd_rank_obstruction(t, rank).status == "infeasible_parity", t
        for rank in (2, 4):
            assert odd_rank_obstruction(t, rank).status == "not_applicable", t


def test_rank1_rho1_search_traces():
    v = rank1_rho1_search((2, 4, 6))
    assert v.status == "infeasible_search"
    match = RESIDUAL.search(v.trace[-1].text)
    assert match and int(match.group(1)) == 56
    assert any("contradicting gcd(a, 4) = 1" in s.text for s in v.trace)
    assert all(s.cite == "Lemma 4.2" for s in v.trace)

    v = rank1_rho1_search((0, 2, 2))
    match = RESIDUAL.search(v.trace[-1].text)
    assert match and int(match.group(1)) == 8

    # q = 2 parity branch with odd a = n/2: n = 6 gives a = 3
    v = rank1_rho1_search((0, 2, 4))
    assert any("congruent to a = 3 mod 2" in s.text for s in v.trace)
    match = RESIDUAL.search(v.trace[-1].text)
    assert match and int(match.group(1)) == 20

    with pytest.raises(DomainError):
        rank1_rho1_search((1, 1, 3))


def test_rank1_rho1_search_residual_everywhere():
    for t in even_triples(30):
        v = rank1_rho1_search(t)
        assert v.status == "infeasible_search"
        match = RESIDUAL.search(v.trace[-1].text)
        assert match is not None, t
        value = int(match.group(1))
        assert value == t.n1**2 + t.n2**2 + t.n3**2
        assert value > 0


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert is_perfect_square(144)
    assert not is_perfect_square(2)
    assert not is_perfect_square(145)
    assert not is_perfect_square(612)  # 4*9*(16+1)
    with pytest.raises(DomainError):
        is_perfect_square(-1)


def test_p1xp1_line_search_examples():
    for n, disc in [(1, 2), (3, 10), (12, 145)]:
        v = p1xp1_line_search(n)
        assert v.status == "infeasible_search", n
        assert any(f"n^2 + 1 = {disc} is not a perfect square" in s.text for s in v.trace)
        assert any("0 solution(s)" in s.text for s in v.trace)
    with pytest.raises(DomainError):
        p1xp1_line_search(0)
    with pytest.raises(DomainError):
        p1xp1_line_search(-3)
    with pytest.raises(DomainError):
        p1xp1_line_search(3, bound=-1)


def test_p1xp1_line_search_custom_bound():
    v = p1xp1_line_search(3, bound=20)
    assert v.status == "infeasible_search"
    assert any("|a|, |b| <= 20" in s.text for s in v.trace)


def test_p1xp1_quadratic_coefficients_in_trace():
    v = p1xp1_line_search(3)
    assert any("2a^2 - 8a + 3 = 0" in s.text for s in v.trace)
    assert any("2a^2 - 16a + 12 = 0" in s.text for s in v.trace)
    assert any("discriminant 4 m'^2 (n^2 + 1) = 40" in s.text for s in v.trace)


def test_certificate_report():
    report = verify_024_certificate()
    by_label = {line.label: line for line in report.lines}
    expected = {
        "D.H": 6,
        "D.D": 4,
        "F.F": -4,
        "H.F": 2,
        "F.E1'": -1,
        "F'.F'": -4,
        "H.F'": 0,
        "H.E1'": 2,
        "H.E2'": 2,
    }
    for label, value in expected.items():
        line = by_label[label]
        assert line.mode == "verified"
        assert f"computed {value}," in line.text
    assert "Equalities (2.1)-(2.2)" in by_label
    assert by_label["h^0 vanishing"].mode == "paper-certified"
    rendered = report.render()
    assert "all checks passed" in rendered


def test_targets_are_fraction_free():
    # route 2 uses rational arithmetic internally but the result is integral
    for t in even_triples(20):
        targets = special_ulrich_targets(t)
        assert isinstance(targets.big_m, int)
        assert not isinstance(targets.big_m, Fraction)


# Each second route still fires: break one side and the check must raise.


def test_quadric_discriminant_guard_fires(monkeypatch):
    monkeypatch.setattr("bidouble.numerics.is_perfect_square", lambda value: True)
    with pytest.raises(ConsistencyError, match="perfect square"):
        p1xp1_line_search(3)


def plant_box_block(monkeypatch, s, target):
    """Hand the box the m' = 1 block a + b = s, 2ab = target, as a broken
    discriminant route would."""
    real = numerics_module._check_quadric
    monkeypatch.setattr(
        numerics_module, "_check_quadric", lambda n: [(1, s, target, *real(n)[0][3:])]
    )


def test_quadric_box_cross_check_fires(monkeypatch):
    # a + b = 4, 2ab = 6 has the solutions (1, 3) and (3, 1) in the box.
    plant_box_block(monkeypatch, 4, 6)
    with pytest.raises(ConsistencyError, match=r"box .* holds 2 solution\(s\), first \(1, 3\)"):
        p1xp1_line_search(3)


def test_quadric_box_solutions_match_full_scan(monkeypatch):
    # The box route of p1xp1_line_search, handed (a0, b0) planted on, next
    # to and just past the edges of the box, must find what a scan of every
    # cell |a|, |b| <= bound finds, in the same order.
    real_search = numerics_module._search_pruned
    searched = []

    def search(*args):
        searched.append(real_search(*args))
        return searched[-1]

    monkeypatch.setattr(numerics_module, "_search_pruned", search)
    rng = random.Random(23)
    found = 0
    for _ in range(200):
        bound = rng.randint(1, 40)
        a0, b0 = (rng.choice((-1, 1)) * (bound + rng.randint(-2, 1)) for _ in range(2))
        s, target = a0 + b0, 2 * a0 * b0
        scan = [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if a + b == s and 2 * a * b == target
        ]
        plant_box_block(monkeypatch, s, target)
        if scan:
            with pytest.raises(ConsistencyError) as failed:
                p1xp1_line_search(3, bound)
            assert f"holds {len(scan)} solution(s), first {scan[0]}" in str(failed.value)
        else:
            assert p1xp1_line_search(3, bound).status == "infeasible_search"
        assert searched.pop() == scan, (s, target, bound)
        found += len(scan)
    assert found > 100


@pytest.mark.parametrize(
    "bound, message",
    [
        (-1, "search bound must be >= 0, got -1"),
        (2.5, "search bound must be an integer, got 2.5"),
        (True, "search bound must be an integer, got True"),
        ("7", "search bound must be an integer, got '7'"),
    ],
    ids=["negative", "float", "bool", "str"],
)
def test_box_searches_share_one_bound_check(bound, message):
    # Unchecked, a float bound gives the lattice search hits, a bool is
    # printed as the quadric box, and a string raises TypeError.
    for search in (
        lambda: brute_force_search(p1xp1_lattice(), bound, 1, 0),
        lambda: p1xp1_line_search(3, bound=bound),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            search()


def test_quadric_box_near_the_cap_is_answered():
    # The default bound 10(n + 1) = 49,999,990 is just under the cap of
    # 10^8 values of a; the enumerator answers without scanning them.
    verdict = p1xp1_line_search(4_999_998)
    assert verdict.status == "infeasible_search"
    assert verdict.trace[-1].text.endswith("|a|, |b| <= 49999990: 0 solution(s)")


def test_quadric_bisection_matches_full_scan():
    # Random (s, target) pairs, 40% with a planted root a0, against a scan
    # of every a in [0, s]: f(a) = 2a(s - a) - target is negative outside.
    rng = random.Random(17)
    for _ in range(400):
        s = rng.randint(1, 600)
        if rng.random() < 0.4:
            a0 = rng.randint(1, s - 1) if s > 1 else 1
            target = 2 * a0 * (s - a0)
        else:
            target = rng.randint(1, s * s)
        if target <= 0:
            continue
        scan = [a for a in range(s + 1) if 2 * a * (s - a) == target]
        assert numerics_module._quadric_roots(s, target) == scan, (s, target)


def test_quadric_bisection_on_300_digits():
    n = 10**299 + 7
    for mprime in (1, 2):
        s = (n + 1) * mprime
        assert numerics_module._quadric_roots(s, n * mprime * mprime) == []
        a0 = s // 3
        assert numerics_module._quadric_roots(s, 2 * a0 * (s - a0)) == [a0, s - a0]


def test_quadric_bisection_fires(monkeypatch):
    # Plant the integer root a = 1: the real bisection must find it.
    real = numerics_module._quadric_roots
    monkeypatch.setattr(numerics_module, "_quadric_roots", lambda s, target: real(s, 2 * (s - 1)))
    with pytest.raises(ConsistencyError, match="but bisection finds a = 1 for m' = 1"):
        classify_triple((0, 2, 6))
    with pytest.raises(ConsistencyError, match="but bisection finds a = 1 for m' = 1"):
        p1xp1_line_search(3)


def shift_chi(monkeypatch):
    real = numerics_module.invariants
    monkeypatch.setattr(
        "bidouble.numerics.invariants",
        lambda t: real(t)._replace(chi=real(t).chi + 1),
    )


def test_rank1_q1_identity_fires(monkeypatch):
    shift_chi(monkeypatch)
    with pytest.raises(ConsistencyError, match="q = 1 reduction identity failed"):
        rank1_rho1_search((2, 4, 6))


def test_special_c2_two_routes_fire(monkeypatch):
    shift_chi(monkeypatch)
    with pytest.raises(ConsistencyError, match="special c2 mismatch"):
        special_ulrich_targets((2, 4, 6))


def test_certificate_fires_on_a_failed_number(monkeypatch):
    monkeypatch.setattr("bidouble.numerics.check_numerical_ulrich", lambda lat, cand: False)
    with pytest.raises(ConsistencyError, match=r"certificate mismatch .*Equalities"):
        verify_024_certificate()


# The classes each certificate number pairs.  In k3_024 coordinates:
# D = (2, 1, 1, -1), H = (1, 1, 0, 0), F = D - H, F' = Gamma1 - E2'.
CERTIFICATE_PAIRS = {
    "D.H": ((2, 1, 1, -1), (1, 1, 0, 0)),
    "D.D": ((2, 1, 1, -1), (2, 1, 1, -1)),
    "F.F": ((1, 0, 1, -1), (1, 0, 1, -1)),
    "H.F": ((1, 1, 0, 0), (1, 0, 1, -1)),
    "F.E1'": ((1, 0, 1, -1), (0, 0, 1, 0)),
    "F'.F'": ((1, 0, 0, -1), (1, 0, 0, -1)),
    "H.F'": ((1, 1, 0, 0), (1, 0, 0, -1)),
    "H.E1'": ((1, 1, 0, 0), (0, 0, 1, 0)),
    "H.E2'": ((1, 1, 0, 0), (0, 0, 0, 1)),
}

# In delpezzo4 coordinates: D = 2L - e1 - e2, H = 3L - e1 - ... - e5, K = -H.
CONIC_PAIRS = {
    "D.H": ((2, -1, -1, 0, 0, 0), (3, -1, -1, -1, -1, -1)),
    "D.D": ((2, -1, -1, 0, 0, 0), (2, -1, -1, 0, 0, 0)),
    "D.K": ((2, -1, -1, 0, 0, 0), (-3, 1, 1, 1, 1, 1)),
}

CERTIFICATE_CASES = [
    (name, label, pairs[label])
    for name, pairs in (("k3_024", CERTIFICATE_PAIRS), ("delpezzo4", CONIC_PAIRS))
    for label in sorted(pairs)
]


@pytest.mark.parametrize(
    "lattice_name, label, target",
    CERTIFICATE_CASES,
    ids=[label if name == "k3_024" else f"{name}:{label}" for name, label, _ in CERTIFICATE_CASES],
)
def test_certificate_fires_on_each_intersection_number(lattice_name, label, target, monkeypatch):
    # One pairing off by one must be named; D.H and D.D (and D.K on
    # delpezzo4) also feed the Ulrich equalities, so those fail with it.
    real = numerics_module.pair

    def perturbed(lat, d1, d2):
        value = real(lat, d1, d2)
        return value + 1 if (d1.coords, d2.coords) == target else value

    monkeypatch.setattr("bidouble.numerics.pair", perturbed)
    failed = label + (", Equalities (2.1)-(2.2)" if label in ("D.H", "D.D", "D.K") else "")
    message = f"certificate mismatch on {lattice_name}: {failed} (Prop. 4.6)"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        if lattice_name == "k3_024":
            verify_024_certificate()
        else:
            classify_triple((0, 2, 2))


def test_conic_certificate_is_the_search_witness():
    # The stated (0,2,2) class is the one the delpezzo4 box search finds:
    # among the hits, and the first of them that satisfies both equalities.
    lat, d, _ = numerics_module._CERTIFICATES[(0, 2, 2)]()
    assert lat == delpezzo_lattice(4)
    assert d == DivisorClass((2, -1, -1, 0, 0, 0))
    hits = brute_force_search(lat, 3, 4, 2)
    assert d in hits
    ulrich = [c for c in hits if check_numerical_ulrich(lat, UlrichCandidate(c, 0, 1))]
    assert ulrich[0] == d
