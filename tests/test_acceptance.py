"""Acceptance suite: one test per acceptance criterion, exact arithmetic only.

Each test recomputes its expected values through a route independent of the
code path under test (closed-form tables, a separate box scan, fresh
pairings on a rebuilt lattice) and ends with a single PASS line; run with
``pytest -v`` to get the per-criterion pass/fail listing, or ``-s`` to see
the PASS lines with their case counts.
"""

import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bidouble.classify import in_t1, in_t2, ulrich_complexity
from bidouble.construction import special_rank2_recipe, verify_recipe
from bidouble.errors import ConsistencyError
from bidouble.geometry import (
    intermediate_picard,
    invariants,
    picard_classification,
    picard_jump_family,
    validate_triple,
)
from bidouble.lattice import (
    DivisorClass,
    IntersectionLattice,
    arithmetic_genus,
    brute_force_search,
    delpezzo_lattice,
    k3_024_lattice,
    p1xp1_lattice,
    pair,
    rank1_bidouble_lattice,
)
from bidouble.numerics import (
    is_perfect_square,
    odd_rank_obstruction,
    p1xp1_line_search,
    rank1_rho1_search,
    special_ulrich_targets,
    verify_024_certificate,
)

DATA = Path(__file__).parent / "data"

RESIDUAL = re.compile(r"n1\^2 \+ n2\^2 \+ n3\^2 = (\d+) != 0$")


def all_triples(max_n3):
    out = []
    for n1 in range(0, max_n3 + 1):
        for n2 in range(n1, max_n3 + 1):
            for n3 in range(n2, max_n3 + 1):
                if n1 % 2 == n2 % 2 == n3 % 2 and (n1, n2) != (0, 0):
                    out.append(validate_triple((n1, n2, n3)))
    return out


def even_triples(max_n3):
    return [t for t in all_triples(max_n3) if t.is_even]


def odd_triples(max_n3):
    return [t for t in all_triples(max_n3) if not t.is_even]


def test_criterion_01_picard_families():
    triples = all_triples(40)
    assert len(triples) >= 300
    start = time.perf_counter()
    mismatches = 0
    for t in triples:
        n1, n2, n3 = t.as_tuple()
        pairwise_jump = any(
            intermediate_picard(a, b).rho > 1
            for a, b in ((n2, n3), (n1, n3), (n1, n2))
        )
        family_jump = picard_jump_family(t) is not None
        classified = not picard_classification(t).rho_is_one
        if not (pairwise_jump == family_jump == classified):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: {len(triples)} triples with n3 <= 40, pairwise vs "
        f"family-list Picard verdicts agree, 0 mismatches, {elapsed:.3f}s"
    )


def test_criterion_02_intermediate_table():
    checked = 0
    for a in range(0, 41):
        for b in range(a, 41):
            if (a + b) % 2 != 0 or (a, b) == (0, 0):
                continue
            y = intermediate_picard(a, b)
            if (a, b) == (0, 2):
                expected = 2
            elif (a, b) == (0, 4):
                expected = 8
            elif (a, b) == (1, 3):
                expected = 5
            elif (a, b) == (2, 2):
                expected = 4
            elif (a, b) == (1, 1):
                expected = 1
            else:
                assert a + b >= 6, (a, b)
                expected = 1
            assert y.rho == expected, (a, b)
            checked += 1
    print(f"PASS criterion 2: intermediate Picard table exact on {checked} pairs with b <= 40")


def test_criterion_03_quadric_two_routes():
    start = time.perf_counter()
    for n in range(1, 51):
        # route 1: discriminant
        assert not is_perfect_square(n * n + 1), n
        verdict = p1xp1_line_search(n)
        assert verdict.status == "infeasible_search", n
        # route 2: independent scan of the 2D box.  A hit lies on the line
        # a + b = (n + 1)m', so each a meets the one cell b = s - a.
        box = 10 * (n + 1)
        hits = 0
        for mprime in (1, 2):
            s, target = (n + 1) * mprime, n * mprime * mprime
            hits += sum(
                1
                for a in range(-box, box + 1)
                if -box <= s - a <= box and 2 * a * (s - a) == target
            )
        assert hits == 0, n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"PASS criterion 3: n in [1, 50], discriminant route and 2D box scan "
        f"both infeasible, {elapsed:.2f}s"
    )


def test_criterion_04_rank1_elimination():
    triples = even_triples(40)
    for t in triples:
        verdict = rank1_rho1_search(t)
        assert verdict.status == "infeasible_search", t
        match = RESIDUAL.search(verdict.trace[-1].text)
        assert match, t
        residual = int(match.group(1))
        n1, n2, n3 = t.as_tuple()
        assert residual == n1 * n1 + n2 * n2 + n3 * n3, t
        assert residual > 0, t
    print(
        f"PASS criterion 4: rank-1 elimination infeasible on {len(triples)} even "
        f"triples with n3 <= 40, final residual n1^2+n2^2+n3^2 > 0 every time"
    )


def test_criterion_05_odd_rank_parity():
    triples = odd_triples(39)
    checked = 0
    for t in triples:
        for rank in (1, 3, 5, 7, 9):
            verdict = odd_rank_obstruction(t, rank)
            assert verdict.status == "infeasible_parity", (t, rank)
            checked += 1
    print(
        f"PASS criterion 5: parity obstruction fired on {checked} (triple, rank) "
        f"pairs: odd triples n3 <= 39, odd ranks <= 9"
    )


def test_criterion_06_certificate_numbers():
    lat = k3_024_lattice()
    h = lat.h
    gamma1 = lat.basis_class("Gamma1")
    e1 = lat.basis_class("E1'")
    e2 = lat.basis_class("E2'")
    d = h + gamma1 + e1 - e2
    f = d - h
    fprime = gamma1 - e2

    assert pair(lat, d, h) == 6
    assert pair(lat, d, d) == 4
    assert pair(lat, f, f) == -4
    assert pair(lat, h, f) == 2
    assert pair(lat, f, e1) == -1
    assert pair(lat, fprime, fprime) == -4
    assert pair(lat, h, fprime) == 0
    assert pair(lat, h, e1) == 2
    assert pair(lat, h, e2) == 2

    report = verify_024_certificate()
    labels = {line.label for line in report.lines}
    assert {
        "D.H",
        "D.D",
        "F.F",
        "H.F",
        "F.E1'",
        "F'.F'",
        "H.F'",
        "H.E1'",
        "H.E2'",
    } <= labels
    print(
        "PASS criterion 6: all eight certificate intersection numbers on the "
        "(0,2,4) cover recomputed exactly (D.H=6, D^2=4, F^2=-4, H.F=2, "
        "F.E1'=-1, F'^2=-4, H.F'=0, H.Ei'=2)"
    )


def test_criterion_07_delpezzo_witness():
    lat = delpezzo_lattice(4)
    hits = brute_force_search(lat, bound=3, degree_target=4, selfint_target=2)
    assert hits
    for d in hits:
        assert pair(lat, d, lat.h) == 4
        assert pair(lat, d, d) == 2
        assert arithmetic_genus(lat, d) == 0
    assert DivisorClass((2, -1, -1, 0, 0, 0)) in hits
    print(
        f"PASS criterion 7: delpezzo(4) box search (bound 3) found {len(hits)} "
        f"classes with D.H = 4, D^2 = 2, all of genus 0"
    )


def test_criterion_08_recipe_identities():
    triples = [t for t in even_triples(60) if t.n // 2 >= 3]
    start = time.perf_counter()
    for t in triples:
        recipe = special_rank2_recipe(t)
        verify_recipe(t, recipe)
        targets = special_ulrich_targets(t)
        assert recipe.deg_e1 + recipe.deg_c - recipe.deg_cprime == t.n // 2, t
        assert recipe.z_count == recipe.big_m == targets.big_m, t
        assert recipe.deg_cprime >= 1, t
        assert recipe.big_m > 4 * (t.n // 2 - 1), t
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"PASS criterion 8: rank-two recipe verified on {len(triples)} even "
        f"triples with n3 <= 60 and m >= 3, {elapsed:.3f}s"
    )


def test_criterion_09_complexity_partition():
    evens = even_triples(40)
    for t in evens:
        uc = ulrich_complexity(t)
        tup = t.as_tuple()
        if tup in ((0, 2, 2), (0, 2, 4)):
            assert in_t2(t)
            assert (uc.kind, uc.value) == ("exact", 1), t
        elif tup[:2] == (0, 4) or tup[:2] == (2, 2):
            assert in_t1(t)
            assert (uc.kind, uc.bounds) == ("upper_bound", (1, 2)), t
        else:
            assert not in_t1(t) and not in_t2(t)
            assert (uc.kind, uc.value) == ("exact", 2), t
    odds = odd_triples(39)
    for t in odds:
        uc = ulrich_complexity(t)
        assert (uc.kind, uc.bounds) == ("lower_bound_only", (2, None)), t
    print(
        f"PASS criterion 9: complexity partition exact on {len(evens)} even and "
        f"{len(odds)} odd triples with n3 <= 40"
    )


def random_lattice(rng):
    rank = rng.randint(1, 5)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = rng.randint(-5, 5)
    gram[0][0] = rng.randint(1, 9)  # h = e0 keeps H^2 > 0
    return IntersectionLattice(
        rank=rank,
        basis_labels=tuple(f"b{i}" for i in range(rank)),
        gram=tuple(tuple(row) for row in gram),
        h=DivisorClass.basis(rank, 0),
        k=DivisorClass(tuple(rng.randint(-4, 4) for _ in range(rank))),
    )


def test_criterion_10a_pairing_properties():
    rng = random.Random(20260815)
    pool = [
        k3_024_lattice(),
        p1xp1_lattice(),
        delpezzo_lattice(4),
        rank1_bidouble_lattice((2, 4, 6)),
    ] + [random_lattice(rng) for _ in range(20)]
    checks = 0
    for _ in range(2600):
        lat = rng.choice(pool)
        x, y, z = (
            DivisorClass(tuple(rng.randint(-9, 9) for _ in range(lat.rank)))
            for _ in range(3)
        )
        alpha, beta = rng.randint(-7, 7), rng.randint(-7, 7)
        assert pair(lat, alpha * x + beta * y, z) == alpha * pair(lat, x, z) + beta * pair(lat, y, z)
        checks += 1
        assert pair(lat, x, alpha * y + beta * z) == alpha * pair(lat, x, y) + beta * pair(lat, x, z)
        checks += 1
        assert pair(lat, x, y) == pair(lat, y, x)
        checks += 1
        # Adjunction: an integer genus where x^2 + x.K is even, a refusal
        # where it is odd (K is not characteristic on every random lattice).
        twice_genus, odd = divmod(pair(lat, x, x) + pair(lat, x, lat.k), 2)
        if odd:
            with pytest.raises(ConsistencyError, match="is odd"):
                arithmetic_genus(lat, x)
        else:
            assert arithmetic_genus(lat, x) == 1 + twice_genus
        checks += 1
    assert checks >= 10_000
    print(
        f"PASS criterion 10a: bilinearity/symmetry/adjunction checked {checks} "
        f"times on {len(pool)} lattices (seed 20260815)"
    )


def test_criterion_10b_exhaustive_parity_and_chi():
    evens = even_triples(60)
    for t in evens:
        inv = invariants(t)
        m1, m2, m3 = (d // 2 for d in t)
        expansion = 2 * (
            m1 * m1 + m2 * m2 + m3 * m3 + m1 * m2 + m1 * m3 + m2 * m3
        )
        assert inv.big_m == expansion, t
        assert inv.big_m % 2 == 0, t
    count = 0
    for t in all_triples(60):
        n1, n2, n3 = t.as_tuple()
        sigma2 = n1 * n2 + n1 * n3 + n2 * n3
        chi = Fraction(16 + n1 * n1 + n2 * n2 + n3 * n3 + sigma2 - 6 * t.n, 4)
        assert chi.denominator == 1, t
        assert chi == invariants(t).chi, t
        count += 1
    print(
        f"PASS criterion 10b: M even on {len(evens)} even triples, chi an exact "
        f"integer on {count} triples, exhaustive to n3 <= 60"
    )


def test_criterion_10c_cli_determinism():
    golden = (
        "n1,n2,n3,parity,k_squared,chi,rho_gt_1,line_bundle,uc_kind,uc_value,"
        "recipe_deg_c,recipe_deg_cprime,z_count\n"
        "0,2,2,even,4,1,true,exists,exact,1,,,\n"
        "0,2,4,even,0,2,true,exists,exact,1,4,2,14\n"
        "1,1,3,odd,1,1,true,impossible,lower_bound_only,>=2,,,\n"
        "2,2,2,even,0,1,true,open,upper_bound,1..2,3,1,12\n"
    )
    cmd = [
        sys.executable,
        "-m",
        "bidouble.cli",
        "batch",
        "--input",
        str(DATA / "triples.txt"),
        "--format",
        "csv",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout == golden
    assert first.stderr == ""
    print(
        "PASS criterion 10c: CLI batch output byte-identical across runs and "
        "equal to the golden CSV for the fixed input file"
    )
