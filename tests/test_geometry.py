from fractions import Fraction

import pytest

import bidouble.geometry as geometry_module
from bidouble.errors import ConsistencyError, DisconnectedError, DomainError, ParityError
from bidouble.geometry import (
    BranchTriple,
    intermediate_picard,
    invariants,
    picard_classification,
    picard_jump_family,
    validate_triple,
)


def test_validate_triple_sorts_and_canonicalizes():
    t = validate_triple((6, 2, 4))
    assert t.as_tuple() == (2, 4, 6)
    assert validate_triple([4, 0, 2]).as_tuple() == (0, 2, 4)
    assert validate_triple(t) is t
    assert tuple(t) == (2, 4, 6)


def test_validate_triple_rejections():
    with pytest.raises(ParityError):
        validate_triple((1, 2, 3))
    with pytest.raises(DisconnectedError):
        validate_triple((0, 0, 2))
    with pytest.raises(DomainError):
        validate_triple((-2, 2, 2))
    with pytest.raises(DomainError):
        validate_triple((2, 2))
    with pytest.raises(DomainError):
        validate_triple((2, 2, 2, 2))
    with pytest.raises(DomainError):
        validate_triple((True, 1, 1))
    with pytest.raises(DomainError):
        validate_triple((1.0, 1, 1))
    with pytest.raises(DomainError):
        BranchTriple(4, 2, 0)  # direct construction requires sorted input


def test_triple_properties():
    t = validate_triple((2, 4, 6))
    assert t.parity == "even"
    assert t.is_even
    assert t.n == 12
    assert (invariants(t).m, invariants(t).big_m) == (6, 36 + 1 + 4 + 9)
    odd = validate_triple((1, 1, 3))
    assert odd.parity == "odd"
    assert odd.n == 5
    assert invariants(odd).m is None and invariants(odd).big_m is None


def test_invariants_even_examples():
    cases = {
        (0, 2, 2): (4, 1, -4, 2, 6),
        (0, 2, 4): (0, 2, 0, 3, 14),
        (2, 2, 2): (0, 1, 0, 3, 12),
        (0, 4, 4): (4, 4, 4, 4, 24),
        (2, 2, 4): (4, 3, 4, 4, 22),
        (2, 4, 4): (16, 6, 8, 5, 34),
        (2, 4, 6): (36, 11, 12, 6, 50),
        (4, 4, 4): (36, 10, 12, 6, 48),
    }
    for t, (k2, chi, hk, m, big_m) in cases.items():
        inv = invariants(t)
        assert inv.k_squared == k2, t
        assert inv.chi == chi, t
        assert inv.h_dot_k == hk, t
        assert inv.h_squared == 4
        assert inv.q == 0
        assert inv.m == m, t
        assert inv.big_m == big_m, t


def test_invariants_odd_examples():
    cases = {
        (1, 1, 1): (9, 1, -6),
        (1, 1, 3): (1, 1, -2),
        (1, 3, 3): (1, 2, 2),
        (3, 3, 3): (9, 4, 6),
        (3, 3, 5): (25, 8, 10),
    }
    for t, (k2, chi, hk) in cases.items():
        inv = invariants(t)
        assert (inv.k_squared, inv.chi, inv.h_dot_k) == (k2, chi, hk), t
        assert inv.m is None and inv.big_m is None


def test_invariants_permutation_invariant():
    assert invariants((6, 2, 4)) == invariants((2, 4, 6))
    assert invariants([3, 1, 1]) == invariants((1, 1, 3))


def test_chi_matches_rational_formula():
    for n1 in range(0, 21):
        for n2 in range(n1, 21):
            for n3 in range(n2, 21):
                try:
                    t = validate_triple((n1, n2, n3))
                except DomainError:
                    continue
                n = n1 + n2 + n3
                sigma2 = n1 * n2 + n1 * n3 + n2 * n3
                chi = 4 + Fraction(n1**2 + n2**2 + n3**2 + sigma2 - 6 * n, 4)
                assert chi.denominator == 1
                assert invariants(t).chi == chi


def test_chi_matches_noether_euler_count():
    # 12 chi = K^2 + e, with e counted over the strata of the branch curve.
    for n1 in range(0, 31):
        for n2 in range(n1, 31):
            for n3 in range(n2, 31):
                try:
                    t = validate_triple((n1, n2, n3))
                except DomainError:
                    continue
                inv = invariants(t)
                assert 12 * inv.chi == inv.k_squared + geometry_module._euler_number(n1, n2, n3)
    # (1,1,1) is the plane again, (0,2,2) the degree-4 del Pezzo (P^2 blown up at 5 points).
    assert geometry_module._euler_number(1, 1, 1) == 3
    assert geometry_module._euler_number(0, 2, 2) == 8


def test_noether_route_fires(monkeypatch):
    real = geometry_module._euler_number
    monkeypatch.setattr(geometry_module, "_euler_number", lambda *n: real(*n) + 12)
    with pytest.raises(ConsistencyError, match="Noether's formula fails on \\(2, 4, 6\\)"):
        invariants((2, 4, 6))


def test_chi_integrality_check_fires():
    # Mixed parities make chi_num odd; ``_make`` skips the validation that
    # keeps such a triple out, so only the integrality check stands.
    with pytest.raises(ConsistencyError, match=r"non-integer for \(1, 2, 3\): 5/4"):
        invariants(BranchTriple._make((1, 2, 3)))


def test_intermediate_picard_table():
    assert intermediate_picard(0, 2).rho == 2
    assert intermediate_picard(0, 4).rho == 8
    assert intermediate_picard(1, 3).rho == 5
    assert intermediate_picard(2, 2).rho == 4
    assert intermediate_picard(1, 1).rho == 1
    assert intermediate_picard(0, 6).rho == 1
    assert intermediate_picard(3, 3).rho == 1
    assert intermediate_picard(2, 4).rho == 1
    # argument order is immaterial
    assert intermediate_picard(3, 1) == intermediate_picard(1, 3)


def test_intermediate_picard_rejections():
    with pytest.raises(DomainError):
        intermediate_picard(0, 0)
    with pytest.raises(ParityError):
        intermediate_picard(1, 2)
    with pytest.raises(DomainError):
        intermediate_picard(-2, 4)
    # a bool or a float would pass for the number it equals
    for a, b in ((True, 3), (1, True), (2.0, 4)):
        with pytest.raises(DomainError, match="^branch degrees must be integers, got "):
            intermediate_picard(a, b)


def test_jump_family_membership():
    assert picard_jump_family((0, 2, 2)) == "(0,2,2n)"
    assert picard_jump_family((0, 2, 40)) == "(0,2,2n)"
    assert picard_jump_family((0, 4, 4)) == "(0,4,2n)"
    assert picard_jump_family((0, 4, 18)) == "(0,4,2n)"
    assert picard_jump_family((1, 1, 3)) == "(1,3,odd)"
    assert picard_jump_family((1, 3, 3)) == "(1,3,odd)"
    assert picard_jump_family((1, 3, 11)) == "(1,3,odd)"
    assert picard_jump_family((2, 2, 2)) == "(2,2,2n)"
    assert picard_jump_family((2, 2, 10)) == "(2,2,2n)"
    assert picard_jump_family((2, 4, 6)) is None
    assert picard_jump_family((1, 1, 1)) is None
    assert picard_jump_family((3, 3, 3)) is None
    assert picard_jump_family((0, 6, 6)) is None
    assert picard_jump_family((1, 1, 5)) is None
    # sorted form decides: (0,4,2) is (0,2,4), in the (0,2,2n) family
    assert picard_jump_family((4, 0, 2)) == "(0,2,2n)"


def test_picard_classification_witness_order():
    # pairs are checked in the order (n2,n3), (n1,n3), (n1,n2)
    pc = picard_classification((1, 3, 7))
    assert not pc.rho_is_one
    assert [(w.a, w.b, w.rho) for w in pc.witnesses] == [(1, 3, 5)]
    pc = picard_classification((1, 1, 3))
    assert [(w.a, w.b, w.rho) for w in pc.witnesses] == [(1, 3, 5), (1, 3, 5)]
    pc = picard_classification((0, 2, 2))
    assert [(w.a, w.b, w.rho) for w in pc.witnesses] == [(2, 2, 4), (0, 2, 2), (0, 2, 2)]
    pc = picard_classification((2, 2, 10))
    assert [(w.a, w.b, w.rho) for w in pc.witnesses] == [(2, 2, 4)]
    pc = picard_classification((0, 2, 8))
    assert [(w.a, w.b, w.rho) for w in pc.witnesses] == [(0, 2, 2)]


def test_picard_classification_rho_one_cases():
    for t in [(2, 4, 6), (0, 6, 6), (1, 1, 1), (3, 3, 3), (4, 4, 4), (1, 1, 5)]:
        pc = picard_classification(t)
        assert pc.rho_is_one, t
        assert pc.witnesses == ()
        assert pc.family is None


def test_picard_classification_matches_families_everywhere():
    for n1 in range(0, 17):
        for n2 in range(n1, 17):
            for n3 in range(n2, 17):
                try:
                    t = validate_triple((n1, n2, n3))
                except DomainError:
                    continue
                pc = picard_classification(t)
                assert pc.rho_is_one == (picard_jump_family(t) is None), t


def test_picard_pairs_vs_family_list_fires(monkeypatch):
    # The check runs on every call, before the shared record is looked up:
    # a warm memo neither skips it nor masks a changed family.
    warm = picard_classification((2, 2, 2))
    assert picard_classification((2, 2, 2)) is warm
    monkeypatch.setattr("bidouble.geometry.picard_jump_family", lambda t: None)
    with pytest.raises(ConsistencyError, match="family list"):
        picard_classification((2, 2, 2))
    monkeypatch.setattr("bidouble.geometry.picard_jump_family", lambda t: "(0,2,2n)")
    try:
        patched = picard_classification((2, 2, 2))
        assert patched.family == "(0,2,2n)"
        assert patched.witnesses == warm.witnesses
    finally:
        geometry_module._jump_record.cache_clear()
