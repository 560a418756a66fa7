import hashlib
import re

import pytest

import bidouble.classify as classify_module
import bidouble.cli as cli
from bidouble.construction import (
    CBRecipe,
    _build_recipe,
    _check_recipe,
    special_rank2_recipe,
    verify_recipe,
)
from bidouble.errors import ConsistencyError, DomainError, ExcludedCaseError
from bidouble.geometry import invariants, validate_triple
from bidouble.numerics import special_ulrich_targets


def even_triples(max_degree):
    for n1 in range(0, max_degree + 1, 2):
        for n2 in range(max(n1, 2), max_degree + 1, 2):
            for n3 in range(n2, max_degree + 1, 2):
                yield validate_triple((n1, n2, n3))


RECIPE_ORACLES = {
    # triple: (m, M, residue, deg_c, deg_cprime, z_count)
    (2, 2, 2): (3, 12, 0, 3, 1, 12),
    (0, 2, 4): (3, 14, 2, 4, 2, 14),
    (0, 4, 4): (4, 24, 0, 6, 3, 24),
    (2, 2, 4): (4, 22, 2, 6, 3, 22),
    (2, 4, 4): (5, 34, 2, 9, 5, 34),
    (4, 4, 4): (6, 48, 0, 12, 7, 48),
    (2, 4, 6): (6, 50, 2, 13, 8, 50),
}


def test_recipe_oracles():
    for t, (m, big_m, residue, deg_c, deg_cp, z) in RECIPE_ORACLES.items():
        r = special_rank2_recipe(t)
        assert (r.m, r.big_m, r.residue, r.deg_c, r.deg_cprime, r.z_count) == (
            m,
            big_m,
            residue,
            deg_c,
            deg_cp,
            z,
        ), t
        assert r.deg_e1 == 1
        assert (r.tangency_note is not None) == (residue == 2)


def test_recipe_exclusions():
    with pytest.raises(ExcludedCaseError):
        special_rank2_recipe((0, 2, 2))
    with pytest.raises(ExcludedCaseError):
        special_rank2_recipe((2, 0, 2))  # permutations are canonicalized first
    with pytest.raises(DomainError):
        special_rank2_recipe((1, 1, 3))


def test_recipe_validation():
    with pytest.raises(DomainError):
        CBRecipe(3, 12, 1, 1, 3, 1, 12, None)
    with pytest.raises(DomainError):
        CBRecipe(3, 14, 0, 1, 4, 2, 14, None)  # residue must be M mod 4
    with pytest.raises(DomainError):
        CBRecipe(3, 12, 0, 2, 3, 1, 12, None)  # E1 is a line
    with pytest.raises(DomainError):
        CBRecipe(3, 12, 0, 1, 3, 1, 12, "spurious tangency")
    with pytest.raises(DomainError):
        CBRecipe(3, 14, 2, 1, 4, 2, 14, None)  # residue 2 requires the note


def test_recipe_constructor_accepts_every_recipe():
    # special_rank2_recipe builds its record without the constructor; the
    # constructor takes each of them back as it is, both layouts included.
    triples = [t for t in even_triples(40) if t.as_tuple() != (0, 2, 2)]
    residues = set()
    for t in triples:
        recipe = special_rank2_recipe(t)
        rebuilt = CBRecipe(*recipe)
        assert type(rebuilt) is CBRecipe
        assert rebuilt == recipe, t
        # verify_recipe raises on any failed line.
        assert verify_recipe(t, rebuilt) == verify_recipe(t, recipe)
        residues.add(rebuilt.residue)
    assert residues == {0, 2}


def test_verify_recipe_passes():
    for t in RECIPE_ORACLES:
        r = special_rank2_recipe(t)
        report = verify_recipe(t, r)
        labels = [line.label for line in report.lines]
        assert "c1 coefficient" in labels
        assert "c2 count" in labels
        assert "deg C' positive" in labels
        assert "vanishing inequalities" in labels
        modes = {line.label: line.mode for line in report.lines}
        assert modes["rank-two extension"] == "paper-certified"
        assert modes["c2 count"] == "verified"


def test_verify_recipe_detects_tampering():
    t = (2, 2, 2)
    r = special_rank2_recipe(t)
    broken = r._replace(z_count=r.z_count + 4)
    with pytest.raises(ConsistencyError, match="c2 count"):
        verify_recipe(t, broken)
    broken = r._replace(deg_cprime=r.deg_cprime + 1)
    with pytest.raises(ConsistencyError, match="c1 coefficient"):
        verify_recipe(t, broken)
    # a recipe built for one triple does not verify against another
    with pytest.raises(ConsistencyError, match="recipe matches triple"):
        verify_recipe((0, 4, 4), special_rank2_recipe((2, 2, 2)))


def test_recipe_invariants_to_60():
    for t in even_triples(60):
        if t.as_tuple() == (0, 2, 2):
            continue
        r = special_rank2_recipe(t)
        targets = special_ulrich_targets(t)
        assert r.big_m % 2 == 0
        assert r.z_count == targets.big_m
        assert r.deg_e1 + r.deg_c - r.deg_cprime == targets.m
        assert r.deg_cprime >= 1
        assert r.deg_c >= r.m
        assert (r.deg_cprime == 1) == (r.deg_c == r.m)
        if r.residue == 0:
            assert 4 * r.deg_c == r.big_m
        else:
            assert 4 * (r.deg_c - 1) + 2 == r.big_m
        assert 3 * r.big_m >= 4 * r.m**2
        assert r.big_m > 4 * (r.m - 1)


# sha256 of the recipe reports of every even triple with n3 <= 30 but
# (0,2,2), 799 triples in the order of ``even_triples``, joined by "\n";
# both block layouts (M = 0 and 2 mod 4) occur.
RECIPE_REPORTS_SHA256 = "46660f1ba236bbf6a35433d852a3acc49b1c0fdcbb92995fb22bbca8fe23feaf"


def test_recipe_reports_digest():
    triples = [t for t in even_triples(30) if t.as_tuple() != (0, 2, 2)]
    assert len(triples) == 799
    assert {special_rank2_recipe(t).residue for t in triples} == {0, 2}
    text = "\n".join(verify_recipe(t, special_rank2_recipe(t)).render() for t in triples)
    assert hashlib.sha256(text.encode()).hexdigest() == RECIPE_REPORTS_SHA256


def test_verify_report_title_names_triple():
    report = verify_recipe((2, 4, 6), special_rank2_recipe((2, 4, 6)))
    assert "(2, 4, 6)" in report.title


@pytest.mark.parametrize(
    "change, needle",
    [({"m": 2}, "m = 2 < 3 for a triple other than (0,2,2)"), ({"big_m": 51}, "M = 51 is odd")],
    ids=["m_below_3", "odd_M"],
)
def test_build_recipe_guards_fire(change, needle):
    # No admissible triple reaches either guard: every even triple but
    # (0,2,2) has m >= 3, and M = m^2 + sum m_i^2 is even.  Patched
    # invariants show that each still raises.
    t = validate_triple((2, 4, 6))
    with pytest.raises(ConsistencyError, match=re.escape(needle)):
        _build_recipe(t, invariants(t)._replace(**change))


@pytest.mark.parametrize(
    "change, needle",
    [
        ({"residue": 1}, "residue must be 0 or 2, got 1"),
        ({"residue": 0, "tangency_note": None}, "residue 0 does not match M = 50 mod 4"),
        ({"deg_e1": 2}, "E1 is a line; its degree is 1, got 2"),
        ({"tangency_note": None}, "tangency note is present exactly in the residue-2 case"),
    ],
    ids=["residue_1", "residue_mismatch", "e1_not_a_line", "note_missing"],
)
def test_check_recipe_layout_fires(change, needle, monkeypatch, capsys):
    # _build_recipe skips CBRecipe's validating constructor, so the row's
    # check owns the layout: a broken one is a consistency failure, exit 3.
    t = validate_triple((2, 4, 6))
    broken = special_rank2_recipe(t)._replace(**change)
    with pytest.raises(ConsistencyError, match=re.escape(f"recipe layout failed on (2, 4, 6): "
                                                         f"{needle}")):
        _check_recipe(t, broken, invariants(t))
    with pytest.raises(DomainError, match=re.escape(needle)):
        CBRecipe(*broken)
    monkeypatch.setattr(classify_module, "_build_recipe", lambda t, inv: broken)
    assert cli.main(["classify", "2", "4", "6"]) == 3
    assert capsys.readouterr() == (
        "", f"internal consistency failure: recipe layout failed on (2, 4, 6): {needle} "
            f"(Thm. 5.1)\n"
    )


def test_built_recipe_skips_the_validating_constructor(monkeypatch):
    # Rows build their recipe with tuple.__new__; the layout is checked in
    # _check_recipe with the other identities.
    def refuse(*args, **kwargs):
        raise AssertionError("CBRecipe.__new__ called")

    monkeypatch.setattr(CBRecipe, "__new__", refuse)
    t = validate_triple((2, 4, 6))
    recipe = _build_recipe(t, invariants(t))
    assert type(recipe) is CBRecipe and recipe.residue == 2
    _check_recipe(t, recipe, invariants(t))
