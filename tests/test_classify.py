import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bidouble.classify as classify_module
import bidouble.cli as cli
import bidouble.construction as construction_module
import bidouble.geometry as geometry_module
import bidouble.numerics as numerics_module
from bidouble.citations import (
    LEM_ODD_RANK,
    LEM_RHO_ONE,
    PROP_LOW_DEGREE,
    PROP_QUADRIC,
    REM_OPEN,
    THM_LINE_RANGE,
    THM_RANK_TWO,
)
from bidouble.classify import (
    classify_triple,
    in_t1,
    in_t2,
    line_bundle_status,
    ulrich_complexity,
)
from bidouble.construction import special_rank2_recipe, verify_recipe
from bidouble.errors import ConsistencyError, DomainError
from bidouble.geometry import validate_triple


def all_triples(max_degree):
    for n1 in range(0, max_degree + 1):
        for n2 in range(n1, max_degree + 1):
            for n3 in range(n2, max_degree + 1):
                try:
                    yield validate_triple((n1, n2, n3))
                except DomainError:
                    continue


def test_t_membership():
    assert in_t2((0, 2, 2))
    assert in_t2((0, 2, 4))
    assert in_t2((2, 0, 4))  # canonicalized first
    assert not in_t2((0, 2, 6))
    assert not in_t2((2, 2, 2))

    assert in_t1((0, 4, 4))
    assert in_t1((0, 4, 20))
    assert in_t1((2, 2, 2))
    assert in_t1((2, 2, 14))
    assert not in_t1((0, 2, 4))
    assert not in_t1((0, 4, 2))  # sorted form is (0,2,4)
    assert not in_t1((2, 4, 4))
    assert not in_t1((1, 3, 3))
    assert not in_t1((0, 6, 6))


def test_line_bundle_matrix():
    cases = {
        (1, 1, 1): "impossible",
        (1, 1, 3): "impossible",
        (3, 3, 5): "impossible",
        (0, 2, 2): "exists",
        (0, 2, 4): "exists",
        (0, 2, 6): "impossible",
        (0, 2, 12): "impossible",
        (0, 4, 4): "open",
        (0, 4, 8): "open",
        (2, 2, 2): "open",
        (2, 2, 10): "open",
        (2, 4, 6): "impossible",
        (4, 4, 4): "impossible",
        (0, 6, 8): "impossible",
        (2, 4, 4): "impossible",
    }
    for t, status in cases.items():
        lb = line_bundle_status(t)
        assert lb.status == status, t


def test_line_bundle_citations():
    assert line_bundle_status((1, 1, 1)).citations == (LEM_ODD_RANK,)
    assert line_bundle_status((0, 2, 4)).citations == (PROP_LOW_DEGREE,)
    assert line_bundle_status((0, 2, 2)).citations == (PROP_LOW_DEGREE,)
    assert line_bundle_status((0, 2, 6)).citations == (PROP_QUADRIC,)
    assert line_bundle_status((0, 4, 4)).citations == (THM_LINE_RANGE, REM_OPEN)
    lb = line_bundle_status((2, 4, 6))
    assert LEM_RHO_ONE in lb.citations
    assert lb.reason


def test_complexity_matrix():
    cases = {
        (1, 1, 1): ("lower_bound_only", None, (2, None)),
        (3, 3, 5): ("lower_bound_only", None, (2, None)),
        (0, 2, 2): ("exact", 1, None),
        (0, 2, 4): ("exact", 1, None),
        (0, 2, 6): ("exact", 2, None),
        (0, 4, 4): ("upper_bound", None, (1, 2)),
        (2, 2, 2): ("upper_bound", None, (1, 2)),
        (2, 2, 8): ("upper_bound", None, (1, 2)),
        (2, 4, 6): ("exact", 2, None),
        (4, 4, 4): ("exact", 2, None),
        (0, 6, 6): ("exact", 2, None),
    }
    for t, (kind, value, bounds) in cases.items():
        uc = ulrich_complexity(t)
        assert (uc.kind, uc.value, uc.bounds) == (kind, value, bounds), t


def test_complexity_trails():
    # every even case cites the rank-two witness except (0,2,2)
    assert THM_RANK_TWO not in ulrich_complexity((0, 2, 2)).trail
    assert PROP_LOW_DEGREE in ulrich_complexity((0, 2, 2)).trail
    for t in [(0, 2, 4), (0, 4, 4), (2, 2, 2), (2, 4, 6), (0, 2, 6)]:
        assert THM_RANK_TWO in ulrich_complexity(t).trail, t
    assert LEM_ODD_RANK in ulrich_complexity((1, 1, 1)).trail


def test_consistency_triangle_to_24():
    for t in all_triples(24):
        lb = line_bundle_status(t)
        uc = ulrich_complexity(t)
        if lb.status == "exists":
            assert uc.kind == "exact" and uc.value == 1, t
        if lb.status == "impossible" and t.is_even:
            assert uc.kind == "exact" and uc.value == 2, t
        if t.is_even and t.as_tuple() != (0, 2, 2):
            verify_recipe(t, special_rank2_recipe(t))
        if not t.is_even:
            assert uc.kind == "lower_bound_only" and uc.bounds == (2, None), t


def test_exists_only_in_t2():
    for t in all_triples(20):
        lb = line_bundle_status(t)
        assert (lb.status == "exists") == in_t2(t), t
        assert (lb.status == "open") == in_t1(t), t


def test_classification_record():
    for t in all_triples(16):
        c = classify_triple(t)
        assert c.triple == t
        assert c.invariants.n == t.n
        assert c.line_bundle == line_bundle_status(t)
        assert c.complexity == ulrich_complexity(t)
        assert (c.recipe is None) == (not t.is_even or t.as_tuple() == (0, 2, 2)), t
        if c.recipe is not None:
            assert c.recipe == special_rank2_recipe(t)
    assert classify_triple((4, 2, 0)) == classify_triple((0, 2, 4))


# Every check, certificate and cross-check a row can need, at the binding
# its caller uses.
SINGLE_PASS = (
    (classify_module, "picard_classification"),
    (classify_module, "_parity_product"),
    (classify_module, "_check_q1"),
    (classify_module, "_check_quadric"),
    (classify_module, "_check_certificate"),
    (classify_module, "_build_recipe"),
    (classify_module, "_check_special_c2"),
    (classify_module, "_check_recipe"),
)

# The public arguments build trace or report text, which no row prints.
TEXT_BUILDERS = (
    numerics_module.odd_rank_obstruction,
    numerics_module.rank1_rho1_search,
    numerics_module.p1xp1_line_search,
    numerics_module.special_ulrich_targets,
    construction_module.special_rank2_recipe,
    construction_module.verify_recipe,
    numerics_module.verify_024_certificate,
)


def patch_every_binding(monkeypatch, fn, replacement):
    """Bind replacement to every name bound to fn in the package."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "bidouble" or mod_name.startswith("bidouble."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_every_binding(monkeypatch, calls, fn):
    """Count calls of fn through every name bound to it in the package."""

    def counted(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    patch_every_binding(monkeypatch, fn, counted)


def test_each_argument_runs_once_per_row(monkeypatch):
    calls = Counter()
    for module, name in SINGLE_PASS:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    count_every_binding(monkeypatch, calls, geometry_module.invariants)
    for fn in TEXT_BUILDERS:
        count_every_binding(monkeypatch, calls, fn)
    seen = Counter()
    for t in all_triples(16):
        calls.clear()
        cli.query_payload(t)
        assert calls["invariants"] == 1, (t.as_tuple(), dict(calls))
        assert max(calls.values(), default=0) <= 1, (t.as_tuple(), dict(calls))
        assert not {fn.__name__ for fn in TEXT_BUILDERS} & set(calls), (t.as_tuple(), dict(calls))
        seen.update(calls)
    # every wrapper was reached, so the bound above is not vacuous
    assert set(seen) == {name for _, name in SINGLE_PASS} | {"invariants"}


def test_row_builds_nothing_no_output_reads(monkeypatch):
    # A row runs every check, but builds no record or table that its
    # outputs do not read.
    calls = Counter()
    for fn in (geometry_module.intermediate_picard, geometry_module._rho,
               construction_module._recipe_table):
        count_every_binding(monkeypatch, calls, fn)
    # The recipe check's binding only: the certificate check of (0,2,2) and
    # (0,2,4) reads its own table.
    real_failed = construction_module._failed
    monkeypatch.setattr(construction_module, "_failed",
                        lambda rows: calls.update(["_failed"]) or real_failed(rows))
    real_validate = geometry_module.validate_triple

    def validate(triple):
        calls["unvalidated"] += not isinstance(triple, geometry_module.BranchTriple)
        return real_validate(triple)

    patch_every_binding(monkeypatch, real_validate, validate)
    jumping = 0
    for t in all_triples(16):
        calls.clear()
        c = classify_triple(t.as_tuple())
        n1, n2, _ = t
        # Only a jumping pair gets its record; a rho = 1 row gets the one
        # module-level verdict, and no pair is tested when every pair
        # sums to at least n1 + n2 >= 6.
        assert calls["intermediate_picard"] == len(c.picard.witnesses), t.as_tuple()
        if c.picard.rho_is_one:
            assert c.picard is geometry_module._RHO_ONE, t.as_tuple()
        if n1 + n2 >= 6:
            assert calls["_rho"] == 0, t.as_tuple()
        jumping += len(c.picard.witnesses)
        # A passing recipe check builds no labelled table.
        assert calls["_recipe_table"] == calls["_failed"] == 0, (t.as_tuple(), dict(calls))
        # The nested checks take validate_triple's fast path.
        assert calls["unvalidated"] == 1, t.as_tuple()
    assert jumping > 0
    # verify_recipe still builds the table it renders
    verify_recipe((2, 4, 6), special_rank2_recipe((2, 4, 6)))
    assert calls["_recipe_table"] == 1


def test_row_call_budget():
    # A row with n1 + n2 >= 6 (every pair has rho = 1, so no pair is
    # tested) makes at most 12 Python-level calls if even and 8 if odd,
    # classify_triple's own call included: no wrapper chain and no second
    # validation of a BranchTriple, while every check keeps its call.
    rows = 0
    for t in cli.enumerate_triples(40):
        if t.n1 + t.n2 < 6:
            continue
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            classify_triple(t)
        finally:
            sys.setprofile(None)
        assert len(calls) <= (8 if t.n1 % 2 else 12), (t.as_tuple(), [
            f.f_code.co_name for f in calls])
        rows += 1
    assert rows > 3000


def test_reader_call_budget():
    # A valid line of a batch file makes no Python-level call: over 500
    # distinct valid lines, in every order and some with a comment, the
    # reader's own call is the only one.
    triples = cli.enumerate_triples(40)[:500]
    orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2)]
    lines = [
        " ".join(str(t[i]) for i in orders[k % 6]) + (" # row\n" if k % 5 == 0 else "\n")
        for k, t in enumerate(triples)
    ]
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
    try:
        parsed, diagnostics = cli.parse_triples_file(iter(lines))
    finally:
        sys.setprofile(None)
    assert (parsed, diagnostics) == (triples, [])
    assert [f.f_code.co_name for f in calls] == ["parse_triples_file"]


def test_recipe_check_fires_in_classify(monkeypatch, capsys):
    # A recipe whose deg C' is off by one fails the c1 line of the check.
    real = classify_module._build_recipe
    monkeypatch.setattr(
        classify_module,
        "_build_recipe",
        lambda t, inv: real(t, inv)._replace(deg_cprime=real(t, inv).deg_cprime + 1),
    )
    with pytest.raises(
        ConsistencyError, match=r"recipe verification failed on \(2, 4, 6\): c1 coefficient \("
    ):
        classify_triple((2, 4, 6))
    assert cli.main(["classify", "2", "4", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal consistency failure: recipe verification failed")


def test_quadric_box_in_classify_is_exhaustive(monkeypatch):
    # classify bisects 2a(s - a) = target over [0, s], s = (n+1)m', for
    # m' = 1 and 2; every real root of 2a^2 - 2m'(n+1)a + m'^2 n lies there.
    seen = []
    real = numerics_module._quadric_roots

    def spy(s, target):
        seen.append((s, target))
        return real(s, target)

    monkeypatch.setattr(numerics_module, "_quadric_roots", spy)
    classify_triple((0, 2, 10))
    assert seen == [(6, 5), (12, 20)]
    for n in range(1, 200):
        for mprime in (1, 2):
            for sign in (1, -1):
                root = mprime * ((n + 1) + sign * (n * n + 1) ** 0.5) / 2
                assert 0 <= root <= (n + 1) * mprime


def test_parity_obstruction_fires(monkeypatch):
    # An even product 2 c1.K on an odd cover would break the argument.
    monkeypatch.setattr(classify_module, "_parity_product", lambda n, rank: (n - 6, 0))
    with pytest.raises(ConsistencyError, match=r"failed to fire on odd triple \(1, 1, 1\)"):
        classify_triple((1, 1, 1))


def test_delpezzo_witness_fires(monkeypatch):
    monkeypatch.setattr(numerics_module, "check_numerical_ulrich", lambda lat, cand: False)
    with pytest.raises(
        ConsistencyError, match=r"certificate mismatch on delpezzo4: Equalities \(2\.1\)-\(2\.2\)"
    ):
        classify_triple((0, 2, 2))


# Run in a fresh interpreter, so that no cache filled by an earlier test
# can hide a search.
NO_SEARCH_SCRIPT = """
import contextlib, io
from collections import Counter
import pytest
from bidouble import cli, lattice
from bidouble.classify import classify_triple
from test_classify import count_every_binding

calls = Counter()
with pytest.MonkeyPatch.context() as mp:
    count_every_binding(mp, calls, lattice.brute_force_search)
    classify_triple((0, 2, 2))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["batch", "--max-degree", "10"]) == 0
print(calls["brute_force_search"])
"""


def test_rows_run_no_lattice_search():
    # Both certified covers state their class; no row searches a lattice.
    tests_dir = Path(__file__).resolve().parent
    src = tests_dir.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests_dir)])}
    result = subprocess.run(
        [sys.executable, "-c", NO_SEARCH_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"
