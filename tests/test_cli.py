import argparse
import gc
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import types
import typing
from _json import encode_basestring_ascii

import pytest

import bidouble
import bidouble.classify as classify_module
import bidouble.cli as cli
import bidouble.numerics as numerics_module
from bidouble.citations import ALL_LABELS
from bidouble.construction import TANGENCY_NOTE, special_rank2_recipe, verify_recipe
from bidouble.errors import ConsistencyError, DomainError, number_text
from bidouble.geometry import (
    BranchTriple,
    intermediate_picard,
    picard_classification,
    validate_triple,
)
from bidouble.lattice import (
    DivisorClass,
    arithmetic_genus,
    brute_force_search,
    pair,
    preset_lattice,
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

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

GOLDEN_MAX4_CSV = """\
n1,n2,n3,parity,k_squared,chi,rho_gt_1,line_bundle,uc_kind,uc_value,recipe_deg_c,recipe_deg_cprime,z_count
0,2,2,even,4,1,true,exists,exact,1,,,
0,2,4,even,0,2,true,exists,exact,1,4,2,14
0,4,4,even,4,4,true,open,upper_bound,1..2,6,3,24
1,1,1,odd,9,1,false,impossible,lower_bound_only,>=2,,,
1,1,3,odd,1,1,true,impossible,lower_bound_only,>=2,,,
1,3,3,odd,1,2,true,impossible,lower_bound_only,>=2,,,
2,2,2,even,0,1,true,open,upper_bound,1..2,3,1,12
2,2,4,even,4,3,true,open,upper_bound,1..2,6,3,22
2,4,4,even,16,6,false,impossible,exact,2,9,5,34
3,3,3,odd,9,4,false,impossible,lower_bound_only,>=2,,,
4,4,4,even,36,10,false,impossible,exact,2,12,7,48
"""


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def collect_cites(node, found):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("cite", "citations", "trail"):
                if isinstance(value, str):
                    found.add(value)
                else:
                    found.update(value)
            collect_cites(value, found)
    elif isinstance(node, list):
        for item in node:
            collect_cites(item, found)


def test_batch_golden_csv(capsys):
    code, out, err = run(["batch", "--max-degree", "4", "--format", "csv"], capsys)
    assert code == 0
    assert err == ""
    assert out == GOLDEN_MAX4_CSV


def test_batch_csv_deterministic(capsys):
    _, first, _ = run(["batch", "--max-degree", "6", "--format", "csv"], capsys)
    _, second, _ = run(["batch", "--max-degree", "6", "--format", "csv"], capsys)
    assert first == second


def test_classify_json_roundtrip(capsys):
    code, out, err = run(["classify", "2", "4", "6", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out

    assert payload["triple"] == {"n1": 2, "n2": 4, "n3": 6, "parity": "even"}
    assert payload["generic"] is True
    assert payload["invariants"]["k_squared"] == 36
    assert payload["invariants"]["chi"] == 11
    assert payload["invariants"]["big_m"] == 50
    assert payload["picard"]["rho_is_one"] is True
    assert payload["picard"]["witnesses"] == []
    assert payload["line_bundle"]["status"] == "impossible"
    assert payload["complexity"] == {
        "kind": "exact",
        "value": 2,
        "bounds": None,
        "trail": payload["complexity"]["trail"],
    }
    assert payload["recipe"]["z_count"] == 50
    assert payload["recipe"]["tangency_note"]

    cites = set()
    collect_cites(payload, cites)
    assert cites <= ALL_LABELS
    # the flat list is registry-ordered and duplicate-free
    listed = payload["citations"]
    assert len(listed) == len(set(listed))


def test_classify_csv_single_row(capsys):
    code, out, _ = run(["classify", "4", "2", "0", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n1,n2,n3,")
    assert lines[1] == "0,2,4,even,0,2,true,exists,exact,1,4,2,14"


def test_classify_text(capsys):
    code, out, _ = run(["classify", "0", "2", "4"], capsys)
    assert code == 0
    assert "branch degrees (0, 2, 4)" in out
    assert "rho(S) > 1" in out
    assert "line bundle: exists" in out
    assert "uc = 1 (exact)" in out
    assert "#Z = 14" in out
    assert "note:" in out  # M mod 4 = 2 carries the tangency condition

    code, out, _ = run(["classify", "0", "2", "2"], capsys)
    assert code == 0
    assert "recipe: none (" in out
    assert "m >= 3" in out

    code, out, _ = run(["classify", "1", "1", "3"], capsys)
    assert code == 0
    assert "recipe: none (odd cover)" in out
    assert "uc = >=2 (lower_bound_only)" in out


def test_classify_text_rho_one(capsys):
    code, out, _ = run(["classify", "2", "4", "6"], capsys)
    assert code == 0
    assert out.splitlines()[2] == (
        "picard: rho(S) = 1 (every intermediate double plane has rho = 1)"
    )


def test_classify_rejects_bad_triples(capsys):
    code, _, err = run(["classify", "1", "2", "3"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Def. 2.7" in err

    code, _, err = run(["classify", "0", "0", "2"], capsys)
    assert code == 2
    assert "Remark after Prop. 2.8" in err


def test_classify_rejects_signed_degree():
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "-1", "1", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["classify", "2", "4", "-6"], "bidouble classify: error: argument n3: expected an "
         "unsigned integer (signs are rejected on degrees), got '-6'"),
        (["classify", "2", "4"], "bidouble classify: error: the following arguments are "
         "required: n3"),
        (["batch"], "bidouble batch: error: one of the arguments --input --max-degree is "
         "required"),
        (["batch", "--max-degree", "4", "--input", "x"], "bidouble batch: error: argument "
         "--input: not allowed with argument --max-degree"),
        (["search", "lattice", "--preset", "p1xp1", "--degree", "+5", "--selfint", "0"],
         "bidouble search lattice: error: argument --degree: expected an unsigned integer "
         "(signs are rejected on degrees), got '+5'"),
        (["search", "lattice", "--preset", "k3_024", "--degree", "3", "--selfint", "x"],
         "bidouble search lattice: error: argument --selfint: expected an integer, got 'x'"),
    ],
    ids=["classify_sign", "classify_arity", "batch_source", "batch_both", "lattice_sign",
         "lattice_selfint"],
)
def test_argparse_refusal_is_one_line(argv, line, capsys):
    # The message line argparse writes last, without the usage lines before it.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_unsigned_int_type():
    assert cli.unsigned_int("12") == 12
    for bad in ("-3", "+3", "3.0", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.unsigned_int(bad)
    assert cli.signed_int("-3") == -3
    with pytest.raises(argparse.ArgumentTypeError):
        cli.signed_int("x")


def test_enumerate_triples_small():
    triples = [t.as_tuple() for t in cli.enumerate_triples(2)]
    assert triples == [(0, 2, 2), (1, 1, 1), (2, 2, 2)]


def test_enumerate_triples_matches_definition():
    # admissible: sorted, one shared parity, at most one zero degree.  The
    # rows skip BranchTriple's checks, so each must also be the record
    # validate_triple builds.  Every degree to 30 and both parities at the
    # ceiling; all 101 degrees would take seconds.
    top = cli.MAX_ENUMERATED_DEGREE
    brute = [
        (n1, n2, n3)
        for n1 in range(top + 1)
        for n2 in range(n1, top + 1)
        for n3 in range(n2, top + 1)
        if n1 % 2 == n2 % 2 == n3 % 2 and (n1, n2) != (0, 0)
    ]
    assert cli.enumerate_triples(top) == [validate_triple(t) for t in brute]
    for max_degree in [*range(31), top - 1, top]:
        got = cli.enumerate_triples(max_degree)
        assert all(type(t) is BranchTriple for t in got)
        assert got == [t for t in brute if t[2] <= max_degree], max_degree


def test_batch_max_degree_ceiling(capsys):
    code, out, err = run(["batch", "--max-degree", "100001"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "ceiling 100" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "2", "4", "2" * 3000],
        ["classify", "2", "4", "+" + "2" * 3000],
        ["search", "lattice", "--preset", "p1xp1", "--degree", "2", "--selfint", "-" + "2" * 3000],
    ],
    ids=["classify_degree", "classify_signed_degree", "selfint"],
)
def test_oversized_number_argument(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "3000 digits is too long to parse" in err
    assert f"ceiling is {cli.MAX_DIGITS} digits" in err
    assert "Traceback" not in err
    assert len(err.splitlines()[-1]) < 200


def test_number_text_names_long_numbers_by_digit_count():
    assert number_text(10**30 - 1) == "9" * 30
    assert number_text(-(10**30 - 1)) == "-" + "9" * 30
    for digits in range(31, 400):
        # Either side of each power of ten, where log10 can round either way.
        assert number_text(10 ** (digits - 1)) == f"<a number of {digits} digits>"
        assert number_text(10**digits - 1) == f"<a number of {digits} digits>"
    # Past Python's int-to-str limit, the count still comes out exact.
    assert number_text(10**5000) == "<a number of 5001 digits>"


NINES = "9" * 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "lattice", "--preset", "delpezzo1", "--degree", "1", "--selfint", "1",
         "--bound", NINES[:479]],
        ["search", "lattice", "--preset", "delpezzo4", "--degree", NINES[:999], "--selfint", "1"],
        ["search", "lattice", "--preset", "k3_024", "--degree", "1", "--selfint", "1",
         "--bound", NINES],
        ["search", "p1xp1", "--n", "5", "--bound", NINES],
        ["batch", "--max-degree", NINES],
        ["classify", "2", "4", NINES],
        ["search", "rho1", "--triple", "1", "1", NINES],
        ["search", "lattice", "--preset", "rank1_bidouble", "--triple", "1", "1", NINES,
         "--degree", "1", "--selfint", "1"],
    ],
    ids=["lattice_bound", "lattice_default_bound", "lattice_bound_k3", "p1xp1_bound",
         "batch_max_degree", "classify_parity", "rho1_odd", "lattice_rank1_odd"],
)
def test_oversized_value_refused_in_one_short_line(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "bidouble.cli", *argv],
        env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.startswith(b"error:")
    assert result.stderr.count(b"\n") == 1
    assert len(result.stderr) < 200
    assert b"digits>" in result.stderr


@pytest.mark.parametrize(
    "call",
    [
        lambda: BranchTriple(3, 1, int(NINES)),
        lambda: special_ulrich_targets((1, 1, int(NINES))),
        lambda: special_rank2_recipe((1, 1, int(NINES))),
        lambda: rank1_rho1_search((1, 1, int(NINES))),
        lambda: intermediate_picard(0, int(NINES)),
        lambda: intermediate_picard(-1, int(NINES)),
    ],
    ids=["triple_unsorted", "targets_odd", "recipe_odd", "rho1_odd", "pair_parity",
         "pair_sign"],
)
def test_library_refusal_names_long_degree_by_digit_count(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert ", <a number of 1000 digits>)" in str(exc.value)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize(
    "call",
    [
        lambda: odd_rank_obstruction((1, 1, 3), -int(NINES)),
        lambda: UlrichCandidate(DivisorClass((1,)), int(NINES), 1),
        lambda: UlrichCandidate(DivisorClass((1,)), 0, -int(NINES)),
        lambda: is_perfect_square(-int(NINES)),
        lambda: p1xp1_line_search(-int(NINES)),
        lambda: p1xp1_line_search(3, bound=-int(NINES)),
        lambda: brute_force_search(preset_lattice("p1xp1"), -int(NINES), 1, 0),
    ],
    ids=["parity_rank", "candidate_c2", "candidate_rank", "perfect_square", "p1xp1_n",
         "p1xp1_bound", "lattice_bound"],
)
def test_library_refusal_names_long_number_by_digit_count(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert "<a number of 1000 digits>" in str(exc.value)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "lattice", "--preset", "delpezzo1", "--degree", "3", "--selfint", "1",
          "--bound", "10"],
         "search box has 794280046581 cells at rank 9, bound 10; "
         "the cap is 100000000, pass a smaller bound"),
        (["search", "lattice", "--preset", "p1xp1", "--degree", "2", "--selfint", "0",
          "--bound", "1000000000"],
         "search box has 4000000004000000001 cells at rank 2, bound 1000000000; "
         "the cap is 100000000, pass a smaller bound"),
        # A side past 30 digits is never raised to the rank: the message
        # bounds the cell count by the side.
        (["search", "lattice", "--preset", "delpezzo1", "--degree", "1", "--selfint", "1",
          "--bound", NINES[:479]],
         "search box has at least <a number of 480 digits> cells at rank 9, "
         "bound <a number of 479 digits>; the cap is 100000000, pass a smaller bound"),
        # The value count is 2 * bound + 1, exactly.
        (["search", "p1xp1", "--n", "1", "--bound", "50000000"],
         "quadric box scan at bound 50000000 has 100000001 values of a, "
         "over the cap of 100000000"),
    ],
    ids=["lattice_rank9", "lattice_side_over_cap", "lattice_long_side", "p1xp1_values_of_a"],
)
def test_refusal_message_bytes(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, capped",
    [
        (["classify", "0", "2", "200000000", "--format", "csv"], False),
        (["search", "p1xp1", "--n", "3", "--bound", "1000000000"], True),
    ],
    ids=["classify", "search_p1xp1"],
)
def test_quadric_box_cap(argv, capped, capsys):
    # search p1xp1 replays the explicit box scan, so it keeps the cap;
    # classify checks the quadric by bisection, so it has none and answers.
    code, out, err = run(argv, capsys)
    if capped:
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "cap" in err
    else:
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("0,2,200000000,even,")
        assert ",impossible,exact,2," in out


def test_quadric_box_cap_in_classify_names_no_option(capsys):
    # classify takes no bound: a large quadric triple is classified, and
    # nothing it prints advises passing a bound or names a cap.
    code, out, err = run(["classify", "0", "2", "200000000"], capsys)
    assert (code, err) == (0, "")
    assert "impossible" in out
    assert "cap" not in out
    assert "--bound" not in out
    assert "smaller bound" not in out


@pytest.mark.parametrize(
    "n3",
    ["200000000", NINES[:998] + "8"],
    ids=["n3_200000000", "n3_999_digits"],
)
def test_classify_large_quadric_answers(n3, capsys):
    # classify checks the quadric by bisection, which has no box and no
    # cap: every (0,2,2n) is classified, whatever the size of n.
    code, out, err = run(["classify", "0", "2", n3, "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert row.startswith(f"0,2,{n3},even,")
    assert ",impossible,exact,2," in row


def test_batch_input_clean(capsys):
    code, out, err = run(
        ["batch", "--input", str(DATA / "triples.txt"), "--format", "csv"], capsys
    )
    assert code == 0
    assert err == ""
    rows = out.splitlines()[1:]
    # duplicates collapse after sorting each line; rows come out lex-ordered
    assert [r.split(",")[:3] for r in rows] == [
        ["0", "2", "2"],
        ["0", "2", "4"],
        ["1", "1", "3"],
        ["2", "2", "2"],
    ]


def test_batch_input_bad(capsys):
    code, out, err = run(
        ["batch", "--input", str(DATA / "triples_bad.txt"), "--format", "csv"], capsys
    )
    assert code == 2
    rows = out.splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["0", "2", "2"], ["2", "4", "6"]]
    assert err == (
        "skipped line 3: at least two zero branch degrees disconnect the cover, "
        "got (0, 0, 2) (Remark after Prop. 2.8)\n"
        "skipped line 4: branch degrees must share a parity for the cover to be smooth, "
        "got (1, 2, 3) (Def. 2.7)\n"
        "skipped line 5: expected three degrees, got 2\n"
        "skipped line 6: degrees must be unsigned integers, got 'x'\n"
    )


def test_batch_input_oversized_token(capsys, tmp_path):
    # A token past the int-string digit limit is one skipped line, not a
    # traceback; the mixed parity rejects it where there is no limit.
    path = tmp_path / "big.txt"
    path.write_text("2 4 6\n1 2 " + "1" * 5000 + "\n0 2 2\n")
    code, out, err = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert code == 2
    assert [r.split(",")[:3] for r in out.splitlines()[1:]] == [
        ["0", "2", "2"], ["2", "4", "6"]]
    skipped = [line for line in err.splitlines() if line.startswith("skipped line")]
    assert len(skipped) == 1
    assert skipped[0].startswith("skipped line 2:")
    assert len(skipped[0]) < 200
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert "5000 digits is too long to parse" in skipped[0]


def test_batch_input_oversized_signed_token(capsys, tmp_path):
    # The digit ceiling is tested before the sign and the arity, so neither
    # diagnostic repeats the 3000-digit token.
    path = tmp_path / "signed.txt"
    path.write_text("2 4 +" + "2" * 3000 + "\n1 2 3 " + "4" * 3000 + "\n2 4 6\n")
    code, out, err = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert code == 2
    assert [r.split(",")[:3] for r in out.splitlines()[1:]] == [["2", "4", "6"]]
    skipped = [line for line in err.splitlines() if line.startswith("skipped line")]
    assert [line[:15] for line in skipped] == ["skipped line 1:", "skipped line 2:"]
    assert all("3000 digits is too long to parse" in line for line in skipped)
    assert max(map(len, err.splitlines())) < 200


def test_batch_input_long_lines(capsys, tmp_path):
    # Neither the arity nor the unsigned diagnostic repeats the raw line:
    # one names the token count, the other the offending token.
    path = tmp_path / "long.txt"
    path.write_text(" ".join(["2"] * 5000) + "\nx" + " " * 100000 + "2 4\n2 4 6\n")
    code, out, err = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert code == 2
    assert [r.split(",")[:3] for r in out.splitlines()[1:]] == [["2", "4", "6"]]
    skipped = [line for line in err.splitlines() if line.startswith("skipped line")]
    assert len(skipped) == 2
    assert skipped[0].startswith("skipped line 1:")
    assert "expected three degrees, got 5000" in skipped[0]
    assert skipped[1].startswith("skipped line 2:")
    assert "unsigned integers, got 'x'" in skipped[1]
    assert max(map(len, err.splitlines())) < 200


def test_cli_import_leaves_numpy_out():
    # Neither numpy nor the heavy standard modules load at start-up, no
    # rational arithmetic either, no json and no argparse, which only help
    # and refusals need, and no __future__, whose annotations Python 3.10
    # evaluates natively; the probe counts only what the import adds, not
    # what site preloads.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for module in ("bidouble.cli", "bidouble"):
        probe = (
            f"import sys; before = set(sys.modules); import {module}; "
            "new = set(sys.modules) - before; "
            "print(sorted(new & {'numpy', 'dataclasses', 'inspect', 'fractions', 'numbers', "
            "'json', 'argparse', '__future__'}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", module


def test_json_loads_only_for_json_output():
    # No run loads json: text, CSV and refused runs have no use for it, and
    # JSON output comes from cli._dumps.  -S keeps site from preloading
    # anything.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys\n"
        "from bidouble.cli import main\n"
        "def loaded(argv):\n"
        "    try:\n"
        "        code = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    return [code, 'json' in sys.modules]\n"
        "runs = [loaded(['classify', '2', '4', '6', '--format', 'csv']),\n"
        "        loaded(['classify', '2', '4', '6']),\n"
        "        loaded(['presets', '--format', 'text']),\n"
        "        loaded(['classify', '1', '2', '3']),\n"
        "        loaded(['classify', '2', '4', 'x']),\n"
        "        loaded(['classify', '2', '4', '6', '--format', 'json'])]\n"
        "print(runs, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    runs = result.stderr.splitlines()[-1]
    assert runs == (
        "[[0, False], [0, False], [0, False], [2, False], [2, False], [0, False]]"
    )


# The runs of every command the exact parser reads; the batch file has
# skipped lines, so that run exits 2 without argparse as well.
EXACT_RUNS = [
    ["classify", "2", "4", "6", "--format", "csv"],
    ["classify", "2", "4", "6"],
    ["classify", "1", "3", "5", "--format", "json"],
    ["classify", "1", "2", "3"],
    ["batch", "--max-degree", "8", "--format", "json"],
    ["batch", "--input", str(DATA / "triples_bad.txt")],
    ["search", "rho1", "--triple", "2", "4", "6", "--format", "json"],
    ["search", "p1xp1", "--n", "3"],
    ["search", "lattice", "--preset", "delpezzo4", "--degree", "3", "--selfint", "-1",
     "--bound", "3", "--format", "json"],
    ["presets", "--format", "json"],
    ["presets"],
]


@pytest.mark.parametrize(
    "fallback, code",
    [(["--help"], 0), (["classify", "2", "4", "x"], 2),
     (["classify", "2", "4", "6", "--form", "json"], 0)],
    ids=["help", "refusal", "abbreviation"],
)
def test_argparse_loads_only_for_help_and_refusals(fallback, code):
    # Every run of EXACT_RUNS leaves argparse and json unloaded; help, a
    # refusal and an abbreviated option load argparse, still not json.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys\n"
        "from bidouble.cli import main\n"
        "def loaded(argv):\n"
        "    try:\n"
        "        code = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    return [code, 'argparse' in sys.modules, 'json' in sys.modules]\n"
        f"print([loaded(argv) for argv in {EXACT_RUNS + [fallback]!r}], file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    runs = eval(result.stderr.splitlines()[-1])
    codes = [0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert runs == [[c, False, False] for c in codes] + [[code, True, False]]


LATTICE_ARGV = ["search", "lattice", "--preset", "delpezzo4", "--degree", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "2", "4", "6", "-h"],
        ["classify", "--help"],
        ["classify", "--", "2", "4", "6"],
        ["classify", "2", "4", "6", "--format=json"],
        ["classify", "2", "4", "6", "--form", "json"],
        ["classify", "2", "4", "6", "--format", "json", "--format", "json"],
        ["classify", "2", "4", "6", "--format", "xml"],
        ["classify", "+44", "4", "6"],
        ["classify", "2", "4", "9" * 1001],
        ["classify", "--format", "json", "2", "4", "6"],
        ["classify", "2", "4"],
        ["classify", "2", "4", "6", "8"],
        ["batch", "--format", "csv"],
        ["batch", "--input", "a", "--max-degree", "6"],
        ["batch", "--input", "-"],
        ["search", "rho1", "--triple", "2", "4"],
        ["search", "p1xp1", "--format", "csv", "--n", "3"],
        [*LATTICE_ARGV, "--selfint", "-x"],
        [*LATTICE_ARGV, "--selfint", "1", "--preset", "p1xp1"],
        ["search", "lattice", "--preset", "-h", "--degree", "3", "--selfint", "1"],
        ["search", "lattice", "--degree", "3", "--selfint", "1"],
        ["search"],
        ["--help"],
        [],
    ],
)
def test_exact_parser_declines(argv):
    assert cli._parse_exact(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "2", "4", "6"],
        ["batch", "--format", "json", "--input", "x"],
        [*LATTICE_ARGV, "--selfint", "-217", "--bound", "8", "--format", "json"],
        [*LATTICE_ARGV, "--selfint", "+5", "--triple", "2", "2", "2"],
        ["search", "p1xp1", "--n", "3", "--bound", "0007"],
    ],
)
def test_exact_parser_reads_what_argparse_reads(argv):
    assert vars(cli._parse_exact(argv)) == vars(cli.build_parser().parse_args(argv))


def test_fallback_parse_writes_the_same_bytes(capsys):
    # An abbreviated option goes to argparse, which reads the same namespace.
    assert cli._parse_exact(["classify", "2", "4", "6", "--form", "json"]) is None
    assert run(["classify", "2", "4", "6", "--form", "json"], capsys) == run(
        ["classify", "2", "4", "6", "--format", "json"], capsys
    )


@pytest.mark.parametrize(
    "argv",
    [["classify", "2", "4", "6"], ["classify", "2", "4", "6", "--form", "text"]],
    ids=["exact", "argparse"],
)
def test_command_functions_are_looked_up_at_call_time(argv, monkeypatch):
    # The benchmark's traced runs rebind cli.cmd_classify and its siblings;
    # both parsers must call the rebound function.
    calls = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: calls.append(vars(args)) or 0)
    assert cli.main(argv) == 0
    assert [call["func"] for call in calls] == [cli.cmd_classify]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["batch", "--max-degree", "12", "--format", "csv"], 0),
        (["batch", "--input", str(DATA / "triples_bad.txt"), "--format", "json"], 2),
        (["classify", "2", "4", "6", "--format", "json"], 0),
        (["classify", "1", "2", "4"], 2),
        (["search", "rho1", "--triple", "2", "4", "6", "--format", "json"], 0),
        (["search", "p1xp1", "--n", "3", "--format", "json"], 0),
        (["presets", "--format", "json"], 0),
        (["search", "lattice", "--preset", "delpezzo4", "--degree", "3", "--selfint", "1",
          "--bound", "4", "--format", "json"], 0),
    ],
    ids=["sweep", "file", "classify", "invalid", "rho1", "p1xp1", "presets", "lattice"],
)
def test_runs_leave_no_cyclic_garbage(argv, code, capsys):
    # cli.run turns the cycle collector off, so no run may leave cycles.
    cli.main(argv)  # first runs fill caches and import lazily
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_run_turns_the_cycle_collector_off(exit_codes, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    try:
        with pytest.raises(_Exited):
            cli.run()
    finally:
        gc.enable()
    assert seen == [False]


def test_slot_literals_are_the_json_spellings():
    # Start-up imports no json, so the writer's slot spellings are literals.
    assert cli._TEXT_JSON == json.dumps(cli._TEXT) == json.dumps("\x00")
    assert cli._INT_JSON == json.dumps(cli._INT) == json.dumps("\x01")


def test_public_annotations_resolve():
    # Start-up imports no annotation-only module, yet every annotation of a
    # public function names something the module can resolve.
    functions = [getattr(bidouble, name) for name in bidouble.__all__]
    functions = [fn for fn in functions if isinstance(fn, types.FunctionType)]
    assert bidouble.arithmetic_genus in functions
    for fn in functions:
        typing.get_type_hints(fn)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "2", "4", "6"],
        ["batch", "--max-degree", "6", "--format", "json"],
        ["--help"],
    ],
    ids=["classify", "batch", "help"],
)
def test_closed_stdout_ends_quietly(argv, unbuffered):
    # stdout is a pipe whose reader is gone before the CLI writes a byte.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "bidouble.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""


def test_main_sends_a_closed_stdout_to_the_null_device(monkeypatch, capsys):
    # In process, main() itself meets the broken pipe: it returns 1 and
    # points the descriptor at the null device, so closing the stream
    # flushes what is still buffered without a second error.
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(["classify", "2", "4", "6"]) == 1
        null = os.stat(os.devnull)
        assert (os.fstat(write_end).st_rdev, os.fstat(write_end).st_ino) == (null.st_rdev,
                                                                             null.st_ino)
    finally:
        stdout.close()
    assert capsys.readouterr().err == ""


def test_closed_descriptor_exits_1_without_traceback():
    # With descriptor 1 closed at start-up sys.stdout is None: one line on
    # stderr, exit 1, for a run of each parser.
    for argv in (["classify", "2", "4", "6"], ["--help"]):
        result = cli_process(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             preexec_fn=lambda: os.close(1))
        assert result.returncode == 1
        assert result.stderr == b"error: cannot write output: stdout is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [["classify", "2", "4", "6"], ["batch", "--max-degree", "30", "--format", "json"],
     ["--help"]],
    ids=["classify", "batch", "help"],
)
def test_full_device_exits_1_without_traceback(argv):
    # Every write to /dev/full fails with ENOSPC, inside the command, in
    # argparse's help or at the flush.
    with open("/dev/full", "wb") as full:
        result = cli_process(argv, stdout=full, stderr=subprocess.PIPE)
    assert result.returncode == 1
    assert result.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["classify", "1", "2", "3"], ["batch", "--max-degree", "200"]],
    ids=["classify", "batch"],
)
def test_full_stderr_keeps_the_exit_code(argv, unbuffered, monkeypatch):
    # The refusal line cannot be written; it is dropped, and the run still
    # exits 2, not 1 with a traceback that cannot be written either.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "wb") as full:
        result = cli_process(argv, stdout=subprocess.PIPE, stderr=full)
    assert result.returncode == 2
    assert result.stdout == b""


class _Exited(Exception):
    """Raised by the stand-in for ``os._exit``, which never returns."""


@pytest.fixture
def exit_codes(monkeypatch):
    """The codes ``cli.run`` passes to ``os._exit``."""
    codes = []

    def record(code):
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(os, "_exit", record)
    return codes


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_run_exits_with_the_code_of_main(code, exit_codes, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: code)
    with pytest.raises(_Exited):
        cli.run()
    assert exit_codes == [code]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, "usage: bidouble [-h]", ""),
        (["classify", "2", "4"], 2, "",
         "bidouble classify: error: the following arguments are required: n3\n"),
    ],
    ids=["help", "refusal"],
)
def test_run_exits_with_the_code_of_argparse(argv, code, out, err, exit_codes, monkeypatch,
                                             capsys):
    monkeypatch.setattr(sys, "argv", ["bidouble", *argv])
    with pytest.raises(_Exited):
        cli.run()
    assert exit_codes == [code]
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    assert captured.err == err


def test_run_flushes_both_streams_before_exit(monkeypatch):
    # Neither text ends in a newline, so each stays in its wrapper until a
    # flush; os._exit would drop it.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    seen = []

    def main():
        out.write("row")
        err.write("note")
        return 0

    def record(code):
        seen.append((code, out.buffer.getvalue(), err.buffer.getvalue()))
        raise _Exited

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(os, "_exit", record)
    with pytest.raises(_Exited):
        cli.run()
    assert seen == [(0, b"row", b"note")]


@pytest.mark.parametrize(
    "exc",
    [SystemExit("bye"), SystemExit(None), RuntimeError("stray"), KeyboardInterrupt()],
    ids=["text_exit", "none_exit", "stray", "interrupt"],
)
def test_run_leaves_other_exits_to_the_interpreter(exc, exit_codes, monkeypatch):
    def main():
        raise exc

    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(type(exc)) as raised:
        cli.run()
    assert raised.value is exc
    assert exit_codes == []


def test_console_script_is_the_entry_function():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^bidouble = .*$", pyproject, re.M) == ['bidouble = "bidouble.cli:run"']


def cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m bidouble.cli ARGV``: the ``__main__`` guard and ``cli.run``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "bidouble.cli", *argv], env=env, timeout=120, **kwargs
    )


def test_entry_runs_with_stderr_closed():
    # With descriptor 2 closed at start-up, sys.stderr is None; the run
    # still writes its whole output and exits 0.
    result = cli_process(["classify", "2", "4", "6", "--format", "json"],
                         stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == CLASSIFY_JSON_SHA256["2 4 6"]


def test_entry_exits_3_on_a_failed_check():
    probe = (
        "import sys\n"
        "import bidouble.classify\n"
        "from bidouble.cli import run\n"
        "from bidouble.errors import ConsistencyError\n"
        "def fail(t, inv):\n"
        "    raise ConsistencyError('forced on ' + str(t.as_tuple()))\n"
        "bidouble.classify._check_q1 = fail\n"
        "sys.argv = ['bidouble', 'classify', '2', '4', '6']\n"
        "run()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, timeout=60
    )
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == b"internal consistency failure: forced on (2, 4, 6)\n"


def test_batch_missing_file(capsys):
    code, _, err = run(["batch", "--input", str(DATA / "nope.txt")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_batch_input_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 4 6\n\xff\xfe 2 2\n")
    code, out, err = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}:")
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200 + len(str(path))


def test_batch_input_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf2 4 6\n0 2 4\n")
    code, out, err = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert code == 0
    assert err == ""
    assert out.splitlines()[1:] == [
        "0,2,4,even,0,2,true,exists,exact,1,4,2,14",
        "2,4,6,even,36,11,false,impossible,exact,2,13,8,50",
    ]


def test_batch_requires_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["batch"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["batch", "--max-degree", "4", "--input", "x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_batch_json_roundtrip(capsys):
    code, out, _ = run(
        ["batch", "--input", str(DATA / "triples.txt"), "--format", "json"], capsys
    )
    assert code == 0
    payloads = json.loads(out)
    assert len(payloads) == 4
    assert json.dumps(payloads, indent=2) + "\n" == out


def payload_csv_cells(payload: dict) -> list[str]:
    """The CSV cells of one row, read off its ``query_payload`` dict."""
    triple, inv, recipe, uc = (
        payload["triple"], payload["invariants"], payload["recipe"], payload["complexity"]
    )
    if uc["kind"] == "exact":
        uc_value = str(uc["value"])
    elif uc["kind"] == "upper_bound":
        uc_value = f"{uc['bounds']['low']}..{uc['bounds']['high']}"
    else:
        uc_value = f">={uc['bounds']['low']}"
    return [
        str(triple["n1"]),
        str(triple["n2"]),
        str(triple["n3"]),
        triple["parity"],
        str(inv["k_squared"]),
        str(inv["chi"]),
        "false" if payload["picard"]["rho_is_one"] else "true",
        payload["line_bundle"]["status"],
        uc["kind"],
        uc_value,
        "" if recipe is None else str(recipe["deg_c"]),
        "" if recipe is None else str(recipe["deg_cprime"]),
        "" if recipe is None else str(recipe["z_count"]),
    ]


def test_json_writer_matches_stdlib(capsys):
    # The renderers read the Classification record; query_payload is their
    # reference, through json.dumps and through the CSV cells above.
    # The odd jumps come first: they share the complexity record of the
    # rho = 1 odd rows in max50, such as (1,1,1), but not their rho_gt_1
    # cell, so a CSV memo keyed by that record alone writes a wrong cell.
    sources = {"odd jumps": [BranchTriple(1, 1, 3), BranchTriple(1, 3, 5), BranchTriple(1, 5, 7)],
               "max50": cli.enumerate_triples(50)}
    for name in ("triples.txt", "triples_bad.txt"):
        with open(DATA / name) as stream:
            sources[name], _ = cli.parse_triples_file(stream)
    csv_memo = {}  # shared across every row, as cmd_batch shares its own
    for triples in sources.values():
        for t in triples:
            c = classify_module.classify_triple(t)
            payload = cli.query_payload(t)
            text = json.dumps(payload, indent=2)
            assert cli._query_json(c, "", {}) == text
            assert cli._query_json(c, "  ", {}) == text.replace("\n", "\n  ")
            cells = payload_csv_cells(payload)
            assert cli._csv_line(c, {}).split(",") == cells
            assert cli._csv_line(c, csv_memo).split(",") == cells
    # A batch keeps one memo across its rows.  Under it the row writer's
    # own calls of the string encoder, not counting those that make the
    # templates, encode each distinct reason and tangency note once per
    # batch, not once per row.  Quadric (0,2,2n) rows each have their own
    # reason.
    records = [classify_module.classify_triple(t) for t in sources["max50"]]
    notes = {c.recipe.tangency_note for c in records if c.recipe is not None}
    texts = {c.line_bundle.reason for c in records} | (notes - {None})
    assert None in notes and len(notes) == 2
    assert len({c.line_bundle.reason for c in records if c.triple[:2] == (0, 2)}) == 25
    encoded = []

    def count_encodes(frame, event, arg):
        if (event == "c_call" and arg is encode_basestring_ascii
                and frame.f_code is cli._query_json.__code__):
            encoded.append(arg)

    memo = {}
    sys.setprofile(count_encodes)
    try:
        rows = [cli._query_json(c, "  ", memo) for c in records]
    finally:
        sys.setprofile(None)
    assert len(encoded) == len(texts)
    assert len(records) > 10 * len(texts)
    for t, row in zip(sources["max50"], rows):
        assert row == json.dumps(cli.query_payload(t), indent=2).replace("\n", "\n  ")
    for name in ("triples.txt", "triples_bad.txt"):
        triples, payloads = sources[name], [cli.query_payload(t) for t in sources[name]]
        assert triples
        _, out, _ = run(["batch", "--input", str(DATA / name), "--format", "json"], capsys)
        assert out == json.dumps(payloads, indent=2) + "\n"
        _, out, _ = run(["batch", "--input", str(DATA / name), "--format", "csv"], capsys)
        assert out.splitlines() == [",".join(cli.CSV_COLUMNS)] + [
            ",".join(payload_csv_cells(p)) for p in payloads
        ]


def test_template_constants_hold_no_slot():
    # The JSON writer cuts its templates at "\x00" and fills them at
    # "\x01": a constant holding either would be cut or filled as a slot.
    texts = set(ALL_LABELS) | {cli.EXCLUSION_NOTE, TANGENCY_NOTE}
    verdicts = 0
    for value in vars(classify_module).values():
        if isinstance(value, classify_module.LineBundleStatus):
            texts |= {value.status, value.reason, *value.citations}
            verdicts += 1
        elif isinstance(value, classify_module.ComplexityVerdict):
            texts |= {value.kind, *value.trail}
            verdicts += 1
    assert verdicts
    families = set()
    for t in cli.enumerate_triples(12):
        pic = picard_classification(t)
        if pic.family is not None:
            families.add(pic.family)
            texts |= {pic.family, *(w.cite for w in pic.witnesses)}
    assert len(families) == 4
    assert [s for s in texts if "\x00" in s or "\x01" in s] == []


def test_complexity_record_fixes_the_template_fields():
    # The JSON writer keys its templates by the identities of the Picard and
    # complexity records: each complexity record is a classifier constant
    # that fixes the template's other fields.
    constants = {id(v): v for v in vars(classify_module).values()
                 if isinstance(v, classify_module.ComplexityVerdict)}
    fields = {}
    triples = cli.enumerate_triples(30) + [(0, 2, 2 * n) for n in (40, 10**30)]
    for t in triples:
        c = classify_module.classify_triple(t)
        assert constants[id(c.complexity)] is c.complexity
        fields.setdefault(id(c.complexity), set()).add(
            (c.line_bundle.status, c.line_bundle.citations, c.triple.parity, c.recipe is None)
        )
    assert len(fields) == len(constants) == 6
    assert all(len(seen) == 1 for seen in fields.values())


def test_json_writer_takes_percent_signs(monkeypatch):
    # Only the spans that hold integer slots are %-templates; a verdict
    # text with "%" and "%d" in it is written as it stands.
    reason = "100% open: %d, %s and %% are not format specifiers"
    monkeypatch.setattr(
        classify_module,
        "_LB_OPEN",
        classify_module._LB_OPEN._replace(reason=reason),
    )
    for t in ((2, 2, 8), (0, 4, 10)):
        c = classify_module.classify_triple(t)
        assert c.line_bundle.reason == reason
        text = json.dumps(cli.query_payload(t), indent=2)
        assert cli._query_json(c, "", {}) == text
        assert cli._query_json(c, "  ", {}) == text.replace("\n", "\n  ")


def test_csv_writer_takes_percent_signs(monkeypatch):
    # A CSV line is a %-template filled with the row's numbers; a verdict
    # text with "%", "%d", "%s" and "%%" in it is written as it stands.
    kind = "100% up: %d %s %%"
    monkeypatch.setattr(
        classify_module,
        "_UC_ODD",
        classify_module._UC_ODD._replace(kind=kind),
    )
    memo = {}
    for t in ((1, 3, 5), (3, 5, 7)):
        c = classify_module.classify_triple(t)
        assert c.complexity.kind == kind
        cells = payload_csv_cells(cli.query_payload(t))
        assert cells[8] == kind
        assert cli._csv_line(c, {}).split(",") == cells
        assert cli._csv_line(c, memo).split(",") == cells


def test_batch_without_rows(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# no triples\n")
    _, out, _ = run(["batch", "--input", str(path), "--format", "json"], capsys)
    assert out == json.dumps([], indent=2) + "\n"
    _, out, _ = run(["batch", "--input", str(path), "--format", "csv"], capsys)
    assert out == ",".join(cli.CSV_COLUMNS) + "\n"
    _, out, _ = run(["batch", "--input", str(path)], capsys)
    assert out.split() == list(cli.CSV_COLUMNS)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_failed_batch_writes_nothing(fmt, monkeypatch, capsys, tmp_path):
    # Every row is checked before the first byte is written: a check that
    # fails on the last row leaves stdout empty, also past the first blocks.
    long_rows = cli.enumerate_triples(24)[-(2 * cli.BLOCK_ROWS + 1):]
    path = tmp_path / "long.txt"
    path.write_text("".join(f"{t.n1} {t.n2} {t.n3}\n" for t in long_rows))
    sources = (
        (["--max-degree", "12"], cli.enumerate_triples(12)[-1]),
        (["--input", str(path)], long_rows[-1]),
    )
    real = classify_module._check_q1
    for source, last in sources:
        assert last.is_even and last.n1 + last.n2 >= 6  # _check_q1 runs on it
        checked = []

        def check_q1(t, inv):
            checked.append(t)
            if t == last:
                raise ConsistencyError(f"forced on the last row {t.as_tuple()}")
            return real(t, inv)

        monkeypatch.setattr(classify_module, "_check_q1", check_q1)
        code, out, err = run(["batch", *source, "--format", fmt], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("internal consistency failure: forced on the last row")
        assert len(checked) > 1 and checked[-1] == last


class _RecordedWrites(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def text_table(payloads) -> str:
    """The text table of these rows: each column as wide as its widest cell
    or its name, cells two spaces apart, trailing blanks cut."""
    rows = [list(cli.CSV_COLUMNS)] + [payload_csv_cells(p) for p in payloads]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


@pytest.fixture(scope="module")
def block_payloads():
    rows = cli.enumerate_triples(40)[:2 * cli.BLOCK_ROWS + 1]
    return rows, [cli.query_payload(t) for t in rows]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_batch_block_boundaries(fmt, block_payloads, monkeypatch, tmp_path):
    # Around each block boundary the output equals the per-row reference,
    # written with one write for the header, then one per block of
    # BLOCK_ROWS rows and one for the rest.
    rows, payloads = block_payloads
    b = cli.BLOCK_ROWS
    for count in (0, 1, b - 1, b, b + 1, 2 * b + 1):
        # Unsorted lines and a repeat: count unique valid rows.
        lines = [f"{t.n3} {t.n1} {t.n2}\n" for t in rows[:count]] + ["# end\n"]
        path = tmp_path / f"rows-{count}.txt"
        path.write_text("".join(lines[::-1] + lines[:1]))
        stdout = _RecordedWrites()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["batch", "--input", str(path), "--format", fmt]) == 0
        expected = {
            "json": json.dumps(payloads[:count], indent=2) + "\n",
            "csv": "".join(
                ",".join(cells) + "\n"
                for cells in [cli.CSV_COLUMNS] + list(map(payload_csv_cells, payloads[:count]))
            ),
            "text": text_table(payloads[:count]),
        }[fmt]
        assert stdout.getvalue() == expected, count
        if fmt == "json":  # a row starts a line with "{" at indent 2
            rows_per_write = [w.count("\n  {") + w.startswith("{") for w in stdout.writes]
            head = 0
        else:  # a row, or the header, is a line
            rows_per_write = [w.count("\n") for w in stdout.writes]
            head = 1
        assert rows_per_write == [head] + [b] * (count // b) + [count % b] * (count % b > 0), count


def test_batch_text_table(capsys):
    code, out, _ = run(["batch", "--max-degree", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["n1", "n2", "n3"]
    assert len(lines) == 4


def test_search_rho1_json(capsys):
    code, out, _ = run(
        ["search", "rho1", "--triple", "2", "4", "6", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["triple"] == [2, 4, 6]
    verdict = payload["verdict"]
    assert verdict["status"] == "infeasible_search"
    assert verdict["candidates"] == []
    assert verdict["trace"][-1]["step"].endswith("= 56 != 0")
    assert {s["cite"] for s in verdict["trace"]} <= ALL_LABELS


def test_search_rho1_text(capsys):
    code, out, _ = run(["search", "rho1", "--triple", "2", "4", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[:2] == ["search: rho1", "triple: [2, 4, 6]"]
    assert lines[-1] == "verdict: infeasible_search"
    assert all(line.endswith(" [Lemma 4.2]") for line in lines[2:-1])


@pytest.mark.parametrize("triple, family", [
    ((0, 2, 2), "(0,2,2n)"), ((0, 2, 4), "(0,2,2n)"), ((0, 4, 6), "(0,4,2n)"),
    ((2, 2, 2), "(2,2,2n)"),
])
def test_search_rho1_rejects_rho_above_one(triple, family, capsys):
    # Lemma 4.2 assumes rho = 1: an even cover in a jump family is refused,
    # not reported as eliminated.  (0,2,4) has a certified line bundle.
    code, out, err = run(["search", "rho1", "--triple", *map(str, triple)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: search rho1 needs Picard number one, but {triple} has rho > 1 "
        f"(family {family}, Thm. 1.1)\n"
    )


def test_search_rho1_rejects_odd(capsys):
    code, _, err = run(["search", "rho1", "--triple", "1", "1", "3"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_search_p1xp1_json(capsys):
    code, out, _ = run(["search", "p1xp1", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["bound"] == 40
    assert payload["verdict"]["status"] == "infeasible_search"
    assert payload["verdict"]["candidates"] == []
    steps = [s["step"] for s in payload["verdict"]["trace"]]
    assert any("discriminant" in s for s in steps)


def test_search_p1xp1_text(capsys):
    code, out, _ = run(["search", "p1xp1", "--n", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "bound: 40" in lines
    assert (
        "brute-force cross-check over the box |a|, |b| <= 40: 0 solution(s) [Prop. 4.4]"
        in lines
    )


@pytest.mark.parametrize("bound_argv", [[], ["--bound", "5"]], ids=["default", "explicit"])
def test_search_p1xp1_header_bound_is_the_trace_bound(bound_argv, capsys):
    # The header and the trace's box line read the bound from one place.
    argv = ["search", "p1xp1", "--n", "7", *bound_argv]
    box = re.compile(r"brute-force cross-check over the box \|a\|, \|b\| <= (\d+): ")
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    header = int(next(line for line in lines if line.startswith("bound: "))[len("bound: "):])
    [traced] = [int(m.group(1)) for m in map(box.match, lines) if m]
    assert header == traced == (int(bound_argv[1]) if bound_argv else 80)
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    [traced] = [int(m.group(1)) for s in payload["verdict"]["trace"] if (m := box.match(s["step"]))]
    assert payload["bound"] == header == traced


def test_search_lattice_text(capsys):
    code, out, _ = run(
        ["search", "lattice", "--preset", "delpezzo4", "--degree", "4", "--selfint", "2",
         "--bound", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 32
    assert lines[:3] == [
        "lattice search on delpezzo4: box bound 3, degree 4, self-intersection 2",
        "30 hit(s)",
        "  (2, -1, -1, 0, 0, 0), genus 0, rank-1 Ulrich equalities: True",
    ]


def test_search_lattice_rank1_needs_triple(capsys):
    code, _, err = run(
        ["search", "lattice", "--preset", "rank1_bidouble", "--degree", "4", "--selfint", "4"],
        capsys,
    )
    assert code == 2
    assert "--triple" in err


def test_search_lattice_rank1(capsys):
    code, out, _ = run(
        [
            "search",
            "lattice",
            "--preset",
            "rank1_bidouble",
            "--triple",
            "2",
            "4",
            "6",
            "--degree",
            "4",
            "--selfint",
            "4",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [h["coords"] for h in payload["hits"]] == [[1]]
    assert payload["hits"][0]["rank1_ulrich"] is False


def test_search_lattice_k3_certificate_class(capsys):
    code, out, _ = run(
        [
            "search",
            "lattice",
            "--preset",
            "k3_024",
            "--degree",
            "6",
            "--selfint",
            "4",
            "--bound",
            "2",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    hits = {tuple(h["coords"]): h for h in payload["hits"]}
    assert (2, 1, 1, -1) in hits
    assert hits[(2, 1, 1, -1)]["rank1_ulrich"] is True
    for h in payload["hits"]:
        assert h["degree"] == 6
        assert h["selfint"] == 4


# Per preset: (argv naming it, lattice, bound, [(degree, selfint), ...]).  H
# itself answers the (H^2, H^2) query; on p1xp1, k3_024 and the del Pezzos the
# second query is the rank-1 Ulrich degree and self-intersection, so both
# rank1_ulrich values occur.
LATTICE_QUERIES = [
    (["--preset", "p1xp1"], preset_lattice("p1xp1"), 3, [(2, 2), (1, 0)]),
    (["--preset", "k3_024"], preset_lattice("k3_024"), 2, [(4, 4), (6, 4)]),
    *(
        (["--preset", f"delpezzo{d}"], preset_lattice("delpezzo", d), 3, [(d, d), (d, d - 2)])
        for d in range(1, 10)
    ),
    (["--preset", "rank1_bidouble", "--triple", "0", "2", "2"],
     preset_lattice("rank1_bidouble", (0, 2, 2)), 5, [(4, 4), (8, 16)]),
    (["--preset", "rank1_bidouble", "--triple", "2", "4", "6"],
     preset_lattice("rank1_bidouble", (2, 4, 6)), 5, [(4, 4), (12, 36)]),
]


def test_every_preset_carries_chi():
    assert {lat.name for _, lat, _, _ in LATTICE_QUERIES} >= {
        "p1xp1", "k3_024", *(f"delpezzo{d}" for d in range(1, 10))
    }
    for _, lat, _, _ in LATTICE_QUERIES:
        assert isinstance(lat.chi, int), lat.name


@pytest.mark.parametrize(
    "preset_argv, lat, bound, queries",
    LATTICE_QUERIES,
    ids=[lat.name for _, lat, _, _ in LATTICE_QUERIES],
)
def test_search_lattice_hits_match_reference(preset_argv, lat, bound, queries, capsys):
    # Each hit's degree, self-intersection, genus and Ulrich flag against
    # pair, arithmetic_genus and check_numerical_ulrich.
    hits = 0
    for degree, selfint in queries:
        argv = ["search", "lattice", *preset_argv, "--degree", str(degree),
                "--selfint", str(selfint), "--bound", str(bound), "--format", "json"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        for hit in json.loads(out)["hits"]:
            d = DivisorClass(hit["coords"])
            genus = arithmetic_genus(lat, d)
            assert hit["degree"] == pair(lat, d, lat.h) == degree
            assert hit["selfint"] == pair(lat, d, d) == selfint
            assert hit["genus"] == (int(genus) if genus.denominator == 1 else str(genus))
            assert hit["rank1_ulrich"] is check_numerical_ulrich(
                lat, UlrichCandidate(d, 0, 1)
            )
            hits += 1
    assert hits


def lattice_reference(lat, bound, degree, selfint):
    """The ``search lattice --format json`` dict, built from the library's
    reference functions, one pairing at a time."""
    hits = []
    for d in brute_force_search(lat, bound, degree, selfint):
        genus = arithmetic_genus(lat, d)
        assert genus.denominator == 1, (lat.describe(), d)
        hits.append({
            "coords": list(d),
            "degree": pair(lat, d, lat.h),
            "selfint": pair(lat, d, d),
            "genus": int(genus),
            "rank1_ulrich": check_numerical_ulrich(lat, UlrichCandidate(d, 0, 1)),
        })
    return {"search": "lattice", "preset": lat.describe(), "bound": bound,
            "degree": degree, "selfint": selfint, "hits": hits}


# Every query of LATTICE_QUERIES; an empty-hit query; and, on every preset
# of rank >= 3, one mid-size box with many hits (hundreds from rank 4 up;
# in rank <= 3 a target has few classes).
LATTICE_BYTES_QUERIES = [
    (preset_argv, lat, bound, degree, selfint)
    for preset_argv, lat, bound, queries in LATTICE_QUERIES
    for degree, selfint in queries
] + [
    (["--preset", "delpezzo4"], preset_lattice("delpezzo4"), 2, 3, 1000),
    (["--preset", "k3_024"], preset_lattice("k3_024"), 8, 0, -196),
    (["--preset", "delpezzo1"], preset_lattice("delpezzo1"), 2, 9, -23),
    (["--preset", "delpezzo2"], preset_lattice("delpezzo2"), 3, 16, -2),
    (["--preset", "delpezzo3"], preset_lattice("delpezzo3"), 3, 19, -15),
    (["--preset", "delpezzo4"], preset_lattice("delpezzo4"), 8, 3, -217),
    (["--preset", "delpezzo5"], preset_lattice("delpezzo5"), 3, 0, -14),
    (["--preset", "delpezzo6"], preset_lattice("delpezzo6"), 12, 6, -100),
    (["--preset", "delpezzo7"], preset_lattice("delpezzo7"), 40, 20, -784),
]


def test_search_lattice_bytes(capsys):
    # Both formats, byte for byte, against json.dumps(indent=2) of the
    # reference dict and the text lines written from it.  The queries hold
    # hits of both Ulrich flags, and of hundreds of hits.
    flags, sizes = set(), set()
    for preset_argv, lat, bound, degree, selfint in LATTICE_BYTES_QUERIES:
        ref = lattice_reference(lat, bound, degree, selfint)
        argv = ["search", "lattice", *preset_argv, "--degree", str(degree),
                "--selfint", str(selfint), "--bound", str(bound)]
        text = "\n".join([
            f"lattice search on {lat.describe()}: box bound {bound}, "
            f"degree {degree}, self-intersection {selfint}",
            f"{len(ref['hits'])} hit(s)",
            *(f"  {tuple(h['coords'])}, genus {h['genus']}, "
              f"rank-1 Ulrich equalities: {h['rank1_ulrich']}" for h in ref["hits"]),
        ])
        for fmt, expected in (("json", json.dumps(ref, indent=2)), ("text", text)):
            code, out, err = run([*argv, "--format", fmt], capsys)
            assert (code, err) == (0, "")
            assert out == expected + "\n", (argv, fmt)
        flags.update(h["rank1_ulrich"] for h in ref["hits"])
        sizes.add(len(ref["hits"]))
    assert flags == {True, False}
    assert 0 in sizes and max(sizes) >= 400


PARITY_PRESETS = [lat for _, lat, _, _ in LATTICE_QUERIES] + [
    preset_lattice("rank1_bidouble", t) for t in ((0, 2, 6), (2, 2, 2), (4, 4, 4))
]


@pytest.mark.parametrize("lat", PARITY_PRESETS, ids=[lat.name for lat in PARITY_PRESETS])
def test_search_lattice_parity_on_every_preset(lat):
    # D^2 + D.K mod 2 is additive in D, so its vanishing on the basis
    # classes shows that the hit description's parity check passes on
    # every class of the preset, and its genus is arithmetic_genus.
    for i in range(lat.rank):
        e = DivisorClass.basis(lat.rank, i)
        [(coords, genus, ulrich)] = numerics_module._describe_hits(
            lat, [e], pair(lat, e, lat.h), pair(lat, e, e)
        )
        assert coords == tuple(e)
        assert genus == arithmetic_genus(lat, e)
        assert ulrich is check_numerical_ulrich(lat, UlrichCandidate(e, 0, 1))


def test_search_lattice_odd_adjunction_exits_3(monkeypatch, capsys):
    # With K = 0 on delpezzo9, the class L has L^2 + L.K = 1: no integer genus.
    lat = preset_lattice("delpezzo9")
    monkeypatch.setattr(cli, "preset_lattice", lambda *a: lat._replace(k=DivisorClass((0,))))
    for fmt in ("text", "json"):
        code, out, err = run(["search", "lattice", "--preset", "delpezzo9", "--degree", "3",
                              "--selfint", "1", "--format", fmt], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "internal consistency failure: D^2 + D.K = 1 is odd for D = (1) on delpezzo9: "
            "K is not characteristic, and adjunction gives no integer genus\n"
        )


def test_search_lattice_loads_no_fractions():
    # The hit description does integer arithmetic: neither ``fractions`` nor
    # the ``decimal`` it imports loads on the search path.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys; before = set(sys.modules); from bidouble.cli import main\n"
        "for fmt in ('json', 'text'):\n"
        "    code = main(['search', 'lattice', '--preset', 'delpezzo4', '--degree', '4',\n"
        "                 '--selfint', '2', '--bound', '3', '--format', fmt])\n"
        "    assert code == 0, code\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(new & {'fractions', 'decimal'}), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("30 hit(s)") == 1
    assert result.stderr.strip() == "[]"


def test_search_lattice_rejects_stray_triple(capsys):
    code, _, err = run(
        [
            "search",
            "lattice",
            "--preset",
            "p1xp1",
            "--triple",
            "2",
            "2",
            "2",
            "--degree",
            "2",
            "--selfint",
            "0",
        ],
        capsys,
    )
    assert code == 2
    assert "only applies to rank1_bidouble" in err


@pytest.mark.parametrize(
    "preset, needle",
    [
        ("delpezzo\u00b2", "unknown lattice preset"),
        ("delpezzo\u0664", "unknown lattice preset"),
        ("delpezzo" + "1" * 5000, "got a number of 5000 digits"),
        ("delpezzo0", "del Pezzo degree must be in 1..9, got 0"),
        ("delpezzo10", "del Pezzo degree must be in 1..9, got 10"),
    ],
    ids=["superscript", "arabic_indic", "5000_digits", "zero", "ten"],
)
def test_search_lattice_bad_delpezzo_degree(preset, needle, capsys):
    argv = ["search", "lattice", "--preset", preset, "--degree", "4", "--selfint", "2",
            "--bound", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert needle in err
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "preset, message",
    [
        ("foo", "unknown lattice preset 'foo'; known: "),
        ("x" * 5000, "unknown lattice preset of 5000 characters; known: "),
        ("\u00e9" * 40, "unknown lattice preset of 40 characters; known: "),
        # A repr of 48 bytes is quoted whole; one of 49 is not.
        ("x" * 46, f"unknown lattice preset {'x' * 46!r}; known: "),
        ("x" * 47, "unknown lattice preset of 47 characters; known: "),
    ],
    ids=["short", "5000_chars", "40_two_byte_chars", "48_byte_repr", "49_byte_repr"],
)
def test_search_lattice_unknown_preset(preset, message, capsys):
    # A short unknown name is quoted; a long one is named by its length.
    argv = ["search", "lattice", "--preset", preset, "--degree", "4", "--selfint", "2"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200


def test_search_rejects_csv():
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "p1xp1", "--n", "3", "--format", "csv"])
    assert exc.value.code == 2


def test_presets(capsys):
    code, out, _ = run(["presets", "--format", "json"], capsys)
    assert code == 0
    entries = json.loads(out)
    assert [e["name"] for e in entries] == [
        "k3_024",
        "p1xp1",
        "delpezzo",
        "rank1_bidouble",
    ]
    for entry in entries:
        gram = entry["gram"]
        assert all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(len(gram)))

    code, out, _ = run(["presets"], capsys)
    assert code == 0
    assert "k3_024" in out
    assert "gram:" in out


def test_consistency_failure_exits_3(monkeypatch, capsys):
    def boom(t):
        raise ConsistencyError("forced for the test")

    monkeypatch.setattr(cli, "rank1_rho1_search", boom)
    code, _, err = run(["search", "rho1", "--triple", "2", "4", "6"], capsys)
    assert code == 3
    assert err.startswith("internal consistency failure:")


def test_closed_form_cross_check_exits_3(monkeypatch, capsys):
    # The certified (0,2,4) line bundle must land in T2; a closed form that
    # disagrees is an internal inconsistency, not a verdict.
    monkeypatch.setattr("bidouble.classify._closed_form", lambda t: "impossible")
    code, out, err = run(["classify", "0", "2", "4"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal consistency failure:")
    assert "T1, T2" in err


def test_noether_route_exits_3(monkeypatch, capsys):
    # An Euler count that disagrees with chi and K^2 is an internal
    # inconsistency on every triple, whatever the command.
    monkeypatch.setattr("bidouble.geometry._euler_number", lambda n1, n2, n3: 0)
    code, out, err = run(["classify", "2", "4", "6"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal consistency failure:")
    assert "Noether" in err


def shift_chi(module):
    """Patch that shifts chi on the invariants ``module`` computes: the
    one record of a ``classify`` row, or the one ``search rho1`` reads."""

    def patch(monkeypatch):
        real = module.invariants
        monkeypatch.setattr(
            module,
            "invariants",
            lambda t: real(t)._replace(chi=real(t).chi + 1),
        )

    return patch


def plant_quadric_root(monkeypatch):
    """Hand the bisection a target with the integer root a = 1, as a
    broken discriminant route would leave one."""
    real = numerics_module._quadric_roots
    monkeypatch.setattr(
        numerics_module, "_quadric_roots", lambda s, target: real(s, 2 * (s - 1))
    )


def plant_box_block(monkeypatch):
    """Hand the box the m' = 1 block a + b = 4, 2ab = 6, which (1, 3) and
    (3, 1) solve, as a broken discriminant route would."""
    real = numerics_module._check_quadric
    monkeypatch.setattr(
        numerics_module, "_check_quadric", lambda n: [(1, 4, 6, *real(n)[0][3:])]
    )


@pytest.mark.parametrize(
    "patch, argv, needle",
    [
        (
            lambda mp: mp.setattr(numerics_module, "is_perfect_square", lambda v: True),
            ["classify", "0", "2", "6"],
            "perfect square",
        ),
        (plant_box_block, ["search", "p1xp1", "--n", "3"], "holds 2 solution(s), first (1, 3)"),
        (plant_quadric_root, ["classify", "0", "2", "6"], "but bisection finds a = 1 for m' = 1"),
        (shift_chi(numerics_module), ["search", "rho1", "--triple", "2", "4", "6"],
         "q = 1 reduction"),
        (shift_chi(classify_module), ["classify", "2", "4", "6"], "q = 1 reduction"),
        (shift_chi(classify_module), ["classify", "0", "4", "4"], "special c2 mismatch"),
        (
            lambda mp: mp.setattr(
                numerics_module, "check_numerical_ulrich", lambda lat, cand: False
            ),
            ["classify", "0", "2", "4"],
            "certificate mismatch",
        ),
        (
            # F.E1' pairs F = (1, 0, 1, -1) with E1' = (0, 0, 1, 0) on k3_024.
            lambda mp: mp.setattr(
                numerics_module,
                "pair",
                lambda lat, d1, d2, real=numerics_module.pair: real(lat, d1, d2)
                + ((d1.coords, d2.coords) == ((1, 0, 1, -1), (0, 0, 1, 0))),
            ),
            ["classify", "0", "2", "4"],
            "certificate mismatch on k3_024: F.E1' (Prop. 4.6)",
        ),
        (
            lambda mp: mp.setattr(
                numerics_module,
                "pair",
                lambda lat, d1, d2, real=numerics_module.pair: real(lat, d1, d2)
                + (lat.describe() == "delpezzo4"),
            ),
            ["classify", "0", "2", "2"],
            "certificate mismatch on delpezzo4: D.H, D.D, D.K",
        ),
    ],
    ids=[
        "discriminant",
        "quadric_box",
        "quadric_bisection",
        "rho1_q1",
        "classify_q1",
        "special_c2",
        "certificate",
        "certificate_number",
        "conic_number",
    ],
)
def test_second_routes_exit_3(patch, argv, needle, monkeypatch, capsys):
    patch(monkeypatch)
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal consistency failure:")
    assert needle in err


# sha256 of `batch --max-degree 30` stdout (1480 rows), one per format.
BATCH_MAX30_SHA256 = {
    "csv": "f8955f712c77c144778906d0767f10bbcbfffea510458c322a6fddeb876580a4",
    "json": "207f61d6a9a51e63cf93d3c1e1cbebee3e8a3bb3e9b5ae62c9907fe2a9b975b8",
    "text": "f42d1b9559d4d17c65c8a15154e3e3e24dbef9bddae963bfcf3a529256db9786",
}


@pytest.mark.parametrize("fmt", sorted(BATCH_MAX30_SHA256))
def test_batch_max30_bytes(fmt, capsys):
    code, out, err = run(["batch", "--max-degree", "30", "--format", fmt], capsys)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_MAX30_SHA256[fmt]


# sha256 of `batch --max-degree 100` stdout (45475 rows), one per format,
# pinned before each Picard verdict became one shared record.  CI checks
# the installed CLI against both tables.
BATCH_MAX100_SHA256 = {
    "csv": "c61cad018d4f510561e9ecfe0d359c7aa15f5b22a705ffe235ba85c6f6e14f5b",
    "json": "8ea456a26c2aa1fb56bf6a9582c443857ddbd307ef73c5a06f38a0312e959fce",
    "text": "f920837ab9c1f877006b0065efc495606d5045fb02455883aceb462461d0a1e5",
}


@pytest.mark.parametrize("fmt", sorted(BATCH_MAX100_SHA256))
def test_batch_max100_bytes(fmt, capsys):
    code, out, err = run(["batch", "--max-degree", "100", "--format", fmt], capsys)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_MAX100_SHA256[fmt]


# sha256 of `batch --input tests/data/<file> --format <fmt>` stdout and
# stderr, pinned before the reader and the writer were rewritten.  CI
# checks the installed CLI against the triples_bad.txt digests of every
# format.
BATCH_INPUT_SHA256 = {
    "triples.txt csv stdout": "ddd0248744a88293dba1c9b9223d4cb154f59586d940a5a780cf825645e19722",
    "triples.txt csv stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "triples.txt json stdout": "2e275b4bf3ba4e5487a88149b997501e00135a9a9763218407e76ef53dd49be7",
    "triples.txt json stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "triples.txt text stdout": "8048cdd96899fb8f191177dd666278e18c5396e5c8a837a79489585988c41dd7",
    "triples.txt text stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "triples_bad.txt csv stdout": "cdc83911645b010d82d20b275d0f03f63f0064fde0001e81002a992047aef393",
    "triples_bad.txt csv stderr": "5f3d61e95f73f4ac60130cefef7421fd74af97ecce941e4f3a827aff19c29cd4",
    "triples_bad.txt json stdout": "dcfcaa0e6e2cdaae3a3578db4f8fe1c950b85cf77e235a3eb4463e66e0fcdba5",
    "triples_bad.txt json stderr": "5f3d61e95f73f4ac60130cefef7421fd74af97ecce941e4f3a827aff19c29cd4",
    "triples_bad.txt text stdout": "0f03223eb8987c5bc9eb5d4350f705c1c389d0ebc2e0e27120ff6bfdbd73bc69",
    "triples_bad.txt text stderr": "5f3d61e95f73f4ac60130cefef7421fd74af97ecce941e4f3a827aff19c29cd4",
}


@pytest.mark.parametrize("name", ["triples.txt", "triples_bad.txt"])
@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_batch_input_bytes(name, fmt, capsys):
    code, out, err = run(["batch", "--input", str(DATA / name), "--format", fmt], capsys)
    assert code == (2 if name == "triples_bad.txt" else 0)
    for stream, text in (("stdout", out), ("stderr", err)):
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == BATCH_INPUT_SHA256[f"{name} {fmt} {stream}"], stream


def test_entry_writes_batch_json_whole(tmp_path):
    # The process ends by os._exit, after the flush: every byte arrives,
    # through a pipe and into a regular file.
    argv = ["batch", "--max-degree", "30", "--format", "json"]
    piped = cli_process(argv, capture_output=True)
    path = tmp_path / "batch.json"
    with open(path, "wb") as f:
        written = cli_process(argv, stdout=f, stderr=subprocess.PIPE)
    for result, out in ((piped, piped.stdout), (written, path.read_bytes())):
        assert (result.returncode, result.stderr) == (0, b"")
        assert hashlib.sha256(out).hexdigest() == BATCH_MAX30_SHA256["json"]


def test_entry_writes_every_skipped_line():
    result = cli_process(["batch", "--input", str(DATA / "triples_bad.txt")], capture_output=True)
    assert result.returncode == 2
    for stream, data in (("stdout", result.stdout), ("stderr", result.stderr)):
        digest = hashlib.sha256(data).hexdigest()
        assert digest == BATCH_INPUT_SHA256[f"triples_bad.txt text {stream}"], stream
    lines = result.stderr.decode().splitlines()
    assert len(lines) > 1
    assert all(line.startswith("skipped line ") for line in lines)


# sha256 of `classify N1 N2 N3 --format json` stdout, one triple per verdict
# branch: the batch digest covers only rows written with an indent.  The
# JSON writer's templates come from json.dumps of the payload, so these
# digests, not the round-trip tests, pin the schema itself.  CI checks the
# installed CLI against the (2,4,6) digest.
CLASSIFY_JSON_SHA256 = {
    "1 3 5": "3ae6680ea2cd6b04a20429635f25151884e085c323f147207a1531b52c4250c0",
    "3 5 7": "614cb7f313e0bb87320c0233701e39265b626dcaa68b8494f27bc2d1aa60cf06",
    "0 2 2": "912210f775902de7d87d23f8a9fc74ea20f80f7d31be5dedf8dea573216c71b2",
    "0 2 4": "eb620ee960322dcab90850d440b4d531e694b9abb70412aa49da3ebb1d2eecd6",
    "0 2 30": "82110dc286f963818eea9f8f72e66f7d5c7f65365e06fdd0ba5e0bfe6e392472",
    "0 4 10": "c37952ffb34901ec10d9b360086868bd7f0674ce32d61d36d9e74c37d3c69997",
    "2 2 8": "8b81fdacaffd2c6ba7622a45ff4e26f98e746bed42c58246d7f748a6d2fe03cc",
    "2 4 6": "b9a6c7a1330210917b7e21d0c5fe346307f95cfd7ebc96425ec1bac93c3fa153",
    "4 8 12": "61efd82d959905c1495d7ff695a42b47ef217c587885b19fb866a9236847909d",
}


@pytest.mark.parametrize("triple", list(CLASSIFY_JSON_SHA256))
def test_classify_json_bytes(triple, capsys):
    code, out, err = run(["classify", *triple.split(), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_JSON_SHA256[triple]


# `classify N1 N2 N3 --format csv` data lines for the triples above, taken
# before the CSV writer filled templates.  Each classify run makes its own
# template, which the batch digests do not reach.
CLASSIFY_CSV_LINES = {
    "1 3 5": "1,3,5,odd,9,5,true,impossible,lower_bound_only,>=2,,,",
    "3 5 7": "3,5,7,odd,81,20,false,impossible,lower_bound_only,>=2,,,",
    "0 2 2": "0,2,2,even,4,1,true,exists,exact,1,,,",
    "0 2 4": "0,2,4,even,0,2,true,exists,exact,1,4,2,14",
    "0 2 30": "0,2,30,even,676,197,true,impossible,exact,2,121,106,482",
    "0 4 10": "0,4,10,even,64,22,true,open,upper_bound,1..2,20,14,78",
    "2 2 8": "2,2,8,even,36,13,true,open,upper_bound,1..2,14,9,54",
    "2 4 6": "2,4,6,even,36,11,false,impossible,exact,2,13,8,50",
    "4 8 12": "4,8,12,even,324,68,false,impossible,exact,2,50,39,200",
}


@pytest.mark.parametrize("triple", list(CLASSIFY_JSON_SHA256))
def test_classify_csv_bytes(triple, capsys):
    code, out, err = run(["classify", *triple.split(), "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    header = GOLDEN_MAX4_CSV.splitlines(keepends=True)[0]
    assert out == header + CLASSIFY_CSV_LINES[triple] + "\n"


# sha256 of the stdout of `presets`, of the pinned `search` commands and of
# `classify` as text on the triples above, taken before `presets` and the
# search verdicts were written straight from their records.  CI checks the
# installed CLI against each.
COMMAND_SHA256 = {
    "presets --format text": "05af7ba27357a524a348456b4dcd1eeeb38b2a1a7745943db5801dca4a4810a7",
    "presets --format json": "07a0797ffac44b45352a22a434116d0c6889f07435a507955070472414644c39",
    "search rho1 --triple 2 4 6 --format text": "5d0a70cb1170452e1c2f25be367ab7e8a4b75d05017a54f18c561d54d3a9c05a",
    "search rho1 --triple 2 4 6 --format json": "2e0518015a0cce547caa4f0282e1661ad9c8f74af4edbe38036df9657e611189",
    "search p1xp1 --n 3 --format text": "afc90f753a43b243246aec0818d97069771d66fe9b6259c6fd4393ce51e68a0f",
    "search p1xp1 --n 3 --format json": "a706d1fe1e178d8545dce2e96c9bea689e0298f8076c6500fd4f5321f531dcc1",
    "search lattice --preset delpezzo4 --degree 3 --selfint -217 --bound 8 --format text": "bbb3a983ab99c2b35f102108bcff61ce70417877354de89d49929dd891c9ac67",
    "classify 1 3 5 --format text": "30000b16bd2c40893b8bc03f60da4f9155a4e62a56fb7cb9cc3c441c8344db11",
    "classify 3 5 7 --format text": "12a29a49fd0ef77be68c77e780abb8c36326e892d3f9852a347286bef04e92f9",
    "classify 0 2 2 --format text": "6c9d2d9a8b4ff024d1c36333f8c4352a31b346e148f664a7b560ed092ed8cd8f",
    "classify 0 2 4 --format text": "a7697d37130e7e3ff626fb06d55b6d721a8dec2019892254004b1abab48f6907",
    "classify 0 2 30 --format text": "552053856f138510377bc41fe104681d2c762d8f07507ea5f7aa9effcdb04fa2",
    "classify 0 4 10 --format text": "2d452c5d8230bb89e1a5b7a29080661d7f4277d7b70a4056997c46b6908c3b91",
    "classify 2 2 8 --format text": "bb9cff733ad290c682e0ee3d443fec045b9f02fdf2c03e080a635f9fe27c5cd8",
    "classify 2 4 6 --format text": "0893f9021426c04cfc5b8eef055db63f0b54b168dacac8d2d0760c8af62dac87",
    "classify 4 8 12 --format text": "101febdedda57e63c981dc12863932d167a875674b702a4d0bec6c2fed77ceb4",
}


@pytest.mark.parametrize("argv", list(COMMAND_SHA256))
def test_command_bytes(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_SHA256[argv]


# sha256 of `search lattice --preset delpezzo4 --degree 3 --selfint -217
# --bound 8 --format json` stdout (855 hits); CI checks the installed CLI
# against it.
LATTICE_JSON_SHA256 = "000631798927a05f686b637e882a04db9a78f701c82681b3aaab5c0e5b76e88e"


def test_search_lattice_json_digest(capsys):
    code, out, err = run(["search", "lattice", "--preset", "delpezzo4", "--degree", "3",
                          "--selfint", "-217", "--bound", "8", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["hits"]) == 855
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_JSON_SHA256


# sha256 of `search lattice --preset k3_024 --degree 20 --selfint -3300
# --bound 30 --format json` stdout (146 hits): the coupled lattice, with two
# runs of swappable coordinates; CI checks the installed CLI against it.
LATTICE_K3_JSON_SHA256 = "c9bb3e5da6a9bcf13bfc5bdd2272626a21d6694799340a6aa857b7dbc92a3a20"


def test_search_lattice_k3_json_digest(capsys):
    code, out, err = run(["search", "lattice", "--preset", "k3_024", "--degree", "20",
                          "--selfint", "-3300", "--bound", "30", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["hits"]) == 146
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_K3_JSON_SHA256


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", ROOT / "bench" / "traced_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [["classify", "2", "4", "6"], ["batch", "--max-degree", "6", "--format", "csv"]],
    ids=["classify", "batch"],
)
def test_traced_harness_binds_every_name(argv, tmp_path):
    # The benchmark's traced runs wrap these functions by name; a rename or
    # deletion must fail here, not in the benchmark.
    traced = load_traced_cli().TRACED
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans = tmp_path / "spans.bin"
    traced_run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    plain_run = subprocess.run(
        [sys.executable, "-m", "bidouble.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert traced_run.returncode == plain_run.returncode == 0, traced_run.stderr
    assert traced_run.stdout == plain_run.stdout
    with open(spans, "rb") as f:
        bindings = json.loads(f.readline())["bindings"]
    expected = {f"{module}.{name}" for module, names in traced.items() for name in names}
    assert len(expected) == 17
    assert set(bindings) == expected
    assert all(count >= 1 for count in bindings.values()), bindings


# The exact text of every argument's trace and report, as printed: both
# branches of the recipe's block count (M = 0 and 2 mod 4) and of the
# q = 2 case (n/2 odd and even), both parity outcomes, and the quadric
# trace as text and as JSON.

RECIPE_222 = """\
rank-two special Ulrich recipe for branch degrees (2, 2, 2)
  [ok] recipe matches triple: recipe (m = 3, M = 12) vs targets (m = 3, M = 12) (verified, Thm. 5.1)
  [ok] c1 coefficient: deg E1 + deg C - deg C' = 1 + 3 - 1 = 3, so c1 = 3H matches 3H + K numerically (verified, Thm. 5.1)
  [ok] c2 count: z_count = 12 equals the target c2 = 12, computed independently from the Chern-number formula (verified, Cor. 2.5)
  [ok] block count identity: 4 * deg C = 12 = M (verified, Thm. 5.1)
  [ok] deg C' positive: deg C' = 1 >= 1 (verified, Thm. 5.1)
  [ok] deg C >= m: deg C = 3 >= m = 3 (verified, Thm. 5.1)
  [ok] vanishing inequalities: 3M = 36 >= 4m^2 = 36 and M = 12 > 4(m - 1) = 8 (verified, Thm. 5.1)
  [ok] rank-two extension: the bundle extension over the ideal sheaf of Z and the section existence it needs are certified, not recomputed (paper-certified, Thm. 2.6)
  => all checks passed
"""

RECIPE_246 = """\
rank-two special Ulrich recipe for branch degrees (2, 4, 6)
  [ok] recipe matches triple: recipe (m = 6, M = 50) vs targets (m = 6, M = 50) (verified, Thm. 5.1)
  [ok] c1 coefficient: deg E1 + deg C - deg C' = 1 + 13 - 8 = 6, so c1 = 6H matches 3H + K numerically (verified, Thm. 5.1)
  [ok] c2 count: z_count = 50 equals the target c2 = 50, computed independently from the Chern-number formula (verified, Cor. 2.5)
  [ok] block count identity: 4 * (deg C - 1) + 2 = 50 = M (verified, Thm. 5.1)
  [ok] deg C' positive: deg C' = 8 >= 1 (verified, Thm. 5.1)
  [ok] deg C >= m: deg C = 13 >= m = 6 (verified, Thm. 5.1)
  [ok] vanishing inequalities: 3M = 150 >= 4m^2 = 144 and M = 50 > 4(m - 1) = 20 (verified, Thm. 5.1)
  [ok] rank-two extension: the bundle extension over the ideal sheaf of Z and the section existence it needs are certified, not recomputed (paper-certified, Thm. 2.6)
  => all checks passed
"""

CERTIFICATE_024 = """\
Ulrich line bundle certificate for branch degrees (0, 2, 4)
  [ok] D.H: computed 6, expected 6 (verified, Prop. 4.6)
  [ok] D.D: computed 4, expected 4 (verified, Prop. 4.6)
  [ok] F.F: computed -4, expected -4 (verified, Prop. 4.6)
  [ok] H.F: computed 2, expected 2 (verified, Prop. 4.6)
  [ok] F.E1': computed -1, expected -1 (verified, Prop. 4.6)
  [ok] F'.F': computed -4, expected -4 (verified, Prop. 4.6)
  [ok] H.F': computed 0, expected 0 (verified, Prop. 4.6)
  [ok] H.E1': computed 2, expected 2 (verified, Prop. 4.6)
  [ok] H.E2': computed 2, expected 2 (verified, Prop. 4.6)
  [ok] Equalities (2.1)-(2.2): c1 = D, c2 = 0, rank 1 on k3_024 (chi = 2): satisfied (verified, Prop. 2.3)
  [ok] h^0 vanishing: h^0 of -F, F, F' and their twists vanish as the proof requires; recorded, not recomputed (paper-certified, Prop. 4.6)
  => all checks passed
"""

# (2,2,2) has rho > 1, so ``search rho1`` refuses it; the library search
# still replays the arithmetic there.
RHO1_222 = """\
write c1 = (a/q)H with gcd(a, q) = 1; Equality (2.1): c1.H = (3H + K).H / 2 = n1 + n2 + n3 = 6, so 4a/q = 6 and q divides 4 [Lemma 4.2]
cases q in {1, 2, 4} [Lemma 4.2]
q = 4: a = n = 6 is even, contradicting gcd(a, 4) = 1 [Lemma 4.2]
q = 2: a = n/2 = 3; Equality (2.2) forces a^2 - a(n - 6) = 9 to equal 8 - 2 chi = 6, an even number, but a^2 - a(n - 6) is congruent to a = 3 mod 2: contradiction [Lemma 4.2]
q = 1: Equality (2.1) gives a = n/4 = 3/2; substituting into Equality (2.2) and clearing denominators leaves n1^2 + n2^2 + n3^2 = 0 [Lemma 4.2]
n1^2 + n2^2 + n3^2 = 12 != 0 [Lemma 4.2]
verdict: infeasible_search
"""

RHO1_246 = """\
search: rho1
triple: [2, 4, 6]
write c1 = (a/q)H with gcd(a, q) = 1; Equality (2.1): c1.H = (3H + K).H / 2 = n1 + n2 + n3 = 12, so 4a/q = 12 and q divides 4 [Lemma 4.2]
cases q in {1, 2, 4} [Lemma 4.2]
q = 4: a = n = 12 is even, contradicting gcd(a, 4) = 1 [Lemma 4.2]
q = 2: a = n/2 = 6 is even, contradicting gcd(a, 2) = 1 [Lemma 4.2]
q = 1: Equality (2.1) gives a = n/4 = 3; substituting into Equality (2.2) and clearing denominators leaves n1^2 + n2^2 + n3^2 = 0 [Lemma 4.2]
n1^2 + n2^2 + n3^2 = 56 != 0 [Lemma 4.2]
verdict: infeasible_search
"""

# The q = 2 case with a = n/2 odd, on a cover with rho = 1.
RHO1_248 = """\
search: rho1
triple: [2, 4, 8]
write c1 = (a/q)H with gcd(a, q) = 1; Equality (2.1): c1.H = (3H + K).H / 2 = n1 + n2 + n3 = 14, so 4a/q = 14 and q divides 4 [Lemma 4.2]
cases q in {1, 2, 4} [Lemma 4.2]
q = 4: a = n = 14 is even, contradicting gcd(a, 4) = 1 [Lemma 4.2]
q = 2: a = n/2 = 7; Equality (2.2) forces a^2 - a(n - 6) = -7 to equal 8 - 2 chi = -28, an even number, but a^2 - a(n - 6) is congruent to a = 7 mod 2: contradiction [Lemma 4.2]
q = 1: Equality (2.1) gives a = n/4 = 7/2; substituting into Equality (2.2) and clearing denominators leaves n1^2 + n2^2 + n3^2 = 0 [Lemma 4.2]
n1^2 + n2^2 + n3^2 = 84 != 0 [Lemma 4.2]
verdict: infeasible_search
"""

P1XP1_3_TEXT = """\
search: p1xp1
n: 3
bound: 40
m' = 1 (the norm of the pulled-back bundle has order <= 2): impose a + b = (n + 1)m' = 4 and 2ab = n m'^2 = 3 [Remark after Lemma 3.1]
eliminate b: 2a^2 - 8a + 3 = 0, discriminant 4 m'^2 (n^2 + 1) = 40 [Prop. 4.4]
n^2 + 1 = 10 is not a perfect square (isqrt = 3), so no integer root [Prop. 4.4]
m' = 2 (the norm of the pulled-back bundle has order <= 2): impose a + b = (n + 1)m' = 8 and 2ab = n m'^2 = 12 [Remark after Lemma 3.1]
eliminate b: 2a^2 - 16a + 12 = 0, discriminant 4 m'^2 (n^2 + 1) = 160 [Prop. 4.4]
n^2 + 1 = 10 is not a perfect square (isqrt = 3), so no integer root [Prop. 4.4]
brute-force cross-check over the box |a|, |b| <= 40: 0 solution(s) [Prop. 4.4]
verdict: infeasible_search
"""

P1XP1_3_JSON = """\
{
  "search": "p1xp1",
  "n": 3,
  "bound": 40,
  "verdict": {
    "status": "infeasible_search",
    "trace": [
      {
        "step": "m' = 1 (the norm of the pulled-back bundle has order <= 2): impose a + b = (n + 1)m' = 4 and 2ab = n m'^2 = 3",
        "cite": "Remark after Lemma 3.1"
      },
      {
        "step": "eliminate b: 2a^2 - 8a + 3 = 0, discriminant 4 m'^2 (n^2 + 1) = 40",
        "cite": "Prop. 4.4"
      },
      {
        "step": "n^2 + 1 = 10 is not a perfect square (isqrt = 3), so no integer root",
        "cite": "Prop. 4.4"
      },
      {
        "step": "m' = 2 (the norm of the pulled-back bundle has order <= 2): impose a + b = (n + 1)m' = 8 and 2ab = n m'^2 = 12",
        "cite": "Remark after Lemma 3.1"
      },
      {
        "step": "eliminate b: 2a^2 - 16a + 12 = 0, discriminant 4 m'^2 (n^2 + 1) = 160",
        "cite": "Prop. 4.4"
      },
      {
        "step": "n^2 + 1 = 10 is not a perfect square (isqrt = 3), so no integer root",
        "cite": "Prop. 4.4"
      },
      {
        "step": "brute-force cross-check over the box |a|, |b| <= 40: 0 solution(s)",
        "cite": "Prop. 4.4"
      }
    ],
    "candidates": []
  }
}
"""

PARITY_113_RANK1 = """\
Equality (2.1) pairs with K: 2 c1.K = rank * (3H + K).K = rank * n * (n - 6) = 1 * 5 * -1 = -5 [Lemma 4.1]
2 c1.K would equal the odd integer -5, but c1.K is an integer, so 2 c1.K is even: contradiction [Lemma 4.1]
verdict: infeasible_parity
"""

PARITY_113_RANK2 = """\
Equality (2.1) pairs with K: 2 c1.K = rank * (3H + K).K = rank * n * (n - 6) = 2 * 5 * -1 = -10 [Lemma 4.1]
-10 is even: the parity obstruction does not apply (parity odd, rank 2) [Lemma 4.1]
verdict: not_applicable
"""


@pytest.mark.parametrize(
    "produce, expected",
    [
        (lambda: print(verify_recipe((2, 2, 2), special_rank2_recipe((2, 2, 2))).render()),
         RECIPE_222),
        (lambda: print(verify_recipe((2, 4, 6), special_rank2_recipe((2, 4, 6))).render()),
         RECIPE_246),
        (lambda: print(verify_024_certificate().render()), CERTIFICATE_024),
        (lambda: print(rank1_rho1_search((2, 2, 2)).render()), RHO1_222),
        (lambda: cli.main(["search", "rho1", "--triple", "2", "4", "6"]), RHO1_246),
        (lambda: cli.main(["search", "rho1", "--triple", "2", "4", "8"]), RHO1_248),
        (lambda: cli.main(["search", "p1xp1", "--n", "3"]), P1XP1_3_TEXT),
        (lambda: cli.main(["search", "p1xp1", "--n", "3", "--format", "json"]), P1XP1_3_JSON),
        (lambda: print(odd_rank_obstruction((1, 1, 3), 1).render()), PARITY_113_RANK1),
        (lambda: print(odd_rank_obstruction((1, 1, 3), 2).render()), PARITY_113_RANK2),
    ],
    ids=["recipe_222", "recipe_246", "certificate_024", "rho1_222", "rho1_246",
         "rho1_248", "p1xp1_text", "p1xp1_json", "parity_rank1", "parity_rank2"],
)
def test_rendered_bytes(produce, expected, capsys):
    assert produce() in (None, 0)
    assert capsys.readouterr() == (expected, "")
