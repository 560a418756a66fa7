"""Property tests of the CLI: exit codes, permutation invariance, and
agreement of the batch renderers.  Skipped when Hypothesis is missing."""

import argparse
import contextlib
import csv
import io
import json
import itertools
import pathlib
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bidouble.cli as cli  # noqa: E402
from bidouble.classify import classify_triple  # noqa: E402
from bidouble.errors import DomainError  # noqa: E402
from bidouble.geometry import BranchTriple, _euler_number, invariants, validate_triple  # noqa: E402
from bidouble.numerics import _check_q1  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)

# 1-4 and 5-1000 digits are parsed, 1001-1100 cross the ceiling; each
# range is drawn a third of the time.
number = st.builds(
    str.__add__,
    st.sampled_from(["", "", "", "+", "-"]),
    st.one_of(
        st.text("0123456789", min_size=1, max_size=4),
        st.text("0123456789", min_size=5, max_size=1000),
        st.text("0123456789", min_size=1001, max_size=1100),
    ),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _small_or_above_ceiling(token: str) -> bool:
    # A --max-degree batch between 13 and the ceiling takes too long here.
    return not (token.isdigit() and 12 < int(token) <= cli.MAX_ENUMERATED_DEGREE)


three_numbers = st.lists(number, min_size=3, max_size=3)
optional_bound = st.one_of(st.just([]), number.map(lambda b: ["--bound", b]))
lattice_preset = st.one_of(
    three_numbers.map(lambda t: ["rank1_bidouble", "--triple", *t]),  # rank 1
    st.sampled_from([["delpezzo9"], ["p1xp1"], ["k3_024"], ["delpezzo4"]]),  # ranks 1, 2, 4, 6
)
# Every numeric position of every subcommand.
numeric_argv = st.one_of(
    three_numbers.map(lambda t: ["classify", *t]),
    three_numbers.map(lambda t: ["search", "rho1", "--triple", *t]),
    st.builds(lambda n, b: ["search", "p1xp1", "--n", n, *b], number, optional_bound),
    st.builds(
        lambda p, d, s, b: ["search", "lattice", "--preset", *p, "--degree", d, "--selfint", s, *b],
        lattice_preset, number, number, optional_bound,
    ),
    st.one_of(st.integers(0, 12).map(str), number.filter(_small_or_above_ceiling)).map(
        lambda d: ["batch", "--max-degree", d]
    ),
)


@settings(max_examples=150, deadline=None)
@given(numeric_argv)
def test_digit_argv_exits_0_or_2(argv):
    # Any other exception propagates and fails the test: that is exit 1.
    code, out, err = run_cli(argv)
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        # Every refusal, argparse's included, is one short stderr line.
        [line] = err.splitlines()
        assert len(line.encode()) < 200


# A line of a triples file: zero to five numbers, signed or not.
triples_file_line = st.lists(number, max_size=5).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(triples_file_line, min_size=1, max_size=6), st.sampled_from(["text", "json", "csv"])
)
def test_batch_file_lines_exit_0_or_2(lines, fmt):
    # Each line is a row or one short diagnostic; an uncaught exception
    # fails the test in process.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "triples.txt"
        path.write_text("".join(line + "\n" for line in lines))
        code, out, err = run_cli(["batch", "--input", str(path), "--format", fmt])
    diagnostics = err.splitlines()
    assert code == (2 if diagnostics else 0)
    for diagnostic in diagnostics:
        assert diagnostic.startswith("skipped line ")
        assert len(diagnostic.encode()) < 200


# The reader as it stood before its one-pass rewrite, kept verbatim with
# the regex token test it called: the reference the reader must match.
_UNSIGNED = re.compile(r"[0-9]+")
_SIGNED = re.compile(r"[+-]?[0-9]+")


def reference_parse_int(token: str, signed: bool) -> int | None:
    digits = len(token.lstrip("+-"))
    if digits > cli.MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"a number of {digits} digits is too long to parse "
            f"(the ceiling is {cli.MAX_DIGITS} digits)"
        )
    if (_SIGNED if signed else _UNSIGNED).fullmatch(token) is None:
        return None
    return int(token)


def reference_parse_triples_file(stream) -> tuple[list[BranchTriple], list[str]]:
    triples = []
    diagnostics = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            degrees = [reference_parse_int(tok, signed=False) for tok in tokens]
        except argparse.ArgumentTypeError as exc:
            diagnostics.append(f"line {lineno}: {exc}")
            continue
        if len(degrees) != 3:
            diagnostics.append(f"line {lineno}: expected three degrees, got {len(degrees)}")
            continue
        if None in degrees:
            token = tokens[degrees.index(None)]
            diagnostics.append(
                f"line {lineno}: degrees must be unsigned integers, got {token!r}"
            )
            continue
        degrees.sort()
        try:
            triples.append(BranchTriple(*degrees))
        except DomainError as exc:
            diagnostics.append(f"line {lineno}: {exc}")
    return sorted(set(triples)), diagnostics


# A line is three tokens two times in three: small ASCII degrees of one
# parity (rows and repeats), or a mix of ASCII and non-ASCII digits, signs
# and numbers of 999 to 1001 digits.  Else it is zero to five tokens, each
# a small degree, a short run of such characters or a long number.
long_tokens = ["7" * 999, "8" * 1000, "9" * 1001]
three_tokens = [*"0123456789", "\u0664", "\u00b2", "\uff11", "+2", "-2", *long_tokens]
reader_token = st.one_of(
    st.integers(0, 9).map(str),
    st.text("0123456789\u0664\u00b2\uff11+-", min_size=1, max_size=4),
    st.sampled_from([*long_tokens, "+" + "4" * 1000, "-" + "5" * 999]),
)
reader_tokens = st.one_of(
    st.integers(0, 1).flatmap(  # one parity, so most are rows
        lambda p: st.lists(st.integers(0, 4).map(lambda k: str(2 * k + p)), min_size=3, max_size=3)
    ),
    st.lists(st.sampled_from(three_tokens), min_size=3, max_size=3),
    st.lists(reader_token, max_size=5),
)
# Mostly whitespace; a BOM or nothing glues two tokens together.
reader_gap = st.sampled_from([" "] * 4 + ["\t", "\x0c", " \t", "\u00a0", "\ufeff", ""])
reader_line = st.builds(
    lambda lead, tokens, gaps, comment, end: (
        lead + "".join(g + t for g, t in zip(gaps, tokens)) + comment + end
    ),
    st.sampled_from(["", " ", "\t", "\ufeff"]),
    reader_tokens,
    st.lists(reader_gap, min_size=5, max_size=5),
    st.sampled_from(["", " ", "#", " # 2 4 6", "#\u0664"]),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
)


@st.composite
def triples_files(draw):
    lines = draw(st.lists(reader_line, max_size=8))
    if lines:  # repeat some lines, valid and invalid alike
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)


# A mixed-parity and a two-zero triple, each on three lines in different
# orders, with valid lines between the repeats: the reader builds a valid
# triple without BranchTriple's checks, so these lines test that every
# other triple still goes through them, once per line.  Each maps to the
# lines that must be skipped.
REPEATED_REFUSALS = {
    "\ufeff2 3 4\r\n2 4 6\r\n0 0 4\r\n4 3 2\r\n1 3 5\r\n0 4 0\r\n"
    "3 2 4 # again\r\n2 6 4\r\n4 0 0\r\n": [1, 3, 4, 6, 7, 9],
    "\ufeff0 0 2\r\n5 7 6\r\n1 3 5\r\n2 0 0\r\n3 3 3\r\n6 5 7\r\n"
    "0\t2\t0\r\n\r\n7 6 5\r\n0 2 4\r\n": [1, 2, 4, 6, 7, 9],
}


@settings(max_examples=100, deadline=None)
@given(triples_files())
@example(list(REPEATED_REFUSALS)[0])
@example(list(REPEATED_REFUSALS)[1])
def test_reader_matches_reference(text):
    # Decoded as the batch command opens a file: utf-8-sig, universal newlines.
    lines = list(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig"))
    triples, diagnostics = cli.parse_triples_file(iter(lines))
    assert (triples, diagnostics) == reference_parse_triples_file(iter(lines))
    if text in REPEATED_REFUSALS:
        assert [int(d.split(":")[0].split()[1]) for d in diagnostics] == REPEATED_REFUSALS[text]
        assert len({d.split(": ", 1)[1] for d in diagnostics}) == 2


# (0,2,2n) with n >= 3 of 1 to 299 digits, so n3 = 2n has up to 300, in
# any order.  The digit count is drawn first, so long numbers are common.
quadric_argv = st.builds(
    lambda n, order: [("0", "2", str(2 * n))[i] for i in order],
    st.integers(1, 299).flatmap(lambda k: st.integers(max(3, 10 ** (k - 1)), 10**k - 1)),
    st.permutations(range(3)),
)


@settings(max_examples=20, deadline=None)
@given(quadric_argv, st.sampled_from(["text", "json", "csv"]))
def test_quadric_argv_exits_0_impossible(degrees, fmt):
    # The quadric check bisects, so no size of n is refused.
    code, out, err = run_cli(["classify", *degrees, "--format", fmt])
    assert (code, err) == (0, "")
    assert "impossible" in out


@st.composite
def admissible_triples(draw, max_half=30):
    parity = draw(st.integers(0, 1))
    degrees = [2 * draw(st.integers(0, max_half)) + parity for _ in range(3)]
    try:
        return validate_triple(degrees).as_tuple()
    except DomainError:  # two zero degrees
        return (0, 2, 2 * draw(st.integers(1, max_half)))


@SETTINGS
@given(admissible_triples(), st.permutations(range(3)))
def test_query_payload_permutation_invariant(t, order):
    permuted = tuple(t[i] for i in order)
    assert cli.query_payload(permuted) == cli.query_payload(t)


def uc_value_text(complexity: dict) -> str:
    """The CSV uc_value cell, read off a payload's complexity dict."""
    if complexity["kind"] == "exact":
        return str(complexity["value"])
    if complexity["kind"] == "upper_bound":
        return f"{complexity['bounds']['low']}..{complexity['bounds']['high']}"
    return f">={complexity['bounds']['low']}"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 40)] * 3), min_size=1, max_size=15))
def test_batch_json_and_csv_agree(triples):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "triples.txt"
        path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in triples))
        json_code, json_out, json_err = run_cli(["batch", "--input", str(path), "--format", "json"])
        csv_code, csv_out, csv_err = run_cli(["batch", "--input", str(path), "--format", "csv"])
    assert (json_code, json_err) == (csv_code, csv_err)
    valid, rejected = set(), 0
    for t in triples:
        try:
            valid.add(validate_triple(t).as_tuple())
        except DomainError:
            rejected += 1
    assert json_code == (2 if rejected else 0)
    payloads = json.loads(json_out)
    assert json.dumps(payloads, indent=2) + "\n" == json_out
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [tuple(p["triple"][k] for k in ("n1", "n2", "n3")) for p in payloads] == sorted(valid)
    assert len(rows) == len(payloads)
    for row, payload in zip(rows, payloads):
        triple, inv, recipe = payload["triple"], payload["invariants"], payload["recipe"]
        assert (row["n1"], row["n2"], row["n3"], row["parity"]) == (
            str(triple["n1"]), str(triple["n2"]), str(triple["n3"]), triple["parity"])
        assert (row["k_squared"], row["chi"]) == (str(inv["k_squared"]), str(inv["chi"]))
        assert row["rho_gt_1"] == ("false" if payload["picard"]["rho_is_one"] else "true")
        assert row["line_bundle"] == payload["line_bundle"]["status"]
        assert row["uc_kind"] == payload["complexity"]["kind"]
        assert row["uc_value"] == uc_value_text(payload["complexity"])
        if recipe is None:
            assert (row["recipe_deg_c"], row["recipe_deg_cprime"], row["z_count"]) == ("", "", "")
        else:
            assert (row["recipe_deg_c"], row["recipe_deg_cprime"], row["z_count"]) == (
                str(recipe["deg_c"]), str(recipe["deg_cprime"]), str(recipe["z_count"]))


# n of 1 to 300 digits, the digit count drawn first.
quadric_n = st.integers(1, 300).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))


@st.composite
def large_admissible_triples(draw):
    # An eighth of the rows are (0,2,2n), the one row whose reason varies.
    if draw(st.integers(0, 7)) == 0:
        return (0, 2, 2 * draw(quadric_n))
    parity = draw(st.integers(0, 1))
    degree = st.one_of(st.integers(0, 20), st.integers(0, 10**300))
    t = sorted(2 * (draw(degree) // 2) + parity for _ in range(3))
    assume(t[1] > 0)  # two zeros disconnect the cover
    return tuple(t)


@SETTINGS
@given(st.lists(large_admissible_triples(), max_size=3))
def test_json_writer_matches_stdlib(triples):
    payloads = {}
    for t in triples:
        payloads[t] = cli.query_payload(t)
        text = json.dumps(payloads[t], indent=2)
        c = classify_triple(t)
        assert cli._query_json(c, "", {}) == text
        assert cli._query_json(c, "  ", {}) == text.replace("\n", "\n  ")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "triples.txt"
        path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in triples))
        code, out, err = run_cli(["batch", "--input", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps([payloads[t] for t in sorted(payloads)], indent=2) + "\n"


# ---------------------------------------------------------------------------
# The exact parser against argparse, each over cli._GRAMMAR


def _leaves(commands, words=()):
    """(command words, arguments) of every command in the grammar."""
    for name, (_, *body) in commands.items():
        if len(body) == 1:
            yield from _leaves(body[0], words + (name,))
        else:
            yield words + (name,), body[1]


COMMANDS = list(_leaves(cli._GRAMMAR))


def value_tokens(settings):
    """Tokens argparse converts for an argument with these settings."""
    if "choices" in settings:
        return st.sampled_from(settings["choices"])
    if settings.get("type") is cli.signed_int:
        return st.integers(-10**6, 10**6).map(str) | st.integers(0, 99).map(lambda v: f"+{v}")
    if settings.get("type") is cli.unsigned_int:
        return st.integers(0, 10**6).map(str) | st.just("0" * 7)
    return st.text("abcdefghijklmnopqrstuvwxyz0123456789_./ =", max_size=12)


def option_group(draw, arg, settings, values=None):
    values = value_tokens(settings) if values is None else values
    return [arg, *(draw(values) for _ in range(settings.get("nargs", 1)))]


@st.composite
def canonical_groups(draw):
    """A canonical argv in groups, the command words, one group per
    positional value, then one per option with its values; and the
    command's arguments."""
    words, arguments = draw(st.sampled_from(COMMANDS))
    groups, options = [list(words)], []
    exclusive = [arg for arg, s in arguments if s.get("exclusive")]
    chosen = draw(st.sampled_from(exclusive)) if exclusive else None
    for arg, settings in arguments:
        if not arg.startswith("--"):
            groups.append([draw(value_tokens(settings))])
        elif settings.get("required") or arg == chosen or (
            not settings.get("exclusive") and draw(st.booleans())
        ):
            options.append(option_group(draw, arg, settings))
    return groups + draw(st.permutations(options)), arguments


def canonical_argv():
    return canonical_groups().map(lambda drawn: [token for g in drawn[0] for token in g])


# Tokens a mutation puts in: help, "--", the "=" form, abbreviations,
# signs, other commands' options, overlong numbers, empty text.
ODD_TOKENS = st.sampled_from([
    "-h", "--help", "--", "--form", "--format=json", "--max", "--in", "--sel", "-5", "+5",
    "-", "", "x", "json", "csv", "xml", "classify", "search", "--triple", "--n", "--bound",
    "--preset", "--selfint", "--degree", "--input", "--max-degree", "1" * 1001, "-0",
    "--format", "2", "4 6", "-x y", "\u0663",
])
ALL_OPTIONS = sorted({(arg, i) for i, (_, arguments) in enumerate(COMMANDS)
                      for arg, _ in arguments if arg.startswith("--")})


@st.composite
def mutated_argv(draw):
    """A canonical argv with one or two mutations: a group dropped,
    repeated or swapped; an option of this or any command added, with
    values its settings take or odd tokens; a token replaced by an odd
    one, or an odd token added (also in place of a mutation that finds
    no group)."""
    groups, arguments = draw(canonical_groups())
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.integers(0, 6))
        i = draw(st.integers(0, max(len(groups) - 1, 0)))
        where = draw(st.integers(0, len(groups)))
        if kind == 0 and groups:
            del groups[i]
        elif kind == 1 and groups:
            groups.insert(where, list(groups[i]))
        elif kind == 2 and groups:
            j = draw(st.integers(0, len(groups) - 1))
            groups[i], groups[j] = groups[j], groups[i]
        elif kind in (3, 4):
            options = [arg for arg, _ in arguments if arg.startswith("--")]
            if kind == 3 and options:
                arg = draw(st.sampled_from(options))
                settings = dict(arguments)[arg]
            else:
                arg, command = draw(st.sampled_from(ALL_OPTIONS))
                settings = dict(COMMANDS[command][1])[arg]
            values = value_tokens(settings) | ODD_TOKENS
            groups.insert(where, option_group(draw, arg, settings, values))
        elif kind == 5 and groups:
            group = groups[i]
            group[draw(st.integers(0, len(group) - 1))] = draw(ODD_TOKENS)
        else:
            groups.insert(where, [draw(ODD_TOKENS)])
    return [token for g in groups for token in g]


PARSER = cli.build_parser()


def argparse_vars(argv):
    """vars() of argparse's namespace, or None where it refuses argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=200, deadline=None)
@given(canonical_argv())
def test_exact_parser_reads_every_canonical_argv(argv):
    exact = cli._parse_exact(argv)
    assert exact is not None, argv
    assert vars(exact) == argparse_vars(argv)


@settings(max_examples=400, deadline=None)
@given(mutated_argv())
def test_exact_parser_agrees_with_argparse(argv):
    # The exact parser declines, or reads what argparse reads: defaults,
    # "triple" as a list and "func" included.
    exact = cli._parse_exact(argv)
    if exact is not None:
        assert vars(exact) == argparse_vars(argv), argv


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@SETTINGS
@given(json_values)
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)
    assert cli._dumps(value, "\n    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


# Each per-row identity below is, on one parity class, a polynomial of degree
# at most 2 in each n_i.  Such a polynomial that vanishes on a grid
# S1 x S2 x S3 with |S_i| = 3 is identically zero (Alon, "Combinatorial
# Nullstellensatz", Combin. Probab. Comput. 8, 1999), so the 27 points of a
# grid prove the identity for every admissible triple of that parity.  The
# proof holds only while ``geometry.invariants``, ``geometry._euler_number``
# and ``numerics._check_q1`` stay branch-free on a parity class: each term
# they return must be one polynomial there, whatever the size of a degree.
EVEN_GRID = list(itertools.product((0, 2, 4), (6, 8, 10), (12, 14, 16)))
ODD_GRID = list(itertools.product((1, 3, 5), (7, 9, 11), (13, 15, 17)))


def noether(t):
    # 12 chi - K^2 - e
    inv = invariants(t)
    return 12 * inv.chi - inv.k_squared - _euler_number(*t)


def special_c2(t):
    # 2M - 5 H^2 - 3 H.K - 4 chi
    inv = invariants(t)
    return 2 * inv.big_m - 5 * inv.h_squared - 3 * inv.h_dot_k - 4 * inv.chi


def cleared_q1(t):
    # q = 1 in Equality (2.2), cleared: n^2 - 2n(n - 6) - 32 + 8 chi minus
    # n1^2 + n2^2 + n3^2, the sum _check_q1 returns last.
    inv = invariants(t)
    n, sum_sq = inv.n, _check_q1(t, inv)[-1]
    assert sum_sq == t.n1 ** 2 + t.n2 ** 2 + t.n3 ** 2
    return n * n - 2 * n * (n - 6) - 32 + 8 * inv.chi - sum_sq


@pytest.mark.parametrize(
    "identity, grid",
    [(noether, EVEN_GRID), (noether, ODD_GRID), (special_c2, EVEN_GRID), (cleared_q1, EVEN_GRID)],
    ids=["noether-even", "noether-odd", "special_c2-even", "q1-even"],
)
def test_identity_vanishes_on_a_grid(identity, grid):
    assert len(set(grid)) == 27
    assert all(identity(BranchTriple(*point)) == 0 for point in grid)
