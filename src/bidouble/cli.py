"""Command-line front end.

Subcommands:

    classify N1 N2 N3      full verdict for one triple of branch degrees
    batch                  table over a triples file or an enumerated range
    search rho1|p1xp1|lattice
                           run one elimination argument or lattice search
    presets                list the built-in intersection lattices

Formats: ``--format text`` (default), ``json``, and for classify/batch
``csv``.  Output is deterministic: fixed field order, rows sorted by
triple, no timestamps.  Exit codes: 0 success, 1 stdout closed before the
output was written, 2 invalid input, 3 internal consistency failure (a
cross-check between two routes disagreed, which is a bug, not a user
error).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import islice, repeat

from .citations import (
    PROP_INVARIANTS,
    PROP_LOW_DEGREE,
    THM_PICARD,
    THM_RANK_TWO,
    canonical_order,
)
from .classify import Classification, ComplexityVerdict, LineBundleStatus, classify_triple
from .construction import CBRecipe
from .errors import ConsistencyError, DomainError, number_text
from .geometry import BranchTriple, PicardClassification, SurfaceInvariants, validate_triple
from .lattice import _box_bound, brute_force_search, preset_lattice
from .numerics import FeasibilityVerdict, _describe_hits, p1xp1_line_search, rank1_rho1_search

__all__ = ["main", "run", "build_parser", "query_payload", "enumerate_triples"]

# Longest number the CLI parses.  Derived values (K^2, chi, M) have up to
# twice its digits, still under Python's 4300-digit int-to-str limit.
MAX_DIGITS = 1000
MAX_ENUMERATED_DEGREE = 100  # batch --max-degree: 45,475 records held, not their text
# batch writes this many rows at a time (about 75 KB of JSON).  Larger
# blocks were slower: each block's text and its encoded bytes were fresh
# memory mappings, which page-faulted on every write.
BLOCK_ROWS = 64

CSV_COLUMNS = (
    "n1",
    "n2",
    "n3",
    "parity",
    "k_squared",
    "chi",
    "rho_gt_1",
    "line_bundle",
    "uc_kind",
    "uc_value",
    "recipe_deg_c",
    "recipe_deg_cprime",
    "z_count",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

EXCLUSION_NOTE = (
    f"rank-two recipe excluded for branch degrees (0,2,2): m = 2 there, and the "
    f"construction needs m >= 3 ({THM_RANK_TWO}); a rank-one bundle exists instead "
    f"({PROP_LOW_DEGREE})"
)


def _parse_int(token: str, signed: bool) -> int | None:
    """The integer a decimal token spells (a leading sign only when
    ``signed``), or None if it spells none.  A token of more than
    MAX_DIGITS digits raises ArgumentTypeError; that test comes first, so
    no message repeats an overlong token."""
    digits = len(token.lstrip("+-"))
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"a number of {digits} digits is too long to parse "
            f"(the ceiling is {MAX_DIGITS} digits)"
        )
    magnitude = token[1:] if signed and token[:1] in ("+", "-") else token
    return int(token) if magnitude.isascii() and magnitude.isdigit() else None


def unsigned_int(text: str) -> int:
    """Degree arguments: digits only, no signs."""
    value = _parse_int(text, signed=False)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected an unsigned integer (signs are rejected on degrees), got {text!r}"
        )
    return value


def signed_int(text: str) -> int:
    """Integer arguments of at most MAX_DIGITS digits."""
    value = _parse_int(text, signed=True)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# query assembly and rendering
#
# ``_payload`` is the one place the row schema is written: ``query_payload``
# returns it, and the JSON writer takes its templates from json.dumps of
# it.  CSV and text are written straight from the ``Classification``
# record; the tests hold their cells to the payload.


def _row_citations(c: Classification) -> tuple:
    """Every label the row cites, in registry order."""
    witness_cites = tuple([w.cite for w in c.picard.witnesses])
    return canonical_order(
        (PROP_INVARIANTS, THM_PICARD) + witness_cites + c.line_bundle.citations + c.complexity.trail
    )


def _payload(c: Classification, parity: str) -> dict:
    """The row schema, in output order.  ``parity`` is passed apart from
    ``c.triple`` because the JSON writer hands in a record whose numbers
    are slots."""
    t, inv, pic = c.triple, c.invariants, c.picard
    lb, uc, recipe = c.line_bundle, c.complexity, c.recipe
    return {
        "triple": {"n1": t.n1, "n2": t.n2, "n3": t.n3, "parity": parity},
        "generic": True,
        "invariants": {
            "k_squared": inv.k_squared,
            "chi": inv.chi,
            "h_squared": inv.h_squared,
            "h_dot_k": inv.h_dot_k,
            "q": inv.q,
            "n": inv.n,
            "m": inv.m,
            "big_m": inv.big_m,
        },
        "picard": {
            "rho_is_one": pic.rho_is_one,
            "family": pic.family,
            "witnesses": [
                {"pair": [w.a, w.b], "rho": w.rho, "cite": w.cite} for w in pic.witnesses
            ],
        },
        "line_bundle": {
            "status": lb.status,
            "reason": lb.reason,
            "citations": list(lb.citations),
        },
        "complexity": {
            "kind": uc.kind,
            "value": uc.value,
            "bounds": None
            if uc.bounds is None
            else {"low": uc.bounds[0], "high": uc.bounds[1]},
            "trail": list(uc.trail),
        },
        "recipe": None if recipe is None else recipe._asdict(),
        "recipe_note": EXCLUSION_NOTE if recipe is None and parity == "even" else None,
        "citations": list(_row_citations(c)),
    }


def query_payload(t) -> dict:
    """Everything the CLI reports about one triple, JSON-ready.

    Integers, strings, booleans and nulls only; field order is fixed so
    identical inputs render byte-identically.
    """
    c = classify_triple(t)
    return _payload(c, c.triple.parity)


# JSON: json.dumps(..., indent=2) falls back to the stdlib's pure-Python
# encoder, so rows are written from templates instead.  A template is
# json.dumps of ``_payload`` on a record whose own values are slots; it is
# made once per distinct verdict and indent.  json.dumps writes a text slot
# as "\u0000" and an integer slot as "\u0001".  A row fills its integers by
# ``%`` and its two texts, the line-bundle reason and the recipe's
# tangency note, with the stdlib's C string encoder (ensure_ascii, as
# json.dumps).  ``%`` scans only the spans that hold integer slots: one
# %-template of the whole ~1.1 KB row was about 20% slower per row (2 CPUs,
# Python 3.11.7).
#
# ``json`` loads only for JSON output: it is about 2 ms of every start-up.
# So the slot spellings are literals, and a row takes the string encoder
# from its template's cache entry.

_TEXT, _INT = "\x00", "\x01"
_TEXT_JSON, _INT_JSON = '"\\u0000"', '"\\u0001"'  # json.dumps of each slot


def _int_template(text: str) -> str:
    return text.replace("%", "%%").replace(_INT_JSON, "%s")


def _cut_at_slots(text: str) -> tuple:
    """``text`` cut at its text slots.  A piece that holds integer slots is
    cut again, into the constant before them, the %-template from the
    first to the last, and the constant after them."""
    pieces = []
    for piece in text.split(_TEXT_JSON):
        first = piece.find(_INT_JSON)
        if first < 0:
            pieces.append(piece)
        else:
            end = piece.rfind(_INT_JSON) + len(_INT_JSON)
            pieces += (piece[:first], _int_template(piece[first:end]), piece[end:])
    return tuple(pieces)


@cache
def _json_template(
    parity: str,
    pic: PicardClassification,
    status: str,
    lb_cites: tuple,
    uc: ComplexityVerdict,
    has_recipe: bool,
    indent: str,
) -> tuple:
    """The stdlib's C string encoder and the cut template of a row with
    these verdicts, ``indent`` before every line but the first."""
    import json

    slotted = Classification(
        BranchTriple._make((_INT,) * 3),
        SurfaceInvariants._make((_INT,) * 8),
        pic,
        LineBundleStatus(status, _TEXT, lb_cites),
        uc,
        CBRecipe._make((_INT,) * 7 + (_TEXT,)) if has_recipe else None,
    )
    text = json.dumps(_payload(slotted, parity), indent=2)
    return json.encoder.encode_basestring_ascii, _cut_at_slots(text.replace("\n", "\n" + indent))


@cache
def _json_string(text: str) -> str:
    """The JSON spelling of the one tangency note."""
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _query_json(c: Classification, indent: str = "") -> str:
    """``json.dumps(query_payload(t), indent=2)``, with ``indent`` before
    every line but the first.  The schema lists the triple, the invariants
    and the recipe's numbers in record order, so the records fill the
    integer slots as they are."""
    t, inv, lb, r = c.triple, c.invariants, c.line_bundle, c.recipe
    encode, pieces = _json_template(
        t.parity, c.picard, lb.status, lb.citations, c.complexity, r is not None, indent
    )
    # Odd covers have no rank-two targets m, M.
    numbers = t + inv if inv.m is not None else t + inv[:6] + ("null", "null")
    reason = encode(lb.reason)
    if r is None:
        head, span, before_reason, tail = pieces
        return "".join((head, span % numbers, before_reason, reason, tail))
    head, span, before_reason, middle, recipe_span, before_note, tail = pieces
    note = "null" if r.tangency_note is None else _json_string(r.tangency_note)
    return "".join((
        head, span % numbers, before_reason, reason,
        middle, recipe_span % r[:7], before_note, note, tail,
    ))


def _uc_value_text(uc: ComplexityVerdict) -> str:
    if uc.kind == "exact":
        return str(uc.value)
    if uc.kind == "upper_bound":
        return f"{uc.bounds[0]}..{uc.bounds[1]}"
    return f">={uc.bounds[0]}"


def _csv_line(c: Classification) -> str:
    """The row's CSV line, without its newline.  No cell holds a comma,
    quote or newline, so no cell needs quoting."""
    t, inv, r = c.triple, c.invariants, c.recipe
    recipe = ",," if r is None else f"{r.deg_c},{r.deg_cprime},{r.z_count}"
    return (
        f"{t.n1},{t.n2},{t.n3},{t.parity},{inv.k_squared},{inv.chi},"
        f"{'false' if c.picard.rho_is_one else 'true'},{c.line_bundle.status},"
        f"{c.complexity.kind},{_uc_value_text(c.complexity)},{recipe}"
    )


def _query_text(c: Classification) -> str:
    t, inv, pic = c.triple, c.invariants, c.picard
    lb, uc, recipe = c.line_bundle, c.complexity, c.recipe
    out = [
        f"branch degrees ({t.n1}, {t.n2}, {t.n3})  "
        f"[{t.parity} cover; generic branch curves]",
        f"invariants: K^2 = {inv.k_squared}, chi = {inv.chi}, "
        f"H^2 = {inv.h_squared}, H.K = {inv.h_dot_k}, q = {inv.q}, "
        f"n = {inv.n}"
        + ("" if inv.m is None else f", m = {inv.m}, M = {inv.big_m}"),
    ]
    if pic.rho_is_one:
        out.append("picard: rho(S) = 1 (every intermediate double plane has rho = 1)")
    else:
        jumps = "; ".join(
            f"pair ({w.a}, {w.b}) gives rho = {w.rho} [{w.cite}]" for w in pic.witnesses
        )
        out.append(f"picard: rho(S) > 1, family {pic.family}: {jumps}")
    out.append(f"line bundle: {lb.status}")
    out.append(f"  {lb.reason}")
    out.append(
        f"complexity: uc = {_uc_value_text(uc)} ({uc.kind})  [{', '.join(uc.trail)}]"
    )
    if recipe is not None:
        out.append(
            f"rank-two recipe: E1 degree {recipe.deg_e1}, C degree {recipe.deg_c}, "
            f"C' degree {recipe.deg_cprime}, #Z = {recipe.z_count} "
            f"(M mod 4 = {recipe.residue})"
        )
        if recipe.tangency_note:
            out.append(f"  note: {recipe.tangency_note}")
    elif t.is_even:
        out.append(f"recipe: none ({EXCLUSION_NOTE})")
    else:
        out.append("recipe: none (odd cover)")
    out.append(f"citations: {', '.join(_row_citations(c))}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# input handling


def enumerate_triples(max_degree: int) -> list[BranchTriple]:
    """All admissible sorted triples with n3 <= max_degree, in lex order:
    one shared parity, so steps of 2, and no second zero after n1 = 0."""
    if max_degree > MAX_ENUMERATED_DEGREE:
        raise DomainError(
            f"--max-degree {number_text(max_degree)} is above the ceiling "
            f"{MAX_ENUMERATED_DEGREE}; pass a list of triples with --input for larger degrees"
        )
    # The loops produce only admissible sorted triples, so no row is
    # validated again.
    make = BranchTriple._make
    return [
        make((n1, n2, n3))
        for n1 in range(max_degree + 1)
        for n2 in range(n1 if n1 else 2, max_degree + 1, 2)
        for n3 in range(n2, max_degree + 1, 2)
    ]


def _line_refusal(tokens: list[str]) -> str:
    """Why a line whose tokens are not three unsigned degrees is skipped:
    the digit ceiling first, then the arity, then the first bad token."""
    try:
        degrees = [_parse_int(tok, signed=False) for tok in tokens]
    except argparse.ArgumentTypeError as exc:
        return str(exc)
    if len(degrees) != 3:
        return f"expected three degrees, got {len(degrees)}"
    return f"degrees must be unsigned integers, got {tokens[degrees.index(None)]!r}"


def parse_triples_file(stream) -> tuple[list[BranchTriple], list[str]]:
    """Whitespace-separated degrees, three per line; '#' starts a comment.

    Returns the valid triples (sorted canonically, duplicates collapsed)
    and one diagnostic string per skipped line.  One pass: a line of three
    short ASCII-digit tokens goes straight to ``int``, and each distinct
    valid triple is validated once.
    """
    triples, diagnostics = {}, []
    for lineno, raw in enumerate(stream, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        digits = "".join(tokens)
        # The joined length settles almost every line without the max(),
        # which slowed the whole parse by more than a tenth.
        short = len(digits) <= MAX_DIGITS or max(map(len, tokens)) <= MAX_DIGITS
        if len(tokens) != 3 or not (digits.isascii() and digits.isdigit() and short):
            diagnostics.append(f"line {lineno}: {_line_refusal(tokens)}")
            continue
        key = tuple(sorted(map(int, tokens)))
        if key not in triples:
            try:
                triples[key] = BranchTriple(*key)
            except DomainError as exc:
                diagnostics.append(f"line {lineno}: {exc}")
    return sorted(triples.values()), diagnostics


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_classify(args) -> int:
    c = classify_triple((args.n1, args.n2, args.n3))
    if args.format == "json":
        print(_query_json(c))
    elif args.format == "csv":
        print(f"{CSV_HEADER}\n{_csv_line(c)}")
    else:
        print(_query_text(c))
    return 0


def _write_blocks(write, texts, sep: str, end: str) -> None:
    """Write ``texts`` joined by ``sep`` and followed by ``end``, one write
    per BLOCK_ROWS texts; nothing at all if there are none."""
    block = list(islice(texts, BLOCK_ROWS))
    while block:
        following = list(islice(texts, BLOCK_ROWS))
        block[-1] += sep if following else end
        write(sep.join(block))
        block = following


def _write_table(records: list[Classification], write) -> None:
    # Column widths need every row, so the cells are rendered twice
    # rather than held.
    widths = list(map(len, CSV_COLUMNS))
    for c in records:
        widths = list(map(max, widths, map(len, _csv_line(c).split(","))))
    write("  ".join(map(str.ljust, CSV_COLUMNS, widths)).rstrip() + "\n")
    lines = ("  ".join(map(str.ljust, _csv_line(c).split(","), widths)).rstrip() for c in records)
    _write_blocks(write, lines, "\n", "\n")


def cmd_batch(args) -> int:
    diagnostics: list[str] = []
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8-sig") as stream:
                triples, diagnostics = parse_triples_file(stream)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return 2
    else:
        triples = enumerate_triples(args.max_degree)
    # Every row is classified, and every check run, before the first byte
    # is written, so a failed check exits 3 with an empty stdout.
    records = [classify_triple(t) for t in triples]
    write = sys.stdout.write
    if args.format == "json":
        write("[\n  " if records else "[]\n")
        _write_blocks(write, map(_query_json, records, repeat("  ")), ",\n  ", "\n]\n")
    elif args.format == "csv":
        write(CSV_HEADER + "\n")
        _write_blocks(write, map(_csv_line, records), "\n", "\n")
    else:
        _write_table(records, write)
    if diagnostics:
        sys.stderr.write("".join([f"skipped {diagnostic}\n" for diagnostic in diagnostics]))
    return 2 if diagnostics else 0


def _verdict_payload(verdict: FeasibilityVerdict) -> dict:
    # No verdict carries candidates; the key stays so the JSON shape holds.
    return {
        "status": verdict.status,
        "trace": [{"step": s.text, "cite": s.cite} for s in verdict.trace],
        "candidates": [],
    }


def _print_verdict(verdict: FeasibilityVerdict, header: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(header | {"verdict": _verdict_payload(verdict)}, indent=2))
    else:
        for key, value in header.items():
            print(f"{key}: {value}")
        print(verdict.render())


def cmd_search_rho1(args) -> int:
    t = validate_triple(tuple(args.triple))
    verdict = rank1_rho1_search(t)
    _print_verdict(
        verdict,
        {"search": "rho1", "triple": list(t.as_tuple())},
        args.format,
    )
    return 0


def cmd_search_p1xp1(args) -> int:
    verdict = p1xp1_line_search(args.n, bound=args.bound)
    bound = _box_bound(args.n, args.bound)
    _print_verdict(
        verdict,
        {"search": "p1xp1", "n": args.n, "bound": bound},
        args.format,
    )
    return 0


def cmd_search_lattice(args) -> int:
    if args.preset == "rank1_bidouble":
        if args.triple is None:
            raise DomainError("preset rank1_bidouble needs --triple N1 N2 N3")
        lat = preset_lattice("rank1_bidouble", tuple(args.triple))
    else:
        if args.triple is not None:
            raise DomainError(f"--triple only applies to rank1_bidouble, not {args.preset}")
        lat = preset_lattice(args.preset)
    bound = _box_bound(args.degree, args.bound)
    hits = brute_force_search(lat, bound, args.degree, args.selfint)
    described = _describe_hits(lat, hits, args.degree, args.selfint)
    if args.format == "json":
        print(_lattice_json(lat.describe(), bound, args.degree, args.selfint, described))
    else:
        lines = [
            f"lattice search on {lat.describe()}: box bound {bound}, "
            f"degree {args.degree}, self-intersection {args.selfint}",
            f"{len(described)} hit(s)",
        ]
        lines += [
            f"  {coords}, genus {genus}, rank-1 Ulrich equalities: {ulrich}"
            for coords, genus, ulrich in described
        ]
        print("\n".join(lines))
    return 0


def _lattice_json(preset: str, bound: int, degree: int, selfint: int, described) -> str:
    """``json.dumps(..., indent=2)`` of a lattice search: the header with two
    text slots for hits, whose separator joins the hits, and a %-template
    of one hit for each rank1_ulrich value."""
    import json

    header = {"search": "lattice", "preset": preset, "bound": bound,
              "degree": degree, "selfint": selfint, "hits": []}
    if not described:
        return json.dumps(header, indent=2)
    header["hits"] = [_TEXT, _TEXT]
    head, sep, tail = json.dumps(header, indent=2).split(_TEXT_JSON)
    hit = {"coords": [_INT] * len(described[0][0]), "degree": degree,
           "selfint": selfint, "genus": _INT}
    templates = [
        _int_template(json.dumps(hit | {"rank1_ulrich": ulrich}, indent=2).replace("\n", sep[1:]))
        for ulrich in (False, True)
    ]
    return head + sep.join(
        [templates[ulrich] % (*coords, genus) for coords, genus, ulrich in described]
    ) + tail


_PRESET_SPECS = (
    ("k3_024", (), "the K3-type cover with branch degrees (0, 2, 4)"),
    ("p1xp1", (), "the smooth quadric (two rulings)"),
    ("delpezzo", (4,), "del Pezzo of given degree 1..9; shown for degree 4"),
    (
        "rank1_bidouble",
        ((2, 2, 2),),
        "Z*H for an even bidouble plane; shown for degrees (2, 2, 2)",
    ),
)


def cmd_presets(args) -> int:
    entries = []
    for name, params, note in _PRESET_SPECS:
        lat = preset_lattice(name, *params)
        entries.append(
            {
                "name": name,
                "note": note,
                "rank": lat.rank,
                "basis": list(lat.basis_labels),
                "gram": [list(row) for row in lat.gram],
                "h": list(lat.h.coords),
                "k": list(lat.k.coords),
                "chi": lat.chi,
            }
        )
    if args.format == "json":
        import json

        print(json.dumps(entries, indent=2))
        return 0
    blocks = []
    for entry in entries:
        lines = [
            f"{entry['name']}  (rank {entry['rank']}, chi = {entry['chi']})",
            f"  {entry['note']}",
            f"  basis: {' '.join(entry['basis'])}",
            "  gram:",
        ]
        width = max(
            len(str(v)) for row in entry["gram"] for v in row
        )
        for row in entry["gram"]:
            lines.append("    [" + " ".join(str(v).rjust(width) for v in row) + "]")
        lines.append(f"  H = {tuple(entry['h'])}   K = {tuple(entry['k'])}")
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose refusal is one stderr line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_format(parser, choices=("text", "json", "csv")) -> None:
    parser.add_argument(
        "--format",
        choices=list(choices),
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bidouble",
        description="Exact classification of Ulrich bundle data on bidouble planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="full verdict for one triple of branch degrees"
    )
    p_classify.add_argument("n1", type=unsigned_int)
    p_classify.add_argument("n2", type=unsigned_int)
    p_classify.add_argument("n3", type=unsigned_int)
    _add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_batch = sub.add_parser("batch", help="classification table over many triples")
    source = p_batch.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", help="file of whitespace-separated triples, '#' comments allowed"
    )
    source.add_argument(
        "--max-degree",
        type=unsigned_int,
        help="enumerate all admissible sorted triples with n3 <= N",
    )
    _add_format(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_search = sub.add_parser("search", help="run one elimination argument or search")
    search_sub = p_search.add_subparsers(dest="search_command", required=True)

    p_rho1 = search_sub.add_parser(
        "rho1", help="rank-1 elimination on an even Picard-number-one cover"
    )
    p_rho1.add_argument("--triple", type=unsigned_int, nargs=3, required=True)
    _add_format(p_rho1, choices=("text", "json"))
    p_rho1.set_defaults(func=cmd_search_rho1)

    p_quadric = search_sub.add_parser(
        "p1xp1", help="quadric discriminant route for (0,2,2n) covers"
    )
    p_quadric.add_argument("--n", type=unsigned_int, required=True)
    p_quadric.add_argument(
        "--bound", type=unsigned_int, help="box bound for the cross-check (default 10(n+1))"
    )
    _add_format(p_quadric, choices=("text", "json"))
    p_quadric.set_defaults(func=cmd_search_p1xp1)

    p_lattice = search_sub.add_parser(
        "lattice", help="brute-force class search on a preset lattice"
    )
    p_lattice.add_argument(
        "--preset", required=True, help="p1xp1, k3_024, delpezzoN, or rank1_bidouble"
    )
    p_lattice.add_argument(
        "--triple", type=unsigned_int, nargs=3, help="branch degrees for rank1_bidouble"
    )
    p_lattice.add_argument("--degree", type=unsigned_int, required=True)
    p_lattice.add_argument("--selfint", type=signed_int, required=True)
    p_lattice.add_argument(
        "--bound",
        type=unsigned_int,
        help="coordinate box bound (default 10(degree+1))",
    )
    _add_format(p_lattice, choices=("text", "json"))
    p_lattice.set_defaults(func=cmd_search_lattice)

    p_presets = sub.add_parser("presets", help="list built-in lattices with Gram matrices")
    _add_format(p_presets, choices=("text", "json"))
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)  # --help writes, then raises SystemExit
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
    except BrokenPipeError:
        # The reader left: what is still buffered goes to the null device,
        # so the flush at exit has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: ``main()``, then end the process at once.

    Once both streams are flushed the output is durable, and interpreter
    teardown would only free memory the exit frees anyway: 6-10 ms of every
    run (2 CPUs, Python 3.11.7).  So the process ends by ``os._exit``: no
    ``atexit`` handler runs and no shutdown warning is reported.  A
    ``SystemExit`` without an integer code and any other exception, a
    failed flush included, leave by the normal path, with its traceback
    and exit status.  Library callers call ``main()``, which returns the
    code.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help exits 0, a refusal 2
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None: the descriptor was closed at start-up
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
