"""Command-line front end.

Subcommands:

    classify N1 N2 N3      full verdict for one triple of branch degrees
    batch                  table over a triples file or an enumerated range
    search rho1|p1xp1|lattice
                           run one elimination argument or lattice search
    presets                list the built-in intersection lattices

Formats: ``--format text`` (default), ``json``, and for classify/batch
``csv``.  Output is deterministic: fixed field order, rows sorted by
triple, no timestamps.  Exit codes: 0 success, 1 stdout could not take the
output (closed, or a write failed), 2 invalid input, 3 internal
consistency failure (a cross-check between two routes disagreed, which is
a bug, not a user error).

One table, ``_GRAMMAR``, states every command's arguments.  ``main`` reads
a canonical command line with a small exact parser over that table and
hands anything else (help, abbreviations, refusals) to the argparse
parser ``build_parser`` makes from the same table, so argparse loads only
for those runs and writes every help screen and refusal.  All JSON comes
from ``_dumps``, which writes what ``json.dumps(value, indent=2)`` would
without loading the ``json`` package.
"""

import gc
import os
import sys
from itertools import islice, repeat
from types import SimpleNamespace

from .citations import (
    PROP_INVARIANTS,
    PROP_LOW_DEGREE,
    THM_PICARD,
    THM_RANK_TWO,
    canonical_order,
)
from .classify import Classification, ComplexityVerdict, classify_triple
from .errors import ConsistencyError, DomainError, number_text, tuple_text
from .geometry import BranchTriple, picard_classification, validate_triple
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
    """The integer a decimal token of at most MAX_DIGITS digits spells (a
    leading sign only when ``signed``), or None if it spells none."""
    magnitude = token[1:] if signed and token[:1] in ("+", "-") else token
    if len(magnitude) > MAX_DIGITS or not (magnitude.isascii() and magnitude.isdigit()):
        return None
    return int(token)


def _int_refusal(token: str, signed: bool) -> str:
    """Why ``_parse_int`` declined ``token``.  The digit ceiling is tested
    first, so no message repeats an overlong token."""
    digits = len(token.lstrip("+-"))
    if digits > MAX_DIGITS:
        return (
            f"a number of {digits} digits is too long to parse "
            f"(the ceiling is {MAX_DIGITS} digits)"
        )
    if signed:
        return f"expected an integer, got {token!r}"
    return f"expected an unsigned integer (signs are rejected on degrees), got {token!r}"


def _convert(text: str, signed: bool) -> int:
    value = _parse_int(text, signed)
    if value is None:
        import argparse  # only a refused run gets here

        raise argparse.ArgumentTypeError(_int_refusal(text, signed))
    return value


def unsigned_int(text: str) -> int:
    """Degree arguments: digits only, no signs."""
    return _convert(text, signed=False)


def signed_int(text: str) -> int:
    """Integer arguments of at most MAX_DIGITS digits."""
    return _convert(text, signed=True)


def _warn(text: str) -> None:
    """Write ``text`` to stderr, unless descriptor 2 was closed at start-up.
    A failed write is dropped and the exit code stands; what it left
    buffered goes to the null device, so the flush at exit cannot fail."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)  # line-buffered: each line is written here
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


# ---------------------------------------------------------------------------
# query assembly and rendering
#
# ``_payload`` is the one place the row schema is written: ``query_payload``
# returns it, and a JSON template is ``_dumps`` of a row's own payload.
# ``_csv_template`` is the one place the CSV column layout is written; the
# text table is the CSV cells padded to column widths.  All three writers
# fill per-verdict templates from the memo their command keeps, keyed by
# the identities of a row's Picard and complexity records, and a row fills
# only its numbers (and, in JSON, its two texts).  Both records are
# module-held constants, one per verdict, so a batch has at most 11 keys.
# The tests hold the CSV cells to the payload.


def _dumps(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a value built from dicts with text
    keys, lists, tuples, strings, integers, booleans and None, with
    ``newline`` in place of each newline.  No ``json`` package: its decoder
    compiles regexes a writer never uses.  Strings go through its C
    encoder, as ``ensure_ascii`` has it."""
    from _json import encode_basestring_ascii as encode

    if isinstance(value, str):
        return encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = [f"{encode(key)}: {_dumps(item, inner)}" for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        opening, closing = "[", "]"
        items = [_dumps(item, inner) for item in value]
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + newline + closing


def _row_citations(c: Classification) -> tuple:
    """Every label the row cites, in registry order."""
    witness_cites = tuple([w.cite for w in c.picard.witnesses])
    return canonical_order(
        (PROP_INVARIANTS, THM_PICARD) + witness_cites + c.line_bundle.citations + c.complexity.trail
    )


def _payload(c: Classification) -> dict:
    """The row schema of ``c``, in output order."""
    t, inv, pic = c.triple, c.invariants, c.picard
    lb, uc, recipe = c.line_bundle, c.complexity, c.recipe
    parity = t.parity
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
    return _payload(classify_triple(t))


# JSON rows are written from templates, not by ``_dumps`` of each payload.
# A template is ``_dumps`` of a row's own payload with its per-row values
# replaced by slots, made once per distinct verdict.  ``_dumps`` writes a
# text slot as "\u0000" and an integer slot as "\u0001".  A row fills its
# integers by ``%`` and its two texts, the line-bundle reason and the
# recipe's tangency note, with the C string encoder ``_dumps`` uses, once
# per distinct text in the memo.  ``%`` scans only the spans that hold
# integer slots: one %-template of the whole ~1.1 KB row was about 20%
# slower per row (2 CPUs, Python 3.11.7).

_TEXT, _INT = "\x00", "\x01"
_TEXT_JSON, _INT_JSON = '"\\u0000"', '"\\u0001"'  # the JSON spelling of each slot


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


def _json_template(c: Classification, indent: str) -> tuple:
    """The cut template of the JSON rows with the verdicts of ``c``,
    ``indent`` before every line but the first: the payload of ``c`` with
    its triple's numbers, its invariants, its line-bundle reason and its
    recipe, if any, replaced by slots."""
    payload = _payload(c)
    payload["triple"].update(n1=_INT, n2=_INT, n3=_INT)
    payload["invariants"] = dict.fromkeys(payload["invariants"], _INT)
    payload["line_bundle"]["reason"] = _TEXT
    if c.recipe is not None:
        payload["recipe"] = dict.fromkeys(payload["recipe"], _INT) | {"tangency_note": _TEXT}
    return _cut_at_slots(_dumps(payload, "\n" + indent))


def _query_json(c: Classification, indent: str, templates: dict) -> str:
    """``json.dumps(query_payload(t), indent=2)``, with ``indent`` before
    every line but the first.  The schema lists the triple, the invariants
    and the recipe's numbers in record order, so the records fill the
    integer slots as they are.

    ``templates`` is the memo the command keeps across rows of one indent.
    It maps the identities of the row's Picard and complexity records to
    the template cut from the first such row, so a row hashes no nested
    record.  A complexity record is returned by one branch of the
    classifier, which fixes the rest of what the template holds: the
    line-bundle status and citations, the parity and whether there is a
    recipe (the tests pin this).  The memo also maps each reason and
    tangency note to its encoded text, keyed by the text itself: across a
    batch only quadric (0,2,2n) rows bring a new one."""
    t, inv, r = c.triple, c.invariants, c.recipe
    key = id(c.picard), id(c.complexity)
    pieces = templates.get(key)
    if pieces is None:
        pieces = templates[key] = _json_template(c, indent)
    # Odd covers have no rank-two targets m, M.
    numbers = t + inv if inv.m is not None else t + inv[:6] + ("null", "null")
    text = c.line_bundle.reason
    reason = templates.get(text)
    if reason is None:
        from _json import encode_basestring_ascii as encode
        reason = templates[text] = encode(text)
    if r is None:
        head, span, before_reason, tail = pieces
        return "".join((head, span % numbers, before_reason, reason, tail))
    head, span, before_reason, middle, recipe_span, before_note, tail = pieces
    text = r.tangency_note
    note = templates.get(text)
    if note is None:
        from _json import encode_basestring_ascii as encode
        note = templates[text] = "null" if text is None else encode(text)
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


def _csv_template(c: Classification) -> str:
    """The %-template of the CSV lines with the verdicts of ``c``: the CSV
    column layout, with a slot for each of n1, n2, n3, K^2 and chi, and for
    the recipe's deg C, deg C' and #Z when there is a recipe.  The constant
    text is %-escaped as ``_int_template`` escapes it.  No cell holds a
    comma, quote or newline, so no cell needs quoting."""
    uc = c.complexity
    recipe = ("",) * 3 if c.recipe is None else (_INT,) * 3
    cells = (
        _INT, _INT, _INT, c.triple.parity, _INT, _INT,
        "false" if c.picard.rho_is_one else "true", c.line_bundle.status,
        uc.kind, _uc_value_text(uc), *recipe,
    )
    return ",".join(cells).replace("%", "%%").replace(_INT, "%s")


def _csv_line(c: Classification, templates: dict) -> str:
    """The row's CSV line, without its newline.  ``templates`` is the memo
    the command keeps across rows, keyed as ``_query_json`` keys its own:
    the complexity record alone does not fix the line, since odd rows with
    rho = 1 and with rho > 1 share one."""
    t, inv, pic, _, uc, r = c
    key = id(pic), id(uc)
    template = templates.get(key)
    if template is None:
        template = templates[key] = _csv_template(c)
    if r is None:
        return template % (t + inv[:2])
    return template % (t + inv[:2] + r[4:7])


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
    one shared parity, so steps of 2, and no second zero after n1 = 0.
    Each row is built by ``tuple.__new__``, without ``BranchTriple``'s
    checks or ``_make``, so the list costs no Python-level call per row."""
    if max_degree > MAX_ENUMERATED_DEGREE:
        raise DomainError(
            f"--max-degree {number_text(max_degree)} is above the ceiling "
            f"{MAX_ENUMERATED_DEGREE}; pass a list of triples with --input for larger degrees"
        )
    # The loops produce only admissible sorted triples, so no row is
    # validated again.
    new = tuple.__new__
    return [
        new(BranchTriple, (n1, n2, n3))
        for n1 in range(max_degree + 1)
        for n2 in range(n1 if n1 else 2, max_degree + 1, 2)
        for n3 in range(n2, max_degree + 1, 2)
    ]


def _line_refusal(tokens: list[str]) -> str:
    """Why a line whose tokens are not three unsigned degrees is skipped:
    the digit ceiling first, then the arity, then the first bad token."""
    overlong = [tok for tok in tokens if len(tok.lstrip("+-")) > MAX_DIGITS]
    if overlong:
        return _int_refusal(overlong[0], signed=False)
    if len(tokens) != 3:
        return f"expected three degrees, got {len(tokens)}"
    bad = next(tok for tok in tokens if _parse_int(tok, signed=False) is None)
    return f"degrees must be unsigned integers, got {bad!r}"


def parse_triples_file(stream) -> tuple[list[BranchTriple], list[str]]:
    """Whitespace-separated degrees, three per line; '#' starts a comment.

    Returns the valid triples (sorted canonically, duplicates collapsed)
    and one diagnostic string per skipped line, an inadmissible triple on
    every line that names it.  One pass in which a valid line makes no
    Python-level call: three short ASCII-digit tokens go straight to
    ``int`` and are sorted by compare-swaps.  Such a triple is
    nonnegative and sorted, so one that shares a parity and has a nonzero
    n2 is built without ``BranchTriple``'s checks; any other goes through
    them, which word its refusal.
    """
    triples, diagnostics = {}, []
    for lineno, raw in enumerate(stream, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(tokens) != 3:
            if tokens:
                diagnostics.append(f"line {lineno}: {_line_refusal(tokens)}")
            continue
        n1, n2, n3 = tokens
        digits = n1 + n2 + n3
        # The joined length settles almost every line without the max().
        if not (
            digits.isascii()
            and digits.isdigit()
            and (len(digits) <= MAX_DIGITS or max(len(n1), len(n2), len(n3)) <= MAX_DIGITS)
        ):
            diagnostics.append(f"line {lineno}: {_line_refusal(tokens)}")
            continue
        n1, n2, n3 = int(n1), int(n2), int(n3)
        if n1 > n2:
            n1, n2 = n2, n1
        if n2 > n3:
            n2, n3 = n3, n2
            if n1 > n2:
                n1, n2 = n2, n1
        key = (n1, n2, n3)
        if key in triples:
            continue
        if n2 and n1 % 2 == n2 % 2 == n3 % 2:
            triples[key] = tuple.__new__(BranchTriple, key)
        else:
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
        print(_query_json(c, "", {}))
    elif args.format == "csv":
        print(f"{CSV_HEADER}\n{_csv_line(c, {})}")
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
    templates = {}
    widths = list(map(len, CSV_COLUMNS))
    for c in records:
        widths = list(map(max, widths, map(len, _csv_line(c, templates).split(","))))
    write("  ".join(map(str.ljust, CSV_COLUMNS, widths)).rstrip() + "\n")
    lines = (
        "  ".join(map(str.ljust, _csv_line(c, templates).split(","), widths)).rstrip()
        for c in records
    )
    _write_blocks(write, lines, "\n", "\n")


def cmd_batch(args) -> int:
    diagnostics: list[str] = []
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8-sig") as stream:
                triples, diagnostics = parse_triples_file(stream)
        except (OSError, UnicodeDecodeError) as exc:
            _warn(f"error: cannot read {args.input}: {exc}\n")
            return 2
    else:
        triples = enumerate_triples(args.max_degree)
    # Every row is classified, and every check run, before the first byte
    # is written, so a failed check exits 3 with an empty stdout.
    records = [classify_triple(t) for t in triples]
    write = sys.stdout.write
    if args.format == "json":
        write("[\n  " if records else "[]\n")
        rows = map(_query_json, records, repeat("  "), repeat({}))
        _write_blocks(write, rows, ",\n  ", "\n]\n")
    elif args.format == "csv":
        write(CSV_HEADER + "\n")
        _write_blocks(write, map(_csv_line, records, repeat({})), "\n", "\n")
    else:
        _write_table(records, write)
    if diagnostics:
        _warn("".join([f"skipped {diagnostic}\n" for diagnostic in diagnostics]))
    return 2 if diagnostics else 0


def _print_verdict(verdict: FeasibilityVerdict, header: dict, fmt: str) -> None:
    if fmt == "json":
        # No verdict carries candidates; the key stays so the JSON shape holds.
        trace = [{"step": s.text, "cite": s.cite} for s in verdict.trace]
        body = {"status": verdict.status, "trace": trace, "candidates": []}
        print(_dumps(header | {"verdict": body}))
    else:
        for key, value in header.items():
            print(f"{key}: {value}")
        print(verdict.render())


def cmd_search_rho1(args) -> int:
    t = validate_triple(tuple(args.triple))
    # Lemma 4.2 assumes rho = 1; odd covers keep the refusal the search gives.
    family = picard_classification(t).family if t.is_even else None
    if family is not None:
        raise DomainError(
            f"search rho1 needs Picard number one, but {tuple_text(t)} has rho > 1 "
            f"(family {family}, {THM_PICARD})"
        )
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
    header = {"search": "lattice", "preset": preset, "bound": bound,
              "degree": degree, "selfint": selfint, "hits": []}
    if not described:
        return _dumps(header)
    header["hits"] = [_TEXT, _TEXT]
    head, sep, tail = _dumps(header).split(_TEXT_JSON)
    hit = {"coords": [_INT] * len(described[0][0]), "degree": degree,
           "selfint": selfint, "genus": _INT}
    templates = [
        _int_template(_dumps(hit | {"rank1_ulrich": ulrich}, sep[1:]))
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
    presets = [(name, note, preset_lattice(name, *params)) for name, params, note in _PRESET_SPECS]
    if args.format == "json":
        print(_dumps([
            {"name": name, "note": note, "rank": lat.rank, "basis": lat.basis_labels,
             "gram": lat.gram, "h": lat.h, "k": lat.k, "chi": lat.chi}
            for name, note, lat in presets
        ]))
        return 0
    blocks = []
    for name, note, lat in presets:
        width = max(len(str(v)) for row in lat.gram for v in row)
        lines = [
            f"{name}  (rank {lat.rank}, chi = {lat.chi})",
            f"  {note}",
            f"  basis: {' '.join(lat.basis_labels)}",
            "  gram:",
            *["    [" + " ".join(str(v).rjust(width) for v in row) + "]" for row in lat.gram],
            f"  H = {lat.h.coords}   K = {lat.k.coords}",
        ]
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


# ---------------------------------------------------------------------------
# parsers
#
# ``_GRAMMAR`` states every command once, for both parsers.  A command is
# (help, function name, arguments), a command group (help, commands).  An
# argument is its name, "--name" for an option, and its argparse settings;
# "exclusive" marks the members of the command's one required mutually
# exclusive group.  The table names the functions rather than holding
# them, so a rebinding of ``cmd_batch`` and its siblings in this module
# takes effect.

_FORMAT = {"choices": ["text", "json", "csv"], "default": "text",
           "help": "output format (default: text)"}
_SEARCH_FORMAT = {**_FORMAT, "choices": ["text", "json"]}
_DEGREE = {"type": unsigned_int}

_GRAMMAR = {
    "classify": ("full verdict for one triple of branch degrees", "cmd_classify", (
        ("n1", _DEGREE), ("n2", _DEGREE), ("n3", _DEGREE), ("--format", _FORMAT),
    )),
    "batch": ("classification table over many triples", "cmd_batch", (
        ("--input", {"exclusive": True,
                     "help": "file of whitespace-separated triples, '#' comments allowed"}),
        ("--max-degree", {"exclusive": True, "type": unsigned_int,
                          "help": "enumerate all admissible sorted triples with n3 <= N"}),
        ("--format", _FORMAT),
    )),
    "search": ("run one elimination argument or search", {
        "rho1": ("rank-1 elimination on an even Picard-number-one cover", "cmd_search_rho1", (
            ("--triple", {"type": unsigned_int, "nargs": 3, "required": True}),
            ("--format", _SEARCH_FORMAT),
        )),
        "p1xp1": ("quadric discriminant route for (0,2,2n) covers", "cmd_search_p1xp1", (
            ("--n", {"type": unsigned_int, "required": True}),
            ("--bound", {"type": unsigned_int,
                         "help": "box bound for the cross-check (default 10(n+1))"}),
            ("--format", _SEARCH_FORMAT),
        )),
        "lattice": ("brute-force class search on a preset lattice", "cmd_search_lattice", (
            ("--preset", {"required": True,
                          "help": "p1xp1, k3_024, delpezzoN, or rank1_bidouble"}),
            ("--triple", {"type": unsigned_int, "nargs": 3,
                          "help": "branch degrees for rank1_bidouble"}),
            ("--degree", {"type": unsigned_int, "required": True}),
            ("--selfint", {"type": signed_int, "required": True}),
            ("--bound", {"type": unsigned_int,
                         "help": "coordinate box bound (default 10(degree+1))"}),
            ("--format", _SEARCH_FORMAT),
        )),
    }),
    "presets": ("list built-in lattices with Gram matrices", "cmd_presets", (
        ("--format", _SEARCH_FORMAT),
    )),
}


def _add_commands(parser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, *body) in commands.items():
        command = sub.add_parser(name, help=help_text)
        if len(body) == 1:
            _add_commands(command, f"{name}_command", body[0])
            continue
        func, arguments = body
        group = None
        for arg, settings in arguments:
            settings = dict(settings)
            target = command
            if settings.pop("exclusive", False):
                group = group or command.add_mutually_exclusive_group(required=True)
                target = group
            target.add_argument(arg, **settings)
        command.set_defaults(func=globals()[func])


def build_parser():
    """The argparse parser of ``_GRAMMAR``, whose refusal is one stderr
    line without the usage."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(2, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):
            # argparse drops a failed write: a failed help write raises into
            # main's exit-1 branch instead, and stderr goes through _warn.
            if file is sys.stderr:
                _warn(message)
            else:
                file.write(message)

    parser = _Parser(
        prog="bidouble",
        description="Exact classification of Ulrich bundle data on bidouble planes.",
    )
    _add_commands(parser, "command", _GRAMMAR)
    return parser


# Whether each converter of the table takes a sign, as the exact parser
# reads it: a converter missing here fails loudly, not as the wrong one.
_SIGNED = {unsigned_int: False, signed_int: True}


def _exact_value(token: str, settings: dict):
    """``token`` as argparse converts it for an argument with these
    settings, or None where argparse would refuse it or might not read it
    as a value: only a signed integer may start with "-"."""
    convert = settings.get("type")
    if convert is not None:
        value = _parse_int(token, signed=_SIGNED[convert])
    else:
        value = None if token.startswith("-") else token
    choices = settings.get("choices")
    return None if choices is not None and value not in choices else value


def _parse_exact(argv):
    """``build_parser().parse_args(argv)`` of a canonical ``argv``, read
    without argparse, or None to leave ``argv`` to argparse.  Canonical is:
    the command words, every positional, then each option at most once,
    spelled in full and followed by its values, every value converted and
    among its choices, every required argument given.  Help, "--", the
    "--opt=value" form and abbreviations are never canonical."""
    values, dest, commands, i = {}, "command", _GRAMMAR, 0
    while True:
        if i == len(argv) or argv[i] not in commands:
            return None
        name, entry = argv[i], commands[argv[i]]
        values[dest] = name
        i += 1
        if len(entry) == 3:
            break
        dest, commands = f"{name}_command", entry[1]
    _, func, arguments = entry
    options, seen, exclusive = {}, set(), 0
    for arg, settings in arguments:
        if arg.startswith("--"):
            options[arg] = settings
            values[arg[2:].replace("-", "_")] = settings.get("default")
            continue
        value = _exact_value(argv[i], settings) if i < len(argv) else None
        if value is None:
            return None
        values[arg] = value
        i += 1
    while i < len(argv):
        arg = argv[i]
        settings = options.get(arg)
        if settings is None or arg in seen:
            return None
        seen.add(arg)
        count = settings.get("nargs", 1)
        tokens = argv[i + 1:i + 1 + count]
        converted = [_exact_value(token, settings) for token in tokens]
        if len(tokens) < count or None in converted:
            return None
        values[arg[2:].replace("-", "_")] = converted if "nargs" in settings else converted[0]
        exclusive += bool(settings.get("exclusive"))
        i += 1 + count
    for arg, settings in arguments:
        if settings.get("required") and arg not in seen:
            return None
    if any(settings.get("exclusive") for _, settings in arguments) and exclusive != 1:
        return None
    values["func"] = globals()[func]
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if sys.stdout is None:  # descriptor 1 was closed at start-up
        _warn("error: cannot write output: stdout is closed\n")
        return 1
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            # argparse reads what the exact parser declines; --help writes,
            # then raises SystemExit.
            args = _parse_exact(argv) or build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a failed write shows here, not in the flush at exit
    except OSError as exc:
        # stdout cannot take the output: the reader left, or the device is
        # full.  What is still buffered goes to the null device, so the
        # flush at exit has nothing left to fail on.  Input files are read
        # inside cmd_batch, which reports its own OSError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _warn(f"error: cannot write output: {exc}\n")
        return 1
    except ConsistencyError as exc:
        _warn(f"internal consistency failure: {exc}\n")
        return 3
    except DomainError as exc:
        _warn(f"error: {exc}\n")
        return 2


def run() -> None:
    """The process entry point: ``main()``, then end the process at once.

    Once both streams are flushed the output is durable, and interpreter
    teardown would only free memory the exit frees anyway: 6-10 ms of every
    run (2 CPUs, Python 3.11.7).  So the process ends by ``os._exit``: no
    ``atexit`` handler runs and no shutdown warning is reported.  The cycle
    collector is off for the run: no path leaves cyclic garbage for it to
    find (the tests hold every command to that), and its passes over the
    records a batch holds cost 1-3 ms.  A ``SystemExit`` without an integer
    code and any other exception, a failed flush included, leave by the
    normal path, with its traceback and exit status.  Library callers call
    ``main()``, which returns the code and leaves the collector as it is.
    """
    gc.disable()
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
