"""Seeded workloads: the CLI invocations of one pass and their expected output.

A workload is built from its name and a seed alone.  The program under test
sees only the argv of each invocation and the input files written here; the
expectations stay on the benchmark side.  ``properties`` records the
measured share of each input property, so a later claim that helps only some
inputs can cite how common those inputs are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

SWEEP_MAX_DEGREE = 50
FILE_LINES = 5_000
FILE_MAX_DEGREE = 400

# Large-box lattice queries: preset, box bound (10^7 to 5*10^7 cells) and the
# goal for the hit count of the drawn target.  Of 400 seeded candidate
# targets the one nearest the goal is kept, so a pass has nearly the same
# output rows on every seed.  Counts near a central degree are coarse on
# delpezzo1; on p1xp1 a target has at most two hits.
LATTICE_BOXES = (
    ("delpezzo1", 3, 240),
    ("delpezzo2", 4, 700),
    ("delpezzo3", 5, 800),
    ("delpezzo4", 8, 800),
    ("delpezzo5", 13, 250),
    ("k3_024", 30, 150),
    ("p1xp1", 2000, 2),
)
TARGET_CANDIDATES = 400
# Small boxes, all under 4096 cells, for interactive lattice queries.  Their
# targets have two hits, so a pass has the same rows on every seed.
SMALL_BOXES = (
    ("delpezzo6", 3),
    ("delpezzo7", 7),
    ("delpezzo8", 31),
    ("k3_024", 3),
    ("p1xp1", 31),
)

WORKLOADS = ("sweep-csv", "file-json", "interactive", "lattice")


@dataclass
class Op:
    """One CLI invocation and what its output must be."""

    argv: tuple[str, ...]
    kind: str  # "table" | "lattice" | "rho1" | "p1xp1" | "presets" | "invalid"
    fmt: str = "text"
    expect: dict = field(default_factory=dict)
    code: int = 0
    rows: int = 0  # output rows: classification rows or lattice hits
    cells: int = 0  # lattice box cells the invocation searches


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    properties: dict
    probes: list[Op] = field(default_factory=list)  # run once, outside the timed loop


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-csv":
        return _sweep_csv(seed)
    if name == "file-json":
        return _file_json(rng, seed, workdir)
    if name == "interactive":
        return _interactive(rng, seed)
    if name == "lattice":
        return _lattice(rng, seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _share(part: int, whole: int) -> float:
    return round(part / whole, 4) if whole else 0.0


def _family_shares(triples) -> dict:
    return {
        "jump_family_share": _share(sum(oracle.rho_gt_1(t) for t in triples), len(triples)),
        "quadric_022n_share": _share(sum(t[:2] == (0, 2) for t in triples), len(triples)),
    }


def _table_op(argv, fmt, triples, code=0, skipped=()) -> Op:
    return Op(
        argv=tuple(argv),
        kind="table",
        fmt=fmt,
        expect={"triples": triples, "skipped": tuple(skipped)},
        code=code,
        rows=len(triples),
        cells=oracle.WITNESS_022_CELLS if (0, 2, 2) in triples else 0,
    )


# ---------------------------------------------------------------------------
# sweep-csv: the paper's classification table


def _sweep_csv(seed: int) -> Workload:
    triples = oracle.admissible_triples(SWEEP_MAX_DEGREE)
    argv = ("batch", "--max-degree", str(SWEEP_MAX_DEGREE), "--format", "csv")
    candidates = oracle.candidate_count(SWEEP_MAX_DEGREE)
    properties = {
        "seed_effect": "none: the input is enumerated",
        "rows": len(triples),
        "candidates": candidates,
        "yield": _share(len(triples), candidates),
        **_family_shares(triples),
    }
    return Workload("sweep-csv", seed, [_table_op(argv, "csv", triples)], properties)


# ---------------------------------------------------------------------------
# file-json: a seeded triples file through parse, dedupe and the JSON renderer


def _random_triple(rng: random.Random, max_degree: int, parity=None) -> tuple[int, int, int]:
    parity = rng.randrange(2) if parity is None else parity
    while True:
        t = tuple(sorted(rng.randrange(parity, max_degree + 1, 2) for _ in range(3)))
        if oracle.admissible(t):
            return t


def _jump_triple(rng: random.Random, max_degree: int) -> tuple[int, int, int]:
    family = rng.randrange(4)
    if family == 0:
        return (0, 2, 2 * rng.randint(1, max_degree // 2))
    if family == 1:
        return (0, 4, 2 * rng.randint(2, max_degree // 2))
    if family == 2:
        return (1, 1, 3) if rng.random() < 0.05 else (1, 3, rng.randrange(3, max_degree + 1, 2))
    return (2, 2, 2 * rng.randint(1, max_degree // 2))


def _invalid_line(rng: random.Random, kind: int) -> str:
    if kind == 0:  # mixed parity
        t = [rng.randrange(0, FILE_MAX_DEGREE, 2), rng.randrange(1, FILE_MAX_DEGREE, 2),
             rng.randrange(0, FILE_MAX_DEGREE)]
    elif kind == 1:  # two zeros
        t = [0, 0, 2 * rng.randint(1, FILE_MAX_DEGREE // 2)]
    elif kind == 2:  # wrong arity
        t = [rng.randrange(FILE_MAX_DEGREE) for _ in range(rng.choice((1, 2, 4)))]
    else:  # a signed degree
        t = list(_random_triple(rng, FILE_MAX_DEGREE))
        i = rng.randrange(3)
        t[i] = rng.choice("+-") + str(t[i])
    rng.shuffle(t)
    return " ".join(map(str, t))


def _file_json(rng: random.Random, seed: int, workdir: Path) -> Workload:
    n_invalid = FILE_LINES * 3 // 100
    n_jump = FILE_LINES * 7 // 100
    # Jump-family rows repeat often (few distinct ones have degree <= 400), so
    # fewer explicit duplicates bring the measured duplicate share to ~10%.
    n_dup = FILE_LINES * 8 // 100
    fresh = [_jump_triple(rng, FILE_MAX_DEGREE) for _ in range(n_jump)]
    fresh += [(0, 2, 2), (0, 2, 4)]
    fresh += [_random_triple(rng, FILE_MAX_DEGREE)
              for _ in range(FILE_LINES - n_invalid - n_dup - len(fresh))]
    lines = [" ".join(map(str, rng.sample(t, 3))) for t in fresh]
    lines += [" ".join(map(str, rng.sample(rng.choice(fresh), 3))) for _ in range(n_dup)]
    lines += [_invalid_line(rng, i % 4) for i in range(n_invalid)]
    rng.shuffle(lines)
    path = workdir / f"triples-{seed}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # Shares are measured on the file as written, by the oracle's own parser.
    parsed = [oracle.parse_line(line) for line in lines]
    skipped = [i for i, p in enumerate(parsed, start=1) if p == "invalid"]
    valid = [p for p in parsed if isinstance(p, tuple)]
    unique = sorted(set(valid))
    properties = {
        "lines": len(lines),
        "invalid_share": _share(len(skipped), len(lines)),
        "duplicate_share": _share(len(valid) - len(unique), len(lines)),
        "unique_rows": len(unique),
        "max_degree": max(t[2] for t in unique),
        **_family_shares(unique),
    }
    argv = ("batch", "--input", str(path.relative_to(workdir.parent)), "--format", "json")
    op = _table_op(argv, "json", unique, code=2, skipped=skipped)
    return Workload("file-json", seed, [op], properties)


# ---------------------------------------------------------------------------
# lattice searches


def _lattice_query(rng, preset, bound, fmt, goal, triple=None, exact=False) -> Op:
    """A search on the box of the given bound (None: the CLI default box,
    10(degree + 1)) for a seeded target whose hit count is nearest the goal,
    or equal to it if exact."""
    p = oracle.preset(preset, triple)
    rank = len(p["h"])

    def class_target(b):
        d = [rng.randint(-b, b) for _ in range(rank)]
        return abs(oracle._pair(p["gram"], d, p["h"])), oracle._pair(p["gram"], d, d)

    if bound is None or rank <= 2 or (2 * bound + 1) ** rank < 4096:
        # The target of a random class: on small boxes the search costs
        # little, and in rank <= 2 at most two classes share a target.
        propose = lambda: class_target(20 if bound is None else bound)  # noqa: E731
    else:
        # A random class in a high-rank box shares its target with thousands of
        # others, so the self-intersection is drawn uniformly from the lower
        # half of the range random classes span, where targets have fewer
        # hits.  The search costs about the number of cells of the target
        # degree, so the degree is drawn from the central half standard
        # deviation of D.H over the box, where that number is close to its
        # maximum whatever the seed.
        spanned = sorted(class_target(bound)[1] for _ in range(2048))
        low, high = spanned[0], spanned[len(spanned) // 2]
        gh = [sum(g * x for g, x in zip(row, p["h"])) for row in p["gram"]]
        central = int(0.5 * (bound * (bound + 1) / 3 * sum(v * v for v in gh)) ** 0.5)
        propose = lambda: (rng.randint(0, central), rng.randint(low, high))  # noqa: E731
    best = None
    for _ in range(100 * TARGET_CANDIDATES if exact else TARGET_CANDIDATES):
        degree, selfint = propose()
        box_bound = 10 * (degree + 1) if bound is None else bound
        hits = oracle.count_hits(preset, box_bound, degree, selfint, triple)
        if hits and (best is None or abs(hits - goal) < abs(best[3] - goal)):
            best = (degree, selfint, box_bound, hits)
            if hits == goal:
                break
    if best is None or (exact and best[3] != goal):
        raise RuntimeError(f"no lattice target with {goal} hits on {preset}")
    degree, selfint, box_bound, hits = best
    argv = ["search", "lattice", "--preset", preset]
    if triple is not None:
        argv += ["--triple", *map(str, triple)]
    argv += ["--degree", str(degree), "--selfint", str(selfint)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    argv += ["--format", fmt]
    query = {"preset": preset, "triple": triple, "bound": box_bound,
             "degree": degree, "selfint": selfint}
    return Op(tuple(argv), "lattice", fmt, query, rows=hits, cells=(2 * box_bound + 1) ** rank)


def _lattice(rng: random.Random, seed: int) -> Workload:
    ops = [
        _lattice_query(rng, preset, bound, "json", goal)
        for preset, bound, goal in LATTICE_BOXES
    ]
    properties = {
        "queries_per_pass": len(ops),
        "large_box_share": 1.0,
        "box_cells_per_pass": sum(op.cells for op in ops),
        "hits_per_pass": sum(op.rows for op in ops),
        "hits_per_query": [op.rows for op in ops],
    }
    return Workload("lattice", seed, ops, properties)


# ---------------------------------------------------------------------------
# interactive: short one-off invocations, where start-up dominates


def _classify(t, fmt) -> Op:
    return _table_op(("classify", *map(str, t), "--format", fmt), fmt, [tuple(sorted(t))])


def _invalid(argv, needle) -> Op:
    return Op(tuple(argv), "invalid", expect={"needle": needle}, code=2)


def _interactive(rng: random.Random, seed: int) -> Workload:
    fmt = lambda: rng.choice(("text", "json", "csv"))  # noqa: E731
    search_fmt = lambda: rng.choice(("text", "json"))  # noqa: E731
    shuffled = lambda t: tuple(rng.sample(t, 3))  # noqa: E731
    even = _random_triple(rng, 60, parity=0)
    while oracle.rho_gt_1(even):
        even = _random_triple(rng, 60, parity=0)
    small_preset, small_bound = rng.choice(SMALL_BOXES)
    quadric_n = rng.randint(1, 60)
    p1xp1_fmt, presets_fmt = search_fmt(), search_fmt()
    mixed = (2 * rng.randint(0, 30), 2 * rng.randint(0, 30) + 1, 2 * rng.randint(1, 30))
    ops = [
        _classify(shuffled(even), "text"),
        _classify(shuffled(_random_triple(rng, 60, parity=1)), "json"),
        _classify(shuffled(_random_triple(rng, 60)), "csv"),
        _classify((0, 2, 2), fmt()),
        _classify((0, 2, 4), fmt()),
        _classify(shuffled(_jump_triple(rng, 60)), fmt()),
        Op(("search", "rho1", "--triple", *map(str, shuffled(even)), "--format", "json"),
           "rho1", "json", {"triple": even}),
        Op(("search", "p1xp1", "--n", str(quadric_n), "--format", p1xp1_fmt),
           "p1xp1", p1xp1_fmt, {"n": quadric_n}),
        _lattice_query(rng, "rank1_bidouble", None, search_fmt(), 1, triple=even, exact=True),
        _lattice_query(rng, "delpezzo9", None, search_fmt(), 1, exact=True),
        _lattice_query(rng, small_preset, small_bound, search_fmt(), 2, exact=True),
        Op(("presets", "--format", presets_fmt), "presets", presets_fmt),
        _invalid(("classify", *map(str, shuffled(mixed))), "share a parity"),
        _invalid(("classify", *map(str, shuffled((0, 0, 2 * rng.randint(1, 30))))),
                 "disconnect"),
        _invalid(("classify", f"+{2 * rng.randint(1, 30)}", "4", "6"), "unsigned"),
        _invalid(("search", "lattice", "--preset", "delpezzo1", "--degree", "3",
                  "--selfint", "1", "--bound", str(rng.randint(8, 12))), "cap"),
    ]
    for op in ops:  # classify (0,2,2) runs the del Pezzo witness search
        if op.kind == "table" and (0, 2, 2) in op.expect["triples"]:
            op.cells = oracle.WITNESS_022_CELLS
    # ROADMAP item 4: a 3000-digit degree should end in exit 2, not a traceback.
    huge = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(2998)) + "0"
    probe = _invalid(("classify", "2", "4", huge), "")
    lattice_ops = [op for op in ops if op.kind == "lattice"]
    properties = {
        "invocations_per_pass": len(ops),
        "small_box_share": _share(len(lattice_ops), len(ops)),
        "large_box_share": 0.0,
        "invalid_share": _share(sum(op.kind == "invalid" for op in ops), len(ops)),
        "classify_share": _share(sum(op.kind == "table" for op in ops), len(ops)),
        "small_box_presets": [op.expect["preset"] for op in lattice_ops],
        "oversized_degree_probes": 1,
    }
    return Workload("interactive", seed, ops, properties, probes=[probe])
