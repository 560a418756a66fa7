"""Closed-form oracle for the output of the bidouble CLI.

Nothing here imports the package under test.  Every expected value is
recomputed from the formulas the classification rests on:

    parity      all three degrees share it
    K^2         (n - 6)^2
    chi         (16 + sum ni^2 + sum ni*nj - 6n) / 4
    rho > 1     some complementary pair, sorted, is (0,2), (0,4), (1,3) or (2,2)
    line bundle / complexity
                the decision tree of the classifier (odd; T2 = (0,2,2), (0,2,4);
                (0,2,2n) n >= 3; T1 = (0,4,2n) n >= 2 and (2,2,2n) n >= 1; rest)
    recipe      m = n/2, M = m^2 + sum (ni/2)^2, deg C = M/4 or (M+2)/4,
                deg C' = deg C + 1 - m, #Z = M

and, for lattice searches, from the Gram matrix of each preset: a hit lies
in the box, has the target D.H and D^2, hits come in strictly increasing
lexicographic order, and their number equals an independent count
(meet-in-the-middle over coordinates for the diagonal del Pezzo lattices,
a quadratic in two coordinates for k3_024, a linear scan for p1xp1).

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import cache
from math import isqrt

CSV_COLUMNS = (
    "n1", "n2", "n3", "parity", "k_squared", "chi", "rho_gt_1", "line_bundle",
    "uc_kind", "uc_value", "recipe_deg_c", "recipe_deg_cprime", "z_count",
)

_JUMP_PAIRS = {(0, 2), (0, 4), (1, 3), (2, 2)}
_UNSIGNED = re.compile(r"^[0-9]+$")
# Box cells of the conic-class search that settles the (0,2,2) verdict:
# delpezzo(4) has rank 6 and the search box has bound 3.
WITNESS_022_CELLS = 7**6


# ---------------------------------------------------------------------------
# triples


def admissible(degrees) -> bool:
    """Three nonnegative integers, one parity, at most one zero."""
    return (
        len(degrees) == 3
        and all(isinstance(d, int) and d >= 0 for d in degrees)
        and len({d % 2 for d in degrees}) == 1
        and sum(1 for d in degrees if d == 0) <= 1
    )


def parse_line(raw: str):
    """The canonical triple a batch-file line stands for, None for a blank or
    comment line, or the string "invalid" for a line the CLI must skip."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    tokens = line.split()
    if len(tokens) != 3 or not all(_UNSIGNED.match(tok) for tok in tokens):
        return "invalid"
    degrees = tuple(sorted(int(tok) for tok in tokens))
    return degrees if admissible(degrees) else "invalid"


def rho_gt_1(t) -> bool:
    n1, n2, n3 = t
    return any(tuple(sorted(p)) in _JUMP_PAIRS for p in ((n2, n3), (n1, n3), (n1, n2)))


def jump_family(t) -> str | None:
    n1, n2, n3 = t
    if not rho_gt_1(t):
        return None
    if (n1, n2) == (0, 2):
        return "(0,2,2n)"
    if (n1, n2) == (0, 4):
        return "(0,4,2n)"
    if (n1, n2) == (2, 2):
        return "(2,2,2n)"
    return "(1,3,odd)"


def expected(t) -> dict:
    """Every reported quantity of the sorted admissible triple t."""
    n1, n2, n3 = t
    n = n1 + n2 + n3
    even = n1 % 2 == 0
    chi_num = 16 + n1 * n1 + n2 * n2 + n3 * n3 + n1 * n2 + n1 * n3 + n2 * n3 - 6 * n
    out = {
        "parity": "even" if even else "odd",
        "k_squared": (n - 6) ** 2,
        "chi": chi_num // 4,
        "h_dot_k": 2 * (n - 6),
        "n": n,
        "rho_gt_1": rho_gt_1(t),
        "family": jump_family(t),
        "m": None,
        "big_m": None,
        "recipe": None,
    }
    t1 = even and (((n1, n2) == (0, 4) and n3 >= 4) or ((n1, n2) == (2, 2) and n3 >= 2))
    if not even:
        out["line_bundle"], out["uc"] = "impossible", ("lower_bound_only", None, (2, None))
    elif t in ((0, 2, 2), (0, 2, 4)):
        out["line_bundle"], out["uc"] = "exists", ("exact", 1, None)
    elif t1:
        out["line_bundle"], out["uc"] = "open", ("upper_bound", None, (1, 2))
    else:
        out["line_bundle"], out["uc"] = "impossible", ("exact", 2, None)
    if even:
        m = n // 2
        big_m = m * m + sum((d // 2) ** 2 for d in t)
        out["m"], out["big_m"] = m, big_m
        if t != (0, 2, 2):
            residue = big_m % 4
            deg_c = big_m // 4 if residue == 0 else (big_m + 2) // 4
            out["recipe"] = {
                "m": m,
                "big_m": big_m,
                "residue": residue,
                "deg_e1": 1,
                "deg_c": deg_c,
                "deg_cprime": deg_c + 1 - m,
                "z_count": big_m,
            }
    return out


def uc_text(uc) -> str:
    kind, value, bounds = uc
    if kind == "exact":
        return str(value)
    if kind == "upper_bound":
        return f"{bounds[0]}..{bounds[1]}"
    return f">={bounds[0]}"


def expected_csv_row(t) -> list[str]:
    e = expected(t)
    r = e["recipe"]
    return [
        *(str(d) for d in t),
        e["parity"],
        str(e["k_squared"]),
        str(e["chi"]),
        "true" if e["rho_gt_1"] else "false",
        e["line_bundle"],
        e["uc"][0],
        uc_text(e["uc"]),
        "" if r is None else str(r["deg_c"]),
        "" if r is None else str(r["deg_cprime"]),
        "" if r is None else str(r["z_count"]),
    ]


def admissible_triples(max_degree: int) -> list[tuple[int, int, int]]:
    """Sorted admissible triples with n3 <= max_degree, in lexicographic order."""
    return [
        (a, b, c)
        for a in range(max_degree + 1)
        for b in range(a, max_degree + 1)
        for c in range(b, max_degree + 1)
        if admissible((a, b, c))
    ]


def candidate_count(max_degree: int) -> int:
    """Sorted triples n1 <= n2 <= n3 <= max_degree, admissible or not."""
    return (max_degree + 1) * (max_degree + 2) * (max_degree + 3) // 6


# ---------------------------------------------------------------------------
# classification output


def check_payload(payload, t) -> list[str]:
    """One JSON row of ``classify``/``batch`` against the closed forms."""
    e = expected(t)
    want = {
        "triple": {"n1": t[0], "n2": t[1], "n3": t[2], "parity": e["parity"]},
        "invariants": {
            "k_squared": e["k_squared"], "chi": e["chi"], "h_squared": 4,
            "h_dot_k": e["h_dot_k"], "q": 0, "n": e["n"], "m": e["m"],
            "big_m": e["big_m"],
        },
        "rho_is_one": not e["rho_gt_1"],
        "family": e["family"],
        "status": e["line_bundle"],
        "complexity": (
            e["uc"][0],
            e["uc"][1],
            None if e["uc"][2] is None else {"low": e["uc"][2][0], "high": e["uc"][2][1]},
        ),
        "recipe": e["recipe"],
    }
    try:
        recipe = payload["recipe"]
        if recipe is not None:
            if (recipe["tangency_note"] is not None) != (recipe["residue"] == 2):
                return [f"{t}: tangency note present iff M = 2 mod 4 fails"]
            recipe = {k: v for k, v in recipe.items() if k != "tangency_note"}
        got = {
            "triple": payload["triple"],
            "invariants": payload["invariants"],
            "rho_is_one": payload["picard"]["rho_is_one"],
            "family": payload["picard"]["family"],
            "status": payload["line_bundle"]["status"],
            "complexity": (
                payload["complexity"]["kind"],
                payload["complexity"]["value"],
                payload["complexity"]["bounds"],
            ),
            "recipe": recipe,
        }
        note_ok = (payload["recipe_note"] is not None) == (t == (0, 2, 2))
    except (KeyError, TypeError) as exc:
        return [f"{t}: malformed payload ({exc!r})"]
    problems = [f"{t}: {key} is {got[key]!r}, expected {want[key]!r}"
                for key in want if got[key] != want[key]]
    if not note_ok:
        problems.append(f"{t}: recipe_note set iff the triple is (0,2,2) fails")
    return problems


def check_table(stdout: str, fmt: str, triples) -> list[str]:
    """``batch``/``classify`` output in csv or json: exactly the given
    sorted triples, one row each, every row matching the closed forms."""
    problems = []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or tuple(rows[0]) != CSV_COLUMNS:
            return ["csv header missing or wrong"]
        rows = rows[1:]
        if len(rows) != len(triples):
            return [f"{len(rows)} csv rows, expected {len(triples)}"]
        for row, t in zip(rows, triples):
            want = expected_csv_row(t)
            if row != want:
                problems.append(f"{t}: csv row {row} != {want}")
    elif fmt == "json":
        try:
            payloads = json.loads(stdout)
        except ValueError as exc:
            return [f"json does not parse: {exc}"]
        if isinstance(payloads, dict):
            payloads = [payloads]
        if len(payloads) != len(triples):
            return [f"{len(payloads)} json rows, expected {len(triples)}"]
        for payload, t in zip(payloads, triples):
            problems.extend(check_payload(payload, t))
    else:
        (t,) = triples
        problems.extend(check_text(stdout, t))
    return problems[:20]


_TEXT_PATTERNS = {
    "triple": re.compile(r"^branch degrees \((\d+), (\d+), (\d+)\)  \[(even|odd) cover", re.M),
    "invariants": re.compile(r"^invariants: K\^2 = (-?\d+), chi = (-?\d+),", re.M),
    "picard": re.compile(r"^picard: rho\(S\) (= 1|> 1)", re.M),
    "line_bundle": re.compile(r"^line bundle: (\w+)$", re.M),
    "uc": re.compile(r"^complexity: uc = (\S+) \((\w+)\)", re.M),
    "recipe": re.compile(
        r"^rank-two recipe: E1 degree 1, C degree (-?\d+), C' degree (-?\d+), #Z = (\d+)", re.M
    ),
}


def check_text(stdout: str, t) -> list[str]:
    """``classify --format text`` for one triple."""
    e = expected(t)
    found = {key: pat.search(stdout) for key, pat in _TEXT_PATTERNS.items()}
    missing = [key for key in ("triple", "invariants", "picard", "line_bundle", "uc")
               if found[key] is None]
    if missing:
        return [f"{t}: text output lacks {', '.join(missing)}"]
    r = e["recipe"]
    got = (
        tuple(found["triple"].groups()),
        found["invariants"].groups(),
        found["picard"].group(1),
        found["line_bundle"].group(1),
        found["uc"].groups(),
        None if found["recipe"] is None else found["recipe"].groups(),
    )
    want = (
        (*(str(d) for d in t), e["parity"]),
        (str(e["k_squared"]), str(e["chi"])),
        "> 1" if e["rho_gt_1"] else "= 1",
        e["line_bundle"],
        (uc_text(e["uc"]), e["uc"][0]),
        None if r is None else (str(r["deg_c"]), str(r["deg_cprime"]), str(r["z_count"])),
    )
    return [f"{t}: text output {got} != {want}"] if got != want else []


# ---------------------------------------------------------------------------
# lattices


def preset(name: str, triple=None) -> dict:
    """Gram matrix, H, K and chi of a preset, written out from its definition."""
    if name == "p1xp1":
        return {"gram": ((0, 1), (1, 0)), "h": (1, 1), "k": (-2, -2), "chi": 1}
    if name == "k3_024":
        gram = ((0, 2, 1, 1), (2, 0, 1, 1), (1, 1, -2, 0), (1, 1, 0, -2))
        return {"gram": gram, "h": (1, 1, 0, 0), "k": (0, 0, 0, 0), "chi": 2}
    if name == "rank1_bidouble":
        e = expected(tuple(sorted(triple)))
        return {"gram": ((4,),), "h": (1,), "k": (e["m"] - 3,), "chi": e["chi"]}
    if name.startswith("delpezzo"):
        points = 9 - int(name[len("delpezzo"):])
        rank = points + 1
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(rank))
            for i in range(rank)
        )
        h = (3,) + (-1,) * points
        return {"gram": gram, "h": h, "k": tuple(-x for x in h), "chi": 1}
    raise ValueError(f"unknown preset {name!r}")


def _pair(gram, x, y) -> int:
    return sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))


@cache
def _half_sums(k: int, bound: int) -> dict:
    # (sum a_i, sum a_i^2) over all a in [-bound, bound]^k, with multiplicity.
    table = {(0, 0): 1}
    for _ in range(k):
        nxt: dict = {}
        for (s, q), c in table.items():
            for a in range(-bound, bound + 1):
                key = (s + a, q + a * a)
                nxt[key] = nxt.get(key, 0) + c
        table = nxt
    return table


def count_hits(name: str, bound: int, degree: int, selfint: int, triple=None) -> int:
    """Number of classes in the box with D.H = degree and D^2 = selfint,
    counted without enumerating the box."""
    box = range(-bound, bound + 1)
    if name == "rank1_bidouble":
        return sum(1 for a in box if 4 * a == degree and 4 * a * a == selfint)
    if name == "p1xp1":
        # D = (a, b): D.H = a + b, D^2 = 2ab.
        return sum(
            1 for a in box if -bound <= degree - a <= bound and 2 * a * (degree - a) == selfint
        )
    if name == "k3_024":
        # D = (x, y, u, v): D.H = 2(x+y+u+v), D^2 = 4xy + 2(x+y)(u+v) - 2u^2 - 2v^2.
        if degree % 2:
            return 0
        total = 0
        for u in box:
            for v in box:
                s = degree // 2 - u - v
                four_p = selfint - 2 * s * (u + v) + 2 * u * u + 2 * v * v
                if four_p % 4:
                    continue
                disc = s * s - four_p
                if disc < 0 or isqrt(disc) ** 2 != disc or (s + isqrt(disc)) % 2:
                    continue
                r = isqrt(disc)
                for x in {(s + r) // 2, (s - r) // 2}:
                    if -bound <= x <= bound and -bound <= s - x <= bound:
                        total += 1
        return total
    if name.startswith("delpezzo"):
        # D = (a0, a1..ak): D.H = 3a0 + sum ai, D^2 = a0^2 - sum ai^2.
        k = 9 - int(name[len("delpezzo"):])
        left = _half_sums(k // 2, bound)
        right = _half_sums(k - k // 2, bound)
        total = 0
        for a0 in box:
            s, q = degree - 3 * a0, a0 * a0 - selfint
            for (s1, q1), c in left.items():
                total += c * right.get((s - s1, q - q1), 0)
        return total
    raise ValueError(f"unknown preset {name!r}")


def check_hits(query: dict, hits: list) -> list[str]:
    """Lattice search hits (the JSON ``hits`` list) against the query."""
    p = preset(query["preset"], query.get("triple"))
    gram, h, k, chi = p["gram"], p["h"], p["k"], p["chi"]
    bound, degree, selfint = query["bound"], query["degree"], query["selfint"]
    three_h_k = tuple(3 * a + b for a, b in zip(h, k))
    h_sq = _pair(gram, h, h)
    problems = []
    previous = None
    for hit in hits:
        d = tuple(hit["coords"])
        if len(d) != len(h) or any(abs(c) > bound for c in d):
            problems.append(f"hit {d} lies outside the box of bound {bound}")
            continue
        dh, dd, dk = _pair(gram, d, h), _pair(gram, d, d), _pair(gram, d, k)
        if (dh, dd) != (degree, selfint) or (hit["degree"], hit["selfint"]) != (dh, dd):
            problems.append(f"hit {d}: D.H = {dh}, D^2 = {dd}, reported "
                            f"{hit['degree']}, {hit['selfint']}; target {degree}, {selfint}")
        genus = 1 + Fraction(dd + dk, 2)
        if hit["genus"] != (int(genus) if genus.denominator == 1 else str(genus)):
            problems.append(f"hit {d}: genus {hit['genus']}, expected {genus}")
        ulrich = (
            Fraction(dh) == Fraction(_pair(gram, three_h_k, h), 2)
            and Fraction(dd - dk, 2) - (h_sq - chi) == 0
        )
        if hit.get("rank1_ulrich", ulrich) != ulrich:
            problems.append(f"hit {d}: rank1_ulrich {hit['rank1_ulrich']}, expected {ulrich}")
        if previous is not None and not previous < d:
            problems.append(f"hits {previous} then {d} are not strictly increasing")
        previous = d
    want = count_hits(query["preset"], bound, degree, selfint, query.get("triple"))
    if len(hits) != want:
        problems.append(f"{len(hits)} hits, an independent count gives {want}")
    return problems[:20]


_TEXT_HIT = re.compile(r"^  \(([-\d, ]+)\), genus (-?[\d/]+)(?:, rank-1 Ulrich equalities: (\w+))?$")


def parse_text_hits(stdout: str) -> list[dict] | None:
    """Hits of ``search lattice --format text``; None if the header is missing."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("lattice search on "):
        return None
    m = re.match(r"^(\d+) hit\(s\)$", lines[1])
    if m is None:
        return None
    hits = []
    for line in lines[2:]:
        hm = _TEXT_HIT.match(line)
        if hm is None:
            return None
        genus = hm.group(2)
        hits.append({
            "coords": [int(c) for c in hm.group(1).split(",") if c.strip()],
            "genus": int(genus) if "/" not in genus else genus,
            **({} if hm.group(3) is None else {"rank1_ulrich": hm.group(3) == "True"}),
        })
    if len(hits) != int(m.group(1)):
        return None
    return hits


def check_lattice(stdout: str, fmt: str, query: dict) -> list[str]:
    if fmt == "json":
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"json does not parse: {exc}"]
        header = (doc.get("bound"), doc.get("degree"), doc.get("selfint"))
        if header != (query["bound"], query["degree"], query["selfint"]):
            return [f"echoed query {header} differs from the request"]
        return check_hits(query, doc.get("hits", []))
    hits = parse_text_hits(stdout)
    if hits is None:
        return ["text lattice output does not parse"]
    # Text output omits degree and self-intersection; the check recomputes them.
    p = preset(query["preset"], query.get("triple"))
    for hit in hits:
        d = hit["coords"]
        hit["degree"], hit["selfint"] = _pair(p["gram"], d, p["h"]), _pair(p["gram"], d, d)
    return check_hits(query, hits)


# ---------------------------------------------------------------------------
# the remaining subcommands


def check_rho1(stdout: str, fmt: str, t) -> list[str]:
    sum_sq = sum(d * d for d in t)
    final = f"n1^2 + n2^2 + n3^2 = {sum_sq} != 0"
    if fmt == "json":
        try:
            doc = json.loads(stdout)
            ok = (
                doc["search"] == "rho1"
                and doc["triple"] == list(t)
                and doc["verdict"]["status"] == "infeasible_search"
                and doc["verdict"]["candidates"] == []
                and doc["verdict"]["trace"][-1]["step"] == final
            )
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
    else:
        ok = (
            f"triple: {list(t)}" in stdout
            and "verdict: infeasible_search" in stdout
            and final in stdout
        )
    return [] if ok else [f"search rho1 on {t}: output does not show the q = 1 elimination"]


def check_p1xp1(stdout: str, fmt: str, n: int) -> list[str]:
    bound = 10 * (n + 1)
    square = isqrt(n * n + 1) ** 2 == n * n + 1
    box = sum(
        1
        for mp in (1, 2)
        for a in range(-bound, bound + 1)
        if -bound <= (n + 1) * mp - a <= bound and 2 * a * ((n + 1) * mp - a) == n * mp * mp
    )
    status = "feasible_candidates" if square else "infeasible_search"
    crosscheck = f"brute-force cross-check over the box |a|, |b| <= {bound}: {box} solution(s)"
    if fmt == "json":
        try:
            doc = json.loads(stdout)
            steps = [step["step"] for step in doc["verdict"]["trace"]]
            ok = (
                (doc["n"], doc["bound"]) == (n, bound)
                and doc["verdict"]["status"] == status
                and crosscheck in steps
            )
        except (ValueError, KeyError, TypeError):
            ok = False
    else:
        ok = f"verdict: {status}" in stdout and crosscheck in stdout
    return [] if ok else [f"search p1xp1 --n {n}: expected {status} and {crosscheck!r}"]


PRESET_LISTING = (
    ("k3_024", preset("k3_024")),
    ("p1xp1", preset("p1xp1")),
    ("delpezzo", preset("delpezzo4")),
    ("rank1_bidouble", preset("rank1_bidouble", (2, 2, 2))),
)


def check_presets(stdout: str, fmt: str) -> list[str]:
    if fmt == "json":
        try:
            got = [
                (e["name"], tuple(map(tuple, e["gram"])), tuple(e["h"]), tuple(e["k"]), e["chi"])
                for e in json.loads(stdout)
            ]
        except (ValueError, KeyError, TypeError):
            return ["presets json does not parse"]
        want = [(name, p["gram"], p["h"], p["k"], p["chi"]) for name, p in PRESET_LISTING]
        return [] if got == want else [f"presets {got} != {want}"]
    heads = re.findall(r"^(\w+)  \(rank (\d+), chi = (-?\d+)\)$", stdout, re.M)
    want = [(name, str(len(p["h"])), str(p["chi"])) for name, p in PRESET_LISTING]
    return [] if heads == want else [f"presets text headers {heads} != {want}"]
