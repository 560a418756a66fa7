"""Self-test of the benchmark's oracle: it accepts the CLI's real output and
counts a corrupted row or lattice hit as a failed operation.

    python3 -m pytest -q bench/test_oracle.py
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import oracle
import run
import workloads


@pytest.fixture(scope="module", autouse=True)
def workdir():
    run.WORK.mkdir(exist_ok=True)


def cli(*argv) -> run.Result:
    return run.spawn(run.cli_cmd(argv), "selftest")


def outcome(op: workloads.Op, stdout: str, code: int = 0, stderr: str = "") -> tuple[int, int]:
    checker = run.Checker()
    checker(0, op, run.Result(0.1, code, 1000, stdout.encode(), stderr.encode()))
    return checker.attempted, checker.failed


def brute_force_count(name, bound, degree, selfint, triple=None) -> int:
    p = oracle.preset(name, triple)
    return sum(
        1
        for d in itertools.product(range(-bound, bound + 1), repeat=len(p["h"]))
        if oracle._pair(p["gram"], d, p["h"]) == degree and oracle._pair(p["gram"], d, d) == selfint
    )


@pytest.mark.parametrize(
    "name,bound,triple",
    [("delpezzo5", 2, None), ("delpezzo7", 3, None), ("delpezzo9", 6, None), ("k3_024", 3, None),
     ("p1xp1", 9, None), ("rank1_bidouble", 9, (2, 4, 6))],
)
def test_independent_count_matches_brute_force(name, bound, triple):
    p = oracle.preset(name, triple)
    rng = random.Random(name)
    for _ in range(25):
        d = [rng.randint(-bound, bound) for _ in p["h"]]
        degree, selfint = oracle._pair(p["gram"], d, p["h"]), oracle._pair(p["gram"], d, d)
        assert oracle.count_hits(name, bound, degree, selfint, triple) == brute_force_count(
            name, bound, degree, selfint, triple)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_real_batch_output_passes(fmt):
    res = cli("batch", "--max-degree", "24", "--format", fmt)
    op = workloads._table_op((), fmt, oracle.admissible_triples(24))
    assert res.code == 0
    assert run.check(op, res) == []


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("triple", [(0, 2, 2), (0, 2, 4), (0, 2, 12), (0, 4, 8), (2, 2, 6),
                                    (1, 3, 5), (3, 5, 7), (4, 6, 10), (6, 8, 12)])
def test_real_classify_output_passes(triple, fmt):
    res = cli("classify", *map(str, triple), "--format", fmt)
    assert run.check(workloads._classify(triple, fmt), res) == []


def test_corrupted_csv_row_counts_as_failed():
    res = cli("batch", "--max-degree", "12", "--format", "csv")
    op = workloads._table_op((), "csv", oracle.admissible_triples(12))
    text = res.stdout.decode()
    assert outcome(op, text) == (1, 0)
    lines = text.splitlines()
    fields = lines[7].split(",")
    fields[5] = str(int(fields[5]) + 1)  # chi off by one
    corrupted = "\n".join(lines[:7] + [",".join(fields)] + lines[8:]) + "\n"
    assert outcome(op, corrupted) == (1, 1)
    dropped = "\n".join(lines[:7] + lines[8:]) + "\n"
    assert outcome(op, dropped) == (1, 1)


@pytest.mark.parametrize(
    "path,value",
    [(("line_bundle", "status"), "exists"), (("complexity", "value"), 1),
     (("recipe", "z_count"), 0), (("picard", "rho_is_one"), False), (("invariants", "chi"), 0)],
)
def test_corrupted_json_row_counts_as_failed(path, value):
    res = cli("batch", "--max-degree", "10", "--format", "json")
    triples = oracle.admissible_triples(10)
    op = workloads._table_op((), "json", triples)
    payloads = json.loads(res.stdout)
    row = triples.index((2, 4, 6))
    payloads[row][path[0]][path[1]] = value
    assert outcome(op, json.dumps(payloads)) == (1, 1)


def test_wrong_exit_code_or_traceback_counts_as_failed():
    op = workloads._classify((2, 4, 6), "csv")
    good = cli("classify", "2", "4", "6", "--format", "csv").stdout.decode()
    assert outcome(op, good) == (1, 0)
    assert outcome(op, good, code=3) == (1, 1)
    assert outcome(op, good, stderr="Traceback (most recent call last):\n") == (1, 1)


def test_skipped_line_count_must_match_planted():
    triples = [(2, 4, 6)]
    op = workloads._table_op((), "csv", triples, code=2, skipped=(2,))
    stdout = ",".join(oracle.CSV_COLUMNS) + "\n" + ",".join(oracle.expected_csv_row((2, 4, 6))) + "\n"
    assert outcome(op, stdout, code=2, stderr="skipped line 2: bad\n") == (1, 0)
    assert outcome(op, stdout, code=2, stderr="") == (1, 1)
    assert outcome(op, stdout, code=2, stderr="skipped line 3: bad\n") == (1, 1)


def lattice_case():
    query = {"preset": "delpezzo6", "triple": None, "bound": 3, "degree": 3, "selfint": -1}
    op = workloads.Op(("search", "lattice"), "lattice", "json", query)
    res = cli("search", "lattice", "--preset", "delpezzo6", "--degree", "3", "--selfint", "-1",
              "--bound", "3", "--format", "json")
    return op, json.loads(res.stdout)


def test_real_lattice_output_passes():
    op, doc = lattice_case()
    assert len(doc["hits"]) > 2
    assert outcome(op, json.dumps(doc)) == (1, 0)
    text = cli("search", "lattice", "--preset", "delpezzo6", "--degree", "3", "--selfint", "-1",
               "--bound", "3").stdout.decode()
    assert outcome(workloads.Op((), "lattice", "text", op.expect), text) == (1, 0)


@pytest.mark.parametrize("corruption", ["coordinate", "outside", "drop", "duplicate", "swap",
                                        "genus", "ulrich"])
def test_corrupted_lattice_hit_counts_as_failed(corruption):
    op, doc = lattice_case()
    hits = doc["hits"]
    if corruption == "coordinate":
        hits[1]["coords"][0] += 1
    elif corruption == "outside":
        hits[1]["coords"][0] = 4
    elif corruption == "drop":
        del hits[1]
    elif corruption == "duplicate":
        hits.insert(1, dict(hits[1]))
    elif corruption == "swap":
        hits[0], hits[1] = hits[1], hits[0]
    elif corruption == "genus":
        hits[1]["genus"] = 7
    else:
        hits[1]["rank1_ulrich"] = not hits[1]["rank1_ulrich"]
    assert outcome(op, json.dumps(doc)) == (1, 1)


def test_every_workload_builds_the_same_ops_from_the_same_seed():
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 3, run.WORK)
        assert wl.ops and all(op.argv for op in wl.ops)
        assert workloads.build(name, 3, run.WORK).ops == wl.ops  # same seed, same inputs
