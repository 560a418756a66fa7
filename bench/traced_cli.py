"""Run the bidouble CLI with a span around every call of its public layers.

    python3 bench/traced_cli.py SPANS_FILE ARG...

behaves like ``python -m bidouble.cli ARG...`` (same stdout, stderr and exit
code) and, on the way out, writes the spans it recorded to SPANS_FILE: a
JSON header line, then one array per span field (name index, start and end
in ns, parent span index or -1, row index or -1, two result counts).

The modules import each other's functions by name, so a wrapper is
installed on every binding of each traced function in every ``bidouble.*``
namespace, not only on the defining module.  Spans stay in memory until the
process ends.  A row is one ``query_payload`` call: spans under it carry its
index.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

TRACED = {
    "geometry": ("validate_triple", "invariants", "picard_classification", "intermediate_picard"),
    "classify": ("line_bundle_status", "ulrich_complexity"),
    "numerics": (
        "rank1_rho1_search",
        "special_ulrich_targets",
        "odd_rank_obstruction",
        "p1xp1_line_search",
    ),
    "construction": ("special_rank2_recipe", "verify_recipe"),
    "lattice": ("brute_force_search",),
    "cli": ("enumerate_triples", "parse_triples_file", "query_payload", "cmd_batch"),
}
ROW_SPAN = "cli.query_payload"


def _enumerate_counts(args, kwargs, result):
    max_degree = args[0] if args else kwargs["max_degree"]
    return len(result), (max_degree + 1) * (max_degree + 2) * (max_degree + 3) // 6


def _parse_counts(args, kwargs, result):
    triples, diagnostics = result
    return len(triples), len(diagnostics)


def _search_counts(args, kwargs, result):
    lat = args[0] if args else kwargs["lat"]
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    return len(result), (2 * bound + 1) ** lat.rank


# Two counts per span, read off the arguments and the result.
COUNTS = {
    "cli.enumerate_triples": _enumerate_counts,  # rows, candidate triples
    "cli.parse_triples_file": _parse_counts,  # unique valid rows, rejected lines
    "lattice.brute_force_search": _search_counts,  # hits, box cells
}
FIELDS = (("name", "H"), ("start", "q"), ("end", "q"), ("parent", "q"), ("row", "q"),
          ("count1", "q"), ("count2", "q"))


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {name: array(code) for name, code in FIELDS}
        self.stack = [-1]
        self.row = -1
        self.rows = 0

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counts = COUNTS.get(qualname)
        starts_row = qualname == ROW_SPAN
        c = self.cols
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(c["start"])
            outer_row = self.row
            if starts_row:
                self.row = self.rows
                self.rows += 1
            c["name"].append(name_id)
            c["parent"].append(stack[-1])
            c["row"].append(self.row)
            c["start"].append(0)
            c["end"].append(0)
            c["count1"].append(0)
            c["count2"].append(0)
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                c["end"][span] = perf_counter_ns()
                c["start"][span] = start
                stack.pop()
                self.row = outer_row
            if counts is not None:
                c["count1"][span], c["count2"][span] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap every binding of the traced functions; returns the number of
        bindings replaced per function."""
        wrappers = {}
        for module, functions in TRACED.items():
            namespace = sys.modules[f"bidouble.{module}"]
            for fn_name in functions:
                original = getattr(namespace, fn_name)
                wrappers[id(original)] = (f"{module}.{fn_name}", original,
                                          self.wrap(f"{module}.{fn_name}", original))
        bindings = {qualname: 0 for qualname, _, _ in wrappers.values()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bidouble" and not mod_name.startswith("bidouble."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and value is entry[1]:
                    setattr(mod, attr, entry[2])
                    bindings[entry[0]] += 1
        return bindings

    def write(self, path: str, bindings: dict) -> None:
        header = {"names": self.names, "spans": len(self.cols["start"]),
                  "fields": FIELDS, "bindings": bindings}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for name, _ in FIELDS:
                self.cols[name].tofile(out)


def read_spans(path: str) -> tuple[dict, dict]:
    """The header and the span columns written by ``Recorder.write``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for name, code in header["fields"]:
            cols[name] = array(code)
            cols[name].fromfile(f, header["spans"])
    return header, cols


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import bidouble.cli

    recorder = Recorder()
    bindings = recorder.install()
    try:
        return bidouble.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path, bindings)


if __name__ == "__main__":
    sys.exit(main())
