"""Benchmark of the bidouble CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation is a fresh
``python -m bidouble.cli`` process with ``src`` on PYTHONPATH, one at a
time (a closed loop with a single client).  The workload's seeded pass of
invocations repeats until S seconds of invocation wall time have been
measured; every output is checked by the closed-form oracle outside the
timed region.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
latency_ms_p50, rows_per_s, cells_per_s, peak_rss_mb).  With --trace 1,
passes alternate between plain invocations and invocations under
``traced_cli.py``, and the metrics are the per-layer ones, including the
tracing overhead.  Lines before the last describe the run: seed, input
properties, sample counts, the tail latency and known-defect probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import traced_cli
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 9
IMPORT_RUNS = 5
INVOCATION_TIMEOUT_S = 120
# Time of calibration_loop() on an uncontended core of the reference host
# (2-CPU Firecracker VM, Python 3.11.7), and the share of the previous
# invocation's wall time spent calibrating before the next one.
CALIBRATION_REFERENCE_S = 0.0125
CALIBRATION_SHARE = 0.05
# Lines the CLI writes to stderr for each rejected batch-file line.
SKIPPED_PREFIX = "skipped line "

sys.set_int_max_str_digits(0)  # the oracle formats invariants of huge degrees


@dataclass
class Result:
    """One finished invocation."""

    wall: float
    code: int
    rss_kb: int
    stdout: bytes
    stderr: bytes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Starts load cached bytecode, as an installed package's would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


ENV = _env()


def spawn(cmd: list[str], tag: str) -> Result:
    """Run cmd to completion; wall time is spawn to reap, peak RSS and exit
    status come from os.wait4.  Output goes to files, read after timing."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=ENV, cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Result(wall, code, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "bidouble.cli", *argv]


def traced_cmd(argv, spans_path: Path) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_path),
            *argv]


# ---------------------------------------------------------------------------
# checking


def check(op: workloads.Op, res: Result) -> list[str]:
    """Everything wrong with one invocation's outcome."""
    stderr = res.stderr.decode("utf-8", "replace")
    if "Traceback" in stderr:
        return [f"exit {res.code} with a traceback: {stderr.strip().splitlines()[-1]}"]
    if res.code != op.code:
        return [f"exit {res.code}, expected {op.code}: {stderr.strip()[:200]}"]
    stdout = res.stdout.decode("utf-8", "replace")
    if op.kind == "invalid":
        problems = [] if op.expect["needle"] in stderr else [
            f"stderr lacks {op.expect['needle']!r}: {stderr.strip()[:200]}"]
        return problems + (["stdout not empty on invalid input"] if stdout else [])
    if op.kind == "table":
        skipped = sorted(
            int(line[len(SKIPPED_PREFIX):].split(":", 1)[0])
            for line in stderr.splitlines() if line.startswith(SKIPPED_PREFIX)
        )
        if skipped != list(op.expect["skipped"]):
            return [f"{len(skipped)} skipped-line diagnostics, "
                    f"{len(op.expect['skipped'])} invalid lines planted"]
        return oracle.check_table(stdout, op.fmt, op.expect["triples"])
    if op.kind == "lattice":
        return oracle.check_lattice(stdout, op.fmt, op.expect)
    if op.kind == "rho1":
        return oracle.check_rho1(stdout, op.fmt, tuple(op.expect["triple"]))
    if op.kind == "p1xp1":
        return oracle.check_p1xp1(stdout, op.fmt, op.expect["n"])
    if op.kind == "presets":
        return oracle.check_presets(stdout, op.fmt)
    raise ValueError(f"unknown op kind {op.kind!r}")


class Checker:
    """Checks each invocation; identical output of the same op is checked
    once, since the verdict is a function of the bytes."""

    def __init__(self):
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.first_problems: list[str] = []

    def __call__(self, index: int, op: workloads.Op, res: Result) -> None:
        key = (index, res.code, hashlib.blake2b(res.stdout).digest(),
               hashlib.blake2b(res.stderr).digest())
        if key not in self.verdicts:
            self.verdicts[key] = check(op, res)
        problems = self.verdicts[key]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.first_problems) < 5:
                self.first_problems.append(f"{' '.join(op.argv)[:120]}: {problems[0]}")


# ---------------------------------------------------------------------------
# measuring
#
# The host's speed is not steady: a fixed loop takes up to twice as long from
# one moment to the next, on either CPU, and slow periods last from a tenth
# of a second to minutes, so a whole run can fall in one.  The benchmark
# therefore pins itself and every child to one CPU and times a fixed
# pure-Python loop there between invocations.  Every reported time is scaled
# by CALIBRATION_REFERENCE_S over the loop's mean time in the run: it is the
# time the run would have taken at the reference host's uncontended speed.


def calibration_loop() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[i % 1000] = (i * i) % 7 + len(str(i))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last_wall = 0.0  # of the last timed invocation

    def calibrate(self) -> None:
        """Run the loop for CALIBRATION_SHARE of the last invocation's wall
        time, at least once."""
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * self.last_wall:
            self.samples.append(calibration_loop())
            spent += self.samples[-1]

    @property
    def scale(self) -> float:
        return CALIBRATION_REFERENCE_S / statistics.mean(self.samples)


def cold_start(speed: HostSpeed) -> float:
    """Wall time of ``bidouble --help``: spawn, import, build the parser."""
    speed.calibrate()
    res = spawn(cli_cmd(["--help"]), "setup")
    if res.code != 0:
        raise SystemExit(f"bench: the CLI does not start (exit {res.code}): "
                         f"{res.stderr.decode(errors='replace').strip()[-300:]}")
    return res.wall


def run_pass(wl, checker: Checker, speed: HostSpeed, traced: bool = False) -> list[Result]:
    results = []
    for i, op in enumerate(wl.ops):
        speed.calibrate()
        if traced:
            res = spawn(traced_cmd(op.argv, WORK / f"spans-{i}.bin"), "traced")
        else:
            res = spawn(cli_cmd(op.argv), "run")
        speed.last_wall = res.wall
        checker(i, op, res)
        results.append(res)
    return results


def tail_latency(values: list[float]) -> tuple[int, float, int] | None:
    """The highest whole percentile (nearest rank) with at least ten samples
    above it: (percentile, value, samples above)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1], n - rank


def mean_pass(samples: list[list[float]]) -> float:
    """Pass wall time with each invocation at its mean over the run."""
    return sum(map(statistics.mean, samples))


def end_to_end(wl, seconds: float, checker: Checker, speed: HostSpeed) -> dict:
    # Cold starts are sampled between passes, spread evenly over the run.
    setup, rss, samples = [], [], [[] for _ in wl.ops]
    while (measured := sum(map(sum, samples))) < seconds:
        if len(setup) <= SETUP_RUNS * measured / seconds:
            setup.append(cold_start(speed))
        for walls, res in zip(samples, run_pass(wl, checker, speed)):
            walls.append(res.wall)
            rss.append(res.rss_kb)
    while len(setup) < SETUP_RUNS:
        setup.append(cold_start(speed))
    scale = speed.scale
    wall_s = mean_pass(samples) * scale
    raw = [w for walls in samples for w in walls]
    tail = tail_latency(raw)
    print(f"bench: {len(samples[0])} passes, {len(raw)} invocations; host speed scale "
          f"{scale:.3f} from {len(speed.samples)} calibrations; as measured: median pass "
          f"{statistics.median(map(sum, zip(*samples))):.3f} s, median invocation "
          f"{statistics.median(raw) * 1000:.1f} ms, tail latency "
          + ("n/a (fewer than 11 samples)" if tail is None
             else f"p{tail[0]} = {tail[1] * 1000:.1f} ms ({tail[2]} samples above)"))
    return {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "wall_s": (wall_s, "s"),
        "latency_ms_p50": (statistics.median(map(statistics.mean, samples)) * scale * 1000,
                           "ms"),
        "rows_per_s": (sum(op.rows for op in wl.ops) / wall_s, "rows/s"),
        "cells_per_s": (sum(op.cells for op in wl.ops) / wall_s, "cells/s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# the traced run


LAYER_FUNCTIONS = (
    "geometry.validate_triple", "geometry.invariants", "geometry.picard_classification",
    "geometry.intermediate_picard", "classify.line_bundle_status", "classify.ulrich_complexity",
    "numerics.rank1_rho1_search", "numerics.special_ulrich_targets",
    "numerics.odd_rank_obstruction", "numerics.p1xp1_line_search",
    "construction.special_rank2_recipe", "construction.verify_recipe",
)


def aggregate_spans(paths) -> dict:
    """Per function: calls, self time (ns) and summed counts."""
    stats: dict = {}
    for path in paths:
        header, cols = traced_cli.read_spans(path)
        names, parent = header["names"], cols["parent"]
        start, end = cols["start"], cols["end"]
        children = [0] * header["spans"]
        for i, p in enumerate(parent):
            if p >= 0:
                children[p] += end[i] - start[i]
        for i, name_id in enumerate(cols["name"]):
            s = stats.setdefault(names[name_id], [0, 0, 0, 0])
            s[0] += 1
            s[1] += end[i] - start[i] - children[i]
            s[2] += cols["count1"][i]
            s[3] += cols["count2"][i]
    return {name: dict(zip(("calls", "self_ns", "count1", "count2"), s))
            for name, s in stats.items()}


def layer_metrics(stats: dict) -> dict:
    zero = {"calls": 0, "self_ns": 0, "count1": 0, "count2": 0}
    get = lambda name: stats.get(name, zero)  # noqa: E731
    rows = get("cli.query_payload")["calls"]
    per_row = lambda v: v / rows if rows else 0.0  # noqa: E731
    m = {}
    enum, parse = get("cli.enumerate_triples"), get("cli.parse_triples_file")
    m["cli.enumerate_triples.self_ms"] = (enum["self_ns"] / 1e6, "ms")
    m["cli.enumerate_triples.yield"] = (
        enum["count1"] / enum["count2"] if enum["count2"] else 0.0, "ratio")
    m["cli.parse_triples_file.self_ms"] = (parse["self_ns"] / 1e6, "ms")
    m["cli.parse_triples_file.rejected"] = (parse["count2"], "count")
    for name in ("cli.query_payload", "cli.cmd_batch"):
        m[f"{name}.self_us_per_row"] = (per_row(get(name)["self_ns"] / 1e3), "us/row")
    for name in LAYER_FUNCTIONS:
        m[f"{name}.calls_per_row"] = (per_row(get(name)["calls"]), "calls/row")
        m[f"{name}.self_us_per_row"] = (per_row(get(name)["self_ns"] / 1e3), "us/row")
    search = get("lattice.brute_force_search")
    hits, cells, self_s = search["count1"], search["count2"], search["self_ns"] / 1e9
    m["lattice.brute_force_search.calls"] = (search["calls"], "count")
    m["lattice.brute_force_search.box_cells"] = (cells, "cells")
    m["lattice.brute_force_search.hits"] = (hits, "count")
    m["lattice.brute_force_search.hit_ratio"] = (hits / cells if cells else 0.0, "ratio")
    m["lattice.brute_force_search.self_ms"] = (self_s * 1e3, "ms")
    m["lattice.brute_force_search.cells_per_s"] = (cells / self_s if self_s else 0.0, "cells/s")
    return m


COUNT_METRICS = ("calls_per_row", ".yield", ".rejected", ".calls", ".box_cells", ".hits",
                 ".hit_ratio")


def import_metrics(speed: HostSpeed) -> dict:
    """Import cost of the CLI module and numpy's share of it, each the median
    over fresh interpreters."""
    timer = ("import time; t = time.perf_counter(); import bidouble.cli; "
             "print(time.perf_counter() - t)")
    cli_s, numpy_us = [], []
    for _ in range(IMPORT_RUNS):
        speed.calibrate()
        res = spawn([sys.executable, "-c", timer], "import")
        cli_s.append(float(res.stdout))
        speed.calibrate()
        res = spawn([sys.executable, "-X", "importtime", "-c", "import bidouble.cli"], "import")
        numpy_us.append(sum(
            int(line.split("|")[1])
            for line in res.stderr.decode().splitlines()
            if line.startswith("import time:") and line.split("|")[2].strip() == "numpy"
        ))
    return {
        "import.bidouble_cli_ms": (statistics.median(cli_s) * 1e3, "ms"),
        "import.numpy_ms": (statistics.median(numpy_us) / 1e3, "ms"),
    }


def per_layer(wl, seconds: float, checker: Checker, speed: HostSpeed) -> dict:
    metrics = import_metrics(speed)
    plain, traced, layers = [[] for _ in wl.ops], [[] for _ in wl.ops], []
    while sum(map(sum, plain)) + sum(map(sum, traced)) < seconds or not layers:
        for walls, res in zip(plain, run_pass(wl, checker, speed)):
            walls.append(res.wall)
        for walls, res in zip(traced, run_pass(wl, checker, speed, traced=True)):
            walls.append(res.wall)
        spans = [WORK / f"spans-{i}.bin" for i in range(len(wl.ops))]
        layers.append(layer_metrics(aggregate_spans(spans)))
    # Counts must repeat exactly; times are means over traced passes.
    for name, (value, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if name.endswith(COUNT_METRICS):
            if len(set(values)) != 1:
                print(f"bench: count {name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.mean(values), unit)
    # Times scale to the reference host speed like the end-to-end ones.
    scale = speed.scale
    for name, (value, unit) in metrics.items():
        if unit in ("ms", "us/row"):
            metrics[name] = (value * scale, unit)
        elif unit == "cells/s":
            metrics[name] = (value / scale, unit)
    metrics["trace.overhead_pct"] = ((mean_pass(traced) / mean_pass(plain) - 1) * 100, "%")
    print(f"bench: {len(layers)} traced and {len(layers)} plain passes; host speed scale "
          f"{scale:.3f} from {len(speed.samples)} calibrations")
    return metrics


# ---------------------------------------------------------------------------


def run_probes(wl, checker: Checker) -> None:
    """Known-defect probes run once, outside the timed loop and the failure
    count.  A probe that reproduces its defect is reported here; any other
    wrong outcome counts as a failed operation."""
    for op in wl.probes:
        res = spawn(cli_cmd(op.argv), "probe")
        stderr = res.stderr.decode("utf-8", "replace")
        shown = " ".join(a if len(a) < 40 else f"<{len(a)}-digit n>" for a in op.argv)
        if res.code == 1 and "Traceback" in stderr:
            print(f"bench: known defect (ROADMAP item 4) reproduced: `{shown}` exits 1 with "
                  f"a traceback ({stderr.strip().splitlines()[-1][:100]}); expected exit 2")
        elif res.code == 2 and "Traceback" not in stderr and stderr.strip():
            print(f"bench: probe `{shown}` exits 2 cleanly: the known defect is fixed")
        else:
            checker.attempted += 1
            checker.failed += 1
            checker.first_problems.append(f"{shown}: probe exit {res.code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bidouble" / "cli.py").is_file():
        print(f"bench: no bidouble sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # One CPU for the benchmark and its children, so that the calibration
    # loop measures the core the invocations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cold_start(HostSpeed())  # compiles the bytecode; not a sample

    wl = workloads.build(args.workload, args.seed, WORK)
    print(f"bench: workload {wl.name}, seed {wl.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"bench: input properties {json.dumps(wl.properties)}")
    checker = Checker()
    run_probes(wl, checker)
    if args.trace:
        metrics = per_layer(wl, args.seconds, checker, HostSpeed())
    else:
        metrics = end_to_end(wl, args.seconds, checker, HostSpeed())
    for problem in checker.first_problems:
        print(f"bench: FAILED {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
