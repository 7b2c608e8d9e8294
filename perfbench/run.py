"""renyi-vi benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload consistency-renyi-laplace \\
        --seed 1 --seconds 20 --trace 0

The load generator is a closed loop in this one process: it calls
``renyi_vi.cli.main(["experiment", cfg, "--seed", s, "--outdir", d])`` with
``jobs=1``, one cell at a time, round after round until ``--seconds`` have
passed, with at least MIN_ROUNDS rounds and, at full size and with tracing
off, MIN_CELLS timed cells. BLAS/OpenMP pools are pinned to one thread
before numpy loads.

``--trace 0`` prints the end-to-end metrics. Its only hooks are a timer on
the cell function (consistency_cell, or fit for figure1), one span per cell,
and ``tracing.host_probe``, run before each cell and each cli.main call and,
on figure1, before each certificate quadrature. Times are reported in probe
units: the program's seconds over the probe's seconds around them (see
``in_probes``).
``--trace 1`` alternates untraced rounds with rounds traced by
``tracing.Tracer`` and prints the per-layer metrics, including the tracing
overhead; the spans go to ``perfbench/out/<run>/spans.csv``.

After the timed loop every report.csv is checked by ``oracle`` (an
independent recomputation) and compared byte for byte across its repeats,
traced and untraced. The last stdout line is the JSON result; the line
before it is the run's stamp (machine, versions, thread pins, commit, seed)
and its times in plain seconds (``in_seconds``), also kept with the result in
``perfbench/out/<run>/result.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# ruff: noqa: E402  (the pins above must precede the numpy import)
import argparse
import bisect
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
from tracing import Tracer, cell_times, layer_metrics
from workloads import WORKLOADS, planned_cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 2  # the byte-identity check needs a repeat
MIN_CELLS = 100  # cell_p90_probes needs at least 10 cells beyond it
SETUP_REPEATS = 7
RENYI_FIT_WORKLOADS = ("consistency-renyi-laplace", "exponential-gamma")

# Runs in a fresh interpreter: import, argument parsing, config load and the
# first model/family build.
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import renyi_vi.cli
from renyi_vi.config import build_family, build_model
args = renyi_vi.cli.build_parser().parse_args(
    ["experiment", sys.argv[2], "--seed", sys.argv[3]])
with open(args.config) as fh:
    cfg = json.load(fh)
if "model" in cfg:
    build_model(cfg["model"]).simulate(cfg["theta0"], 1, args.seed)
build_family(cfg.get("family", "isotropic-gaussian-2d"))
"""


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_cli():
    init = SRC / "renyi_vi" / "__init__.py"
    if not init.is_file():
        _fail(f"program source not found at {init}")
    sys.path.insert(0, str(SRC))
    import renyi_vi
    import renyi_vi.cli

    if Path(renyi_vi.__file__).resolve() != init.resolve():
        _fail(f"imported renyi_vi from {renyi_vi.__file__}, expected {init}")
    return renyi_vi.cli


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _stamp(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for p in sorted((SRC / "renyi_vi").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
    }


def _measure_setup(cfg_path: Path, seed: int, repeats: int) -> float:
    """Median seconds from spawning a fresh interpreter until it is ready."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path), str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"setup probe failed:\n{proc.stderr}")
    return statistics.median(times)


@dataclasses.dataclass
class Run:
    """One cli.main call: config index, round number, whether it was traced,
    its wall seconds and exit code, and (start, seconds) of each of its cells
    and of each host probe, starts counted from the start of the call. The
    first probe runs just before the call."""

    job: int
    round: int
    traced: bool
    wall: float
    exit: object
    cells: list[tuple[float, float]]
    probes: list[tuple[float, float]]

    def _probe_s(self, start: float, end: float) -> float:
        """Mean seconds of the probes just before start and just after end;
        the one before alone when no probe follows within the call."""
        starts = [s for s, _dt in self.probes]
        before = self.probes[bisect.bisect_right(starts, start) - 1][1]
        j = bisect.bisect_left(starts, end)
        return (before + self.probes[j][1]) / 2 if j < len(starts) else before

    def in_probes(self) -> float:
        """The call's time in probe units: each stretch between two probes
        over the seconds of the probes around it. Probe time is left out."""
        ends = [s for s, _dt in self.probes[1:]] + [self.wall]
        return sum((end - max(s + dt, 0.0)) / self._probe_s(s, end)
                   for (s, dt), end in zip(self.probes, ends))

    def cells_in_probes(self) -> list[float]:
        return [dur / self._probe_s(s, s + dur) for s, dur in self.cells]


class Runner:
    """Runs rounds of a workload's configs and keeps what the checks need."""

    def __init__(self, cli, configs, outdir: Path):
        self.cli = cli
        self.jobs = []  # (cfg, --seed, config path, report dir)
        for i, (cfg, seed) in enumerate(configs):
            path = outdir / f"config-{i}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.jobs.append((cfg, seed, path, outdir / f"report-{i}"))
        self.digests = [set() for _ in self.jobs]
        self.runs: list[Run] = []
        self.problems = []

    def round(self, tracer: Tracer, traced: bool, number: int) -> None:
        """One pass over the configs, each through one cli.main call."""
        for i, (_cfg, seed, path, report) in enumerate(self.jobs):
            first_span = len(tracer.spans)
            argv = ["experiment", str(path), "--seed", str(seed), "--outdir", str(report)]
            gc.collect()
            sink = io.StringIO()
            first_probe = len(tracer.probes)
            tracer.probe()
            tracer.install()
            try:
                with contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    try:
                        rc = self.cli.main(argv)
                    except Exception:  # a crash fails this run, not the benchmark
                        rc = traceback.format_exc()
                    wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if rc != 0:
                self.problems.append(f"config {i}: exit {rc}: {sink.getvalue()[-500:]}")
            csv_path = report / "report.csv"
            self.digests[i].add(hashlib.sha256(csv_path.read_bytes()).hexdigest()
                                if csv_path.is_file() else None)
            self.runs.append(Run(
                i, number, traced, wall, rc,
                [(start - t0, dur) for start, dur
                 in cell_times(tracer.spans[first_span:], tracer.cell_name)],
                [(start - t0, dt) for start, dt in tracer.probes[first_probe:]]))

    def check(self) -> tuple[int, int]:
        """Run the output checks; returns (cells attempted, cells failed).

        A failed verdict, a missing report or one that differs across
        repeats fails every cell of that config in every run; a wrong record
        fails its cell in every run.
        """
        bad = []
        for i, (cfg, seed, _path, report) in enumerate(self.jobs):
            if len(self.digests[i]) != 1 or None in self.digests[i]:
                self.problems.append(f"config {i}: report.csv missing or not "
                                     f"byte-identical across repeats: {self.digests[i]}")
                bad.append(planned_cells(cfg))
                continue
            rows = oracle.read_csv(report / "report.csv")
            if cfg["experiment"] == "figure1":
                found = oracle.check_figure1(cfg, rows)
            else:
                found = oracle.check_consistency(cfg, seed, rows)
            verdicts = json.loads((report / "report.json").read_text())["verdicts"]
            found += [(None, f"verdict {v['criterion']} failed: measured {v['measured']}")
                      for v in verdicts if not v["passed"]]
            self.problems += [f"config {i}: {cell or 'report'}: {p}" for cell, p in found]
            cells = {cell for cell, _p in found}
            bad.append(planned_cells(cfg) if None in cells else len(cells))
        attempted = failed = 0
        for run in self.runs:
            n = planned_cells(self.jobs[run.job][0])
            attempted += n
            failed += n if run.exit != 0 else bad[run.job]
        return attempted, failed


def in_probes(runs: list[Run]) -> tuple[list[float], list[float]]:
    """Time of each round and of each cell in probe units.

    On a shared host, other load slows this process by up to 2x, switching
    within milliseconds and lasting up to minutes, so seconds measure the
    host as much as the program. The fixed host probes run just before and
    just after a cell, or a stretch of a cli.main call, slow alike; the ratio
    of the two does not.
    """
    rounds = {}
    for r in runs:
        rounds[r.round] = rounds.get(r.round, 0.0) + r.in_probes()
    cells = [c for r in runs for c in r.cells_in_probes()]
    return list(rounds.values()), cells


def in_seconds(runs: list[Run]) -> dict:
    """The issue's end-to-end times in plain seconds, as this host gave them.
    They move with host load, so they are printed and kept, not gated."""
    rounds = {}
    for r in runs:
        rounds[r.round] = rounds.get(r.round, 0.0) + r.wall
    cells = [dur for r in runs for _start, dur in r.cells]
    return {
        "wall_s": statistics.median(rounds.values()),
        "cells_per_s": len(cells) / sum(rounds.values()),
        "cell_p50_ms": statistics.median(cells) * 1e3,
        "cell_p90_ms": statistics.quantiles(cells, n=10, method="inclusive")[-1] * 1e3,
        "probe_ms": statistics.median(dt for r in runs for _start, dt in r.probes) * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="renyi-vi benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: two seeds or one rho, one setup run (smoke test)")
    args = ap.parse_args(argv)

    cli = _import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(cli, workload.configs(args.seed, tiny), outdir)

    setup_s = _measure_setup(runner.jobs[0][2], runner.jobs[0][1],
                             1 if tiny else SETUP_REPEATS)

    cell_clock = Tracer(workload.cell_span, workload.probed, workload.probed)
    full = Tracer(workload.cell_span, workload.probed)
    min_cells = 0 if tiny or args.trace else MIN_CELLS
    rounds = traced_rounds = 0
    start = time.perf_counter()
    while (rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds
           or sum(len(r.cells) for r in runner.runs) < min_cells):
        traced = args.trace == 1 and rounds % 2 == 1
        runner.round(full if traced else cell_clock, traced, rounds)
        rounds += 1
        traced_rounds += traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = runner.check()
    round_p, cell_p = in_probes([r for r in runner.runs if not r.traced])
    wall_probes = statistics.median(round_p)
    seconds = in_seconds([r for r in runner.runs if not r.traced])
    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "wall_probes": wall_probes,
            "cells_per_kprobe": len(cell_p) / sum(round_p) * 1e3,
            "cell_p50_probes": statistics.median(cell_p),
            "cell_p90_probes": statistics.quantiles(cell_p, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    else:
        values = layer_metrics(full.spans, traced_rounds, workload.cell_span)
        traced_round_p, _cells = in_probes([r for r in runner.runs if r.traced])
        values["bench.trace_overhead_share"] = (
            statistics.median(traced_round_p) / wall_probes - 1.0)
        values["bench.failed_frac"] = failed / attempted
        evals = values["varfit.fit.evals_per_fit"] * values["varfit.fit.calls"]
        if (workload.name in RENYI_FIT_WORKLOADS
                and values["divergence.renyi_quadrature.calls"] < evals):
            runner.problems.append(
                "tracing missed call sites: renyi_quadrature calls "
                f"{values['divergence.renyi_quadrature.calls']} < fit evaluations {evals}")
        full.write_csv(outdir / "spans.csv")
        declared = spec["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        _fail(f"emitted metrics {sorted(values)} differ from BENCHMARK.json")

    stamp = _stamp(args)
    result = {
        "correct": not runner.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    with open(outdir / "result.json", "w") as fh:
        json.dump({"stamp": stamp, "result": result, "problems": runner.problems,
                   "seconds": seconds,
                   "configs": [job[0] for job in runner.jobs],
                   "runs": [dataclasses.asdict(r) for r in runner.runs]}, fh, indent=1)
    for p in runner.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"stamp": stamp, "seconds": seconds}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
