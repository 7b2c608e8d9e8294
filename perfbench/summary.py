"""Run every workload once, each in a fresh process, and print a table.

    python3 perfbench/summary.py [--seed 0]

Each workload runs for BENCHMARK.json's run_seconds with tracing off.
Prints each end-to-end metric of every workload by name with its unit,
the same times in plain seconds, whether the output check passed, and
failed_frac = failed / attempted cells as measured. Exits 1 if any run fails or its output check does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ok = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{w['name']}: run failed (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        *_, stamp_line, res_line = proc.stdout.strip().splitlines()
        res = json.loads(res_line)
        ok = ok and res["correct"]
        print(f"{w['name']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:.4g}")
        for name, m in res["metrics"].items():
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
        seconds = json.loads(stamp_line)["seconds"]
        print("  in seconds on this host (not gated): " + ", ".join(
            f"{name} {value:.4g}" for name, value in seconds.items()))
        if proc.stderr:
            print(proc.stderr, end="")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
