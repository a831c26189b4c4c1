"""Run the benchmark over many seeds, one fresh process per run.

    python3 perfbench/series.py --seeds 1-10 OUT.jsonl
    python3 perfbench/series.py --seeds 1-10 OUT.jsonl ../parent BASE.jsonl

Appends each run's standard output to the results file of its checkout.
With a second checkout, every (seed, workload) runs on both, and the side
that runs first alternates from seed to seed. Feed the files to
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("out", help="results file for this checkout")
    p.add_argument("other", nargs="*", help="another checkout root and its results file")
    args = p.parse_args(argv)
    if len(args.other) not in (0, 2):
        p.error("give another checkout as ROOT OUT")
    sides = [(ROOT, Path(args.out).resolve())]
    if args.other:
        sides.append((Path(args.other[0]).resolve(), Path(args.other[1]).resolve()))

    failures = 0
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads.split(","):
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
                with open(out, "a", encoding="utf-8") as f:
                    f.write(proc.stdout)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{root.name} {workload} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                      file=sys.stderr)
                failures += proc.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
