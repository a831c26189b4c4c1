"""Summarise benchmark records, or compare the records of two commits.

    python3 perfbench/compare.py RESULTS            # one commit: spread, repeats, trace
    python3 perfbench/compare.py BASE HEAD          # two commits, by workload and metric

A results file is the captured standard output of ``run.py`` runs (as
``series.py`` writes it); lines that are not records are skipped. Bounds
and directions come from ``BENCHMARK.json``.

Comparison rule, per workload and end-to-end metric: "unresolved" when
either side's quartile spread (IQR / median) exceeds the metric's bound,
unless every head run beats every base run; else "REGRESSION" when the
head median is worse than the base median by more than the bound; else
"gain" when the head wins at least 9/10 of the seed-paired runs and the
medians differ by more than the base's IQR; else "no change".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("loss_digest", "gold_bleu", "extract_bleu", "edit_bleu")
PER_SETUP = ("checkpoint.restore.ms", "cipher.generate.ms")  # not timed-phase sums


def load(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "perfbench" in rec:
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def values(records, workload: str, metric: str, trace: int = 0) -> dict[int, float]:
    """Metric value per seed (the last record of a seed wins)."""
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and \
                metric in r["result"]["metrics"]:
            out[r["seed"]] = r["result"]["metrics"][metric]["value"]
    return out


def repeats(records, workload: str) -> str:
    """Do the quality outputs repeat exactly across runs of one seed?"""
    by_seed = defaultdict(list)
    for r in records:
        if r["workload"] == workload:
            by_seed[r["seed"]].append({k: r["quality"].get(k) for k in QUALITY})
    multi = {s: q for s, q in by_seed.items() if len(q) > 1}
    if not multi:
        return "no seed ran twice"
    bad = sorted(s for s, q in multi.items() if any(x != q[0] for x in q))
    return (f"repeat exactly on {len(multi)} seeds run more than once" if not bad
            else f"DIFFER on seeds {bad}")


def fmt(x: float) -> str:
    return f"{x:.4g}"


def workload_names(spec, records) -> list[str]:
    """The gated workloads, then any other the records hold (bt-train run by hand)."""
    names = [w["name"] for w in spec["workloads"]]
    return names + sorted({r["workload"] for r in records} - set(names))


def summary(records, spec) -> None:
    for w in workload_names(spec, records):
        runs = [r for r in records if r["workload"] == w]
        if not runs:
            continue
        untraced = [r for r in runs if r["trace"] == 0]
        wrong = sum(not r["result"]["correct"] for r in runs)
        print(f"== {w}: {len(untraced)} untraced, {len(runs) - len(untraced)} traced runs, "
              f"{wrong} incorrect; quality outputs {repeats(records, w)}")
        for m in spec["end_to_end"]:
            vals = list(values(records, w, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "ok" if s <= m["bound"] / 3 else ("wide" if s <= m["bound"] else "OVER")
            print(f"  {m['name']:<16} median {fmt(med):>9} {m['unit']:<11} "
                  f"q1 {fmt(q1):>9} q3 {fmt(q3):>9}  spread {s:.3f} "
                  f"(bound {m['bound']}) {flag}")
        traced = [r for r in runs if r["trace"] == 1]
        if traced:
            base = list(values(records, w, "sents_per_s").values())
            traced_rate = statistics.median(
                r["result"]["metrics"]["trace.sents_per_s"]["value"] for r in traced)
            if base:
                print(f"  tracing overhead: {statistics.median(base) / traced_rate - 1:+.1%} "
                      f"(untraced median sents_per_s over traced)")
            wall = statistics.median(
                r["result"]["metrics"]["trace.wall_ms"]["value"] for r in traced)
            for m in spec["per_layer"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in traced]
                share = (f"  {statistics.median(vals) / wall:6.1%} of timed wall"
                         if m["unit"] == "ms" and m["name"] not in PER_SETUP
                         and not m["name"].startswith("trace.") else "")
                print(f"  {m['name']:<42} {fmt(statistics.median(vals)):>10} "
                      f"{m['unit']}{share}")


def compare(base, head, spec) -> int:
    regressions = 0
    for w in workload_names(spec, base + head):
        if not any(r["workload"] == w for r in base + head):
            continue
        print(f"== {w}")
        for m in spec["end_to_end"]:
            b = values(base, w, m["name"])
            h = values(head, w, m["name"])
            if not b or not h:
                continue
            sign = 1 if m["better"] == "lower" else -1
            bq1, bmed, bq3 = quartiles(list(b.values()))
            hq1, hmed, hq3 = quartiles(list(h.values()))
            worse_by = sign * (hmed - bmed) / abs(bmed)
            paired = [s for s in b if s in h]
            won = sum(sign * (h[s] - b[s]) < 0 for s in paired)
            all_better = max(sign * v for v in h.values()) < min(sign * v for v in b.values())
            if max(spread(list(b.values())), spread(list(h.values()))) > m["bound"] \
                    and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif paired and won >= 0.9 * len(paired) and worse_by < 0 \
                    and abs(hmed - bmed) > bq3 - bq1:
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"  {m['name']:<16} base {fmt(bmed):>9} [{fmt(bq1)}, {fmt(bq3)}]  "
                  f"head {fmt(hmed):>9} [{fmt(hq1)}, {fmt(hq3)}]  {worse_by:+.1%} worse  "
                  f"won {won}/{len(paired)}  bound {m['bound']}  {verdict}")
        same = differ = 0
        for s in {r["seed"] for r in base if r["workload"] == w}:
            qb = [{k: r["quality"].get(k) for k in QUALITY} for r in base
                  if r["workload"] == w and r["seed"] == s]
            qh = [{k: r["quality"].get(k) for k in QUALITY} for r in head
                  if r["workload"] == w and r["seed"] == s]
            if qb and qh:
                same += qb[0] == qh[0]
                differ += qb[0] != qh[0]
        print(f"  quality outputs ({', '.join(QUALITY)}): "
              f"bit-exact on {same} seeds, different on {differ}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summary(load(argv[0]), spec)
        return 0
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
