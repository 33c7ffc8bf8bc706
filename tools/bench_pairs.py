"""Build a BENCH_<workload>.json row from paired perfbench runs.

Runs ``perfbench/run.py`` in two git checkouts, the parent commit and the
change, once per seed each, alternating which side runs first, and keeps
the JSON object each run prints on its last line.  Then one ``--trace 1``
run per side gives the per-layer seconds.  Every run lasts the benchmark's
``run_seconds`` from BENCHMARK.json.  perfbench itself is not touched.

    python3 tools/bench_pairs.py --workload scan-breaks \\
        --parent ../parent --change . --seeds 41-50 --out BENCH_scan-breaks.json

The row holds both revisions, the seeds, every run's end-to-end metrics,
per side the median and quartiles (inclusive method) of each metric, how
many pairs the change won per metric (ties count for neither side), and
the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One perfbench run: the revision it stamped and its final result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    stamp = next(json.loads(x)["stamp"] for x in lines if x.startswith('{"stamp"'))
    return {"revision": stamp["revision"], "result": json.loads(lines[-1])}


def traced(checkout: Path, workload: str, seed: int, seconds: float, names: Sequence[str]) -> Dict[str, float]:
    """The named per-layer metrics of one --trace 1 run."""
    got = run(checkout, workload, seed, seconds, trace=1)["result"]["metrics"]
    return {m: got[m]["value"] for m in names}


def summary(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def seeds_of(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 41-50")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = seeds_of(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    revisions: Dict[str, str] = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run(sides[side], args.workload, seed, seconds, trace=0)
            revisions[side] = got["revision"]
            res = got["result"]
            runs[side].append({"seed": seed, "first": order[0] == side, "correct": res["correct"],
                               "attempted": res["attempted"], "failed": res["failed"],
                               "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)

    metrics = sorted(runs["parent"][0]["metrics"])
    higher = {d["name"] for d in bench["end_to_end"] if d["better"] == "higher"}
    row = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seeds,
        "revisions": revisions,
        "summary": {side: {m: summary([r["metrics"][m] for r in runs[side]]) for m in metrics}
                    for side in sides},
        "change_wins": {},
        "runs": runs,
    }
    for m in metrics:
        better = (lambda c, p: c > p) if m in higher else (lambda c, p: c < p)
        row["change_wins"][m] = sum(
            better(c["metrics"][m], p["metrics"][m]) for p, c in zip(runs["parent"], runs["change"]))
    row["traced_seed"] = seeds[0]
    layers = [d["name"] for d in bench["per_layer"]]
    row["traced"] = {side: traced(sides[side], args.workload, seeds[0], seconds, layers) for side in sides}
    args.out.write_text(json.dumps(row, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
