"""editsketch benchmark: match, encode and decode throughput per workload.

Run from the repository root:

    python3 perfbench/run.py --workload scan-breaks --seed 1 --seconds 25 --trace 0

The run builds its inputs from the seed (perfbench/workloads.py), imports
editsketch from ./src, and drives one closed loop from one caller: each
operation starts when the previous one returns, with no threads.  Every
instance goes through the three user operations

    match   find_occurrences(p, t, k)
    encode  encode(p, t, k) + Sketch.to_bytes()
    decode  Sketch.from_bytes(b) + decode(sketch)

on instances 0, 1, 2, ... until the operations have run for --seconds and
the workload's base instances all ran.  Each operation's wall seconds are
divided by the machine slowdown measured around it (perfbench/calibrate.py).
Each output is checked outside the timed region.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run
that alternates untraced and traced passes over the instances; traced
passes wrap editsketch's call sites (perfbench/tracer.py) and the run
reports per-layer self time and counts per pass, plus the tracing overhead.
Spans are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import calibrate
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OPS = ("match", "encode", "decode")
WALL_LIMIT_S = 150.0  # stop starting instances past this, to exit in time
IMPORT_REPEATS = 7
INGEST_REPEATS = 5

Key = Tuple[int, int, int]


class SetupFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def import_seconds(repeats: int) -> List[float]:
    """Calibrated seconds of ``import editsketch`` in fresh interpreters
    that have already imported numpy, whose own import time is not the
    package's.  The first, untimed one leaves the bytecode cache the later
    ones read."""
    code = (
        "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
        "t0 = time.perf_counter(); import editsketch; print(time.perf_counter() - t0)"
    )
    out = []
    for i in range(repeats + 1):
        r, _, factor = calibrate.timed(lambda: subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, timeout=120
        ))
        if r.returncode != 0:
            raise SetupFailed(f"importing editsketch failed:\n{r.stderr}")
        if i:
            out.append(float(r.stdout.split()[-1]) / factor)
    return out


def load_package():
    if not (SRC / "editsketch" / "__init__.py").is_file():
        raise SetupFailed(f"no editsketch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import editsketch

    if Path(editsketch.__file__).resolve().parent != (SRC / "editsketch").resolve():
        raise SetupFailed(f"imported editsketch from {editsketch.__file__}, not from {SRC}")
    return editsketch


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


# ---------------------------------------------------------------------------
# one execution of an instance


@dataclass
class Execution:
    op_base: int
    seconds: Dict[str, float]  # wall seconds per operation
    factors: Dict[str, float]  # machine slowdown around each operation
    occ: Set[Key]
    blob: bytes
    decoded: List[object]
    stats: Dict[str, int]


def _plain_call(name, fn, *args):
    return fn(*args)


def execute(es, inst: wl.Instance, trace: Optional[tr.Tracer], op_base: int) -> Execution:
    """Ingest the instance afresh, then time match, encode and decode.

    With a tracer, every operation gets its own op id and a root span, and
    ingestion is traced as an operation of its own.
    """
    call = trace.call if trace is not None else _plain_call
    seconds: Dict[str, float] = {}
    factors: Dict[str, float] = {}

    def timed(op: str, op_id: int, body):
        gc.collect()  # start every operation from the same collector state
        if trace is not None:
            trace.op = op_id
        try:
            out, seconds[op], factors[op] = calibrate.timed(lambda: call(f"op.{op}", body))
        finally:
            if trace is not None:
                trace.op = None
        return out

    p, t = timed("ingest", op_base, lambda: (call("symbols.ingest", es.from_bytes, inst.pattern),
                                            call("symbols.ingest", es.from_bytes, inst.text)))
    occ = timed("match", op_base + 1, lambda: call("matcher.find_occurrences", es.find_occurrences, p, t, inst.k))

    def encode_op():
        sk = call("sketch.encode", es.encode, p, t, inst.k)
        return sk, call("sketch.to_bytes", sk.to_bytes)

    sk, blob = timed("encode", op_base + 2, encode_op)
    decoded = timed("decode", op_base + 3, lambda: call(
        "sketch.decode", es.decode, call("sketch.from_bytes", es.Sketch.from_bytes, blob)))
    occ = {(o.start, o.end, o.cost) for o in occ}
    return Execution(op_base, seconds, factors, occ, blob, decoded, dict(sk.stats))


def check(es, inst: wl.Instance, ex: Execution, reference: Optional[Set[Key]]) -> List[str]:
    """Every problem with one execution's outputs (empty when all pass)."""
    problems = []
    if es.Sketch.from_bytes(ex.blob).to_bytes() != ex.blob:
        problems.append("sketch wire format does not round-trip")
    got = {(o.start, o.end, o.cost) for o in ex.decoded}
    if got != ex.occ:
        problems.append(f"decode gave {len(got)} pairs, find_occurrences {len(ex.occ)}")
    if inst.planted is not None:
        try:
            blocks = es.recover_planted({o.start for o in ex.decoded}, inst.n, inst.m, inst.k)
        except ValueError as exc:
            problems.append(f"recover_planted failed: {exc}")
        else:
            if tuple(blocks) != inst.planted:
                problems.append("recovered blocks differ from the planted ones")
    if reference is not None and ex.occ != reference:
        problems.append(f"find_occurrences gave {len(ex.occ)} pairs, match_banded {len(reference)}")
    return problems


# ---------------------------------------------------------------------------
# the loop


@dataclass
class Loop:
    """Executions of a workload's instances plus their check results.

    Instances are built on first use, outside any timed region; each is
    checked once for its intended decomposition case.
    """

    es: object
    workload: str
    seed: int
    scale: float
    attempted: int = 0
    failed: int = 0
    instances: List[wl.Instance] = field(default_factory=list)
    records: List[Tuple[int, Dict[str, float]]] = field(default_factory=list)  # (index, calibrated seconds per op)
    sketch_bits: Dict[int, int] = field(default_factory=dict)  # base instances
    wrong_case: Set[int] = field(default_factory=set)

    @property
    def base(self) -> int:
        return wl.WORKLOADS[self.workload].base

    def get(self, i: int) -> wl.Instance:
        while len(self.instances) <= i:
            j = len(self.instances)
            inst = wl.instance(self.workload, self.seed, j, self.scale)
            kind = self.es.analyze(self.es.from_bytes(inst.pattern), inst.k).kind
            if kind != inst.expect:
                self.wrong_case.add(j)
                _say(f"instance {j} ({inst.family}) lands in {kind!r}, not {inst.expect!r}")
            self.instances.append(inst)
        return self.instances[i]

    def reference(self, inst: wl.Instance) -> Optional[Set[Key]]:
        if not inst.reference:
            return None
        p, t = self.es.from_bytes(inst.pattern), self.es.from_bytes(inst.text)
        return {(o.start, o.end, o.cost) for o in self.es.match_banded(p, t, inst.k)}

    def run_one(self, i: int, trace: Optional[tr.Tracer] = None) -> Optional[Execution]:
        """Execute and check instance i; None when it raised."""
        inst = self.get(i)
        self.attempted += 1
        try:
            ex = execute(self.es, inst, trace, op_base=4 * self.attempted)
            problems = check(self.es, inst, ex, self.reference(inst))
        except Exception:
            self.failed += 1
            _say(f"instance {i} ({inst.family}) raised:\n{traceback.format_exc()}")
            return None
        if i in self.wrong_case:
            problems.append("pattern is not in its intended decomposition case")
        if problems:
            self.failed += 1
            _say(f"instance {i} ({inst.family}) failed: {'; '.join(problems)}")
        self.records.append((i, {op: ex.seconds[op] / ex.factors[op] for op in OPS}))
        if i < self.base:
            self.sketch_bits.setdefault(i, 8 * len(ex.blob))
        return ex


def _say(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def timed_run(loop: Loop, seconds: float, started: float) -> None:
    """Run instances 0, 1, 2, ... until the operations ran for `seconds`
    and every base instance ran."""
    busy = 0.0
    i = 0
    while i < loop.base or busy < seconds:
        if time.perf_counter() - started > WALL_LIMIT_S:
            _say(f"wall-clock limit reached after {i} executions")
            break
        ex = loop.run_one(i)
        if ex is not None:
            busy += sum(ex.seconds[op] for op in OPS)
        i += 1


def e2e_metrics(loop: Loop, setup_s: float) -> Dict[str, Tuple[float, str]]:
    """Throughput of a median call: per instance family, the mean text
    length over the median calibrated call seconds, summed over families as
    one call of each.  A stall that hits a few calls moves it less than a
    total would."""
    out: Dict[str, Tuple[float, str]] = {}
    by_family: Dict[str, List[Tuple[int, Dict[str, float]]]] = defaultdict(list)
    for i, secs in loop.records:
        inst = loop.instances[i]
        by_family[inst.family].append((inst.n, secs))
    for op in OPS:
        symbols = sum(statistics.mean(n for n, _ in xs) for xs in by_family.values())
        seconds = sum(statistics.median(s[op] for _, s in xs) for xs in by_family.values())
        out[f"{op}_sym_per_s"] = (symbols / seconds if seconds else 0.0, "symbols/s")
    bits = budget = 0.0
    for i, b in loop.sketch_bits.items():
        inst = loop.instances[i]
        bits += b
        budget += (inst.n / inst.m) * inst.k * math.log2(inst.m) ** 2
    out["sketch_bits_per_budget"] = (bits / budget if budget else 0.0, "ratio")
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return out


# ---------------------------------------------------------------------------
# traced run


def _keep_rules(es):
    s_cap = es.window.s_cap
    return {
        "analysis.analyze": lambda d: d.kind,
        "matcher.candidates": lambda c: len(c.starts),
        "matcher.verify": lambda occ: len({o.start for o in occ}),
        "window.structure": lambda ws: len(ws.aligns) / s_cap(len(ws.aligns[0].src)),
        "sketch.decode": len,
    }


def traced_run(loop: Loop, seconds: float, started: float):
    """Alternate untraced and traced passes over every instance until both
    kinds ran and `seconds` have passed.  Returns the tracer, the number of
    traced passes, calibrated operation seconds per pass of each kind, the
    machine slowdown factor of every traced operation id, and the summed
    Sketch.stats of the traced passes."""
    es = loop.es
    trace = tr.Tracer(keep=_keep_rules(es))
    factors: Dict[int, float] = {}
    busy = {"plain": 0.0, "traced": 0.0}
    passes = {"plain": 0, "traced": 0}
    stats: Dict[str, float] = defaultdict(float)
    t0 = time.perf_counter()
    while min(passes.values()) == 0 or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - started > WALL_LIMIT_S and min(passes.values()) > 0:
            _say("wall-clock limit reached")
            break
        kind = "traced" if passes["plain"] > passes["traced"] else "plain"
        if kind == "traced":
            trace.install()
        try:
            for i in range(loop.base):
                ex = loop.run_one(i, trace if kind == "traced" else None)
                if ex is None:
                    continue
                busy[kind] += sum(ex.seconds[op] / ex.factors[op] for op in OPS)
                if kind == "traced":
                    for key, v in ex.stats.items():
                        stats[key] += v
                    for j, op in enumerate(("ingest",) + OPS):
                        factors[ex.op_base + j] = ex.factors[op]
        finally:
            trace.uninstall()
        passes[kind] += 1
    per_pass = {k: busy[k] / passes[k] for k in busy}
    return trace, passes["traced"], per_pass, factors, dict(stats)


def layer_metrics(trace: tr.Tracer, passes: int, per_pass: Dict[str, float],
                  factors: Dict[int, float], stats: Dict[str, float]):
    """Per-layer metrics, each per traced pass over the instances; self
    times are calibrated with the factor of the operation they belong to."""
    self_s = tr.self_times(trace.spans, weight=lambda span: 1.0 / factors[span.op])
    calls = tr.call_counts(trace.spans)
    res = trace.results

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names) / passes

    def c(name: str) -> float:
        return calls.get(name, 0) / passes

    kinds = res.get("analysis.analyze", [])
    cand = sum(res.get("matcher.candidates", [])) / passes
    true = sum(res.get("matcher.verify", [])) / passes
    cap_share = max(res.get("window.structure", []), default=0.0)
    m = {
        "symbols.ingest_s": (s("symbols.ingest"), "s"),
        "strings.exact_occurrences_s": (s("strings.exact_occurrences"), "s"),
        "strings.exact_occurrences.calls": (c("strings.exact_occurrences"), "calls"),
        "analysis.analyze_s": (s("analysis.analyze"), "s"),
        "analysis.analyze.calls": (c("analysis.analyze"), "calls"),
    }
    for kind in ("breaks", "regions", "period"):
        m[f"analysis.kind.{kind}"] = (kinds.count(kind) / passes, "count")
    m.update({
        "matcher.find_occurrences_self_s": (s("matcher.find_occurrences"), "s"),
        "matcher.candidates_s": (s("matcher.candidates", "matcher.candidates_periodic"), "s"),
        "matcher.verify_s": (s("matcher.verify"), "s"),
        "matcher.match_banded_s": (s("matcher.match_banded"), "s"),
        "matcher.candidate_starts": (cand, "count"),
        "matcher.true_starts": (true, "count"),
        "matcher.candidate_precision": (true / cand if cand else 0.0, "ratio"),
        "distance.optimal_alignment_s": (s("distance.optimal_alignment"), "s"),
        "distance.optimal_alignment.calls": (c("distance.optimal_alignment"), "calls"),
        "alignment.edit_info_s": (s("alignment.edit_info"), "s"),
        "alignment.reconstruct_points_s": (s("alignment.reconstruct_points"), "s"),
        "window.structure_s": (s("window.structure"), "s"),
        "window.extensions": (stats.get("extensions", 0) / passes, "count"),
        "window.alignset_cap_share": (cap_share, "ratio"),
        "graph.build_graph_s": (s("graph.build_graph"), "s"),
        "graph.black_indexing_s": (s("graph.black_indexing"), "s"),
        "graph.weight_function_s": (s("graph.weight_function"), "s"),
        "graph.captures_s": (s("graph.captures"), "s"),
        "graph.captures.calls": (c("graph.captures"), "calls"),
        "graph.extend_set_s": (s("graph.extend_set"), "s"),
        "graph.cover_s": (s("graph.cover"), "s"),
        "graph.mask_s": (s("graph.mask"), "s"),
        "graph.masked_components": (stats.get("masked_components", 0) / passes, "count"),
        "compress.lz77_s": (s("compress.lz77"), "s"),
        "compress.lz_size_leq_s": (s("compress.lz_size_leq"), "s"),
        "compress.lz_size_leq.calls": (c("compress.lz_size_leq"), "calls"),
        "compress.selfed_leq_s": (s("compress.selfed_leq"), "s"),
        "sketch.encode_self_s": (s("sketch.encode"), "s"),
        "sketch.to_bytes_s": (s("sketch.to_bytes"), "s"),
        "sketch.from_bytes_s": (s("sketch.from_bytes"), "s"),
        "sketch.decode_self_s": (s("sketch.decode"), "s"),
    })
    for kind in ("empty", "single", "structured", "raw"):
        m[f"sketch.windows.{kind}"] = (stats.get(kind, 0) / passes, "count")
    m["sketch.pairs_decoded"] = (sum(res.get("sketch.decode", [])) / passes, "count")
    m["trace.overhead_pct"] = (100.0 * (per_pass["traced"] / per_pass["plain"] - 1.0), "%")
    return m


def write_spans(trace: tr.Tracer, info: Dict, path: Path) -> None:
    names: Dict[str, int] = {}
    rows = []
    for s in trace.spans:
        rows.append([names.setdefault(s.name, len(names)), round(s.start, 7), round(s.end, 7), s.parent, s.op])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"stamp": info, "names": list(names), "fields": ["name", "start", "end", "parent", "op"], "spans": rows}, f)


# ---------------------------------------------------------------------------
# reporting


def stamp(es, args, loop: Loop) -> Dict:
    """Where and on what the run was made: revision, versions, and per
    instance family the case, n range, m, k and how many instances ran."""
    import numpy

    families: Dict[str, Dict] = {}
    for inst in loop.instances:
        f = families.setdefault(inst.family, {"case": inst.expect, "m": inst.m, "k": inst.k,
                                              "n_min": inst.n, "n_max": inst.n, "instances": 0})
        f["n_min"], f["n_max"] = min(f["n_min"], inst.n), max(f["n_max"], inst.n)
        f["instances"] += 1
    return {
        "revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "editsketch": getattr(es, "__version__", "unknown"),
        "families": families,
    }


def report_ops(loop: Loop) -> None:
    for op in OPS:
        xs = [secs[op] for _, secs in loop.records]
        if xs:
            print(f"  {op:<6} calls={len(xs):<4} calibrated seconds: median={statistics.median(xs):.4f} max={max(xs):.4f}")


def result_line(loop: Loop, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use small values)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        es = load_package()
        imports = import_seconds(IMPORT_REPEATS)
    except (SetupFailed, OSError, subprocess.TimeoutExpired) as exc:
        _say(str(exc))
        return 2
    loop = Loop(es, args.workload, args.seed, args.scale)
    base = [loop.get(i) for i in range(loop.base)]
    ingests = []
    for _ in range(INGEST_REPEATS):
        _, wall, factor = calibrate.timed(lambda: [(es.from_bytes(x.pattern), es.from_bytes(x.text)) for x in base])
        ingests.append(wall / factor)
    setup_s = statistics.median(imports) + statistics.median(ingests)
    execute(es, wl.warmup_instance(), None, 0)  # first-call paths, untimed

    if args.trace:
        trace, passes, per_pass, factors, stats = traced_run(loop, args.seconds, started)
        metrics = layer_metrics(trace, passes, per_pass, factors, stats)
        info = stamp(es, args, loop)
        write_spans(trace, info, OUT / f"{args.workload}-seed{args.seed}.spans.json")
        print(json.dumps({"stamp": info}))
        print(f"{args.workload}: {passes} traced pass(es) over {loop.base} instances, "
              f"{len(trace.spans)} spans, error_rate={loop.failed / max(1, loop.attempted):.4f}; "
              f"calibrated operation seconds per pass untraced {per_pass['plain']:.3f}, "
              f"traced {per_pass['traced']:.3f}")
        for name, (v, unit) in metrics.items():
            note = "  n/a (0 calls)" if v == 0 else ""
            print(f"  {name:<36} {v:>14.6g} {unit}{note}")
    else:
        timed_run(loop, args.seconds, started)
        metrics = e2e_metrics(loop, setup_s)
        print(json.dumps({"stamp": stamp(es, args, loop)}))
        print(f"{args.workload}: {loop.attempted} executions, "
              f"error_rate={loop.failed / max(1, loop.attempted):.4f}, "
              f"setup imports={statistics.median(imports):.4f}s ingest={statistics.median(ingests):.4f}s")
        report_ops(loop)
        for name, (v, unit) in metrics.items():
            print(f"  {name:<24} {v:>14.6g} {unit}")
    print(result_line(loop, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
