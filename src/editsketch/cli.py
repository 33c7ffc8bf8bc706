"""Command-line front end.

Subcommands: match, sketch encode|decode|inspect, analyze, selfed, lz,
gen-lb, bench.  Exit codes: 0 ok, 2 input/parameter error, 3 corrupt sketch,
4 internal invariant broken.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ._dp import canonical_alignments
from .analysis import analyze
from .compress import lz77, selfed
from .graph import InternalInvariantBroken
from .matcher import find_occurrences, match_banded
from .sketch import (
    CorruptSketch,
    Sketch,
    UnsupportedSketch,
    decode,
    encode,
    gen_lower_bound,
    sketch_size_bits,
)
from .symbols import Str, from_bytes, from_tokens

class InputError(Exception):
    pass


def _read_str(path: str, fmt: str) -> Str:
    try:
        data = open(path, "rb").read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if fmt == "bytes":
        return from_bytes(data)
    if fmt == "tokens":
        try:
            return from_tokens(data.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise InputError(f"bad token file {path}: {exc}") from exc
    raise InputError(f"unknown format {fmt}")


def _occurrence_json(start: int, end: int, cost: int, records) -> dict:
    return {
        "start": start,
        "end": end,
        "cost": cost,
        "edits": [
            {"x": x, "cx": cx, "y": y, "cy": cy}
            for x, cx, y, cy in sorted(records, key=lambda r: (r[0], r[2]))
        ],
    }


def _emit(obj, out: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_match(args) -> int:
    p = _read_str(args.pattern, args.format)
    t = _read_str(args.text, args.format)
    if args.k < 0:
        raise InputError("k must be non-negative")
    matchfn = match_banded if args.reference else find_occurrences
    occ = sorted(matchfn(p, t, args.k), key=lambda o: (o.start, o.end))
    aligned = canonical_alignments(p.codes, t.as_bytes() or t.codes, [(o.start, o.end) for o in occ], args.k)
    results = [
        _occurrence_json(o.start, o.end, o.cost, records) for o, (_, records) in zip(occ, aligned)
    ]
    _emit({"k": args.k, "m": len(p), "n": len(t), "occurrences": results}, args.json)
    return 0


def cmd_sketch_encode(args) -> int:
    p = _read_str(args.pattern, args.format)
    t = _read_str(args.text, args.format)
    if args.k < 1:
        raise InputError("k must be at least 1")
    sk = encode(p, t, args.k, chars=args.chars)
    data = sk.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(data)
    _emit(
        {
            "bytes": len(data),
            "bits": 8 * len(data),
            "windows": sk.stats.get("windows"),
            "kinds": {key: sk.stats.get(key) for key in ("empty", "raw", "single", "structured")},
        },
        args.json,
    )
    return 0


def _load_sketch(path: str) -> Sketch:
    try:
        data = open(path, "rb").read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return Sketch.from_bytes(data)


def cmd_sketch_decode(args) -> int:
    sk = _load_sketch(args.sketch)
    occ = decode(sk)
    results = [_occurrence_json(o.start, o.end, o.cost, o.records) for o in occ]
    _emit({"k": sk.k, "m": sk.m, "n": sk.n, "occurrences": results}, args.json)
    return 0


def cmd_sketch_inspect(args) -> int:
    sk = _load_sketch(args.sketch)
    kinds = ["EMPTY", "RAW", "SINGLE", "STRUCTURED"]
    _emit(
        {
            "n": sk.n,
            "m": sk.m,
            "k": sk.k,
            "alphabet": sk.alphabet,
            "chars_mode": sk.chars_mode,
            "window_count": len(sk.windows),
            "size_bits": sketch_size_bits(sk),
            "windows": [
                {
                    "kind": kinds[w.kind],
                    "lo": w.lo,
                    "alignments": len(w.aligns),
                    "intervals": len(w.intervals),
                    "symbols": len(w.symbols),
                }
                for w in sk.windows
            ],
        },
        args.json,
    )
    return 0


def cmd_analyze(args) -> int:
    p = _read_str(args.pattern, args.format)
    if args.k < 1:
        raise InputError("k must be at least 1")
    d = analyze(p, args.k)
    obj = {"kind": d.kind, "m": len(p), "k": args.k}
    if d.kind == "breaks":
        obj["breaks"] = [{"start": b.start, "end": b.end} for b in d.breaks]
    elif d.kind == "regions":
        obj["regions"] = [
            {"start": r.start, "end": r.end, "period": list(r.period.codes), "budget": r.budget}
            for r in d.regions
        ]
    else:
        obj["period"] = list(d.period.codes)
    _emit(obj, args.json)
    return 0


def cmd_selfed(args) -> int:
    x = _read_str(args.input, args.format)
    res = selfed(x)
    obj = {"length": len(x), "selfed": res.cost}
    if res.witness is not None:
        obj["witness"] = [[a, b] for a, b in res.witness.points]
    _emit(obj, args.json)
    return 0


def cmd_lz(args) -> int:
    x = _read_str(args.input, args.format)
    fact = lz77(x)
    _emit(
        {
            "length": len(x),
            "phrases": [[a, b] for a, b in fact.phrases],
            "count": len(fact),
        },
        args.json,
    )
    return 0


def cmd_gen_lb(args) -> int:
    inst = gen_lower_bound(args.n, args.m, args.k, args.seed)
    with open(args.text_out, "wb") as fh:
        fh.write(bytes(inst.text.codes))
    with open(args.pattern_out, "wb") as fh:
        fh.write(bytes(inst.pattern.codes))
    _emit(
        {
            "n": args.n,
            "m": args.m,
            "k": args.k,
            "seed": args.seed,
            "blocks": inst.block_count,
            "planted": [list(ones) for ones in inst.planted],
        },
        args.json,
    )
    return 0


def cmd_bench(args) -> int:
    from . import bench

    if args.suite == "perf":
        obj = bench.perf_suite(args.n, args.m, args.k, seed=args.seed)
    elif args.suite == "sizes":
        obj = bench.size_suite(seed=args.seed, small=args.small)
    elif args.suite == "lower-bound":
        obj = bench.lower_bound_suite(seed=args.seed)
    else:
        raise InputError(f"unknown suite {args.suite}")
    _emit(obj, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="editsketch")
    ap.add_argument("--format", choices=("bytes", "tokens"), default="bytes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("match", help="all k-error occurrence pairs")
    m.add_argument("--pattern", required=True)
    m.add_argument("--text", required=True)
    m.add_argument("-k", type=int, required=True)
    m.add_argument("--reference", action="store_true", help="verify every start instead of the pipeline")
    m.add_argument("--json")
    m.set_defaults(fn=cmd_match)

    sk = sub.add_parser("sketch", help="encode/decode/inspect sketches")
    sksub = sk.add_subparsers(dest="subcmd", required=True)
    e = sksub.add_parser("encode")
    e.add_argument("--pattern", required=True)
    e.add_argument("--text", required=True)
    e.add_argument("-k", type=int, required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--chars", action="store_true", help="store characters verbatim")
    e.add_argument("--json")
    e.set_defaults(fn=cmd_sketch_encode)
    d = sksub.add_parser("decode")
    d.add_argument("--sketch", required=True)
    d.add_argument("--json")
    d.set_defaults(fn=cmd_sketch_decode)
    i = sksub.add_parser("inspect")
    i.add_argument("--sketch", required=True)
    i.add_argument("--json")
    i.set_defaults(fn=cmd_sketch_inspect)

    a = sub.add_parser("analyze", help="pattern structural decomposition")
    a.add_argument("--pattern", required=True)
    a.add_argument("-k", type=int, required=True)
    a.add_argument("--json")
    a.set_defaults(fn=cmd_analyze)

    se = sub.add_parser("selfed", help="self-edit distance")
    se.add_argument("--input", required=True)
    se.add_argument("--json")
    se.set_defaults(fn=cmd_selfed)

    lz = sub.add_parser("lz", help="greedy LZ77 factorization")
    lz.add_argument("--input", required=True)
    lz.add_argument("--json")
    lz.set_defaults(fn=cmd_lz)

    g = sub.add_parser("gen-lb", help="generate a lower-bound family instance")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-m", type=int, required=True)
    g.add_argument("-k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--text-out", required=True)
    g.add_argument("--pattern-out", required=True)
    g.add_argument("--json")
    g.set_defaults(fn=cmd_gen_lb)

    b = sub.add_parser("bench", help="timing and sketch-size measurements")
    b.add_argument("--suite", choices=("perf", "sizes", "lower-bound"), default="perf")
    b.add_argument("-n", type=int, default=1_000_000)
    b.add_argument("-m", type=int, default=100_000)
    b.add_argument("-k", type=int, default=32)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--small", action="store_true")
    b.add_argument("--json")
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError,) as exc:
        if isinstance(exc, (CorruptSketch, UnsupportedSketch)):
            print(f"sketch error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantBroken as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
