import json
import subprocess
import sys
from pathlib import Path

from editsketch.alignment import edit_info
from editsketch.cli import _occurrence_json, main
from editsketch.distance import optimal_alignment
from editsketch.symbols import from_bytes


def run_cli(args):
    return main(list(args))


def write(tmp_path: Path, name: str, data: bytes) -> str:
    f = tmp_path / name
    f.write_bytes(data)
    return str(f)


def load(path: Path):
    return json.loads(path.read_text())


def test_match_tiny_fixture(tmp_path):
    p = write(tmp_path, "p", b"ab")
    t = write(tmp_path, "t", b"axb")
    out = tmp_path / "out.json"
    assert run_cli(["match", "--pattern", p, "--text", t, "-k", "1", "--json", str(out)]) == 0
    occ = load(out)["occurrences"]
    assert any(o["start"] == 0 and o["end"] == 3 and o["cost"] == 1 for o in occ)


def test_match_k_zero_identity(tmp_path):
    p = write(tmp_path, "p", b"abc")
    t = write(tmp_path, "t", b"abc")
    out = tmp_path / "out.json"
    assert run_cli(["match", "--pattern", p, "--text", t, "-k", "0", "--json", str(out)]) == 0
    occ = load(out)["occurrences"]
    assert occ == [{"start": 0, "end": 3, "cost": 0, "edits": []}]


def test_match_missing_file_exit_2(tmp_path):
    p = write(tmp_path, "p", b"ab")
    assert run_cli(["match", "--pattern", p, "--text", str(tmp_path / "nope"), "-k", "1"]) == 2


def test_reference_and_pipeline_agree(tmp_path):
    p = write(tmp_path, "p", b"abababab")
    t = write(tmp_path, "t", b"xxabababababxx")
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["match", "--pattern", p, "--text", t, "-k", "1", "--json", str(o1)]) == 0
    assert run_cli(["match", "--pattern", p, "--text", t, "-k", "1", "--reference", "--json", str(o2)]) == 0
    assert load(o1)["occurrences"] == load(o2)["occurrences"]
    # periodic input: many pairs per start, each with its canonical edits
    pb, tb = b"abcabcabcabcab", b"cabcabcabxabcabcabcabcabcab"
    p, t = write(tmp_path, "pp", pb), write(tmp_path, "tp", tb)
    for k in ("0", "2"):
        assert run_cli(["match", "--pattern", p, "--text", t, "-k", k, "--json", str(o1)]) == 0
        assert run_cli(["match", "--pattern", p, "--text", t, "-k", k, "--reference", "--json", str(o2)]) == 0
        occ = load(o1)["occurrences"]
        assert occ and occ == load(o2)["occurrences"]
        ps, ts = from_bytes(pb), from_bytes(tb)
        for o in occ:
            a = optimal_alignment(ps, ts, o["start"], o["end"])
            assert o == _occurrence_json(o["start"], o["end"], o["cost"], edit_info(a).records)


def test_sketch_encode_decode_inspect(tmp_path):
    p = write(tmp_path, "p", b"abab")
    t = write(tmp_path, "t", b"zzababzzabab")
    skf = tmp_path / "s.bin"
    dec = tmp_path / "d.json"
    info = tmp_path / "i.json"
    ref = tmp_path / "r.json"
    assert run_cli(["sketch", "encode", "--pattern", p, "--text", t, "-k", "1", "--chars", "--out", str(skf)]) == 0
    assert run_cli(["sketch", "decode", "--sketch", str(skf), "--json", str(dec)]) == 0
    assert run_cli(["sketch", "inspect", "--sketch", str(skf), "--json", str(info)]) == 0
    assert run_cli(["match", "--pattern", p, "--text", t, "-k", "1", "--reference", "--json", str(ref)]) == 0
    want = load(ref)["occurrences"]
    got = load(dec)["occurrences"]
    assert got == want
    meta = load(info)
    assert meta["size_bits"] == 8 * skf.stat().st_size
    assert meta["window_count"] == len(meta["windows"])


def test_corrupt_sketch_exit_3(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTASKETCH")
    assert run_cli(["sketch", "decode", "--sketch", str(bad)]) == 3


def test_analyze_selfed_lz(tmp_path):
    p = write(tmp_path, "p", bytes(range(64)) * 2)
    out = tmp_path / "a.json"
    assert run_cli(["analyze", "--pattern", p, "-k", "2", "--json", str(out)]) == 0
    assert load(out)["kind"] in ("breaks", "regions", "period")

    sx = write(tmp_path, "x", b"aa")
    out2 = tmp_path / "s.json"
    assert run_cli(["selfed", "--input", sx, "--json", str(out2)]) == 0
    assert load(out2)["selfed"] == 2

    lx = write(tmp_path, "y", b"abacabcabcaaaab")
    out3 = tmp_path / "l.json"
    assert run_cli(["lz", "--input", lx, "--json", str(out3)]) == 0
    got = load(out3)
    assert got["count"] == 8
    assert got["phrases"] == [
        [ord("a"), 0], [ord("b"), 0], [0, 1], [ord("c"), 0],
        [0, 2], [3, 5], [10, 3], [8, 1],
    ]


def test_gen_lb_and_match_recovers(tmp_path):
    meta = tmp_path / "m.json"
    tf, pf = tmp_path / "t.bin", tmp_path / "p.bin"
    assert run_cli([
        "gen-lb", "-n", "120", "-m", "6", "-k", "2", "--seed", "5",
        "--text-out", str(tf), "--pattern-out", str(pf), "--json", str(meta),
    ]) == 0
    occ_json = tmp_path / "o.json"
    assert run_cli(["match", "--pattern", str(pf), "--text", str(tf), "-k", "2", "--json", str(occ_json)]) == 0
    occ = {o["start"] for o in load(occ_json)["occurrences"]}
    planted = load(meta)["planted"]
    period = 2 * 6 - 2
    for q, ones in enumerate(planted):
        got = [i for i in range(5) if q * period + i not in occ]
        assert got == ones


def test_tokens_format(tmp_path):
    p = write(tmp_path, "p", b"300 301")
    t = write(tmp_path, "t", b"1 300 301 2")
    out = tmp_path / "out.json"
    assert run_cli(["--format", "tokens", "match", "--pattern", p, "--text", t, "-k", "0", "--json", str(out)]) == 0
    assert any(o["start"] == 1 and o["cost"] == 0 for o in load(out)["occurrences"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "editsketch.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "match" in proc.stdout
