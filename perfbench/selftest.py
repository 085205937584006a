"""Fast self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py          # oracle and generator, < 5 s
    python3 perfbench/selftest.py --smoke  # plus one short end-to-end run

Exits non-zero on the first failing check.
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus, oracle  # noqa: E402


def f32(x: float) -> float:
    """Round a double to the nearest float (Java's (float) cast)."""
    return struct.unpack("f", struct.pack("f", x))[0]


def test_smallfloat() -> None:
    # Lucene SmallFloat: lengths below 24 are exact; Integer.MAX_VALUE -> 255
    for n in range(24):
        assert oracle.int_to_byte4(n) == n and oracle.byte4_to_int(n) == n
    assert oracle.int_to_byte4(2**31 - 1) == 255
    # 4-bit mantissa: 100 -> 24 + longToInt4(76) = 24 + (0b001 | 4 << 3) = 57 -> 96
    assert oracle.int_to_byte4(100) == 57 and oracle.byte4_to_int(57) == 96
    for n in range(0, 5000, 7):  # decode(encode(n)) <= n, and encode is monotone
        b = oracle.int_to_byte4(n)
        assert oracle.byte4_to_int(b) <= n
        assert oracle.int_to_byte4(oracle.byte4_to_int(b)) == b


def test_bm25_three_docs() -> None:
    """Three documents, scores worked out step by step in float."""
    o = oracle.Bm25Oracle()
    o.add(0, [(["foo", "bar"], [0, 1]),
              (["foo", "foo", "baz"], [0, 2, 3]),
              (["bar"], [0])])
    # N = 3, avgdl = 6 / 3 = 2; lengths 2, 3, 1 are exact norms
    k1, b, avgdl = f32(1.2), f32(0.75), f32(2.0)

    def cache(length: int) -> float:
        return f32(k1 * f32(f32(f32(1.0) - b) + f32(f32(b * f32(length)) / avgdl)))

    def score(idf: float, freq: int, length: int) -> float:
        w = f32(f32(k1 + f32(1.0)) * idf)
        return f32(w * f32(freq / (freq + cache(length))))

    idf_foo = f32(math.log(1 + (3 - 2 + 0.5) / (2 + 0.5)))  # ln(1.6)
    ids, sc = o.search({"kind": "term", "terms": ["foo"], "k": 10})
    assert ids.tolist() == [1, 0], ids
    assert sc.tolist() == [score(idf_foo, 2, 3), score(idf_foo, 1, 2)], sc
    # by hand: w = 2.2 ln 1.6 = 1.034008; doc 1: 2 / (2 + 1.2 (0.25 + 0.75 * 3/2))
    # = 0.547945 -> 0.566580; doc 0: 1 / (1 + 1.2) = 0.454545 -> 0.470004
    assert abs(sc[0] - 0.566580) < 1e-6 and abs(sc[1] - 0.470004) < 1e-6, sc
    # "foo bar" as a phrase: only doc 0 (positions 0, 1); weight uses idf sum
    idf_bar = idf_foo
    ids, sc = o.search({"kind": "phrase", "terms": ["foo", "bar"], "offsets": [0, 1], "k": 10})
    assert ids.tolist() == [0] and sc.tolist() == [score(f32(idf_foo + idf_bar), 1, 2)]
    # disjunction adds clause scores in double, rounds once to float
    ids, sc = o.search({"kind": "match_or", "terms": ["foo", "bar"], "k": 10})
    both = f32(score(idf_foo, 1, 2) + score(idf_bar, 1, 2))
    assert ids.tolist()[0] == 0 and sc.tolist()[0] == both
    # ties on score break by doc id; a prefix query scores 1.0 for every match
    ids, sc = o.search({"kind": "prefix", "prefix": "ba", "k": 10})
    assert ids.tolist() == [0, 1, 2] and sc.tolist() == [1.0, 1.0, 1.0]
    ids, _ = o.search({"kind": "bool", "must": "foo", "should": ["baz"],
                       "must_not": "bar", "k": 10})
    assert ids.tolist() == [1]


def test_generator_determinism() -> None:
    whole = corpus.CorpusSlice(5, 0, 300)
    parts = [corpus.CorpusSlice(5, lo, hi) for lo, hi in ((0, 7), (7, 160), (160, 300))]
    assert whole.contents == [c for p in parts for c in p.contents]
    assert whole.pieces == [x for p in parts for x in p.pieces]
    assert whole.meta == [x for p in parts for x in p.meta]
    assert corpus.CorpusSlice(6, 0, 50).contents != whole.contents[:50]
    with tempfile.TemporaryDirectory(prefix=".perfbench_selftest", dir=ROOT) as d:
        import pyarrow.parquet as pq

        def read(sub, rows_per_file):
            path = os.path.join(d, sub)
            corpus.write_corpus(path, 5, 300, rows_per_file)
            files = sorted(os.listdir(path))
            return [c for f in files
                    for c in pq.read_table(os.path.join(path, f))["content"].to_pylist()]

        assert read("a", 100) == read("b", 300) == whole.contents


def test_pieces_follow_the_rules() -> None:
    """Spot checks of the rendering rules the generator relies on."""
    import numpy as np

    rng = np.random.default_rng(0)
    cases = [
        (["parse", "http"], 0, "parseHttp"), (["parse", "http"], 1, "parse_http"),
        (["parse", "http"], 2, "parse-http"), (["parse", "http"], 3, "ParseHttp"),
        (["http", "server"], 5, "HTTPServer"), (["parse", "http"], 6, "parseHTTP"),
    ]
    for parts, style, text in cases:
        assert corpus._render_identifier(parts, style, rng) == (text, tuple(parts))
    text, pieces = corpus._render_identifier(["node", "tree"], 4, rng)
    assert text.startswith("nodeTree") and pieces[:2] == ("node", "tree")
    assert pieces[2] == text[len("nodeTree"):] and pieces[2].isdigit()
    assert not set(corpus.vocabulary().subwords) & corpus.STOP_WORDS


def test_smoke() -> None:
    p = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                        "--workload", "build", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True, cwd=ROOT,
                       timeout=180)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["end_to_end"]}
    assert set(result["metrics"]) == names


def main() -> int:
    tests = [test_smallfloat, test_bm25_three_docs, test_generator_determinism,
             test_pieces_follow_the_rules]
    if "--smoke" in sys.argv:
        tests.append(test_smoke)
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
