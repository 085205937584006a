"""Alternative similarities (DFR / IB / LMDirichlet / LMJelinekMercer /
boolean — SimilarityProviders.java:89-100,283-360) vs an independent
brute-force implementation computed straight from token lists."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.search.altsim import make_similarity
from elasticsearch_ray.search.engine import IndexSearcher

DOCS = [
    "data query window data",
    "query window merge",
    "data data data batch window",
    "merge batch slow",
    "window",
    "data merge query window batch slow fast index shard node",
    "slow slow slow data",
    "batch",
]


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("altsim")
    src = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "repo": ["r"] * len(DOCS), "path": [f"f{i}" for i in range(len(DOCS))],
        "commit": ["c"] * len(DOCS), "lang": ["x"] * len(DOCS),
        "content": DOCS,
    }), src)
    out = str(d / "idx")
    build_index(src, out, analyzer="simple", docs_per_partition=4,
                num_buckets=4)
    return out


def _stats(term: str):
    """(tf per doc, dl per doc, df, F, N, sumdl, avgdl) from raw tokens."""
    toks = [doc.split() for doc in DOCS]
    dls = [len(t) for t in toks]
    tfs = {i: t.count(term) for i, t in enumerate(toks) if term in t}
    df = len(tfs)
    F = sum(tfs.values())
    N = len(DOCS)
    sumdl = sum(dls)
    return tfs, dls, df, F, N, sumdl, sumdl / N


def _searcher(index_dir, sim):
    return IndexSearcher(index_dir, score_mode="exact64", similarity=sim)


def _engine_scores(s, term: str) -> dict[int, float]:
    ids, sc = s._eval({"kind": "term", "term": term})
    return dict(zip(ids.tolist(), sc.tolist()))


LOG2 = math.log(2.0)


def brute(sim_name, term, **params) -> dict[int, float]:
    tfs, dls, df, F, N, sumdl, avgdl = _stats(term)
    p = (F + 1.0) / (sumdl + 1.0)
    out = {}
    for i, tf in tfs.items():
        dl = dls[i]
        if sim_name == "LMDirichlet":
            mu = params["mu"]
            out[i] = max(0.0, math.log(1 + tf / (mu * p))
                         + math.log(mu / (dl + mu)))
        elif sim_name == "LMJelinekMercer":
            lam = params["lam"]
            out[i] = math.log(1 + ((1 - lam) * tf / dl) / (lam * p))
        elif sim_name == "DFR":
            tfn = _brute_tfn(tf, dl, avgdl, params)
            bm = params["basic_model"]
            if bm == "in":
                basic = tfn * (math.log((N + 1) / (df + 0.5)) / LOG2)
            elif bm == "ine":
                ne = N * (1 - ((N - 1) / N) ** F)
                basic = tfn * (math.log((N + 1) / (ne + 0.5)) / LOG2)
            elif bm == "if":
                basic = tfn * (math.log(1 + (N + 1) / (F + 0.5)) / LOG2)
            else:
                lam = F / N
                basic = (math.log(1 + lam) + tfn * math.log((1 + lam) / lam)) / LOG2
            ae = params["after_effect"]
            gain = ((F + 1) / (df * (tfn + 1)) if ae == "b"
                    else 1 / (tfn + 1) if ae == "l" else 1.0)
            out[i] = gain * basic
        elif sim_name == "IB":
            tfn = _brute_tfn(tf, dl, avgdl, params)
            lam = df / N if params["lamb"] == "df" else F / N
            if params["distribution"] == "ll":
                out[i] = math.log(1 + tfn / lam)
            else:
                lam = min(lam, 1 - 1e-12)
                out[i] = -math.log((lam ** (tfn / (tfn + 1)) - lam) / (1 - lam))
        elif sim_name == "boolean":
            out[i] = params.get("boost", 1.0)
    return out


def _brute_tfn(tf, dl, avgdl, params):
    norm = params.get("normalization", "h2")
    c = params.get("c", 1.0)
    z = params.get("z", 0.30)
    if norm == "no":
        return float(tf)
    if norm == "h1":
        return c * tf * (avgdl / dl)
    if norm == "h2":
        return tf * (math.log(1 + c * avgdl / dl) / LOG2)
    return tf * (avgdl / dl) ** z


CONFIGS = [
    ("LMDirichlet", {"mu": 2000.0}),
    ("LMDirichlet", {"mu": 500.0}),
    ("LMJelinekMercer", {"lam": 0.1}),
    ("LMJelinekMercer", {"lam": 0.7}),
    ("DFR", {"basic_model": "if", "after_effect": "b", "normalization": "h2"}),
    ("DFR", {"basic_model": "in", "after_effect": "l", "normalization": "h1"}),
    ("DFR", {"basic_model": "ine", "after_effect": "b", "normalization": "z"}),
    ("DFR", {"basic_model": "g", "after_effect": "no", "normalization": "no"}),
    ("IB", {"distribution": "ll", "lamb": "df", "normalization": "h2"}),
    ("IB", {"distribution": "spl", "lamb": "ttf", "normalization": "h1"}),
    ("boolean", {}),
]


@pytest.mark.parametrize("sim_name,params", CONFIGS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CONFIGS)])
def test_altsim_matches_bruteforce(index_dir, sim_name, params):
    sim = make_similarity(sim_name, **params)
    s = _searcher(index_dir, sim)
    for term in ("data", "window", "slow", "batch"):
        got = _engine_scores(s, term)
        want = brute(sim_name, term, **params)
        assert set(got) == set(want), (sim_name, term)
        for i in want:
            assert got[i] == pytest.approx(want[i], rel=1e-12), (
                sim_name, params, term, i)


def test_altsim_disjunction_sums(index_dir):
    """match OR under an alt similarity sums per-term scores (the
    BooleanQuery should-sum), like BM25."""
    s = _searcher(index_dir, make_similarity("LMJelinekMercer", lam=0.1))
    ids, sc = s._eval({"kind": "match", "text": "data window"})
    a = brute("LMJelinekMercer", "data", lam=0.1)
    b = brute("LMJelinekMercer", "window", lam=0.1)
    want = {i: a.get(i, 0.0) + b.get(i, 0.0) for i in set(a) | set(b)}
    got = dict(zip(ids.tolist(), sc.tolist()))
    assert set(got) == set(want)
    for i in want:
        assert got[i] == pytest.approx(want[i], rel=1e-12)


def test_altsim_search_skips_bm25_fastpaths(index_dir):
    """search() must rank by the alt-sim scores when an alternative
    similarity is active, not by BM25."""
    sim = make_similarity("LMDirichlet", mu=2000.0)
    s = IndexSearcher(index_dir, score_mode="exact64", similarity=sim)
    ids, sc = s.search({"kind": "term", "term": "data", "k": 3})
    want = brute("LMDirichlet", "data", mu=2000.0)
    order = sorted(want, key=lambda i: (-want[i], i))[:3]
    assert ids.tolist() == order
    np.testing.assert_allclose(sc, [want[i] for i in order], rtol=1e-12)


def test_altsim_boost_and_boolean(index_dir):
    s = _searcher(index_dir, make_similarity("boolean"))
    ids, sc = s._eval({"kind": "term", "term": "data", "boost": 2.5})
    assert np.all(sc == 2.5)
    s2 = _searcher(index_dir, make_similarity("DFR", basic_model="if",
                                              after_effect="b"))
    base = dict(zip(*[x.tolist() for x in s2._eval(
        {"kind": "term", "term": "data"})]))
    boosted = dict(zip(*[x.tolist() for x in s2._eval(
        {"kind": "term", "term": "data", "boost": 3.0})]))
    for i in base:
        assert boosted[i] == pytest.approx(3.0 * base[i], rel=1e-12)


def test_make_similarity_rejects_unknown():
    with pytest.raises(ValueError):
        make_similarity("classic")
    with pytest.raises(ValueError):
        make_similarity("DFR", basic_model="p")  # unsupported model
    with pytest.raises(ValueError):
        make_similarity("LMJelinekMercer", lam=1.5)


def test_scripted_similarity():
    """ScriptedSimilarity.java analog: user callable over the stats tuple,
    vectorized, non-negative clamped, boost applied outside."""
    import numpy as np
    from elasticsearch_ray.search.altsim import make_similarity

    s = make_similarity("scripted",
                        script=lambda tf, dl, df, ttf, n, sdl, avg: tf / dl - 0.3)
    got = s.score_tf(np.array([2, 8]), np.array([10, 10]), 3, 9, 100,
                     1000, 10.0, boost=2.0)
    # 2/10-0.3 = -0.1 -> clamped 0; 8/10-0.3 = 0.5 -> x2 boost
    assert got.tolist() == [0.0, 1.0]
    import pytest

    with pytest.raises(TypeError):
        make_similarity("scripted", script="not callable")
