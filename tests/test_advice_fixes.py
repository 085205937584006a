"""Round-3 fixes from the round-2 advisory review:

1. script / script_score run through a whitelisted-AST sandbox (no eval).
2. query_string tokenizes field-scoped phrases (`title:"data query"`).
3. Per-field queries are partition-invariant under DistributedSearcher
   (field-qualified DFS keys + global per-field avgdl).
4. Dictionary prefix slices use chr(0x10FFFF), not U+FFFF, as the upper
   bound so supplementary-plane terms are expandable.
5. foreach / sort_list handle sliced and null-bearing ListArrays.
6. The incremental MinHash dedup falls back to per-id predicate calls when
   the predicate raises on an id array.
7. The SQL planner finds a FROM-subquery only outside string literals.
8. compile_painless rewrites operators, booleans and `new X(` only outside
   string literals.
9. A Painless for-each variable goes out of scope when its loop ends.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.scripting import ScriptError, safe_eval_expr
from elasticsearch_ray.search.engine import parse_query_string


# ---------- 1. sandbox ----------

def test_safe_eval_arithmetic():
    env = {"_score": np.array([1.0, 2.0]), "x": np.array([3.0, 4.0]),
           "log1p": np.log1p}
    out = safe_eval_expr("_score * 2 + log1p(x)", env)
    np.testing.assert_allclose(out, [2 + np.log1p(3), 4 + np.log1p(4)])


def test_safe_eval_compare_and_bool():
    env = {"v": np.array([1.0, 5.0, 9.0])}
    out = safe_eval_expr("(v > 2) & (v < 8)", env)
    assert list(out) == [False, True, False]
    out = safe_eval_expr("v > 2 and v < 8", env)
    assert list(out) == [False, True, False]
    out = safe_eval_expr("1 < v < 8", env)  # chained comparison
    assert list(out) == [False, True, False]


@pytest.mark.parametrize("payload", [
    "().__class__.__bases__[0].__subclasses__()",
    "(1).__class__",
    "[x for x in (1,)]",
    "__import__('os')",
    "lambda: 1",
    "x[0]",
    "f'{x}'",
    "b'abc'",
])
def test_safe_eval_rejects_escapes(payload):
    with pytest.raises(ScriptError):
        safe_eval_expr(payload, {"x": np.array([1.0])})


def test_safe_eval_allows_string_literals():
    # round 4: str constants are data (Painless String-method arguments);
    # bytes and every other constant kind stay rejected
    assert safe_eval_expr("'abc'", {}) == "abc"


def test_script_query_sandboxed(searcher_tiny):
    # behavioral parity: the script query still filters on docmeta fields
    ids, sc = searcher_tiny._eval(
        {"kind": "script", "script": "doc_len > 5"})
    assert ids.size > 0
    with pytest.raises(ScriptError):
        searcher_tiny._eval(
            {"kind": "script",
             "script": "().__class__.__bases__[0].__subclasses__()"})


# ---------- 2. field-scoped phrase in query_string ----------

def test_query_string_field_phrase():
    q = parse_query_string('title:"data query"')
    assert q == {"kind": "match_phrase", "text": "data query", "field": "title"}


def test_query_string_field_phrase_slop_boost():
    q = parse_query_string('title:"data query"~2^1.5')
    assert q["kind"] == "match_phrase" and q["field"] == "title"
    assert q["slop"] == 2 and q["boost"] == 1.5


def test_query_string_field_phrase_in_bool():
    q = parse_query_string('body:"big tree" AND fox')
    kinds = {(c["kind"], c.get("field")) for c in q["must"]}
    assert ("match_phrase", "body") in kinds
    assert ("match", None) in kinds


# ---------- fixtures for index-backed cases ----------

@pytest.fixture(scope="module")
def searcher_tiny(field_index):
    from elasticsearch_ray.search.engine import IndexSearcher

    return IndexSearcher(field_index)


@pytest.fixture(scope="module")
def field_index(tmp_path_factory, ray_session):
    """Multi-segment index with an extra `title` field (per-field postings)."""
    from elasticsearch_ray.index.build import build_index

    rng = np.random.default_rng(7)
    vocab = ["quick", "brown", "fox", "lazy", "dog", "tree", "node", "graph"]
    tvocab = ["alpha", "beta", "fox", "gamma", "node"]
    n = 240
    texts = [" ".join(rng.choice(vocab, size=rng.integers(4, 12)))
             for _ in range(n)]
    titles = [" ".join(rng.choice(tvocab, size=rng.integers(1, 4)))
              if i % 7 else None for i in range(n)]
    # keys only the first segment holds (main-field and title)
    for i in (1, 2, 3):
        texts[i] += " zebra"
        titles[i] += " omega"
    d = tmp_path_factory.mktemp("fidx")
    src = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "repo": ["r"] * n,
        "path": [f"f{i}.py" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["en"] * n,
        "content": texts,
        "title": titles,
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), src, row_group_size=60)  # one row group per partition: 4 segments
    idx = str(d / "idx")
    build_index(src, idx, analyzer="simple", docs_per_partition=60,
                num_buckets=4, hot_terms=frozenset(),
                extra_content_columns=("title",))
    return idx


# ---------- 3. distributed per-field parity ----------

def test_distributed_field_queries_match_global(field_index):
    from elasticsearch_ray.search.distributed import DistributedSearcher
    from elasticsearch_ray.search.engine import IndexSearcher

    glob = IndexSearcher(field_index)
    dist = DistributedSearcher(field_index, num_searchers=3)
    queries = [
        {"kind": "term", "term": "fox", "field": "title", "k": 15},
        {"kind": "match", "text": "fox node", "field": "title", "k": 15},
        {"kind": "multi_match", "text": "fox node",
         "fields": ["content", "title^2"], "type": "best_fields", "k": 15},
        {"kind": "multi_match", "text": "fox node",
         "fields": ["content", "title"], "type": "most_fields", "k": 15},
        {"kind": "multi_match", "text": "fox node",
         "fields": ["content", "title"], "type": "cross_fields", "k": 15},
        {"kind": "query_string", "query": 'title:"fox" OR content:tree', "k": 15},
    ]
    for q in queries:
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), f"doc order mismatch: {q}"
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-6, err_msg=str(q))


def test_field_stats_cache_invalidated_on_global_stats(field_index):
    from elasticsearch_ray.index.manifest import committed_segments, live_segments
    from elasticsearch_ray.search.engine import IndexSearcher

    segs = sorted(live_segments(committed_segments(field_index)))
    part = IndexSearcher(field_index, segments=[segs[0]])
    part._field_stats("title")
    assert "title" in part._field_stats_cache
    glob = IndexSearcher(field_index)
    part.set_global_stats(glob.n_docs, glob.sum_doc_len, {},
                          glob.local_field_sums())
    assert part._field_stats_cache == {}  # invalidated, rebuilt lazily
    assert part._field_stats("title")[2] == pytest.approx(
        glob._field_stats("title")[2])


def test_actor_global_stats_equal_global_searcher(field_index):
    """Every SearcherActor installs the whole index's df and ttf for every
    dictionary key (field-qualified ones included), N, sum_doc_len and the
    per-field token totals — also on a partition that lacks a key."""
    from elasticsearch_ray.index.manifest import committed_segments, live_segments
    from elasticsearch_ray.search.distributed import SearcherActor
    from elasticsearch_ray.search.engine import IndexSearcher

    glob = IndexSearcher(field_index)
    segs = sorted(live_segments(committed_segments(field_index)))
    assert len(segs) == 4
    keys = sorted({str(k) for seg in glob.segments for k in seg.terms})
    assert "title\x1fomega" in keys and "zebra" in keys
    for i in range(3):  # DistributedSearcher's round-robin partitions
        s = SearcherActor(field_index, segs[i::3], segs).searcher
        assert (s.n_docs, s.sum_doc_len) == (glob.n_docs, glob.sum_doc_len)
        assert s._field_stats("title")[2] == glob._field_stats("title")[2]
        for k in keys:
            tp = glob._get_term_key(k)
            assert s._global_stats(k) == (tp.df, int(tp.tfs.sum())), k
    lone = SearcherActor(field_index, [segs[1]], segs).searcher
    for term, field in (("zebra", None), ("omega", "title")):
        assert lone._get_term(term, field) is None
        assert lone.global_df(term, field) == glob.global_df(term, field) == 3


# ---------- 4. supplementary-plane prefix expansion ----------

def test_prefix_slices_cover_supplementary_plane():
    from elasticsearch_ray.search.engine import TERM_MAX

    terms = sorted(["za", "zb", "z\U0001F600", "z￿", "aa"])
    st = np.array(terms, dtype=object)
    a = np.searchsorted(st, "z")
    b = np.searchsorted(st, "z" + TERM_MAX, side="left")
    got = set(st[a:b])
    assert got == {"za", "zb", "z\U0001F600", "z￿"}


# ---------- 5. list-array normalization in ingest ----------

def test_foreach_on_sliced_list():
    import pyarrow.compute as pc

    from elasticsearch_ray.functions.ingest import foreach

    base = pa.array([[1, 2], [3], [4, 5, 6], [7]])
    sliced = base.slice(1, 3)  # non-zero offset
    t = pa.table({"v": sliced})
    out = foreach("v", lambda c: pc.multiply(c, 10))(t)
    assert out["v"].to_pylist() == [[30], [40, 50, 60], [70]]


def test_foreach_on_null_lists():
    import pyarrow.compute as pc

    from elasticsearch_ray.functions.ingest import foreach

    t = pa.table({"v": pa.array([[1, 2], None, [3]])})
    out = foreach("v", lambda c: pc.add(c, 1))(t)
    assert out["v"].to_pylist() == [[2, 3], None, [4]]


def test_sort_list_sliced_and_null():
    from elasticsearch_ray.functions.ingest import sort_list

    base = pa.array([[9.0, 1.0], [5.0, 3.0, 4.0], None, [2.0]])
    t = pa.table({"v": base.slice(1, 3)})
    out = sort_list("v")(t)
    assert out["v"].to_pylist() == [[3.0, 4.0, 5.0], None, [2.0]]
    t2 = pa.table({"v": base})
    out2 = sort_list("v", order="descending")(t2)
    assert out2["v"].to_pylist() == [[9.0, 1.0], [5.0, 4.0, 3.0], None, [2.0]]


def test_compile_expression_forms():
    from elasticsearch_ray.scripting import ScriptError, compile_expression

    assert compile_expression("doc['n'].value + 1") == "n + 1"
    assert compile_expression("a && b || c") == "a  and  b  or  c"
    # && / || compile to BoolOp and/or, which the sandbox vectorizes —
    # NOT '&'/'|', whose precedence would mis-group comparisons
    import numpy as np

    from elasticsearch_ray.scripting import safe_eval_expr

    src = compile_expression("doc['a'].value > 1 && doc['b'].value > 2")
    got = safe_eval_expr(src, {"a": np.array([2.0, 0.0]),
                               "b": np.array([3.0, 3.0])})
    assert got.tolist() == [True, False]
    out = compile_expression("x > 1 ? 2 : 3")
    assert out.startswith("where(") and "2" in out and "3" in out
    # nested, parenthesized, right-associative all compile to where() chains
    for src in ["a>1 ? (b>0 ? 2 : 3) : 4", "(x>1 ? 2 : 3)+1",
                "a?1:b?2:3"]:
        assert "?" not in compile_expression(src)
    import pytest

    with pytest.raises(ScriptError):
        compile_expression("a ? 1")  # unbalanced ternary


def test_expression_lang_script_evaluates():
    import numpy as np

    from elasticsearch_ray.scripting import resolve_script, safe_eval_expr

    src = resolve_script({"lang": "expression",
                          "source": "doc['v'].value > 2 ? 10 : 20"})
    out = safe_eval_expr(src, {"v": np.array([1.0, 3.0]),
                               "where": np.where})
    assert out.tolist() == [20, 10]


# ---------- 6. incremental near-dup predicate that raises on arrays ----------

def test_minhash_new_ids_pred_scalar_fallback_on_raise(ray_session):
    """`new_ids_pred` is tried on the whole id array first; a predicate
    that raises there (set membership: numpy arrays are unhashable) must
    fall back to per-id calls and give the vectorized predicate's pairs."""
    import ray.data as rd

    from elasticsearch_ray.functions.dedup import minhash_verified_pairs_ds

    base = "the quick brown fox jumps over the lazy dog near the river bank"
    texts = [base + f" tail{i % 3}" if i % 4 == 0 else
             f"unique document number {i} with its own words w{i} x{i * 7}"
             for i in range(40)]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(40), pa.int64()),
                                 "text": texts}))
    new = {0, 12, 24}

    def pairs(pred):
        out = minhash_verified_pairs_ds(ds, threshold=0.5, num_perm=32,
                                        bands=8, new_ids_pred=pred)
        return sorted(map(tuple, out.to_pandas()[["doc_a", "doc_b"]]
                          .to_numpy().tolist()))

    want = pairs(lambda i: np.isin(i, sorted(new)))
    assert want
    assert pairs(lambda i: i in new) == want


# ---------- 7. FROM ( inside a string literal is not a derived table ----------

def test_sql_from_paren_inside_literal_is_not_a_subquery(ray_session):
    import duckdb
    import pandas as pd

    from elasticsearch_ray.functions.sql import _extract_from_subquery, run_sql
    from elasticsearch_ray.pipelines.ops import _ds

    sf = "/root/testdata/sf0.001"
    sql = ("SELECT event_type, COUNT(*) AS n FROM events "
           "WHERE event_type <> 'from (select x)' "
           "GROUP BY event_type ORDER BY event_type")
    assert _extract_from_subquery(sql) is None
    got = run_sql(sql, sf, ds_factory=_ds)
    want = duckdb.sql(sql.replace(
        "FROM events", f"FROM read_parquet('{sf}/events.parquet')")).df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_dtype=False)
    # a real derived table after such a literal is still found
    sub = _extract_from_subquery(
        "SELECT n FROM (SELECT COUNT(*) AS n FROM events "
        "WHERE event_type <> 'from (x)') AS t")
    assert sub is not None and sub[1].startswith("SELECT COUNT(*)")


# ---------- 8. Painless rewrites leave string literals alone ----------

def test_painless_rewrites_skip_string_literals():
    from elasticsearch_ray.scripting import (
        compile_painless, compile_painless_script, safe_eval_script)

    assert compile_painless("doc['status'].value == 'true'") == "status == 'true'"
    assert compile_painless("doc['s'].value == 'new Foo('") == "s == 'new Foo('"
    assert compile_painless('x == "a && !b || false"') == 'x == "a && !b || false"'
    # outside the literals the rewrites still apply
    assert compile_painless("!a && 'x' == 'false' || true") == \
        "not a  and  'x' == 'false'  or  True"
    env = {"status": np.array(["true", "false", "True"], dtype=object),
           "params": {}, "where": np.where}
    out = safe_eval_expr(compile_painless("doc['status'].value == 'true'"), env)
    assert list(out) == [True, False, False]
    st = compile_painless_script(
        "def s = 'x;true'; return doc['status'].value == 'true' ? s : 'new A('")
    assert list(safe_eval_script(st, env)) == ["x;true", "new A(", "new A("]


# ---------- 9. a for-each variable is scoped to its loop ----------

def test_painless_foreach_variable_scoped_to_loop():
    from elasticsearch_ray.scripting import compile_painless_script, safe_eval_script

    env = {"params": {"a": [1, 2], "b": [10]}}
    st = compile_painless_script(
        "def s = 0; for (x : params.a) { s += x; } "
        "for (x : params.b) { s += x; } return s")
    assert safe_eval_script(st, env) == 13
    st = compile_painless_script(
        "def s = 0; for (x : params.a) { s += x; } return x")
    with pytest.raises(ScriptError, match="unknown name 'x'"):
        safe_eval_script(st, env)
    # the name is free again after the loop
    st = compile_painless_script(
        "for (x : params.a) { } def x = 5; return x")
    assert safe_eval_script(st, env) == 5
