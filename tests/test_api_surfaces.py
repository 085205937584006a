"""Small-surface search APIs (round 3c): search templates, filtered
aliases, min_score, indices_boost, source filtering, terms enumeration,
profile breakdown.

Reference surfaces mirrored: modules/lang-mustache (search templates),
AliasMetadata#filter, SearchSourceBuilder#minScore/#indexBoosts,
FetchSourceContext, SearchProfileShardResults."""

from __future__ import annotations

import numpy as np
import pytest

from elasticsearch_ray.pipelines import ops

SF = "/root/testdata/sf0.001"


def test_render_search_template_params():
    t = '{"kind": "match", "text": "{{q}}", "k": {{size}}, "boost": {{b}}}'
    q = ops.render_search_template(t, {"q": "data query", "size": 5, "b": 1.5})
    assert q == {"kind": "match", "text": "data query", "k": 5, "boost": 1.5}


def test_render_search_template_missing_param_raises():
    with pytest.raises(KeyError):
        ops.render_search_template('{"k": {{size}}}', {})


def test_alias_filter_subset_preserves_scores(ray_session):
    aliased = ops.ft_alias_filter(SF)
    full = ops.ft_term(SF).to_pandas()  # unfiltered term 'data', by doc_id
    merged = aliased.merge(full, on="doc_id", suffixes=("_alias", "_full"))
    # every aliased hit exists in the unfiltered result with the SAME score:
    # the alias filter runs in filter context and never contributes scoring
    assert len(merged) == len(aliased) > 0
    assert np.allclose(merged["score_alias"], merged["score_full"])


def test_min_score_cutoff(ray_session):
    out = ops.ft_min_score(SF)
    assert (out["score"] >= 0.75).all()
    # and it is exactly the >=0.75 slice of the unfiltered match
    s = ops.documents_searcher(SF)
    ids, sc = s._eval({"kind": "match", "text": "data query window"})
    assert len(out) == int((sc >= 0.75).sum())


def test_indices_boost_multiplies_by_source(ray_session):
    out = ops.ft_indices_boost(SF)
    base = ops.ft_term(SF).to_pandas()
    m = out.merge(base, on="doc_id", suffixes=("_boosted", "_base"))
    s = ops.documents_searcher(SF)
    src = s.fetch(m["doc_id"].to_numpy(), ["source"])["source"].to_numpy(
        zero_copy_only=False)
    mult = np.where(src == "src1", 2.0, np.where(src == "src2", 1.3, 1.0))
    assert np.allclose(m["score_boosted"], np.round(m["score_base"] * mult, 3),
                       atol=2e-3)


def test_source_filtering_excludes_text(ray_session):
    out = ops.ft_source_filtering(SF)
    assert "text" not in out.columns
    assert {"doc_id", "lang", "source", "n_chars", "score"} <= set(out.columns)
    assert len(out) == 5


def test_terms_enum_prefix_and_dfs(ray_session):
    out = ops.ft_terms_enum(SF)
    assert len(out) > 0
    assert all(t.startswith("s") for t in out["term"])
    assert (out["doc_count"] > 0).all()
    assert list(out["term"]) == sorted(out["term"])


def test_profile_counts_consistent(ray_session):
    out = ops.ft_profile(SF)
    by = dict(zip(out["description"], out["doc_count"]))
    assert by["+text:data +text:window"] <= min(by["text:data"],
                                                by["text:window"])


def test_search_body_post_filter_keeps_total(ray_session):
    # post_filter narrows hits, NOT the total (aggs-side) count
    from elasticsearch_ray.pipelines.fulltext import documents_searcher

    s = documents_searcher(SF)
    plain = s.search_body({"kind": "term", "term": "data"}, k=10_000)
    filt = s.search_body(
        {"kind": "term", "term": "data"},
        post_filter={"kind": "meta_term", "field": "source", "value": "src1"},
        k=10_000)
    assert filt["total"] == plain["total"]
    assert filt["ids"].size < plain["ids"].size
    src = s.fetch(filt["ids"], ["source"])["source"].to_pylist()
    assert set(src) == {"src1"}


def test_search_body_terminate_and_track_total(ray_session):
    from elasticsearch_ray.pipelines.fulltext import documents_searcher

    s = documents_searcher(SF)
    t = s.search_body({"kind": "term", "term": "data"}, terminate_after=7)
    assert t["terminated_early"] and t["total"] == 7
    assert t["ids_all"].size == 7
    # collection order = doc-id order: the 7 smallest matching doc ids
    full = s.search_body({"kind": "term", "term": "data"}, k=10_000)
    import numpy as np

    assert sorted(t["ids_all"]) == sorted(np.sort(full["ids_all"])[:7])
    capped = s.search_body({"kind": "term", "term": "data"},
                           track_total_hits=10)
    assert (capped["total"], capped["relation"]) == (10, "gte")
    exact = s.search_body({"kind": "term", "term": "data"},
                          track_total_hits=10_000_000)
    assert exact["relation"] == "eq"


def test_search_body_docvalue_fields_aligned(ray_session):
    from elasticsearch_ray.pipelines.fulltext import documents_searcher

    s = documents_searcher(SF)
    r = s.search_body({"kind": "term", "term": "query"},
                      docvalue_fields=["source", "n_chars"], k=5)
    assert r["fields"].num_rows == r["ids"].size
    assert r["fields"].column_names == ["source", "n_chars"]


def test_pit_view_frozen_under_delta(ray_session):
    """PIT semantics: the pinned view never sees the delta docs, its scores
    are REPEATABLE (identical on re-open), and the delta commit really went
    through the resumable-build path (exactly two live segments)."""
    from elasticsearch_ray.index.manifest import committed_segments, live_segments
    from elasticsearch_ray.search.engine import IndexSearcher

    idx, pit_segs = ops._pit_setup(SF)
    segs = live_segments(committed_segments(idx))
    assert len(segs) == 2 and len(pit_segs) == 1
    n_base = int(sorted(segs)[1].rsplit("_", 1)[1])  # delta segment offset

    q = {"kind": "term", "term": "data"}
    pit = IndexSearcher(idx, segments=pit_segs, score_mode="exact64",
                        main_field="text")
    live = IndexSearcher(idx, score_mode="exact64", main_field="text")
    pit_ids, pit_sc = pit._eval(q)
    live_ids, _ = live._eval(q)
    assert pit_ids.size and (pit_ids < n_base).all()
    assert (live_ids >= n_base).any()  # delta docs visible live
    # repeatable: a re-opened PIT over the same ids scores identically
    pit2 = IndexSearcher(idx, segments=pit_segs, score_mode="exact64",
                         main_field="text")
    ids2, sc2 = pit2._eval(q)
    assert np.array_equal(np.sort(pit_ids), np.sort(ids2))
    assert np.allclose(np.sort(pit_sc), np.sort(sc2))


def test_sliced_scroll_disjoint_complete(ray_session):
    """SliceBuilder partition law: the 3 slices are pairwise disjoint and
    their union is exactly the hash-assigned top pages per slice."""
    out = ops.ft_scroll_sliced(SF)
    keys = out.o_orderkey.to_numpy()
    assert len(np.unique(keys)) == len(keys)  # disjoint
    h = (keys.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    assert np.array_equal(h % np.uint64(3),
                          out.slice_id.to_numpy().astype(np.uint64))


def test_validate_query_strict_parser(ray_session):
    """_validate/query: strict parse rejects malformed query_string input
    (unbalanced parens, unterminated quote, dangling operator) while the
    lenient search path still best-effort-parses the same strings."""
    from elasticsearch_ray.search.engine import (
        QueryParseError,
        parse_query_string,
    )

    for bad in ("data AND (query", '"data query', "data AND",
                "a OR", "a (b))", "NOT"):
        with pytest.raises(QueryParseError):
            parse_query_string(bad, strict=True)
        parse_query_string(bad)  # lenient path must not raise
    tree = parse_query_string('a AND (b OR "c d")~oops'.replace("~oops", ""),
                              strict=True)
    assert tree["kind"] == "bool"

    out = ops.ft_validate_query(SF)
    assert out.valid.tolist() == [True, False, False, False, True,
                                  False, False, True, False, True]
    # validate() returns the parse error as the explanation
    s = ops.documents_searcher(SF)
    ok, expl = s.validate({"kind": "query_string", "query": "data AND ("})
    assert not ok and "QueryParseError" in expl
    ok, expl = s.validate({"kind": "term", "term": "data"})
    assert ok and "term" in expl


def test_suggest_modes(ray_session):
    """SuggestMode semantics: missing suppresses in-vocab inputs, popular
    filters candidates to strictly-higher df, always is unconstrained."""
    from elasticsearch_ray.pipelines.fulltext import suggest_terms

    always = suggest_terms(SF, "part", suggest_mode="always").to_pandas()
    popular = suggest_terms(SF, "part", suggest_mode="popular").to_pandas()
    missing_in = suggest_terms(SF, "part", suggest_mode="missing").to_pandas()
    missing_oov = suggest_terms(SF, "quer", suggest_mode="missing").to_pandas()
    assert len(missing_in) == 0
    assert len(missing_oov) > 0
    assert set(popular.term) <= set(always.term)


def test_stored_scripts_registry(ray_session):
    from elasticsearch_ray.scripting import (
        ScriptError,
        delete_stored_script,
        get_stored_script,
        inline_stored_scripts,
        put_stored_script,
        resolve_script,
    )

    put_stored_script("s1", "_score * 2.0")
    assert get_stored_script("s1") == "_score * 2.0"
    assert resolve_script({"id": "s1"}) == "_score * 2.0"
    assert resolve_script({"source": "x + 1"}) == "x + 1"
    assert resolve_script("plain") == "plain"
    q = inline_stored_scripts({"kind": "bool", "must": [
        {"kind": "script_score", "query": {"kind": "term", "term": "a"},
         "script": {"id": "s1"}}]})
    assert q["must"][0]["script"] == "_score * 2.0"
    delete_stored_script("s1")
    with pytest.raises(ScriptError):
        resolve_script({"id": "s1"})
    with pytest.raises(SyntaxError):
        put_stored_script("bad", "def x(: )")


def test_fuzzy_prefix_length_and_max_expansions(ray_session):
    """FuzzyQuery options: prefix_length restricts expansions to the shared
    prefix; max_expansions caps them by (distance, term)."""
    s = ops.documents_searcher(SF)
    base = s._expand_fuzzy("sow", 2)
    assert set(base) == {"row", "slow", "sort"}
    pref = s._expand_fuzzy("sow", 2, prefix_length=1)
    assert set(pref) == {"slow", "sort"}
    cap = s._expand_fuzzy("sow", 2, prefix_length=1, max_expansions=1)
    assert cap == ["slow"]  # distance 1 beats distance 2
    ids_all, _ = s._eval({"kind": "fuzzy", "term": "sow", "fuzziness": 2})
    ids_cap, _ = s._eval({"kind": "fuzzy", "term": "sow", "fuzziness": 2,
                          "prefix_length": 1, "max_expansions": 1})
    assert set(ids_cap) <= set(ids_all)


def test_search_analyzer_override(ray_session):
    """search_analyzer (TextFieldMapper#searchAnalyzer): query-time synonym
    makes 'rapid' score exactly as 'fast'; without the override 'rapid'
    matches nothing; index tokens untouched."""
    from functools import partial

    from elasticsearch_ray.analyzer import register_analyzer
    from elasticsearch_ray.filters import make_analyzer_fn, synonym_filter
    from elasticsearch_ray.pipelines.fulltext import B, K1, documents_index
    from elasticsearch_ray.search.engine import IndexSearcher

    register_analyzer("t_syn", make_analyzer_fn(
        token_filters=[partial(synonym_filter, mapping={"rapid": "fast"})]))
    idx = documents_index(SF)
    plain = IndexSearcher(idx, score_mode="exact64", k1=K1, b=B,
                          main_field="text")
    syn = IndexSearcher(idx, score_mode="exact64", k1=K1, b=B,
                        main_field="text",
                        search_analyzers={None: "t_syn"})
    ids0, _ = plain._eval({"kind": "match", "text": "rapid"})
    assert ids0.size == 0
    ids1, sc1 = syn._eval({"kind": "match", "text": "rapid"})
    ids2, sc2 = plain._eval({"kind": "match", "text": "fast"})
    assert np.array_equal(np.sort(ids1), np.sort(ids2))
    assert np.allclose(np.sort(sc1), np.sort(sc2))
    # search() honors it too
    t1 = syn.search({"kind": "match", "text": "rapid", "k": 5})
    t2 = plain.search({"kind": "match", "text": "fast", "k": 5})
    assert list(t1[0]) == list(t2[0])


def test_zero_terms_query_none_vs_all(ray_session):
    s = ops.documents_searcher(SF)
    ids_none, _ = s._eval({"kind": "match", "text": "??? !!!"})
    assert ids_none.size == 0
    ids_all, sc = s._eval({"kind": "match", "text": "??? !!!",
                           "zero_terms_query": "all"})
    assert ids_all.size == s.n_docs
    assert np.allclose(sc, 1.0)


def test_multi_match_bool_prefix_equals_manual_bool(ray_session):
    s = ops.documents_searcher(SF)
    ids_mm, sc_mm = s._eval({"kind": "multi_match", "text": "data quer",
                             "fields": ["text"], "type": "bool_prefix"})
    terms = s.analyzer("data quer")
    manual = {"kind": "bool",
              "should": [{"kind": "term", "term": t} for t in terms[:-1]]
              + [{"kind": "prefix", "prefix": terms[-1]}]}
    ids_b, sc_b = s._eval(manual)
    assert np.array_equal(np.sort(ids_mm), np.sort(ids_b))


def test_multi_match_phrase_matches_single_field_phrase(ray_session):
    s = ops.documents_searcher(SF)
    ids_mm, _ = s._eval({"kind": "multi_match", "text": "data query",
                         "fields": ["text", "source"], "type": "phrase"})
    ids_p, _ = s._eval({"kind": "match_phrase", "text": "data query"})
    assert np.array_equal(np.sort(ids_mm), np.sort(ids_p))


def test_intervals_fuzzy_equals_fuzzy_query_doc_set(ray_session):
    s = ops.documents_searcher(SF)
    ids_i, _ = s._eval({"kind": "intervals",
                        "rule": {"fuzzy": {"term": "quary", "fuzziness": 1}}})
    ids_f, _ = s._eval({"kind": "fuzzy", "term": "quary", "fuzziness": 1})
    assert np.array_equal(np.sort(ids_i), np.sort(ids_f))


def test_multi_index_resolution_and_merge(ray_session):
    import pytest as _pytest

    m = ops._multi_index_searcher(SF)
    assert m.resolve("docs-*") == ["docs-en", "docs-other"]
    assert m.resolve("docs-en,docs-other") == ["docs-en", "docs-other"]
    with _pytest.raises(KeyError):
        m.resolve("nope")
    # per-index stats: same doc text scores differently across indices
    allm = m.search_all("docs-*", {"kind": "term", "term": "data"})
    assert set(allm["index"].to_pylist()) == {"docs-en", "docs-other"}
    # union size equals the single-index doc-set size over the full corpus
    s = ops.documents_searcher(SF)
    ids_full, _ = s._eval({"kind": "term", "term": "data"})
    assert allm.num_rows == ids_full.size
    # top-k merge is score-desc and k-bounded
    top = m.search("docs-*", {"kind": "term", "term": "data"}, k=7)
    sc = top["score"].to_numpy()
    assert top.num_rows == 7 and (np.diff(sc) <= 1e-12).all()


def test_fuzzy_transpositions_vs_plain(ray_session):
    s = ops.documents_searcher(SF)
    # 'dtaa' is an adjacent swap away from 'data': OSA distance 1, plain
    # Levenshtein 2 — only the transpositions mode reaches it at fuzz 1
    ids_t, _ = s._eval({"kind": "fuzzy", "term": "dtaa", "fuzziness": 1,
                        "transpositions": True})
    ids_p, _ = s._eval({"kind": "fuzzy", "term": "dtaa", "fuzziness": 1})
    ids_data, _ = s._eval({"kind": "term", "term": "data"})
    assert ids_t.size >= ids_data.size
    assert np.isin(ids_data, ids_t).all()
    assert not np.isin(ids_data, ids_p).all() or ids_p.size == 0


def test_bulk_wire_format(ray_session):
    """_bulk NDJSON action stream: per-id seq ordering, create-conflict,
    update-missing, delete-then-create semantics
    (BulkRequestParser + TransportShardBulkAction)."""
    import json

    from elasticsearch_ray.sources.bulk import apply_bulk, parse_bulk

    lines = [
        json.dumps({"index": {"_id": 1}}), json.dumps({"v": 1}),
        json.dumps({"create": {"_id": 1}}), json.dumps({"v": 99}),  # conflict
        json.dumps({"update": {"_id": 1}}), json.dumps({"doc": {"w": 2}}),
        json.dumps({"index": {"_id": 2}}), json.dumps({"v": 5}),
        json.dumps({"delete": {"_id": 2}}),
        json.dumps({"create": {"_id": 2}}), json.dumps({"v": 6}),  # re-create
        json.dumps({"update": {"_id": 3}}), json.dumps({"doc": {"v": 7}}),  # missing
        json.dumps({"delete": {"_id": 4}}),  # missing
    ]
    recs = parse_bulk(lines)
    assert [r["op"] for r in recs][:3] == ["index", "create", "update"]
    out = apply_bulk(recs)
    state = {int(i): (json.loads(d), int(e))
             for i, d, e in zip(out["_id"], out["doc"], out["errors"])}
    assert state[1] == ({"v": 1, "w": 2}, 1)  # create conflicted, update ok
    assert state[2] == ({"v": 6}, 0)          # delete then create succeeds
    assert 3 not in state and 4 not in state  # missing-doc ops leave nothing
    import pytest

    with pytest.raises(ValueError):
        parse_bulk([json.dumps({"noop": {"_id": 9}})])
    with pytest.raises(ValueError):
        parse_bulk([json.dumps({"index": {"_id": 9}})])  # missing source


def test_script_score_multi_statement(ray_session):
    """script_score with a STATEMENT body (locals + if/else + while)
    inside a query tree: routed through the vectorized masked
    interpreter; verified against the same arithmetic applied to the
    single-expression path's components."""
    s = ops.documents_searcher(SF)
    base = {"kind": "term", "term": "data"}
    ids0, sc0 = s._eval(base)
    q = {"kind": "script_score", "query": base, "script": (
        "def b = _score * 2.0;"
        "if (n_chars > 100) { b = b + 1.0; } else { b = b - 1.0; }"
        "def h = n_chars * 1.0; def steps = 0;"
        "while (h >= 50) { h = h / 2.0; steps += 1; }"
        "return b + steps * 0.125;")}
    ids, sc = s._eval(q)
    assert list(ids) == list(ids0)
    nch = s._meta_values("n_chars", ids0).astype(np.float64)
    exp = np.where(nch > 100, sc0 * 2.0 + 1.0, sc0 * 2.0 - 1.0)
    steps = np.zeros_like(nch)
    h = nch.copy()
    while (h >= 50).any():
        m = h >= 50
        h[m] /= 2.0
        steps[m] += 1
    assert np.allclose(sc, exp + steps * 0.125)
    # single-expression scripts still take the fast path unchanged
    ids1, sc1 = s._eval({"kind": "script_score", "query": base,
                         "script": "_score * 2.0"})
    assert np.allclose(sc1, sc0 * 2.0)


def test_documents_index_cache_key_tracks_index_writer_source(tmp_path,
                                                               monkeypatch):
    """The cached documents index is keyed on the source of the modules that
    write the index, so changed build or codec code cannot reuse an index
    written by the old code."""
    import os
    import shutil

    from elasticsearch_ray.pipelines import fulltext as ft

    pkg = os.path.dirname(os.path.dirname(ft.__file__))
    assert set(ft.INDEX_WRITERS) == {"codec.py", "stages/tokenize.py",
                                     "stages/encode.py", "index/build.py"}
    copies = []
    for i, rel in enumerate(ft.INDEX_WRITERS):
        copies.append(str(tmp_path / f"w{i}.py"))
        shutil.copy(os.path.join(pkg, rel), copies[-1])
    assert ft.source_digest(copies) == ft.index_writer_digest()
    with open(copies[1], "a") as f:
        f.write("\n# changed\n")
    changed = ft.source_digest(copies)
    assert changed != ft.index_writer_digest()

    (tmp_path / "documents.parquet").write_bytes(b"")
    tag = ft.documents_index_dir(str(tmp_path))
    assert ft.documents_index_dir(str(tmp_path)) == tag
    monkeypatch.setattr(ft, "index_writer_digest", lambda: changed)
    assert ft.documents_index_dir(str(tmp_path)) != tag
