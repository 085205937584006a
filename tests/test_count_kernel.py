"""The tokenize-and-count kernel (functions/lm.py count_batch/count_terms)
and its users, each checked against a per-doc Counter reference."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from elasticsearch_ray.analyzer import analyze_simple, get_analyzer
from elasticsearch_ray.functions.lm import count_batch, count_terms
from elasticsearch_ray.sources.reader import plan_fragments
from elasticsearch_ray.stages.tokenize import sample_hot_terms

TEXTS = ["Data query data window", None, "window merge", "", "data data",
         "Merge; DATA-query 42", None, "query"]
LANGS = ["zh", "en", "zh", "zh", None, "en", "zh", "zh"]


def _batch(texts=TEXTS, langs=LANGS) -> pa.Table:
    return pa.table({"text": pa.array(texts, pa.string()),
                     "lang": pa.array(langs, pa.string())})


def _reference(texts, langs, *, distinct, fg_lang="zh"):
    cnt, fg = Counter(), Counter()
    for text, lang in zip(texts, langs):
        toks = analyze_simple(text) if text is not None else []
        if distinct:
            toks = set(toks)
        cnt.update(toks)
        if lang == fg_lang:
            fg.update(toks)
    return cnt, fg


def _as_dict(t: pa.Table, col: str, key: str = "term") -> dict:
    return dict(zip(t[key].to_pylist(), t[col].to_pylist()))


def _is_zh(t, toks):
    return np.asarray(t["lang"]) == "zh"


@pytest.mark.parametrize("distinct", [False, True])
def test_count_batch_matches_counter(distinct):
    got = count_batch(_batch(), analyze_simple, distinct=distinct, fg=_is_zh)
    cnt, fg = _reference(TEXTS, LANGS, distinct=distinct)
    assert _as_dict(got, "cnt") == dict(cnt)
    assert {k: v for k, v in _as_dict(got, "fg").items() if v} == dict(fg)
    assert got.schema.field("cnt").type == pa.int64()


def test_count_batch_key_name_and_no_fg_column():
    got = count_batch(_batch(), analyze_simple, key="token")
    assert got.column_names == ["token", "cnt"]


def test_count_batch_empty_and_null_only():
    for t in (_batch().slice(0, 0), _batch([None, None], ["zh", "en"])):
        got = count_batch(t, analyze_simple, distinct=True, fg=_is_zh)
        assert got.num_rows == 0
        assert got.schema == pa.schema([("term", pa.string()),
                                        ("cnt", pa.int64()),
                                        ("fg", pa.int64())])


def test_count_terms_sums_batches(ray_session):
    import ray.data as rd

    texts = TEXTS * 25
    langs = LANGS * 25
    ds = rd.from_arrow(_batch(texts, langs)).repartition(5)
    # a lambda pickles by value; Ray workers cannot import this test module
    got = count_terms(ds, analyze_simple, distinct=True,
                      fg=lambda t, toks: np.asarray(t["lang"]) == "zh")
    cnt, fg = _reference(texts, langs, distinct=True)
    assert dict(zip(got["term"], got["cnt"].tolist())) == dict(cnt)
    assert {k: v for k, v in zip(got["term"], got["fg"].tolist()) if v} \
        == dict(fg)
    assert str(got["cnt"].dtype) == "int64" and str(got["fg"].dtype) == "int64"


def _hot_reference(src, analyzer="code", sample_docs=512, hot_df_ratio=0.10,
                   max_hot=64):
    """sample_hot_terms spelled out: the same strided docs, a per-doc
    Counter of distinct terms, the same cut and (count, term) order."""
    frags = plan_fragments(src)
    an = get_analyzer(analyzer)
    df: Counter = Counter()
    seen = 0
    for f in frags[::max(1, len(frags) // 8)]:
        t = pq.ParquetFile(f.path).read_row_group(f.row_group,
                                                  columns=["content"])
        for text in t["content"].to_pylist()[: max(1, sample_docs // 8)]:
            seen += 1
            df.update(set(an(text or "")))
            if seen >= sample_docs:
                break
        if seen >= sample_docs:
            break
    cut = max(1.0, hot_df_ratio * seen)
    hot = sorted(((c, t) for t, c in df.items() if c >= cut),
                 reverse=True)[:max_hot]
    return frozenset(t for _, t in hot)


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    from elasticsearch_ray.sources.corpus import write_corpus

    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, 800, rows_per_file=1000, row_group_size=100, use_ray=True)
    return d


@pytest.mark.parametrize("kw", [{}, {"sample_docs": 100, "max_hot": 8},
                                {"hot_df_ratio": 0.5}])
def test_sample_hot_terms_test_corpus(corpus_dir, kw):
    want = _hot_reference(corpus_dir, **kw)
    assert want
    assert sample_hot_terms(corpus_dir, analyzer="code", **kw) == want


def test_sample_hot_terms_generated_code_corpus(tmp_path):
    from perfbench.corpus import write_corpus

    d = str(tmp_path / "gen")
    write_corpus(d, 1, 4000, 1000)
    want = _hot_reference(d)
    assert want
    assert sample_hot_terms(d, analyzer="code") == want
