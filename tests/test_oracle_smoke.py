"""In-suite oracle smoke: a fast sample of queries() entries compared to
their oracle_sql() in DuckDB with the mirror's own normalize logic, so
gate-vs-oracle drift is caught by `pytest` between full mirror runs —
not only when tools/check_correctness.py is invoked by hand."""

from __future__ import annotations

import os
import sys

import duckdb
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
sys.path.insert(0, REPO)

from check_correctness import OverRowCap, normalize, to_pandas  # noqa: E402

SF = "/root/testdata/sf0.001"

# cheap, structurally diverse sample: BM25 scoring, bool, top-k, aggs,
# language-analyzer SQL chains, search-body options, sorts
SMOKE = [
    "ft_term", "ft_bool", "ft_topk", "agg_terms", "agg_histogram",
    "ft_analyze_french", "ft_analyze_hungarian", "ft_analyze_stemmer",
    "ft_post_filter", "ft_track_total_hits", "ft_sort_script",
    "ft_sort_missing_last", "ft_scroll_sliced", "ft_pit",
    # session-5 ES|QL + field types + training batch
    "esql_query", "agg_aggregate_metric", "agg_histogram_field",
    "ingest_append_tags", "curriculum_order", "contamination_report",
    "knn_max_inner_product",
    # session-5 search/agg surface
    "ft_pinned", "ft_combined_fields", "agg_categorize_text",
    "agg_change_point", "search_mvt", "ilm_explain", "graph_explore",
    "ft_version_field", "agg_time_series", "flattened_query",
    # session-4 analytics aggs
    "agg_multi_terms", "agg_top_metrics", "agg_boxplot", "agg_rate",
    "agg_string_stats", "agg_normalize", "agg_cumulative_cardinality",
    # session-4 REST surface
    "cat_shards", "cluster_health", "indices_stats", "ft_stored_fields",
    # session-4 training-data ops
    "training_pack_sequences", "eql_sequence", "transform_pivot",
    # session-4 vector + stream ops
    "knn_filtered", "knn_l2", "data_stream_rollover", "ingest_enrich",
    "sql_query", "training_shuffle", "agg_geo_line",
    "agg_t_test", "ft_runtime_field", "ft_sparse_vector",
    "agg_moving_percentiles", "ccs_search", "ccs_clusters",
    "async_search", "ft_analyze_offsets",
    "decontaminate_exact", "reindex_sliced", "ft_hybrid_linear",
    "agg_ip_prefix", "agg_frequent_item_sets", "events_retention",
    "rollup_search", "agg_random_sampler",
    "ingest_fingerprint", "knn_similarity_threshold", "resolve_index",
    "corpus_vocab_growth", "cluster_stats",
    # every gate counted by the shared tokenize-and-count kernel
    # (functions/lm.py count_batch)
    "top_terms", "corpus_zipf_slope", "agg_rare_terms",
    "tokenizer_vocab_coverage", "ft_analyze_shingle", "ft_analyze_synonym",
    "ft_analyze_keyword_repeat", "annotated_text_terms",
    "agg_significant_text", "agg_significant_terms", "agg_significant_gnd",
    "agg_significant_chi2", "agg_significant_mi",
    "agg_significant_percentage", "agg_significant_script",
    "agg_significant_bg_filter", "agg_significant_text_dedup",
    "phrase_suggest", "ft_suggest_collate", "ft_weighted_tokens",
    "dsir_importance", "lm_perplexity", "dsir_weights", "pmi_collocations",
    "lm_ngram_counts", "lm_perplexity_bigram", "lm_perplexity_kn",
]


@pytest.fixture(scope="module")
def oracle_env(ray_session):
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')")
    return entry.queries(), entry.oracle_sql(), con


@pytest.mark.parametrize("name", SMOKE)
def test_oracle_smoke(name, oracle_env):
    queries, oracles, con = oracle_env
    got = normalize(to_pandas(queries[name](SF)))
    want = normalize(con.execute(oracles[name]).df())
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), name
    import pandas.testing as pdt

    pdt.assert_frame_equal(got, want, check_dtype=False,
                           check_exact=False, atol=1e-9)


def test_to_pandas_row_cap(ray_session):
    """The mirror reads a Dataset result through limit(cap + 1) and refuses
    one over the cap instead of materializing it whole."""
    import ray.data as rd

    assert len(to_pandas(rd.range(10), cap=10)) == 10
    with pytest.raises(OverRowCap):
        to_pandas(rd.range(11), cap=10)
