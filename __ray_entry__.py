"""Driver contract for the graft builder (Ray Data target).

entry()      — flagship pipeline at sf0.001: build the documents inverted
               index (resumable, partitioned) and serve the reference-style
               query set through the partition searcher actors.
queries()    — one entry per implemented operator/pipeline (SURVEY.md §2).
oracle_sql() — DuckDB-equivalent SQL for every SQL-expressible operator;
               non-SQL ops (sketches, LSH, heuristics, stubs) are omitted and
               get the driver's rows-only check.

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# Lucene English stop set as a SQL list literal (for the quality oracle)
_STOP_SQL = (
    "['a','an','and','are','as','at','be','but','by','for','if','in','into',"
    "'is','it','no','not','of','on','or','such','that','the','their','then',"
    "'there','these','they','this','to','was','will','with']"
)

# deterministic 64-dim query vector for the esql vector gates (must equal
# elasticsearch_ray.pipelines.ops._ESQL_QVEC)
_QVEC = (
    "0.362,0.674,0.896,0.996,0.961,0.797,0.524,0.181,-0.187,-0.53,-0.801,"
    "-0.963,-0.995,-0.893,-0.669,-0.355,0.007,0.368,0.679,0.899,0.996,0.959,"
    "0.792,0.518,0.174,-0.194,-0.536,-0.805,-0.965,-0.995,-0.89,-0.664,"
    "-0.349,0.014,0.374,0.684,0.902,0.997,0.957,0.788,0.512,0.167,-0.201,"
    "-0.541,-0.809,-0.967,-0.994,-0.886,-0.659,-0.342,0.02,0.381,0.689,"
    "0.905,0.998,0.955,0.784,0.507,0.16,-0.207,-0.547,-0.813,-0.968,-0.993")

# synthetic per-user geo coordinates (one row per user)
_GEO = """
g AS (SELECT user_id,
             ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM (SELECT DISTINCT user_id FROM events))
"""

# positional tokenization prelude (token + 0-based position per doc)
_PTOK = r"""
ptok AS (
  SELECT doc_id, unnest(toks) AS term, generate_subscripts(toks, 1) - 1 AS pos
  FROM (SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> '') AS toks
        FROM documents))
"""

# shared tokenization prelude: mirrors elasticsearch_ray.analyzer.analyze_simple
_TOK = """
tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u
  WHERE t <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
st AS (SELECT (SELECT count(*) FROM documents) AS n,
              (SELECT count(*) FROM tok) AS sumdl)
"""

# BM25 exact64 score (k1=1.2, b=0.75, weight = idf * (k1+1) = idf * 2.2)
_SCORE = (
    "ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf / "
    "(tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl))"
)


def entry() -> Any:
    """Flagship: documents index build + partition-actor BM25 serving at sf0.001."""
    from elasticsearch_ray.pipelines.fulltext import documents_index
    from elasticsearch_ray.search.stage import search_dataset

    sf_dir = "/root/testdata/sf0.001"
    idx = documents_index(sf_dir)
    queries = [
        {"kind": "match", "text": "data query window", "k": 10},
        {"kind": "match", "text": "slow merge", "operator": "and", "k": 10},
        {"kind": "match_phrase", "text": "data query", "k": 10},
        {"kind": "term", "term": "spark", "k": 10},
        {"kind": "bool", "must": [{"kind": "term", "term": "join"}],
         "must_not": [{"kind": "term", "term": "vector"}], "k": 10},
        {"kind": "prefix", "prefix": "cust", "k": 10},
    ]
    return search_dataset(idx, queries, concurrency=2)


def queries() -> dict[str, Callable[[str], Any]]:
    from elasticsearch_ray.pipelines import ops

    names = [
        # Driver correctness window = first 50 entries. Round-5
        # rotation per VERDICT.md: the 24 new round-5 gates (painless
        # statement grammar incl. user functions/break-continue/
        # collections, SQL subqueries + datetime, ML detectors, ILM
        # state machine, scripted-metric-painless) + eql_sample
        # (advice #9) + the next never-driver-checked oracle-bearing
        # ops, oldest sessions first; rows-only ops follow (annotated
        # below); the 150 driver-verified (r01-r04) ops sit at the
        # tail. Registry: 733 unique (709 exact-oracle, 24 rows-only).
        # Head-50 simulated clean four times at sf0.01 this round and
        # once partition-invariant at 7 blocks.
        "painless_if_block", "painless_early_return",
        "painless_loop_harmonic", "painless_while_halving",
        "painless_foreach_params", "painless_math_methods",
        "painless_user_function", "painless_loop_break",
        "painless_continue_sum", "painless_collections",
        "agg_scripted_metric_painless", "sql_subquery_from",
        "sql_subquery_agg_outer", "sql_subquery_nested",
        "sql_interval_arith", "sql_extract_group", "sql_subquery_topn",
        "sql_having_tree", "sql_date_trunc_group", "ilm_phase_actions", "ml_detector_min_max",
        "ml_detector_count", "ml_detector_rare", "ml_bucket_anomaly_score",
        "eql_sample", "ft_analyze_hungarian", "ft_analyze_finnish",
        "ft_analyze_romanian", "ft_analyze_arabic", "ft_analyze_danish",
        "ft_analyze_norwegian", "ft_analyze_swedish",
        "lang_stemmed_index_search", "ft_analyze_russian",
        "ft_analyze_dutch", "ft_analyze_portuguese", "ft_analyze_italian",
        "ft_analyze_spanish", "ft_analyze_german", "ft_analyze_french",
        "agg_percentiles_hdr", "ft_sim_scripted", "ft_analyze_filter_chain",
        "ft_analyze_common_grams", "ft_search_as_you_type",
        "index_sorted_pruning", "geo_shape_envelope", "agg_significant_chi2",
        "ft_span_masked", "agg_diversified_sampler", "mapping_infer",
        "range_field_intersects", "agg_moving_avg_holt",
        "agg_moving_avg_ewma", "geo_polygon", "ft_span_multi",
        "ft_script_query", "ingest_grok_kv", "ft_analyze_mapping",
        "ip_cidr_filter", "ft_multi_match_cross", "ft_intervals_prefix",
        "inner_hits", "ft_matched_queries", "ft_common_terms",
        "ft_analyze_ascii", "ft_analyze_synonym", "ft_analyze_shingle",
        "ft_analyze_edge_ngram", "agg_reverse_nested", "agg_nested",
        "agg_ip_range", "agg_geo_distance", "agg_geotile_grid",
        "agg_geo_centroid", "agg_geo_bounds", "ft_scroll", "parent_id",
        "ft_wrapper", "phrase_suggest", "ft_highlight_unified",
        "ft_span_within", "ft_span_not", "ft_span_first", "ft_span_or",
        "ft_rank_feature", "ft_distance_feature", "ft_script_score",
        "agg_significant_text", "agg_terms_shard_error", "agg_mad",
        "agg_global", "agg_missing", "ft_query_string_adv",
        "ft_multi_match_most", "ft_multi_match_best", "ft_exists",
        "source_roundtrip", "quality_filter", "ingest_pipeline_demo",
        "ft_intervals", "ft_match_bool_prefix", "agg_serial_diff",
        "agg_moving_fn", "agg_bucket_script", "agg_percentiles_bucket",
        "agg_stats_bucket", "ft_match_msm", "ft_termvectors",
        "ft_completion", "reindex_docs", "update_by_query",
        "delete_by_query", "ft_analyze", "percolate", "has_parent",
        "has_child", "range_orders_pruned", "agg_auto_date_histogram",
        "agg_sampler", "geo_distance", "geo_bounding_box", "nested_query",
        "agg_matrix_stats", "agg_date_range", "agg_adjacency_matrix",
        "ft_query_string", "ft_phrase_prefix", "ft_span_near",
        "ingest_extract", "terms_lookup", "agg_filters",
        "agg_significant_terms", "agg_rare_terms", "ft_rescore",
        "snapshot_restore_renamed", "cat_aliases", "keyword_normalizer",
        "redact_pii", "agg_date_histogram_quarter", "sequence_packing",
        "training_mix", "mapping_options", "source_orc_roundtrip",
        "bulk_actions", "forcemerge_api", "agg_significant_script",
        "agg_composite_date_histogram", "search_shards", "text_repetition",
        "phrase_suggest_collate", "dedup_decontaminate", "script_expression",
        "tasks_api", "ingest_attachment", "icu_analyze",
        "phonetic_metaphone", "phonetic_soundex", "annotated_text_terms",
        "annotated_text_analyze", "token_count_field", "mapper_murmur3",
        "mapper_size", "rank_features_query", "scaled_float_range",
        "ingest_geoip", "ingest_user_agent", "ft_intervals_filter",
        "agg_significant_gnd", "ft_fuzzy_transpositions",
        "ft_multi_index_boost", "ft_multi_index", "agg_date_histogram_tz",
        "agg_histogram_options", "agg_terms_options", "ft_intervals_fuzzy",
        "ft_multi_match_bool_prefix", "ft_multi_match_phrase_prefix",
        "ft_multi_match_phrase", "ft_zero_terms",
        "ft_completion_geo_context", "cat_segments", "ft_search_analyzer",
        "ft_span_containing", "ft_fuzzy_options", "ft_highlight_options",
        "geo_shape_multipolygon", "ft_stored_script", "ft_suggest_modes",
        "agg_sibling_buckets", "agg_parent", "agg_children",
        "ft_validate_query", "cat_indices", "ft_mget", "ft_pit",
        "ft_scroll_sliced", "dedup_embedding_lsh_exact", "knn_lsh_exact",
        "dedup_simhash_exact", "dedup_minhash_exact", "dedup_ngram_jaccard",
        "ft_profile", "ft_alias_filter", "ft_mtermvectors",
        "ft_search_template", "ft_script_fields", "ft_source_filtering",
        "ft_indices_boost", "ft_min_score", "ft_terms_enum", "ft_explain",
        "agg_bucket_sort", "agg_bucket_selector",
        "agg_extended_stats_bucket", "rank_eval", "field_caps", "msearch",
        "ft_type", "ft_highlight_fvh", "geo_shape_linestring",
        "geo_shape_disjoint", "geo_shape_within", "geo_shape_polygon_points",
        "ft_completion_fuzzy", "ft_completion_weighted",
        "lang_stop_tokenize", "agg_significant_percentage",
        "agg_significant_mi", "ft_count", "ft_analyze_persian",
        "ft_analyze_cjk", "ft_sim_boolean", "ft_sim_ib", "ft_sim_dfr",
        "ft_sim_lm_jelinek_mercer", "ft_sim_lm_dirichlet", "doc_chunks",
        "pmi_collocations", "tfidf_keywords", "nb_domain_classify",
        "dsir_resample", "lm_perplexity_bigram", "dsir_weights",
        "lm_perplexity", "dedup_keep_one", "dedup_components",
        "rank_eval_metrics", "sliding_window_counts",
        "range_join_events_windows", "asof_join_events_orders",
        "events_sessionize", "join_orders_customer", "embed_cluster_sample",
        "dedup_substring", "url_canonical_dedup", "dedup_paragraph",
        "embed_kmeans", "graph_hits", "text_normalize", "graph_pagerank",
        "embed_score", "dedup_cdc", "cdc_chunks", "corpus_diversity",
        "corpus_split", "ft_fetch_metadata", "ft_span_gap",
        "decontaminate_bloom", "training_mix_temperature", "text_entropy",
        "gopher_repetition", "c4_filter", "gopher_quality",
        "lm_perplexity_kn", "dedup_semantic", "lm_ngram_counts",
        "bpe_pair_counts", "corpus_quantile_filter",
        "corpus_sample_weighted", "corpus_sample_bottomk", "corpus_diff",
        "ft_rank_feature_log_sigmoid", "training_mix_budget", "get_mapping",
        "exists_apis", "ft_sort_nested_mode", "ft_alias_routing",
        "script_languages", "grok_patterns", "indices_close_open",
        "ft_clear_scroll", "cat_snapshots", "cat_templates",
        "ingest_simulate", "msearch_template", "ft_render_template",
        "ft_get_source", "cat_count", "classifier_train_gd",
        "knn_sq_indexed", "knn_binary_quantized", "ft_routed_term",
        "embed_covariance", "ft_rrf_hybrid", "knn_scalar_quantized",
        "cluster_stats", "corpus_vocab_growth", "resolve_index",
        "ingest_fingerprint", "agg_random_sampler", "rollup_search",
        "events_retention", "agg_frequent_item_sets", "agg_ip_prefix",
        "ft_hybrid_linear", "reindex_sliced", "decontaminate_exact",
        "ft_analyze_offsets", "async_search", "ccs_clusters", "ccs_search",
        "agg_moving_percentiles", "ft_sparse_vector", "ft_runtime_field",
        "agg_t_test", "agg_geo_line", "training_shuffle", "sql_query",
        "ingest_enrich", "data_stream_rollover", "knn_l2", "knn_filtered",
        "transform_pivot", "eql_sequence", "training_pack_sequences",
        "ft_stored_fields", "cluster_health", "cat_shards",
        "agg_cumulative_cardinality", "agg_normalize", "agg_string_stats",
        "agg_rate", "agg_boxplot", "agg_top_metrics", "agg_multi_terms",
        "flattened_query", "agg_time_series", "ft_version_field",
        "graph_explore", "ilm_explain", "search_mvt", "agg_change_point",
        "agg_categorize_text", "ft_combined_fields", "ft_pinned",
        "knn_max_inner_product", "contamination_report", "curriculum_order",
        "ingest_append_tags", "agg_histogram_field", "agg_aggregate_metric",
        "esql_query", "source_dup_matrix", "indices_segments",
        "search_shards_nodes", "esql_grok", "curation_funnel", "mget",
        "sql_group_query", "tokenizer_vocab_coverage", "ft_frozen_search",
        "training_span_corruption", "dedup_weighted_sampling",
        "allocation_explain", "slm_retention", "ccr_follow",
        "searchable_snapshot_query", "esql_topk", "esql_lookup_join",
        "esql_mv_expand", "esql_dissect", "knn_hard_negatives",
        "tokenizer_fertility", "completion_contexts", "completion_fuzzy",
        "tsdb_downsample", "watcher_execute", "ml_anomaly_zscore",
        "transform_latest", "esql_rename_drop", "esql_count_distinct",
        "esql_expression", "esql_values_agg", "esql_enrich",
        "esql_stats_extended", "esql_bucket", "ccnet_buckets",
        "esql_completion", "esql_rerank", "esql_categorize", "esql_fork",
        "esql_row", "esql_inlinestats", "esql_scalar_functions", "esql_rrf",
        "esql_ts_rate", "nodes_stats", "esql_ip_functions",
        "esql_change_point", "esql_stats_where", "esql_stats_expression",
        "esql_multi_index", "text_structure_ndjson",
        "text_structure_delimited", "esql_fuse_linear", "esql_top",
        "retriever_rerank", "retriever_linear", "retriever_rrf_tree",
        "ingest_network_direction", "ingest_registered_domain",
        "ingest_uri_parts", "sql_fulltext_agg", "sql_fulltext_score",
        "esql_like_list", "esql_over_time", "eql_until",
        "eql_sequence_three", "eql_head_pipe", "esql_vector_functions",
        "esql_knn", "esql_score_topk", "esql_kql", "esql_qstr",
        "esql_match_phrase", "esql_match_operator", "esql_match",
        "range_date_math", "agg_histogram_hard_bounds",
        "ft_highlight_no_match", "agg_composite_missing_bucket",
        "agg_significant_bg_filter", "agg_date_histogram_bounds",
        "agg_terms_missing", "agg_filters_other_bucket",
        "esql_chained_stats", "sql_select_star", "agg_percentile_ranks_hdr",
        "eql_sequence_by_multi", "ft_analyze_predicate",
        "ft_analyze_condition", "ft_analyze_multiplexer",
        "eql_insensitive_match", "sql_group_by_expression",
        "ingest_conditional", "sql_like_predicate", "sql_where_expression",
        "sql_scalar_projection", "corpus_ngram_novelty", "eql_sequence_runs",
        "ltr_rescore", "simulate_index_template", "agg_geohex_grid",
        "esql_mv_mad", "ft_analyze_japanese", "ft_analyze_korean",
        "ft_analyze_ukrainian", "ft_analyze_polish", "ft_constant_keyword",
        "autoscaling_capacity", "semantic_chunked_search",
        "geo_shape_indexed_polygons", "percolate_ranges",
        "rank_vectors_maxsim", "field_usage_stats", "transform_continuous",
        "cluster_reroute", "ingest_inference", "corpus_zipf_slope",
        "corpus_kl_drift", "esql_mv_zip", "esql_mv_functions2", "sql_pivot",
        "indices_resize", "ingest_circle", "shape_cartesian_disjoint",
        "shape_cartesian_points", "esql_show_info",
        "reload_search_analyzers", "painless_execute",
        "agg_inference_regression", "agg_bucket_count_ks_test",
        "agg_bucket_correlation", "esql_now_datemath", "sql_describe_table",
        "sql_show_tables", "deprecation_info", "cat_allocation",
        "esql_inline_cast", "esql_st_within_disjoint", "esql_st_centroid",
        "esql_st_functions", "esql_hash_functions", "agg_composite_geotile",
        "fls_field_security", "dls_filtered_search", "eql_unique_pipe",
        "esql_stats_mad", "esql_term_multimatch", "wildcard_field_query",
        "ft_index_phrases", "ft_script_score_vectors", "esql_date_nanos",
        "esql_cartesian_distance", "cat_recovery", "mtermvectors",
        "ingest_geo_grid", "esql_st_envelope", "esql_st_extent",
        "ingest_reroute", "ft_text_expansion", "geo_grid_query",
        "sql_cursor_page", "ft_rule_query", "ft_weighted_tokens",
        "esql_scalb_round_to", "ft_render_template_sections",
        "text_structure_log", "ft_annotated_text",
        "murmur3_field_cardinality", "mapper_size_field",
        "percolate_existing_doc", "agg_significant_text_dedup",
        "agg_derivative_unit", "dedup_minhash_incremental",
        "knn_matryoshka_overlap", "dedup_cluster_sizes", "ft_mlt_unlike",
        "ft_case_insensitive", "ft_regexp_interval",
        "ingest_dissect_modifiers", "esql_enrich_range", "snapshot_clone",
        "synthetic_source", "k_anonymity_suppress", "agg_t_test_paired",
        "ft_suggest_collate", "dedup_substring_cut",
        "ft_analyze_keyword_repeat", "agg_moving_fn_holt_winters",
        "dedup_substring_runs", "ml_outlier_detection",
        "sql_select_distinct", "agg_terms_partitions", "ingest_on_failure",
        "search_type_qtf", "dedup_keep_best", "dsir_importance",
        "eql_count_pipe", "eql_tail_pipe", "force_merge_api",
        "indices_get_settings", "cluster_state", "indices_clone",
        # --- rows-only ops (no SQL-expressible oracle; driver does the
        # weaker rows-only check — kept OUT of the head-50 window).
        # Reasons: knn_* (ANN approximation — LSH/IVF/PQ/HNSW recall is
        # probabilistic; recall quality is pytest-asserted vs brute
        # force), dedup_minhash/simhash/embedding_lsh (sketch banding),
        # agg_percentiles/percentile_ranks/variable_width_histogram
        # (T-Digest / HDR / adaptive-bin sketches), bpe_* +
        # training_unigram_tokenizer (iterative trainers — EM/merge
        # loops not SQL-expressible; determinism pytest-asserted),
        # multimodal_* (binary codec outputs), semantic_search /
        # knn_recall_report (model-scored), index_dangling_recovery /
        # index_disk_usage / ingest_community_id (filesystem-state /
        # hash-format outputs verified by round-trip tests).
        "index_dangling_recovery", "ingest_community_id", "index_disk_usage",
        "knn_recall_report", "knn_pq", "knn_ivf_pq", "knn_hnsw",
        "agg_variable_width_histogram", "knn_rescore", "semantic_search",
        "bpe_train_merges", "bpe_token_counts", "dedup_embedding_lsh",
        "agg_percentile_ranks", "knn_ivf", "multimodal_image_resize",
        "multimodal_audio_features", "multimodal_video_frames",
        "agg_percentiles", "dedup_minhash", "dedup_simhash", "knn_lsh",
        "multimodal_image_meta", "esql_where_boolean",
        "esql_where_functions", "esql_eval_case", "esql_where_in_like",
        "esql_eval_string", "esql_where_date", "painless_string_filter",
        "painless_ternary_score", "painless_substring_field",
        "painless_params_filter", "sql_where_or", "sql_where_boolean_tree",
        "sql_where_not_like", "ml_anomaly_mean_value",
        "ml_datafeed_agg_preview", "ml_estimate_model_memory",
        "painless_script_locals", "text_boilerplate_strip",
        "ft_function_score_functions", "ft_function_score_gauss",
        "ft_sort_missing_last", "ft_sort_script", "ft_sort_geo_distance",
        "ft_docvalue_fields", "ft_track_total_hits", "ft_terminate_after",
        "ft_post_filter", "ft_completion_context", "ft_analyze_stemmer",
        "agg_geohash_grid", "agg_scripted_metric", "ft_analyze_thai",
        "ft_analyze_lithuanian", "ft_analyze_irish", "ft_analyze_galician",
        "ft_analyze_estonian", "ft_analyze_chinese", "ft_analyze_catalan",
        "ft_analyze_bengali", "ft_analyze_basque", "ft_analyze_armenian",
        "ft_analyze_brazilian", "ft_analyze_sorani", "ft_analyze_indonesian",
        "ft_analyze_latvian", "ft_analyze_bulgarian", "ft_analyze_czech",
        "ft_analyze_hindi", "ft_analyze_greek", "ft_analyze_turkish",
        "esql_sample", "agg_cartesian_centroid", "agg_cartesian_bounds",
        "bulk_update_merge", "update_conflicts_seq_no", "ft_match_only_text",
        "ft_copy_to", "ft_position_increment_gap",
        "mapping_dynamic_templates", "agg_histogram_min_doc_count",
        "agg_date_histogram_timezone", "agg_terms_order_subagg",
        "ft_script_sort", "count_api", "corpus_unimax_sample",
        "ft_collapse_inner_hits", "text_readability",
        "training_length_buckets", "dedup_url", "indices_stats",
        "ft_bool_msm_forms", "ft_match_fuzziness",
        "completion_skip_duplicates", "mapping_ignore_malformed",
        "date_multi_format", "ft_index_prefixes", "agg_doc_count_field",
        "quality_ensemble", "analyze_api_explain",
        "index_incremental_append", "corpus_shard_writer",
        "ft_norms_disabled", "enrich_geo_match", "agg_t_test_unpaired",
        "index_refresh_visibility", "training_shuffle_order",
        "bulk_external_versioning", "bulk_script_update",
        "ingest_simulate_verbose", "reindex_script", "termvectors_filtered",
        "corpus_datacard", "ft_highlight_no_match_size",
        "knn_similarity_threshold", "ft_rank_feature_negative",
        "ft_regexp_ops", "ft_sqs_operators", "agg_histogram_offset",
        "esql_mv_functions", "ft_type_query", "ft_term", "ft_match_or",
        "ft_match_and", "ft_phrase", "ft_prefix", "ft_bool", "ft_topk",
        "ft_ids", "ft_suggest", "ft_highlight", "agg_terms",
        "agg_date_histogram", "agg_histogram", "agg_stats",
        "agg_extended_stats", "agg_cardinality", "agg_cardinality_hll",
        "agg_composite", "agg_top_hits", "agg_cumsum", "agg_derivative",
        "agg_moving_avg", "agg_weighted_avg", "agg_user_window", "range_agg",
        "search_after_orders", "update_old_new", "dedup_exact",
        "dedup_embedding", "knn_bruteforce", "text_token_count",
        "text_quality", "text_lang_id", "text_fingerprint", "top_terms",
        "ft_fuzzy", "ft_wildcard", "ft_regexp", "ft_terms_set", "ft_dis_max",
        "ft_constant_score", "ft_boosting", "ft_function_score",
        "ft_more_like_this", "ft_paginate",
        "training_unigram_tokenizer",
    ]
    return {n: getattr(ops, n) for n in names}




def _geo_shape_oracle_sqls() -> dict[str, str]:
    """Spatial-free geo_shape oracles: the pentagon's half-planes and the
    linestring's slab-clipping constants are computed here and inlined as
    arithmetic, so DuckDB verifies the geometry kernels through an
    independent formulation (half-plane / Liang-Barsky vs crossing-number /
    orientation tests on the Ray side)."""
    pent = [(0.0, -40.0), (50.0, -10.0), (30.0, 40.0), (-30.0, 40.0),
            (-50.0, -10.0)]  # CCW convex, (lon, lat)
    edges = []
    for i in range(len(pent)):
        (x1, y1), (x2, y2) = pent[i], pent[(i + 1) % len(pent)]
        a, b = (y2 - y1), -(x2 - x1)
        c = a * x1 + b * y1
        edges.append((a, b, c))
    base = """
g AS (SELECT user_id,
             ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon,
             CAST(1 + (user_id % 3) AS DOUBLE) AS h
      FROM (SELECT DISTINCT user_id FROM events))"""
    pt_pred = " AND ".join(
        f"(({a})*lon + ({b})*lat <= ({c}) + 1e-9)" for a, b, c in edges)
    within_pred = " AND ".join(
        f"(({a})*lon + ({b})*lat + ({abs(a)+abs(b)})*h <= ({c}) + 1e-9)"
        for a, b, c in edges)
    sep_terms = ["(50 < lon - h)", "(-50 > lon + h)",
                 "(40 < lat - h)", "(-40 > lat + h)"]
    sep_terms += [
        f"(({a})*lon + ({b})*lat - ({abs(a)+abs(b)})*h > ({c}) + 1e-9)"
        for a, b, c in edges]
    disjoint_pred = " OR ".join(sep_terms)
    line = [(-120.0, -60.0), (40.0, 20.0), (120.0, -30.0)]
    seg_preds = []
    for (px, py), (qx, qy) in zip(line, line[1:]):
        dx, dy = qx - px, qy - py
        seg_preds.append(
            "(GREATEST(LEAST((lon - h - ({px}))/({dx}), (lon + h - ({px}))/({dx})),"
            " LEAST((lat - h - ({py}))/({dy}), (lat + h - ({py}))/({dy})), 0.0)"
            " <= LEAST(GREATEST((lon - h - ({px}))/({dx}), (lon + h - ({px}))/({dx})),"
            " GREATEST((lat - h - ({py}))/({dy}), (lat + h - ({py}))/({dy})), 1.0)"
            " + 1e-9)".format(px=px, py=py, dx=dx, dy=dy))
    line_pred = " OR ".join(seg_preds)

    def convex_pred(ring, inside=True):
        # CCW ring -> conjunction of half-plane tests (strictly inside with
        # the shared 1e-9 tolerance; synthetic .5-offset points never sit on
        # the member edges, verified by the boundary-free edge constants)
        preds = []
        for i in range(len(ring)):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % len(ring)]
            a, b = (y2 - y1), -(x2 - x1)
            c = a * x1 + b * y1
            preds.append(f"(({a})*lon + ({b})*lat <= ({c}) + 1e-9)")
        conj = " AND ".join(preds)
        return f"({conj})" if inside else f"(NOT ({conj}))"

    tri = [(-60.0, -20.0), (-10.0, -20.0), (-35.0, 30.0)]
    sq = [(10.0, -10.0), (60.0, -10.0), (60.0, 40.0), (10.0, 40.0)]
    hole = [(30.0, 5.0), (40.0, 5.0), (40.0, 15.0), (30.0, 15.0)]
    multi_pred = (f"({convex_pred(tri)} OR ({convex_pred(sq)} AND "
                  f"{convex_pred(hole, inside=False)}))")
    sel = "SELECT user_id, lat, lon FROM g WHERE {} ORDER BY user_id"
    return {
        "geo_shape_polygon_points": f"WITH {base}\n{sel.format(pt_pred)}",
        "geo_shape_within": f"WITH {base}\n{sel.format(within_pred)}",
        "geo_shape_disjoint": f"WITH {base}\n{sel.format(disjoint_pred)}",
        "geo_shape_linestring": f"WITH {base}\n{sel.format(line_pred)}",
        "geo_shape_multipolygon": f"WITH {base}\n{sel.format(multi_pred)}",
    }


def _shape_cartesian_oracle_sqls() -> dict[str, str]:
    """Planar `shape`-query oracles (x-pack spatial): the convex query
    quadrilateral's half-planes are inlined as arithmetic — an independent
    half-plane formulation vs the crossing-number / separating-axis
    kernels on the Ray side."""
    quad = [(100.0, 100.0), (800.0, 200.0), (700.0, 800.0), (150.0, 700.0)]
    edges = []
    for i in range(len(quad)):
        (x1, y1), (x2, y2) = quad[i], quad[(i + 1) % len(quad)]
        a, b = (y2 - y1), -(x2 - x1)
        c = a * x1 + b * y1
        edges.append((a, b, c))
    base = """
g AS (SELECT p_partkey,
             ((p_partkey * 7919) % 1000) + 0.5 AS x,
             ((p_partkey * 104729) % 1000) + 0.5 AS y,
             CAST(5 + (p_partkey % 7) AS DOUBLE) AS h
      FROM part)"""
    pt_pred = " AND ".join(
        f"(({a})*x + ({b})*y <= ({c}) + 1e-9)" for a, b, c in edges)
    sep_terms = ["(800 < x - h)", "(100 > x + h)",
                 "(800 < y - h)", "(100 > y + h)"]
    sep_terms += [
        f"(({a})*x + ({b})*y - ({abs(a)+abs(b)})*h > ({c}) + 1e-9)"
        for a, b, c in edges]
    sel = "SELECT p_partkey, x, y FROM g WHERE {} ORDER BY p_partkey"
    return {
        "shape_cartesian_points": f"WITH {base}\n{sel.format(pt_pred)}",
        "shape_cartesian_disjoint":
            f"WITH {base}\n{sel.format(' OR '.join(sep_terms))}",
    }

def _kmeans_oracle_sql(k: int = 8, iters: int = 3) -> str:
    """Lloyd k-means unrolled as chained CTEs: c0 = embeddings of ids 0..k-1;
    each iteration assigns every vector to its nearest centroid
    (list_distance, ties -> lowest cluster id) and recomputes centroids as
    per-dimension means (empty clusters keep the previous centroid); the
    final SELECT is the assignment under the post-iteration centroids —
    exactly functions/clustering.kmeans(k, iters)."""
    parts = [
        "WITH e AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(x AS DOUBLE)) AS v FROM embeddings)",
        f"c0 AS (SELECT vec_id AS cluster, v AS c FROM e WHERE vec_id < {k})",
    ]
    for i in range(1, iters + 1):
        p = i - 1
        parts.append(
            f"a{i} AS (SELECT e.vec_id, (SELECT c{p}.cluster FROM c{p} "
            f"ORDER BY list_distance(e.v, c{p}.c), c{p}.cluster LIMIT 1) "
            f"AS cluster FROM e)")
        parts.append(
            f"m{i} AS (SELECT a{i}.cluster AS cluster, "
            f"generate_subscripts(e.v, 1) AS dim, unnest(e.v) AS val "
            f"FROM a{i} JOIN e USING (vec_id))")
        parts.append(
            f"g{i} AS (SELECT cluster, list(mv ORDER BY dim) AS c FROM "
            f"(SELECT cluster, dim, avg(val) AS mv FROM m{i} "
            f"GROUP BY cluster, dim) GROUP BY cluster)")
        parts.append(
            f"c{i} AS (SELECT c{p}.cluster, coalesce(g{i}.c, c{p}.c) AS c "
            f"FROM c{p} LEFT JOIN g{i} USING (cluster))")
    final = (f"SELECT e.vec_id, (SELECT c{iters}.cluster FROM c{iters} "
             f"ORDER BY list_distance(e.v, c{iters}.c), c{iters}.cluster "
             f"LIMIT 1) AS cluster FROM e ORDER BY e.vec_id")
    return ",\n".join(parts) + "\n" + final


def _semantic_dedup_oracle_sql(k: int = 8, iters: int = 3,
                               tau: float = 0.42) -> str:
    """SemDeDup twin: the unrolled-Lloyd assignment CTEs + an intra-cluster
    cosine self-join at `tau` + the recursive min-label component closure;
    kept rows are non-members plus each component's own-label
    representative."""
    km = _kmeans_oracle_sql(k, iters)
    body, final = km.rsplit("\nSELECT ", 1)
    asg = ("SELECT " + final).replace(" ORDER BY e.vec_id", "")
    # MATERIALIZED hints matter: inlined, the recursive closure re-evaluates
    # the whole kmeans unroll per step (same lesson as the MinHash oracle)
    sql = body.replace("WITH e AS", "WITH RECURSIVE\ne AS MATERIALIZED", 1)
    sql += f""",
asg AS MATERIALIZED ({asg}),
prs AS MATERIALIZED (SELECT a.vec_id AS da, b.vec_id AS db
        FROM asg a JOIN asg b
          ON a.cluster = b.cluster AND a.vec_id < b.vec_id
        JOIN e ea ON ea.vec_id = a.vec_id
        JOIN e eb ON eb.vec_id = b.vec_id
        WHERE list_cosine_similarity(ea.v, eb.v) >= {tau}),
edges AS MATERIALIZED (SELECT da AS a, db AS b FROM prs
                        UNION SELECT db, da FROM prs),
verts AS MATERIALIZED (SELECT DISTINCT a AS v FROM edges),
reach(v, r) AS (SELECT v, v FROM verts
                UNION
                SELECT eg.b, reach.r FROM reach JOIN edges eg ON eg.a = reach.v),
comp AS (SELECT v, MIN(r) AS component FROM reach GROUP BY v)
SELECT a.vec_id, a.cluster FROM asg a
LEFT JOIN comp ON comp.v = a.vec_id
WHERE comp.v IS NULL OR comp.component = a.vec_id
ORDER BY a.vec_id"""
    return sql


def _minhash_oracle_sql(num_perm: int = 32, bands: int = 8,
                        bound: int = 600, threshold: float = 0.8) -> str:
    """The FULL MinHash+LSH dedup re-derived in SQL: char-5-shingle rolling
    hashes and (a*x + b) signatures in HUGEINT with explicit mod-2^64
    wraparound, banded-bucket candidates via 4-tuple equality, exact
    Jaccard verification, and union-find as a recursive min-label
    propagation. The permutation constants are the engine's published
    rng(12345) parameters — configuration, not shared logic. MATERIALIZED
    CTE hints matter: inlined, the recursive component re-evaluates the
    whole signature pipeline per step (measured 104 s -> 9 s)."""
    from elasticsearch_ray.functions.dedup import _minhash_params

    M = 1 << 64
    P = [pow(1000003, 4 - j, M) for j in range(5)]
    a, b = _minhash_params(num_perm)
    rpb = num_perm // bands
    perm_rows = ",".join(
        f"({p},{int(a[p])}::HUGEINT,{int(b[p])}::HUGEINT)" for p in range(num_perm))
    return f"""
WITH s AS MATERIALIZED (SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS t
     FROM documents WHERE doc_id < {bound}),
hd AS MATERIALIZED (SELECT DISTINCT doc_id,
        CAST((ord(substr(t,i,1))::HUGEINT * {P[0]} + ord(substr(t,i+1,1))::HUGEINT * {P[1]}
            + ord(substr(t,i+2,1))::HUGEINT * {P[2]} + ord(substr(t,i+3,1))::HUGEINT * {P[3]}
            + ord(substr(t,i+4,1))::HUGEINT * {P[4]}) % {M} AS HUGEINT) AS sh
      FROM s, unnest(generate_series(1, length(t)-4)) AS u(i)
      WHERE length(t) >= 5),
perms(p, pa, pb) AS (VALUES {perm_rows}),
bands AS MATERIALIZED (
  SELECT doc_id, p // {rpb} AS band, list(mh ORDER BY p) AS key FROM (
    SELECT doc_id, p, MIN(CAST((sh * pa + pb) % {M} AS HUGEINT)) AS mh
    FROM hd CROSS JOIN perms GROUP BY doc_id, p)
  GROUP BY doc_id, p // {rpb}),
cand AS MATERIALIZED (SELECT DISTINCT x.doc_id AS da, y.doc_id AS db
         FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key
              AND x.doc_id < y.doc_id),
g AS MATERIALIZED (SELECT DISTINCT doc_id, substr(t, i, 5) AS gram
      FROM s, unnest(generate_series(1, length(t)-4)) AS u(i) WHERE length(t) >= 5),
sz AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
verified AS MATERIALIZED (
  SELECT da, db FROM (
    SELECT c.da, c.db, count(*) AS i
    FROM cand c JOIN g ga ON ga.doc_id = c.da JOIN g gb
         ON gb.doc_id = c.db AND gb.gram = ga.gram
    GROUP BY c.da, c.db)
  JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
  WHERE i*1.0/(sa.n + sb.n - i) >= {threshold}),
edges AS MATERIALIZED (SELECT da AS x, db AS y FROM verified UNION ALL SELECT db, da FROM verified),
nodes AS MATERIALIZED (SELECT DISTINCT x AS n FROM edges),
cc AS (
  WITH RECURSIVE r(node, lbl) AS (
    SELECT n, n FROM nodes
    UNION
    SELECT e.y, r.lbl FROM r JOIN edges e ON e.x = r.node WHERE r.lbl < e.y
  ) SELECT node, MIN(lbl) AS lbl FROM r GROUP BY node)
SELECT node AS doc_id, lbl AS kept FROM cc ORDER BY doc_id"""


def _minhash_incremental_oracle_sql(num_perm: int = 32, bands: int = 8,
                                    bound: int = 600,
                                    threshold: float = 0.8) -> str:
    """Incremental (new-batch vs existing-corpus) MinHash dedup in SQL:
    the signature/band prelude of _minhash_oracle_sql, with candidates
    constrained to buckets holding BOTH a new (doc_id %% 10 == 0) and an
    existing doc, and exact-Jaccard verification emitted per pair."""
    from elasticsearch_ray.functions.dedup import _minhash_params

    M = 1 << 64
    P = [pow(1000003, 4 - j, M) for j in range(5)]
    a, b = _minhash_params(num_perm)
    rpb = num_perm // bands
    perm_rows = ",".join(
        f"({p},{int(a[p])}::HUGEINT,{int(b[p])}::HUGEINT)"
        for p in range(num_perm))
    return f"""
WITH s AS MATERIALIZED (SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS t
     FROM documents WHERE doc_id < {bound}),
hd AS MATERIALIZED (SELECT DISTINCT doc_id,
        CAST((ord(substr(t,i,1))::HUGEINT * {P[0]} + ord(substr(t,i+1,1))::HUGEINT * {P[1]}
            + ord(substr(t,i+2,1))::HUGEINT * {P[2]} + ord(substr(t,i+3,1))::HUGEINT * {P[3]}
            + ord(substr(t,i+4,1))::HUGEINT * {P[4]}) % {M} AS HUGEINT) AS sh
      FROM s, unnest(generate_series(1, length(t)-4)) AS u(i)
      WHERE length(t) >= 5),
perms(p, pa, pb) AS (VALUES {perm_rows}),
bands AS MATERIALIZED (
  SELECT doc_id, p // {rpb} AS band, list(mh ORDER BY p) AS key FROM (
    SELECT doc_id, p, MIN(CAST((sh * pa + pb) % {M} AS HUGEINT)) AS mh
    FROM hd CROSS JOIN perms GROUP BY doc_id, p)
  GROUP BY doc_id, p // {rpb}),
cand AS MATERIALIZED (SELECT DISTINCT x.doc_id AS da, y.doc_id AS db
         FROM bands x JOIN bands y ON x.band = y.band AND x.key = y.key
              AND x.doc_id % 10 = 0 AND y.doc_id % 10 <> 0),
g AS MATERIALIZED (SELECT DISTINCT doc_id, substr(t, i, 5) AS gram
      FROM s, unnest(generate_series(1, length(t)-4)) AS u(i) WHERE length(t) >= 5),
sz AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
verified AS (
  SELECT da, db, i*1.0/(sa.n + sb.n - i) AS j FROM (
    SELECT c.da, c.db, count(*) AS i
    FROM cand c JOIN g ga ON ga.doc_id = c.da JOIN g gb
         ON gb.doc_id = c.db AND gb.gram = ga.gram
    GROUP BY c.da, c.db)
  JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
  WHERE i*1.0/(sa.n + sb.n - i) >= {threshold})
SELECT da AS new_doc, db AS dup_of, ROUND(j, 6) AS jaccard
FROM verified ORDER BY new_doc, dup_of"""


def _simhash_oracle_sql(bound: int = 600, max_hamming: int = 3) -> str:
    """SimHash + hamming-radius pairs in SQL: the mod-2^64 shingle rolling
    hash (shared prelude with the minhash oracle), per-bit sign-of-sums via
    BIGINT shifts over 32-bit halves (HUGEINT division was 20x slower), and
    pairwise hamming as a per-bit inequality count — quarter-pigeonhole
    bucketing is lossless at <= 3 bits, so the distributed pair set must
    equal this brute-force formulation."""
    M = 1 << 64
    P = [pow(1000003, 4 - j, M) for j in range(5)]
    bit_rows = ",".join(f"({j})" for j in range(64))
    return f"""
WITH s AS MATERIALIZED (SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS t
     FROM documents WHERE doc_id < {bound}),
hd AS MATERIALIZED (SELECT DISTINCT doc_id,
        CAST((ord(substr(t,i,1))::HUGEINT * {P[0]} + ord(substr(t,i+1,1))::HUGEINT * {P[1]}
            + ord(substr(t,i+2,1))::HUGEINT * {P[2]} + ord(substr(t,i+3,1))::HUGEINT * {P[3]}
            + ord(substr(t,i+4,1))::HUGEINT * {P[4]}) % {M} AS HUGEINT) AS sh
      FROM s, unnest(generate_series(1, length(t)-4)) AS u(i)
      WHERE length(t) >= 5),
hs AS MATERIALIZED (SELECT doc_id,
        CAST(sh % 4294967296 AS BIGINT) AS lo,
        CAST(sh // 4294967296 AS BIGINT) AS hi FROM hd),
bits(j) AS (VALUES {bit_rows}),
sbit AS MATERIALIZED (
  SELECT doc_id, j,
         CASE WHEN SUM(CASE WHEN (CASE WHEN j < 32 THEN (lo >> j) & 1
                                       ELSE (hi >> (j - 32)) & 1 END) = 1
                      THEN 1 ELSE -1 END) > 0 THEN 1 ELSE 0 END AS hb
  FROM hs CROSS JOIN bits GROUP BY doc_id, j),
ham AS (SELECT a.doc_id AS da, b.doc_id AS db,
               SUM(CASE WHEN a.hb <> b.hb THEN 1 ELSE 0 END) AS d
        FROM sbit a JOIN sbit b ON a.j = b.j AND a.doc_id < b.doc_id
        GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b FROM ham WHERE d <= {max_hamming}
ORDER BY doc_a, doc_b"""


def _knn_lsh_oracle_sql(n_planes: int = 6, seed: int = 99, k: int = 5,
                        probe_hamming: int = 1) -> str:
    """Hyperplane-LSH ANN re-derived in SQL: signature bits from inlined
    plane constants (the engine's seeded rng output — configuration, not
    logic), probe set = own bucket + every 1-bit flip, cosine top-k within
    probed buckets, ties by (rounded cosine desc, vec_id) exactly like the
    partial-top-k merge. float64 on both sides (gate passes dtype=float64);
    signature signs are fp32/fp64-stable because min |dot| over the table
    is ~60x fp32 rounding error."""
    import numpy as np

    import pyarrow.parquet as pq  # dim from the table the driver reads

    dim = 64
    planes = np.random.default_rng(seed).standard_normal(
        (n_planes, dim)).astype(np.float32)
    plane_lists = ",".join(
        "(" + str(j) + ", [" + ",".join(repr(float(x)) for x in planes[j]) + "]::DOUBLE[])"
        for j in range(n_planes))
    flip_rows = ",".join(f"({1 << j})" for j in range(n_planes))
    return f"""
WITH planes(j, pv) AS (VALUES {plane_lists}),
b AS MATERIALIZED (
  SELECT vec_id, embedding,
         SUM(CASE WHEN list_inner_product(embedding::DOUBLE[], pv) > 0
                  THEN 1 << j ELSE 0 END)::BIGINT AS bucket
  FROM embeddings CROSS JOIN planes GROUP BY vec_id, embedding),
q AS MATERIALIZED (SELECT vec_id AS query_id, embedding AS qe, bucket AS qb
                   FROM b WHERE vec_id < 3),
flips(f) AS (VALUES (0),{flip_rows}),
probe AS (SELECT DISTINCT query_id, qe, xor(qb, f) AS pb FROM q CROSS JOIN flips),
cand AS (SELECT p.query_id, p.qe, v.vec_id, v.embedding
         FROM probe p JOIN b v ON v.bucket = p.pb)
SELECT query_id, vec_id,
       ROUND(list_cosine_similarity(qe::DOUBLE[], embedding::DOUBLE[]), 6) AS cosine,
       CAST(row_number() OVER (PARTITION BY query_id
            ORDER BY ROUND(list_cosine_similarity(qe::DOUBLE[], embedding::DOUBLE[]), 6) DESC,
                     vec_id) AS BIGINT) AS rank
FROM cand
QUALIFY rank <= {k}
ORDER BY query_id, rank"""


def _embedding_lsh_dedup_oracle_sql(threshold: float = 0.4, n_planes: int = 4,
                                    n_rounds: int = 4, seed: int = 99) -> str:
    """Multi-round hyperplane LSH near-dup in SQL: per round, bucket every
    vector by its sign signature (plane constants inlined — the engine's
    seeded rng output, quantized to float32 exactly as shipped), pair
    same-bucket vectors, then union rounds and keep cosine >= threshold.
    Both sides compute signature dots in float64 (gate bits_dtype)."""
    import numpy as np

    dim = 64
    rounds = []
    for r in range(n_rounds):
        planes = np.random.default_rng(seed + 1000 * r).standard_normal(
            (n_planes, dim)).astype(np.float32)
        plane_lists = ",".join(
            f"({r},{j},[" + ",".join(repr(float(x)) for x in planes[j]) + "]::DOUBLE[])"
            for j in range(n_planes))
        rounds.append(plane_lists)
    all_planes = ",".join(rounds)
    return f"""
WITH planes(r, j, pv) AS (VALUES {all_planes}),
b AS MATERIALIZED (
  SELECT r, vec_id, embedding,
         SUM(CASE WHEN list_inner_product(embedding::DOUBLE[], pv) > 0
                  THEN 1 << j ELSE 0 END)::BIGINT AS bucket
  FROM embeddings CROSS JOIN planes GROUP BY r, vec_id, embedding),
pairs AS (SELECT DISTINCT a.vec_id AS doc_a, bb.vec_id AS doc_b,
                 a.embedding AS ea, bb.embedding AS eb
          FROM b a JOIN b bb ON a.r = bb.r AND a.bucket = bb.bucket
               AND a.vec_id < bb.vec_id)
SELECT doc_a, doc_b,
       ROUND(list_cosine_similarity(ea::DOUBLE[], eb::DOUBLE[]), 6) AS cosine
FROM pairs
WHERE list_cosine_similarity(ea::DOUBLE[], eb::DOUBLE[]) >= {threshold}
ORDER BY doc_a, doc_b"""


def _hll_oracle_sql(p: int = 14) -> str:
    """The HLL++ sketch reproduced EXACTLY in SQL — registers are an
    order-independent max, so the distributed sketch is deterministic and
    oracle-able: splitmix64 in HUGEINT (xor via BIGINT 32-bit halves,
    multiply-mod-2^64 via split products), rho from a powers-of-two msb
    join, then the harmonic estimator with the linear-counting small-range
    branch. Upgrades the cardinality sketch from rows-only to exact."""
    M64 = 18446744073709551616
    K0 = 0x9E3779B97F4A7C15
    C1 = 0xBF58476D1CE4E5B9
    C2 = 0x94D049BB133111EB

    def xor64(a, b):
        return (f"((xor(CAST(({a}) // 4294967296 AS BIGINT), CAST(({b}) // 4294967296 AS BIGINT))::HUGEINT * 4294967296)"
                f" + xor(CAST(({a}) % 4294967296 AS BIGINT), CAST(({b}) % 4294967296 AS BIGINT))::HUGEINT)")

    def mulmod(z, c):
        return (f"(((({z}) % 4294967296) * {c}::HUGEINT"
                f" + (((({z}) // 4294967296) * {c}::HUGEINT) % 4294967296) * 4294967296)"
                f" % {M64})")

    def shr(z, s):
        return f"(({z}) // {1 << s})"

    m = 1 << p
    pow2_rows = ",".join(f"({j},{1 << j}::HUGEINT)" for j in range(64))
    z0 = f"((u + {K0}::HUGEINT) % {M64})"
    z1 = mulmod(xor64("z0", shr("z0", 30)), C1)
    z2 = mulmod(xor64("z1", shr("z1", 27)), C2)
    h = xor64("z2", shr("z2", 31))
    return f"""
WITH v AS (SELECT DISTINCT user_id::HUGEINT AS u FROM events),
a0 AS (SELECT u, {z0} AS z0 FROM v),
a1 AS (SELECT u, {z1} AS z1 FROM a0),
a2 AS (SELECT u, {z2} AS z2 FROM a1),
hh AS (SELECT u, {h} AS h FROM a2),
hw AS (SELECT u, h // {1 << (64 - p)} AS idx,
              ((h * {1 << p}) % {M64}) + {1 << (p - 1)} AS w
       FROM hh),
pow2(j, p2) AS (VALUES {pow2_rows}),
msb AS (SELECT u, idx, MAX(j) AS msb FROM hw JOIN pow2 ON w >= p2 GROUP BY u, idx),
regs AS (SELECT idx, MAX(64 - msb) AS reg FROM msb GROUP BY idx),
st AS (SELECT SUM(POW(2.0, -reg)) AS present_inv, COUNT(*) AS n_idx FROM regs),
est AS (SELECT (0.7213 / (1 + 1.079 / {m})) * {m} * {m}
               / (present_inv + ({m} - n_idx) * 1.0) AS e,
               {m} - n_idx AS zeros FROM st)
SELECT CAST(ROUND(CASE WHEN e <= 2.5 * {m} AND zeros > 0
            THEN {m} * ln({m} * 1.0 / zeros) ELSE e END, 0) AS BIGINT) AS cardinality
FROM est"""




def _hdr_ranks_oracle_sql(scale: int = 3, sig: int = 3) -> str:
    """percentile_ranks twin of _hdr_oracle_sql: same banker's-rounded
    scaling and HdrHistogram index math in SQL; each query value's bucket
    index is a precomputed constant (pure function of the literal)."""
    import numpy as np

    k = int(np.ceil(np.log2(2 * 10 ** sig)))
    mask = (1 << k) - 1
    sh = 1 << (k - 1)
    pow2_rows = ",".join(f"({j},{1 << j}::BIGINT)" for j in range(63))
    # query values and their equivalent bucket indices (HdrSketch._indices)
    vals = [50.0, 100.0, 150.0]
    from elasticsearch_ray.aggs.hdr import HdrSketch

    s = HdrSketch(sig, scale)
    idxs = [int(s._indices(np.array([np.int64(round(v * 10 ** scale))],
                                    np.int64))[0]) for v in vals]
    v_rows = ",".join(f"({v}, {i})" for v, i in zip(vals, idxs))

    def bankers(e):
        return (f"(CASE WHEN ({e}) - floor({e}) = 0.5 "
                f"THEN CAST(floor({e}) AS BIGINT) + (CAST(floor({e}) AS BIGINT) % 2) "
                f"ELSE CAST(floor(({e}) + 0.5) AS BIGINT) END)")

    return f"""
WITH x AS MATERIALIZED (
  SELECT {bankers(f"value * {10 ** scale}")} AS s FROM events
  WHERE value IS NOT NULL),
pow2(j, p2) AS (VALUES {pow2_rows}),
mb AS MATERIALIZED (
  SELECT s, (SELECT MAX(j) FROM pow2
             WHERE (GREATEST(s, 0) | {mask}) >= p2) AS msb
  FROM x),
ix AS MATERIALIZED (
  SELECT (bucket + 1) * {sh} + ((GREATEST(s,0) >> bucket) - {sh}) AS idx
  FROM (SELECT GREATEST(s, 0) AS s, msb - {k - 1} AS bucket FROM mb)),
qv(value, qidx) AS (VALUES {v_rows})
SELECT qv.value,
       ROUND(100.0 * (SELECT count(*) FROM ix WHERE ix.idx <= qv.qidx)
             / (SELECT count(*) FROM ix), 6) AS rank_pct
FROM qv ORDER BY qv.value"""


def _hdr_oracle_sql(scale: int = 3, sig: int = 3,
                    qs: tuple = (0.5, 0.9, 0.99)) -> str:
    """The HDR-histogram percentile sketch reproduced EXACTLY in SQL —
    bucket counts merge by addition (order-independent), so the distributed
    sketch is deterministic and oracle-able: the HdrHistogram index math
    (msb via powers-of-two join, sub-bucket shift), the cumulative-count
    rank walk and highest-equivalent-value reconstruction, with numpy's
    BANKER'S rounding replicated at both .5-sensitive spots (value scaling
    and the rank computation) — SQL ROUND is half-away and would diverge
    on exact .5 ticks."""
    import numpy as np

    k = int(np.ceil(np.log2(2 * 10 ** sig)))
    sh = 1 << (k - 1)
    mask = (1 << k) - 1
    pow2_rows = ",".join(f"({j},{1 << j}::BIGINT)" for j in range(63))
    q_rows = ",".join(f"({q})" for q in qs)

    def bankers(e):
        return (f"(CASE WHEN ({e}) - floor({e}) = 0.5 "
                f"THEN CAST(floor({e}) AS BIGINT) + (CAST(floor({e}) AS BIGINT) % 2) "
                f"ELSE CAST(floor(({e}) + 0.5) AS BIGINT) END)")

    return f"""
WITH x AS MATERIALIZED (
  SELECT {bankers(f"value * {10 ** scale}")} AS s FROM events WHERE value IS NOT NULL),
pow2(j, p2) AS (VALUES {pow2_rows}),
mb AS MATERIALIZED (
  SELECT s, (SELECT MAX(j) FROM pow2 WHERE (GREATEST(s, 0) | {mask}) >= p2) AS msb
  FROM x),
ix AS MATERIALIZED (
  SELECT (bucket + 1) * {sh} + ((GREATEST(s,0) >> bucket) - {sh}) AS idx FROM (
    SELECT GREATEST(s, 0) AS s, msb - {k - 1} AS bucket FROM mb)),
cnts AS MATERIALIZED (
  SELECT idx, COUNT(*) AS cnt FROM ix GROUP BY idx),
cum AS MATERIALIZED (
  SELECT idx, SUM(cnt) OVER (ORDER BY idx) AS cum FROM cnts),
tot AS (SELECT SUM(cnt) AS total FROM cnts),
quant(qv) AS (VALUES {q_rows}),
need AS (SELECT qv, GREATEST(1, {bankers("qv * total")}) AS need
         FROM quant CROSS JOIN tot),
sel AS (SELECT n.qv, MIN(c.idx) AS idx FROM need n JOIN cum c ON c.cum >= n.need
        GROUP BY n.qv),
val AS (SELECT qv, idx,
        CASE WHEN idx // {sh} - 1 < 0
             THEN (idx % {sh})
             ELSE ((idx % {sh}) + {sh}) << (idx // {sh} - 1) END
        + (1 << GREATEST(idx // {sh} - 1, 0)) - 1 AS hv
        FROM sel)
SELECT qv AS q, ROUND(hv / {10 ** scale}.0, 3) AS value FROM val ORDER BY q"""


def _multi_index_oracle_sqls() -> dict[str, str]:
    """Per-index BM25 re-derivation for the multi-index gates: each lang
    partition gets its own N/df/avgdl (stats never pool across indices),
    and per-index doc_ids are row_number()-1 over the doc_id order (the
    deterministic ids the split-parquet build assigns)."""

    def part(p: str, cond: str, name: str) -> str:
        return f"""
{p}_docs AS (SELECT row_number() OVER (ORDER BY doc_id) - 1 AS doc_id, text
             FROM documents WHERE {cond}),
{p}_tok AS (SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM {p}_docs) u WHERE t <> ''),
{p}_dl AS (SELECT doc_id, count(*) AS dl FROM {p}_tok GROUP BY doc_id),
{p}_st AS (SELECT (SELECT count(*) FROM {p}_docs) AS n,
                  (SELECT count(*) FROM {p}_tok) AS sumdl),
{p}_tf AS (SELECT doc_id, count(*) AS tf FROM {p}_tok
           WHERE term = 'data' GROUP BY doc_id),
{p}_df AS (SELECT count(*) AS df FROM {p}_tf),
{p}_sc AS (SELECT '{name}' AS idx, tf.doc_id AS doc_id,
       ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf /
       (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)) AS raw
   FROM {p}_tf tf CROSS JOIN {p}_df df CROSS JOIN {p}_st st
   JOIN {p}_dl dl ON dl.doc_id = tf.doc_id)"""

    ctes = ("WITH " + part("en", "lang = 'en'", "docs-en") + ","
            + part("ot", "lang <> 'en'", "docs-other"))
    return {
        "ccs_search": ctes + """,
u AS (SELECT 'docs-en' AS idx, doc_id, raw FROM en_sc
      UNION ALL SELECT 'remote1:docs-en', doc_id, raw FROM en_sc
      UNION ALL SELECT 'remote1:docs-other', doc_id, raw FROM ot_sc)
SELECT idx AS "index", doc_id, ROUND(raw, 4) AS score FROM u
ORDER BY idx, doc_id""",
        "ccs_clusters": ctes + """,
c AS (SELECT (SELECT count(*) FROM en_sc) AS en,
             (SELECT count(*) FROM ot_sc) AS ot)
SELECT 3::BIGINT AS total, 2::BIGINT AS successful, 1::BIGINT AS skipped,
       (en + en + ot)::BIGINT AS hits FROM c""",
        "ft_multi_index": ctes + """,
u AS (SELECT * FROM en_sc UNION ALL SELECT * FROM ot_sc)
SELECT idx AS "index", doc_id, ROUND(raw, 4) AS score FROM u
ORDER BY idx, doc_id""",
        "ft_multi_index_boost": ctes + """,
u AS (SELECT idx, doc_id, raw * 1.5 AS raw FROM en_sc
      UNION ALL SELECT idx, doc_id, raw * 0.7 FROM ot_sc)
SELECT idx AS "index", doc_id, ROUND(raw, 4) AS score FROM u
ORDER BY raw DESC, idx, doc_id LIMIT 10""",
        # close/open lifecycle: phase 1 loses the closed index's hits
        "indices_close_open": ctes + """,
c AS (SELECT (SELECT count(*) FROM en_sc) AS en,
             (SELECT count(*) FROM ot_sc) AS ot)
SELECT p.phase::BIGINT AS phase,
       (CASE WHEN p.phase = 1 THEN en ELSE en + ot END)::BIGINT AS hits
FROM c CROSS JOIN (VALUES (0), (1), (2)) p(phase)
ORDER BY p.phase""",
    }


def oracle_sql() -> dict[str, str]:
    out = _geo_shape_oracle_sqls()
    # round-4 ES|QL grammar-depth gates
    out["esql_where_boolean"] = """
SELECT event_type, COUNT(*) AS n, ROUND(SUM(value), 2) AS s
FROM events
WHERE (event_type = 'click' OR event_type = 'view') AND NOT (value < 20)
GROUP BY event_type ORDER BY event_type"""
    out["esql_where_functions"] = """
SELECT event_type, COUNT(*) AS n
FROM events
WHERE starts_with(event_type, 'c') OR length(event_type) = 4
GROUP BY event_type ORDER BY event_type"""
    out["esql_eval_case"] = """
WITH e AS (SELECT CASE WHEN value < 25 THEN 'low'
                       WHEN value < 75 THEN 'mid'
                       ELSE 'high' END AS band, value FROM events)
SELECT band, COUNT(*) AS n, ROUND(MAX(value), 2) AS m
FROM e GROUP BY band ORDER BY band"""
    out["esql_where_in_like"] = """
SELECT lang, source, COUNT(*) AS n
FROM documents
WHERE lang IN ('en', 'de') AND text LIKE '%data%'
      AND NOT regexp_full_match(source, 'src1.*')
GROUP BY lang, source ORDER BY lang, source"""
    out["esql_eval_string"] = """
WITH e AS (SELECT substr(upper(source), 1, 4) AS s, length(text) AS lw
           FROM documents)
SELECT s, COUNT(*) AS n, MAX(lw) AS wmax
FROM e GROUP BY s ORDER BY s"""
    out["esql_where_date"] = """
SELECT date_trunc('day', ts) AS day, COUNT(*) AS n
FROM events
WHERE extract(hour FROM ts) < 6 AND NOT (event_type = 'error')
GROUP BY 1 ORDER BY 1"""
    # round-4 Painless surface gates
    out["painless_string_filter"] = """
SELECT doc_id FROM documents
WHERE contains(text, 'data') AND lang LIKE 'e%'
ORDER BY doc_id"""
    out["painless_ternary_score"] = """
SELECT doc_id,
       ROUND(CASE WHEN n_chars > 200 THEN n_chars * 0.1
                  ELSE 1.0 + 1.5 END, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_substring_field"] = """
SELECT upper(substr(source, 1, 4)) AS key, COUNT(*) AS doc_count
FROM documents GROUP BY 1 ORDER BY key"""
    out["painless_params_filter"] = """
SELECT doc_id, ROUND(n_chars * 2.0 + 10.0, 2) AS v
FROM documents WHERE lang = 'en' ORDER BY doc_id"""
    # round-4 SQL grammar gates: the oracle IS the same SQL text
    out["sql_where_or"] = """
SELECT event_type, COUNT(*) AS n FROM events
WHERE event_type = 'click' OR event_type = 'view'
GROUP BY event_type ORDER BY event_type"""
    out["sql_where_boolean_tree"] = """
SELECT event_type, COUNT(*) AS n FROM events
WHERE NOT (value < 50) AND (event_type = 'error' OR value > 400)
GROUP BY event_type ORDER BY event_type"""
    out["sql_where_not_like"] = """
SELECT doc_id FROM documents
WHERE lang = 'en' AND NOT text LIKE '%data%'
ORDER BY doc_id"""
    out["text_boilerplate_strip"] = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
ch AS (SELECT doc_id, i AS ci,
              array_to_string(ws[(i*3+1):(i*3+3)], ' ') AS chunk
       FROM w, unnest(generate_series(0,
              CAST(ceil(len(ws)/3.0) AS BIGINT) - 1)) AS u(i)),
hot AS (SELECT chunk FROM (SELECT chunk, COUNT(DISTINCT doc_id) AS df
                           FROM ch GROUP BY chunk) WHERE df >= 5)
SELECT doc_id,
       count(*) AS n_total,
       count(*) FILTER (WHERE chunk IN (SELECT chunk FROM hot))
           AS n_removed,
       coalesce(string_agg(chunk, ' ' ORDER BY ci)
           FILTER (WHERE chunk NOT IN (SELECT chunk FROM hot)), '')
           AS text_clean
FROM ch GROUP BY doc_id ORDER BY doc_id"""
    out["painless_script_locals"] = """
SELECT doc_id,
       ROUND((n_chars / 100.0) * 2.0
             + CASE WHEN lang = 'en' THEN 0.5 ELSE 0.0 END, 4) AS score
FROM documents ORDER BY doc_id"""
    # round-5 Painless CONTROL-FLOW gates (statement grammar: if/else
    # blocks, while/for loops, for-each — scripting._exec_block)
    out["painless_if_block"] = """
SELECT doc_id,
       ROUND(CASE WHEN n_chars >= 800.0 THEN n_chars * 0.5
                  WHEN n_chars >= 300.0 THEN 10.0 + n_chars * 0.1
                  ELSE 1.0 END + 0.25, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_early_return"] = """
SELECT doc_id,
       ROUND(CASE WHEN lang = 'en' THEN n_chars * 2.0
                  WHEN lang = 'de' THEN n_chars + 100.5
                  ELSE n_chars * 0.5 END, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_loop_harmonic"] = """
SELECT doc_id,
       ROUND(n_chars / 1.0 + n_chars / 2.0 + n_chars / 3.0
             + n_chars / 4.0 + n_chars / 5.0, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_while_halving"] = """
WITH RECURSIVE h(doc_id, w, steps) AS (
  SELECT doc_id, CAST(n_chars AS DOUBLE), 0 FROM documents
  UNION ALL
  SELECT doc_id, w / 2.0, steps + 1 FROM h WHERE w >= 10
)
SELECT doc_id, steps FROM h WHERE w < 10 ORDER BY doc_id"""
    out["painless_foreach_params"] = """
SELECT doc_id,
       ROUND(((n_chars * 0.5) * 0.5 + n_chars * 0.25) * 0.5
             + n_chars * 0.125, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_collections"] = """
SELECT doc_id, ROUND(n_chars * 1.0 + 3, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_user_function"] = """
SELECT doc_id,
       ROUND(CASE WHEN n_chars > 500.0 THEN n_chars * 0.5
                  ELSE CAST(n_chars AS DOUBLE) END + 1.0, 4) AS score
FROM documents ORDER BY doc_id"""
    out["painless_loop_break"] = """
WITH RECURSIVE h(doc_id, n, p) AS (
  SELECT doc_id, CAST(n_chars AS DOUBLE), CAST(1.0 AS DOUBLE)
  FROM documents
  UNION ALL
  SELECT doc_id, n, p * 2.0 FROM h WHERE p < n
)
SELECT doc_id, CAST(p AS BIGINT) AS pow2 FROM h WHERE p >= n
ORDER BY doc_id"""
    out["painless_continue_sum"] = """
SELECT doc_id,
       ROUND(n_chars / 2.0 + n_chars / 3.0 + n_chars / 5.0
             + n_chars / 6.0 + n_chars / 8.0, 4) AS score
FROM documents ORDER BY doc_id"""
    out["agg_scripted_metric_painless"] = """
SELECT ROUND(SUM(value * value) / COUNT(*), 4) AS mean_sq FROM events"""
    out["painless_math_methods"] = """
SELECT doc_id,
       ROUND(SQRT(GREATEST(n_chars - 400.0, 0.0))
             + LN(n_chars + 1.0) * 2.0, 4) AS score
FROM documents ORDER BY doc_id"""
    # round-5 SQL subquery / datetime gates: oracle IS the same SQL text
    out["sql_subquery_from"] = """
SELECT event_type, n FROM (
  SELECT event_type, COUNT(*) AS n FROM events
  GROUP BY event_type) t
WHERE n > 100 ORDER BY event_type"""
    out["sql_subquery_agg_outer"] = """
SELECT lang, COUNT(*) AS n, MAX(n_chars) AS mx FROM (
  SELECT doc_id, lang, n_chars FROM documents
  WHERE doc_id < 400)
GROUP BY lang ORDER BY lang"""
    out["sql_subquery_nested"] = """
SELECT lang, mx FROM (
  SELECT lang, MAX(n_chars) AS mx FROM (
    SELECT lang, n_chars FROM documents WHERE doc_id < 400)
  GROUP BY lang)
WHERE mx > 500 ORDER BY lang"""
    out["sql_interval_arith"] = """
SELECT event_id, ts + INTERVAL 2 HOUR AS ts2,
       ts - INTERVAL '30' MINUTE AS ts3
FROM events WHERE event_id < 50 ORDER BY event_id"""
    out["sql_extract_group"] = """
SELECT EXTRACT(hour FROM ts) AS h, COUNT(*) AS n FROM events
GROUP BY h ORDER BY h"""
    out["sql_subquery_topn"] = """
SELECT CAST(COUNT(*) AS BIGINT) AS n, ROUND(MIN(o_totalprice), 2) AS mn,
       ROUND(MAX(o_totalprice), 2) AS mx FROM (
  SELECT o_orderkey, o_totalprice FROM orders
  ORDER BY o_totalprice DESC, o_orderkey LIMIT 100)"""
    out["sql_having_tree"] = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(MAX(value), 2) AS mx FROM events
GROUP BY event_type
HAVING COUNT(*) > 1900 AND (MAX(value) > 490 OR event_type = 'error')
ORDER BY event_type"""
    out["sql_date_trunc_group"] = """
SELECT DATE_TRUNC('week', ts) AS wk, CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY wk ORDER BY wk"""
    # round-5 ILM phase state machine (ordered action lists, one action
    # per day of phase age, complete past the list)
    out["ilm_phase_actions"] = """
WITH b AS (SELECT date_trunc('day', ts) AS day FROM events),
d AS (SELECT day FROM b GROUP BY day),
a AS (SELECT day,
             date_diff('day', day, (SELECT MAX(day) FROM d)) AS age
      FROM d)
SELECT 'events-' || strftime(day, '%Y.%m.%d') AS index_name,
       CAST(age AS BIGINT) AS age_days,
       CASE WHEN age >= 15 THEN 'delete' WHEN age >= 8 THEN 'cold'
            WHEN age >= 3 THEN 'warm' ELSE 'hot' END AS phase,
       CASE WHEN age >= 15 THEN
              CASE age - 15 WHEN 0 THEN 'wait_for_snapshot'
                            WHEN 1 THEN 'delete' ELSE 'complete' END
            WHEN age >= 8 THEN
              CASE age - 8 WHEN 0 THEN 'freeze' ELSE 'complete' END
            WHEN age >= 3 THEN
              CASE age - 3 WHEN 0 THEN 'readonly' WHEN 1 THEN 'shrink'
                           WHEN 2 THEN 'forcemerge' ELSE 'complete' END
            ELSE CASE age WHEN 0 THEN 'rollover' ELSE 'complete' END
       END AS action,
       CASE WHEN (age >= 15 AND age - 15 <= 1)
              OR (age >= 8 AND age < 15 AND age = 8)
              OR (age >= 3 AND age < 8 AND age - 3 <= 2)
              OR (age < 3 AND age = 0)
            THEN 'in_progress' ELSE 'complete' END AS step
FROM a ORDER BY day"""
    # round-5 x-pack ML detector-breadth gates
    out["ml_detector_min_max"] = """
WITH b AS (SELECT event_type, date_trunc('day', ts) AS day,
                  MIN(value) AS mn, MAX(value) AS mx
           FROM events GROUP BY 1, 2),
r AS (
  SELECT 'min' AS detector, event_type, day, mn AS actual,
         (mn - AVG(mn) OVER (PARTITION BY event_type))
           / STDDEV_SAMP(mn) OVER (PARTITION BY event_type) AS z
  FROM b
  UNION ALL
  SELECT 'max', event_type, day, mx,
         (mx - AVG(mx) OVER (PARTITION BY event_type))
           / STDDEV_SAMP(mx) OVER (PARTITION BY event_type)
  FROM b),
s AS (SELECT detector, event_type, day, actual,
             (RANK() OVER (ORDER BY ABS(z)) - 1) * 100.0
               / GREATEST((SELECT COUNT(*) FROM r) - 1, 1) AS record_score
      FROM r)
SELECT detector, event_type, day, ROUND(actual, 4) AS actual,
       ROUND(record_score, 4) AS record_score
FROM s WHERE record_score >= 90.0
ORDER BY detector, event_type, day"""
    out["ml_detector_count"] = """
WITH b AS (SELECT event_type, date_trunc('day', ts) AS day,
                  COUNT(*) AS c
           FROM events GROUP BY 1, 2),
z AS (SELECT event_type, day, c,
             (c - AVG(c) OVER (PARTITION BY event_type))
               / STDDEV_SAMP(c) OVER (PARTITION BY event_type) AS z
      FROM b),
s AS (SELECT event_type, day, c,
             (RANK() OVER (ORDER BY ABS(z)) - 1) * 100.0
               / GREATEST((SELECT COUNT(*) FROM z) - 1, 1) AS record_score
      FROM z)
SELECT event_type, day, CAST(c AS BIGINT) AS actual,
       ROUND(record_score, 4) AS record_score
FROM s WHERE record_score >= 90.0 ORDER BY event_type, day"""
    out["ml_detector_rare"] = """
WITH c AS (SELECT user_id, event_type, COUNT(*) AS cnt FROM events
           WHERE user_id < 200 GROUP BY 1, 2),
m AS (SELECT user_id, event_type, cnt,
             MAX(cnt) OVER (PARTITION BY user_id) AS mx,
             COUNT(*) OVER (PARTITION BY user_id) AS nt
      FROM c)
SELECT user_id, event_type, CAST(cnt AS BIGINT) AS cnt,
       ROUND(100.0 * (1.0 - cnt / CAST(mx AS DOUBLE)), 4) AS record_score
FROM m
WHERE 100.0 * (1.0 - cnt / CAST(mx AS DOUBLE)) >= 70.0 AND nt >= 3
ORDER BY user_id, event_type"""
    out["ml_bucket_anomaly_score"] = """
WITH b AS (SELECT event_type, date_trunc('day', ts) AS day,
                  SUM(value) / COUNT(value) AS mean_v
           FROM events GROUP BY 1, 2),
z AS (SELECT event_type, day,
             ABS((mean_v - AVG(mean_v) OVER (PARTITION BY event_type))
               / STDDEV_SAMP(mean_v) OVER (PARTITION BY event_type)) AS z
      FROM b),
r AS (SELECT event_type, day, z,
             (RANK() OVER (ORDER BY z) - 1) * 100.0
               / GREATEST((SELECT COUNT(*) FROM z) - 1, 1) AS record_score
      FROM z),
d AS (SELECT day, MAX(z) AS max_z,
             COUNT(*) FILTER (WHERE record_score >= 75.0) AS n_high
      FROM r GROUP BY day),
s AS (SELECT day, n_high,
             (RANK() OVER (ORDER BY max_z) - 1) * 100.0
               / GREATEST((SELECT COUNT(*) FROM d) - 1, 1) AS anomaly_score
      FROM d)
SELECT day, ROUND(anomaly_score, 4) AS anomaly_score,
       CAST(n_high AS BIGINT) AS n_high
FROM s WHERE anomaly_score >= 85.0 ORDER BY day"""
    # round-4 x-pack ML job-surface gates
    out["ml_anomaly_mean_value"] = """
WITH b AS (SELECT event_type,
                  date_trunc('day', ts) AS day,
                  AVG(value) AS mean_v
           FROM events GROUP BY 1, 2),
st AS (SELECT event_type, AVG(mean_v) AS mu, STDDEV_SAMP(mean_v) AS sd
       FROM b GROUP BY 1),
z AS (SELECT b.event_type, b.day, b.mean_v,
             (b.mean_v - st.mu) / st.sd AS z
      FROM b JOIN st USING (event_type)),
r AS (SELECT event_type, day, mean_v,
             (RANK() OVER (ORDER BY ABS(z)) - 1) * 100.0
               / GREATEST((SELECT COUNT(*) FROM z) - 1, 1) AS record_score
      FROM z)
SELECT event_type, day, ROUND(mean_v, 4) AS mean_v,
       ROUND(record_score, 4) AS record_score
FROM r WHERE record_score >= 90.0
ORDER BY event_type, day"""
    out["ml_datafeed_agg_preview"] = """
SELECT date_trunc('day', ts) AS time, COUNT(*) AS doc_count,
       ROUND(AVG(value), 4) AS avg_value
FROM events GROUP BY 1 ORDER BY time LIMIT 5"""
    out["ml_estimate_model_memory"] = """
WITH c AS (SELECT COUNT(DISTINCT event_type) AS bf,
                  COUNT(DISTINCT user_id) AS pf FROM events)
SELECT bf AS by_field_cardinality, pf AS partition_field_cardinality,
       10485760 + 65536 * bf + 32768 * pf AS model_memory_estimate_bytes
FROM c"""
    out.update(_shape_cartesian_oracle_sqls())
    out["agg_cardinality_hll"] = _hll_oracle_sql()
    out["agg_percentiles_hdr"] = _hdr_oracle_sql()
    out["agg_percentile_ranks_hdr"] = _hdr_ranks_oracle_sql()
    out["embed_kmeans"] = _kmeans_oracle_sql()
    out["dedup_semantic"] = _semantic_dedup_oracle_sql()
    out["embed_cluster_sample"] = (
        "SELECT vec_id, cluster FROM ("
        + _kmeans_oracle_sql().rsplit("ORDER BY", 1)[0]
        + ") WHERE vec_id % 10 < 3 + cluster % 5 ORDER BY vec_id")
    out["dedup_minhash_exact"] = _minhash_oracle_sql()
    out["dedup_minhash_incremental"] = _minhash_incremental_oracle_sql()
    out["dedup_simhash_exact"] = _simhash_oracle_sql()
    out["knn_lsh_exact"] = _knn_lsh_oracle_sql()
    out["dedup_embedding_lsh_exact"] = _embedding_lsh_dedup_oracle_sql()
    out.update(_multi_index_oracle_sqls())
    out.update({
        "esql_scalb_round_to": """
SELECT event_id,
       ROUND(value * power(2, 3), 6) AS s,
       ROUND(CASE WHEN (50 - value) >= 0 THEN ABS(value)
                  ELSE -ABS(value) END, 6) AS c,
       CASE WHEN value >= 500 THEN 500.0 WHEN value >= 250 THEN 250.0
            WHEN value >= 100 THEN 100.0 WHEN value >= 50 THEN 50.0
            ELSE 0.0 END AS r
FROM events WHERE event_id < 400 ORDER BY event_id""",
        "ft_weighted_tokens": f"""
WITH {_TOK},
w(term, wt) AS (VALUES ('data', 0.9), ('merge', 0.5), ('slow', 0.1),
                       ('dup', 0.3)),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM w) GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
r AS (SELECT w.term, w.wt, df.df::DOUBLE / st.n AS ratio
      FROM w JOIN df USING (term) CROSS JOIN st),
kept AS (SELECT term, wt FROM r
         WHERE ratio < 1.2 * (SELECT avg(ratio) FROM r)
            OR wt > 0.4 * (SELECT max(wt) FROM w))
SELECT tf.doc_id AS doc_id, ROUND(SUM(wt * {_SCORE}), 4) AS score
FROM tf JOIN kept USING (term) JOIN df USING (term)
     JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ft_rule_query": f"""
WITH {_TOK},
q AS (SELECT unnest(['data', 'merge']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
organic AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
            FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
                 CROSS JOIN st
            GROUP BY tf.doc_id),
org2 AS (SELECT doc_id, score FROM organic
         WHERE doc_id NOT IN (7, 41, 23)
         ORDER BY score DESC, doc_id LIMIT 12)
SELECT rank, doc_id, pinned, score FROM (
  SELECT 1::BIGINT AS rank, 7::BIGINT AS doc_id, 1::BIGINT AS pinned,
         0.0 AS score
  UNION ALL
  SELECT 1 + row_number() OVER (ORDER BY score DESC, doc_id), doc_id,
         0::BIGINT, score
  FROM org2)
ORDER BY rank""",
        "sql_cursor_page": """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 15 OFFSET 15""",
        "geo_grid_query": """
WITH e AS (SELECT event_id,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM events),
b AS (SELECT event_id,
        least(CAST(floor((lon + 180.0) / 360.0 * 32) AS INTEGER), 31) AS lx,
        least(CAST(floor((lat + 90.0) / 180.0 * 32) AS INTEGER), 31) AS ly
      FROM e),
ghv AS (SELECT event_id,
        ((lx // 16) % 2) * 512 + ((ly // 16) % 2) * 256
        + ((lx // 8) % 2) * 128 + ((ly // 8) % 2) * 64
        + ((lx // 4) % 2) * 32 + ((ly // 4) % 2) * 16
        + ((lx // 2) % 2) * 8 + ((ly // 2) % 2) * 4
        + (lx % 2) * 2 + (ly % 2) AS v
      FROM b),
gh AS (SELECT event_id,
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v // 32) + 1, 1) ||
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v % 32) + 1, 1) AS cell
       FROM ghv),
gt AS (SELECT event_id,
        least(greatest(CAST(floor((lon + 180.0) / 360.0 * 8)
                            AS BIGINT), 0), 7) AS tx,
        least(greatest(CAST(floor((1.0 - ln(
              tan(radians(greatest(least(lat, 85.05112878), -85.05112878)))
              + sqrt(tan(radians(greatest(least(lat, 85.05112878),
                                          -85.05112878)))
                * tan(radians(greatest(least(lat, 85.05112878),
                                       -85.05112878))) + 1.0)) / pi())
              / 2.0 * 8) AS BIGINT), 0), 7) AS ty
      FROM e)
SELECT grid, event_id FROM (
  SELECT 'geohash:zj' AS grid, event_id FROM gh WHERE cell = 'zj'
  UNION ALL
  SELECT 'geotile:3/1/0', event_id FROM gt WHERE tx = 1 AND ty = 0)
ORDER BY grid, event_id""",
        "ft_text_expansion": f"""
WITH {_TOK},
v AS (SELECT term, row_number() OVER (ORDER BY term) AS rn
      FROM (SELECT DISTINCT term FROM tok)),
qt(term) AS (VALUES ('data'), ('merge')),
expd AS (
  SELECT term, 1.0 AS wt FROM qt
  UNION ALL
  SELECT v2.term, 0.3 FROM qt JOIN v ON v.term = qt.term
       JOIN v v2 ON v2.rn IN (v.rn - 1, v.rn + 1)),
w AS (SELECT term, SUM(wt) AS wt FROM expd GROUP BY term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM w) GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM(wt * {_SCORE}), 4) AS score
FROM tf JOIN w USING (term) JOIN df USING (term)
     JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ingest_reroute": """
SELECT CASE WHEN value >= 250 THEN 'metrics-high-default'
            ELSE 'logs-' || event_type || '-default' END AS dest,
       count(*)::BIGINT AS doc_count
FROM events GROUP BY 1 ORDER BY dest""",
        "esql_st_extent": """
WITH e AS (SELECT event_type,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon FROM events),
g AS (SELECT event_type, count(*)::BIGINT AS n,
        min(lon) AS west, max(lon) AS east,
        max(lat) AS north, min(lat) AS south
      FROM e GROUP BY 1)
SELECT event_type, n,
  'BBOX (' || west::VARCHAR || ', ' || east::VARCHAR || ', '
           || north::VARCHAR || ', ' || south::VARCHAR || ')' AS ext,
  west, east, north, south
FROM g ORDER BY event_type""",
        "agg_composite_geotile": """
WITH e AS (SELECT event_type,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon FROM events),
tx AS (SELECT event_type,
        least(greatest(CAST(floor((lon + 180.0) / 360.0 * 8)
                            AS BIGINT), 0), 7) AS tx,
        least(greatest(CAST(floor((1.0 - ln(
              tan(radians(greatest(least(lat, 85.05112878), -85.05112878)))
              + sqrt(tan(radians(greatest(least(lat, 85.05112878),
                                          -85.05112878)))
                * tan(radians(greatest(least(lat, 85.05112878),
                                       -85.05112878))) + 1.0)) / pi())
              / 2.0 * 8) AS BIGINT), 0), 7) AS ty
      FROM e),
g AS (SELECT '3/' || tx || '/' || ty AS tile, event_type,
             count(*)::BIGINT AS doc_count
      FROM tx GROUP BY 1, 2)
SELECT tile, event_type, doc_count FROM g
WHERE (tile, event_type) > ('3/2/3', 'error')
ORDER BY tile, event_type LIMIT 20""",
        "fls_field_security": """
SELECT doc_id, lang FROM documents WHERE lang = 'en' ORDER BY doc_id""",
        "dls_filtered_search": f"""
WITH {_TOK},
q AS (SELECT unnest(['data', 'merge']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
            CROSS JOIN st
       GROUP BY tf.doc_id)
SELECT sc.doc_id, sc.score FROM sc JOIN documents d ON d.doc_id = sc.doc_id
WHERE d.lang = 'en' ORDER BY sc.doc_id""",
        "eql_unique_pipe": """
WITH m AS (SELECT event_id, ts, user_id, event_type, value,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events WHERE value > 100)
SELECT event_id, ts, user_id, event_type, value
FROM m WHERE rn = 1 ORDER BY ts, event_id LIMIT 15""",
        "esql_stats_mad": """
WITH med AS (SELECT event_type, quantile_cont(value, 0.5) AS m
             FROM events GROUP BY 1)
SELECT e.event_type, ROUND(any_value(m), 6) AS m,
       ROUND(quantile_cont(abs(e.value - m), 0.5), 6) AS mad
FROM events e JOIN med USING (event_type)
GROUP BY e.event_type ORDER BY e.event_type""",
        "esql_term_multimatch": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','src3']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
ts AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS s_text
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
            CROSS JOIN st
       GROUP BY tf.doc_id),
sdf AS (SELECT count(*) AS df FROM documents WHERE source = 'src3'),
ss AS (SELECT d.doc_id AS doc_id,
              ln(1 + ((SELECT count(*) FROM documents) - sdf.df + 0.5)
                 / (sdf.df + 0.5)) AS s_src
       FROM documents d CROSS JOIN sdf WHERE d.source = 'src3'),
u AS (SELECT COALESCE(ts.doc_id, ss.doc_id) AS doc_id,
             COALESCE(s_text, 0) AS a, COALESCE(s_src, 0) AS b
      FROM ts FULL OUTER JOIN ss ON ts.doc_id = ss.doc_id)
SELECT doc_id, ROUND(a + b, 4) AS _score,
       (SELECT count(*) FROM documents
        WHERE source = 'src3')::BIGINT AS term_src3_n
FROM u
QUALIFY row_number() OVER (ORDER BY ROUND(a + b, 4) DESC, doc_id) <= 12
ORDER BY ROUND(a + b, 4) DESC, doc_id""",
        "ft_index_phrases": r"""
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text),
      '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "wildcard_field_query": """
SELECT doc_id FROM documents WHERE text LIKE '%data%merge%'
ORDER BY doc_id""",
        "ft_script_score_vectors": f"""
WITH q AS (SELECT [{_QVEC}]::DOUBLE[] AS qv),
z AS (SELECT vec_id, unnest(embedding::DOUBLE[]) AS v, unnest(qv) AS qe
      FROM embeddings, q),
agg AS (SELECT vec_id,
          SUM(ABS(v - qe)) AS l1,
          SUM(CASE WHEN (v >= 0) <> (qe >= 0) THEN 1 ELSE 0 END)::BIGINT
            AS hamming
        FROM z GROUP BY vec_id),
s AS (SELECT e.vec_id,
        list_cosine_similarity(e.embedding::DOUBLE[], q.qv) + 1.0 AS score,
        list_inner_product(e.embedding::DOUBLE[], q.qv) AS dot,
        list_distance(e.embedding::DOUBLE[], q.qv) AS l2
      FROM embeddings e, q)
SELECT s.vec_id, ROUND(score, 6) AS score, ROUND(dot, 6) AS dot,
       ROUND(l1, 6) AS l1, ROUND(l2, 6) AS l2, hamming
FROM s JOIN agg USING (vec_id)
QUALIFY row_number() OVER (ORDER BY score DESC, s.vec_id) <= 20
ORDER BY score DESC, s.vec_id""",
        "esql_cartesian_distance": """
SELECT event_id, value AS x, value / 2 AS y,
       ROUND(sqrt((value - 100) * (value - 100)
                + (value / 2 - 50) * (value / 2 - 50)), 6) AS d
FROM events WHERE event_id < 400 ORDER BY event_id""",
        "esql_date_nanos": """
SELECT event_id, ts::TIMESTAMP_NS AS tn, (event_id * 3)::UBIGINT AS u,
       (event_id * 3)::BIGINT AS back
FROM events WHERE event_id < 300 ORDER BY event_id""",
        "ingest_geo_grid": """
WITH u AS (SELECT DISTINCT user_id FROM events),
e AS (SELECT ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon FROM u),
b AS (SELECT DISTINCT
        least(CAST(floor((lon + 180.0) / 360.0 * 32) AS INTEGER), 31) AS lx,
        least(CAST(floor((lat + 90.0) / 180.0 * 32) AS INTEGER), 31) AS ly
      FROM e),
ghv AS (SELECT lx, ly,
        ((lx // 16) % 2) * 512 + ((ly // 16) % 2) * 256
        + ((lx // 8) % 2) * 128 + ((ly // 8) % 2) * 64
        + ((lx // 4) % 2) * 32 + ((ly // 4) % 2) * 16
        + ((lx // 2) % 2) * 8 + ((ly // 2) % 2) * 4
        + (lx % 2) * 2 + (ly % 2) AS v
      FROM b),
gh AS (SELECT
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v // 32) + 1, 1) ||
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v % 32) + 1, 1) AS cell,
        lx / 32.0 * 360.0 - 180.0 AS w,
        (lx + 1) / 32.0 * 360.0 - 180.0 AS e,
        ly / 32.0 * 180.0 - 90.0 AS s,
        (ly + 1) / 32.0 * 180.0 - 90.0 AS n
       FROM ghv),
t AS (SELECT DISTINCT
        least(greatest(CAST(floor((lon + 180.0) / 360.0 * 8)
                            AS BIGINT), 0), 7) AS tx,
        least(greatest(CAST(floor((1.0 - ln(
              tan(radians(greatest(least(lat, 85.05112878), -85.05112878)))
              + sqrt(tan(radians(greatest(least(lat, 85.05112878),
                                          -85.05112878)))
                * tan(radians(greatest(least(lat, 85.05112878),
                                       -85.05112878))) + 1.0)) / pi())
              / 2.0 * 8) AS BIGINT), 0), 7) AS ty
      FROM e),
gt AS (SELECT '3/' || tx || '/' || ty AS cell,
        tx / 8.0 * 360.0 - 180.0 AS w,
        (tx + 1) / 8.0 * 360.0 - 180.0 AS e,
        ROUND(degrees(atan((exp(pi() * (1.0 - 2.0 * (ty + 1) / 8.0))
                      - exp(-(pi() * (1.0 - 2.0 * (ty + 1) / 8.0))))
                     / 2.0)), 10) AS s,
        ROUND(degrees(atan((exp(pi() * (1.0 - 2.0 * ty / 8.0))
                      - exp(-(pi() * (1.0 - 2.0 * ty / 8.0))))
                     / 2.0)), 10) AS n
       FROM t)
SELECT cell,
  'POLYGON ((' || w::VARCHAR || ' ' || s::VARCHAR || ', '
               || e::VARCHAR || ' ' || s::VARCHAR || ', '
               || e::VARCHAR || ' ' || n::VARCHAR || ', '
               || w::VARCHAR || ' ' || n::VARCHAR || ', '
               || w::VARCHAR || ' ' || s::VARCHAR || '))' AS shape
FROM (SELECT * FROM gh UNION ALL SELECT * FROM gt)
ORDER BY cell""",
        "mtermvectors": f"""
WITH {_TOK},
sel AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE doc_id IN (11, 42, 77) GROUP BY 1, 2),
stats AS (SELECT term, count(DISTINCT doc_id) AS df, count(*) AS ttf
          FROM tok WHERE term IN (SELECT term FROM sel) GROUP BY term)
SELECT doc_id, term, tf::BIGINT AS tf, df::BIGINT AS df, ttf::BIGINT AS ttf
FROM sel JOIN stats USING (term)
ORDER BY doc_id, term""",
        "cat_recovery": """
SELECT MIN(doc_id) AS doc_id_min, MAX(doc_id) AS doc_id_max,
       'done' AS stage, 'store' AS type,
       COUNT(*) AS docs_recovered, '100.0%' AS files_percent
FROM documents
ORDER BY doc_id_min""",
        "esql_st_envelope": """
WITH e AS (SELECT event_id,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM events WHERE event_id < 300)
SELECT event_id,
  'BBOX (' || lon::VARCHAR || ', ' || lon::VARCHAR || ', '
           || lat::VARCHAR || ', ' || lat::VARCHAR || ')' AS env,
  lon AS px, lat AS py,
  10.0 AS qw, 50.0 AS qe, 40.0 AS qn, 5.0 AS qs
FROM e ORDER BY event_id""",
        "esql_hash_functions": """
SELECT o_orderkey, md5(o_orderpriority) AS m, sha256(o_orderstatus) AS s,
       md5(o_orderpriority || o_orderstatus) AS h
FROM orders WHERE o_orderkey < 300 ORDER BY o_orderkey""",
        "esql_st_functions": """
WITH e AS (SELECT event_id,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM events WHERE event_id < 500),
b AS (SELECT event_id,
        least(CAST(floor((lon + 180.0) / 360.0 * 32) AS INTEGER), 31) AS lx,
        least(CAST(floor((lat + 90.0) / 180.0 * 32) AS INTEGER), 31) AS ly
      FROM e),
ghv AS (SELECT event_id,
        ((lx // 16) % 2) * 512 + ((ly // 16) % 2) * 256
        + ((lx // 8) % 2) * 128 + ((ly // 8) % 2) * 64
        + ((lx // 4) % 2) * 32 + ((ly // 4) % 2) * 16
        + ((lx // 2) % 2) * 8 + ((ly // 2) % 2) * 4
        + (lx % 2) * 2 + (ly % 2) AS v
      FROM b),
gt AS (SELECT event_id,
        least(greatest(CAST(floor((lon + 180.0) / 360.0 * 8)
                            AS BIGINT), 0), 7) AS tx,
        least(greatest(CAST(floor((1.0 - ln(
              tan(radians(greatest(least(lat, 85.05112878), -85.05112878)))
              + sqrt(tan(radians(greatest(least(lat, 85.05112878),
                                          -85.05112878)))
                * tan(radians(greatest(least(lat, 85.05112878),
                                       -85.05112878))) + 1.0)) / pi())
              / 2.0 * 8) AS BIGINT), 0), 7) AS ty
      FROM e),
ha AS (SELECT event_id, (sqrt(3) / 3.0 * lon - lat / 3.0) / 15.0 AS xq,
              (2.0 / 3.0 * lat) / 15.0 AS zr
       FROM e),
hb AS (SELECT event_id, xq, zr, -xq - zr AS yq,
              floor(xq + 0.5) AS rx, floor(-xq - zr + 0.5) AS ry,
              floor(zr + 0.5) AS rz
       FROM ha),
hc AS (SELECT event_id,
        CASE WHEN abs(rx - xq) > abs(ry - yq)
              AND abs(rx - xq) > abs(rz - zr)
             THEN -ry - rz ELSE rx END AS hq,
        CASE WHEN NOT (abs(rx - xq) > abs(ry - yq)
                       AND abs(rx - xq) > abs(rz - zr))
              AND NOT (abs(ry - yq) > abs(rz - zr))
             THEN -rx - ry ELSE rz END AS hr
       FROM hb)
SELECT e.event_id, e.lon AS x, e.lat AS y,
  ROUND(2.0 * 6371008.7714 * asin(sqrt(
      sin(radians(0 - lat) / 2.0) * sin(radians(0 - lat) / 2.0)
      + cos(radians(lat)) * cos(radians(0))
        * (sin(radians(0 - lon) / 2.0) * sin(radians(0 - lon) / 2.0))
    )), 2) AS d,
  substr('0123456789bcdefghjkmnpqrstuvwxyz', (v // 32) + 1, 1) ||
  substr('0123456789bcdefghjkmnpqrstuvwxyz', (v % 32) + 1, 1) AS gh,
  '3/' || tx || '/' || ty AS gt,
  CAST(hq AS BIGINT) || ':' || CAST(hr AS BIGINT) AS hx
FROM e JOIN ghv USING (event_id) JOIN gt USING (event_id)
       JOIN hc USING (event_id)
ORDER BY event_id""",
        "esql_st_centroid": """
WITH e AS (SELECT event_type,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM events),
f AS (SELECT * FROM e
      WHERE abs(lon) / 121.25 + abs(lat - 60) / 29.25 < 1)
SELECT event_type, count(*)::BIGINT AS n,
  ROUND(sum(CAST(round(lon * 100) AS BIGINT))::DOUBLE
        / (100.0 * count(*)), 4) AS cx,
  ROUND(sum(CAST(round(lat * 100) AS BIGINT))::DOUBLE
        / (100.0 * count(*)), 4) AS cy
FROM f GROUP BY 1 ORDER BY 1""",
        "esql_now_datemath": """
SELECT event_type, count(*)::BIGINT AS n, ROUND(SUM(value), 2) AS s
FROM events
WHERE ts >= TIMESTAMP '2024-01-25 13:45:00' - INTERVAL 20 DAY
  AND ts <  TIMESTAMP '2024-01-25 13:45:00' - INTERVAL 5 DAY
GROUP BY 1 ORDER BY 1""",
        "sql_show_tables": """
SELECT table_name AS name, 'TABLE' AS type
FROM information_schema.tables WHERE table_schema = 'main'
ORDER BY name""",
        "sql_describe_table": """
SELECT column_name AS "column",
       CASE WHEN column_type = 'BIGINT' THEN 'long'
            WHEN column_type = 'INTEGER' THEN 'integer'
            WHEN column_type = 'DOUBLE' THEN 'double'
            WHEN column_type = 'FLOAT' THEN 'float'
            WHEN column_type LIKE 'TIMESTAMP%' THEN 'datetime'
            WHEN column_type = 'BOOLEAN' THEN 'boolean'
            WHEN column_type LIKE '%[]' THEN 'dense_vector'
            ELSE 'keyword' END AS mapping
FROM (DESCRIBE orders)""",
        "cat_allocation": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, docs,
             row_number() OVER (ORDER BY docs DESC, shard) - 1 AS rk
      FROM sd)
SELECT 'node-' || CAST(rk % 3 AS VARCHAR) AS node,
       count(*)::BIGINT AS shards, sum(docs)::BIGINT AS docs
FROM r GROUP BY 1 ORDER BY 1""",
        "deprecation_info": """
WITH facts AS (
  SELECT 'documents' AS idx, (SELECT count(*) FROM documents) AS n,
         (SELECT count(*) FROM (DESCRIBE documents)) AS ncols,
         (SELECT count(*) FROM (DESCRIBE documents)
          WHERE column_name = 'props') AS has_props
  UNION ALL
  SELECT 'events', (SELECT count(*) FROM events),
         (SELECT count(*) FROM (DESCRIBE events)),
         (SELECT count(*) FROM (DESCRIBE events)
          WHERE column_name = 'props')
  UNION ALL
  SELECT 'orders', (SELECT count(*) FROM orders),
         (SELECT count(*) FROM (DESCRIBE orders)),
         (SELECT count(*) FROM (DESCRIBE orders)
          WHERE column_name = 'props')),
checks AS (
  SELECT idx, CASE WHEN n > 5000 THEN 'critical' ELSE 'warning' END AS level,
         'index is oversized: re-split before upgrade' AS issue
  FROM facts WHERE n > 500
  UNION ALL
  SELECT idx, 'info', 'mapping declares too many fields'
  FROM facts WHERE ncols > 5
  UNION ALL
  SELECT idx, 'warning', 'dynamic JSON field is not mapped'
  FROM facts WHERE has_props > 0)
SELECT idx AS "index", level, issue FROM checks
ORDER BY "index", level, issue""",
        "esql_inline_cast": """
SELECT event_id, trunc(value)::BIGINT AS vi,
       (event_id % 7)::DOUBLE AS di,
       CASE WHEN value > 50 THEN 'true' ELSE 'false' END AS bs,
       (event_id % 7)::VARCHAR AS ds
FROM events WHERE event_id < 400 ORDER BY event_id""",
        "esql_st_within_disjoint": """
WITH e AS (SELECT event_type,
        ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
        ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM events)
SELECT event_type,
  sum(CASE WHEN lon >= -121 AND lon <= 121
            AND lat >= 31 AND lat <= 89 THEN 1 ELSE 0 END)::BIGINT AS nw,
  sum(CASE WHEN NOT (lon >= -121 AND lon <= 121
                     AND lat >= 31 AND lat <= 89)
           THEN 1 ELSE 0 END)::BIGINT AS nd
FROM e GROUP BY 1 ORDER BY 1""",
        "agg_bucket_correlation": """
WITH b AS (SELECT date_trunc('day', ts) AS day, count(*) AS c,
                  sum(floor(value)::BIGINT) AS s
           FROM events GROUP BY 1),
t AS (SELECT count(*)::DOUBLE AS n,
             sum(c)::DOUBLE AS sx, sum(s)::DOUBLE AS sy,
             sum(c * c)::DOUBLE AS sxx, sum(s * s)::DOUBLE AS syy,
             sum(c * s)::DOUBLE AS sxy
      FROM b)
SELECT (SELECT count(*) FROM b) AS n_buckets,
       ROUND((n * sxy - sx * sy)
             / sqrt((n * sxx - sx * sx) * (n * syy - sy * sy)), 6)
         AS correlation
FROM t""",
        "agg_bucket_count_ks_test": """
WITH b AS (SELECT date_trunc('day', ts) AS day, count(*) AS c
           FROM events GROUP BY 1),
r AS (SELECT c,
             SUM(c) OVER (ORDER BY day)::DOUBLE
               / (SELECT sum(c) FROM b)::DOUBLE AS ecdf,
             row_number() OVER (ORDER BY day)::DOUBLE
               / (SELECT count(*) FROM b)::DOUBLE AS unif
      FROM b)
SELECT (SELECT count(*) FROM b) AS n_buckets,
       ROUND(MAX(ABS(ecdf - unif)), 6) AS d_two_sided,
       ROUND(MAX(unif - ecdf), 6) AS d_less,
       ROUND(MAX(ecdf - unif), 6) AS d_greater
FROM r""",
        "range_date_math": """
SELECT event_type, count(*)::BIGINT AS doc_count
FROM events
WHERE ts >= date_trunc('day',
        TIMESTAMP '2024-01-25 13:45:00' - INTERVAL 20 DAY)
  AND ts < date_trunc('day', TIMESTAMP '2024-01-25 13:45:00')
GROUP BY event_type ORDER BY event_type""",
        "agg_histogram_hard_bounds": """
SELECT floor(value / 20.0) * 20.0 AS bucket, count(*)::BIGINT AS doc_count
FROM events WHERE value >= 20 AND value < 120
GROUP BY 1 ORDER BY bucket""",
        "ft_highlight_no_match": """
WITH d AS (SELECT doc_id, text FROM documents WHERE doc_id < 10),
h AS (SELECT doc_id, text,
             len(regexp_extract_all(text, '\\bmerge\\b')) AS hits,
             str_split(regexp_replace(text, '\\bmerge\\b',
                                      '<em>merge</em>', 'g'), ' ') AS w,
             str_split(text, ' ') AS pw
      FROM d),
c AS (SELECT doc_id, hits, w, pw,
             (len(w) + 7) // 8 AS nch
      FROM h),
fr AS (SELECT doc_id, hits, pw,
              list_filter(list_transform(generate_series(0, nch - 1),
                  i -> array_to_string(w[i * 8 + 1 : i * 8 + 8], ' ')),
                  x -> contains(x, '<em>')) AS hitfrags
       FROM c)
SELECT doc_id, hits > 0 AS matched,
       CASE WHEN hits > 0
            THEN array_to_string(hitfrags[1 : LEAST(len(hitfrags), 2)],
                                 ' ... ')
            ELSE array_to_string(pw[1:8], ' ') END AS snippet
FROM fr ORDER BY doc_id""",
        "agg_composite_missing_bucket": """
SELECT CASE WHEN doc_id % 7 = 0 THEN '__missing__' ELSE lang END AS lang,
       source, count(*)::BIGINT AS doc_count
FROM documents GROUP BY 1, 2 ORDER BY lang, source""",
        "agg_significant_bg_filter": """
WITH bgdocs AS (SELECT doc_id, lang, text FROM documents
                WHERE source IN ('src0','src1','src2','src3','src4',
                                 'src5','src6','src7','src8','src9')),
tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM bgdocs) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM bgdocs WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM bgdocs),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN bgdocs d USING (doc_id) GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND((fg_df::DOUBLE / fg_n.n - bg_df::DOUBLE / bg_n.n)
             * ((fg_df::DOUBLE / fg_n.n) / (bg_df::DOUBLE / bg_n.n)), 6)
         AS score
FROM counts CROSS JOIN fg_n CROSS JOIN bg_n
WHERE fg_df >= 3
ORDER BY score DESC, term LIMIT 10""",
        "agg_terms_missing": """
SELECT CASE WHEN doc_id % 7 = 0 THEN '(missing)' ELSE lang END AS key,
       count(*)::BIGINT AS doc_count
FROM documents GROUP BY 1 ORDER BY key""",
        "agg_date_histogram_bounds": """
WITH days AS (SELECT unnest(generate_series(
                 TIMESTAMP '2024-01-01', TIMESTAMP '2024-02-04',
                 INTERVAL 1 DAY)) AS bucket),
c AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS n
      FROM events GROUP BY 1)
SELECT d.bucket, coalesce(c.n, 0)::BIGINT AS doc_count
FROM days d LEFT JOIN c USING (bucket) ORDER BY d.bucket""",
        "agg_filters_other_bucket": """
SELECT name, count(*)::BIGINT AS doc_count FROM (
  SELECT CASE WHEN event_type = 'click' AND value >= 50
              THEN 'big_clicks'
              WHEN event_type = 'error' AND value < 50
              THEN 'small_errors'
              ELSE '_other_' END AS name
  FROM events)
GROUP BY name ORDER BY name""",
        "esql_chained_stats": """
WITH p AS (SELECT user_id, event_type, count(*) AS c
           FROM events GROUP BY 1, 2)
SELECT user_id, ROUND(avg(c), 6) AS avg_types,
       count(*)::BIGINT AS n_pairs
FROM p GROUP BY user_id ORDER BY user_id LIMIT 25""",
        "sql_select_star": """
SELECT * FROM supplier WHERE s_suppkey < 30
ORDER BY s_suppkey LIMIT 25""",
        "eql_sequence_by_multi": """
WITH a AS (SELECT user_id, event_type, ts FROM events WHERE value > 60),
s AS (SELECT a.user_id, a.event_type, a.ts AS t1,
        (SELECT min(b.ts) FROM events b
         WHERE b.user_id = a.user_id AND b.event_type = a.event_type
           AND b.value < 40 AND b.ts > a.ts) AS t2
      FROM a)
SELECT user_id, event_type, count(*)::BIGINT AS seqs
FROM s WHERE t2 IS NOT NULL
  AND epoch_us(t2) - epoch_us(t1) <= 172800000000::BIGINT
GROUP BY user_id, event_type ORDER BY user_id, event_type""",
        "ft_analyze_multiplexer": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(
    lower('Data query window level stats'), '[^a-z0-9]+'),
    x -> x <> '') AS a),
t AS (SELECT unnest(a) AS tok, generate_subscripts(a, 1) AS i FROM arr),
e AS (SELECT i, 1 AS j, tok FROM t
      UNION ALL
      SELECT i, 2, reverse(tok) FROM t WHERE reverse(tok) <> tok)
SELECT CAST(row_number() OVER (ORDER BY i, j) - 1 AS BIGINT) AS position,
       tok AS token
FROM e ORDER BY position""",
        "ft_analyze_condition": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(
    lower('Data query window level statistics'), '[^a-z0-9]+'),
    x -> x <> '') AS a)
SELECT position,
       CASE WHEN length(t) > 5 THEN reverse(t) ELSE t END AS token
FROM (SELECT CAST(generate_subscripts(a, 1) - 1 AS BIGINT) AS position,
             unnest(a) AS t
      FROM arr) ORDER BY position""",
        "ft_analyze_predicate": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(
    lower('Data query window level statistics go'), '[^a-z0-9]+'),
    x -> x <> '') AS a),
k AS (SELECT t, i FROM (SELECT unnest(a) AS t,
                               generate_subscripts(a, 1) AS i FROM arr)
      WHERE length(t) >= 5)
SELECT CAST(row_number() OVER (ORDER BY i) - 1 AS BIGINT) AS position,
       t AS token
FROM k ORDER BY position""",
        "eql_insensitive_match": """
SELECT event_id, ts, event_type, value FROM events
WHERE lower(event_type) LIKE 'cli%' AND value > 95
ORDER BY ts, event_id LIMIT 12""",
        "sql_group_by_expression": """
SELECT FLOOR(n_chars / 100.0) AS bucket, COUNT(*) AS c,
       AVG(n_chars) AS avg_chars
FROM documents GROUP BY FLOOR(n_chars / 100.0)
ORDER BY bucket""",
        "ingest_conditional": """
SELECT CASE WHEN n_chars > 300 THEN 'long'
            WHEN lang = 'en' AND n_chars <= 300 THEN 'short_en'
            ELSE 'other' END AS flag,
       count(*)::BIGINT AS n
FROM documents GROUP BY 1 ORDER BY flag""",
        "sql_like_predicate": """
SELECT doc_id, source FROM documents
WHERE source LIKE 'src1%' ORDER BY doc_id LIMIT 20""",
        "sql_where_expression": """
SELECT doc_id, n_chars FROM documents
WHERE n_chars % 7 = 3 AND lang = 'en'
ORDER BY doc_id LIMIT 30""",
        "sql_scalar_projection": """
SELECT doc_id, ROUND(n_chars / 7.0, 2) AS septile,
       ABS(n_chars - 300) AS dist300
FROM documents WHERE lang = 'en'
ORDER BY dist300, doc_id LIMIT 25""",
        "corpus_ngram_novelty": """
WITH toks AS (SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS a
  FROM documents),
g AS (SELECT doc_id,
             array_to_string(list_slice(a, i, i + 7), ' ') AS gram
      FROM (SELECT doc_id, a,
                   unnest(generate_series(1, len(a) - 7)) AS i
            FROM toks WHERE len(a) >= 8)),
dg AS (SELECT DISTINCT doc_id, gram FROM g),
c AS (SELECT gram, count(*) AS nd FROM dg GROUP BY gram),
p AS (SELECT doc_id, count(*)::BIGINT AS total,
             sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END)::BIGINT AS shared
      FROM dg JOIN c USING (gram) GROUP BY doc_id)
SELECT doc_id, total, shared,
       ROUND(1.0 - shared::DOUBLE / total::DOUBLE, 6) AS novelty
FROM p ORDER BY doc_id""",
        "eql_sequence_runs": """
WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
s2 AS (SELECT c.user_id, c.ts AS t1,
         (SELECT min(v.ts) FROM events v
          WHERE v.user_id = c.user_id AND v.event_type = 'click'
            AND v.ts > c.ts) AS t2
       FROM c),
s3 AS (SELECT user_id, t1, t2,
         (SELECT min(p.ts) FROM events p
          WHERE p.user_id = s2.user_id AND p.event_type = 'purchase'
            AND p.ts > s2.t2) AS t3
       FROM s2 WHERE t2 IS NOT NULL)
SELECT user_id, count(*)::BIGINT AS seqs
FROM s3
WHERE t3 IS NOT NULL
  AND epoch_us(t3) - epoch_us(t1) <= 172800000000::BIGINT
GROUP BY user_id ORDER BY user_id""",
        "ltr_rescore": f"""
WITH {_TOK},
q AS (SELECT unnest(['slow','merge','batch']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN st
  GROUP BY tf.doc_id),
win AS (SELECT doc_id, raw FROM scored
        ORDER BY raw DESC, doc_id LIMIT 20),
fd AS (SELECT doc_id, count(*) FILTER (term = 'data') AS tf_data
       FROM tok WHERE doc_id IN (SELECT doc_id FROM win)
       GROUP BY doc_id),
ltr AS (SELECT w.doc_id,
               0.6 * w.raw - 0.01 * dl.dl + 0.35 * coalesce(fd.tf_data, 0)
                 AS ltr
        FROM win w JOIN dl ON dl.doc_id = w.doc_id
        LEFT JOIN fd ON fd.doc_id = w.doc_id)
SELECT doc_id, ROUND(ltr, 4) AS ltr FROM ltr
ORDER BY ltr DESC, doc_id LIMIT 10""",
        "simulate_index_template": """
SELECT * FROM (VALUES
  ('overlapping', 'template', 'logs-low'),
  ('setting', 'analyzer', 'code'),
  ('setting', 'index_positions', 'true'),
  ('setting', 'number_of_shards', '4'),
  ('winner', 'template', 'logs-code')) AS t(kind, key, value)
ORDER BY kind, key, value""",
        "agg_geohex_grid": """
WITH g AS (SELECT ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
                  ((user_id * 104729) % 360) - 180 + 0.5 AS lon
           FROM (SELECT DISTINCT user_id FROM events)),
a AS (SELECT (sqrt(3) / 3.0 * lon - lat / 3.0) / 15.0 AS xq,
             (2.0 / 3.0 * lat) / 15.0 AS zr
      FROM g),
b AS (SELECT xq, zr, -xq - zr AS yq,
             floor(xq + 0.5) AS rx, floor(-xq - zr + 0.5) AS ry,
             floor(zr + 0.5) AS rz
      FROM a),
c AS (SELECT CASE WHEN abs(rx - xq) > abs(ry - yq)
                   AND abs(rx - xq) > abs(rz - zr)
                  THEN -ry - rz ELSE rx END AS hq,
             CASE WHEN NOT (abs(rx - xq) > abs(ry - yq)
                            AND abs(rx - xq) > abs(rz - zr))
                   AND NOT (abs(ry - yq) > abs(rz - zr))
                  THEN -rx - ry ELSE rz END AS hr
      FROM b)
SELECT CAST(hq AS BIGINT) AS hq, CAST(hr AS BIGINT) AS hr,
       count(*)::BIGINT AS doc_count
FROM c GROUP BY 1, 2 ORDER BY hq, hr""",
        "esql_mv_mad": """
WITH e AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings),
s AS (SELECT vec_id, list_sort(v) AS l, len(v) AS n, v FROM e),
m AS (SELECT vec_id, v, n,
             (l[CAST(floor((n - 1) / 2.0) AS BIGINT) + 1]
              + l[CAST(ceil((n - 1) / 2.0) AS BIGINT) + 1]) / 2.0 AS med
      FROM s),
d AS (SELECT vec_id, n,
             list_sort(list_transform(v, x -> abs(x - med))) AS dl
      FROM m)
SELECT vec_id,
       ROUND((dl[CAST(floor((n - 1) / 2.0) AS BIGINT) + 1]
              + dl[CAST(ceil((n - 1) / 2.0) AS BIGINT) + 1]) / 2.0, 6)
         AS mad
FROM d ORDER BY vec_id LIMIT 2000""",
        "autoscaling_capacity": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, docs,
             row_number() OVER (ORDER BY docs DESC, shard) - 1 AS rk
      FROM sd),
pn AS (SELECT 'node-' || CAST(rk % 3 AS VARCHAR) AS node,
              sum(docs)::BIGINT AS node_docs
       FROM r GROUP BY 1),
req AS (SELECT node, node_docs,
               CAST(node_docs::DOUBLE * 8 * 1.25 AS BIGINT)
                 AS required_bytes
        FROM pn)
SELECT * FROM (
  SELECT node, node_docs, required_bytes FROM req
  UNION ALL
  SELECT '__total__', sum(node_docs)::BIGINT,
         sum(required_bytes)::BIGINT FROM req
) ORDER BY node""",
        "ft_constant_keyword": """
SELECT 'code-corpus' AS query_value,
       (SELECT count(*) FROM documents)::BIGINT AS hits
UNION ALL
SELECT 'web-corpus', 0""",
        "semantic_chunked_search": """
WITH toks AS (SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS a
  FROM documents),
w AS (SELECT doc_id, unnest(generate_series(0, len(a) - 1, 10)) AS s, a
      FROM toks),
c AS (SELECT doc_id, s,
             len(list_intersect(
                 list_distinct(list_slice(a, s + 1,
                                          LEAST(s + 20, len(a)))),
                 ['slow', 'merge', 'batch', 'window'])) AS cov
      FROM w),
b AS (SELECT doc_id, max(cov) AS score FROM c GROUP BY doc_id)
SELECT doc_id, score::BIGINT AS score FROM b WHERE score > 0
ORDER BY score DESC, doc_id LIMIT 15""",
        "geo_shape_indexed_polygons": """
WITH c AS (SELECT s_suppkey,
                  ((s_suppkey * 13) % 200) - 100 + 0.5 AS cx,
                  ((s_suppkey * 29) % 200) - 100 + 0.5 AS cy,
                  CAST(5 + (s_suppkey % 5) AS DOUBLE) AS r
           FROM supplier),
n AS (SELECT *, GREATEST(4, LEAST(1000,
           CAST(ceil(pi() / acos(1 - 1.0 / r)) AS BIGINT))) AS ns
      FROM c),
v AS (SELECT s_suppkey, ns, unnest(generate_series(0, ns - 1)) AS vertex,
             cx, cy, r FROM n),
vv AS (SELECT s_suppkey, ns, vertex,
              cx + r * cos(2 * pi() * vertex / ns) AS vx,
              cy + r * sin(2 * pi() * vertex / ns) AS vy
       FROM v),
p(pid, px, py) AS (VALUES (0, -61.5, -17.5), (1, -0.5, -70.5),
                          (2, 93.5, -29.5)),
e AS (SELECT a.s_suppkey, p.pid,
             (b.vx - a.vx) * (p.py - a.vy)
               - (b.vy - a.vy) * (p.px - a.vx) AS cr
      FROM vv a
      JOIN vv b ON a.s_suppkey = b.s_suppkey
                AND b.vertex = (a.vertex + 1) % a.ns
      CROSS JOIN p)
SELECT pid, s_suppkey FROM e
GROUP BY pid, s_suppkey HAVING min(cr) >= -1e-9
ORDER BY pid, s_suppkey""",
        "percolate_ranges": """
WITH tokp AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
m10 AS (SELECT d.doc_id, 10 AS query_id
        FROM documents d JOIN tokp USING (doc_id)
        WHERE tokp.term = 'data' AND d.n_chars <= 150),
m11 AS (SELECT doc_id, 11 AS query_id FROM documents
        WHERE n_chars >= 400),
m12 AS (SELECT d.doc_id, 12 AS query_id
        FROM documents d JOIN tokp ON d.doc_id = tokp.doc_id
        WHERE tokp.term IN ('merge', 'window', 'batch')
          AND d.n_chars BETWEEN 200 AND 380
        GROUP BY d.doc_id HAVING count(*) >= 2)
SELECT * FROM (SELECT * FROM m10 UNION ALL SELECT * FROM m11
               UNION ALL SELECT * FROM m12)
ORDER BY doc_id, query_id""",
        "rank_vectors_maxsim": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
toks AS (SELECT vec_id, u.t,
                list_slice(v, u.t * 16 + 1, u.t * 16 + 16) AS tv
         FROM e CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS t) u),
q AS (SELECT vec_id AS qid, t AS qt, tv AS qv FROM toks
      WHERE vec_id IN (0, 1)),
cos AS (SELECT d.vec_id, q.qid, q.qt,
               max(list_cosine_similarity(d.tv, q.qv)) AS m
        FROM toks d CROSS JOIN q GROUP BY 1, 2, 3),
sc AS (SELECT vec_id, sum(m) AS score FROM cos GROUP BY 1)
SELECT vec_id, ROUND(score, 6) AS score FROM sc
ORDER BY score DESC, vec_id LIMIT 20""",
        "cluster_reroute": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, docs,
             row_number() OVER (ORDER BY docs DESC, shard) - 1 AS rk
      FROM sd)
SELECT shard, docs,
       CASE WHEN shard = 2 THEN 'node-2'
            WHEN shard = 3 THEN 'node-0'
            ELSE 'node-' || CAST(rk % 3 AS VARCHAR) END AS node,
       shard IN (2, 3) AS moved
FROM r ORDER BY shard""",
        "transform_continuous": """
SELECT event_type, count(*)::BIGINT AS doc_count,
       ROUND(sum(CAST(round(value * 100.0, 0) AS BIGINT)) / 100.0, 2)
         AS sum_value
FROM events WHERE ts <= TIMESTAMP '2024-01-27'
GROUP BY event_type ORDER BY event_type""",
        "field_usage_stats": """
SELECT * FROM (VALUES
  ('lang', 'doc_values', CAST(4 AS BIGINT)),
  ('n_chars', 'points', 4),
  ('text', 'norms', 16),
  ('text', 'positions', 4),
  ('text', 'postings', 16),
  ('text', 'terms', 16)) AS t(field, section, count)
ORDER BY field, section""",
        "ingest_inference": f"""
WITH {_TOK},
tf AS (SELECT d.doc_id,
              count(*) FILTER (term = 'data') AS tf_data,
              count(*) FILTER (term = 'error') AS tf_error,
              count(*) FILTER (term = 'fast') AS tf_fast,
              count(*) FILTER (term = 'slow') AS tf_slow
       FROM documents d LEFT JOIN tok ON d.doc_id = tok.doc_id
       GROUP BY d.doc_id),
z AS (SELECT doc_id,
             -0.25 + 0.8 * tf_data + -1.2 * tf_error
                   + 0.5 * tf_fast + -0.7 * tf_slow AS z
      FROM tf),
s AS (SELECT doc_id, 1.0 / (1.0 + exp(-z)) AS score FROM z)
SELECT doc_id, ROUND(score, 6) AS ml_score,
       CASE WHEN score >= 0.5 THEN 'positive' ELSE 'negative' END
         AS ml_class
FROM s ORDER BY doc_id""",
        "corpus_kl_drift": """
WITH tok2 AS (
  SELECT source, t AS term FROM (
    SELECT source,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u
  WHERE t <> ''),
c AS (SELECT source, term, count(*) AS c FROM tok2 GROUP BY 1, 2),
s AS (SELECT source, sum(c) AS n FROM c GROUP BY 1),
g AS (SELECT term, sum(c) AS gc FROM c GROUP BY 1),
tot AS (SELECT sum(c) AS bn FROM c)
SELECT c.source,
       ROUND(SUM((c.c::DOUBLE / s.n::DOUBLE)
                 * ln((c.c::DOUBLE / s.n::DOUBLE)
                      / (g.gc::DOUBLE / tot.bn::DOUBLE))), 6) AS kl
FROM c JOIN s USING (source) JOIN g USING (term) CROSS JOIN tot
GROUP BY c.source ORDER BY c.source""",
        "corpus_zipf_slope": f"""
WITH {_TOK},
tc AS (SELECT term, count(*) AS cnt FROM tok GROUP BY 1
       ORDER BY cnt DESC, term LIMIT 100),
r AS (SELECT ln(row_number() OVER (ORDER BY cnt DESC, term)::DOUBLE) AS x,
             ln(cnt::DOUBLE) AS y
      FROM tc),
t AS (SELECT count(*)::DOUBLE AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM r)
SELECT CAST(n AS BIGINT) AS n_terms,
       ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
       ROUND(sy / n - ((n * sxy - sx * sy) / (n * sxx - sx * sx))
             * (sx / n), 6) AS intercept
FROM t""",
        "esql_mv_functions2": """
WITH e AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings),
s AS (SELECT vec_id, list_sort(v) AS l, len(v) AS n, v FROM e),
p AS (SELECT vec_id, l, n, v,
             (n - 1) * (90.0 / 100.0) AS h90,
             (n - 1) * (50.0 / 100.0) AS h50
      FROM s),
q AS (SELECT vec_id, v,
             l[CAST(floor(h90) AS BIGINT) + 1]
               + (l[LEAST(CAST(floor(h90) AS BIGINT) + 1, n - 1) + 1]
                  - l[CAST(floor(h90) AS BIGINT) + 1])
                 * (h90 - floor(h90)) AS p90,
             l[CAST(floor(h50) AS BIGINT) + 1]
               + (l[LEAST(CAST(floor(h50) AS BIGINT) + 1, n - 1) + 1]
                  - l[CAST(floor(h50) AS BIGINT) + 1])
                 * (h50 - floor(h50)) AS med
      FROM p),
d AS (SELECT vec_id, sum(val / pow(idx, 1.5)) AS decay
      FROM (SELECT vec_id, unnest(v) AS val,
                   generate_subscripts(v, 1) AS idx
            FROM e)
      GROUP BY vec_id)
SELECT q.vec_id, ROUND(q.p90, 6) AS p90, ROUND(q.med, 6) AS med,
       ROUND(d.decay, 6) AS decay
FROM q JOIN d USING (vec_id) ORDER BY vec_id LIMIT 2000""",
        "esql_mv_zip": """
SELECT 'x+p|y+q|z' AS zipped, 'p+x|q+y|z' AS rev""",
        "sql_pivot": """
SELECT lang,
       ROUND(avg(CASE WHEN source = 'src0' THEN n_chars END), 6) AS src0,
       ROUND(avg(CASE WHEN source = 'src1' THEN n_chars END), 6) AS src1,
       ROUND(avg(CASE WHEN source = 'src2' THEN n_chars END), 6) AS src2,
       ROUND(avg(CASE WHEN source = 'src3' THEN n_chars END), 6) AS src3
FROM documents GROUP BY lang ORDER BY lang""",
        "indices_resize": """
WITH h(source, hv) AS (VALUES
  ('src0', -1164416664), ('src1', 706699432), ('src2', 332406938),
  ('src3', 1484881694), ('src4', 1035695491), ('src5', 1886931161),
  ('src6', 800076671), ('src7', 400197407), ('src8', 1531411777),
  ('src9', -1466533903), ('src10', 909986450), ('src11', 640363681),
  ('src12', 984838713), ('src13', -862322557), ('src14', -924893696),
  ('src15', 1485394773), ('src16', -1198424005), ('src17', -122829918),
  ('src18', 1096668294), ('src19', -721911169)),
r AS (SELECT ((hv % 12) + 12) % 12 AS fm, d.source
      FROM documents d JOIN h USING (source))
SELECT fm // 4 AS shard_3, fm // 2 AS shard_6,
       count(*) AS doc_count
FROM r GROUP BY 1, 2 ORDER BY shard_3, shard_6""",
        "eql_sample": """
WITH t AS (
  SELECT user_id, event_id, ts, 0 AS step FROM events
  WHERE event_type = 'click' AND value > 80
  UNION ALL
  SELECT user_id, event_id, ts, 1 FROM events
  WHERE event_type = 'error' AND value < 20
  UNION ALL
  SELECT user_id, event_id, ts, 2 FROM events
  WHERE event_type = 'signup'
),
fk AS (SELECT user_id FROM t GROUP BY user_id
       HAVING count(DISTINCT step) = 3),
r AS (SELECT user_id, step, event_id,
             row_number() OVER (PARTITION BY user_id, step
                                ORDER BY ts, event_id) AS rn
      FROM t WHERE user_id IN (SELECT user_id FROM fk))
SELECT user_id, step, event_id FROM r WHERE rn = 1
ORDER BY user_id, step""",
        "ingest_circle": """
WITH c AS (SELECT s_suppkey,
                  ((s_suppkey * 13) % 200) - 100 + 0.5 AS cx,
                  ((s_suppkey * 29) % 200) - 100 + 0.5 AS cy,
                  CAST(5 + (s_suppkey % 5) AS DOUBLE) AS r
           FROM supplier),
n AS (SELECT *, GREATEST(4, LEAST(1000,
           CAST(ceil(pi() / acos(1 - 1.0 / r)) AS BIGINT))) AS n_sides
      FROM c),
v AS (SELECT s_suppkey, n_sides, cx, cy, r,
             unnest(generate_series(0, n_sides - 1)) AS vertex
      FROM n)
SELECT s_suppkey, n_sides, vertex,
       ROUND(cx + r * cos(2 * pi() * vertex / n_sides), 6) AS vx,
       ROUND(cy + r * sin(2 * pi() * vertex / n_sides), 6) AS vy
FROM v ORDER BY s_suppkey, vertex""",
        "painless_execute": """
WITH d AS (SELECT n_chars FROM documents WHERE doc_id = 7)
SELECT * FROM (
  SELECT 'painless_test' AS context, 32.0 AS value
  UNION ALL
  SELECT 'filter',
         CASE WHEN (SELECT n_chars FROM d) > 120 THEN 1.0 ELSE 0.0 END
  UNION ALL
  SELECT 'score', ROUND(ln(2.0 + (SELECT n_chars FROM d)) * 1.5, 6)
) ORDER BY context""",
        "reload_search_analyzers": f"""
WITH {_TOK},
dt AS (SELECT DISTINCT doc_id, term FROM tok)
SELECT * FROM (
  SELECT DISTINCT 'before' AS phase, doc_id FROM dt WHERE term = 'fast'
  UNION ALL
  SELECT DISTINCT 'after', doc_id FROM dt WHERE term IN ('fast', 'slow')
) ORDER BY phase, doc_id""",
        "esql_show_info": """
SELECT '0.1.0' AS version, 'esray000' AS hash""",
        "agg_inference_regression": """
WITH b AS (SELECT source, count(*) AS doc_count, sum(n_chars) AS s
           FROM documents GROUP BY 1)
SELECT source, doc_count,
       ROUND(s::DOUBLE / doc_count::DOUBLE, 6) AS avg_chars,
       ROUND(12.5 + 0.75 * (s::DOUBLE / doc_count::DOUBLE)
             - 3.25 * ln(doc_count::DOUBLE), 6) AS predicted
FROM b ORDER BY source""",
        "esql_rrf": """
WITH s1 AS (SELECT doc_id, len(list_intersect(
              list_distinct(regexp_split_to_array(lower(text), '[^a-z0-9]+')),
              ['the','data','batch','query']))::BIGINT AS sc
            FROM documents),
r1 AS (SELECT doc_id, row_number() OVER (ORDER BY sc DESC, doc_id) AS rnk
       FROM s1 ORDER BY sc DESC, doc_id LIMIT 20),
s2 AS (SELECT doc_id, len(list_intersect(
              list_distinct(regexp_split_to_array(lower(text), '[^a-z0-9]+')),
              ['error','value','count']))::BIGINT AS sc
            FROM documents),
r2 AS (SELECT doc_id, row_number() OVER (ORDER BY sc DESC, doc_id) AS rnk
       FROM s2 ORDER BY sc DESC, doc_id LIMIT 20),
u AS (SELECT * FROM r1 UNION ALL SELECT * FROM r2)
SELECT doc_id, SUM(1.0/(60 + rnk)) AS _score
FROM u GROUP BY doc_id ORDER BY _score DESC, doc_id LIMIT 10""",
        "esql_ts_rate": """
WITH x AS (SELECT user_id, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                  ts, CAST(round(value*100) AS BIGINT) AS cents
           FROM events),
y AS (SELECT *, lag(cents) OVER (PARTITION BY user_id, day ORDER BY ts) AS pc
      FROM x),
g AS (SELECT user_id, day,
             SUM(CASE WHEN pc IS NULL THEN 0
                      WHEN cents >= pc THEN cents - pc ELSE cents END) AS inc,
             epoch_us(max(ts)) - epoch_us(min(ts)) AS span_us,
             COUNT(*) AS n
      FROM y GROUP BY 1, 2)
SELECT user_id, day,
       CASE WHEN n < 2 OR span_us = 0 THEN NULL
            ELSE (inc / 100.0) / (span_us / 1000000.0) END AS r
FROM g ORDER BY user_id, day LIMIT 60""",
        "esql_stats_where": """
SELECT event_type, COUNT(*) AS n,
       COUNT(*) FILTER (WHERE event_type = 'error') AS errs,
       ROUND(AVG(value) FILTER (WHERE value > 50), 4) AS hi_avg,
       ROUND(SUM(value) FILTER (WHERE value <= 50), 2) AS lo_sum
FROM events GROUP BY event_type ORDER BY event_type""",
        "esql_change_point": """
WITH d AS (SELECT date_trunc('day', ts) AS day, COUNT(*) AS c
           FROM events GROUP BY 1),
s AS (SELECT day, c,
      SUM(c) OVER (ORDER BY day)
        - ROW_NUMBER() OVER (ORDER BY day) * (AVG(c) OVER ()) AS cu,
      COUNT(*) OVER () AS n, ROW_NUMBER() OVER (ORDER BY day) AS rn
      FROM d)
SELECT strftime(day, '%Y-%m-%d') AS day, c, 'step_change' AS type
FROM s WHERE rn < n ORDER BY ABS(cu) DESC, day LIMIT 1""",
        "esql_ip_functions": """
WITH e AS (SELECT (user_id * 2654435761) % 4294967296 AS v FROM events),
f AS (SELECT v FROM e WHERE v < 536870912)
SELECT CAST(v // 16777216 AS VARCHAR) || '.0.0.0' AS net, COUNT(*) AS n
FROM f GROUP BY 1 ORDER BY net LIMIT 100""",
        "source_dup_matrix": r"""
WITH f AS (SELECT doc_id, source,
                  array_to_string(list_slice(list_filter(
                      regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                      x -> x <> ''), 1, 5), ' ') AS h
           FROM documents)
SELECT LEAST(a.source, b.source) AS src_a,
       GREATEST(a.source, b.source) AS src_b,
       count(*)::BIGINT AS dup_pairs
FROM f a JOIN f b ON a.h = b.h AND a.doc_id < b.doc_id
GROUP BY 1, 2 ORDER BY 1, 2""",
        "search_shards_nodes": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, 'node-' || CAST((row_number() OVER
             (ORDER BY docs DESC, shard) - 1) % 3 AS VARCHAR) AS node
      FROM sd)
SELECT w.source AS routing, CAST(m.shard AS BIGINT) AS shard, r.node
FROM (VALUES ('src0'), ('src5'), ('src9'), ('src13'), ('src17')) w(source)
JOIN smap m USING (source) JOIN r ON r.shard = m.shard
ORDER BY routing""",
        "indices_segments": """
SELECT (doc_id // 600)::BIGINT AS generation, count(*)::BIGINT AS doc_count,
       1::BIGINT AS committed
FROM documents GROUP BY 1 ORDER BY 1""",
        "ccnet_buckets": r"""
WITH d AS (
  SELECT doc_id, source,
         list_concat(['<s>'], list_concat(
           list_filter(regexp_split_to_array(lower(text), '\s+'),
                       x -> x <> ''), ['</s>'])) AS arr
  FROM documents),
bg AS (SELECT arr[i] AS v, arr[i + 1] AS w, count(*)::DOUBLE AS c
       FROM d, unnest(generate_series(1, len(arr) - 1)) AS t(i)
       WHERE source IN ('src1','src2','src3') GROUP BY v, w),
cx AS (SELECT v, sum(c) AS cv, count(*)::DOUBLE AS n1f FROM bg GROUP BY v),
bwd AS (SELECT w, count(*)::DOUBLE AS n1b FROM bg GROUP BY w),
tot AS (SELECT count(*)::DOUBLE AS t, count(DISTINCT w)::DOUBLE AS vc FROM bg),
st AS (SELECT doc_id, arr[i] AS v, arr[i + 1] AS w
       FROM d, unnest(generate_series(1, len(arr) - 1)) AS t(i)),
sp AS (SELECT s.doc_id, s.v, s.w,
              (coalesce(bw.n1b, 0) + 0.5) / (tt.t + 0.5 * (tt.vc + 1)) AS pc
       FROM st s CROSS JOIN tot tt LEFT JOIN bwd bw ON bw.w = s.w),
lp AS (SELECT sp.doc_id,
              ln(CASE WHEN cx.v IS NULL THEN sp.pc
                 ELSE greatest(coalesce(b.c, 0) - 0.75, 0) / cx.cv
                      + 0.75 * cx.n1f / cx.cv * sp.pc END) AS lp
       FROM sp LEFT JOIN cx ON cx.v = sp.v
       LEFT JOIN bg b ON b.v = sp.v AND b.w = sp.w),
px AS (SELECT doc_id, round(exp(-avg(lp)), 4) AS ppl
       FROM lp GROUP BY doc_id)
SELECT px.doc_id, d2.source, px.ppl,
       CASE ntile(3) OVER (PARTITION BY d2.source
                           ORDER BY px.ppl, px.doc_id)
         WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END AS bucket
FROM px JOIN (SELECT doc_id, source FROM documents) d2 USING (doc_id)
ORDER BY px.doc_id""",
        "esql_rerank": """
WITH s AS (
  SELECT doc_id,
    len(list_intersect(
          list_distinct(regexp_split_to_array(lower(text), '[^a-z0-9]+')),
          ['the','data','batch','query']))::BIGINT AS _score
  FROM documents)
SELECT doc_id, _score FROM s ORDER BY _score DESC, doc_id LIMIT 10""",
        "esql_completion": """
SELECT doc_id,
  'OK: ' || array_to_string((str_split('summarize: ' || text, ' '))[1:5],
                            ' ') AS summary
FROM documents WHERE doc_id < 100 ORDER BY doc_id""",
        "esql_fork": """
SELECT * FROM (
  SELECT 'fork1' AS _fork, event_type, count(*)::BIGINT AS n
  FROM events WHERE value > 100 GROUP BY 2
  UNION ALL
  SELECT 'fork2' AS _fork, event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 2)
ORDER BY _fork, event_type""",
        "esql_categorize": """
WITH m AS (
  SELECT regexp_replace(
           event_type || ' took ' || trunc(value)::BIGINT::VARCHAR || ' ms',
           '[0-9]+', '#', 'g') AS cat
  FROM events)
SELECT cat, count(*)::BIGINT AS n FROM m
GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5""",
        "esql_inlinestats": """
WITH w AS (
  SELECT o_orderpriority, o_totalprice,
         AVG(o_totalprice) OVER (PARTITION BY o_orderpriority) AS avg_price
  FROM orders)
SELECT o_orderpriority, count(*)::BIGINT AS n, MIN(o_totalprice) AS mn
FROM w WHERE o_totalprice > avg_price
GROUP BY 1 ORDER BY 1""",
        "esql_sample": """
SELECT o_orderstatus, count(*)::BIGINT AS n, max(o_totalprice) AS mx
FROM orders
WHERE ((o_orderkey * 2654435761 + 7 * 40503) % 4294967296)
      < 0.125 * 4294967296
GROUP BY 1 ORDER BY 1""",
        "esql_row": """
SELECT 1::BIGINT AS a, 'two' AS b, pi() AS c,
       1 + pi() AS d, 'TWO' AS e""",
        "esql_mv_functions": """
SELECT doc_id,
  len(str_split(text,' '))::BIGINT AS nw,
  str_split(text,' ')[1] AS first_w,
  str_split(text,' ')[-1] AS last_w,
  len(list_distinct(str_split(text,' ')))::BIGINT AS uniq_w,
  array_to_string(list_sort(str_split(text,' '))[1:3], '|') AS head3
FROM documents WHERE doc_id < 200 ORDER BY doc_id""",
        "esql_scalar_functions": """
SELECT o_orderkey,
  round(ln(o_totalprice), 4) AS lp,
  round(cbrt(o_totalprice), 4) AS r3,
  round(sqrt(o_totalprice*o_totalprice + o_custkey*o_custkey), 4) AS h,
  sign(o_totalprice - 100000)::DOUBLE AS sg,
  strftime(o_orderdate, '%Y-%m-%d') AS d,
  (8*length(o_orderstatus))::BIGINT AS bl,
  to_base64(o_orderpriority::BLOB) AS b64,
  datediff('day', TIMESTAMP '1995-01-01', o_orderdate)::BIGINT AS days
FROM orders WHERE o_orderkey < 500 ORDER BY o_orderkey""",
        "esql_bucket": """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS d,
       floor(value/100)*100 AS b,
       count(*)::BIGINT AS n, ROUND(SUM(value), 2) AS s
FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        "esql_stats_extended": """
SELECT l_returnflag,
       quantile_cont(l_extendedprice, 0.5) AS med,
       quantile_cont(l_extendedprice, 0.95) AS p95,
       sqrt((sum(round(l_discount*100)::BIGINT*round(l_discount*100)::BIGINT)::DOUBLE
             - (sum(round(l_discount*100)::BIGINT)::DOUBLE)^2 / count(*))
            / (count(*)-1)) / 100.0 AS sd,
       sum(round(l_extendedprice*100)::BIGINT * round(l_quantity*100)::BIGINT)::DOUBLE
         / (100 * sum(round(l_quantity*100)::BIGINT))::DOUBLE AS w
FROM lineitem GROUP BY 1 ORDER BY 1""",
        "esql_enrich": """
SELECT c_nationkey, count(*)::BIGINT AS n,
       count(DISTINCT c_name)::BIGINT AS d
FROM events JOIN customer ON user_id = c_custkey
GROUP BY 1 ORDER BY 1 LIMIT 10""",
        "esql_values_agg": """
SELECT o_orderpriority,
       array_to_string(list_sort(list(DISTINCT o_orderstatus)), ',') AS kinds,
       count(*)::BIGINT AS n
FROM orders GROUP BY 1 ORDER BY 1""",
        "esql_expression": """
WITH e AS (
  SELECT upper(event_type) || '_' ||
         CASE WHEN value > 100 THEN 'hi'
              WHEN value > 30 THEN 'mid' ELSE 'lo' END AS tag,
         trunc(value)::BIGINT AS vi
  FROM events
  WHERE (value > 5 AND event_type IN ('click','view','error'))
     OR event_type LIKE 'sig%'
)
SELECT tag, count(*)::BIGINT AS n, SUM(vi)::BIGINT AS s
FROM e GROUP BY 1 ORDER BY 1""",
        "esql_count_distinct": """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS users,
       count(*)::BIGINT AS cnt, ROUND(SUM(value), 2) AS total
FROM events GROUP BY event_type ORDER BY event_type""",
        "esql_rename_drop": """
SELECT o_orderstatus AS status, count(*)::BIGINT AS n,
       MAX(o_totalprice) AS mx
FROM orders WHERE o_totalprice > 50000
GROUP BY 1 ORDER BY 1""",
        "esql_grok": r"""
SELECT event_type, count(*)::BIGINT AS n,
       SUM(CAST(regexp_extract(props, '(-?\d+)', 1) AS BIGINT))::BIGINT AS s
FROM events GROUP BY event_type ORDER BY event_type""",
        "curation_funnel": rf"""
WITH q AS (
  SELECT doc_id,
    CASE WHEN length(text)=0 THEN 0
         ELSE length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE / length(text) END AS alpha,
    CASE WHEN length(text)=0 THEN 0
         ELSE (length(text) - length(replace(text, ' ', '')))::DOUBLE / length(text) END AS space,
    CASE WHEN len(toks)=0 THEN 0
         ELSE len(list_filter(toks, x -> list_contains({_STOP_SQL}, lower(x))))::DOUBLE / len(toks) END AS stopr,
    CASE WHEN len(toks)=0 THEN 0
         ELSE list_sum(list_transform(toks, x -> length(x)))::DOUBLE / len(toks) END AS mtl
  FROM (SELECT doc_id, text,
               list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
        FROM documents)),
scored AS (
  SELECT doc_id,
    ROUND(LEAST(GREATEST(0.4*alpha + 0.2*LEAST(space*6, 1) + 0.2*(1 - stopr)
                + 0.2*LEAST(mtl/8, 1), 0), 1), 4) AS quality
  FROM q),
base AS (SELECT d.doc_id, d.text, d.lang, s.quality
         FROM documents d JOIN scored s USING (doc_id)),
surv AS (SELECT * FROM base WHERE lang = 'en' AND quality >= 0.5)
SELECT 0::BIGINT AS stage_idx, 'all' AS stage, count(*)::BIGINT AS docs
  FROM base
UNION ALL
SELECT 1, 'lang', count(*) FROM base WHERE lang = 'en'
UNION ALL
SELECT 2, 'quality', count(*) FROM surv
UNION ALL
SELECT 3, 'exact_dedup', count(DISTINCT text) FROM surv
ORDER BY stage_idx""",
        "mget": """
WITH w(idx, id) AS (VALUES
  ('documents', 1), ('documents', 5), ('documents', 424242),
  ('events', 2), ('events', 8), ('events', 999999999)),
d AS (SELECT doc_id AS id, length(text) AS src_len FROM documents),
e AS (SELECT event_id AS id, length(event_type) AS src_len FROM events)
SELECT w.idx, w.id::BIGINT AS id,
       (CASE WHEN w.idx = 'documents' THEN d.id IS NOT NULL
             ELSE e.id IS NOT NULL END)::INT::BIGINT AS found,
       COALESCE(CASE WHEN w.idx = 'documents' THEN d.src_len
                     ELSE COALESCE(e.src_len, 0) END,
                CASE WHEN w.idx = 'documents' THEN -1 ELSE 0 END)::BIGINT
         AS src_len
FROM w LEFT JOIN d ON w.idx = 'documents' AND w.id = d.id
       LEFT JOIN e ON w.idx = 'events' AND w.id = e.id
ORDER BY CASE w.idx WHEN 'documents' THEN 0 ELSE 1 END, w.id""",
        "sql_group_query": """
SELECT event_type, COUNT(*) AS n, ROUND(SUM(value), 2) AS sv,
       ROUND(MAX(value), 6) AS mx
FROM events WHERE value >= 5
GROUP BY event_type HAVING COUNT(*) >= 10 ORDER BY event_type""",
        "ft_frozen_search": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'query'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "tokenizer_vocab_coverage": f"""
WITH {_TOK},
tc AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
v AS (SELECT term FROM tc ORDER BY c DESC, term LIMIT 10),
per AS (SELECT d.lang, t.term FROM tok t JOIN documents d USING (doc_id))
SELECT lang, count(*)::BIGINT AS tokens,
       SUM(CASE WHEN term NOT IN (SELECT term FROM v)
                THEN 1 ELSE 0 END)::BIGINT AS oov,
       ROUND(SUM(CASE WHEN term NOT IN (SELECT term FROM v)
                      THEN 1 ELSE 0 END)::DOUBLE / count(*), 6) AS oov_rate
FROM per GROUP BY lang ORDER BY lang""",
        "dedup_weighted_sampling": """
SELECT source, count(*)::BIGINT AS docs, ROUND(SUM(1.0 / c), 6) AS eff_docs
FROM (SELECT source, count(*) OVER (PARTITION BY text) AS c FROM documents)
GROUP BY source ORDER BY source""",
        "training_span_corruption": f"""
WITH {_PTOK},
m AS (SELECT doc_id, pos,
             CASE WHEN (doc_id * 1000003 + pos * 7919) % 100 < 15
                  THEN 1 ELSE 0 END AS msk,
             CASE WHEN (doc_id * 1000003 + pos * 7919) % 100 < 15
                   AND (pos = 0 OR
                        (doc_id * 1000003 + (pos - 1) * 7919) % 100 >= 15)
                  THEN 1 ELSE 0 END AS span_start
      FROM ptok)
SELECT doc_id, count(*)::BIGINT AS n_tokens, SUM(msk)::BIGINT AS n_masked,
       SUM(span_start)::BIGINT AS n_spans
FROM m GROUP BY doc_id ORDER BY doc_id""",
        "searchable_snapshot_query": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'merge'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ccr_follow": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'sort'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "slm_retention": """
WITH d AS (SELECT DISTINCT date_trunc('day', ts) AS day FROM events),
m AS (SELECT max(day) AS mxd FROM d),
s AS (SELECT day, date_diff('day', day, mxd) AS age,
             row_number() OVER (ORDER BY day DESC) AS rn
      FROM d CROSS JOIN m)
SELECT day, age::BIGINT AS age_days,
       (rn <= 10 AND (age <= 7 OR rn <= 5)) AS retained
FROM s ORDER BY day""",
        "nodes_stats": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, docs,
             row_number() OVER (ORDER BY docs DESC, shard) - 1 AS rk
      FROM sd)
SELECT 'node-' || CAST(rk % 3 AS VARCHAR) AS node,
       count(*)::BIGINT AS shards, SUM(docs)::BIGINT AS docs
FROM r GROUP BY 1 ORDER BY node""",
        "allocation_explain": """
WITH smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
sd AS (SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs
       FROM documents d JOIN smap m USING (source) GROUP BY 1),
r AS (SELECT shard, docs,
             row_number() OVER (ORDER BY docs DESC, shard) - 1 AS rk
      FROM sd)
SELECT shard, docs, 'node-' || CAST(rk % 3 AS VARCHAR) AS node,
       'YES' AS decision
FROM r ORDER BY shard""",
        "esql_dissect": r"""
SELECT event_type, count(*)::BIGINT AS n,
       max(CAST(regexp_extract(props, '\{"k": (\d+)\}', 1) AS BIGINT)) AS mx
FROM events GROUP BY event_type ORDER BY event_type""",
        "esql_mv_expand": """
SELECT t AS toks, count(*)::BIGINT AS n
FROM (SELECT unnest(string_split(text, ' ')) AS t FROM documents)
GROUP BY 1 ORDER BY n DESC, toks LIMIT 10""",
        "esql_lookup_join": """
SELECT n_name, count(*)::BIGINT AS cnt
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1 ORDER BY 1""",
        "esql_topk": """
SELECT event_id, user_id, value FROM events
WHERE event_type = 'purchase'
ORDER BY value DESC, event_id LIMIT 10""",
        "esql_stats_expression": """
SELECT l_returnflag,
       ROUND(SUM(ROUND(l_extendedprice * 100)::BIGINT
                 * ROUND((1 - l_discount) * 100)::BIGINT) / 10000.0,
             2) AS rev,
       count(*)::BIGINT AS n
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag""",
        "esql_multi_index": """
SELECT _index, event_type, count(*)::BIGINT AS c FROM (
  SELECT 'events' AS _index, event_type FROM events
  UNION ALL SELECT 'remote:events' AS _index, event_type FROM events)
GROUP BY _index, event_type ORDER BY _index, event_type""",
        "text_structure_delimited": """
SELECT * FROM (VALUES ('event_id','long'),('event_type','keyword'),
  ('ts','date'),('user_id','long'),('value','double')) t(field, es_type)
ORDER BY field""",
        "text_structure_ndjson": """
SELECT * FROM (VALUES ('doc_id','long'),('lang','keyword'),
  ('n_chars','long'),('source','keyword'),('text','text')) t(field, es_type)
ORDER BY field""",
        "esql_top": """
SELECT event_type, array_to_string(list_slice(
  list(round(value*100)::BIGINT ORDER BY round(value*100)::BIGINT DESC),
  1, 3), ',') AS t
FROM events GROUP BY event_type ORDER BY event_type""",
        "esql_fuse_linear": """
WITH s1 AS (SELECT doc_id, len(list_intersect(
              list_distinct(regexp_split_to_array(lower(text), '[^a-z0-9]+')),
              ['the','data','batch','query']))::BIGINT AS sc
            FROM documents),
r1 AS (SELECT doc_id, sc FROM s1 ORDER BY sc DESC, doc_id LIMIT 20),
n1 AS (SELECT doc_id, CASE WHEN mx = mn THEN 0.0
                           ELSE (sc - mn) / (mx - mn) END AS v
       FROM r1, (SELECT max(sc) AS mx, min(sc) AS mn FROM r1)),
s2 AS (SELECT doc_id, len(list_intersect(
              list_distinct(regexp_split_to_array(lower(text), '[^a-z0-9]+')),
              ['error','value','count']))::BIGINT AS sc
            FROM documents),
r2 AS (SELECT doc_id, sc FROM s2 ORDER BY sc DESC, doc_id LIMIT 20),
n2 AS (SELECT doc_id, CASE WHEN mx = mn THEN 0.0
                           ELSE (sc - mn) / (mx - mn) END AS v
       FROM r2, (SELECT max(sc) AS mx, min(sc) AS mn FROM r2))
SELECT doc_id, SUM(v) AS _score
FROM (SELECT * FROM n1 UNION ALL SELECT * FROM n2)
GROUP BY doc_id ORDER BY _score DESC, doc_id LIMIT 10""",
        "retriever_rrf_tree": f"""
WITH {_TOK},
qa AS (SELECT unnest(['slow','merge','batch']) AS term),
tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN (SELECT term FROM qa) GROUP BY doc_id, term),
dfa AS (SELECT term, count(*) AS df FROM tfa GROUP BY term),
sa AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS s
       FROM tfa tf JOIN dfa df USING (term)
       JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st GROUP BY tf.doc_id),
ra AS (SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS r
       FROM sa QUALIFY r <= 50),
qb AS (SELECT unnest(['data']) AS term),
tfb AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN (SELECT term FROM qb) GROUP BY doc_id, term),
dfb AS (SELECT term, count(*) AS df FROM tfb GROUP BY term),
sb AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS s
       FROM tfb tf JOIN dfb df USING (term)
       JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st GROUP BY tf.doc_id),
rb AS (SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS r
       FROM sb QUALIFY r <= 50)
SELECT doc_id, ROUND(SUM(1.0 / (60.0 + r)), 4) AS "_score"
FROM (SELECT * FROM ra UNION ALL SELECT * FROM rb)
GROUP BY doc_id ORDER BY SUM(1.0 / (60.0 + r)) DESC, doc_id LIMIT 5""",
        "retriever_linear": f"""
WITH {_TOK},
qv AS (SELECT [{_QVEC}]::DOUBLE[] AS q),
qa AS (SELECT unnest(['data','query']) AS term),
tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN (SELECT term FROM qa) GROUP BY doc_id, term),
dfa AS (SELECT term, count(*) AS df FROM tfa GROUP BY term),
sa AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS s
       FROM tfa tf JOIN dfa df USING (term)
       JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st GROUP BY tf.doc_id),
la AS (SELECT doc_id, s FROM sa ORDER BY s DESC, doc_id LIMIT 50),
na AS (SELECT doc_id, CASE WHEN mx = mn THEN 0.0
                           ELSE (s - mn) / (mx - mn) END AS v
       FROM la, (SELECT max(s) AS mx, min(s) AS mn FROM la)),
kb AS (SELECT vec_id AS doc_id,
              ROUND((1 + list_cosine_similarity(embedding, q)) / 2, 6) AS s
       FROM embeddings, qv
       ORDER BY list_cosine_similarity(embedding, q) DESC, vec_id LIMIT 50),
nb AS (SELECT doc_id, CASE WHEN mx = mn THEN 0.0
                           ELSE (s - mn) / (mx - mn) END AS v
       FROM kb, (SELECT max(s) AS mx, min(s) AS mn FROM kb))
SELECT doc_id, ROUND(SUM(v), 4) AS "_score"
FROM (SELECT doc_id, 0.7 * v AS v FROM na
      UNION ALL SELECT doc_id, 0.3 * v FROM nb)
GROUP BY doc_id ORDER BY SUM(v) DESC, doc_id LIMIT 5""",
        "retriever_rerank": f"""
WITH {_TOK},
qa AS (SELECT unnest(['data','query','window']) AS term),
tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN (SELECT term FROM qa) GROUP BY doc_id, term),
dfa AS (SELECT term, count(*) AS df FROM tfa GROUP BY term),
sa AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS s
       FROM tfa tf JOIN dfa df USING (term)
       JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st GROUP BY tf.doc_id),
w AS (SELECT doc_id FROM sa ORDER BY s DESC, doc_id LIMIT 20)
SELECT w.doc_id AS doc_id,
       CAST(count(DISTINCT t.term) AS DOUBLE) AS "_score"
FROM w LEFT JOIN tok t ON t.doc_id = w.doc_id
  AND t.term IN ('the', 'data', 'batch', 'query', 'window')
GROUP BY w.doc_id
ORDER BY count(DISTINCT t.term) DESC, doc_id LIMIT 5""",
        "ingest_uri_parts": """
SELECT doc_id, 'https' AS url_scheme,
       CASE WHEN doc_id % 5 = 0 THEN 'u' END AS url_user_info,
       source || '.example.co.uk' AS url_domain,
       CASE WHEN doc_id % 3 = 0 THEN 8080 END::BIGINT AS url_port,
       '/files/doc' || doc_id || '.html' AS url_path,
       'lang=' || lang AS url_query,
       'html' AS url_extension
FROM documents ORDER BY doc_id""",
        "ingest_registered_domain": """
SELECT doc_id,
  CASE doc_id % 4 WHEN 0 THEN source || '.co.uk'
       WHEN 1 THEN source || '.github.io'
       WHEN 2 THEN source || '.com' ELSE source || '.org'
  END AS registered_domain,
  CASE doc_id % 4 WHEN 0 THEN 'www' WHEN 1 THEN 'a.b'
       WHEN 2 THEN NULL ELSE 'cdn' END AS subdomain,
  CASE doc_id % 4 WHEN 0 THEN 'co.uk' WHEN 1 THEN 'github.io'
       WHEN 2 THEN 'com' ELSE 'org' END AS top_level_domain
FROM documents ORDER BY doc_id""",
        "ingest_network_direction": """
SELECT direction, count(*)::BIGINT AS n FROM (
  SELECT CASE WHEN user_id % 3 = 0 AND event_id % 2 = 0 THEN 'internal'
              WHEN user_id % 3 = 0 THEN 'outbound'
              WHEN event_id % 2 = 0 THEN 'inbound'
              ELSE 'external' END AS direction
  FROM events) GROUP BY direction ORDER BY direction""",
        "sql_fulltext_score": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
JOIN documents d ON d.doc_id = tf.doc_id
WHERE d.n_chars > 150
GROUP BY tf.doc_id ORDER BY doc_id""",
        "sql_fulltext_agg": f"""
WITH {_TOK},
hit AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
neg AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'window')
SELECT d.lang AS lang, count(*)::BIGINT AS n
FROM documents d JOIN hit USING (doc_id)
WHERE d.doc_id NOT IN (SELECT doc_id FROM neg)
GROUP BY d.lang ORDER BY d.lang""",
        "esql_like_list": """
SELECT event_type, count(*)::BIGINT AS n FROM events
WHERE (event_type LIKE 'c%' OR event_type LIKE 'p%')
  AND (regexp_matches(props, '1') OR regexp_matches(props, '7'))
GROUP BY event_type ORDER BY event_type""",
        "esql_over_time": """
WITH i AS (
  SELECT user_id, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
         sum(round(value*100)) AS cents, count(value) AS cnt,
         max(round(value*100)) AS mxc,
         arg_max(round(value*100), ts) AS lastc
  FROM events GROUP BY 1, 2)
SELECT day, ROUND(sum(cents/100.0/cnt), 4) AS s,
       ROUND(max(mxc)/100.0, 4) AS mx, sum(cnt)::BIGINT AS c,
       ROUND(avg(lastc/100.0), 4) AS l
FROM i GROUP BY day ORDER BY day LIMIT 40""",
        "eql_head_pipe": """
SELECT event_id, ts, event_type, value FROM events
WHERE event_type = 'purchase' AND value > 40
ORDER BY ts, event_id LIMIT 5""",
        "eql_sequence_three": """
WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
s2 AS (SELECT c.user_id, c.ts AS t1,
         (SELECT min(v.ts) FROM events v
          WHERE v.user_id = c.user_id AND v.event_type = 'view'
            AND v.ts > c.ts) AS t2
       FROM c),
s3 AS (SELECT user_id, t1, t2,
         (SELECT min(p.ts) FROM events p
          WHERE p.user_id = s2.user_id AND p.event_type = 'purchase'
            AND p.ts > s2.t2) AS t3
       FROM s2 WHERE t2 IS NOT NULL)
SELECT user_id, count(*)::BIGINT AS seqs
FROM s3
WHERE t3 IS NOT NULL AND epoch_us(t3) - epoch_us(t1) <= 172800000000::BIGINT
GROUP BY user_id ORDER BY user_id""",
        "eql_until": """
WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
s2 AS (SELECT c.user_id, c.ts AS t1,
         (SELECT min(p.ts) FROM events p
          WHERE p.user_id = c.user_id AND p.event_type = 'purchase'
            AND p.ts > c.ts) AS t2
       FROM c)
SELECT user_id, count(*)::BIGINT AS seqs
FROM s2
WHERE t2 IS NOT NULL AND epoch_us(t2) - epoch_us(t1) <= 172800000000::BIGINT
  AND NOT EXISTS (SELECT 1 FROM events e
                  WHERE e.user_id = s2.user_id AND e.event_type = 'error'
                    AND e.ts > s2.t1 AND e.ts <= s2.t2)
GROUP BY user_id ORDER BY user_id""",
        "esql_knn": f"""
WITH qv AS (SELECT [{_QVEC}]::DOUBLE[] AS q)
SELECT vec_id,
       ROUND((1 + list_cosine_similarity(embedding, q)) / 2, 4) AS "_score"
FROM embeddings, qv
ORDER BY list_cosine_similarity(embedding, q) DESC, vec_id
LIMIT 10""",
        "esql_vector_functions": f"""
WITH qv AS (SELECT [{_QVEC}]::DOUBLE[] AS q),
per AS (
  SELECT label,
         list_cosine_similarity(embedding, q) AS cos,
         list_inner_product(embedding, q) AS dot,
         (SELECT sum(abs(x.v - q[x.i]))
          FROM (SELECT unnest(embedding) AS v,
                       generate_subscripts(embedding, 1) AS i) x) AS l1,
         list_distance(embedding, q) AS l2,
         sqrt(list_inner_product(embedding, embedding)) AS mag
  FROM embeddings, qv)
SELECT label, ROUND(avg(cos), 4) AS avg_cos, ROUND(avg(dot), 4) AS avg_dot,
       ROUND(avg(l1), 4) AS avg_l1, ROUND(avg(l2), 4) AS avg_l2,
       ROUND(avg(mag), 4) AS avg_mag
FROM per GROUP BY label ORDER BY label""",
        "esql_match": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS "_score"
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "esql_match_operator": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS "_score"
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id HAVING count(*) = 2 ORDER BY doc_id""",
        "esql_match_phrase": """
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "esql_qstr": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, any_value(d.n_chars)::BIGINT AS n_chars,
       ROUND(SUM({_SCORE}), 4) AS "_score"
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
JOIN documents d ON d.doc_id = tf.doc_id
WHERE tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'vector')
  AND d.n_chars > 150
GROUP BY tf.doc_id HAVING count(*) = 2 ORDER BY doc_id""",
        "esql_kql": f"""
WITH {_TOK},
q AS (SELECT unnest(['data']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS "_score"
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
WHERE tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'window')
GROUP BY tf.doc_id ORDER BY doc_id""",
        "esql_score_topk": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS s
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
       CROSS JOIN st GROUP BY tf.doc_id)
SELECT doc_id, s AS "_score" FROM sc
ORDER BY s DESC, doc_id LIMIT 10""",
        "transform_latest": """
SELECT user_id, event_id, ts, event_type, value FROM events
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) = 1
ORDER BY user_id""",
        "ml_anomaly_zscore": """
WITH b AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*)::BIGINT AS n
           FROM events GROUP BY 1, 2),
s AS (SELECT event_type, avg(n) AS mu, stddev_samp(n) AS sd
      FROM b GROUP BY 1)
SELECT b.event_type, b.day, b.n, ROUND((b.n - s.mu) / s.sd, 6) AS zscore
FROM b JOIN s USING (event_type)
WHERE s.sd > 0 AND abs((b.n - s.mu) / s.sd) >= 1.5
ORDER BY event_type, day""",
        "watcher_execute": """
WITH b AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*)::BIGINT AS n
           FROM events GROUP BY 1, 2),
w(watch_id, event_type, thr) AS (VALUES
  ('w_click_flood', 'click', 60),
  ('w_error_spike', 'error', 70),
  ('w_purchase_drop', 'purchase', 75))
SELECT w.watch_id, b.day, b.n
FROM w JOIN b USING (event_type)
WHERE b.n >= w.thr
ORDER BY watch_id, day""",
        "tsdb_downsample": """
SELECT event_type, date_trunc('day', ts) AS day,
       ROUND(min(value), 6) AS vmin, ROUND(max(value), 6) AS vmax,
       ROUND(sum(value), 6) AS vsum, count(value)::BIGINT AS value_count
FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        "completion_fuzzy": f"""
WITH {_TOK},
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS doc_count
       FROM tok GROUP BY term)
SELECT term, doc_count,
       levenshtein(substr(term, 1, 3), 'dat')::BIGINT AS fuzz
FROM df
WHERE length(term) >= 3 AND levenshtein(substr(term, 1, 3), 'dat') <= 1
ORDER BY doc_count DESC, term LIMIT 5""",
        "completion_contexts": f"""
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents WHERE lang = 'en') u
  WHERE t <> ''),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS doc_count
       FROM tok WHERE term LIKE 's%' GROUP BY term)
SELECT term, doc_count FROM df
ORDER BY doc_count DESC, term LIMIT 5""",
        "tokenizer_fertility": r"""
WITH per AS (SELECT lang,
  len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                  x -> x <> '')) AS na,
  len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS nw,
  n_chars FROM documents)
SELECT lang, sum(na)::BIGINT AS tokens, sum(nw)::BIGINT AS words,
       sum(n_chars)::BIGINT AS chars,
       ROUND(sum(na)::DOUBLE / sum(nw), 6) AS fertility,
       ROUND(sum(n_chars)::DOUBLE / sum(na), 6) AS chars_per_token
FROM per GROUP BY lang ORDER BY lang""",
        "knn_hard_negatives": """
WITH q AS (SELECT vec_id, embedding, label FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
sc AS (SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
              list_cosine_similarity(q.embedding::DOUBLE[],
                                     v.embedding::DOUBLE[]) AS cos
       FROM q CROSS JOIN embeddings v
       WHERE v.label <> q.label AND v.vec_id <> q.vec_id)
SELECT query_id, vec_id, ROUND(cos, 6) AS cosine,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY cos DESC, vec_id)::BIGINT AS rank
FROM sc
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY cos DESC, vec_id) <= 5
ORDER BY query_id, rank""",
        "esql_query": """
SELECT event_type,
       count(*) AS cnt, ROUND(SUM(value * 2), 2) AS sv, MAX(value) AS mx
FROM events
WHERE value >= 10 AND event_type <> 'error'
GROUP BY event_type ORDER BY event_type""",
        "agg_aggregate_metric": """
WITH r AS (SELECT user_id, min(value) AS mn, max(value) AS mx,
                  SUM(value) AS s, count(*) AS c
           FROM events GROUP BY 1)
SELECT ROUND(min(mn), 4) AS min_value, ROUND(max(mx), 4) AS max_value,
       ROUND(SUM(s), 2) AS sum_value, SUM(c)::BIGINT AS value_count,
       ROUND(SUM(s) / SUM(c), 4) AS avg_value
FROM r""",
        "agg_histogram_field": """
WITH h AS (SELECT event_type, floor(value / 10.0) * 10.0 + 5.0 AS center,
                  count(*) AS c
           FROM events GROUP BY 1, 2),
cm AS (SELECT event_type, center, c,
              SUM(c) OVER (PARTITION BY event_type ORDER BY center
                           ROWS UNBOUNDED PRECEDING) AS cum,
              SUM(c) OVER (PARTITION BY event_type) AS total
       FROM h)
SELECT event_type,
       min(CASE WHEN cum * 100 >= 50 * total THEN center END) AS p50,
       min(CASE WHEN cum * 100 >= 90 * total THEN center END) AS p90,
       CAST(min(total) AS BIGINT) AS total
FROM cm GROUP BY event_type ORDER BY event_type""",
        "ingest_append_tags": """
SELECT doc_id, source || ',archived,v1' AS tags
FROM documents ORDER BY doc_id""",
        "curriculum_order": """
WITH k AS (SELECT doc_id,
                  LEAST(n_chars // 100, 9) AS bucket,
                  (doc_id * 2654435761) % 4294967296 AS draw
           FROM documents)
SELECT CAST(row_number() OVER (ORDER BY bucket, draw, doc_id) AS BIGINT)
         AS pos,
       doc_id, bucket::BIGINT AS bucket
FROM k ORDER BY bucket, draw, doc_id LIMIT 30""",
        "contamination_report": r"""
WITH ptok AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) - 1 AS pos
  FROM (SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> '') AS toks
        FROM documents)),
g4 AS (
  SELECT doc_id,
         term || ' ' || lead(term, 1) OVER w || ' ' || lead(term, 2) OVER w
         || ' ' || lead(term, 3) OVER w AS g
  FROM ptok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(term, 3) OVER w IS NOT NULL),
bench AS (SELECT DISTINCT g FROM g4 WHERE doc_id < 5),
cont AS (SELECT DISTINCT doc_id FROM g4 WHERE g IN (SELECT g FROM bench))
SELECT d.source AS source, count(*) AS docs,
       SUM(CASE WHEN cont.doc_id IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
         AS contaminated,
       ROUND(SUM(CASE WHEN cont.doc_id IS NOT NULL THEN 1 ELSE 0 END) * 1.0
             / count(*), 4) AS rate
FROM documents d LEFT JOIN cont ON cont.doc_id = d.doc_id
GROUP BY d.source ORDER BY d.source""",
        "knn_max_inner_product": """
SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
       ROUND(list_inner_product(q.embedding::DOUBLE[],
                                v.embedding::DOUBLE[]), 6) AS score
FROM embeddings q CROSS JOIN embeddings v
WHERE q.vec_id IN (0, 1, 2)
QUALIFY row_number() OVER (PARTITION BY q.vec_id
        ORDER BY list_inner_product(q.embedding::DOUBLE[],
                                    v.embedding::DOUBLE[]) DESC,
                 v.vec_id) <= 5
ORDER BY query_id, score DESC, vec_id""",
        "ft_pinned": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'merge' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
sc AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS s
       FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
pin AS (SELECT unnest([3, 11, 41]) AS doc_id)
SELECT COALESCE(sc.doc_id, pin.doc_id) AS doc_id,
       CAST(CASE WHEN pin.doc_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS pinned,
       ROUND(COALESCE(sc.s, 0.0), 4) AS score
FROM sc FULL OUTER JOIN pin ON sc.doc_id = pin.doc_id
ORDER BY 1""",
        "ft_combined_fields": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id,
           unnest(regexp_split_to_array(lower(text || ' ' || source),
                                        '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
st AS (SELECT (SELECT count(*) FROM documents) AS n,
              (SELECT count(*) FROM tok) AS sumdl),
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf /
             (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "agg_categorize_text": """
WITH m AS (
  SELECT regexp_replace(
           event_type || ' user ' || CAST(user_id AS VARCHAR) || ' took '
           || CAST(CAST(floor(value) AS BIGINT) AS VARCHAR) || ' ms',
           '[0-9]+', '#', 'g') AS category
  FROM events)
SELECT category, count(*) AS doc_count FROM m GROUP BY 1
ORDER BY doc_count DESC, category LIMIT 10""",
        "agg_change_point": """
WITH d AS (SELECT date_trunc('day', ts) AS day, count(*) AS c
           FROM events GROUP BY 1),
m AS (SELECT SUM(c) * 1.0 / count(*) AS mean FROM d),
s AS (SELECT day,
             SUM(c - mean) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING) AS cu,
             count(*) OVER () AS n_days
      FROM d CROSS JOIN m)
SELECT day AS change_day, ROUND(abs(cu), 4) AS stat,
       CAST(n_days AS BIGINT) AS n_days
FROM s ORDER BY abs(cu) DESC, day LIMIT 1""",
        "search_mvt": f"""
WITH {_GEO},
t AS (SELECT lat, lon,
        '3/' || LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * 8) AS BIGINT), 0), 7)
        || '/' ||
        LEAST(GREATEST(CAST(floor((1.0 - ln(tan(radians(lat)) + sqrt(tan(radians(lat))
             * tan(radians(lat)) + 1.0)) / pi()) / 2.0 * 8) AS BIGINT), 0), 7) AS cell
      FROM g)
SELECT cell, count(*) AS doc_count,
       ROUND(SUM(lat) / count(*), 4) AS avg_lat,
       ROUND(SUM(lon) / count(*), 4) AS avg_lon
FROM t GROUP BY cell ORDER BY cell""",
        "ilm_explain": """
WITH d AS (SELECT date_trunc('day', ts) AS day, count(*) AS docs
           FROM events GROUP BY 1),
mx AS (SELECT max(day) AS mday FROM d),
a AS (SELECT SUM(docs) * 1.0 / count(*) AS avg_docs FROM d)
SELECT 'events-' || strftime(day, '%Y.%m.%d') AS index_name,
       date_diff('day', day, mday) AS age_days,
       CASE WHEN date_diff('day', day, mday) <= 2 THEN 'hot'
            WHEN date_diff('day', day, mday) <= 7 THEN 'warm'
            WHEN date_diff('day', day, mday) <= 14 THEN 'cold'
            ELSE 'delete' END AS phase,
       docs,
       CAST(CASE WHEN docs > avg_docs THEN 1 ELSE 0 END AS BIGINT) AS rollover
FROM d CROSS JOIN mx CROSS JOIN a ORDER BY day""",
        "graph_explore": f"""
WITH {_TOK},
dt AS (SELECT DISTINCT doc_id, term FROM tok),
seed AS (SELECT doc_id FROM dt WHERE term = 'data'),
ov AS (SELECT dt.term, count(*) AS overlap
       FROM dt JOIN seed USING (doc_id) WHERE dt.term <> 'data'
       GROUP BY dt.term),
dfq AS (SELECT term, count(*) AS df FROM dt GROUP BY term)
SELECT ov.term AS term, ov.overlap AS overlap, dfq.df AS df,
       ROUND(ov.overlap * 1.0 / dfq.df, 4) AS weight
FROM ov JOIN dfq USING (term)
ORDER BY overlap DESC, term LIMIT 8""",
        "ft_version_field": """
WITH v AS (
  SELECT p_partkey,
         p_size % 5 AS major, p_partkey % 12 AS minor, p_partkey % 23 AS patch,
         CAST(p_partkey % 4 = 0 AS INT) AS pre, p_partkey % 3 AS rc
  FROM part),
s AS (
  SELECT p_partkey, major, minor, patch, 1 - pre AS rel, rc,
         CAST(major AS VARCHAR) || '.' || CAST(minor AS VARCHAR) || '.'
         || CAST(patch AS VARCHAR)
         || CASE WHEN pre = 1 THEN '-rc' || CAST(rc AS VARCHAR) ELSE '' END
           AS version
  FROM v
  ORDER BY major DESC, minor DESC, patch DESC, rel DESC, rc DESC, p_partkey
  LIMIT 20)
SELECT CAST(row_number() OVER (
         ORDER BY major DESC, minor DESC, patch DESC, rel DESC, rc DESC,
                  p_partkey) AS BIGINT) AS rank,
       p_partkey, version
FROM s ORDER BY rank""",
        "agg_time_series": """
SELECT event_type, CAST(user_id % 4 AS BIGINT) AS host,
       date_trunc('day', ts) AS day,
       count(*) AS doc_count, ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY 1, 2, 3 ORDER BY event_type, host, day""",
        "flattened_query": """
WITH k AS (SELECT event_type,
                  CAST(json_extract(props, '$.k') AS BIGINT) AS k
           FROM events)
SELECT event_type, count(*) AS doc_count, max(k) AS max_k
FROM k WHERE k >= 90 GROUP BY event_type ORDER BY event_type""",
        "ft_zero_terms": """
SELECT doc_id, 1.0 AS score FROM documents ORDER BY doc_id""",
        "ft_multi_match_phrase": r"""
SELECT DISTINCT doc_id FROM (
  SELECT doc_id FROM documents
  WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')
  UNION ALL
  SELECT doc_id FROM documents WHERE lower(source) = 'data query'
) ORDER BY doc_id""",
        "ft_multi_match_phrase_prefix": r"""
SELECT DISTINCT doc_id FROM (
  SELECT doc_id FROM documents
  WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+quer[a-z0-9]*')
  UNION ALL
  SELECT doc_id FROM documents WHERE lower(source) LIKE 'data quer%'
) ORDER BY doc_id""",
        "ft_multi_match_bool_prefix": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
termscore AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS s
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
pref AS (SELECT DISTINCT doc_id, 1.0 AS s FROM tok WHERE term LIKE 'quer%'),
uni AS (SELECT * FROM termscore UNION ALL SELECT * FROM pref)
SELECT doc_id, ROUND(SUM(s), 4) AS score FROM uni GROUP BY doc_id ORDER BY doc_id""",
        "ft_intervals_fuzzy": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE levenshtein(term, 'quary') <= 1
ORDER BY doc_id""",
        "ft_fuzzy_transpositions": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE damerau_levenshtein(term, 'dtaa') <= 1
ORDER BY doc_id""",
        "agg_terms_options": """
WITH b AS (
  SELECT COALESCE(NULLIF(event_type, 'click'), '(none)') AS etype, value
  FROM events
  WHERE COALESCE(NULLIF(event_type, 'click'), '(none)') <> 'error'),
g AS (SELECT etype, count(*) AS doc_count, SUM(value) AS s FROM b GROUP BY etype)
SELECT etype, doc_count, ROUND(s, 4) AS sum_value FROM g
ORDER BY s DESC, etype LIMIT 3""",
        "agg_histogram_options": """
WITH g AS (
  SELECT CAST(floor((value - 25.0) / 50.0) AS BIGINT) AS n, count(*) AS doc_count
  FROM events GROUP BY 1),
bounds AS (SELECT LEAST((SELECT min(n) FROM g),
                        CAST(floor((0.0 - 25.0) / 50.0) AS BIGINT)) AS lo,
                  GREATEST((SELECT max(n) FROM g),
                           CAST(floor((700.0 - 25.0) / 50.0) AS BIGINT)) AS hi),
series AS (SELECT unnest(generate_series(lo, hi)) AS n FROM bounds)
SELECT series.n * 50.0 + 25.0 AS bucket, COALESCE(g.doc_count, 0) AS doc_count
FROM series LEFT JOIN g USING (n) ORDER BY bucket""",
        "agg_date_histogram_tz": """
WITH g AS (
  SELECT ((epoch_us(ts) - 21600000000 + 19800000000) // 86400000000)
         * 86400000000 - 19800000000 + 21600000000 AS us,
         count(*) AS doc_count
  FROM events GROUP BY 1)
SELECT make_timestamp(us) AS bucket, doc_count FROM g ORDER BY bucket""",
        "ft_completion_weighted": """
WITH tok AS (
  SELECT t AS term FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(*) AS weight FROM tok GROUP BY term)
SELECT term AS input, weight FROM tc WHERE term LIKE 'da%'
ORDER BY weight DESC, input LIMIT 5""",
        "ft_completion_context": """
WITH tok AS (
  SELECT source, t AS term FROM (
    SELECT source,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(*) AS weight FROM tok
       WHERE source = 'src1' GROUP BY term)
SELECT term AS input, weight FROM tc WHERE term LIKE 'da%'
ORDER BY weight DESC, input LIMIT 5""",
        "ft_completion_fuzzy": """
WITH tok AS (
  SELECT t AS term FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(*) AS weight FROM tok GROUP BY term)
SELECT term AS input, weight FROM tc
WHERE levenshtein(substr(term, 1, 3), 'dat') <= 1
ORDER BY weight DESC, input LIMIT 5""",
        "ft_highlight_fvh": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id, tf.tf AS n_hits, {_SCORE} AS raw
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT s.doc_id AS doc_id, s.n_hits,
       regexp_replace(d.text, '\\bdata\\b', '<em>data</em>', 'g') AS highlighted
FROM scored s JOIN documents d ON d.doc_id = s.doc_id
ORDER BY s.raw DESC, s.doc_id LIMIT 5""",
        "ft_type": """
SELECT doc_id, 1.0 AS score FROM documents WHERE source = 'src3' ORDER BY doc_id""",
        "msearch": f"""
WITH {_TOK},
q1 AS (
  SELECT 0 AS request_id, tf.doc_id AS doc_id, {_SCORE} AS raw
  FROM (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(DISTINCT doc_id) AS df FROM tok WHERE term = 'data') df
  CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
  ORDER BY raw DESC, doc_id LIMIT 3),
q2t AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN ('slow', 'merge') GROUP BY doc_id, term),
q2df AS (SELECT term, count(*) AS df FROM q2t GROUP BY term),
q2 AS (
  SELECT 1 AS request_id, tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM q2t tf JOIN q2df df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id ORDER BY raw DESC, doc_id LIMIT 3),
q3p AS (
  SELECT doc_id FROM documents
  WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')),
ptok AS (
  SELECT doc_id, unnest(toks) AS term, generate_subscripts(toks, 1) - 1 AS pos
  FROM (SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                           x -> x <> '') AS toks
        FROM documents)),
ph AS (SELECT a.doc_id, count(*) AS tf
       FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
       WHERE a.term = 'data' AND b.term = 'query' GROUP BY a.doc_id),
phidf AS (
  SELECT (SELECT ln(1 + (st.n - d1.df + 0.5)/(d1.df + 0.5)) FROM
            (SELECT count(DISTINCT doc_id) AS df FROM tok WHERE term='data') d1, st)
       + (SELECT ln(1 + (st.n - d2.df + 0.5)/(d2.df + 0.5)) FROM
            (SELECT count(DISTINCT doc_id) AS df FROM tok WHERE term='query') d2, st)
       AS idf_sum),
q3 AS (
  SELECT 2 AS request_id, ph.doc_id AS doc_id,
         phidf.idf_sum * 2.2 * ph.tf /
         (ph.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)) AS raw
  FROM ph JOIN dl ON dl.doc_id = ph.doc_id CROSS JOIN st CROSS JOIN phidf
  ORDER BY raw DESC, doc_id LIMIT 3)
SELECT request_id, doc_id, ROUND(raw, 4) AS score FROM
(SELECT * FROM q1 UNION ALL SELECT * FROM q2 UNION ALL SELECT * FROM q3)
ORDER BY request_id, score DESC, doc_id""",
        "field_caps": """
SELECT column_name AS field,
       CASE data_type WHEN 'BIGINT' THEN 'long' WHEN 'INTEGER' THEN 'integer'
            WHEN 'DOUBLE' THEN 'double' WHEN 'FLOAT' THEN 'float'
            WHEN 'VARCHAR' THEN 'text' WHEN 'BOOLEAN' THEN 'boolean'
            ELSE lower(data_type) END AS es_type
FROM information_schema.columns WHERE table_name = 'documents'
ORDER BY field""",
        "rank_eval": f"""
WITH {_TOK},
t1 AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('data','query') GROUP BY doc_id, term),
d1 AS (SELECT term, count(*) AS df FROM t1 GROUP BY term),
top1 AS (SELECT tf.doc_id AS doc_id
         FROM t1 tf JOIN d1 df USING (term)
         JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
         GROUP BY tf.doc_id, dl.dl, st.n, st.sumdl
         ORDER BY SUM({_SCORE}) DESC, tf.doc_id LIMIT 5),
p1 AS (SELECT 'q_data' AS query, ROUND(count(*)/5.0, 4) AS precision_at_5
       FROM top1 WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term='data')),
t2 AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('slow','merge') GROUP BY doc_id, term),
d2 AS (SELECT term, count(*) AS df FROM t2 GROUP BY term),
top2 AS (SELECT tf.doc_id AS doc_id
         FROM t2 tf JOIN d2 df USING (term)
         JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
         GROUP BY tf.doc_id, dl.dl, st.n, st.sumdl
         ORDER BY SUM({_SCORE}) DESC, tf.doc_id LIMIT 5),
p2 AS (SELECT 'q_merge' AS query, ROUND(count(*)/5.0, 4) AS precision_at_5
       FROM top2 WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term='merge'))
SELECT * FROM p1 UNION ALL SELECT * FROM p2 ORDER BY query""",
        "rank_eval_metrics": f"""
WITH {_TOK},
t1 AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('data','query') GROUP BY doc_id, term),
d1 AS (SELECT term, count(*) AS df FROM t1 GROUP BY term),
scored AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS sc
           FROM t1 tf JOIN d1 df USING (term)
           JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
           GROUP BY tf.doc_id, dl.dl, st.n, st.sumdl),
ranked AS (SELECT doc_id, row_number() OVER (ORDER BY sc DESC, doc_id) AS pos
           FROM scored ORDER BY sc DESC, doc_id LIMIT 5),
rel AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
j AS (SELECT pos, CASE WHEN ranked.doc_id IN (SELECT doc_id FROM rel)
                       THEN 1.0 ELSE 0.0 END AS r FROM ranked),
idcg AS (SELECT SUM(1.0 / log2(i + 1)) AS v
         FROM unnest(generate_series(1, (SELECT LEAST(count(*), 5) FROM rel)))
              AS u(i)),
e AS (SELECT pos, 0.5 * r AS p,
             exp(coalesce(SUM(ln(1 - 0.5 * r)) OVER
                 (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING
                  AND 1 PRECEDING), 0)) AS prodprev
      FROM j)
SELECT 'q_data' AS query,
       ROUND(coalesce(1.0 / (SELECT MIN(pos) FROM j WHERE r > 0), 0), 4) AS mrr,
       ROUND((SELECT SUM(r / log2(pos + 1)) FROM j), 4) AS dcg_at_5,
       ROUND((SELECT SUM(r / log2(pos + 1)) FROM j) /
             (SELECT v FROM idcg), 4) AS ndcg_at_5,
       ROUND((SELECT SUM(p * prodprev / pos) FROM e), 4) AS err_at_5""",
        "agg_extended_stats_bucket": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
           FROM events GROUP BY 1)
SELECT count(*) AS cnt, CAST(SUM(doc_count) AS BIGINT) AS sum_v,
       ROUND(AVG(doc_count), 4) AS avg_v,
       CAST(SUM(doc_count * doc_count) AS BIGINT) AS sum_sq,
       ROUND(var_pop(doc_count), 4) AS variance,
       ROUND(stddev_pop(doc_count), 4) AS std_dev
FROM h""",
        "agg_bucket_selector": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
           FROM events GROUP BY 1)
SELECT bucket, doc_count FROM h
WHERE doc_count > (SELECT AVG(doc_count) FROM h)
ORDER BY bucket""",
        "agg_bucket_sort": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
           FROM events GROUP BY 1)
SELECT bucket, doc_count FROM h
ORDER BY doc_count DESC, bucket LIMIT 5""",
        "lang_stop_tokenize": """
WITH fr AS (
  SELECT doc_id,
         'le chat et ' || repeat('grand arbre ', doc_id % 4) || 'la maison' AS t
  FROM documents),
tk AS (SELECT doc_id,
              list_filter(regexp_split_to_array(lower(t), '[^a-z0-9éèêëàâîïôûùç]+'),
                          x -> x <> '') AS toks
       FROM fr)
SELECT doc_id,
       len(toks) AS total_tokens,
       len(list_filter(toks, x -> NOT list_contains(
           ['le','la','les','et','un','une','de','des','du','dans','pour',
            'par','sur','au','aux','ce','ces','que','qui'], x))) AS kept_tokens
FROM tk ORDER BY doc_id""",
        "ft_term": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        # CJK bigrams: oracle reconstructs the expected stream from chr()
        # codepoints + string concat — fullwidth 'Data' folds to 'data',
        # the 3-char Han run yields 2 overlapping bigrams, the lone char a
        # unigram (CJKBigramFilter semantics)
        "ft_analyze_cjk": """
WITH s AS (SELECT doc_id,
                  chr(CAST(19968 + doc_id % 7 AS INTEGER)) AS c1,
                  chr(CAST(20108 + doc_id % 5 AS INTEGER)) AS c2,
                  chr(CAST(22823 + doc_id % 3 AS INTEGER)) AS c3,
                  chr(CAST(26408 + doc_id % 4 AS INTEGER)) AS c4
           FROM documents)
SELECT doc_id, pos, term FROM (
  SELECT doc_id, CAST(0 AS BIGINT) AS pos, 'data' AS term FROM s
  UNION ALL SELECT doc_id, CAST(1 AS BIGINT), c1 || c2 FROM s
  UNION ALL SELECT doc_id, CAST(2 AS BIGINT), c2 || c3 FROM s
  UNION ALL SELECT doc_id, CAST(3 AS BIGINT), c4 FROM s)
ORDER BY doc_id, pos""",
        # Persian normalization: the oracle emits the expected NORMALIZED
        # tokens (farsi yeh 1740 / keheh 1705 / heh 1607) with the stopword
        # gap at pos 2 — an independent chr()-level formulation of the
        # Arabic+Persian fold table
        "ft_analyze_persian": """
WITH s AS (SELECT doc_id,
                  CASE WHEN doc_id % 2 = 0
                       THEN chr(1705) || chr(1578) || chr(1575) || chr(1576)
                       ELSE chr(1593) || chr(1604) || chr(1740) END AS w
           FROM documents)
SELECT doc_id, pos, term FROM (
  SELECT doc_id, CAST(0 AS BIGINT) AS pos, w AS term FROM s
  UNION ALL SELECT doc_id, CAST(1 AS BIGINT), chr(1607) || chr(1575) FROM s
  UNION ALL SELECT doc_id, CAST(3 AS BIGINT),
            chr(1605) || chr(1583) || chr(1585) || chr(1587) || chr(1607) FROM s)
ORDER BY doc_id, pos""",
        # alternative similarities: the SQL re-derives each published model
        # (Zhai&Lafferty LM, Amati&vR DFR, Clinchant&Gaussier IB) from raw
        # token stats; F = total term freq, p_c = (F+1)/(sumdl+1)
        "ft_sim_lm_dirichlet": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df, sum(tf) AS f FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(GREATEST(0.0, ln(1 + tf.tf / (2000.0 * ((df.f + 1.0) / (st.sumdl + 1.0))))
                           + ln(2000.0 / (dl.dl + 2000.0))), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_sim_lm_jelinek_mercer": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df, sum(tf) AS f FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id,
       ROUND(SUM(ln(1 + (0.9 * tf.tf / dl.dl)
                        / (0.1 * ((df.f + 1.0) / (st.sumdl + 1.0))))), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ft_sim_dfr": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df, sum(tf) AS f FROM tf),
tfn AS (SELECT tf.doc_id,
               tf.tf * (ln(1 + (st.sumdl * 1.0 / st.n) / dl.dl) / ln(2)) AS tfn
        FROM tf CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT tfn.doc_id AS doc_id,
       ROUND(((df.f + 1.0) / (df.df * (tfn.tfn + 1.0)))
             * (tfn.tfn * (ln(1 + (st.n + 1.0) / (df.f + 0.5)) / ln(2))), 4) AS score
FROM tfn CROSS JOIN df CROSS JOIN st ORDER BY doc_id""",
        "ft_sim_ib": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
tfn AS (SELECT tf.doc_id,
               tf.tf * (ln(1 + (st.sumdl * 1.0 / st.n) / dl.dl) / ln(2)) AS tfn
        FROM tf CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT tfn.doc_id AS doc_id,
       ROUND(ln(1 + tfn.tfn / (df.df * 1.0 / st.n)), 4) AS score
FROM tfn CROSS JOIN df CROSS JOIN st ORDER BY doc_id""",
        "ft_sim_boolean": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id)
SELECT doc_id, CAST(2.5 AS DOUBLE) AS score FROM tf ORDER BY doc_id""",
        "ft_sim_scripted": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(ln(st.n * 1.0 / df.df) * tf.tf / dl.dl, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_explain": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id, tf.tf AS tf, dl.dl AS dl, df.df AS df,
         st.n AS n, {_SCORE} AS raw
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT doc_id, tf, dl, ROUND(raw, 4) AS score,
       printf('tf(%d) * idf(df=%d,N=%d) / lengthNorm(dl=%d)', tf, df, n, dl)
         AS explanation
FROM scored ORDER BY raw DESC, doc_id LIMIT 3""",
        "ft_match_or": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ft_match_and": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id HAVING count(*) = 2 ORDER BY doc_id""",
        "ft_phrase": r"""
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "ft_prefix": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'wind%' ORDER BY doc_id""",
        "ft_bool": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
WHERE d.lang = 'en'
  AND tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'vector')
ORDER BY doc_id""",
        "ft_topk": f"""
WITH {_TOK},
q AS (SELECT unnest(['slow','merge','batch']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score FROM scored
ORDER BY raw DESC, doc_id LIMIT 10""",
        "ft_ids": """
SELECT doc_id, lang, source FROM documents
WHERE doc_id IN (3, 7, 11, 500, 1234) ORDER BY doc_id""",
        "ft_suggest": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, CAST(levenshtein(term, 'quer') AS INTEGER) AS distance, df FROM tc
WHERE levenshtein(term, 'quer') BETWEEN 1 AND 2
ORDER BY distance, df DESC, term LIMIT 5""",
        "agg_terms": """
SELECT event_type, count(*) AS doc_count, ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY event_type ORDER BY doc_count DESC, event_type""",
        "agg_date_histogram": """
SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count,
       ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_histogram": """
SELECT floor(value / 50.0) * 50.0 AS bucket, count(*) AS doc_count
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_stats": """
SELECT l_returnflag, count(*) AS cnt, MIN(l_extendedprice) AS min_v,
       MAX(l_extendedprice) AS max_v, ROUND(SUM(l_extendedprice), 2) AS sum_v,
       ROUND(AVG(l_extendedprice), 2) AS avg_v
FROM lineitem GROUP BY 1 ORDER BY 1""",
        "agg_extended_stats": """
SELECT l_returnflag, count(*) AS cnt, ROUND(AVG(l_quantity), 4) AS avg_v,
       ROUND(var_pop(l_quantity), 4) AS variance,
       ROUND(stddev_pop(l_quantity), 4) AS std_dev
FROM lineitem GROUP BY 1 ORDER BY 1""",
        "agg_cardinality": """
SELECT event_type, count(DISTINCT user_id) AS distinct_count
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_composite": """
SELECT lang, source, count(*) AS doc_count FROM documents
GROUP BY 1, 2 ORDER BY 1, 2""",
        "agg_top_hits": """
SELECT lang, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn = 1 ORDER BY lang""",
        "agg_cumsum": """
SELECT bucket, doc_count, CAST(SUM(doc_count) OVER (ORDER BY bucket) AS BIGINT) AS cumulative
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket""",
        "agg_derivative": """
SELECT bucket, doc_count,
       doc_count - COALESCE(lag(doc_count) OVER (ORDER BY bucket), doc_count) AS deriv
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket""",
        "agg_moving_avg": """
SELECT bucket, doc_count,
       ROUND(AVG(doc_count) OVER (ORDER BY bucket
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4) AS moving_avg
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket""",
        "agg_weighted_avg": """
SELECT ROUND(SUM(l_extendedprice * l_quantity) / SUM(l_quantity), 4) AS weighted_avg
FROM lineitem""",
        "agg_user_window": """
SELECT user_id, date_trunc('day', ts) AS bucket, count(*) AS doc_count
FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        "range_agg": """
SELECT l_returnflag, count(*) AS doc_count, ROUND(SUM(l_extendedprice), 2) AS revenue
FROM lineitem
WHERE l_quantity >= 10 AND l_quantity < 20 AND l_shipdate < TIMESTAMP '1996-01-01'
GROUP BY 1 ORDER BY 1""",
        "search_after_orders": """
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice FROM orders
WHERE o_totalprice < 50000
ORDER BY orders.o_totalprice DESC, o_orderkey LIMIT 20""",
        "update_old_new": """
SELECT doc_id, lang AS old_lang, upper(lang) AS new_lang FROM documents
WHERE doc_id < 50 ORDER BY doc_id""",
        "dedup_exact": """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id""",
        # URL canonicalization + dedup: synthesis and canonical rules
        # mirrored from functions/text.canonicalize_url
        "url_canonical_dedup": r"""
WITH u AS (
  SELECT doc_id,
    'HTTPS://WWW.' || source || '.Example.COM:443/Docs/' || CAST(doc_id % 50 AS VARCHAR) ||
    CASE WHEN doc_id % 3 = 0 THEN '/?utm_source=feed&b=2&a=1#frag'
         WHEN doc_id % 3 = 1 THEN '?a=1&b=2' ELSE '/' END AS url
  FROM documents),
c AS (
  SELECT doc_id,
    lower(regexp_extract(url, '^([a-zA-Z][a-zA-Z0-9+.-]*://[^/?#]+)', 1)) AS sh,
    substr(url, length(regexp_extract(url, '^([a-zA-Z][a-zA-Z0-9+.-]*://[^/?#]+)', 1)) + 1) AS rest
  FROM u),
c2 AS (
  SELECT doc_id,
    CASE WHEN sh2 LIKE 'http://%' THEN regexp_replace(sh2, ':80$', '')
         WHEN sh2 LIKE 'https://%' THEN regexp_replace(sh2, ':443$', '')
         ELSE sh2 END AS sh3,
    regexp_replace(rest, '#.*$', '') AS rest2
  FROM (SELECT doc_id, regexp_replace(sh, '^(https?://)www\.', '\1') AS sh2, rest FROM c)),
p AS (
  SELECT doc_id, sh3,
    regexp_replace(CASE WHEN instr(rest2, '?') > 0
                        THEN substr(rest2, 1, instr(rest2, '?') - 1)
                        ELSE rest2 END, '/+$', '') AS path,
    CASE WHEN instr(rest2, '?') > 0 THEN substr(rest2, instr(rest2, '?') + 1)
         ELSE '' END AS q
  FROM c2),
pp AS (
  SELECT doc_id, sh3, path,
    array_to_string(list_sort(list_filter(string_split(q, '&'),
      x -> x <> '' AND NOT regexp_matches(x, '^(utm_[^=]*|gclid|fbclid|ref)='))), '&') AS qq
  FROM p)
SELECT sh3 || path || CASE WHEN qq <> '' THEN '?' || qq ELSE '' END AS canonical_url,
       min(doc_id) AS first_doc, count(*) AS n
FROM pp GROUP BY 1 ORDER BY 1""",
        # connected components over the same Jaccard pairs: recursive-CTE
        # reachability, component = MIN over reached vertex ids
        "dedup_components": r"""
WITH RECURSIVE
s AS (SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS t
      FROM documents WHERE doc_id < 600),
g AS (SELECT DISTINCT doc_id, substr(t, i, 5) AS gram
      FROM s, unnest(generate_series(1, greatest(length(t)-4, 1))) AS u(i)
      WHERE length(t) >= 5),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
pairs AS (SELECT da, db FROM inter
          JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
          WHERE i*1.0/(sa.n + sb.n - i) >= 0.5),
edges AS (SELECT da AS a, db AS b FROM pairs
          UNION SELECT db, da FROM pairs),
verts AS (SELECT DISTINCT a AS v FROM edges),
reach(v, r) AS (SELECT v, v FROM verts
                UNION
                SELECT e.b, reach.r FROM reach JOIN edges e ON e.a = reach.v)
SELECT v AS doc_id, MIN(r) AS component FROM reach GROUP BY v ORDER BY v""",
        # keep-one-per-cluster: drop every vertex whose component label is
        # not itself; all non-edge docs are trivially kept
        "dedup_keep_one": r"""
WITH RECURSIVE
s AS (SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS t
      FROM documents WHERE doc_id < 600),
g AS (SELECT DISTINCT doc_id, substr(t, i, 5) AS gram
      FROM s, unnest(generate_series(1, greatest(length(t)-4, 1))) AS u(i)
      WHERE length(t) >= 5),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
pairs AS (SELECT da, db FROM inter
          JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
          WHERE i*1.0/(sa.n + sb.n - i) >= 0.5),
edges AS (SELECT da AS a, db AS b FROM pairs
          UNION SELECT db, da FROM pairs),
verts AS (SELECT DISTINCT a AS v FROM edges),
reach(v, r) AS (SELECT v, v FROM verts
                UNION
                SELECT e.b, reach.r FROM reach JOIN edges e ON e.a = reach.v),
comp AS (SELECT v, MIN(r) AS component FROM reach GROUP BY v)
SELECT d.doc_id, length(d.text) AS n_chars
FROM documents d
LEFT JOIN comp ON comp.v = d.doc_id
WHERE d.doc_id < 600 AND (comp.v IS NULL OR comp.component = d.doc_id)
ORDER BY d.doc_id""",
        # add-alpha unigram LM perplexity: exp(-avg ln p(w)), trained on
        # the src1-src3 slice, alpha = 0.5, OOV mass alpha/(N+alpha(V+1))
        "lm_perplexity": r"""
WITH rtok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents WHERE source IN ('src1','src2','src3')) WHERE w <> ''),
cnt AS (SELECT w, count(*)::DOUBLE AS c FROM rtok GROUP BY w),
tot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM cnt),
dtok AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
lp AS (SELECT d.doc_id,
              ln((coalesce(c.c, 0) + 0.5) / (t.n + 0.5 * (t.v + 1))) AS lp
       FROM dtok d CROSS JOIN tot t LEFT JOIN cnt c ON c.w = d.w)
SELECT doc_id, round(exp(-avg(lp)), 4) AS ppl
FROM lp GROUP BY doc_id ORDER BY doc_id""",
        # Jelinek-Mercer interpolated bigram LM: p(w|prev) =
        # 0.7*c(prev,w)/ctx(prev) + (1-0.7)*p_uni(w); first token unigram
        "graph_hits": """
-- fixed-point HITS: integer sums + max-normalization each half-step
WITH nt AS (SELECT count(*) AS total FROM documents),
e0 AS (
  SELECT doc_id AS src, (7 * doc_id + 3) % total AS dst
  FROM documents CROSS JOIN nt
  UNION ALL
  SELECT doc_id, (13 * doc_id + 5) % total FROM documents CROSS JOIN nt
  UNION ALL
  SELECT doc_id, doc_id // 2 FROM documents WHERE doc_id % 3 = 0),
e AS MATERIALIZED (SELECT src, dst FROM e0 WHERE src <> dst),
vv AS MATERIALIZED (
  SELECT DISTINCT x AS v FROM (SELECT src AS x FROM e UNION SELECT dst FROM e)),
h0 AS (SELECT v, 1048576::BIGINT AS s FROM vv),
a1r AS (
  SELECT vv.v, coalesce(x.s, 0)::BIGINT AS s
  FROM vv LEFT JOIN (
    SELECT e.dst AS v, sum(h0.s)::BIGINT AS s
    FROM e JOIN h0 ON h0.v = e.src
    GROUP BY e.dst) x ON x.v = vv.v),
a1m AS (SELECT greatest(max(s), 1) AS mx FROM a1r),
a1 AS (SELECT v, s * 1048576 // mx AS s FROM a1r CROSS JOIN a1m),
h1r AS (
  SELECT vv.v, coalesce(x.s, 0)::BIGINT AS s
  FROM vv LEFT JOIN (
    SELECT e.src AS v, sum(a1.s)::BIGINT AS s
    FROM e JOIN a1 ON a1.v = e.dst
    GROUP BY e.src) x ON x.v = vv.v),
h1m AS (SELECT greatest(max(s), 1) AS mx FROM h1r),
h1 AS (SELECT v, s * 1048576 // mx AS s FROM h1r CROSS JOIN h1m),
a2r AS (
  SELECT vv.v, coalesce(x.s, 0)::BIGINT AS s
  FROM vv LEFT JOIN (
    SELECT e.dst AS v, sum(h1.s)::BIGINT AS s
    FROM e JOIN h1 ON h1.v = e.src
    GROUP BY e.dst) x ON x.v = vv.v),
a2m AS (SELECT greatest(max(s), 1) AS mx FROM a2r),
a2 AS (SELECT v, s * 1048576 // mx AS s FROM a2r CROSS JOIN a2m),
h2r AS (
  SELECT vv.v, coalesce(x.s, 0)::BIGINT AS s
  FROM vv LEFT JOIN (
    SELECT e.src AS v, sum(a2.s)::BIGINT AS s
    FROM e JOIN a2 ON a2.v = e.dst
    GROUP BY e.src) x ON x.v = vv.v),
h2m AS (SELECT greatest(max(s), 1) AS mx FROM h2r),
h2 AS (SELECT v, s * 1048576 // mx AS s FROM h2r CROSS JOIN h2m)
SELECT vv.v, h2.s / 1048576.0 AS hub, a2.s / 1048576.0 AS authority
FROM vv JOIN h2 ON h2.v = vv.v JOIN a2 ON a2.v = vv.v
ORDER BY vv.v""",
        # NFC normalization over synthesized combining-mark variants
        "text_normalize": r"""
WITH w AS (
  SELECT doc_id, i, toks[i] AS raw
  FROM (SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '\s+'),
                           x -> x <> '') AS toks
        FROM documents),
       unnest(generate_series(1, len(toks))) AS u(i)),
sy AS (
  SELECT doc_id, i,
         CASE WHEN doc_id % 2 = 1 AND (i - 1) % 3 = 0
              THEN regexp_replace(raw, 'e', 'e' || chr(769))
              ELSE raw END AS v
  FROM w),
nm AS (SELECT doc_id, i, v, nfc_normalize(v) AS nv FROM sy),
agg AS (
  SELECT doc_id,
         sum(CASE WHEN nv <> v THEN 1 ELSE 0 END)::BIGINT AS n_changed,
         (sum(length(nv)) + count(*) - 1)::BIGINT AS norm_len
  FROM nm GROUP BY doc_id)
SELECT d.doc_id, coalesce(agg.n_changed, 0) AS n_changed,
       coalesce(agg.norm_len, 0) AS norm_len
FROM documents d LEFT JOIN agg ON agg.doc_id = d.doc_id
ORDER BY d.doc_id""",
        # hash-stratified train/valid/test split report
        "corpus_split": r"""
WITH b AS (
  SELECT lang,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
           % 100 AS bucket
  FROM documents)
SELECT CASE WHEN bucket < 90 THEN 'train'
            WHEN bucket < 95 THEN 'valid' ELSE 'test' END AS split,
       lang, count(*)::BIGINT AS n
FROM b GROUP BY 1, 2 ORDER BY split, lang""",
        # distinct-n diversity per source slice, n = 1..3
        "corpus_diversity": r"""
WITH d AS (
  SELECT source,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS toks
  FROM documents),
g AS (
  SELECT source, n, array_to_string(list_slice(toks, i, i + n - 1), ' ') AS gram
  FROM d, unnest([1, 2, 3]) AS nn(n),
       unnest(generate_series(1, len(toks) - n + 1)) AS u(i)
  WHERE len(toks) >= n)
SELECT source, n,
       count(DISTINCT gram)::BIGINT AS types,
       count(*)::BIGINT AS occ,
       ROUND(count(DISTINCT gram)::DOUBLE / count(*), 6) AS distinct_ratio
FROM g GROUP BY source, n ORDER BY source, n""",
        # per-doc char/word Shannon entropy in nats
        "text_entropy": r"""
WITH ch AS (
  SELECT doc_id, substr(text, i, 1) AS c
  FROM documents, unnest(generate_series(1, length(text))) AS u(i)),
cc AS (SELECT doc_id, c, count(*)::DOUBLE AS n FROM ch GROUP BY doc_id, c),
ct AS (SELECT doc_id, sum(n) AS L FROM cc GROUP BY doc_id),
ce AS (SELECT cc.doc_id, -sum((n / L) * ln(n / L)) AS h
       FROM cc JOIN ct USING (doc_id) GROUP BY cc.doc_id),
wd AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                    x -> x <> '')) AS w
  FROM documents),
wc AS (SELECT doc_id, w, count(*)::DOUBLE AS n FROM wd GROUP BY doc_id, w),
wt AS (SELECT doc_id, sum(n) AS L FROM wc GROUP BY doc_id),
we AS (SELECT wc.doc_id, -sum((n / L) * ln(n / L)) AS h
       FROM wc JOIN wt USING (doc_id) GROUP BY wc.doc_id)
SELECT d.doc_id,
       ROUND(coalesce(ce.h, 0), 6) AS char_entropy,
       ROUND(coalesce(we.h, 0), 6) AS word_entropy
FROM documents d
LEFT JOIN ce ON ce.doc_id = d.doc_id
LEFT JOIN we ON we.doc_id = d.doc_id
ORDER BY d.doc_id""",
        # temperature-scaled mixture sampling: q_l ~ p_l^0.7, 50% budget,
        # keep rate rounded to 6 decimals before the doc_id-mod test
        "training_mix_temperature": r"""
WITH cnt AS (SELECT lang, count(*)::DOUBLE AS c FROM documents GROUP BY lang),
tot AS (SELECT sum(c) AS total FROM cnt),
qs AS (SELECT lang, c, pow(c / total, 0.7) AS q0 FROM cnt CROSS JOIN tot),
qn AS (SELECT sum(q0) AS qsum FROM qs),
rt AS (SELECT lang, c,
              ROUND(least(1.0, 0.5 * total * (q0 / qsum) / c), 6) AS rate
       FROM qs CROSS JOIN qn CROSS JOIN tot),
kept AS (SELECT d.lang, count(*)::BIGINT AS kept
         FROM documents d JOIN rt ON rt.lang = d.lang
         WHERE (d.doc_id * 2654435761) % 10000 < ROUND(rt.rate * 10000)
         GROUP BY d.lang)
SELECT rt.lang, rt.c::BIGINT AS c, rt.rate, coalesce(kept.kept, 0) AS kept
FROM rt LEFT JOIN kept ON kept.lang = rt.lang
ORDER BY rt.lang""",
        # Gopher char-level repetition: top-2/3/4-gram + duplicated-5-gram
        # character fractions over [a-z0-9]+ words
        "gopher_repetition": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
  FROM documents),
tot AS (
  SELECT doc_id,
         coalesce(list_sum(list_transform(toks, x -> length(x))), 0) AS total
  FROM d),
grams AS (
  SELECT doc_id, n, i,
         array_to_string(list_slice(toks, i, i + n - 1), ' ') AS g,
         list_sum(list_transform(list_slice(toks, i, i + n - 1),
                                 x -> length(x))) AS chars
  FROM d, unnest([2, 3, 4, 5]) AS nn(n),
       unnest(generate_series(1, len(toks) - n + 1)) AS u(i)
  WHERE len(toks) >= n),
cnt AS (
  SELECT doc_id, n, g, count(*) AS c, min(chars) AS chars
  FROM grams GROUP BY doc_id, n, g),
top AS (
  SELECT doc_id, n, c * chars AS covered
  FROM cnt QUALIFY row_number() OVER (
       PARTITION BY doc_id, n ORDER BY c DESC, g) = 1),
dup AS (
  SELECT doc_id, n, sum(c * chars) AS covered
  FROM cnt WHERE c > 1 GROUP BY doc_id, n)
SELECT t.doc_id,
  ROUND(coalesce((SELECT covered FROM top WHERE top.doc_id = t.doc_id
                  AND top.n = 2), 0)::DOUBLE / greatest(t.total, 1)
        * CASE WHEN t.total = 0 THEN 0 ELSE 1 END, 6)
    AS top_2gram_char_frac,
  ROUND(coalesce((SELECT covered FROM top WHERE top.doc_id = t.doc_id
                  AND top.n = 3), 0)::DOUBLE / greatest(t.total, 1)
        * CASE WHEN t.total = 0 THEN 0 ELSE 1 END, 6)
    AS top_3gram_char_frac,
  ROUND(coalesce((SELECT covered FROM top WHERE top.doc_id = t.doc_id
                  AND top.n = 4), 0)::DOUBLE / greatest(t.total, 1)
        * CASE WHEN t.total = 0 THEN 0 ELSE 1 END, 6)
    AS top_4gram_char_frac,
  ROUND(coalesce((SELECT covered FROM dup WHERE dup.doc_id = t.doc_id
                  AND dup.n = 5), 0)::DOUBLE / greatest(t.total, 1)
        * CASE WHEN t.total = 0 THEN 0 ELSE 1 END, 6)
    AS dup_5gram_char_frac
FROM tot t ORDER BY t.doc_id""",
        # C4 line/page rules over deterministically synthesized pages
        "c4_filter": r"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS toks
  FROM documents),
ln AS (
  SELECT doc_id, i AS line_idx,
         CASE WHEN doc_id % 7 = 0 AND i = 1 THEN 'javascript ' ELSE '' END
         || array_to_string(list_slice(toks, (i - 1) * 8 + 1, i * 8), ' ')
         || CASE WHEN (doc_id + i) % 3 = 0 THEN '' ELSE '.' END AS line
  FROM base,
       unnest(generate_series(1, CAST(ceil(len(toks) / 8.0) AS BIGINT)))
         AS t(i)
  WHERE len(toks) > 0),
keptl AS (
  SELECT doc_id, line_idx, line FROM ln
  WHERE regexp_matches(line, '[.!?"]\s*$')
    AND len(list_filter(regexp_split_to_array(line, '\s+'),
                        x -> x <> '')) >= 3
    AND NOT contains(lower(line), 'javascript')),
pg AS (
  SELECT doc_id, count(*) AS n_kept,
         string_agg(line, chr(10) ORDER BY line_idx) AS cleaned
  FROM keptl GROUP BY doc_id)
SELECT b.doc_id,
       coalesce(pg.n_kept, 0) AS n_kept_lines,
       coalesce(pg.cleaned, '') AS cleaned,
       CASE WHEN coalesce(pg.n_kept, 0) >= 3
             AND NOT contains(coalesce(pg.cleaned, ''), '{')
             AND NOT contains(lower(coalesce(pg.cleaned, '')), 'lorem ipsum')
            THEN 1 ELSE 0 END::BIGINT AS kept
FROM base b LEFT JOIN pg USING (doc_id) ORDER BY b.doc_id""",
        # Gopher Table-A1 quality rules; kept = conjunction as int
        "gopher_quality": r"""
WITH base AS (
  SELECT doc_id, text,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks,
         string_split(text, chr(10)) AS lines
  FROM documents),
m AS (
  SELECT doc_id,
    len(toks) AS n_words,
    CASE WHEN len(toks) = 0 THEN 0
         ELSE list_sum(list_transform(toks, x -> length(x)))::DOUBLE
              / len(toks) END AS mwl,
    CASE WHEN len(toks) = 0 THEN 0
         ELSE ((length(text) - length(replace(text, '#', '')))
               + (length(text) - length(replace(text, '...', ''))) / 3
              )::DOUBLE / len(toks) END AS sym,
    CASE WHEN len(toks) = 0 THEN 0
         ELSE len(list_filter(toks, x -> regexp_matches(x, '[A-Za-z]')))::DOUBLE
              / len(toks) END AS awf,
    CASE WHEN len(toks) = 0 THEN 0
         ELSE len(list_filter(toks, x -> list_contains(
              ['the','be','to','of','and','that','have','with'],
              lower(x)))) END AS stop_hits,
    len(list_filter(lines, l -> regexp_matches(ltrim(l, ' ' || chr(9)),
        '^[-*•]')))::DOUBLE / len(lines) AS bullet,
    len(list_filter(lines, l ->
        rtrim(l, ' ' || chr(9)) LIKE '%...'
        OR rtrim(l, ' ' || chr(9)) LIKE '%…'))::DOUBLE
        / len(lines) AS ellip
  FROM base)
SELECT doc_id, n_words,
  ROUND(mwl, 4) AS mean_word_len,
  ROUND(sym, 4) AS symbol_ratio,
  ROUND(awf, 4) AS alpha_word_frac,
  stop_hits,
  ROUND(bullet, 4) AS bullet_frac,
  ROUND(ellip, 4) AS ellipsis_frac,
  CASE WHEN n_words BETWEEN 50 AND 100000 AND mwl BETWEEN 3.0 AND 10.0
        AND sym <= 0.1 AND bullet <= 0.9 AND ellip <= 0.3
        AND awf >= 0.8 AND stop_hits >= 2
       THEN 1 ELSE 0 END AS kept
FROM m ORDER BY doc_id""",
        # interpolated Kneser-Ney bigram perplexity with BOS/EOS,
        # D=0.75, add-0.5-smoothed continuation distribution
        "lm_perplexity_kn": r"""
WITH d AS (
  SELECT doc_id, source,
         list_concat(['<s>'], list_concat(
           list_filter(regexp_split_to_array(lower(text), '\s+'),
                       x -> x <> ''), ['</s>'])) AS arr
  FROM documents),
bg AS (SELECT arr[i] AS v, arr[i + 1] AS w, count(*)::DOUBLE AS c
       FROM d, unnest(generate_series(1, len(arr) - 1)) AS t(i)
       WHERE source IN ('src1','src2','src3') GROUP BY v, w),
cx AS (SELECT v, sum(c) AS cv, count(*)::DOUBLE AS n1f FROM bg GROUP BY v),
bwd AS (SELECT w, count(*)::DOUBLE AS n1b FROM bg GROUP BY w),
tot AS (SELECT count(*)::DOUBLE AS t, count(DISTINCT w)::DOUBLE AS vc FROM bg),
st AS (SELECT doc_id, arr[i] AS v, arr[i + 1] AS w
       FROM d, unnest(generate_series(1, len(arr) - 1)) AS t(i)),
sp AS (SELECT s.doc_id, s.v, s.w,
              (coalesce(bw.n1b, 0) + 0.5) / (tt.t + 0.5 * (tt.vc + 1)) AS pc
       FROM st s CROSS JOIN tot tt LEFT JOIN bwd bw ON bw.w = s.w),
lp AS (SELECT sp.doc_id,
              ln(CASE WHEN cx.v IS NULL THEN sp.pc
                 ELSE greatest(coalesce(b.c, 0) - 0.75, 0) / cx.cv
                      + 0.75 * cx.n1f / cx.cv * sp.pc END) AS lp
       FROM sp LEFT JOIN cx ON cx.v = sp.v
       LEFT JOIN bg b ON b.v = sp.v AND b.w = sp.w)
SELECT doc_id, round(exp(-avg(lp)), 4) AS ppl
FROM lp GROUP BY doc_id ORDER BY doc_id""",
        # KenLM-style trigram count table with BOS/EOS and min_count=2
        "lm_ngram_counts": r"""
WITH d AS (
  SELECT list_concat(['<s>'],
           list_concat(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                   x -> x <> ''), ['</s>'])) AS arr
  FROM documents),
tg AS (SELECT arr[i] AS w1, arr[i + 1] AS w2, arr[i + 2] AS w3
       FROM d, unnest(generate_series(1, len(arr) - 2)) AS t(i))
SELECT w1, w2, w3, count(*)::BIGINT AS c
FROM tg GROUP BY w1, w2, w3 HAVING count(*) >= 2
ORDER BY c DESC, w1, w2, w3 LIMIT 50""",
        # BPE iteration-0: weighted adjacent-symbol pairs over the
        # char+'</w>' vocabulary of the distinct-word frequency table
        # int8 scalar quantization: symmetric signed grid scaled by the
        # global max|component|, half-up snap, integer dot-product top-5
        # (max_inner_product ranking) for query vecs 0/1/2 — every value
        # integer, so the comparison is exact (no float rounding).
        "knn_scalar_quantized": """
WITH dims AS (SELECT unnest(range(1, 65)) AS i),
mabs AS (SELECT MAX(abs(embedding[i]::DOUBLE)) AS m
         FROM embeddings CROSS JOIN dims),
qv AS (SELECT vec_id, i,
         CAST(LEAST(127, GREATEST(-127, FLOOR(
           embedding[i]::DOUBLE / m * 127 + 0.5))) AS BIGINT) AS q
       FROM embeddings CROSS JOIN dims CROSS JOIN mabs),
dots AS (SELECT a.vec_id AS query_id, b.vec_id AS vec_id,
                SUM(a.q * b.q)::BIGINT AS qdot
         FROM qv a JOIN qv b USING (i) WHERE a.vec_id IN (0, 1, 2)
         GROUP BY 1, 2)
SELECT query_id, vec_id, qdot FROM dots
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY qdot DESC, vec_id) <= 5
ORDER BY query_id, vec_id""",
        # RRF hybrid: BM25 top-50 (ranked on the 4dp-rounded score, ties by
        # doc_id) fused with cosine top-50 for query vec 0 (ranked on the
        # 6dp-rounded cosine), score = sum 1/(60+rank), top-10.
        "ft_rrf_hybrid": f"""
WITH {_TOK},
q AS (SELECT unnest(['slow','merge','batch']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id),
lex50 AS (SELECT doc_id, ROUND(raw, 4) AS s FROM scored
          ORDER BY raw DESC, doc_id LIMIT 50),
lexr AS (SELECT doc_id, row_number() OVER (ORDER BY s DESC, doc_id) AS r
         FROM lex50),
knn50 AS (SELECT v.vec_id AS doc_id,
                 ROUND(list_cosine_similarity(q.embedding::DOUBLE[],
                                              v.embedding::DOUBLE[]), 6) AS c
          FROM embeddings q CROSS JOIN embeddings v WHERE q.vec_id = 0
          ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
                                          v.embedding::DOUBLE[]) DESC, v.vec_id
          LIMIT 50),
knnr AS (SELECT doc_id, row_number() OVER (ORDER BY c DESC, doc_id) AS r
         FROM knn50),
fused AS (
  SELECT COALESCE(l.doc_id, k.doc_id) AS doc_id,
         COALESCE(1.0 / (60 + l.r), 0) + COALESCE(1.0 / (60 + k.r), 0) AS rrf
  FROM lexr l FULL OUTER JOIN knnr k USING (doc_id))
SELECT doc_id, ROUND(rrf, 6) AS rrf_score FROM fused
ORDER BY rrf DESC, doc_id LIMIT 10""",
        # exact integer covariance numerators n*Sxy - Sx*Sy on the
        # floor(v*1e4 + 0.5) grid, upper triangle of the 64x64 matrix.
        "embed_covariance": """
WITH dims AS (SELECT unnest(range(1, 65)) AS i),
x AS (SELECT vec_id, i,
             CAST(FLOOR(embedding[i]::DOUBLE * 10000 + 0.5) AS BIGINT) AS v
      FROM embeddings CROSS JOIN dims),
st AS (SELECT count(*) AS n FROM embeddings),
sx AS (SELECT i, SUM(v) AS s FROM x GROUP BY i),
sxy AS (SELECT a.i AS i, b.i AS j, SUM(a.v * b.v) AS sp
        FROM x a JOIN x b ON a.vec_id = b.vec_id AND a.i <= b.i
        GROUP BY 1, 2)
SELECT sxy.i AS i, sxy.j AS j,
       CAST(st.n * sxy.sp - sa.s * sb.s AS BIGINT) AS cov_num
FROM sxy JOIN sx sa ON sa.i = sxy.i JOIN sx sb ON sb.i = sxy.j CROSS JOIN st
ORDER BY i, j""",
        # 1-bit binary quantization: sign bits, rank by bit agreement —
        # all integers, exact comparison. knn_pq is rows-only (iterative
        # k-means training), covered by bit-exact twin tests.
        "knn_binary_quantized": """
WITH dims AS (SELECT unnest(range(1, 65)) AS i),
b AS (SELECT vec_id, i,
             CASE WHEN embedding[i]::DOUBLE > 0 THEN 1 ELSE 0 END AS bit
      FROM embeddings CROSS JOIN dims),
agrees AS (SELECT a.vec_id AS query_id, v.vec_id AS vec_id,
                  SUM(CASE WHEN a.bit = v.bit THEN 1 ELSE 0 END)::BIGINT AS agree
           FROM b a JOIN b v USING (i) WHERE a.vec_id IN (0, 1, 2)
           GROUP BY 1, 2)
SELECT query_id, vec_id, agree FROM agrees
QUALIFY row_number() OVER (PARTITION BY query_id
                           ORDER BY agree DESC, vec_id) <= 5
ORDER BY query_id, vec_id""",
        # routing: golden (source, shard) map from the reference's exact
        # murmur3_x86_32-over-UTF-16LE hash (validated against
        # Murmur3HashFunctionTests.java vectors), floorMod 4; routed term
        # query over shard(src3) = 2 only.
        "ft_routed_term": f"""
WITH {_TOK},
smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data')
SELECT d.doc_id, d.source, CAST(m.shard AS BIGINT) AS shard
FROM documents d JOIN smap m USING (source) JOIN hits USING (doc_id)
WHERE m.shard = 2
ORDER BY d.doc_id""",
        # scroll lifecycle: two 15-row pages over (o_totalprice desc, key
        # asc), then the cleared context must be gone (golden (2,-1,-1))
        "ft_clear_scroll": """
WITH r AS (SELECT o_orderkey,
                  row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rn
           FROM orders)
SELECT * FROM (
  SELECT 0::BIGINT AS page, 15::BIGINT AS n,
         (SELECT o_orderkey FROM r WHERE rn = 15)::BIGINT AS last_key
  UNION ALL SELECT 1, 15, (SELECT o_orderkey FROM r WHERE rn = 30)
  UNION ALL SELECT 2, -1, -1)
ORDER BY page""",
        "grok_patterns": r"""
SELECT * FROM (VALUES
  ('DATA', '.*?'), ('GREEDYDATA', '.*'), ('INT', '-?\d+'),
  ('IP', '\d{1,3}(?:\.\d{1,3}){3}'),
  ('NOTSPACE', '\S+'),
  ('NUMBER', '-?\d+(?:\.\d+)?'),
  ('WORD', '\w+')) t(name, pattern)
ORDER BY name""",
        "script_languages": """
SELECT * FROM (VALUES
  ('aggs', 'expr'), ('field', 'expr'), ('filter', 'expr'),
  ('ingest', 'expr'), ('score', 'expr')) t(context, lang)
ORDER BY context""",
        # alias searchRouting: the golden shard map routes src3 -> shard 2;
        # the alias filter then keeps only src3 docs within the shard
        "ft_alias_routing": f"""
WITH {_TOK},
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data')
SELECT d.doc_id FROM documents d JOIN hits USING (doc_id)
WHERE d.source = 'src3'
ORDER BY d.doc_id""",
        "ft_sort_nested_mode": """
SELECT l_orderkey AS o_orderkey, MIN(l_extendedprice) AS min_price,
       MAX(l_extendedprice) AS max_price,
       SUM(CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT))::BIGINT AS sum_cents
FROM lineitem GROUP BY 1
ORDER BY min_price, o_orderkey LIMIT 15""",
        "exists_apis": """
SELECT kind, name, exists FROM (VALUES
  ('index', 'documents', 1::BIGINT), ('index', 'nope', 0),
  ('alias', 'docs-read', 1), ('alias', 'docs-write', 0),
  ('template', 'existsdemo', 1), ('template', 'missing-tpl', 0),
  ('doc', '3', (SELECT count(*) FROM documents WHERE doc_id = 3)::BIGINT),
  ('doc', '999999999',
   (SELECT count(*) FROM documents WHERE doc_id = 999999999)::BIGINT))
  t(kind, name, exists)
ORDER BY kind, name""",
        "get_mapping": """
SELECT * FROM (VALUES
  ('doc_id', 'long'), ('lang', 'keyword'), ('n_chars', 'long'),
  ('source', 'keyword'), ('text', 'text')) t(field, es_type)
ORDER BY field""",
        "training_mix_budget": r"""
WITH c AS (
  SELECT doc_id, source,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))::BIGINT AS tokens
  FROM documents),
w AS (SELECT doc_id, source, tokens,
             SUM(tokens) OVER (PARTITION BY source ORDER BY doc_id) AS cum
      FROM c)
SELECT doc_id, source, tokens FROM w WHERE cum <= 400 ORDER BY doc_id""",
        "ft_rank_feature_log_sigmoid": """
SELECT doc_id,
       ROUND(ln(2.0 + n_chars), 4) AS s_log,
       ROUND(pow(n_chars, 0.6) / (pow(n_chars, 0.6) + pow(200.0, 0.6)), 4)
         AS s_sigmoid
FROM documents WHERE doc_id < 20 ORDER BY doc_id""",
        "corpus_diff": """
WITH v1 AS (SELECT doc_id, md5(text) AS h1 FROM documents),
v2 AS (
  SELECT doc_id,
         md5(CASE WHEN doc_id % 17 = 0 THEN text || ' v2marker'
                  ELSE text END) AS h2
  FROM documents WHERE doc_id % 31 <> 0
  UNION ALL
  SELECT (SELECT count(*) FROM documents) + 1000 + i AS doc_id,
         md5('new doc ' || i::VARCHAR) AS h2
  FROM (SELECT unnest(range(0, 10)) AS i)),
j AS (SELECT COALESCE(v1.doc_id, v2.doc_id) AS doc_id, h1, h2
      FROM v1 FULL OUTER JOIN v2 USING (doc_id))
SELECT status, count(*)::BIGINT AS n FROM (
  SELECT CASE WHEN h1 IS NULL THEN 'added'
              WHEN h2 IS NULL THEN 'removed'
              WHEN h1 = h2 THEN 'same' ELSE 'changed' END AS status
  FROM j)
GROUP BY status ORDER BY status""",
        "corpus_datacard": r"""
SELECT source,
       count(*)::BIGINT AS docs,
       SUM(len(list_filter(regexp_split_to_array(text, '\s+'),
                           x -> x <> '')))::BIGINT AS tokens,
       SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS en_docs
FROM documents GROUP BY source ORDER BY source""",
        "corpus_sample_bottomk": """
SELECT doc_id, md5(doc_id::VARCHAR) AS priority
FROM documents ORDER BY priority, doc_id LIMIT 20""",
        "corpus_sample_weighted": """
WITH u AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5(doc_id::VARCHAR), 1, 13))::BIGINT AS DOUBLE)
           / 4503599627370496.0 AS uu,
         GREATEST(n_chars::DOUBLE, 1.0) AS w
  FROM documents)
SELECT doc_id, ROUND(-ln(uu) / w, 10) AS key_r
FROM u ORDER BY -ln(uu) / w, doc_id LIMIT 20""",
        "corpus_quantile_filter": """
WITH vc AS (SELECT n_chars, count(*) AS c FROM documents GROUP BY n_chars),
r AS (SELECT n_chars, SUM(c) OVER (ORDER BY n_chars) AS cum FROM vc),
st AS (SELECT count(*)::DOUBLE AS n FROM documents),
q AS (SELECT
  (SELECT MIN(n_chars) FROM r CROSS JOIN st WHERE cum >= CEIL(0.25 * n)) AS p25,
  (SELECT MIN(n_chars) FROM r CROSS JOIN st WHERE cum >= CEIL(0.5 * n)) AS p50,
  (SELECT MIN(n_chars) FROM r CROSS JOIN st WHERE cum >= CEIL(0.75 * n)) AS p75)
SELECT p25::BIGINT AS p25, p50::BIGINT AS p50, p75::BIGINT AS p75,
       (SELECT count(*) FROM documents CROSS JOIN q
        WHERE n_chars BETWEEN p25 AND p75)::BIGINT AS kept
FROM q""",
        "agg_multi_terms": """
SELECT lang, source, count(*)::BIGINT AS doc_count,
       sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY 1, 2
ORDER BY doc_count DESC, lang, source LIMIT 10""",
        "agg_top_metrics": """
SELECT lang, doc_id AS top_doc, n_chars AS top_n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn = 1 ORDER BY lang""",
        "agg_boxplot": """
WITH vc AS (SELECT lang, n_chars, count(*) AS c FROM documents GROUP BY 1, 2),
r AS (SELECT lang, n_chars,
             SUM(c) OVER (PARTITION BY lang ORDER BY n_chars) AS cum
      FROM vc),
st AS (SELECT lang, count(*) AS n FROM documents GROUP BY 1)
SELECT r.lang,
       MIN(r.n_chars)::BIGINT AS mn,
       MIN(CASE WHEN cum >= CEIL(0.25 * n) THEN r.n_chars END)::BIGINT AS q1,
       MIN(CASE WHEN cum >= CEIL(0.50 * n) THEN r.n_chars END)::BIGINT AS q2,
       MIN(CASE WHEN cum >= CEIL(0.75 * n) THEN r.n_chars END)::BIGINT AS q3,
       MAX(r.n_chars)::BIGINT AS mx
FROM r JOIN st USING (lang) GROUP BY r.lang ORDER BY r.lang""",
        "agg_rate": """
SELECT date_trunc('day', ts) AS bucket, count(*)::BIGINT AS doc_count,
       count(*)::DOUBLE / 24.0 AS rate_per_hour
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_string_stats": """
WITH ch AS (SELECT unnest(regexp_split_to_array(text, '')) AS c
            FROM documents),
cc AS (SELECT c, count(*)::DOUBLE AS cnt FROM ch GROUP BY c),
n AS (SELECT sum(cnt) AS tot FROM cc)
SELECT (SELECT count(*) FROM documents)::BIGINT AS cnt,
       (SELECT min(length(text)) FROM documents)::BIGINT AS min_len,
       (SELECT max(length(text)) FROM documents)::BIGINT AS max_len,
       ROUND((SELECT sum(length(text)) FROM documents)::DOUBLE
             / (SELECT count(*) FROM documents), 6) AS avg_len,
       ROUND(log2(tot) - (SELECT sum(cnt * log2(cnt)) FROM cc) / tot, 6)
         AS entropy
FROM n""",
        "agg_normalize": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket,
                  count(*)::BIGINT AS doc_count
           FROM events GROUP BY 1),
st AS (SELECT min(doc_count)::DOUBLE AS lo, max(doc_count)::DOUBLE AS hi,
              sum(doc_count)::DOUBLE AS tot FROM h)
SELECT bucket, doc_count,
       ROUND((doc_count::DOUBLE - lo) / (hi - lo), 6) AS rescale_0_1,
       ROUND(doc_count::DOUBLE / tot * 100.0, 6) AS percent_of_sum
FROM h CROSS JOIN st ORDER BY bucket""",
        "corpus_vocab_growth": """
WITH tokd AS (SELECT doc_id, unnest(list_distinct(list_filter(
                regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> ''))) AS term
              FROM documents),
f AS (SELECT term, min(doc_id) // 100 AS chunk FROM tokd GROUP BY term),
nt AS (SELECT chunk, count(*) AS new_terms FROM f GROUP BY chunk),
tk AS (SELECT doc_id // 100 AS chunk,
              len(list_filter(regexp_split_to_array(lower(text),
                  '[^a-z0-9]+'), x -> x <> '')) AS n
       FROM documents),
pc AS (SELECT chunk, sum(n) AS tokens FROM tk GROUP BY chunk)
SELECT pc.chunk::BIGINT AS chunk, pc.tokens::BIGINT AS tokens,
       SUM(pc.tokens) OVER (ORDER BY pc.chunk)::BIGINT AS cum_tokens,
       SUM(COALESCE(nt.new_terms, 0)) OVER (ORDER BY pc.chunk)::BIGINT
         AS cum_vocab
FROM pc LEFT JOIN nt USING (chunk) ORDER BY pc.chunk""",
        "cluster_stats": """
SELECT 1::BIGINT AS nodes, 2::BIGINT AS indices,
       (SELECT count(*) FROM documents)::BIGINT AS docs,
       (SELECT count(DISTINCT t) FROM (
          SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
            AS t FROM documents) WHERE t <> '')::BIGINT AS distinct_terms""",
        "ingest_fingerprint": """
WITH p AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT event_type, count(*)::BIGINT AS distinct_fp,
       md5('0|click') AS sample_fp
FROM p GROUP BY event_type ORDER BY event_type""",
        "agg_histogram_offset": """
SELECT floor((value - 13.5)/50.0)*50.0 + 13.5 AS bucket,
       count(*) AS doc_count
FROM events WHERE value IS NOT NULL GROUP BY 1 ORDER BY 1""",
        "esql_mv_functions": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n,
       CAST(len(list_distinct(toks)) AS BIGINT) AS uniq,
       list_sort(toks)[1] AS first,
       list_sort(toks)[-1] AS last
FROM t ORDER BY doc_id""",
        "ft_sqs_operators": f"""
WITH {_TOK},
v AS (SELECT DISTINCT term FROM tok),
dm AS (SELECT DISTINCT doc_id FROM tok WHERE term IN ('data', 'merge')),
dw AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'window'),
dc AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE term LIKE 'cust%')),
ds AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE damerau_levenshtein(term, 'slow') <= 1)),
du AS (SELECT DISTINCT doc_id FROM tok
       WHERE term IN ('data', 'merge', 'window'))
SELECT phase, doc_id FROM (
  SELECT 0 AS phase, doc_id FROM dm WHERE doc_id IN (SELECT doc_id FROM dw)
  UNION ALL
  SELECT 1, doc_id FROM dc WHERE doc_id IN (SELECT doc_id FROM ds)
  UNION ALL
  SELECT 2, doc_id FROM du)
ORDER BY phase, doc_id""",
        "ft_regexp_ops": f"""
WITH {_TOK},
v AS (SELECT DISTINCT term FROM tok),
e0 AS (SELECT term FROM v
       WHERE regexp_matches(term, '^.*a.*$') AND term <> 'data'),
e1 AS (SELECT term FROM v
       WHERE regexp_matches(term, '^s.*$') AND regexp_matches(term, '^.*w$'))
SELECT phase, doc_id FROM (
  SELECT 0 AS phase, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM e0))
  UNION ALL SELECT 1, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM e1)))
ORDER BY phase, doc_id""",
        "ft_rank_feature_negative": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND({_SCORE} + 1.5 * 300.0 / (d.n_chars + 300.0), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "knn_similarity_threshold": """
SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
       ROUND(list_cosine_similarity(q.embedding::DOUBLE[],
                                    v.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings q CROSS JOIN embeddings v
WHERE q.vec_id IN (0, 1, 2)
  AND list_cosine_similarity(q.embedding::DOUBLE[],
                             v.embedding::DOUBLE[]) >= 0.3
QUALIFY row_number() OVER (PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
                                        v.embedding::DOUBLE[]) DESC,
                 v.vec_id) <= 5
ORDER BY query_id, cosine DESC, vec_id""",
        "resolve_index": """
SELECT * FROM (VALUES
  ('events-stream', 'data_stream', 'backing:.ds-events-*'),
  ('docs-en', 'index', 'open'),
  ('docs-other', 'index', 'open')) t(name, kind, attrs)
ORDER BY kind, name""",
        "rollup_search": """
SELECT date_trunc('day', ts) AS bucket, count(*)::BIGINT AS doc_count,
       sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS sum_cents
FROM events WHERE event_type = 'purchase'
GROUP BY 1 ORDER BY 1""",
        "agg_random_sampler": """
WITH s AS (SELECT lang FROM documents
           WHERE ((doc_id * 2654435761) % 4294967296) % 8 = 0)
SELECT lang, count(*)::BIGINT AS sampled,
       (count(*) * 8)::BIGINT AS scaled_count
FROM s GROUP BY lang ORDER BY lang""",
        "agg_ip_prefix": """
SELECT printf('10.%d.0.0/16',
              (((event_id * 2654435761) % 4294967296) // 65536) % 8)
         AS prefix,
       count(*)::BIGINT AS doc_count
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_frequent_item_sets": """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS item_a, b.event_type AS item_b,
       count(*)::BIGINT AS support
FROM ut a JOIN ut b ON a.user_id = b.user_id
                   AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY support DESC, item_a, item_b""",
        "events_retention": """
WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS cohort
           FROM events GROUP BY 1),
r AS (SELECT f.user_id, f.cohort,
             CASE WHEN EXISTS (SELECT 1 FROM events e
                               WHERE e.user_id = f.user_id
                                 AND date_trunc('day', e.ts)
                                     = f.cohort + INTERVAL 7 DAY)
                  THEN 1 ELSE 0 END AS ret
      FROM f)
SELECT cohort, count(*)::BIGINT AS cohort_size,
       sum(ret)::BIGINT AS retained
FROM r GROUP BY cohort ORDER BY cohort""",
        "decontaminate_exact": f"""
WITH {_PTOK},
g AS (SELECT doc_id,
             term || ' ' || lead(term, 1) OVER w || ' ' || lead(term, 2) OVER w
             || ' ' || lead(term, 3) OVER w AS gram
      FROM ptok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
      QUALIFY lead(term, 3) OVER w IS NOT NULL),
b AS (SELECT DISTINCT gram FROM g WHERE doc_id < 5)
SELECT g.doc_id, count(DISTINCT g.gram)::BIGINT AS n_overlap
FROM g JOIN b USING (gram) WHERE g.doc_id >= 5
GROUP BY g.doc_id ORDER BY g.doc_id""",
        "reindex_sliced": """
SELECT (doc_id % 4)::BIGINT AS slice, count(*)::BIGINT AS docs,
       sum(doc_id)::BIGINT AS id_sum
FROM documents GROUP BY 1 ORDER BY 1""",
        "ft_hybrid_linear": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
bm AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
       FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
qv AS (SELECT embedding::DOUBLE[] AS v FROM embeddings WHERE vec_id = 0),
cs AS (SELECT e.vec_id AS doc_id,
              list_cosine_similarity(e.embedding::DOUBLE[], qv.v) AS c
       FROM embeddings e CROSS JOIN qv),
j AS (SELECT bm.doc_id, bm.raw, cs.c FROM bm JOIN cs USING (doc_id)),
mm AS (SELECT min(raw) AS lo_b, max(raw) AS hi_b,
              min(c) AS lo_c, max(c) AS hi_c FROM j)
SELECT doc_id,
       ROUND(0.7 * ((raw - lo_b) / (hi_b - lo_b))
             + 0.3 * ((c - lo_c) / (hi_c - lo_c)), 4) AS score
FROM j CROSS JOIN mm
ORDER BY ROUND(0.7 * ((raw - lo_b) / (hi_b - lo_b))
               + 0.3 * ((c - lo_c) / (hi_c - lo_c)), 4) DESC, doc_id
LIMIT 15""",
        "async_search": f"""
WITH {_TOK},
h AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
b AS (SELECT (max(doc_id) + 2) // 2 AS bound FROM h),
c AS (SELECT
  (SELECT count(*) FROM h CROSS JOIN b WHERE doc_id < bound) AS h1,
  (SELECT count(*) FROM h) AS total)
SELECT phase::BIGINT AS phase, is_running::BIGINT AS is_running,
       hits::BIGINT AS hits, found::BIGINT AS found
FROM (SELECT 1 AS phase, 1 AS is_running, (SELECT h1 FROM c) AS hits, 1 AS found
      UNION ALL
      SELECT 2, 0, (SELECT total FROM c), 1
      UNION ALL
      SELECT 3, 0, -1, 0)
ORDER BY phase""",
        "ft_analyze_offsets": """
WITH d AS (SELECT lower(text) AS s FROM documents WHERE doc_id = 0),
t AS (SELECT unnest(regexp_extract_all(s, '[a-z0-9]+')) AS token,
             generate_subscripts(regexp_extract_all(s, '[a-z0-9]+'), 1) - 1
               AS position
      FROM d),
o AS (SELECT position, token,
             COALESCE(SUM(length(token) + 1) OVER (ORDER BY position
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS start_offset
      FROM t)
SELECT position::BIGINT AS position, token,
       start_offset::BIGINT AS start_offset,
       (start_offset + length(token))::BIGINT AS end_offset
FROM o WHERE position < 10 ORDER BY position""",
        "agg_t_test": """
WITH p AS (SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS en,
                  count(*)::DOUBLE AS n, sum(n_chars)::DOUBLE AS s,
                  sum(n_chars * n_chars)::DOUBLE AS ss
           FROM documents GROUP BY 1),
d AS (SELECT en, n, s / n AS mean,
             (ss - n * (s / n) * (s / n)) / (n - 1.0) AS var
      FROM p)
SELECT (SELECT n::BIGINT FROM d WHERE en = 1) AS n_en,
       (SELECT n::BIGINT FROM d WHERE en = 0) AS n_other,
       (SELECT ROUND(mean, 6) FROM d WHERE en = 1) AS mean_en,
       (SELECT ROUND(mean, 6) FROM d WHERE en = 0) AS mean_other,
       ROUND(((SELECT mean FROM d WHERE en = 1)
              - (SELECT mean FROM d WHERE en = 0))
             / sqrt((SELECT var / n FROM d WHERE en = 1)
                    + (SELECT var / n FROM d WHERE en = 0)), 6) AS t_stat""",
        "ft_runtime_field": """
WITH d AS (SELECT doc_id, n_chars,
  len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                  x -> x <> '')) AS ntok
  FROM documents),
c AS (SELECT doc_id,
             n_chars::DOUBLE / GREATEST(ntok, 1)::DOUBLE AS raw
      FROM d)
SELECT doc_id, ROUND(raw, 6) AS cpt FROM c
WHERE raw >= 5.8 ORDER BY ROUND(raw, 6) DESC, doc_id LIMIT 20""",
        "ft_sparse_vector": f"""
WITH {_TOK},
w(term, wt) AS (VALUES ('data', 3.0), ('query', 2.0), ('merge', 1.5),
                       ('slow', 1.0)),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('data', 'query', 'merge', 'slow')
       GROUP BY 1, 2)
SELECT doc_id, ROUND(SUM(wt * tf), 4) AS score
FROM tf JOIN w USING (term) GROUP BY doc_id
ORDER BY SUM(wt * tf) DESC, doc_id LIMIT 15""",
        "agg_moving_percentiles": """
WITH vc AS (SELECT date_trunc('day', ts) AS day, floor(value)::BIGINT AS v,
                   count(*) AS c
            FROM events GROUP BY 1, 2),
days AS (SELECT DISTINCT day FROM vc),
win AS (SELECT d.day AS bucket, vc.v, vc.c
        FROM days d JOIN vc
          ON vc.day BETWEEN d.day - INTERVAL 6 DAY AND d.day),
g AS (SELECT bucket, v, sum(c) AS c FROM win GROUP BY 1, 2),
r AS (SELECT bucket, v, c,
             SUM(c) OVER (PARTITION BY bucket ORDER BY v) AS cum,
             SUM(c) OVER (PARTITION BY bucket) AS n
      FROM g)
SELECT bucket, any_value(n)::BIGINT AS n,
       (MIN(CASE WHEN cum >= (n + 1) // 2 THEN v END)
        + MIN(CASE WHEN cum >= (n + 2) // 2 THEN v END)) / 2.0
         AS moving_median
FROM r GROUP BY bucket ORDER BY bucket""",
        "sql_query": """
SELECT doc_id, lang, n_chars FROM documents
WHERE lang = 'en' AND n_chars >= 400
ORDER BY n_chars DESC, doc_id LIMIT 20""",
        "training_shuffle": """
WITH e(epoch) AS (VALUES (1), (2)),
h AS (SELECT epoch, doc_id,
             ((doc_id + epoch * 40503) * 2654435761) % 4294967296 AS hh
      FROM documents CROSS JOIN e),
r AS (SELECT epoch, doc_id,
             row_number() OVER (PARTITION BY epoch
                                ORDER BY hh, doc_id) AS pos
      FROM h)
SELECT epoch::BIGINT AS epoch, pos::BIGINT AS pos, doc_id
FROM r WHERE pos <= 15 ORDER BY epoch, pos""",
        "agg_geo_line": """
WITH r AS (SELECT user_id, event_id, ts,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events),
p AS (SELECT user_id, rn,
             ((event_id * 104729) % 360) - 180 + 0.5 AS lon,
             ((event_id * 7919) % 180) - 90 + 0.5 AS lat
      FROM r WHERE rn <= 5)
SELECT user_id, count(*)::BIGINT AS n_points,
       string_agg(printf('%.1f,%.1f', lon, lat), ' ' ORDER BY rn) AS line
FROM p GROUP BY user_id ORDER BY user_id""",
        "knn_filtered": """
SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
       ROUND(list_cosine_similarity(q.embedding::DOUBLE[],
                                    v.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings q CROSS JOIN embeddings v
WHERE q.vec_id IN (0, 1, 2) AND v.label = 1
QUALIFY row_number() OVER (PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
                                        v.embedding::DOUBLE[]) DESC,
                 v.vec_id) <= 5
ORDER BY query_id, vec_id""",
        "knn_l2": """
SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
       ROUND(list_distance(q.embedding::DOUBLE[],
                           v.embedding::DOUBLE[]), 6) AS dist
FROM embeddings q CROSS JOIN embeddings v
WHERE q.vec_id IN (0, 1, 2)
QUALIFY row_number() OVER (PARTITION BY q.vec_id
        ORDER BY list_distance(q.embedding::DOUBLE[],
                               v.embedding::DOUBLE[]) ASC,
                 v.vec_id) <= 5
ORDER BY query_id, dist, vec_id""",
        "data_stream_rollover": """
WITH r AS (SELECT event_id,
                  row_number() OVER (ORDER BY event_id) - 1 AS rk
           FROM events),
g AS (SELECT event_id, rk // 4000 + 1 AS gen FROM r)
SELECT printf('.ds-events-%06d', gen) AS backing_index,
       count(*)::BIGINT AS docs, min(event_id)::BIGINT AS min_id,
       max(event_id)::BIGINT AS max_id
FROM g GROUP BY gen ORDER BY gen""",
        "ingest_enrich": """
SELECT e.event_type,
       COALESCE(c.c_mktsegment, '_missing_') AS mktsegment,
       count(*)::BIGINT AS n
FROM events e LEFT JOIN customer c ON c.c_custkey = e.user_id
GROUP BY 1, 2 ORDER BY 1, 2""",
        "training_pack_sequences": """
WITH d AS (SELECT doc_id,
  len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                  x -> x <> '')) AS ntok
  FROM documents),
c AS (SELECT doc_id, ntok,
  COALESCE(SUM(ntok) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS s
  FROM d)
SELECT doc_id, s::BIGINT AS start_tok,
       (s // 256)::BIGINT AS seq_first,
       ((s + ntok - 1) // 256)::BIGINT AS seq_last
FROM c ORDER BY doc_id""",
        "eql_sequence": """
WITH a AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
b AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
m AS (SELECT a.user_id, a.ts,
             min(b.ts) AS fst
      FROM a JOIN b ON b.user_id = a.user_id
                   AND b.ts > a.ts
                   AND b.ts <= a.ts + INTERVAL 10 MINUTE
      GROUP BY a.user_id, a.ts)
SELECT user_id, count(*)::BIGINT AS seqs FROM m
GROUP BY user_id ORDER BY user_id""",
        "transform_pivot": """
SELECT user_id,
       count(*) FILTER (event_type = 'click')::BIGINT AS n_click,
       count(*) FILTER (event_type = 'error')::BIGINT AS n_error,
       count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (event_type = 'signup')::BIGINT AS n_signup,
       count(*) FILTER (event_type = 'view')::BIGINT AS n_view,
       max(ts) AS last_ts
FROM events GROUP BY user_id ORDER BY user_id""",
        "cat_shards": f"""
WITH {_TOK},
smap(source, shard) AS (VALUES
  ('src0', 0), ('src1', 0), ('src2', 2), ('src3', 2), ('src4', 3),
  ('src5', 1), ('src6', 3), ('src7', 3), ('src8', 1), ('src9', 1),
  ('src10', 2), ('src11', 1), ('src12', 1), ('src13', 3), ('src14', 0),
  ('src15', 1), ('src16', 3), ('src17', 2), ('src18', 2), ('src19', 3)),
dtok AS (SELECT doc_id, count(*) AS ntok FROM tok GROUP BY doc_id)
SELECT CAST(m.shard AS BIGINT) AS shard, count(*)::BIGINT AS docs,
       COALESCE(sum(ntok), 0)::BIGINT AS tokens
FROM documents d JOIN smap m USING (source)
LEFT JOIN dtok USING (doc_id)
GROUP BY 1 ORDER BY 1""",
        "cluster_health": """
SELECT 'green' AS status,
       4::BIGINT AS active_primary_shards, 4::BIGINT AS active_shards,
       0::BIGINT AS relocating_shards, 0::BIGINT AS initializing_shards,
       0::BIGINT AS unassigned_shards, 100.0 AS active_shards_percent,
       count(*)::BIGINT AS docs
FROM documents""",
        "indices_stats": f"""
WITH {_TOK},
dtok AS (SELECT doc_id, count(*) AS ntok FROM tok GROUP BY doc_id)
SELECT CASE WHEN d.lang = 'en' THEN 'docs-en' ELSE 'docs-other' END AS idx,
       count(*)::BIGINT AS docs, COALESCE(sum(ntok), 0)::BIGINT AS tokens
FROM documents d LEFT JOIN dtok USING (doc_id)
GROUP BY 1 ORDER BY 1""",
        "ft_stored_fields": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'merge'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
sc AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
       FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT sc.doc_id AS doc_id, ROUND(sc.raw, 4) AS score, d.lang, d.source
FROM sc JOIN documents d ON d.doc_id = sc.doc_id
ORDER BY sc.raw DESC, sc.doc_id LIMIT 10""",
        "agg_cumulative_cardinality": """
WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS fd
           FROM events GROUP BY 1),
h AS (SELECT date_trunc('day', ts) AS bucket, count(*)::BIGINT AS doc_count
      FROM events GROUP BY 1)
SELECT bucket, doc_count,
       (SELECT count(*) FROM f WHERE fd <= bucket)::BIGINT AS cum_users
FROM h ORDER BY bucket""",
        "cat_count": """
SELECT * FROM (
  SELECT 'documents' AS index_name, count(*)::BIGINT AS docs FROM documents
  UNION ALL SELECT 'events', count(*)::BIGINT FROM events
  UNION ALL SELECT 'orders', count(*)::BIGINT FROM orders)
ORDER BY index_name""",
        "ft_get_source": """
WITH w(doc_id) AS (VALUES (3), (7), (999999999))
SELECT w.doc_id::BIGINT AS doc_id,
       CASE WHEN d.doc_id IS NULL THEN 0 ELSE 1 END::BIGINT AS found,
       COALESCE(length(d.text), -1)::BIGINT AS src_len
FROM w LEFT JOIN documents d ON d.doc_id = w.doc_id
ORDER BY w.doc_id""",
        # template rendering is deterministic string substitution over
        # constants: golden expected rows
        "ft_render_template": """
SELECT * FROM (VALUES
  (0::BIGINT, 'term', 'data'),
  (1::BIGINT, 'match', 'slow merge'),
  (2::BIGINT, 'range_num', '120')) t(tpl_id, kind, value)
ORDER BY tpl_id""",
        "msearch_template": f"""
WITH {_TOK},
q1 AS (
  SELECT 0 AS request_id, tf.doc_id AS doc_id, {_SCORE} AS raw
  FROM (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(DISTINCT doc_id) AS df FROM tok WHERE term = 'data') df
  CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
  ORDER BY raw DESC, doc_id LIMIT 3),
q2t AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN ('slow', 'merge') GROUP BY doc_id, term),
q2df AS (SELECT term, count(*) AS df FROM q2t GROUP BY term),
q2 AS (
  SELECT 1 AS request_id, tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM q2t tf JOIN q2df df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id ORDER BY raw DESC, doc_id LIMIT 3)
SELECT request_id::BIGINT AS request_id, doc_id, ROUND(raw, 4) AS score
FROM (SELECT * FROM q1 UNION ALL SELECT * FROM q2)
ORDER BY request_id, score DESC, doc_id""",
        "ingest_simulate": """
SELECT doc_id, 'sim' AS tag, upper(lang) AS lang,
       regexp_replace(source, 'src', 'S', 'g') AS source
FROM documents WHERE doc_id < 5 ORDER BY doc_id""",
        "cat_templates": """
SELECT * FROM (VALUES
  ('catdemo', 'catdemo-*', 0::BIGINT),
  ('catdemo-special', 'catdemo-special-*', 5::BIGINT))
  t(name, patterns, template_order)
ORDER BY name""",
        # the documents index tiers to a single live segment at test SFs;
        # docs re-derived from the raw table
        "cat_snapshots": """
SELECT s.snapshot, 1::BIGINT AS n_segments, st.docs
FROM (VALUES ('snap_a'), ('snap_b')) s(snapshot)
CROSS JOIN (SELECT count(*)::BIGINT AS docs FROM documents) st
ORDER BY s.snapshot""",
        # full-batch logistic GD, 2 unrolled iterations: rational sigmoid
        # (no exp -> no libm ulp drift), per-doc integer gradient snap,
        # lr=0.5 (exact power-of-two step); weights snapped to the grid.
        "classifier_train_gd": """
WITH f AS (
  SELECT
    CASE WHEN length(text) = 0 THEN 0
         ELSE length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE
              / length(text) END AS x1,
    CASE WHEN length(text) = 0 THEN 0
         ELSE (length(text) - length(replace(text, ' ', '')))::DOUBLE
              / length(text) END AS x2,
    CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y
  FROM documents),
st AS (SELECT count(*)::DOUBLE AS n FROM f),
g1 AS (SELECT
  SUM(CAST(FLOOR((0.5 - y) * 1.0 * 1000000000.0 + 0.5) AS BIGINT)) AS g0,
  SUM(CAST(FLOOR((0.5 - y) * x1 * 1000000000.0 + 0.5) AS BIGINT)) AS g1,
  SUM(CAST(FLOOR((0.5 - y) * x2 * 1000000000.0 + 0.5) AS BIGINT)) AS g2
  FROM f),
w1 AS (SELECT
  0 - 0.5 * (g0::DOUBLE / (n * 1000000000.0)) AS w0,
  0 - 0.5 * (g1::DOUBLE / (n * 1000000000.0)) AS w1,
  0 - 0.5 * (g2::DOUBLE / (n * 1000000000.0)) AS w2
  FROM g1 CROSS JOIN st),
p2 AS (SELECT y, x1, x2,
  0.5 + (w0 + x1 * w1 + x2 * w2)
      / (2 * (1 + abs(w0 + x1 * w1 + x2 * w2))) AS p
  FROM f CROSS JOIN w1),
g2 AS (SELECT
  SUM(CAST(FLOOR((p - y) * 1.0 * 1000000000.0 + 0.5) AS BIGINT)) AS g0,
  SUM(CAST(FLOOR((p - y) * x1 * 1000000000.0 + 0.5) AS BIGINT)) AS g1,
  SUM(CAST(FLOOR((p - y) * x2 * 1000000000.0 + 0.5) AS BIGINT)) AS g2
  FROM p2),
wf AS (SELECT
  w1.w0 - 0.5 * (g2.g0::DOUBLE / (n * 1000000000.0)) AS w0,
  w1.w1 - 0.5 * (g2.g1::DOUBLE / (n * 1000000000.0)) AS w1,
  w1.w2 - 0.5 * (g2.g2::DOUBLE / (n * 1000000000.0)) AS w2
  FROM w1 CROSS JOIN g2 CROSS JOIN st)
SELECT j, w_num FROM (
  SELECT unnest([0, 1, 2]) AS j,
         unnest([CAST(FLOOR(w0 * 1000000000.0 + 0.5) AS BIGINT),
                 CAST(FLOOR(w1 * 1000000000.0 + 0.5) AS BIGINT),
                 CAST(FLOOR(w2 * 1000000000.0 + 0.5) AS BIGINT)]) AS w_num
  FROM wf)
ORDER BY j""",
        "bpe_pair_counts": r"""
WITH wrd AS (
  SELECT w, count(*)::BIGINT AS freq FROM (
    SELECT unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                              x -> x <> '')) AS w
    FROM documents) GROUP BY w),
pr AS (
  SELECT substr(w, i, 1) AS left_sym,
         CASE WHEN i < length(w) THEN substr(w, i + 1, 1)
              ELSE '</w>' END AS right_sym,
         freq
  FROM wrd, unnest(generate_series(1, length(w))) AS t(i))
SELECT left_sym, right_sym, sum(freq)::BIGINT AS c
FROM pr GROUP BY left_sym, right_sym
ORDER BY c DESC, left_sym, right_sym LIMIT 20""",
        "lm_perplexity_bigram": r"""
WITH d AS (SELECT doc_id, source,
                  list_filter(regexp_split_to_array(lower(text), '\s+'),
                              x -> x <> '') AS arr
           FROM documents),
rt AS (SELECT arr[i] AS w, CASE WHEN i > 1 THEN arr[i-1] END AS prev
       FROM d, unnest(generate_series(1, len(arr))) AS t(i)
       WHERE source IN ('src1','src2','src3')),
ucnt AS (SELECT w, count(*)::DOUBLE AS c FROM rt GROUP BY w),
utot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM ucnt),
bcnt AS (SELECT prev, w, count(*)::DOUBLE AS c FROM rt
         WHERE prev IS NOT NULL GROUP BY prev, w),
ctx AS (SELECT prev, sum(c) AS c FROM bcnt GROUP BY prev),
st AS (SELECT doc_id, arr[i] AS w,
              CASE WHEN i > 1 THEN arr[i-1] END AS prev
       FROM d, unnest(generate_series(1, len(arr))) AS t(i)),
lp AS (SELECT s.doc_id,
              CASE WHEN s.prev IS NULL
                   THEN ln((coalesce(u.c, 0) + 0.5) / (t.n + 0.5*(t.v+1)))
                   ELSE ln(0.7 * coalesce(b.c / cx.c, 0)
                         + (1 - 0.7) * (coalesce(u.c, 0) + 0.5)
                           / (t.n + 0.5*(t.v+1)))
              END AS lp
       FROM st s CROSS JOIN utot t
       LEFT JOIN ucnt u ON u.w = s.w
       LEFT JOIN bcnt b ON b.prev = s.prev AND b.w = s.w
       LEFT JOIN ctx cx ON cx.prev = s.prev)
SELECT doc_id, round(exp(-avg(lp)), 4) AS ppl
FROM lp GROUP BY doc_id ORDER BY doc_id""",
        # DSIR: mean per-token log likelihood ratio target/source
        "dsir_weights": r"""
WITH ttok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents WHERE source IN ('src1','src2','src3')) WHERE w <> ''),
tcnt AS (SELECT w, count(*)::DOUBLE AS c FROM ttok GROUP BY w),
ttot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM tcnt),
stok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
scnt AS (SELECT w, count(*)::DOUBLE AS c FROM stok GROUP BY w),
stot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM scnt),
dtok AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
lr AS (SELECT d.doc_id,
              ln((coalesce(tc.c, 0) + 0.5) / (tt.n + 0.5 * (tt.v + 1)))
            - ln((coalesce(sc.c, 0) + 0.5) / (st.n + 0.5 * (st.v + 1))) AS r
       FROM dtok d CROSS JOIN ttot tt CROSS JOIN stot st
       LEFT JOIN tcnt tc ON tc.w = d.w
       LEFT JOIN scnt sc ON sc.w = d.w)
SELECT doc_id, round(avg(r), 4) AS weight
FROM lr GROUP BY doc_id ORDER BY doc_id""",
        # 64-token windows, stride 48; last partial window kept; DuckDB
        # list slicing is 1-based inclusive and clamps at the end
        "doc_chunks": r"""
WITH d AS (SELECT doc_id,
                  list_filter(regexp_split_to_array(lower(text), '\s+'),
                              x -> x <> '') AS arr
           FROM documents WHERE doc_id < 200),
base AS (SELECT doc_id, arr, len(arr) AS l FROM d WHERE len(arr) > 0),
ks AS (SELECT doc_id, arr, l, k
       FROM base, unnest(generate_series(0,
            greatest(0, CAST(ceil((l - 64) / 48.0) AS BIGINT)))) AS t(k))
SELECT doc_id, k AS chunk_idx,
       len(arr[k*48+1 : k*48+64])::BIGINT AS n_tokens,
       array_to_string(arr[k*48+1 : k*48+64], ' ') AS chunk
FROM ks ORDER BY doc_id, chunk_idx""",
        # per-doc top-3 tokens by tf*ln(N/df), ties by term
        "tfidf_keywords": r"""
WITH dt AS (
  SELECT doc_id, w AS term, count(*)::DOUBLE AS tf FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> '' GROUP BY doc_id, w),
df AS (SELECT term, count(*)::DOUBLE AS df FROM dt GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
sc AS (SELECT dt.doc_id, dt.term,
              dt.tf * ln((SELECT n FROM n) / df.df) AS score
       FROM dt JOIN df USING (term)),
rk AS (SELECT *, row_number() OVER (
           PARTITION BY doc_id ORDER BY score DESC, term) AS r FROM sc)
SELECT doc_id, term, round(score, 4) AS score
FROM rk WHERE r <= 3 ORDER BY doc_id, score DESC, term""",
        # Church & Hanks PMI collocations, c(ab) >= 5, top-50
        "pmi_collocations": r"""
WITH d AS (SELECT list_filter(regexp_split_to_array(lower(text), '\s+'),
                              x -> x <> '') AS arr FROM documents),
t AS (SELECT arr[i] AS w, CASE WHEN i > 1 THEN arr[i-1] END AS prev
      FROM d, unnest(generate_series(1, len(arr))) AS u(i)),
uni AS (SELECT w, count(*)::DOUBLE AS c FROM t GROUP BY w),
n AS (SELECT sum(c) AS n FROM uni),
big AS (SELECT prev AS w1, w AS w2, count(*)::DOUBLE AS c FROM t
        WHERE prev IS NOT NULL GROUP BY 1, 2),
nb AS (SELECT sum(c) AS nb FROM big),
s AS (SELECT w1 || ' ' || w2 AS bigram, big.c::BIGINT AS n_ab,
             ln((big.c / (SELECT nb FROM nb)) /
                ((u1.c / (SELECT n FROM n)) * (u2.c / (SELECT n FROM n))))
               AS pmi
      FROM big JOIN uni u1 ON u1.w = big.w1
               JOIN uni u2 ON u2.w = big.w2
      WHERE big.c >= 5),
top AS (SELECT * FROM s ORDER BY pmi DESC, bigram LIMIT 50)
SELECT bigram, n_ab, round(pmi, 4) AS pmi FROM top ORDER BY bigram""",
        # two-class multinomial NB: log_odds = ln(nA/nB) + sum_w lp ratio;
        # fp-order mirrors the Ray side ((mean_a - mean_b) * len)
        "nb_domain_classify": r"""
WITH atok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents WHERE source IN ('src1','src2')) WHERE w <> ''),
acnt AS (SELECT w, count(*)::DOUBLE AS c FROM atok GROUP BY w),
atot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM acnt),
btok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents WHERE source IN ('src3','src4')) WHERE w <> ''),
bcnt AS (SELECT w, count(*)::DOUBLE AS c FROM btok GROUP BY w),
btot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM bcnt),
prior AS (SELECT ln((SELECT count(*) FROM documents
                     WHERE source IN ('src1','src2')) * 1.0 /
                    (SELECT count(*) FROM documents
                     WHERE source IN ('src3','src4'))) AS p),
dtok AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
lp AS (SELECT d.doc_id,
              ln((coalesce(ac.c, 0) + 0.5) / (att.n + 0.5*(att.v+1))) AS la,
              ln((coalesce(bc.c, 0) + 0.5) / (btt.n + 0.5*(btt.v+1))) AS lb
       FROM dtok d CROSS JOIN atot att CROSS JOIN btot btt
       LEFT JOIN acnt ac ON ac.w = d.w
       LEFT JOIN bcnt bc ON bc.w = d.w),
odds AS (SELECT doc_id,
                (SELECT p FROM prior)
              + (sum(la)/count(*) - sum(lb)/count(*)) * count(*) AS lo
         FROM lp GROUP BY doc_id)
SELECT doc_id, round(lo, 4) AS log_odds,
       CASE WHEN lo > 0 THEN 'a' ELSE 'b' END AS pred
FROM odds ORDER BY doc_id""",
        # Gumbel-top-k resample: key = weight - ln(-ln(u)), u the
        # md5(doc_id)-derived uniform (first 13 hex digits / 2^52) — both
        # sides draw the identical sample
        "dsir_resample": r"""
WITH ttok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents WHERE source IN ('src1','src2','src3')) WHERE w <> ''),
tcnt AS (SELECT w, count(*)::DOUBLE AS c FROM ttok GROUP BY w),
ttot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM tcnt),
stok AS (
  SELECT w FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
scnt AS (SELECT w, count(*)::DOUBLE AS c FROM stok GROUP BY w),
stot AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM scnt),
dtok AS (
  SELECT doc_id, w FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
    FROM documents) WHERE w <> ''),
lr AS (SELECT d.doc_id,
              ln((coalesce(tc.c, 0) + 0.5) / (tt.n + 0.5 * (tt.v + 1))) AS lt,
              ln((coalesce(sc.c, 0) + 0.5) / (st.n + 0.5 * (st.v + 1))) AS ls
       FROM dtok d CROSS JOIN ttot tt CROSS JOIN stot st
       LEFT JOIN tcnt tc ON tc.w = d.w
       LEFT JOIN scnt sc ON sc.w = d.w),
w AS (SELECT doc_id, sum(lt)/count(*) - sum(ls)/count(*) AS weight
      FROM lr GROUP BY doc_id),
g AS (SELECT doc_id, weight,
             weight - ln(-ln(
               CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13))
                    AS UBIGINT) / 4503599627370496.0)) AS gkey
      FROM w),
top AS (SELECT * FROM g ORDER BY gkey DESC, doc_id LIMIT 100)
SELECT doc_id, round(weight, 4) AS weight, round(gkey, 4) AS gkey
FROM top ORDER BY doc_id""",
        "range_join_events_windows": """
WITH w AS (SELECT i AS window_id,
                  TIMESTAMP '2024-01-01' + to_hours(33 * i) AS ws,
                  TIMESTAMP '2024-01-01' + to_hours(33 * i + 72) AS we
           FROM unnest(generate_series(0, 19)) AS u(i))
SELECT w.window_id, e.event_type, count(*) AS n
FROM events e JOIN w ON e.ts >= w.ws AND e.ts < w.we
GROUP BY 1, 2 ORDER BY 1, 2""",
        "sliding_window_counts": """
WITH w AS (SELECT TIMESTAMP '2024-01-01' + to_minutes(15 * i) AS window_start
           FROM unnest(generate_series(0, 3100)) AS u(i))
SELECT w.window_start, count(*) AS n, ROUND(SUM(e.value), 4) AS value_sum
FROM events e
JOIN w ON e.ts >= w.window_start AND e.ts < w.window_start + INTERVAL 1 HOUR
GROUP BY 1 ORDER BY 1""",
        # sessionization: lag + running-sum session index, session aggregate
        "events_sessionize": """
WITH o AS (SELECT user_id, event_id, ts,
                  lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
           FROM events),
f AS (SELECT *, CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                     THEN 1 ELSE 0 END AS brk FROM o),
s AS (SELECT *, CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT)
                AS session_idx
      FROM f)
SELECT user_id, session_idx, count(*) AS n_events,
       min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY user_id, session_idx ORDER BY user_id, session_idx""",
        # as-of join: latest order at-or-before the synthetic as-of time,
        # ties on date -> larger o_orderkey; inner semantics
        "asof_join_events_orders": """
WITH e AS (SELECT event_id, user_id,
                  TIMESTAMP '1995-01-01' + to_days(CAST(event_id % 2000 AS INTEGER)) AS as_of_ts
           FROM events),
m AS (SELECT e.event_id, e.user_id, o.o_orderkey, o.o_orderdate,
             row_number() OVER (PARTITION BY e.event_id
                                ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
      FROM e JOIN orders o
        ON o.o_custkey = e.user_id AND o.o_orderdate <= e.as_of_ts)
SELECT event_id, user_id, o_orderkey, o_orderdate
FROM m WHERE rn = 1 ORDER BY event_id""",
        "join_orders_customer": """
SELECT c_mktsegment, ROUND(SUM(o_totalprice), 2) AS revenue,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment""",
        # ExactSubstr-style span dedup: 8-word grams, duplicate occurrences
        # (row_number > 1 over (doc_id, start) order) mark spans; covered
        # word indexes are cut via ANTI JOIN and the text re-joined
        "dedup_substring": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
wn AS (SELECT doc_id, len(ws) AS n_words FROM w),
g AS (SELECT doc_id, i AS s, array_to_string(ws[(i+1):(i+8)], ' ') AS gram
      FROM w, unnest(generate_series(0, len(ws) - 8)) AS u(i)
      WHERE len(ws) >= 8),
r AS (SELECT doc_id, s,
             row_number() OVER (PARTITION BY gram ORDER BY doc_id, s) AS rn
      FROM g),
cov AS (SELECT DISTINCT doc_id, s + j AS widx
        FROM (SELECT doc_id, s FROM r WHERE rn > 1),
             unnest(generate_series(0, 7)) AS v(j)),
words AS (SELECT doc_id, i AS widx, ws[i+1] AS word
          FROM w, unnest(generate_series(0, len(ws) - 1)) AS u(i)),
kept AS (SELECT * FROM words ANTI JOIN cov USING (doc_id, widx)),
k AS (SELECT doc_id, string_agg(word, ' ' ORDER BY widx) AS text_clean,
             count(*) AS nk
      FROM kept GROUP BY doc_id)
SELECT wn.doc_id,
       coalesce(k.text_clean, '') AS text_clean,
       CAST(wn.n_words - coalesce(k.nk, 0) AS BIGINT) AS n_removed,
       wn.n_words
FROM wn LEFT JOIN k USING (doc_id) ORDER BY wn.doc_id""",
        # CCNet-style paragraph dedup: 3-word chunks, keep the globally
        # first occurrence by (doc_id, chunk_index), reassemble
        "dedup_paragraph": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
ch AS (SELECT doc_id, i AS ci, array_to_string(ws[(i*3+1):(i*3+3)], ' ') AS chunk
       FROM w, unnest(generate_series(0, CAST(ceil(len(ws)/3.0) AS BIGINT) - 1)) AS u(i)),
r AS (SELECT doc_id, ci, chunk,
             row_number() OVER (PARTITION BY chunk ORDER BY doc_id, ci) AS rn FROM ch)
SELECT doc_id,
       coalesce(string_agg(chunk, ' ' ORDER BY ci) FILTER (WHERE rn = 1), '') AS text_dedup,
       CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT) AS n_kept,
       count(*) AS n_total
FROM r GROUP BY doc_id ORDER BY doc_id""",
        # brute-force O(n^2) formulation of the prefix-filtered exact
        # n-gram-Jaccard self-join (doc_id < 600 bound keeps it tractable;
        # normalization mirrors _shingles: lower + whitespace collapse)
        "dedup_ngram_jaccard": r"""
WITH s AS (SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS t
           FROM documents WHERE doc_id < 600),
g AS (SELECT DISTINCT doc_id, substr(t, i, 5) AS gram
      FROM s, unnest(generate_series(1, greatest(length(t)-4, 1))) AS u(i)
      WHERE length(t) >= 5),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
          FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b, ROUND(i*1.0/(sa.n + sb.n - i), 6) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
WHERE i*1.0/(sa.n + sb.n - i) >= 0.5
ORDER BY doc_a, doc_b""",
        "dedup_embedding": """
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
ORDER BY doc_a, doc_b""",
        "knn_bruteforce": """
SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
       ROUND(list_cosine_similarity(q.embedding::DOUBLE[], v.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings q CROSS JOIN embeddings v
WHERE q.vec_id IN (0, 1, 2)
QUALIFY row_number() OVER (PARTITION BY q.vec_id
        ORDER BY list_cosine_similarity(q.embedding::DOUBLE[], v.embedding::DOUBLE[]) DESC,
                 v.vec_id) <= 5
ORDER BY query_id, vec_id""",
        "text_token_count": r"""
SELECT doc_id,
       len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS ws_tokens,
       len(regexp_extract_all(text, '\w+|[^\w\s]')) AS bpe_tokens
FROM documents ORDER BY doc_id""",
        "text_quality": rf"""
SELECT doc_id,
  ROUND(CASE WHEN length(text) = 0 THEN 0
        ELSE length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE / length(text) END, 4) AS alpha_ratio,
  ROUND(CASE WHEN length(text) = 0 THEN 0
        ELSE (length(text) - length(replace(text, ' ', '')))::DOUBLE / length(text) END, 4) AS space_ratio,
  ROUND(CASE WHEN len(toks) = 0 THEN 0
        ELSE len(list_filter(toks, x -> list_contains({_STOP_SQL}, lower(x))))::DOUBLE / len(toks) END, 4) AS stop_ratio,
  ROUND(CASE WHEN len(toks) = 0 THEN 0
        ELSE list_sum(list_transform(toks, x -> length(x)))::DOUBLE / len(toks) END, 4) AS mean_tok_len
FROM (SELECT doc_id, text,
             list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
      FROM documents)
ORDER BY doc_id""",
        "top_terms": """
SELECT t AS term, count(*) AS cnt FROM (
  SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t FROM documents)
WHERE t <> '' GROUP BY t ORDER BY cnt DESC, term LIMIT 20""",
        "ft_fuzzy": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE levenshtein(term, 'dataa') <= 1
ORDER BY doc_id""",
        "ft_wildcard": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE term LIKE 's_ow' ORDER BY doc_id""",
        "ft_regexp": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE regexp_full_match(term, 'gro.p')
ORDER BY doc_id""",
        "ft_terms_set": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','vector']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id HAVING count(*) >= 2 ORDER BY doc_id""",
        "ft_dis_max": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS s
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st)
SELECT doc_id, ROUND(MAX(s) + 0.3 * (SUM(s) - MAX(s)), 4) AS score
FROM scored GROUP BY doc_id ORDER BY doc_id""",
        "ft_constant_score": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id, 1.5 AS score FROM tok WHERE term = 'vector'
ORDER BY doc_id""",
        "ft_boosting": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
neg AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'vector')
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) * (CASE WHEN tf.doc_id IN (SELECT doc_id FROM neg)
                           THEN 0.5 ELSE 1.0 END), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_function_score": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) * ln(1 + 0.1 * d.n_chars), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_more_like_this": f"""
WITH {_TOK},
q AS (SELECT t AS term FROM (
        SELECT unnest(regexp_split_to_array(
          lower((SELECT text FROM documents WHERE doc_id = 42)), '[^a-z0-9]+')) AS t) u
      WHERE t <> '' GROUP BY t ORDER BY count(*) DESC, t LIMIT 5),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
WHERE tf.doc_id <> 42
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ft_paginate": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score FROM scored
ORDER BY raw DESC, doc_id LIMIT 20 OFFSET 20""",
        "ft_rescore": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
base AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
  ORDER BY raw DESC, doc_id LIMIT 50)
SELECT b.doc_id AS doc_id,
       ROUND(b.raw + (CASE WHEN regexp_matches(lower(d.text),
             '(^|[^a-z0-9])data[^a-z0-9]+query([^a-z0-9]|$)')
             THEN 2.0 ELSE 0.0 END), 4) AS score
FROM base b JOIN documents d ON d.doc_id = b.doc_id
ORDER BY doc_id""",
        "agg_rare_terms": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT term, count(DISTINCT doc_id) AS df FROM tok
GROUP BY term HAVING count(DISTINCT doc_id) <= 30 ORDER BY term""",
        "agg_significant_terms": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM documents WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND((fg_df::DOUBLE / fg_n.n - bg_df::DOUBLE / bg_n.n)
             * ((fg_df::DOUBLE / fg_n.n) / (bg_df::DOUBLE / bg_n.n)), 6) AS score
FROM counts CROSS JOIN fg_n CROSS JOIN bg_n
WHERE fg_df >= 5
ORDER BY score DESC, term LIMIT 10""",
        "agg_filters": """
SELECT * FROM (
  SELECT 'big' AS name, count(*) FILTER (WHERE value >= 100) AS doc_count FROM events
  UNION ALL
  SELECT 'mid', count(*) FILTER (WHERE value >= 10 AND value < 100) FROM events
  UNION ALL
  SELECT 'small', count(*) FILTER (WHERE value < 10) FROM events
) ORDER BY name""",
        "terms_lookup": """
SELECT user_id, count(*) AS doc_count FROM events
WHERE user_id IN (SELECT DISTINCT user_id FROM events
                  WHERE event_type = 'purchase' AND value > 240)
GROUP BY user_id ORDER BY user_id""",
        "ingest_extract": r"""
SELECT event_id, CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k_val
FROM events ORDER BY event_id""",
        "text_repetition": """
WITH tl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents),
g2 AS (
  SELECT doc_id, count(*) AS total, count(DISTINCT g) AS uniq
  FROM (SELECT doc_id, array_to_string(toks[i:i+1], ' ') AS g
        FROM tl, UNNEST(range(1, len(toks))) AS t(i)
        WHERE len(toks) >= 2) GROUP BY doc_id),
g3 AS (
  SELECT doc_id, count(*) AS total, count(DISTINCT g) AS uniq
  FROM (SELECT doc_id, array_to_string(toks[i:i+2], ' ') AS g
        FROM tl, UNNEST(range(1, len(toks) - 1)) AS t(i)
        WHERE len(toks) >= 3) GROUP BY doc_id),
r AS (
  SELECT tl.doc_id,
         ROUND(COALESCE((g2.total - g2.uniq) / CAST(g2.total AS DOUBLE), 0),
               6) AS dup_2gram_frac,
         ROUND(COALESCE((g3.total - g3.uniq) / CAST(g3.total AS DOUBLE), 0),
               6) AS dup_3gram_frac
  FROM tl LEFT JOIN g2 USING (doc_id) LEFT JOIN g3 USING (doc_id))
SELECT doc_id, dup_2gram_frac, dup_3gram_frac
FROM r WHERE dup_2gram_frac >= 0.05 ORDER BY doc_id""",
        "dedup_decontaminate": """
WITH tl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents),
grams AS (
  SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g
  FROM tl, UNNEST(range(1, len(toks) - 2)) AS t(i)
  WHERE len(toks) >= 4),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0)
SELECT doc_id, count(DISTINCT g) AS overlap_grams
FROM grams JOIN bench USING (g)
WHERE doc_id % 50 <> 0
GROUP BY doc_id ORDER BY doc_id""",
        "tasks_api": """
SELECT 'indices:data/write/update/byquery' AS action,
       true AS completed, false AS cancelled,
       count(*) AS total, count(*) AS updated
FROM documents""",
        # even docs plain (content = text), odd docs html (title = lang,
        # body = text whitespace-normalized)
        "ingest_attachment": """
SELECT doc_id,
       CASE WHEN doc_id % 2 = 0 THEN 'text/plain' ELSE 'text/html' END
         AS attachment_content_type,
       CAST(CASE WHEN doc_id % 2 = 0 THEN length(text)
                 ELSE length(trim(regexp_replace(text, '\\s+', ' ', 'g')))
            END AS BIGINT) AS attachment_content_length,
       CASE WHEN doc_id % 2 = 0 THEN NULL ELSE lang END AS attachment_title
FROM documents ORDER BY doc_id""",
        "icu_analyze": """
SELECT * FROM (VALUES
  ('ＦＵＬＬｗｉｄｔｈ', 'fullwidth', 'fullwidth'),
  ('ﬁle', 'file', 'file'),
  ('Åström', 'åström', 'astrom'),
  ('ÉLÉGANT', 'élégant', 'elegant'),
  ('Straße', 'strasse', 'strasse'),
  ('Ⅻ', 'xii', 'xii'),
  ('①', '1', '1'),
  ('Ｑｕéｒｙ', 'quéry', 'query'))
AS t(word, nfkc_cf, folded)""",
        # commons-codec soundex re-derived in SQL: letters-only uppercase,
        # H/W deleted after the first letter, translate to digit codes,
        # adjacent equal codes collapsed (indexed list_filter), zeros out,
        # pad to letter+3
        "phonetic_soundex": """
WITH s AS (SELECT n_name,
             regexp_replace(upper(n_name), '[^A-Z]', '', 'g') AS az
           FROM nation),
s2 AS (SELECT n_name, substr(az, 1, 1) AS first,
         regexp_split_to_array(
           translate(substr(az, 1, 1) ||
                     regexp_replace(substr(az, 2), '[HW]', '', 'g'),
                     'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                     '01230120022455012623010202'), '') AS cl
       FROM s WHERE az <> ''),
s3 AS (SELECT n_name, first,
         list_filter(cl, (c, i) -> i > 1 AND c <> cl[i-1]) AS kept
       FROM s2)
SELECT n_name,
       substr(first ||
              COALESCE(array_to_string(
                list_filter(kept, c -> c <> '0'), ''), '') || '000',
              1, 4) AS code
FROM s3 ORDER BY n_name""",
        "phonetic_metaphone": """
SELECT * FROM (VALUES
  ('testing', 'TSTN'), ('The', '0'), ('quick', 'KK'), ('brown', 'BRN'),
  ('fox', 'FKS'), ('jumped', 'JMPT'), ('over', 'OFR'), ('lazy', 'LS'),
  ('dogs', 'TKS'), ('howl', 'HL'), ('Knight', 'NT'), ('phone', 'FN'),
  ('school', 'SKL'), ('gnome', 'NM'), ('judge', 'JJ'),
  ('metaphone', 'MTFN'), ('Thompson', '0MPS'), ('science', 'SNS'),
  ('exhaust', 'EKSH'), ('shallow', 'XL'))
AS t(word, code)""",
        # hand-derived token stream of the plugin's javadoc example:
        # annotation values injected verbatim at the wrapped text's first
        # token position
        "annotated_text_analyze": """
SELECT * FROM (VALUES
  ('new', 0), ('mayor', 1), ('is', 2), ('john', 3), ('person', 3),
  ('John Smith', 3), ('smith', 4), ('today', 5))
AS t(token, position)""",
        "annotated_text_terms": """
SELECT 'lang-' || lang AS token, count(*) AS doc_count
FROM documents GROUP BY lang ORDER BY token""",
        # stored long = floor(value*100 + 0.5) (Math.round); bounds 10001 /
        # 16000 are round(ceil(nextUp(100.005*100))) / round(floor(160.004*100))
        "scaled_float_range": """
SELECT event_id, FLOOR(value * 100 + 0.5) / 100.0 AS scaled_value
FROM events
WHERE FLOOR(value * 100 + 0.5) BETWEEN 10001 AND 16000
ORDER BY event_id""",
        "rank_features_query": r"""
WITH f AS (
  SELECT event_id,
         CAST(CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) % 7 + 1
              AS DOUBLE) AS urgency
  FROM events)
SELECT event_id, ROUND(urgency / (urgency + 3.0), 6) AS score
FROM f WHERE urgency >= 5 ORDER BY event_id""",
        "mapper_size": """
SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS size
FROM documents WHERE octet_length(encode(text)) >= 400
ORDER BY doc_id""",
        # the 128-bit murmur3 hash is injective at corpus cardinality, so
        # distinct-hash count == distinct-value count
        "mapper_murmur3": """
SELECT CAST(count(DISTINCT lang) AS BIGINT) AS lang_cardinality
FROM documents""",
        "token_count_field": r"""
WITH c AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS token_count
  FROM documents)
SELECT doc_id, CAST(token_count AS BIGINT) AS token_count
FROM c WHERE token_count >= 70 ORDER BY doc_id""",
        # expected parse outputs of the 6 deterministic UA samples, keyed by
        # the same user_id mod the pipeline uses to assign them
        "ingest_user_agent": """
WITH m AS (SELECT CAST(user_id % 6 AS INT) AS i FROM events),
map AS (SELECT * FROM (VALUES
  (0,'Chrome','96','Windows 10','Other'),
  (1,'Safari','15','Mac OS X 10.15','Mac'),
  (2,'Safari','15','iOS 15.0','iPhone'),
  (3,'Firefox','95','Linux','Other'),
  (4,'curl','7','Other','Other'),
  (5,'Other',NULL,'Other','Other'))
  AS t(i, ua_name, ua_major, ua_os, ua_device))
SELECT ua_name, ua_major, ua_os, ua_device, count(*) AS doc_count
FROM m JOIN map USING (i)
GROUP BY 1, 2, 3, 4 ORDER BY ua_name""",
        # the embedded synthetic range table keyed by the first octet the
        # pipeline assigns from user_id; octet 9 has no DB range -> nulls
        "ingest_geoip": """
WITH m AS (SELECT CAST(user_id % 9 AS INT) AS i FROM events),
map AS (SELECT * FROM (VALUES
  (0,'Oceania','AU','Sydney',-33.8688,151.2093),
  (1,'North America','US','New York',40.7128,-74.006),
  (2,'Europe','RU','Moscow',55.7558,37.6173),
  (3,'Europe','DE','Berlin',52.52,13.405),
  (4,'Asia','CN','Beijing',39.9042,116.4074),
  (5,'Asia','JP','Tokyo',35.6762,139.6503),
  (6,'South America','BR','Sao Paulo',-23.5505,-46.6333),
  (7,'Africa','ZA','Johannesburg',-26.2041,28.0473),
  (8,NULL,NULL,NULL,NULL,NULL))
  AS t(i, geo_continent_name, geo_country_iso_code, geo_city_name,
       lat, lon))
SELECT geo_continent_name, geo_country_iso_code, geo_city_name,
       count(*) AS doc_count, lat, lon
FROM m JOIN map USING (i)
GROUP BY 1, 2, 3, lat, lon ORDER BY geo_city_name NULLS LAST""",
        # data..query with <=1 gap token; the gap token, when present, must
        # not be exactly 'agg' (RE2 has no lookahead: token != 'agg' spelled
        # as len!=3 or a per-position character mismatch)
        "ft_intervals_filter": """
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text),
  '(^|[^a-z0-9])data[^a-z0-9]+(([a-z0-9]{1,2}|[a-z0-9]{4,}|[b-z0-9][a-z0-9]{2}|[a-z0-9][a-fh-z0-9][a-z0-9]|[a-z0-9]{2}[a-fh-z0-9])[^a-z0-9]+)?query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "ft_span_gap": """
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text),
  '(^|[^a-z0-9])data([^a-z0-9]+[a-z0-9]+){1,2}[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "ft_span_near": """
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text),
  '(^|[^a-z0-9])data([^a-z0-9]+[a-z0-9]+){0,2}[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "ft_phrase_prefix": """
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text), '(^|[^a-z0-9])data[^a-z0-9]+quer[a-z0-9]*')
ORDER BY doc_id""",
        "ft_query_string": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
WHERE tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'vector')
GROUP BY tf.doc_id ORDER BY doc_id""",
        "agg_adjacency_matrix": """
SELECT * FROM (
  SELECT 'big' AS key, count(*) FILTER (WHERE value >= 100) AS doc_count FROM events
  UNION ALL
  SELECT 'big&click', count(*) FILTER (WHERE value >= 100 AND event_type = 'click') FROM events
  UNION ALL
  SELECT 'click', count(*) FILTER (WHERE event_type = 'click') FROM events
) ORDER BY key""",
        "agg_date_range": """
SELECT * FROM (
  SELECT 'early' AS range_key, count(*) FILTER (WHERE ts < TIMESTAMP '2024-01-10') AS doc_count FROM events
  UNION ALL
  SELECT 'late', count(*) FILTER (WHERE ts >= TIMESTAMP '2024-01-20') FROM events
  UNION ALL
  SELECT 'mid', count(*) FILTER (WHERE ts >= TIMESTAMP '2024-01-10' AND ts < TIMESTAMP '2024-01-20') FROM events
) ORDER BY range_key""",
        "agg_matrix_stats": """
SELECT ROUND(covar_pop(l_quantity, l_extendedprice), 4) AS covariance,
       ROUND(corr(l_quantity, l_extendedprice), 6) AS correlation
FROM lineitem""",
        "nested_query": """
SELECT DISTINCT user_id FROM events
WHERE event_type = 'purchase' AND value > 300 ORDER BY user_id""",
        "geo_bounding_box": """
WITH u AS (SELECT DISTINCT user_id FROM events),
g AS (SELECT user_id,
             ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon FROM u)
SELECT user_id, lat, lon FROM g
WHERE lat BETWEEN -30 AND 30 AND lon BETWEEN -60 AND 60
ORDER BY user_id""",
        "geo_distance": """
WITH u AS (SELECT DISTINCT user_id FROM events),
g AS (SELECT user_id,
             radians(((user_id * 7919) % 180) - 90 + 0.5) AS lat,
             radians(((user_id * 104729) % 360) - 180 + 0.5) AS lon FROM u),
d AS (SELECT user_id,
             2 * 6371.0 * asin(sqrt(pow(sin(lat/2), 2)
                 + cos(lat) * cos(0.0) * pow(sin(lon/2), 2))) AS dist FROM g)
SELECT user_id, ROUND(dist, 2) AS distance_km FROM d
WHERE dist <= 3000.0 ORDER BY user_id""",
        "agg_sampler": """
SELECT lang, count(*) AS sample_count, ROUND(AVG(n_chars), 2) AS avg_chars
FROM (SELECT lang, n_chars,
             row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
      FROM documents)
WHERE rn <= 50 GROUP BY lang ORDER BY lang""",
        "agg_auto_date_histogram": """
SELECT date_trunc('day', ts) AS bucket, 'day' AS interval, count(*) AS doc_count
FROM events GROUP BY 1 ORDER BY 1""",
        "range_orders_pruned": """
SELECT count(*) AS doc_count, ROUND(MIN(o_totalprice), 2) AS min_v
FROM orders WHERE o_totalprice > 180000.0""",
        "has_child": """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 180000)
ORDER BY c_custkey""",
        "has_parent": """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)
ORDER BY o_orderkey""",
        "percolate": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
m0 AS (SELECT doc_id, 0 AS query_id FROM tok WHERE term IN ('data','query')
       GROUP BY doc_id HAVING count(*) = 2),
m1 AS (SELECT doc_id, 1 AS query_id FROM tok WHERE term = 'vector'),
m2 AS (SELECT doc_id, 2 AS query_id FROM tok WHERE term IN ('window','merge','batch')
       GROUP BY doc_id HAVING count(*) = 3)
SELECT * FROM (SELECT * FROM m0 UNION ALL SELECT * FROM m1 UNION ALL SELECT * FROM m2)
ORDER BY doc_id, query_id""",
        "ft_analyze": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(lower('Data-Query WINDOW window2 the'),
             '[^a-z0-9]+'), x -> x <> '') AS a)
SELECT CAST(generate_subscripts(a, 1) - 1 AS BIGINT) AS position, unnest(a) AS token
FROM arr ORDER BY position""",
        "ft_highlight": f"""
WITH {_TOK},
q AS (SELECT unnest(['window','merge']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id,
         SUM(ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf
             / (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl))) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id),
topk AS (SELECT doc_id, raw FROM scored ORDER BY raw DESC, doc_id LIMIT 5),
words AS (
  SELECT t.doc_id, t.raw,
         list_filter(regexp_split_to_array(d.text, '\\s+'), w -> w <> '') AS w
  FROM topk t JOIN documents d ON d.doc_id = t.doc_id),
posd AS (
  SELECT doc_id, raw, w,
         least(
           coalesce(nullif(list_position(list_transform(w, x -> lower(x)),
                                         'window'), 0), 2147483647),
           coalesce(nullif(list_position(list_transform(w, x -> lower(x)),
                                         'merge'), 0), 2147483647)) AS m
  FROM words)
, lod AS (
  SELECT doc_id, raw, w,
         greatest(1, (CASE WHEN m = 2147483647 THEN 1 ELSE m END) - 4) AS lo
  FROM posd)
SELECT doc_id, ROUND(raw, 4) AS score,
       substr(array_to_string(list_transform(list_slice(w, lo, lo + 9),
         x -> CASE WHEN lower(x) IN ('window', 'merge')
                   THEN '<em>' || x || '</em>' ELSE x END), ' '),
              1, 120) AS highlight
FROM lod ORDER BY raw DESC, doc_id""",
        "ft_analyze_common_grams": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(
               lower('The quick fox jumps over the lazy dog'),
               '[^a-z0-9]+'), x -> x <> '') AS a),
idx AS (SELECT a, unnest(generate_series(1, len(a))) AS i FROM arr),
strm AS (
  SELECT i * 2 AS ord, a[i] AS token FROM idx
  UNION ALL
  SELECT i * 2 + 1, a[i] || '_' || a[i + 1] FROM idx
  WHERE i < len(a)
    AND (list_contains(['the', 'over'], a[i])
         OR list_contains(['the', 'over'], a[i + 1])))
SELECT CAST(row_number() OVER (ORDER BY ord) - 1 AS BIGINT) AS position,
       token
FROM strm ORDER BY position""",
        "ft_analyze_filter_chain": """
WITH arr AS (SELECT list_filter(regexp_split_to_array(
               lower('Elasticsearch2 rewritten99 on RayData batches7 streaming'),
               '[^a-z0-9]+'), x -> x <> '') AS a)
SELECT CAST(generate_subscripts(a, 1) - 1 AS BIGINT) AS position,
       upper(substr(regexp_replace(unnest(a), '[0-9]+', '#', 'g'), 1, 5)) AS token
FROM arr ORDER BY position""",
        "delete_by_query": """
WITH tok AS (
  SELECT DISTINCT doc_id FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t = 'vector')
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM tok)
ORDER BY doc_id""",
        "update_by_query": """
WITH tok AS (
  SELECT DISTINCT doc_id FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t = 'data')
SELECT doc_id, n_chars, n_chars > 300 AS long_doc FROM documents
WHERE doc_id IN (SELECT doc_id FROM tok) ORDER BY doc_id""",
        "reindex_docs": """
SELECT doc_id, upper(lang) AS lang, n_chars FROM documents ORDER BY doc_id""",
        "ft_completion": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, df FROM tc WHERE term LIKE 'da%'
ORDER BY df DESC, term LIMIT 5""",
        "ft_termvectors": """
SELECT t AS term, count(*) AS tf FROM (
  SELECT unnest(regexp_split_to_array(lower((SELECT text FROM documents WHERE doc_id = 42)),
                '[^a-z0-9]+')) AS t) WHERE t <> ''
GROUP BY t ORDER BY term""",
        "ft_match_msm": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id HAVING count(*) >= 2 ORDER BY doc_id""",
        "agg_stats_bucket": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
           FROM events GROUP BY 1)
SELECT count(*) AS cnt, MIN(doc_count) AS min_v, MAX(doc_count) AS max_v,
       CAST(SUM(doc_count) AS BIGINT) AS sum_v, ROUND(AVG(doc_count), 4) AS avg_v
FROM h""",
        "agg_percentiles_bucket": """
WITH h AS (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
           FROM events GROUP BY 1)
SELECT 0.25 AS q, ROUND(quantile_cont(doc_count, 0.25), 4) AS value FROM h
UNION ALL
SELECT 0.5, ROUND(quantile_cont(doc_count, 0.5), 4) FROM h
UNION ALL
SELECT 0.75, ROUND(quantile_cont(doc_count, 0.75), 4) FROM h
ORDER BY q""",
        "agg_bucket_script": """
SELECT bucket, doc_count, ROUND(sum_value / doc_count, 4) AS avg_per_event
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count,
             SUM(value) AS sum_value FROM events GROUP BY 1)
ORDER BY bucket""",
        "agg_moving_fn": """
SELECT bucket, doc_count,
       CAST(MAX(doc_count) OVER (ORDER BY bucket
            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS window_max
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket""",
        "agg_serial_diff": """
SELECT bucket, doc_count,
       doc_count - COALESCE(lag(doc_count, 7) OVER (ORDER BY bucket), doc_count) AS serial_diff
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket""",
        "ft_match_bool_prefix": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
termscore AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS s
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
pref AS (SELECT DISTINCT doc_id, 1.0 AS s FROM tok WHERE term LIKE 'quer%'),
uni AS (SELECT * FROM termscore UNION ALL SELECT * FROM pref)
SELECT doc_id, ROUND(SUM(s), 4) AS score FROM uni GROUP BY doc_id ORDER BY doc_id""",
        "ft_intervals": r"""
SELECT doc_id FROM documents
WHERE regexp_matches(lower(text),
  '(^|[^a-z0-9])data([^a-z0-9]+[a-z0-9]+){0,1}[^a-z0-9]+query([^a-z0-9]|$)')
ORDER BY doc_id""",
        "ingest_pipeline_demo": r"""
SELECT doc_id, length(regexp_replace(text, '[0-9]', '', 'g')) AS clean_len
FROM documents ORDER BY doc_id""",
        "quality_filter": rf"""
WITH q AS (
  SELECT doc_id,
    CASE WHEN length(text)=0 THEN 0
         ELSE length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE / length(text) END AS alpha,
    CASE WHEN length(text)=0 THEN 0
         ELSE (length(text) - length(replace(text, ' ', '')))::DOUBLE / length(text) END AS space,
    CASE WHEN len(toks)=0 THEN 0
         ELSE len(list_filter(toks, x -> list_contains({_STOP_SQL}, lower(x))))::DOUBLE / len(toks) END AS stopr,
    CASE WHEN len(toks)=0 THEN 0
         ELSE list_sum(list_transform(toks, x -> length(x)))::DOUBLE / len(toks) END AS mtl
  FROM (SELECT doc_id, text,
               list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS toks
        FROM documents)),
scored AS (
  SELECT doc_id,
    ROUND(LEAST(GREATEST(0.4*alpha + 0.2*LEAST(space*6, 1) + 0.2*(1 - stopr)
                + 0.2*LEAST(mtl/8, 1), 0), 1), 4) AS quality
  FROM q)
SELECT doc_id, quality FROM scored WHERE quality >= 0.5 ORDER BY doc_id""",
        "source_roundtrip": """
SELECT 'csv' AS fmt, count(*) AS doc_count, CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       count(DISTINCT lang) AS langs FROM documents
UNION ALL
SELECT 'json', count(*), CAST(SUM(n_chars) AS BIGINT), count(DISTINCT lang) FROM documents
ORDER BY fmt""",
        "ft_exists": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
WHERE d.lang IS NOT NULL
ORDER BY doc_id""",
        # per-field BM25: `source` is one token/doc -> dl = 1, avgdl = 1, so
        # the field score reduces to its idf (matches the engine's per-field
        # norms: score = idf * 2.2 * 1 / (1 + 1.2*(0.25 + 0.75*1/1)))
        "ft_multi_match_best": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','src3']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
ts AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS s_text
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
       GROUP BY tf.doc_id),
sdf AS (SELECT count(*) AS df FROM documents WHERE source = 'src3'),
ss AS (SELECT d.doc_id AS doc_id,
              ln(1 + ((SELECT count(*) FROM documents) - sdf.df + 0.5)/(sdf.df + 0.5)) AS s_src
       FROM documents d CROSS JOIN sdf WHERE d.source = 'src3'),
u AS (SELECT COALESCE(ts.doc_id, ss.doc_id) AS doc_id,
             COALESCE(s_text, 0) AS a, COALESCE(s_src, 0) AS b
      FROM ts FULL OUTER JOIN ss ON ts.doc_id = ss.doc_id)
SELECT doc_id, ROUND(GREATEST(a, b) + 0.3 * (a + b - GREATEST(a, b)), 4) AS score
FROM u ORDER BY doc_id""",
        "ft_multi_match_most": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','src3']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
ts AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS s_text
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
       GROUP BY tf.doc_id),
sdf AS (SELECT count(*) AS df FROM documents WHERE source = 'src3'),
ss AS (SELECT d.doc_id AS doc_id,
              ln(1 + ((SELECT count(*) FROM documents) - sdf.df + 0.5)/(sdf.df + 0.5)) AS s_src
       FROM documents d CROSS JOIN sdf WHERE d.source = 'src3'),
u AS (SELECT COALESCE(ts.doc_id, ss.doc_id) AS doc_id,
             COALESCE(s_text, 0) AS a, COALESCE(s_src, 0) AS b
      FROM ts FULL OUTER JOIN ss ON ts.doc_id = ss.doc_id)
SELECT doc_id, ROUND(a + b, 4) AS score FROM u ORDER BY doc_id""",
        # query_string `data AND (window OR merge) -vector quer*`:
        # must = [data, window|merge], must_not = [vector], should = [quer*]
        # (prefix clause is constant-score 1.0 when it matches)
        "ft_query_string_adv": f"""
WITH {_TOK},
qa AS (SELECT unnest(['window','merge']) AS term),
tfa AS (SELECT doc_id, term, count(*) AS tf FROM tok
        WHERE term IN (SELECT term FROM qa) GROUP BY doc_id, term),
dfa AS (SELECT term, count(*) AS df FROM tfa GROUP BY term),
swm AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS s
        FROM tfa tf JOIN dfa df ON df.term = tf.term
        JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
        GROUP BY tf.doc_id),
tfd AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
dfd AS (SELECT count(*) AS df FROM tfd),
sd AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS s
       FROM tfd tf CROSS JOIN dfd df
       JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st),
neg AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'vector'),
pq AS (SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'quer%')
SELECT sd.doc_id AS doc_id,
       ROUND(sd.s + swm.s +
             (CASE WHEN sd.doc_id IN (SELECT doc_id FROM pq) THEN 1.0 ELSE 0 END),
             4) AS score
FROM sd JOIN swm USING (doc_id)
WHERE sd.doc_id NOT IN (SELECT doc_id FROM neg)
ORDER BY doc_id""",
        "agg_missing": """
SELECT source, count(*) FILTER (WHERE lang = 'zh') AS doc_count
FROM documents GROUP BY source ORDER BY source""",
        "agg_global": """
SELECT * FROM (
  SELECT 'global' AS scope, count(*) AS doc_count,
         ROUND(AVG(n_chars), 4) AS avg_chars FROM documents
  UNION ALL
  SELECT 'query', count(*), ROUND(AVG(n_chars), 4) FROM documents WHERE lang = 'en'
) ORDER BY scope""",
        "agg_mad": """
SELECT ROUND(median(abs(value - (SELECT median(value) FROM events))), 4) AS mad
FROM events""",
        "agg_scripted_metric": """
SELECT ROUND(exp(sum(ln(1 + value)) / count(*)), 4) AS geo_mean_1p
FROM events""",
        "agg_geohash_grid": """
-- precision-2 geohash re-derived in SQL: 5+5 quantized lon/lat
-- bits interleaved arithmetically, base32-alphabet lookup
WITH g AS (SELECT user_id,
             ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon
      FROM (SELECT DISTINCT user_id FROM events)),
b AS (
  SELECT least(CAST(floor((lon + 180.0) / 360.0 * 32) AS INTEGER), 31) AS lx,
         least(CAST(floor((lat + 90.0) / 180.0 * 32) AS INTEGER), 31) AS ly
  FROM g),
bits AS (
  SELECT ((lx // 16) % 2) * 512 + ((ly // 16) % 2) * 256 + ((lx // 8) % 2) * 128
       + ((ly // 8) % 2) * 64 + ((lx // 4) % 2) * 32 + ((ly // 4) % 2) * 16
       + ((lx // 2) % 2) * 8 + ((ly // 2) % 2) * 4 + (lx % 2) * 2 + (ly % 2) AS v
  FROM b),
cells AS (
  SELECT substr('0123456789bcdefghjkmnpqrstuvwxyz', (v // 32) + 1, 1) ||
         substr('0123456789bcdefghjkmnpqrstuvwxyz', (v % 32) + 1, 1) AS cell
  FROM bits)
SELECT cell, CAST(count(*) AS BIGINT) AS doc_count FROM cells GROUP BY cell
ORDER BY doc_count DESC, cell LIMIT 10""",
        "text_lang_id": """
-- trigram-profile language-ID heuristic re-derived in SQL
-- (substring counts per profile gram; first-profile-wins ties;
-- the CJK branch is unreachable on the ASCII corpus)
WITH s AS (
  SELECT doc_id, lang, lower(substr(text, 1, 2000)) AS low FROM documents),
sc AS (
  SELECT doc_id, lang,
         ((length(low) - length(replace(low, 'the', ''))) / 3 + (length(low) - length(replace(low, 'and', ''))) / 3 + (length(low) - length(replace(low, 'ing', ''))) / 3 + (length(low) - length(replace(low, 'ion', ''))) / 3 + (length(low) - length(replace(low, 'ent', ''))) / 3 + (length(low) - length(replace(low, ' th', ''))) / 3 + (length(low) - length(replace(low, 'he ', ''))) / 3 + (length(low) - length(replace(low, 'er ', ''))) / 3 + (length(low) - length(replace(low, 'on ', ''))) / 3 + (length(low) - length(replace(low, ' of', ''))) / 3) / greatest(1.0, length(low) / 100.0) AS en,
         ((length(low) - length(replace(low, 'de ', ''))) / 3 + (length(low) - length(replace(low, ' de', ''))) / 3 + (length(low) - length(replace(low, 'la ', ''))) / 3 + (length(low) - length(replace(low, 'os ', ''))) / 3 + (length(low) - length(replace(low, 'ión', ''))) / 3 + (length(low) - length(replace(low, 'ent', ''))) / 3 + (length(low) - length(replace(low, ' la', ''))) / 3 + (length(low) - length(replace(low, 'es ', ''))) / 3 + (length(low) - length(replace(low, 'ado', ''))) / 3 + (length(low) - length(replace(low, 'que', ''))) / 3) / greatest(1.0, length(low) / 100.0) AS es,
         ((length(low) - length(replace(low, 'es ', ''))) / 3 + (length(low) - length(replace(low, ' de', ''))) / 3 + (length(low) - length(replace(low, 'de ', ''))) / 3 + (length(low) - length(replace(low, 'ent', ''))) / 3 + (length(low) - length(replace(low, 'le ', ''))) / 3 + (length(low) - length(replace(low, ' le', ''))) / 3 + (length(low) - length(replace(low, 'ion', ''))) / 3 + (length(low) - length(replace(low, 'la ', ''))) / 3 + (length(low) - length(replace(low, 'et ', ''))) / 3 + (length(low) - length(replace(low, ' et', ''))) / 3) / greatest(1.0, length(low) / 100.0) AS fr
  FROM s)
SELECT doc_id, lang,
       CASE WHEN greatest(en, es, fr) <= 0 THEN 'und'
            WHEN en >= es AND en >= fr THEN 'en'
            WHEN es >= fr THEN 'es' ELSE 'fr' END AS pred_lang,
       ROUND(CASE WHEN greatest(en, es, fr) <= 0 THEN 0.0
                  ELSE greatest(en, es, fr) END, 4) AS lang_score
FROM sc ORDER BY doc_id""",
        "cdc_chunks": """
-- content-defined chunking: 16-byte Karp-Rabin window hashes mod 2^64
-- over whitespace-normalized lowercase text; a window divisible by 64
-- cuts a chunk at its end; the tail is the final chunk
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents WHERE doc_id < 200),
cps AS (
  SELECT doc_id, i, unicode(substr(s, i, 1))::HUGEINT AS cp, length(s) AS n
  FROM norm, unnest(generate_series(1, length(s))) AS t(i)),
pw(j, p) AS (VALUES (0, 6397295411589846571::HUGEINT), (1, 5600660903763878393::HUGEINT), (2, 14911146631531166995::HUGEINT), (3, 15642640937032856817::HUGEINT), (4, 2455841760392682171::HUGEINT), (5, 5231796974404119081::HUGEINT), (6, 3634980586811902243::HUGEINT), (7, 1460077494926286753::HUGEINT), (8, 12924618581234127435::HUGEINT), (9, 10923514805226455897::HUGEINT), (10, 14453212906556403763::HUGEINT), (11, 14003818205314896721::HUGEINT), (12, 1000009000027000027::HUGEINT), (13, 1000006000009::HUGEINT), (14, 1000003::HUGEINT), (15, 1::HUGEINT)),
wh AS (
  SELECT a.doc_id, a.i AS pos,
         SUM(b.cp * pw.p) % 18446744073709551616::HUGEINT AS h
  FROM cps a
  JOIN cps b ON b.doc_id = a.doc_id AND b.i BETWEEN a.i AND a.i + 15
  JOIN pw ON pw.j = b.i - a.i
  WHERE a.i <= a.n - 15
  GROUP BY a.doc_id, a.i),
cuts AS (SELECT doc_id, pos + 15 AS cut_end FROM wh WHERE h % 64 = 0),
bounds AS (
  SELECT doc_id, cut_end FROM cuts
  UNION ALL
  SELECT n.doc_id, length(n.s) FROM norm n
  WHERE length(n.s) > 0
    AND NOT EXISTS (SELECT 1 FROM cuts c
                    WHERE c.doc_id = n.doc_id AND c.cut_end = length(n.s))),
ch AS (
  SELECT doc_id, cut_end,
         lag(cut_end, 1, 0) OVER (PARTITION BY doc_id ORDER BY cut_end)
           AS prev,
         row_number() OVER (PARTITION BY doc_id ORDER BY cut_end) - 1
           AS chunk_idx
  FROM bounds)
SELECT ch.doc_id, chunk_idx, prev + 1 AS start,
       cut_end - prev AS length,
       substr(norm.s, CAST(prev + 1 AS INT), CAST(cut_end - prev AS INT))
         AS chunk
FROM ch JOIN norm USING (doc_id)
ORDER BY ch.doc_id, chunk_idx""",
        "dedup_cdc": """
-- content-defined chunking: 16-byte Karp-Rabin window hashes mod 2^64
-- over whitespace-normalized lowercase text; a window divisible by 64
-- cuts a chunk at its end; the tail is the final chunk
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents WHERE doc_id < 200),
cps AS (
  SELECT doc_id, i, unicode(substr(s, i, 1))::HUGEINT AS cp, length(s) AS n
  FROM norm, unnest(generate_series(1, length(s))) AS t(i)),
pw(j, p) AS (VALUES (0, 6397295411589846571::HUGEINT), (1, 5600660903763878393::HUGEINT), (2, 14911146631531166995::HUGEINT), (3, 15642640937032856817::HUGEINT), (4, 2455841760392682171::HUGEINT), (5, 5231796974404119081::HUGEINT), (6, 3634980586811902243::HUGEINT), (7, 1460077494926286753::HUGEINT), (8, 12924618581234127435::HUGEINT), (9, 10923514805226455897::HUGEINT), (10, 14453212906556403763::HUGEINT), (11, 14003818205314896721::HUGEINT), (12, 1000009000027000027::HUGEINT), (13, 1000006000009::HUGEINT), (14, 1000003::HUGEINT), (15, 1::HUGEINT)),
wh AS (
  SELECT a.doc_id, a.i AS pos,
         SUM(b.cp * pw.p) % 18446744073709551616::HUGEINT AS h
  FROM cps a
  JOIN cps b ON b.doc_id = a.doc_id AND b.i BETWEEN a.i AND a.i + 15
  JOIN pw ON pw.j = b.i - a.i
  WHERE a.i <= a.n - 15
  GROUP BY a.doc_id, a.i),
cuts AS (SELECT doc_id, pos + 15 AS cut_end FROM wh WHERE h % 64 = 0),
bounds AS (
  SELECT doc_id, cut_end FROM cuts
  UNION ALL
  SELECT n.doc_id, length(n.s) FROM norm n
  WHERE length(n.s) > 0
    AND NOT EXISTS (SELECT 1 FROM cuts c
                    WHERE c.doc_id = n.doc_id AND c.cut_end = length(n.s))),
ch AS (
  SELECT doc_id, cut_end,
         lag(cut_end, 1, 0) OVER (PARTITION BY doc_id ORDER BY cut_end)
           AS prev,
         row_number() OVER (PARTITION BY doc_id ORDER BY cut_end) - 1
           AS chunk_idx
  FROM bounds),
ck AS (
  SELECT DISTINCT ch.doc_id,
         substr(norm.s, CAST(prev + 1 AS INT), CAST(cut_end - prev AS INT))
           AS chunk
  FROM ch JOIN norm USING (doc_id)
  WHERE cut_end - prev >= 24)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       count(*)::BIGINT AS shared_chunks
FROM ck a JOIN ck b ON a.chunk = b.chunk AND a.doc_id < b.doc_id
GROUP BY 1, 2 HAVING count(*) >= 3
ORDER BY doc_a, doc_b""",
        "graph_pagerank": """
-- fixed-point PageRank: ranks are int64 multiples of 2^-40, every sum is
-- an integer sum (order-invariant), so Ray combiners and SQL scan order
-- agree bit-for-bit
WITH nt AS (SELECT count(*) AS total FROM documents),
e0 AS (
  SELECT doc_id AS src, (7 * doc_id + 3) % total AS dst
  FROM documents CROSS JOIN nt
  UNION ALL
  SELECT doc_id, (13 * doc_id + 5) % total FROM documents CROSS JOIN nt
  UNION ALL
  SELECT doc_id, doc_id // 2 FROM documents WHERE doc_id % 3 = 0),
e AS MATERIALIZED (SELECT src, dst FROM e0 WHERE src <> dst),
v AS MATERIALIZED (
  SELECT DISTINCT x AS v FROM (SELECT src AS x FROM e UNION SELECT dst FROM e)),
nn AS (SELECT count(*)::DOUBLE AS n, count(*)::BIGINT AS ni FROM v),
dg AS MATERIALIZED (SELECT src, count(*)::BIGINT AS d FROM e GROUP BY src),
r0 AS (SELECT v.v, 1099511627776::BIGINT // nn.ni AS rq FROM v CROSS JOIN nn),
dang1 AS (SELECT coalesce(sum(rq), 0)::BIGINT AS dm
         FROM r0 LEFT JOIN dg ON dg.src = r0.v WHERE dg.src IS NULL),
c1 AS (SELECT e.dst AS v, sum(r0.rq // dg.d)::BIGINT AS c
       FROM e JOIN r0 ON r0.v = e.src JOIN dg ON dg.src = e.src
       GROUP BY e.dst),
r1 AS (SELECT v.v,
              CAST(floor((1 - 0.85) * 1099511627776 / nn.n) AS BIGINT)
              + CAST(floor(0.85 * (coalesce(c1.c, 0)
                                   + dang1.dm // nn.ni)) AS BIGINT) AS rq
       FROM v CROSS JOIN nn CROSS JOIN dang1
       LEFT JOIN c1 ON c1.v = v.v),
dang2 AS (SELECT coalesce(sum(rq), 0)::BIGINT AS dm
         FROM r1 LEFT JOIN dg ON dg.src = r1.v WHERE dg.src IS NULL),
c2 AS (SELECT e.dst AS v, sum(r1.rq // dg.d)::BIGINT AS c
       FROM e JOIN r1 ON r1.v = e.src JOIN dg ON dg.src = e.src
       GROUP BY e.dst),
r2 AS (SELECT v.v,
              CAST(floor((1 - 0.85) * 1099511627776 / nn.n) AS BIGINT)
              + CAST(floor(0.85 * (coalesce(c2.c, 0)
                                   + dang2.dm // nn.ni)) AS BIGINT) AS rq
       FROM v CROSS JOIN nn CROSS JOIN dang2
       LEFT JOIN c2 ON c2.v = v.v),
dang3 AS (SELECT coalesce(sum(rq), 0)::BIGINT AS dm
         FROM r2 LEFT JOIN dg ON dg.src = r2.v WHERE dg.src IS NULL),
c3 AS (SELECT e.dst AS v, sum(r2.rq // dg.d)::BIGINT AS c
       FROM e JOIN r2 ON r2.v = e.src JOIN dg ON dg.src = e.src
       GROUP BY e.dst),
r3 AS (SELECT v.v,
              CAST(floor((1 - 0.85) * 1099511627776 / nn.n) AS BIGINT)
              + CAST(floor(0.85 * (coalesce(c3.c, 0)
                                   + dang3.dm // nn.ni)) AS BIGINT) AS rq
       FROM v CROSS JOIN nn CROSS JOIN dang3
       LEFT JOIN c3 ON c3.v = v.v)
SELECT v, ROUND(rq / 1099511627776.0, 6) AS rank FROM r3 ORDER BY v""",
        "embed_score": """
WITH e AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings),
w0 AS (SELECT v AS w FROM e WHERE vec_id = 0),
nm AS (SELECT sqrt(list_sum(list_transform(w, y -> y * y))) AS nrm FROM w0),
wv AS (SELECT list_transform(w, y -> y / nrm) AS w FROM w0 CROSS JOIN nm)
SELECT e.vec_id,
       ROUND(1.0 / (1.0 + exp(-list_inner_product(e.v, wv.w))), 6) AS score
FROM e CROSS JOIN wv ORDER BY e.vec_id""",
        "text_fingerprint": """
-- winnowed Karp-Rabin document fingerprint re-derived in SQL: 16-byte
-- polynomial window hashes mod 2^64 over the whitespace-normalized
-- lowercase text (ASCII corpus: codepoint == byte), min per doc
WITH norm AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS s
  FROM documents),
cps AS (
  SELECT doc_id, i, unicode(substr(s, i, 1))::HUGEINT AS cp, length(s) AS n
  FROM norm, unnest(generate_series(1, length(s))) AS t(i)),
pw(j, p) AS (VALUES (0, 6397295411589846571::HUGEINT), (1, 5600660903763878393::HUGEINT), (2, 14911146631531166995::HUGEINT), (3, 15642640937032856817::HUGEINT), (4, 2455841760392682171::HUGEINT), (5, 5231796974404119081::HUGEINT), (6, 3634980586811902243::HUGEINT), (7, 1460077494926286753::HUGEINT), (8, 12924618581234127435::HUGEINT), (9, 10923514805226455897::HUGEINT), (10, 14453212906556403763::HUGEINT), (11, 14003818205314896721::HUGEINT), (12, 1000009000027000027::HUGEINT), (13, 1000006000009::HUGEINT), (14, 1000003::HUGEINT), (15, 1::HUGEINT)),
wh AS (
  SELECT a.doc_id, a.i AS pos,
         SUM(b.cp * pw.p) % 18446744073709551616::HUGEINT AS h
  FROM cps a
  JOIN cps b ON b.doc_id = a.doc_id AND b.i BETWEEN a.i AND a.i + 15
  JOIN pw ON pw.j = b.i - a.i
  WHERE a.i <= a.n - 15
  GROUP BY a.doc_id, a.i),
fp AS (SELECT doc_id, min(h) AS h FROM wh GROUP BY doc_id)
SELECT doc_id,
       (CASE WHEN h >= 9223372036854775808::HUGEINT
             THEN h - 18446744073709551616::HUGEINT ELSE h END)::BIGINT
       AS fingerprint
FROM fp ORDER BY doc_id""",
        "agg_terms_shard_error": """
WITH pershard AS (
  SELECT user_id % 4 AS shard, event_type, count(*) AS cnt
  FROM events GROUP BY 1, 2),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY shard
            ORDER BY cnt DESC, event_type) AS rn FROM pershard),
kept AS (SELECT * FROM ranked WHERE rn <= 2),
shard_last AS (SELECT shard, min(cnt) AS last_cnt FROM kept GROUP BY shard),
terms AS (SELECT DISTINCT event_type FROM kept),
merged AS (
  SELECT t.event_type AS event_type,
         CAST(COALESCE(SUM(k.cnt), 0) AS BIGINT) AS doc_count,
         CAST(SUM(CASE WHEN k.cnt IS NULL THEN sl.last_cnt ELSE 0 END) AS BIGINT)
           AS doc_count_error_upper_bound
  FROM terms t CROSS JOIN shard_last sl
  LEFT JOIN kept k ON k.shard = sl.shard AND k.event_type = t.event_type
  GROUP BY t.event_type)
SELECT event_type, doc_count, doc_count_error_upper_bound
FROM merged ORDER BY doc_count DESC, event_type LIMIT 3""",
        "agg_significant_text": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fgdocs AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
fg_n AS (SELECT count(*) AS n FROM fgdocs),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM fgdocs)) AS fg_df,
         count(*) AS bg_df
  FROM tok GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND((fg_df::DOUBLE / fg_n.n - bg_df::DOUBLE / bg_n.n)
             * ((fg_df::DOUBLE / fg_n.n) / (bg_df::DOUBLE / bg_n.n)), 6) AS score
FROM counts CROSS JOIN fg_n CROSS JOIN bg_n
WHERE fg_df >= 5
ORDER BY score DESC, term LIMIT 10""",
        "script_expression": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(CASE WHEN d.n_chars > 300 THEN ({_SCORE}) * 2
                  ELSE ({_SCORE}) / 2 END, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_script_score": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) / (1.0 + 0.01 * d.n_chars), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_distance_feature": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) + 2.0 * 50 / (50 + abs(d.n_chars - 300)), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_rank_feature": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) + 1.5 * d.n_chars / (d.n_chars + 300.0), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_span_or": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE term IN ('spark', 'vector')
ORDER BY doc_id""",
        "ft_span_first": f"""
WITH {_PTOK}
SELECT DISTINCT doc_id FROM ptok WHERE term = 'data' AND pos <= 4
ORDER BY doc_id""",
        "ft_span_not": f"""
WITH {_PTOK}
SELECT DISTINCT p.doc_id AS doc_id FROM ptok p
WHERE p.term = 'data' AND NOT EXISTS (
  SELECT 1 FROM ptok q
  WHERE q.doc_id = p.doc_id AND q.term = 'query' AND q.pos = p.pos + 1)
ORDER BY doc_id""",
        "ft_span_within": f"""
WITH {_PTOK}
SELECT DISTINCT p.doc_id AS doc_id FROM ptok p
WHERE p.term = 'query' AND EXISTS (
  SELECT 1 FROM ptok a, ptok b
  WHERE a.doc_id = p.doc_id AND b.doc_id = p.doc_id
    AND a.term = 'data' AND b.term = 'table'
    AND abs(a.pos - b.pos) BETWEEN 1 AND 5
    AND p.pos >= least(a.pos, b.pos) AND p.pos <= greatest(a.pos, b.pos))
ORDER BY doc_id""",
        # geo-context completion: per-user precision-2 geohash cell (same
        # arithmetic as agg_geohash_grid), events joined to their emitter's
        # cell, filtered to the query point (-60,-123) -> cell '1m'
        "ft_completion_geo_context": """
WITH g AS (SELECT user_id,
             ((user_id * 7919) % 180) - 90 + 0.5 AS lat,
             ((user_id * 104729) % 360) - 180 + 0.5 AS lon
           FROM (SELECT DISTINCT user_id FROM events)),
b AS (SELECT user_id,
        least(CAST(floor((lon + 180.0) / 360.0 * 32) AS INTEGER), 31) AS lx,
        least(CAST(floor((lat + 90.0) / 180.0 * 32) AS INTEGER), 31) AS ly
      FROM g),
bits AS (SELECT user_id,
        ((lx // 16) % 2) * 512 + ((ly // 16) % 2) * 256
        + ((lx // 8) % 2) * 128 + ((ly // 8) % 2) * 64
        + ((lx // 4) % 2) * 32 + ((ly // 4) % 2) * 16
        + ((lx // 2) % 2) * 8 + ((ly // 2) % 2) * 4
        + (lx % 2) * 2 + (ly % 2) AS v
      FROM b),
cells AS (SELECT user_id,
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v // 32) + 1, 1) ||
        substr('0123456789bcdefghjkmnpqrstuvwxyz', (v % 32) + 1, 1) AS cell
      FROM bits)
SELECT e.event_type AS input, CAST(count(*) AS BIGINT) AS weight
FROM events e JOIN cells c USING (user_id)
WHERE c.cell = '1m'
GROUP BY 1 ORDER BY weight DESC, input LIMIT 5""",
        # _cat/segments: manifests' per-segment lineage recomputed from the
        # raw table. Build partitioning is FRAGMENT-granular and the test
        # documents.parquet is a single row group at every sf, so the live
        # view is exactly one flush segment spanning all docs — the oracle
        # recomputes its doc range, count, and indexed-token total.
        # per-id op order is update(%10) -> delete(%25) -> create(%40):
        # ids on the lcm 200 get delete-then-create = successful re-create
        # with the new source; a create on a live doc is a version conflict
        # replay the engine's sequential redaction chain: count+replace email,
        # then phone on the email-redacted text, then ipv4
        "redact_pii": """
WITH t0 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 3 = 0
                THEN text || ' contact user' || doc_id || '@example.com now'
              WHEN doc_id % 3 = 1
                THEN text || ' call +1 (555) 010-' ||
                     lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ||
                     ' today'
              ELSE text || ' node 10.' || (doc_id % 256) || '.0.1 up'
         END AS x
  FROM documents),
t1 AS (SELECT doc_id,
              len(regexp_extract_all(x,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n1,
              regexp_replace(x,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                  '[PII:email]', 'g') AS x
       FROM t0),
t2 AS (SELECT doc_id, n1,
              len(regexp_extract_all(x,
                  '\\+?[0-9][0-9()\\-\\s]{7,}[0-9]')) AS n2,
              regexp_replace(x, '\\+?[0-9][0-9()\\-\\s]{7,}[0-9]',
                  '[PII:phone]', 'g') AS x
       FROM t1),
t3 AS (SELECT doc_id, n1, n2,
              len(regexp_extract_all(x,
                  '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS n3
       FROM t2)
SELECT doc_id, CAST(n1 + n2 + n3 AS BIGINT) AS n_redactions
FROM t3 ORDER BY doc_id""",
        "agg_date_histogram_quarter": """
SELECT date_trunc('quarter', ts) AS bucket, count(*) AS doc_count,
       ROUND(SUM(value), 2) AS sum_value
FROM events GROUP BY 1 ORDER BY bucket""",
        # restored-under-rename copy must answer the term query with the
        # same count as the live index; count re-derived from raw text
        "snapshot_restore_renamed": """
SELECT 'restored-snap' AS index_name,
       CAST(count(*) FILTER (WHERE regexp_matches(lower(text),
              '(^|[^a-z0-9])data([^a-z0-9]|$)')) AS BIGINT) AS doc_count,
       true AS matches_live
FROM documents""",
        "cat_aliases": """
SELECT * FROM (VALUES
  ('initial', 'logs-write', 'logs-000001'),
  ('initial', 'metrics-write', 'metrics-000007'),
  ('after_delete', 'logs-write', 'logs-000001'))
AS t(phase, alias, index_name)""",
        "keyword_normalizer": """
SELECT lower(source) AS source_norm, count(*) AS doc_count
FROM documents GROUP BY 1 ORDER BY source_norm""",
        "training_mix": """
WITH w AS (SELECT * FROM (VALUES ('en', 100), ('fr', 50), ('de', 25),
                                 ('es', 50), ('zh', 75)) AS t(lang, pct))
SELECT lang, count(*) AS kept
FROM documents JOIN w USING (lang)
WHERE doc_id % 100 < pct
GROUP BY lang ORDER BY lang""",
        "sequence_packing": """
WITH tl AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS tokens
  FROM documents),
c AS (SELECT doc_id, tokens,
             SUM(tokens) OVER (ORDER BY doc_id) AS cum
      FROM tl),
spans AS (SELECT doc_id,
                 (cum - tokens) // 2048 AS first,
                 GREATEST((cum - tokens) // 2048, (cum - 1) // 2048) AS last
          FROM c),
chunks AS (SELECT unnest(range(0, CAST((SELECT ((MAX(cum) - 1) // 2048) + 1
                                  FROM c) AS BIGINT))) AS chunk),
tot AS (SELECT MAX(cum) AS total, ((MAX(cum) - 1) // 2048) + 1 AS n FROM c)
SELECT chunk,
       (SELECT count(*) FROM spans
        WHERE spans.first <= chunk AND chunk <= spans.last) AS n_docs,
       CAST(CASE WHEN chunk = tot.n - 1 THEN tot.total - (tot.n - 1) * 2048
                 ELSE 2048 END AS BIGINT) AS tokens
FROM chunks CROSS JOIN tot ORDER BY chunk""",
        "mapping_options": """
SELECT CASE WHEN lang = 'de' THEN 'unknown' ELSE lang END AS lang_nv,
       count(*) AS doc_count,
       CAST(count(*) FILTER (WHERE length(source) <= 4) AS BIGINT)
         AS kw_indexed,
       CAST(SUM(n_chars) AS BIGINT) AS sum_coerced,
       CAST(count(*) * 2 AS BIGINT) AS all_tokens
FROM documents GROUP BY 1 ORDER BY lang_nv""",
        "bulk_actions": """
SELECT doc_id,
       CASE WHEN doc_id % 200 = 0 THEN 'xx'
            WHEN doc_id % 10 = 0 THEN upper(lang) ELSE lang END AS lang,
       CAST(CASE WHEN doc_id % 200 = 0 THEN -1 ELSE n_chars END
            AS BIGINT) AS n_chars,
       CAST(CASE WHEN doc_id % 40 = 0 AND doc_id % 25 <> 0 THEN 1 ELSE 0 END
            AS BIGINT) AS errors
FROM documents WHERE doc_id % 25 <> 0 OR doc_id % 200 = 0
ORDER BY doc_id""",
        "source_orc_roundtrip": """
SELECT count(*) AS doc_count, CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       count(DISTINCT lang) AS langs FROM documents""",
        "forcemerge_api": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
dlen AS (SELECT doc_id, count(*) AS toks FROM tok GROUP BY doc_id)
SELECT CAST(4 AS BIGINT) AS segments_before,
       CAST(1 AS BIGINT) AS segments_after,
       COUNT(*) AS doc_count,
       CAST((SELECT SUM(toks) FROM dlen) AS BIGINT) AS tokens,
       true AS term_docs_stable
FROM documents""",
        "search_shards": """
SELECT CAST(0 AS BIGINT) AS shard, MIN(doc_id) AS doc_id_min,
       MAX(doc_id) AS doc_id_max, COUNT(*) AS doc_count
FROM documents""",
        "cat_segments": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
dlen AS (SELECT doc_id, count(*) AS toks FROM tok GROUP BY doc_id)
SELECT MIN(d.doc_id) AS doc_id_min, MAX(d.doc_id) AS doc_id_max,
       COUNT(*) AS doc_count,
       CAST(SUM(COALESCE(dlen.toks, 0)) AS BIGINT) AS tokens,
       CAST(0 AS BIGINT) AS generation
FROM documents d LEFT JOIN dlen USING (doc_id)
ORDER BY doc_id_min""",
        # search_analyzer: query-time synonym rapid=>fast scores as 'fast'
        "ft_search_analyzer": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'fast' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        # span_containing under span_first: constraint binds on the BIG
        # span's exclusive end (greatest + 1 <= 12)
        "ft_span_containing": f"""
WITH {_PTOK}
SELECT DISTINCT p.doc_id AS doc_id FROM ptok p
WHERE p.term = 'query' AND EXISTS (
  SELECT 1 FROM ptok a, ptok b
  WHERE a.doc_id = p.doc_id AND b.doc_id = p.doc_id
    AND a.term = 'data' AND b.term = 'table'
    AND abs(a.pos - b.pos) BETWEEN 1 AND 5
    AND p.pos >= least(a.pos, b.pos) AND p.pos <= greatest(a.pos, b.pos)
    AND greatest(a.pos, b.pos) + 1 <= 12)
ORDER BY doc_id""",
        "ft_highlight_unified": f"""
WITH {_TOK},
q AS (SELECT unnest(['window','merge']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id),
top5 AS (SELECT doc_id, raw FROM scored ORDER BY raw DESC, doc_id LIMIT 5)
SELECT t.doc_id AS doc_id, ROUND(t.raw, 4) AS score,
       array_to_string(list_slice(regexp_split_to_array(
           regexp_replace(d.text, '\\b(window|merge)\\b', '<em>\\0</em>', 'g'),
           ' '), 1, 12), ' ') AS highlight
FROM top5 t JOIN documents d USING (doc_id)
ORDER BY score DESC, doc_id""",
        # cross_fields degenerates to most_fields on this corpus (each term
        # exists in exactly one field); the term-in-both-fields case is pinned
        # by tests/test_fields_query_string.py
        "ft_multi_match_cross": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','src3']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
ts AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS s_text
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
       GROUP BY tf.doc_id),
sdf AS (SELECT count(*) AS df FROM documents WHERE source = 'src3'),
ss AS (SELECT d.doc_id AS doc_id,
              ln(1 + ((SELECT count(*) FROM documents) - sdf.df + 0.5)/(sdf.df + 0.5)) AS s_src
       FROM documents d CROSS JOIN sdf WHERE d.source = 'src3'),
u AS (SELECT COALESCE(ts.doc_id, ss.doc_id) AS doc_id,
             COALESCE(s_text, 0) AS a, COALESCE(s_src, 0) AS b
      FROM ts FULL OUTER JOIN ss ON ts.doc_id = ss.doc_id)
SELECT doc_id, ROUND(a + b, 4) AS score FROM u ORDER BY doc_id""",
        "ft_search_as_you_type": f"""
WITH {_PTOK}
SELECT DISTINCT a.doc_id AS doc_id
FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
WHERE (a.term || ' ' || b.term) LIKE 'data qu%'
ORDER BY doc_id""",
        "ft_span_masked": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM (
  SELECT doc_id FROM tok WHERE term = 'vector'
  UNION ALL
  SELECT doc_id FROM documents WHERE source = 'src3')
ORDER BY doc_id""",
        "ft_count": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT count(*) AS count FROM (
  SELECT doc_id FROM tok WHERE term = 'data'
  EXCEPT
  SELECT doc_id FROM tok WHERE term = 'vector')""",
        "agg_significant_mi": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM documents WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term),
x AS (
  SELECT term, fg_df, bg_df,
         CAST(fg_df AS DOUBLE) AS a,
         CAST(fg_n.n - fg_df AS DOUBLE) AS b,
         CAST(bg_df - fg_df AS DOUBLE) AS c,
         CAST((bg_n.n - fg_n.n) - (bg_df - fg_df) AS DOUBLE) AS d,
         CAST(fg_n.n AS DOUBLE) AS fgn,
         CAST(bg_n.n AS DOUBLE) AS n
  FROM counts CROSS JOIN fg_n CROSS JOIN bg_n),
m AS (
  SELECT term, fg_df, bg_df, a, b, c, d, fgn, n,
         a + c AS tn, b + d AS ntn
  FROM x)
SELECT term, fg_df, bg_df,
       ROUND((CASE WHEN a/GREATEST(tn,1) > b/GREATEST(ntn,1) THEN 1.0 ELSE -1.0 END) * (
         (CASE WHEN a > 0 THEN (a/n) * (ln((a/n)/((fgn/n)*(tn/n)))/ln(2)) ELSE 0 END)
       + (CASE WHEN b > 0 AND ntn > 0 THEN (b/n) * (ln((b/n)/((fgn/n)*(ntn/n)))/ln(2)) ELSE 0 END)
       + (CASE WHEN c > 0 THEN (c/n) * (ln((c/n)/(((n-fgn)/n)*(tn/n)))/ln(2)) ELSE 0 END)
       + (CASE WHEN d > 0 AND ntn > 0 THEN (d/n) * (ln((d/n)/(((n-fgn)/n)*(ntn/n)))/ln(2)) ELSE 0 END)
       ), 6) AS mi
FROM m WHERE fg_df >= 5
ORDER BY mi DESC, term LIMIT 10""",
        "agg_significant_percentage": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND(CAST(fg_df AS DOUBLE) / CAST(bg_df AS DOUBLE), 6) AS pct
FROM counts WHERE fg_df >= 5
ORDER BY pct DESC, term LIMIT 10""",
        "agg_significant_chi2": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM documents WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term),
x AS (
  SELECT term, fg_df, bg_df,
         CAST(fg_df AS DOUBLE) AS a,
         CAST(fg_n.n - fg_df AS DOUBLE) AS b,
         CAST(bg_df - fg_df AS DOUBLE) AS c,
         CAST((bg_n.n - fg_n.n) - (bg_df - fg_df) AS DOUBLE) AS d,
         bg_n.n AS n
  FROM counts CROSS JOIN fg_n CROSS JOIN bg_n)
SELECT term, fg_df, bg_df,
       ROUND(CASE WHEN (a+b)*(c+d)*(a+c)*(b+d) > 0
             THEN n * (a*d - b*c) * (a*d - b*c) / ((a+b)*(c+d)*(a+c)*(b+d))
             ELSE 0 END, 6) AS chi2
FROM x WHERE fg_df >= 5
ORDER BY chi2 DESC, term LIMIT 10""",
        "agg_composite_date_histogram": """
WITH b AS (
  SELECT date_trunc('day', ts) AS day, event_type, count(*) AS doc_count
  FROM events GROUP BY 1, 2),
o AS (SELECT day, event_type, doc_count,
             row_number() OVER (ORDER BY day, event_type) AS rn FROM b)
SELECT day, event_type, doc_count FROM o
WHERE rn > 10 ORDER BY day, event_type LIMIT 10""",
        "agg_significant_script": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM documents WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND(CAST(fg_df AS DOUBLE) / fg_n.n
             - CAST(bg_df AS DOUBLE) / bg_n.n, 6) AS score
FROM counts CROSS JOIN fg_n CROSS JOIN bg_n
WHERE fg_df >= 5
ORDER BY score DESC, term LIMIT 10""",
        "agg_significant_gnd": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
fg_n AS (SELECT count(*) AS n FROM documents WHERE lang = 'zh'),
bg_n AS (SELECT count(*) AS n FROM documents),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE d.lang = 'zh') AS fg_df,
         count(*) AS bg_df
  FROM tok JOIN documents d USING (doc_id) GROUP BY term),
x AS (
  SELECT term, fg_df, bg_df,
         CAST(bg_df AS DOUBLE) AS fx,
         CAST(fg_n.n AS DOUBLE) AS fy,
         CAST(fg_df AS DOUBLE) AS fxy,
         CAST(bg_n.n AS DOUBLE) AS n
  FROM counts CROSS JOIN fg_n CROSS JOIN bg_n)
SELECT term, fg_df, bg_df,
       ROUND(CASE WHEN fxy = 0 THEN 0
                  WHEN fx = fy AND fx = fxy THEN 1
                  ELSE exp(-( (GREATEST(ln(fx), ln(fy)) - ln(fxy))
                            / (ln(n) - LEAST(ln(fx), ln(fy))) ))
             END, 6) AS gnd
FROM x WHERE fg_df >= 5
ORDER BY gnd DESC, term LIMIT 10""",
        "geo_shape_envelope": f"""
WITH {_GEO}
SELECT user_id, lat, lon FROM g
WHERE lat - 2 <= 10 AND lat + 2 >= -10 AND lon - 2 <= 20 AND lon + 2 >= -20
ORDER BY user_id""",
        "index_sorted_pruning": """
SELECT count(*) AS doc_count, ROUND(MIN(o_totalprice), 2) AS min_v
FROM orders WHERE o_totalprice > 430000.0""",
        "agg_diversified_sampler": """
WITH ranked AS (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS lang_rank
  FROM documents)
SELECT doc_id, lang, n_chars, lang_rank FROM ranked
WHERE lang_rank <= 3
ORDER BY n_chars DESC, doc_id LIMIT 30""",
        # expected dynamic mapping of the documents table: ints -> long,
        # low-cardinality strings -> keyword, high-cardinality -> text
        "mapping_infer": """
SELECT * FROM (VALUES
  ('doc_id', 'long'), ('lang', 'keyword'), ('n_chars', 'long'),
  ('source', 'keyword'), ('text', 'text')) AS t(field, es_type)
ORDER BY field""",
        "range_field_intersects": """
SELECT event_id, ROUND(value, 2) AS r_lo, ROUND(value + 10.0, 2) AS r_hi
FROM events WHERE value <= 110.0 AND value + 10.0 >= 100.0
ORDER BY event_id""",
        # ewma/holt mirror the engine's recursion EXACTLY (same float literals;
        # 1-0.3 == 0.7 and 1-0.1 == 0.9 as doubles) via recursive CTEs
        "agg_moving_avg_ewma": """
WITH RECURSIVE h AS (
  SELECT row_number() OVER (ORDER BY bucket) AS i, bucket, doc_count
  FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
        FROM events GROUP BY 1)),
r AS (
  SELECT i, bucket, doc_count, CAST(doc_count AS DOUBLE) AS ewma
  FROM h WHERE i = 1
  UNION ALL
  SELECT h.i, h.bucket, h.doc_count, 0.3 * h.doc_count + 0.7 * r.ewma
  FROM h JOIN r ON h.i = r.i + 1)
SELECT bucket, doc_count, ROUND(ewma, 4) AS ewma FROM r ORDER BY bucket""",
        "agg_moving_avg_holt": """
WITH RECURSIVE h AS (
  SELECT row_number() OVER (ORDER BY bucket) AS i, bucket, doc_count
  FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
        FROM events GROUP BY 1)),
r AS (
  SELECT i, bucket, doc_count, CAST(doc_count AS DOUBLE) AS level,
         CAST(0 AS DOUBLE) AS trend, CAST(doc_count AS DOUBLE) AS holt
  FROM h WHERE i = 1
  UNION ALL
  SELECT h.i, h.bucket, h.doc_count,
         0.3 * h.doc_count + 0.7 * (r.level + r.trend),
         0.1 * ((0.3 * h.doc_count + 0.7 * (r.level + r.trend)) - r.level)
           + 0.9 * r.trend,
         0.3 * h.doc_count + 0.7 * (r.level + r.trend)
  FROM h JOIN r ON h.i = r.i + 1)
SELECT bucket, doc_count, ROUND(holt, 4) AS holt FROM r ORDER BY bucket""",
        "ft_script_query": """
SELECT doc_id FROM documents WHERE n_chars > 300 AND n_chars < 400
ORDER BY doc_id""",
        "ft_span_multi": f"""
WITH {_PTOK}
SELECT DISTINCT doc_id FROM ptok WHERE term LIKE 'wind%' AND pos <= 7
ORDER BY doc_id""",
        "geo_polygon": f"""
WITH {_GEO}
SELECT user_id, lat, lon FROM g
WHERE (60.0 - -60.0) * (lat - -40.0) - (-30.0 - -40.0) * (lon - -60.0) >= 0
  AND (0.0 - 60.0) * (lat - -30.0) - (70.0 - -30.0) * (lon - 60.0) >= 0
  AND (-60.0 - 0.0) * (lat - 70.0) - (-40.0 - 70.0) * (lon - 0.0) >= 0
ORDER BY user_id""",
        "ingest_grok_kv": """
SELECT event_id, event_type AS kv_type,
       CAST(user_id AS VARCHAR) AS kv_user,
       CAST(user_id AS VARCHAR) AS uid_str
FROM events ORDER BY event_id""",
        "ip_cidr_filter": """
WITH u AS (SELECT DISTINCT user_id FROM events),
ip AS (SELECT user_id, (user_id * 2654435761) % 4294967296 AS v FROM u)
SELECT user_id,
       CAST(v // 16777216 AS BIGINT) || '.' || CAST((v // 65536) % 256 AS BIGINT)
       || '.' || CAST((v // 256) % 256 AS BIGINT) || '.' || CAST(v % 256 AS BIGINT) AS ip
FROM ip WHERE v < 536870912 ORDER BY user_id""",
        "ft_analyze_mapping": r"""
WITH arr AS (SELECT list_filter(regexp_split_to_array(lower(
  replace(replace(replace('C++ and C# beat COBOL :-)', 'C++', 'cplusplus'),
          'C#', 'csharp'), ':-)', 'smiley')), '[^a-z0-9]+'), x -> x <> '') AS a)
SELECT CAST(generate_subscripts(a, 1) - 1 AS BIGINT) AS position,
       unnest(a) AS token
FROM arr ORDER BY position""",
        "ft_common_terms": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'dup' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
tfh AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'a' GROUP BY doc_id),
dfh AS (SELECT count(*) AS df FROM tfh),
low AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS s
        FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
high AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS s
         FROM tfh tf CROSS JOIN dfh df CROSS JOIN st
         JOIN dl ON dl.doc_id = tf.doc_id)
SELECT low.doc_id AS doc_id,
       ROUND(low.s + COALESCE(high.s, 0), 4) AS score
FROM low LEFT JOIN high ON high.doc_id = low.doc_id
ORDER BY doc_id""",
        "ft_matched_queries": """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
m AS (SELECT doc_id, 'has_window' AS name FROM tok WHERE term = 'window'
      UNION ALL
      SELECT doc_id, 'has_merge' FROM tok WHERE term = 'merge')
SELECT doc_id, string_agg(name, ',' ORDER BY name) AS matched
FROM m GROUP BY doc_id ORDER BY doc_id""",
        "inner_hits": """
SELECT o_custkey, hit_rank, o_orderkey, o_totalprice FROM (
  SELECT o_custkey, o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS hit_rank
  FROM orders
  WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000))
WHERE hit_rank <= 2 ORDER BY o_custkey, hit_rank""",
        "ft_intervals_prefix": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> '')
SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'wind%' ORDER BY doc_id""",
        "ft_analyze_edge_ngram": r"""
WITH toks AS (
  SELECT unnest(list_filter(regexp_split_to_array(
    lower('Data Query window2 merge'), '[^a-z0-9]+'), x -> x <> '')) AS t),
e AS (SELECT substr(t, 1, n) AS token
      FROM toks, generate_series(2, 4) g(n) WHERE n <= length(t))
SELECT token, count(*) AS cnt FROM e GROUP BY token ORDER BY token""",
        "ft_analyze_shingle": f"""
WITH {_PTOK}
SELECT a.term || ' ' || b.term AS shingle, count(*) AS cnt
FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
GROUP BY 1 ORDER BY cnt DESC, shingle LIMIT 10""",
        "ft_analyze_synonym": """
WITH tok AS (
  SELECT t AS term FROM (
    SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
mapped AS (SELECT CASE WHEN term = 'spark' THEN 'engine'
                       WHEN term = 'big' THEN 'large' ELSE term END AS token
           FROM tok)
SELECT token, count(*) AS cnt FROM mapped WHERE token IN ('engine', 'large')
GROUP BY token ORDER BY token""",
        "ft_analyze_ascii": r"""
WITH arr AS (SELECT list_filter(regexp_split_to_array(
  lower(strip_accents('Café Müller naïve façade Crème brûlée')),
  '[^a-z0-9]+'), x -> x <> '') AS a)
SELECT CAST(generate_subscripts(a, 1) - 1 AS BIGINT) AS position,
       unnest(a) AS token
FROM arr ORDER BY position""",
        "phrase_suggest": f"""
WITH {_PTOK},
uni AS (SELECT term, count(*) AS cnt FROM ptok GROUP BY term),
big AS (SELECT a.term AS t1, b.term AS t2, count(*) AS cnt
        FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2),
v AS (SELECT count(*) AS v FROM uni),
tt AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS t FROM uni),
c0 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'data') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c1 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'sow') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c2 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'qery') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
seq AS (
  SELECT c0.term AS w0, c1.term AS w1, c2.term AS w2,
         ln((c0.cnt + 1.0) / (tt.t + v.v))
         + ln((COALESCE(b01.cnt, 0) + 1.0) / (c0.cnt + v.v))
         + ln((COALESCE(b12.cnt, 0) + 1.0) / (c1.cnt + v.v)) AS score
  FROM c0 CROSS JOIN c1 CROSS JOIN c2 CROSS JOIN v CROSS JOIN tt
  LEFT JOIN big b01 ON b01.t1 = c0.term AND b01.t2 = c1.term
  LEFT JOIN big b12 ON b12.t1 = c1.term AND b12.t2 = c2.term)
SELECT w0 || ' ' || w1 || ' ' || w2 AS phrase, ROUND(score, 4) AS score
FROM seq ORDER BY score DESC, phrase LIMIT 3""",
        "phrase_suggest_collate": f"""
WITH {_PTOK},
uni AS (SELECT term, count(*) AS cnt FROM ptok GROUP BY term),
big AS (SELECT a.term AS t1, b.term AS t2, count(*) AS cnt
        FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2),
tri AS (SELECT DISTINCT a.term AS t1, b.term AS t2, c.term AS t3
        FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        JOIN ptok c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2),
v AS (SELECT count(*) AS v FROM uni),
tt AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS t FROM uni),
c0 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'data') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c1 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'sow') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c2 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'qery') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
seq AS (
  SELECT c0.term AS w0, c1.term AS w1, c2.term AS w2,
         ln((c0.cnt + 1.0) / (tt.t + v.v))
         + ln((COALESCE(b01.cnt, 0) + 1.0) / (c0.cnt + v.v))
         + ln((COALESCE(b12.cnt, 0) + 1.0) / (c1.cnt + v.v)) AS score
  FROM c0 CROSS JOIN c1 CROSS JOIN c2 CROSS JOIN v CROSS JOIN tt
  LEFT JOIN big b01 ON b01.t1 = c0.term AND b01.t2 = c1.term
  LEFT JOIN big b12 ON b12.t1 = c1.term AND b12.t2 = c2.term)
SELECT w0 || ' ' || w1 || ' ' || w2 AS phrase, ROUND(score, 4) AS score,
       EXISTS (SELECT 1 FROM tri
               WHERE tri.t1 = w0 AND tri.t2 = w1 AND tri.t3 = w2)
         AS collate_match
FROM seq ORDER BY score DESC, phrase LIMIT 3""",
        "ft_wrapper": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "parent_id": """
SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey = 7
ORDER BY o_orderkey""",
        "ft_scroll": """
SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice FROM orders
ORDER BY orders.o_totalprice DESC, o_orderkey LIMIT 45""",
        "ft_mget": """
WITH ids AS (SELECT unnest([7, 42, 123, 314, 999999999]) AS doc_id)
SELECT ids.doc_id AS doc_id, d.doc_id IS NOT NULL AS found,
       COALESCE(d.lang, '') AS lang,
       COALESCE(d.n_chars, -1) AS n_chars
FROM ids LEFT JOIN documents d ON d.doc_id = ids.doc_id
ORDER BY ids.doc_id""",
        # manifest-recorded doc/token totals must equal a from-scratch
        # recount of the raw table (build lineage exactness)
        "cat_indices": f"""
WITH {_TOK}
SELECT st.n AS docs, st.sumdl AS tokens,
       ROUND(CAST(st.sumdl AS DOUBLE) / st.n, 4) AS avgdl FROM st""",
        # fuzzy options: prefix_length restricts candidates, max_expansions
        # caps by (distance, term)
        "ft_fuzzy_options": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT DISTINCT term FROM tok),
cand AS (SELECT term, levenshtein(term, 'sow') AS d FROM tc
         WHERE levenshtein(term, 'sow') <= 2),
base_t AS (SELECT term FROM cand),
pref_t AS (SELECT term FROM cand WHERE term LIKE 's%'),
cap_t AS (SELECT term FROM (
  SELECT term, row_number() OVER (ORDER BY d, term) AS rn
  FROM cand WHERE term LIKE 's%') WHERE rn <= 1)
SELECT * FROM (
  SELECT 'base' AS variant, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM base_t))
  UNION ALL
  SELECT 'capped', doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM cap_t))
  UNION ALL
  SELECT 'prefix', doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM pref_t))
) ORDER BY variant, doc_id""",
        # highlighter options: custom tags + word-chunk fragmenter in SQL
        "ft_highlight_options": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'merge' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
top3 AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
  FROM tf CROSS JOIN df JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  ORDER BY raw DESC, doc_id LIMIT 3),
w AS (SELECT t.doc_id, t.raw,
             regexp_replace(d.text, '\\bmerge\\b', '<b>merge</b>', 'g') AS wr,
             len(regexp_extract_all(d.text, '\\bmerge\\b')) AS n_matches
      FROM top3 t JOIN documents d ON d.doc_id = t.doc_id),
ws AS (SELECT doc_id, raw, n_matches, string_split(wr, ' ') AS words FROM w),
ch AS (SELECT doc_id, raw, n_matches, i,
              array_to_string(words[i*8+1 : i*8+8], ' ') AS chunk
       FROM ws, LATERAL unnest(
         generate_series(0, CAST(ceil(len(words)/8.0) AS INT) - 1)) AS t(i)),
hit AS (SELECT doc_id, raw, n_matches, i, chunk,
               row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
        FROM ch WHERE chunk LIKE '%<b>%')
SELECT doc_id, CAST(n_matches AS BIGINT) AS n_matches,
       string_agg(chunk, ' ... ' ORDER BY rn) AS highlight
FROM hit WHERE rn <= 2
GROUP BY doc_id, raw, n_matches
ORDER BY raw DESC, doc_id""",
        # term suggester suggest_mode battery (missing in-vocab contributes
        # no rows; missing OOV falls through; popular filters by df)
        "ft_suggest_modes": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
tc AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term),
mq AS (SELECT term, CAST(levenshtein(term, 'quer') AS INTEGER) AS distance, df
       FROM tc WHERE levenshtein(term, 'quer') BETWEEN 1 AND 2
       ORDER BY distance, df DESC, term LIMIT 5),
pp AS (SELECT term, CAST(levenshtein(term, 'part') AS INTEGER) AS distance, df
       FROM tc WHERE levenshtein(term, 'part') BETWEEN 1 AND 2
         AND df > (SELECT df FROM tc WHERE term = 'part')
       ORDER BY distance, df DESC, term LIMIT 5)
SELECT * FROM (
  SELECT 'missing:quer' AS mode, * FROM mq
  UNION ALL
  SELECT 'popular:part' AS mode, * FROM pp
) ORDER BY mode, distance, term""",
        "ft_stored_script": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND(({_SCORE}) * sqrt(d.n_chars), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        # parent-join aggregations (modules/parent-join)
        "agg_children": """
SELECT c.c_mktsegment AS segment, COUNT(*) AS doc_count,
       ROUND(SUM(o.o_totalprice), 2) AS total
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1 ORDER BY 1""",
        "agg_parent": """
SELECT o_orderpriority, COUNT(DISTINCT o_custkey) AS parent_count
FROM orders GROUP BY 1 ORDER BY 1""",
        "agg_sibling_buckets": """
WITH b AS (
  SELECT date_trunc('day', ts) AS d, SUM("value") AS sv
  FROM events GROUP BY 1)
SELECT ROUND(AVG(sv), 4) AS avg_bucket,
       ROUND(MIN(sv), 4) AS min_bucket,
       (SELECT strftime(d, '%Y-%m-%d') FROM b ORDER BY sv ASC, d ASC LIMIT 1)
         AS min_key,
       ROUND(MAX(sv), 4) AS max_bucket,
       (SELECT strftime(d, '%Y-%m-%d') FROM b ORDER BY sv DESC, d ASC LIMIT 1)
         AS max_key,
       ROUND(SUM(sv), 4) AS sum_bucket
FROM b""",
        # _validate/query: the battery's validity is structural (parse-level),
        # so the oracle pins the expected verdict per query id
        "ft_validate_query": """
SELECT * FROM (VALUES
  ('bool_tree_ok', true), ('fuzzy_bad_fuzziness', false),
  ('missing_param', false), ('qs_dangling_and', false),
  ('qs_ok', true), ('qs_unbalanced_paren', false),
  ('qs_unterminated_quote', false), ('term_ok', true),
  ('unknown_kind', false), ('wildcard_ok', true)
) AS v(query_id, valid) ORDER BY query_id""",
        # sliced scroll: slice = knuth32(o_orderkey) % 3; each slice's first
        # 2 pages x 15 = top 30 of ITS OWN ordering (SliceBuilder.java)
        "ft_scroll_sliced": """
WITH s AS (
  SELECT ((o_orderkey * 2654435761) % 4294967296) % 3 AS slice_id,
         o_orderkey, o_totalprice,
         row_number() OVER (
           PARTITION BY ((o_orderkey * 2654435761) % 4294967296) % 3
           ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders)
SELECT slice_id, o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice
FROM s WHERE rn <= 30 ORDER BY slice_id, rn""",
        # point-in-time: the pit view scores with the base corpus's own
        # stats (first 60% of docs); the live view sees base+delta (80%)
        "ft_pit": f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
lv AS (SELECT d.doc_id, d.text FROM documents d, nn
       WHERE d.doc_id < (nn.n * 4) / 5),
bs AS (SELECT d.doc_id, d.text FROM documents d, nn
       WHERE d.doc_id < (nn.n * 3) / 5),
ltok AS (SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM lv) u WHERE t <> ''),
btok AS (SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM bs) u WHERE t <> ''),
lhits AS (
  SELECT 'live' AS view, tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
  FROM (SELECT doc_id, count(*) AS tf FROM ltok WHERE term = 'data'
        GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(*) AS df FROM
              (SELECT DISTINCT doc_id FROM ltok WHERE term = 'data')) df
  CROSS JOIN (SELECT (SELECT count(*) FROM lv) AS n,
                     (SELECT count(*) FROM ltok) AS sumdl) st
  JOIN (SELECT doc_id, count(*) AS dl FROM ltok GROUP BY doc_id) dl
    ON dl.doc_id = tf.doc_id),
phits AS (
  SELECT 'pit' AS view, tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
  FROM (SELECT doc_id, count(*) AS tf FROM btok WHERE term = 'data'
        GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(*) AS df FROM
              (SELECT DISTINCT doc_id FROM btok WHERE term = 'data')) df
  CROSS JOIN (SELECT (SELECT count(*) FROM bs) AS n,
                     (SELECT count(*) FROM btok) AS sumdl) st
  JOIN (SELECT doc_id, count(*) AS dl FROM btok GROUP BY doc_id) dl
    ON dl.doc_id = tf.doc_id)
SELECT * FROM (SELECT * FROM lhits UNION ALL SELECT * FROM phits)
ORDER BY view, doc_id""",
        "agg_geo_bounds": f"""
WITH {_GEO}
SELECT ROUND(MIN(lat), 4) AS min_lat, ROUND(MAX(lat), 4) AS max_lat,
       ROUND(MIN(lon), 4) AS min_lon, ROUND(MAX(lon), 4) AS max_lon
FROM g""",
        "agg_geo_centroid": f"""
WITH {_GEO}
SELECT ROUND(AVG(lat), 4) AS lat, ROUND(AVG(lon), 4) AS lon FROM g""",
        "agg_geotile_grid": f"""
WITH {_GEO},
t AS (SELECT
        CAST(floor((lon + 180.0) / 360.0 * 8) AS BIGINT) AS x,
        CAST(floor((1.0 - ln(tan(radians(lat)) + sqrt(tan(radians(lat))
             * tan(radians(lat)) + 1.0)) / pi()) / 2.0 * 8) AS BIGINT) AS y
      FROM g),
c AS (SELECT '3/' || LEAST(GREATEST(x, 0), 7) || '/' || LEAST(GREATEST(y, 0), 7)
        AS cell, count(*) AS doc_count FROM t GROUP BY 1)
SELECT cell, doc_count FROM c ORDER BY doc_count DESC, cell""",
        "agg_geo_distance": f"""
WITH {_GEO},
d AS (SELECT 2 * 6371.0 * asin(sqrt(pow(sin(radians(lat)/2), 2)
           + cos(radians(lat)) * cos(0.0) * pow(sin(radians(lon)/2), 2))) AS dist
      FROM g)
SELECT CASE WHEN dist < 3000 THEN 'ring_0_3000'
            WHEN dist < 8000 THEN 'ring_3000_8000'
            ELSE 'ring_8000_plus' END AS ring, count(*) AS doc_count
FROM d GROUP BY 1 ORDER BY ring""",
        "agg_ip_range": """
WITH u AS (SELECT DISTINCT user_id FROM events),
ip AS (SELECT (user_id * 2654435761) % 4294967296 AS v FROM u)
SELECT CASE WHEN v < 1073741824 THEN 'a_0.0.0.0-64.0.0.0'
            WHEN v < 2147483648 THEN 'b_64.0.0.0-128.0.0.0'
            ELSE 'c_128.0.0.0-' END AS range_key, count(*) AS doc_count
FROM ip GROUP BY 1 ORDER BY range_key""",
        "agg_nested": """
SELECT o_orderpriority, count(*) AS doc_count,
       ROUND(SUM(o_totalprice), 2) AS sum_price
FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)
GROUP BY 1 ORDER BY 1""",
        "agg_reverse_nested": """
SELECT c_mktsegment, count(*) AS parent_count FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 180000)
GROUP BY 1 ORDER BY 1""",
    })
    # --- small-surface search APIs (round 3c) ---
    out.update({
        "ft_terms_enum": f"""
WITH {_TOK}
SELECT term, count(DISTINCT doc_id) AS doc_count
FROM tok WHERE term LIKE 's%'
GROUP BY term ORDER BY term LIMIT 10""",
        "ft_min_score": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query','window']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score FROM scored
WHERE raw >= 0.75 ORDER BY doc_id""",
        "ft_indices_boost": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND({_SCORE} * CASE d.source WHEN 'src1' THEN 2.0
                             WHEN 'src2' THEN 1.3 ELSE 1.0 END, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "ft_source_filtering": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'query' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT s.doc_id AS doc_id, d.lang, d.source, d.n_chars, ROUND(s.raw, 4) AS score
FROM scored s JOIN documents d ON d.doc_id = s.doc_id
ORDER BY s.raw DESC, s.doc_id LIMIT 5""",
        "ft_script_fields": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
scored AS (
  SELECT tf.doc_id AS doc_id, dl.dl AS dl, {_SCORE} AS raw
  FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT s.doc_id AS doc_id,
       ROUND(CAST(d.n_chars AS DOUBLE) / s.dl, 4) AS chars_per_token,
       ROUND(s.raw, 4) AS score
FROM scored s JOIN documents d ON d.doc_id = s.doc_id
ORDER BY s.raw DESC, s.doc_id LIMIT 5""",
        "ft_search_template": f"""
WITH {_TOK},
q AS (SELECT unnest(['data','query']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score FROM scored
ORDER BY raw DESC, doc_id LIMIT 5""",
        "ft_mtermvectors": f"""
WITH {_TOK}
SELECT doc_id, term, count(*) AS tf FROM tok WHERE doc_id IN (7, 42)
GROUP BY doc_id, term ORDER BY doc_id, term""",
        "ft_alias_filter": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
WHERE d.source = 'src1' ORDER BY doc_id""",
        "ft_post_filter": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
tot AS (SELECT count(*) AS n FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score,
       CAST(tot.n AS BIGINT) AS total_prefilter
FROM tf CROSS JOIN df CROSS JOIN st CROSS JOIN tot
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
WHERE d.source = 'src1' ORDER BY doc_id""",
        "ft_terminate_after": f"""
WITH {_TOK},
m AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
c AS (SELECT count(*) AS n FROM m)
SELECT doc_id, (SELECT n > 50 FROM c) AS terminated_early
FROM m ORDER BY doc_id LIMIT 50""",
        "ft_track_total_hits": f"""
WITH {_TOK},
cd AS (SELECT count(DISTINCT doc_id) AS n FROM tok WHERE term = 'data'),
cu AS (SELECT count(DISTINCT doc_id) AS n FROM tok WHERE term = 'dup')
SELECT * FROM (
  SELECT 'data' AS query, CAST(LEAST(n, 100) AS BIGINT) AS total,
         CASE WHEN n > 100 THEN 'gte' ELSE 'eq' END AS relation FROM cd
  UNION ALL
  SELECT 'dup', CAST(LEAST(n, 100) AS BIGINT),
         CASE WHEN n > 100 THEN 'gte' ELSE 'eq' END FROM cu)""",
        "ft_fetch_metadata": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'query' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
sc AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
       FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score, 1::BIGINT AS "_version",
       doc_id AS "_seq_no", 1::BIGINT AS "_primary_term"
FROM sc ORDER BY raw DESC, doc_id LIMIT 5""",
        "ft_docvalue_fields": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'query' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
sc AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
       FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT sc.doc_id AS doc_id, ROUND(sc.raw, 4) AS score, d.source, d.n_chars
FROM sc JOIN documents d ON d.doc_id = sc.doc_id
ORDER BY sc.raw DESC, sc.doc_id LIMIT 5""",
        "ft_function_score_gauss": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
base AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
         FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
dec AS (SELECT b.doc_id, b.raw,
               GREATEST(0.0, abs(d.n_chars - 800.0) - 50.0) AS dist
        FROM base b JOIN documents d ON d.doc_id = b.doc_id)
SELECT doc_id,
       ROUND(raw * exp(-(dist * dist) / (2.0 * (-(300.0 * 300.0) / (2.0 * ln(0.5))))), 4) AS score
FROM dec ORDER BY doc_id""",
        "ft_function_score_functions": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
base AS (SELECT tf.doc_id AS doc_id, {_SCORE} AS raw
         FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id),
rnd AS (SELECT doc_id, raw,
               -- the engine's documented random_score mix: 32-bit
               -- knuth-mul + seed, xorshift 16, mul, xorshift 13
               CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 42) % 4294967296 AS BIGINT) AS h1
        FROM base),
r2 AS (SELECT doc_id, raw, xor(h1, h1 // 65536) AS h2 FROM rnd),
r3 AS (SELECT doc_id, raw,
       CAST((CAST(h2 AS HUGEINT) * 2246822519) % 4294967296 AS BIGINT) AS h3 FROM r2),
r4 AS (SELECT doc_id, raw, xor(h3, h3 // 8192) AS h4 FROM r3),
dec AS (SELECT r4.doc_id, r4.raw, r4.h4 / 4294967296.0 AS rand,
               GREATEST(0.0, (1000.0 - GREATEST(0.0, abs(d.n_chars - 600.0))) / 1000.0) AS lin
        FROM r4 JOIN documents d ON d.doc_id = r4.doc_id)
SELECT doc_id, ROUND(raw * 1.5 * rand * lin, 4) AS score
FROM dec ORDER BY doc_id""",
        "ft_sort_geo_distance": """
WITH u AS (SELECT DISTINCT user_id FROM events),
g AS (SELECT user_id,
             radians(((user_id * 7919) % 180) - 90 + 0.5) AS lat,
             radians(((user_id * 104729) % 360) - 180 + 0.5) AS lon FROM u),
d AS (SELECT user_id,
             2 * 6371.0 * asin(sqrt(pow(sin(lat/2), 2)
                 + cos(lat) * cos(0.0) * pow(sin(lon/2), 2))) AS dist FROM g)
SELECT CAST(row_number() OVER (ORDER BY dist, user_id) AS BIGINT) AS rank,
       user_id, ROUND(dist, 2) AS distance_km
FROM d ORDER BY dist, user_id LIMIT 10""",
        "ft_sort_script": """
WITH k AS (SELECT doc_id, (n_chars * 31) % 97 AS key FROM documents)
SELECT CAST(row_number() OVER (ORDER BY key DESC, doc_id) AS BIGINT) AS rank,
       doc_id, CAST(key AS BIGINT) AS key
FROM k ORDER BY key DESC, doc_id LIMIT 20""",
        "ft_sort_missing_last": """
WITH k AS (SELECT doc_id, NULLIF(n_chars % 5, 0) AS key FROM documents)
SELECT CAST(row_number() OVER
           (ORDER BY key ASC NULLS LAST, doc_id) AS BIGINT) AS rank,
       doc_id
FROM k ORDER BY key ASC NULLS LAST, doc_id LIMIT 20""",
        "ft_profile": f"""
WITH {_TOK},
dd AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
ww AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'window')
SELECT * FROM (
  SELECT 'BooleanQuery' AS node, '+text:data +text:window' AS description,
         (SELECT count(*) FROM dd JOIN ww USING (doc_id)) AS doc_count
  UNION ALL
  SELECT 'TermQuery', 'text:data', (SELECT count(*) FROM dd)
  UNION ALL
  SELECT 'TermQuery', 'text:window', (SELECT count(*) FROM ww))
ORDER BY node, description""",
    })
    # light-stemmer language analyzers: the full chain (char filters,
    # Unicode tokenize, normalize, stop, published stemmer rules)
    # re-derived as DuckDB SQL (lang/sql_oracle.py) over each gate's
    # sample sentence. Snowball/Porter chains stay rows-only — those
    # algorithms are pinned by golden vectors instead.
    from elasticsearch_ray.lang.sql_oracle import (SQL_ORACLE_LANGS,
                                                   lang_oracle_sql)
    from elasticsearch_ray.pipelines.ops import _LANG_SAMPLES

    for _lang in SQL_ORACLE_LANGS:
        out[f"ft_analyze_{_lang}"] = lang_oracle_sql(_lang,
                                                     _LANG_SAMPLES[_lang])

    # Porter over the whole corpus: the `english` analyzer chain (simple
    # tokenize -> Lucene English stop set -> Porter 1980) re-derived in
    # SQL via the CV-mask pipeline; top-10 stems by count.
    from elasticsearch_ray.analyzer import ENGLISH_STOP_WORDS
    from elasticsearch_ray.lang.sql_oracle import porter_pipeline_ctes

    _pctes, _plast = porter_pipeline_ctes()
    _pjoin = ",\n".join(_pctes)
    _estop = "[" + ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOP_WORDS)) + "]"
    # _analyze explain=true (session 16): per-stage attribution over the
    # first 6 tokens; stemmer stage reuses the Porter CV-mask pipeline
    out["analyze_api_explain"] = f"""
WITH base AS (
  SELECT doc_id,
         list_slice(list_filter(regexp_split_to_array(lower(text),
             '[^a-z0-9]+'), x -> x <> ''), 1, 6) AS a
  FROM documents),
t AS (SELECT doc_id, unnest(a) AS w,
             generate_subscripts(a, 1) - 1 AS pos FROM base),
tok0 AS (SELECT doc_id * 1000 + pos + 1 AS position, w FROM t
         WHERE w NOT IN ('data', 'query')),
{_pjoin}
SELECT doc_id, stage, pos, token FROM (
  SELECT doc_id, 'tokenizer' AS stage, pos, w AS token FROM t
  UNION ALL
  SELECT doc_id, 'stop', pos, w FROM t WHERE w NOT IN ('data', 'query')
  UNION ALL
  SELECT CAST(position // 1000 AS BIGINT),
         'stemmer', CAST(position % 1000 - 1 AS BIGINT), w
  FROM {_plast})
ORDER BY doc_id, stage, pos"""
    out["ft_analyze_stemmer"] = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '' AND NOT list_contains({_estop}, x)) AS a
  FROM documents),
tok0 AS (
  SELECT doc_id * 1000 + generate_subscripts(a, 1) AS position,
         unnest(a) AS w
  FROM toks),
{_pjoin}
SELECT w AS stem, CAST(count(*) AS BIGINT) AS cnt
FROM {_plast} GROUP BY w
ORDER BY cnt DESC, stem LIMIT 10"""

    # keyword_repeat + stemmer + remove_duplicates: original AND stem at
    # each position; the position-keyed UNION is the per-position dedup
    out["ft_analyze_keyword_repeat"] = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '' AND NOT list_contains({_estop}, x)) AS a
  FROM documents),
tok0 AS (
  SELECT doc_id * 1000 + generate_subscripts(a, 1) AS position,
         unnest(a) AS w
  FROM toks),
{_pjoin},
pairs AS (
  SELECT position, w AS token FROM tok0
  UNION
  SELECT position, w AS token FROM {_plast})
SELECT token, CAST(count(*) AS BIGINT) AS cnt
FROM pairs GROUP BY token
ORDER BY cnt DESC, token LIMIT 10"""

    out["dedup_substring_cut"] = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS a
  FROM documents),
gpos AS (
  SELECT doc_id, a, unnest(generate_series(1, len(a) - 7)) AS pos
  FROM toks WHERE len(a) >= 8),
grams AS (
  SELECT doc_id, pos, array_to_string(a[pos:pos+7], ' ') AS gram
  FROM gpos),
dup AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
occ AS (SELECT doc_id, pos FROM grams JOIN dup USING (gram)),
cutpos AS (SELECT DISTINCT doc_id, cut FROM (
  SELECT doc_id, unnest(generate_series(pos, pos + 7)) AS cut FROM occ)),
tokn AS (SELECT doc_id, generate_subscripts(a, 1) AS pos, unnest(a) AS w
         FROM toks),
kept AS (SELECT t.doc_id, t.pos, t.w
         FROM tokn t LEFT JOIN cutpos c
              ON c.doc_id = t.doc_id AND c.cut = t.pos
         WHERE c.doc_id IS NULL),
aff AS (SELECT DISTINCT doc_id FROM occ)
SELECT a.doc_id,
       CAST(COALESCE(count(k.w), 0) AS BIGINT) AS kept_tokens,
       COALESCE(string_agg(k.w, ' ' ORDER BY k.pos), '') AS clean_text
FROM aff a LEFT JOIN kept k USING (doc_id)
GROUP BY a.doc_id ORDER BY a.doc_id"""

    out["ft_suggest_collate"] = f"""
WITH {_PTOK},
uni AS (SELECT term, count(*) AS cnt FROM ptok GROUP BY term),
big AS (SELECT a.term AS t1, b.term AS t2, count(*) AS cnt
        FROM ptok a JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2),
v AS (SELECT count(*) AS v FROM uni),
tt AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS t FROM uni),
c0 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'data') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c1 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'sow') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
c2 AS (SELECT term, cnt FROM uni WHERE levenshtein(term, 'qery') <= 1
       ORDER BY cnt DESC, term LIMIT 5),
seq AS (
  SELECT c0.term AS w0, c1.term AS w1, c2.term AS w2,
         ln((c0.cnt + 1.0) / (tt.t + v.v))
         + ln((COALESCE(b01.cnt, 0) + 1.0) / (c0.cnt + v.v))
         + ln((COALESCE(b12.cnt, 0) + 1.0) / (c1.cnt + v.v)) AS score
  FROM c0 CROSS JOIN c1 CROSS JOIN c2 CROSS JOIN v CROSS JOIN tt
  LEFT JOIN big b01 ON b01.t1 = c0.term AND b01.t2 = c1.term
  LEFT JOIN big b12 ON b12.t1 = c1.term AND b12.t2 = c2.term),
top AS (SELECT w0, w1, w2, w0 || ' ' || w1 || ' ' || w2 AS phrase,
               ROUND(score, 4) AS score
        FROM seq ORDER BY ROUND(score, 4) DESC, phrase LIMIT 10)
SELECT phrase, score,
       CAST(EXISTS (SELECT 1 FROM ptok a
              JOIN ptok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
              JOIN ptok c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2
              WHERE a.term = top.w0 AND b.term = top.w1
                AND c.term = top.w2) AS BIGINT) AS collate_match
FROM top ORDER BY score DESC, phrase"""

    out["agg_t_test_paired"] = """
WITH d AS (SELECT CAST(ROUND(value * 100) AS BIGINT)
                  - CAST(regexp_extract(props, '(-?\\d+)', 1) AS BIGINT)
                    * 100 AS d
           FROM events),
p AS (SELECT count(*)::DOUBLE AS n, sum(d)::DOUBLE AS s,
             sum(d * d)::DOUBLE AS ss
      FROM d),
m AS (SELECT n, s / n AS mean,
             (ss - n * (s / n) * (s / n)) / (n - 1.0) AS var
      FROM p)
SELECT CAST(n AS BIGINT) AS n,
       ROUND(mean / 100.0, 6) AS mean_diff,
       ROUND(mean / sqrt(var / n), 6) AS t_stat
FROM m"""

    out["k_anonymity_suppress"] = """
WITH cls AS (SELECT c_nationkey, c_mktsegment, count(*) AS n
             FROM customer GROUP BY 1, 2),
kk AS (SELECT CEIL(1.0 * SUM(n) / count(*)) AS k FROM cls)
SELECT c.c_custkey, CAST(cls.n AS BIGINT) AS class_size
FROM customer c JOIN cls USING (c_nationkey, c_mktsegment) CROSS JOIN kk
WHERE cls.n < kk.k ORDER BY c.c_custkey"""

    out["snapshot_clone"] = f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok
       WHERE term = 'stream' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score,
       CAST(1 AS BIGINT) AS reused_blobs
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id"""

    out["esql_enrich_range"] = """
WITH b(lo, hi, band) AS (VALUES
  (0.0, 25.0, 'low'), (25.0, 75.0, 'mid'),
  (75.0, 150.0, 'high'), (150.0, 1e18, 'extreme'))
SELECT band, count(*) AS events, ROUND(SUM(value), 6) AS sum_value
FROM events e JOIN b ON e.value >= b.lo AND e.value < b.hi
GROUP BY band ORDER BY band"""

    out["ingest_dissect_modifiers"] = """
SELECT o_orderkey,
       split_part(o_orderpriority, '-', 2) || '_'
         || split_part(o_orderpriority, '-', 1) AS p,
       replace(split_part(o_orderpriority, '-', 2), ' ', '_') AS word,
       CAST(o_orderkey AS VARCHAR) AS okey
FROM orders ORDER BY o_orderkey"""

    out["ft_regexp_interval"] = """
SELECT doc_id FROM documents
WHERE regexp_matches(source, '^src(12|11|10|5|6|7|8|9)$')
ORDER BY doc_id"""

    out["ft_case_insensitive"] = f"""
WITH {_TOK},
p0 AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
p1 AS (SELECT doc_id FROM documents WHERE source LIKE 'src1%')
SELECT CAST(0 AS BIGINT) AS phase, doc_id FROM p0
UNION ALL
SELECT 1, doc_id FROM p1
ORDER BY phase, doc_id"""

    out["ft_mlt_unlike"] = f"""
WITH {_TOK},
src AS (SELECT term, count(*) AS tf42 FROM tok WHERE doc_id = 42
        GROUP BY term),
unl AS (SELECT DISTINCT term FROM tok WHERE doc_id = 7),
q AS (SELECT term FROM src
      WHERE tf42 >= 2 AND term NOT IN (SELECT term FROM unl)
      ORDER BY tf42 DESC, term LIMIT 8),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (SELECT tf.doc_id AS doc_id, SUM({_SCORE}) AS raw
           FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
                CROSS JOIN st
           GROUP BY tf.doc_id)
SELECT doc_id, ROUND(raw, 4) AS score FROM scored
WHERE doc_id <> 42 ORDER BY doc_id"""

    out["knn_matryoshka_overlap"] = """
WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
f AS (SELECT q.qid, v.vec_id,
        row_number() OVER (PARTITION BY q.qid ORDER BY
          list_cosine_similarity(v.embedding::DOUBLE[],
                                 q.embedding::DOUBLE[]) DESC,
          v.vec_id) AS rn
      FROM q CROSS JOIN embeddings v),
t AS (SELECT q.qid, v.vec_id,
        row_number() OVER (PARTITION BY q.qid ORDER BY
          list_cosine_similarity(v.embedding[1:16]::DOUBLE[],
                                 q.embedding[1:16]::DOUBLE[]) DESC,
          v.vec_id) AS rn
      FROM q CROSS JOIN embeddings v)
SELECT f.qid AS query_id, CAST(count(*) AS BIGINT) AS overlap,
       CAST(16 AS BIGINT) AS trunc_dim
FROM f JOIN t ON f.qid = t.qid AND f.vec_id = t.vec_id
WHERE f.rn <= 5 AND t.rn <= 5
GROUP BY f.qid ORDER BY f.qid"""

    out["agg_derivative_unit"] = """
SELECT bucket, doc_count,
       doc_count - COALESCE(lag(doc_count) OVER (ORDER BY bucket),
                            doc_count) AS deriv,
       ROUND((doc_count - COALESCE(lag(doc_count) OVER (ORDER BY bucket),
                                   doc_count)) / 24.0, 6) AS per_hour
FROM (SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count
      FROM events GROUP BY 1) ORDER BY bucket"""

    out["synthetic_source"] = """
SELECT o_orderkey,
       '{"o_custkey":' || o_custkey
       || ',"o_orderkey":' || o_orderkey
       || ',"o_orderstatus":"' || o_orderstatus
       || '","o_totalprice":' || printf('%.2f', o_totalprice)
       || '}' AS synthetic
FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 5"""

    # stemmed index search: the german analyzer SQL pipeline runs over
    # BOTH the synthetic body sentences and the inflected query words;
    # a query matches the docs of every doc_id%4 bucket whose stemmed
    # body shares a stem with the stemmed query (the match-query doc
    # set the built index returns).
    from elasticsearch_ray.lang.sql_oracle import stem_pipeline
    from elasticsearch_ray.lang.stopwords import STOP_SETS

    _gctes, _glast = stem_pipeline("german")
    _gjoin = ",\n".join(_gctes)
    _gstop = "[" + ", ".join(
        f"'{w}'" for w in sorted(STOP_SETS["german"])) + "]"
    out["lang_stemmed_index_search"] = f"""
WITH sent(sid, t) AS (VALUES
  (0, 'ein Satz: Kinder spielten'), (1, 'ein Satz: Häuser standen'),
  (2, 'ein Satz: Bücher lagen'), (3, 'ein Satz: Garten blühte'),
  (10, 'Häusern'), (11, 'spielte'), (12, 'Gartens'), (13, 'Buch')),
wl AS (
  SELECT sid,
         list_filter(regexp_extract_all(lower(t), '[\\pL\\pM\\pN]+'),
                     x -> NOT list_contains({_gstop}, x)) AS a
  FROM sent),
tokm AS (
  SELECT sid, unnest(a) AS w0,
         sid * 100 + generate_subscripts(a, 1) AS position
  FROM wl),
tok0 AS (SELECT position, w0 AS w FROM tokm),
{_gjoin},
stems AS (SELECT tokm.sid, {_glast}.w AS stem
          FROM {_glast} JOIN tokm USING (position)),
hit AS (SELECT DISTINCT q.sid AS qsid, b.sid AS bsid
        FROM stems q JOIN stems b ON q.stem = b.stem
        WHERE q.sid >= 10 AND b.sid < 10),
bc AS (SELECT CAST(doc_id % 4 AS INTEGER) AS b, count(*) AS n
       FROM documents GROUP BY 1),
agg AS (SELECT qsid, SUM(n) AS matches
        FROM hit JOIN bc ON bc.b = hit.bsid GROUP BY qsid)
SELECT s.t AS query, CAST(COALESCE(agg.matches, 0) AS BIGINT) AS matches
FROM sent s LEFT JOIN agg ON agg.qsid = s.sid
WHERE s.sid >= 10 ORDER BY s.sid"""
    # the Bloom-prefiltered path is flag-identical to the exact path by
    # construction (false positives die in verify): same oracle
    # --- round-3 session-15 oracles ---
    out.update({
        "ft_type_query": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok
       WHERE term = 'window' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT CAST(0 AS BIGINT) AS phase, tf.doc_id AS doc_id,
       ROUND({_SCORE}, 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id
ORDER BY doc_id""",
        "indices_clone": """
WITH h(source, hv) AS (VALUES
  ('src0', -1164416664), ('src1', 706699432), ('src2', 332406938),
  ('src3', 1484881694), ('src4', 1035695491), ('src5', 1886931161),
  ('src6', 800076671), ('src7', 400197407), ('src8', 1531411777),
  ('src9', -1466533903), ('src10', 909986450), ('src11', 640363681),
  ('src12', 984838713), ('src13', -862322557), ('src14', -924893696),
  ('src15', 1485394773), ('src16', -1198424005), ('src17', -122829918),
  ('src18', 1096668294), ('src19', -721911169)),
r AS (SELECT ((hv % 12) + 12) % 12 AS fm,
             CAST(('0x' || substr(sha256(d.text), 1, 8)) AS BIGINT) AS ck
      FROM documents d JOIN h USING (source))
SELECT fm // 2 AS shard,
       count(*) AS docs_source, CAST(SUM(ck) AS BIGINT) AS checksum_source,
       count(*) AS docs_clone, CAST(SUM(ck) AS BIGINT) AS checksum_clone
FROM r GROUP BY 1 ORDER BY shard""",
        "cluster_state": """
SELECT 'documents' AS "index", 'OPEN' AS state,
       CAST(CEIL(count(*) / 2500.0) AS BIGINT) AS shards,
       count(*) AS docs
FROM documents""",
        "indices_get_settings": """
SELECT * FROM (
  SELECT 'index.analysis.analyzer' AS setting, 'simple' AS value
  UNION ALL SELECT 'index.codec', 'delta_varbyte'
  UNION ALL SELECT 'index.number_of_replicas', '0'
  UNION ALL SELECT 'index.number_of_shards',
    CAST((SELECT CAST(CEIL(count(*) / 2500.0) AS BIGINT) FROM documents)
         AS VARCHAR)
  UNION ALL SELECT 'index.sort.field', 'doc_id')
ORDER BY setting""",
        "force_merge_api": f"""
WITH {_TOK},
q AS (SELECT unnest(['merge', 'vector']) AS term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
seg AS (SELECT CAST(CEIL(count(*) / 600.0) AS BIGINT) AS before
        FROM documents)
SELECT tf.doc_id AS doc_id, ROUND(SUM({_SCORE}), 4) AS score,
       seg.before AS segments_before, CAST(1 AS BIGINT) AS segments_after
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
     CROSS JOIN st CROSS JOIN seg
GROUP BY tf.doc_id, seg.before ORDER BY doc_id""",
        "eql_tail_pipe": """
SELECT event_id, ts, event_type, value FROM (
  SELECT event_id, ts, event_type, value FROM events
  WHERE event_type = 'view' AND value > 60
  ORDER BY ts DESC, event_id DESC LIMIT 5)
ORDER BY ts, event_id""",
        "eql_count_pipe": """
SELECT count(*) AS count FROM events
WHERE event_type = 'click' AND value <= 25""",
        "dsir_importance": """
WITH tokl AS (
  SELECT doc_id, lang, t AS term FROM (
    SELECT doc_id, lang,
           unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents) u
  WHERE t <> ''),
raws AS (SELECT term, count(*) AS c_raw,
                count(*) FILTER (WHERE lang = 'en') AS c_tgt
         FROM tokl GROUP BY term),
tot AS (SELECT CAST(SUM(c_raw) AS DOUBLE) AS n_raw,
               CAST(SUM(c_tgt) AS DOUBLE) AS n_tgt,
               CAST(count(*) AS DOUBLE) AS vs
        FROM raws),
lr AS (SELECT term,
              ROUND(ln((c_tgt + 1.0) / (tot.n_tgt + tot.vs)) -
                    ln((c_raw + 1.0) / (tot.n_raw + tot.vs)), 6) AS r
       FROM raws CROSS JOIN tot),
w AS (SELECT doc_id, SUM(r) AS wt FROM tokl JOIN lr USING (term)
      GROUP BY doc_id)
SELECT doc_id, ROUND(wt, 6) AS weight FROM w
ORDER BY wt DESC, doc_id LIMIT 15""",
        "dedup_keep_best": """
WITH n AS (
  SELECT doc_id, n_chars,
         array_to_string(list_filter(
           regexp_split_to_array(lower(text), '[^a-z0-9]+'),
           x -> x <> ''), ' ') AS k
  FROM documents)
SELECT doc_id, dups FROM (
  SELECT doc_id,
         CAST(count(*) OVER (PARTITION BY k) AS BIGINT) AS dups,
         row_number() OVER (PARTITION BY k
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM n) WHERE rn = 1 ORDER BY doc_id""",
        "search_type_qtf": """
WITH base AS (SELECT doc_id, doc_id // 600 AS shard, text FROM documents),
tok AS (SELECT doc_id, shard, t AS term FROM (
  SELECT doc_id, shard,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
  FROM base) u
  WHERE t <> ''),
dl AS (SELECT doc_id, shard, count(*) AS dl FROM tok GROUP BY 1, 2),
sh AS (SELECT shard, count(*) AS n FROM base GROUP BY 1),
shl AS (SELECT shard, count(*) AS sumdl FROM tok GROUP BY 1),
tf AS (SELECT doc_id, shard, count(*) AS tf FROM tok
       WHERE term = 'data' GROUP BY 1, 2),
dfl AS (SELECT shard, count(*) AS df FROM tf GROUP BY 1),
st AS (SELECT (SELECT count(*) FROM documents) AS n,
              (SELECT count(*) FROM tok) AS sumdl),
dfg AS (SELECT count(*) AS df FROM tf),
qtf AS (SELECT 'query_then_fetch' AS mode, tf.doc_id AS doc_id,
          ROUND(ln(1 + (sh.n - dfl.df + 0.5)/(dfl.df + 0.5)) * 2.2 * tf.tf /
                (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * sh.n / shl.sumdl)),
                4) AS score
        FROM tf JOIN dfl USING (shard) JOIN sh USING (shard)
             JOIN shl USING (shard)
             JOIN dl ON dl.doc_id = tf.doc_id AND dl.shard = tf.shard),
dfs AS (SELECT 'dfs' AS mode, tf.doc_id AS doc_id,
          ROUND(ln(1 + (st.n - dfg.df + 0.5)/(dfg.df + 0.5)) * 2.2 * tf.tf /
                (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)),
                4) AS score
        FROM tf CROSS JOIN dfg CROSS JOIN st JOIN dl ON dl.doc_id = tf.doc_id)
SELECT mode, doc_id, score
FROM (SELECT * FROM qtf UNION ALL SELECT * FROM dfs)
ORDER BY mode DESC, doc_id""",
        "ingest_on_failure": """
SELECT event_id,
       CASE WHEN value > 140 THEN 'failed' ELSE 'ok' END AS tag,
       CASE WHEN value > 140 THEN 'fail condition met'
            ELSE NULL END AS failure_reason
FROM events ORDER BY event_id""",
        "agg_terms_partitions": """
WITH h(event_type, hv) AS (VALUES
  ('click', -708214186), ('error', -1203016238), ('purchase', -129873871),
  ('signup', 694001673), ('view', 1287439357))
SELECT e.event_type, count(*) AS doc_count,
       ROUND(SUM(value), 6) AS sum_value
FROM events e JOIN h USING (event_type)
WHERE ((hv % 4) + 4) % 4 = 1
GROUP BY 1 ORDER BY 1""",
        "sql_select_distinct": """
SELECT DISTINCT o_orderstatus, o_orderpriority FROM orders
ORDER BY o_orderstatus, o_orderpriority""",
        "ml_outlier_detection": """
WITH p AS (
  SELECT a.vec_id AS ia, b.vec_id AS ib,
         list_distance(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS d
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id),
k AS (SELECT ia AS vec_id, d,
             row_number() OVER (PARTITION BY ia ORDER BY d, ib) AS rn
      FROM p)
SELECT vec_id, ROUND(d, 6) AS knn_dist FROM k WHERE rn = 5
ORDER BY knn_dist DESC, vec_id LIMIT 10""",
        "dedup_substring_runs": """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS a
  FROM documents),
gpos AS (
  SELECT doc_id, a, unnest(generate_series(1, len(a) - 7)) AS pos
  FROM toks WHERE len(a) >= 8),
grams AS (
  SELECT doc_id, pos, array_to_string(a[pos:pos+7], ' ') AS gram
  FROM gpos),
dup AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
occ AS (SELECT doc_id, pos FROM grams JOIN dup USING (gram)),
m AS (SELECT doc_id, pos, pos + 8 AS e,
        CASE WHEN pos > COALESCE(max(pos + 8) OVER (
              PARTITION BY doc_id ORDER BY pos
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
             THEN 1 ELSE 0 END AS brk
      FROM occ),
i AS (SELECT doc_id, pos, e,
        SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS isl
      FROM m),
u AS (SELECT doc_id, isl, max(e) - min(pos) AS covered
      FROM i GROUP BY doc_id, isl)
SELECT doc_id, CAST(SUM(covered) AS BIGINT) AS dup_tokens
FROM u GROUP BY doc_id ORDER BY doc_id""",
        "agg_moving_fn_holt_winters": """
WITH RECURSIVE d AS (
  SELECT row_number() OVER (ORDER BY b) AS i, CAST(c AS DOUBLE) AS v
  FROM (SELECT date_trunc('day', ts) AS b, count(*) AS c
        FROM events GROUP BY 1)),
vs AS (SELECT list(v ORDER BY i) AS a, count(*) AS n FROM d),
init AS (
  SELECT a, n,
    list_sum(a[1:7]) / 7.0 AS s0,
    list_sum(list_transform(generate_series(1, 7),
                            i -> (a[i+7] - a[i]) / 7.0)) / 7.0 AS b0
  FROM vs),
seas0 AS (
  SELECT a, n, s0, b0,
    CASE WHEN s0 = 0.0
         THEN list_transform(generate_series(1, 7), i -> 0.0)
         ELSE list_transform(generate_series(1, 7), i -> a[i] / s0)
    END AS seas
  FROM init),
rec AS (
  SELECT 7 AS i, s0 AS ls, b0 AS lb, seas, a, n FROM seas0
  UNION ALL
  SELECT i + 1,
    0.3 * (a[i+1] - seas[i+1-7]) + 0.7 * (ls + lb),
    0.1 * (0.3 * (a[i+1] - seas[i+1-7]) + 0.7 * (ls + lb) - ls)
      + 0.9 * lb,
    list_append(seas, 0.3 * (a[i+1] - (ls - lb)) + 0.7 * seas[i+1-7]),
    a, n
  FROM rec WHERE i < n)
SELECT CAST(n AS BIGINT) AS buckets,
       ROUND(ls + lb + seas[n - 7 + 1], 4) AS forecast,
       ROUND(ls, 4) AS level, ROUND(lb, 4) AS trend
FROM rec WHERE i = n""",
    })
    out["dedup_cluster_sizes"] = (
        "WITH comp AS (" + out["dedup_components"].strip().rstrip(";")
        + "), cs AS (SELECT component, count(*) AS csize FROM comp "
          "GROUP BY component) "
          "SELECT CAST(csize AS BIGINT) AS csize, count(*) AS clusters "
          "FROM cs GROUP BY csize ORDER BY csize")
    out["agg_significant_text_dedup"] = """
WITH n AS (
  SELECT doc_id, text,
         array_to_string(list_filter(
           regexp_split_to_array(lower(text), '[^a-z0-9]+'),
           x -> x <> ''), ' ') AS k
  FROM documents),
ch AS (SELECT doc_id, text FROM (
  SELECT doc_id, text,
         row_number() OVER (PARTITION BY k ORDER BY doc_id) AS rn
  FROM n) WHERE rn = 1),
tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM ch) u WHERE t <> ''),
fgdocs AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
fg_n AS (SELECT count(*) AS n FROM fgdocs),
bg_n AS (SELECT count(*) AS n FROM ch),
counts AS (
  SELECT term,
         count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM fgdocs)) AS fg_df,
         count(*) AS bg_df
  FROM tok GROUP BY term)
SELECT term, fg_df, bg_df,
       ROUND((fg_df::DOUBLE / fg_n.n - bg_df::DOUBLE / bg_n.n)
             * ((fg_df::DOUBLE / fg_n.n) / (bg_df::DOUBLE / bg_n.n)), 6) AS score
FROM counts CROSS JOIN fg_n CROSS JOIN bg_n
WHERE fg_df >= 5
ORDER BY score DESC, term LIMIT 10"""
    out["percolate_existing_doc"] = """
WITH tok AS (
  SELECT DISTINCT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS t
    FROM documents WHERE doc_id IN (17, 42, 99)) u WHERE t <> ''),
m0 AS (SELECT doc_id, 0 AS query_id FROM tok WHERE term IN ('data','query')
       GROUP BY doc_id HAVING count(*) = 2),
m1 AS (SELECT doc_id, 1 AS query_id FROM tok WHERE term = 'vector'),
m2 AS (SELECT doc_id, 2 AS query_id FROM tok
       WHERE term IN ('window','merge','batch')
       GROUP BY doc_id HAVING count(*) = 3)
SELECT * FROM (SELECT * FROM m0 UNION ALL SELECT * FROM m1
               UNION ALL SELECT * FROM m2)
ORDER BY doc_id, query_id"""
    out["mapper_size_field"] = """
WITH sz AS (SELECT lang, length(text) AS size FROM documents),
r AS (SELECT count(*) AS n FROM sz WHERE size >= 800 AND size < 1200)
SELECT lang, count(*) AS docs, MIN(size) AS min_size,
       MAX(size) AS max_size, CAST(SUM(size) AS BIGINT) AS sum_size,
       (SELECT n FROM r) AS in_range_800_1200
FROM sz GROUP BY lang ORDER BY lang"""

    out["murmur3_field_cardinality"] = """
WITH h(source, hv) AS (VALUES
  ('src0', -1164416664), ('src1', 706699432), ('src2', 332406938),
  ('src3', 1484881694), ('src4', 1035695491), ('src5', 1886931161),
  ('src6', 800076671), ('src7', 400197407), ('src8', 1531411777),
  ('src9', -1466533903), ('src10', 909986450), ('src11', 640363681),
  ('src12', 984838713), ('src13', -862322557), ('src14', -924893696),
  ('src15', 1485394773), ('src16', -1198424005), ('src17', -122829918),
  ('src18', 1096668294), ('src19', -721911169)),
pairs AS (SELECT DISTINCT d.lang, h.hv FROM documents d JOIN h USING (source))
SELECT lang, count(*) AS distinct_hashes,
       CAST(bit_xor(hv) AS BIGINT) AS hash_xor
FROM pairs GROUP BY lang ORDER BY lang"""
    out["ft_annotated_text"] = f"""
WITH {_PTOK}
SELECT doc_id, CAST(MIN(pos) AS BIGINT) AS ann_pos
FROM ptok WHERE term = 'merge'
GROUP BY doc_id ORDER BY doc_id"""
    out["text_structure_log"] = """
SELECT * FROM (
  SELECT 'format' AS property, 'semi_structured_text' AS value
  UNION ALL SELECT 'grok_pattern',
    '%{TIMESTAMP_ISO8601:timestamp} %{GREEDYDATA:message}'
  UNION ALL SELECT 'num_lines_analyzed',
    CAST(LEAST((SELECT count(*) FROM events), 200) AS VARCHAR)
  UNION ALL SELECT 'timestamp_field', 'timestamp')
ORDER BY property"""
    out["ft_render_template_sections"] = f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok
       WHERE term = 'data' GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf),
scored AS (SELECT tf.doc_id AS doc_id, ROUND({_SCORE}, 4) AS score
           FROM tf CROSS JOIN df CROSS JOIN st
                JOIN dl ON dl.doc_id = tf.doc_id),
nc AS (SELECT doc_id, n_chars FROM documents),
p0 AS (SELECT 0 AS phase, s.doc_id, s.score FROM scored s
       JOIN nc ON nc.doc_id = s.doc_id WHERE nc.n_chars >= 300),
p1 AS (SELECT 1, doc_id, score FROM scored),
p2 AS (SELECT 2, doc_id, 1.0 FROM (
  SELECT DISTINCT doc_id FROM tok
  WHERE term IN ('data', 'merge', 'window')))
SELECT * FROM (SELECT * FROM p0 UNION ALL SELECT * FROM p1
               UNION ALL SELECT * FROM p2)
ORDER BY phase, doc_id"""
    out["decontaminate_bloom"] = out["dedup_decontaminate"]
    # incremental append must equal the full rebuild, whose hits the
    # ft_term oracle already derives from the raw corpus
    out["index_incremental_append"] = out["ft_term"]
    # the persisted int8 index must reproduce the on-the-fly quantized
    # search bit-for-bit: same oracle
    out["knn_sq_indexed"] = out["knn_scalar_quantized"]
    # --- round-3 session-16 ops ---
    out.update({
        "agg_histogram_offset": """
SELECT floor((value - 13.5)/50.0)*50.0 + 13.5 AS bucket,
       count(*) AS doc_count
FROM events WHERE value IS NOT NULL GROUP BY 1 ORDER BY 1""",
        "esql_mv_functions": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n,
       CAST(len(list_distinct(toks)) AS BIGINT) AS uniq,
       list_sort(toks)[1] AS first,
       list_sort(toks)[-1] AS last
FROM t ORDER BY doc_id""",
        "ft_sqs_operators": f"""
WITH {_TOK},
v AS (SELECT DISTINCT term FROM tok),
dm AS (SELECT DISTINCT doc_id FROM tok WHERE term IN ('data', 'merge')),
dw AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'window'),
dc AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE term LIKE 'cust%')),
ds AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE damerau_levenshtein(term, 'slow') <= 1)),
du AS (SELECT DISTINCT doc_id FROM tok
       WHERE term IN ('data', 'merge', 'window'))
SELECT phase, doc_id FROM (
  SELECT 0 AS phase, doc_id FROM dm WHERE doc_id IN (SELECT doc_id FROM dw)
  UNION ALL
  SELECT 1, doc_id FROM dc WHERE doc_id IN (SELECT doc_id FROM ds)
  UNION ALL
  SELECT 2, doc_id FROM du)
ORDER BY phase, doc_id""",
        "ft_regexp_ops": f"""
WITH {_TOK},
v AS (SELECT DISTINCT term FROM tok),
e0 AS (SELECT term FROM v
       WHERE regexp_matches(term, '^.*a.*$') AND term <> 'data'),
e1 AS (SELECT term FROM v
       WHERE regexp_matches(term, '^s.*$') AND regexp_matches(term, '^.*w$'))
SELECT phase, doc_id FROM (
  SELECT 0 AS phase, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM e0))
  UNION ALL SELECT 1, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term IN (SELECT term FROM e1)))
ORDER BY phase, doc_id""",
        "ft_rank_feature_negative": f"""
WITH {_TOK},
tf AS (SELECT doc_id, count(*) AS tf FROM tok WHERE term = 'data'
       GROUP BY doc_id),
df AS (SELECT count(*) AS df FROM tf)
SELECT tf.doc_id AS doc_id,
       ROUND({_SCORE} + 1.5 * 300.0 / (d.n_chars + 300.0), 4) AS score
FROM tf CROSS JOIN df CROSS JOIN st
JOIN dl ON dl.doc_id = tf.doc_id
JOIN documents d ON d.doc_id = tf.doc_id
ORDER BY doc_id""",
        "knn_similarity_threshold": """
SELECT query_id, vec_id, cosine FROM (
  SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
         ROUND(list_cosine_similarity(q.embedding::DOUBLE[],
               v.embedding::DOUBLE[]), 6) AS cosine
  FROM embeddings q CROSS JOIN embeddings v
  WHERE q.vec_id IN (0, 1, 2)
  QUALIFY row_number() OVER (PARTITION BY q.vec_id
      ORDER BY list_cosine_similarity(q.embedding::DOUBLE[],
               v.embedding::DOUBLE[]) DESC, v.vec_id) <= 5)
WHERE cosine >= 0.2 ORDER BY query_id, vec_id""",
        "ft_highlight_no_match_size": r"""
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
        AS t FROM documents) u WHERE t <> ''),
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'merge'),
h3 AS (SELECT doc_id FROM hits ORDER BY doc_id LIMIT 3),
m3 AS (SELECT doc_id FROM documents
       WHERE doc_id < 200 AND doc_id NOT IN (SELECT doc_id FROM hits)
       ORDER BY doc_id LIMIT 3),
hw AS (SELECT h.doc_id,
              list_filter(regexp_split_to_array(d.text, '\s+'),
                          w -> w <> '') AS w
       FROM h3 h JOIN documents d USING (doc_id)),
hp AS (SELECT doc_id, w,
              list_position(list_transform(w, x -> lower(x)), 'merge') AS p
       FROM hw),
hf AS (SELECT doc_id, 1 AS matched,
              array_to_string(list_transform(w[p:p+5],
                  x -> CASE WHEN lower(x) = 'merge'
                       THEN '<em>' || x || '</em>' ELSE x END), ' ')
                  AS fragment
       FROM hp),
mf AS (SELECT m.doc_id, 0 AS matched, substr(d.text, 1, 40) AS fragment
       FROM m3 m JOIN documents d USING (doc_id))
SELECT doc_id, matched, fragment FROM
  (SELECT * FROM hf UNION ALL SELECT * FROM mf)
ORDER BY doc_id""",
        "corpus_datacard": """
WITH g AS (SELECT source, lang, count(*) AS n, SUM(n_chars) AS chars
           FROM documents GROUP BY source, lang),
tot AS (SELECT source, SUM(n) AS docs, SUM(chars) AS chars
        FROM g GROUP BY source),
ent AS (SELECT g.source,
               -SUM((g.n / CAST(t.docs AS DOUBLE))
                    * log2(g.n / CAST(t.docs AS DOUBLE))) AS e
        FROM g JOIN tot t USING (source) GROUP BY g.source),
dom AS (SELECT source, lang, n,
               row_number() OVER (PARTITION BY source
                                  ORDER BY n DESC, lang) AS rk
        FROM g)
SELECT t.source, CAST(t.docs AS BIGINT) AS docs,
       ROUND(t.chars / CAST(t.docs AS DOUBLE), 4) AS mean_chars,
       ROUND(e.e, 4) AS lang_entropy,
       d.lang AS top_lang,
       ROUND(d.n / CAST(t.docs AS DOUBLE), 4) AS top_lang_share
FROM tot t JOIN ent e USING (source)
JOIN dom d ON d.source = t.source AND d.rk = 1
ORDER BY t.source""",
        "termvectors_filtered": f"""
WITH {_TOK},
doc AS (SELECT term, count(*) AS tf FROM tok WHERE doc_id = 42
        GROUP BY term),
dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, tf, df,
       ROUND(tf * ln(1 + (st.n - df + 0.5)/(df + 0.5)), 4) AS weight
FROM doc JOIN dfs USING (term) CROSS JOIN st
WHERE tf >= 2 AND df >= 1
ORDER BY tf * ln(1 + (st.n - df + 0.5)/(df + 0.5)) DESC, term LIMIT 5""",
        "ingest_simulate_verbose": """
WITH d AS (SELECT doc_id, lang, source FROM documents WHERE doc_id < 5)
SELECT step, processor, doc_id, tag, lang, source FROM (
  SELECT 0 AS step, 'set' AS processor, doc_id, 'sim' AS tag,
         lang, source FROM d
  UNION ALL SELECT 1, 'uppercase', doc_id, 'sim', upper(lang), source
  FROM d
  UNION ALL SELECT 2, 'gsub', doc_id, 'sim', upper(lang),
         replace(source, 'src', 'S') FROM d)
ORDER BY step, doc_id""",
        "reindex_script": """
WITH k AS (SELECT upper(lang) AS lang FROM documents
           WHERE n_chars >= 250)
SELECT lang, count(*) AS created,
       (SELECT count(*) FROM documents)
       - (SELECT count(*) FROM k) AS noops_total
FROM k GROUP BY lang ORDER BY lang""",
        "bulk_external_versioning": """
WITH w AS (SELECT doc_id,
    1 + doc_id % 3 AS stored,
    CASE WHEN 1 + doc_id % 3 < 2 THEN 2 ELSE 1 + doc_id % 3 END AS curA,
    doc_id % 5 AS vB
  FROM documents),
f AS (SELECT doc_id,
    CASE WHEN vB > curA THEN vB ELSE curA END AS final_version,
    CASE WHEN stored < 2 THEN 0 ELSE 1 END AS conflictA,
    CASE WHEN vB > curA THEN 0 ELSE 1 END AS conflictB
  FROM w)
SELECT final_version, count(*) AS docs,
       CAST(SUM(conflictA) AS BIGINT) AS conflicts_a,
       CAST(SUM(conflictB) AS BIGINT) AS conflicts_b,
       count(*) AS create_conflicts
FROM f GROUP BY final_version ORDER BY final_version""",
        "bulk_script_update": """
WITH c AS (SELECT lang,
    doc_id % 10 + (doc_id % 4) + (doc_id % 7) + 5 AS counter
  FROM documents)
SELECT lang, CAST(SUM(counter) AS BIGINT) AS sum_counter,
       CAST(MAX(counter) AS BIGINT) AS max_counter
FROM c GROUP BY lang ORDER BY lang""",
        "index_refresh_visibility": """
WITH c AS (SELECT (CAST(floor(count(*) * 0.6) AS BIGINT) // 100) * 100
               AS cut FROM documents),
tokall AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
        AS t FROM documents) u WHERE t <> ''),
p0 AS (SELECT doc_id, term FROM tokall CROSS JOIN c WHERE doc_id < cut),
sc0 AS (
  SELECT tf.doc_id, ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf
         / (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)) AS s
  FROM (SELECT doc_id, count(*) AS tf FROM p0 WHERE term = 'data'
        GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(DISTINCT doc_id) AS df FROM p0
              WHERE term = 'data') df
  JOIN (SELECT doc_id, count(*) AS dl FROM p0 GROUP BY doc_id) dl
       ON dl.doc_id = tf.doc_id
  CROSS JOIN (SELECT count(DISTINCT doc_id) AS n, count(*) AS sumdl
              FROM p0) st),
sc1 AS (
  SELECT tf.doc_id, ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf
         / (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl)) AS s
  FROM (SELECT doc_id, count(*) AS tf FROM tokall WHERE term = 'data'
        GROUP BY doc_id) tf
  CROSS JOIN (SELECT count(DISTINCT doc_id) AS df FROM tokall
              WHERE term = 'data') df
  JOIN (SELECT doc_id, count(*) AS dl FROM tokall GROUP BY doc_id) dl
       ON dl.doc_id = tf.doc_id
  CROSS JOIN (SELECT (SELECT count(*) FROM documents) AS n,
              count(*) AS sumdl FROM tokall) st)
SELECT phase, doc_id, ROUND(s, 4) AS score FROM (
  SELECT 0 AS phase, doc_id, s FROM sc0
  UNION ALL SELECT 1, doc_id, s FROM sc1)
ORDER BY phase, doc_id""",
        "training_shuffle_order": """
SELECT epoch, pos, doc_id FROM (
  SELECT e.epoch,
         row_number() OVER (PARTITION BY e.epoch ORDER BY
             (doc_id * (2654435761 + 81006 * e.epoch)) % 4294967296,
             doc_id) AS pos,
         doc_id
  FROM documents CROSS JOIN (VALUES (0), (1)) e(epoch))
WHERE pos <= 15 ORDER BY epoch, pos""",
        "agg_t_test_unpaired": """
WITH g AS (SELECT event_type,
                  CAST(round(value * 100) AS BIGINT) AS v
           FROM events WHERE event_type IN ('click', 'error')),
s AS (SELECT
    SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS na,
    SUM(CASE WHEN event_type = 'click' THEN v ELSE 0 END) AS sa,
    SUM(CASE WHEN event_type = 'click' THEN v * v ELSE 0 END) AS ssa,
    SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS nb,
    SUM(CASE WHEN event_type = 'error' THEN v ELSE 0 END) AS sb,
    SUM(CASE WHEN event_type = 'error' THEN v * v ELSE 0 END) AS ssb
  FROM g),
d AS (SELECT CAST(na AS DOUBLE) AS na, CAST(nb AS DOUBLE) AS nb,
             sa / CAST(na AS DOUBLE) AS ma, sb / CAST(nb AS DOUBLE) AS mb,
             (ssa - na * (sa / CAST(na AS DOUBLE))
                       * (sa / CAST(na AS DOUBLE))) / (na - 1.0) AS va,
             (ssb - nb * (sb / CAST(nb AS DOUBLE))
                       * (sb / CAST(nb AS DOUBLE))) / (nb - 1.0) AS vb
      FROM s)
SELECT type, CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       ROUND(t_stat, 6) AS t_stat FROM (
  SELECT 'heteroscedastic' AS type, na, nb,
         (ma - mb) / sqrt(va / na + vb / nb) AS t_stat FROM d
  UNION ALL
  SELECT 'homoscedastic', na, nb,
         (ma - mb) / sqrt((((na - 1.0) * va + (nb - 1.0) * vb)
                           / (na + nb - 2.0)) * (1.0/na + 1.0/nb)) FROM d)
ORDER BY type""",
        "enrich_geo_match": f"""
WITH {_GEO},
z AS (SELECT user_id, lat,
             CASE WHEN lat >= 0 AND lon >= 0 THEN 'north_east'
                  WHEN lat >= 0 THEN 'north_west'
                  WHEN lon >= 0 THEN 'south_east'
                  ELSE 'south_west' END AS zone
      FROM g)
SELECT zone, count(*) AS n_users, ROUND(AVG(lat), 4) AS avg_lat
FROM z GROUP BY zone ORDER BY zone""",
        "ft_norms_disabled": f"""
WITH {_TOK},
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('data', 'merge') GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id,
       ROUND(SUM(ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2
                 * tf.tf / (tf.tf + 1.2)), 4) AS score
FROM tf JOIN df USING (term) CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "corpus_shard_writer": """
WITH r AS (SELECT doc_id,
    CAST(((doc_id * 2654435761) % 4294967296) % 8 AS BIGINT) AS shard
  FROM documents)
SELECT shard, count(*) AS rows, MIN(doc_id) AS min_doc,
       MAX(doc_id) AS max_doc
FROM r GROUP BY shard ORDER BY shard""",
        "quality_ensemble": """
WITH w AS (SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS words,
    regexp_replace(lower(text), '[^a-z0-9]', '', 'g') AS chars,
    GREATEST(len(regexp_extract_all(lower(text), '[.!?]+')), 1) AS n_s
  FROM documents),
sig AS (SELECT doc_id, n_s,
    CAST(len(words) AS BIGINT) AS n_w,
    CASE WHEN len(words) BETWEEN 20 AND 200 THEN 1 ELSE 0 END AS s_wc,
    CASE WHEN len(list_filter(words, x -> list_contains(
        ['the','and','of','to','a','in','is','for','with','data','query'],
        x))) >= 2 THEN 1 ELSE 0 END AS s_stop,
    CAST(coalesce(list_sum(list_transform(words,
        x -> len(regexp_extract_all(x, '[aeiouy]+')))), 0) AS BIGINT)
        AS n_syl
  FROM w),
ent AS (SELECT doc_id,
    coalesce(-SUM(p * log2(p)), 0) AS e
  FROM (SELECT doc_id,
               count(*) / CAST(SUM(count(*)) OVER (PARTITION BY doc_id)
                               AS DOUBLE) AS p
        FROM (SELECT doc_id, unnest(regexp_extract_all(chars, '.')) AS c
              FROM w) GROUP BY doc_id, c)
  GROUP BY doc_id),
j AS (SELECT s.doc_id, s.s_wc, s.s_stop,
             CASE WHEN e.e >= 3.0 THEN 1 ELSE 0 END AS s_ent,
             CASE WHEN 206.835
                  - 1.015 * (s.n_w / CAST(s.n_s AS DOUBLE))
                  - 84.6 * (s.n_syl / CAST(GREATEST(s.n_w, 1) AS DOUBLE))
                  >= -60.0 THEN 1 ELSE 0 END AS s_read
      FROM sig s JOIN ent e USING (doc_id))
SELECT doc_id, s_wc AS s_wordcount, s_stop AS s_stopword,
       s_ent AS s_entropy, s_read AS s_readability,
       ROUND(0.4 * s_wc + 0.3 * s_stop + 0.2 * s_ent + 0.1 * s_read, 4)
           AS score,
       CASE WHEN 0.4 * s_wc + 0.3 * s_stop + 0.2 * s_ent + 0.1 * s_read
            >= 0.6 THEN 1 ELSE 0 END AS kept
FROM j ORDER BY doc_id""",
        "mapping_ignore_malformed": """
WITH m AS (SELECT doc_id, doc_id % 7 = 0 AS mal, doc_id % 1000 AS val
           FROM documents)
SELECT stat, value FROM (
  SELECT 'ignored_true' AS stat,
         (SELECT count(*) FROM m WHERE mal) AS value
  UNION ALL SELECT 'indexed_false', (SELECT count(*) FROM m WHERE NOT mal)
  UNION ALL SELECT 'indexed_true', (SELECT count(*) FROM m)
  UNION ALL SELECT 'range_hits',
         (SELECT count(*) FROM m WHERE NOT mal AND val >= 200 AND val < 600)
  UNION ALL SELECT 'rejected_false', (SELECT count(*) FROM m WHERE mal))
ORDER BY stat""",
        "date_multi_format": """
WITH w AS (SELECT CASE WHEN event_id % 2 = 0
                       THEN strftime(ts, '%Y-%m-%d %H:%M:%S')
                       ELSE CAST(epoch_ms(ts) AS VARCHAR) END AS wire
           FROM events),
p AS (SELECT CASE WHEN regexp_matches(wire, '^[0-9]+$')
                  THEN epoch_ms(CAST(wire AS BIGINT))
                  ELSE strptime(wire, '%Y-%m-%d %H:%M:%S') END AS ts2
      FROM w)
SELECT date_trunc('day', ts2) AS bucket, count(*) AS doc_count
FROM p GROUP BY 1 ORDER BY 1""",
        "ft_index_prefixes": f"""
WITH {_TOK}
SELECT prefix, doc_id FROM (
  SELECT 'da' AS prefix, doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'da%')
  UNION ALL
  SELECT 'd', doc_id FROM
    (SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'd%'))
ORDER BY prefix, doc_id""",
        "agg_doc_count_field": """
SELECT lang, CAST(SUM(1 + doc_id % 3) AS BIGINT) AS doc_count
FROM documents GROUP BY lang ORDER BY lang""",
        "ft_bool_msm_forms": f"""
WITH {_TOK},
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('data', 'merge', 'window', 'slow')
       GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
sc AS (SELECT tf.doc_id, tf.term, {_SCORE} AS s
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
       CROSS JOIN st),
agg AS (SELECT doc_id, count(*) AS matched, SUM(s) AS total FROM sc
        GROUP BY doc_id),
agg2 AS (SELECT doc_id,
                count(*) FILTER (term IN ('data', 'merge')) AS matched2,
                SUM(s) FILTER (term IN ('data', 'merge')) AS total2
         FROM sc GROUP BY doc_id)
SELECT phase, doc_id, ROUND(score, 4) AS score FROM (
  SELECT 0 AS phase, doc_id, total AS score FROM agg WHERE matched >= 3
  UNION ALL SELECT 1, doc_id, total FROM agg WHERE matched >= 2
  UNION ALL SELECT 2, doc_id, total2 FROM agg2 WHERE matched2 >= 2)
ORDER BY phase, doc_id""",
        "ft_match_fuzziness": f"""
WITH {_TOK},
v AS (SELECT DISTINCT term FROM tok),
d1 AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE damerau_levenshtein(term, 'dtaa') <= 1)),
d2 AS (SELECT DISTINCT doc_id FROM tok WHERE term IN
       (SELECT term FROM v WHERE damerau_levenshtein(term, 'merg') <= 1))
SELECT doc_id, CAST(SUM(s) AS DOUBLE) AS score FROM (
  SELECT doc_id, 1.0 AS s FROM d1
  UNION ALL SELECT doc_id, 1.0 FROM d2)
GROUP BY doc_id ORDER BY doc_id""",
        "completion_skip_duplicates": f"""
WITH {_TOK},
w AS (SELECT tok.term AS input, d.source, count(*) AS weight
      FROM tok JOIN documents d USING (doc_id)
      WHERE tok.term LIKE 'da%' GROUP BY tok.term, d.source),
r0 AS (SELECT input, weight,
              row_number() OVER (ORDER BY weight DESC, input) AS rank
       FROM w),
best AS (SELECT input, MAX(weight) AS weight FROM w GROUP BY input),
r1 AS (SELECT input, weight,
              row_number() OVER (ORDER BY weight DESC, input) AS rank
       FROM best)
SELECT phase, rank, input, weight FROM (
  SELECT 0 AS phase, rank, input, weight FROM r0 WHERE rank <= 5
  UNION ALL SELECT 1, rank, input, weight FROM r1 WHERE rank <= 5)
ORDER BY phase, rank""",
        "ft_collapse_inner_hits": """
SELECT lang, inner_rank, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS inner_rank
  FROM documents)
WHERE inner_rank <= 3 ORDER BY lang, inner_rank""",
        "text_readability": """
WITH w AS (SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS words,
    len(regexp_extract_all(lower(text), '[.!?]+')) AS sents
  FROM documents),
c AS (SELECT doc_id,
    CAST(len(words) AS BIGINT) AS n_words,
    CAST(GREATEST(sents, 1) AS BIGINT) AS n_sentences,
    CAST(coalesce(list_sum(list_transform(words,
         x -> len(regexp_extract_all(x, '[aeiouy]+')))), 0) AS BIGINT)
        AS n_syllables
  FROM w)
SELECT doc_id, n_words, n_sentences, n_syllables,
       ROUND(206.835 - 1.015 * (n_words / CAST(n_sentences AS DOUBLE))
             - 84.6 * (n_syllables / CAST(GREATEST(n_words, 1) AS DOUBLE)),
             4) AS flesch
FROM c ORDER BY doc_id""",
        "training_length_buckets": r"""
WITH n AS (SELECT GREATEST(CAST(len(list_filter(
        regexp_split_to_array(text, '\s+'), x -> x <> '')) AS BIGINT),
        1) AS toks FROM documents),
b AS (SELECT CAST(power(2, ceil(log2(toks))) AS BIGINT) AS bucket, toks
      FROM n)
SELECT bucket, count(*) AS doc_count,
       CAST(SUM(toks) AS BIGINT) AS sum_toks,
       ROUND(1.0 - SUM(toks) / CAST(count(*) * bucket AS DOUBLE), 4)
           AS pad_waste
FROM b GROUP BY bucket ORDER BY bucket""",
        "dedup_url": """
WITH c AS (SELECT doc_id,
    'http://site' || (doc_id % 37) || '.example.com/page/' ||
    (doc_id % 111) || '?id=' || (doc_id % 111) AS curl
  FROM documents)
SELECT curl, count(*) AS n_dups, MIN(doc_id) AS keeper
FROM c GROUP BY curl ORDER BY curl""",
        "indices_stats": f"""
WITH {_TOK}
SELECT stat, value FROM (
  SELECT 'docs_count' AS stat,
         (SELECT count(*) FROM documents) AS value
  UNION ALL SELECT 'segments_count',
         (SELECT CAST(ceil(count(*) / 600.0) AS BIGINT) FROM documents)
  UNION ALL SELECT 'terms_count',
         (SELECT count(DISTINCT term) FROM tok))
ORDER BY stat""",
        "agg_histogram_min_doc_count": """
WITH base AS (SELECT floor(value/50.0)*50.0 AS bucket, count(*) AS doc_count
              FROM events WHERE value IS NOT NULL GROUP BY 1),
grid AS (SELECT i * 50.0 AS bucket
         FROM unnest(generate_series(0, 29)) AS u(i))
SELECT phase, bucket, doc_count FROM (
  SELECT 0 AS phase, bucket, doc_count FROM base WHERE doc_count >= 20
  UNION ALL
  SELECT 1, g.bucket, coalesce(b.doc_count, 0)
  FROM grid g LEFT JOIN base b USING (bucket))
ORDER BY phase, bucket""",
        "agg_date_histogram_timezone": """
SELECT date_trunc('day', ts + INTERVAL 5 HOUR) - INTERVAL 5 HOUR AS bucket,
       count(*) AS doc_count
FROM events GROUP BY 1 ORDER BY 1""",
        "agg_terms_order_subagg": """
SELECT row_number() OVER (ORDER BY AVG(value) DESC, event_type) AS rank,
       event_type, count(*) AS doc_count,
       ROUND(AVG(value), 4) AS avg_value
FROM events GROUP BY event_type ORDER BY rank""",
        "ft_script_sort": f"""
WITH {_TOK},
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
keyed AS (SELECT h.doc_id, d.n_chars % 7 + d.n_chars / 1000.0 AS key
          FROM hits h JOIN documents d USING (doc_id))
SELECT row_number() OVER (ORDER BY key, doc_id) AS rank, doc_id,
       ROUND(key, 4) AS key
FROM keyed ORDER BY key, doc_id LIMIT 25""",
        "count_api": f"""
WITH {_TOK}
SELECT query, count FROM (
  SELECT 'match_all' AS query,
         (SELECT count(*) FROM documents) AS count
  UNION ALL SELECT 'range_chars',
         (SELECT count(*) FROM documents
          WHERE n_chars >= 500 AND n_chars < 900)
  UNION ALL SELECT 'term_data',
         (SELECT count(DISTINCT doc_id) FROM tok WHERE term = 'data'))
ORDER BY query""",
        "corpus_unimax_sample": """
WITH s AS (SELECT lang, count(*) AS size FROM documents GROUP BY lang),
b AS (SELECT CAST(floor(SUM(size) * 0.9) AS BIGINT) AS budget FROM s),
t AS (SELECT lang, size,
             row_number() OVER (ORDER BY size, lang) AS i,
             coalesce(SUM(size) OVER (ORDER BY size, lang
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                 AS prefix,
             count(*) OVER () AS k
      FROM s),
th AS (SELECT (budget - prefix) / (k - i + 1.0) AS theta
       FROM t CROSS JOIN b
       WHERE size >= (budget - prefix) / (k - i + 1.0)
       ORDER BY i LIMIT 1)
SELECT lang, size,
       CAST(floor(LEAST(CAST(size AS DOUBLE), th.theta)) AS BIGINT) AS alloc
FROM t CROSS JOIN th ORDER BY lang""",
        "ft_match_only_text": f"""
WITH {_PTOK},
p0 AS (SELECT DISTINCT doc_id FROM ptok WHERE term IN ('data', 'merge')),
p1 AS (SELECT DISTINCT a.doc_id FROM ptok a
       JOIN ptok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
       WHERE a.term = 'data' AND b.term = 'query')
SELECT phase, doc_id, 1.0 AS score FROM (
  SELECT 0 AS phase, doc_id FROM p0
  UNION ALL SELECT 1, doc_id FROM p1)
ORDER BY phase, doc_id""",
        "ft_copy_to": """
WITH tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(regexp_split_to_array(
        lower(lang || ' ' || source), '[^a-z0-9]+')) AS t
    FROM documents) u WHERE t <> ''),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
st AS (SELECT (SELECT count(*) FROM documents) AS n,
              (SELECT count(*) FROM tok) AS sumdl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok
       WHERE term IN ('en', 'src3') GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT tf.doc_id AS doc_id,
       ROUND(SUM(ln(1 + (st.n - df.df + 0.5)/(df.df + 0.5)) * 2.2 * tf.tf /
                 (tf.tf + 1.2*(0.25 + 0.75 * dl.dl * st.n / st.sumdl))),
             4) AS score
FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN st
GROUP BY tf.doc_id ORDER BY doc_id""",
        "ft_position_increment_gap": """
WITH c AS (SELECT
    (SELECT count(*) FROM documents
     WHERE source = 'src2' AND lang = 'en') AS cross_hits,
    (SELECT count(*) FROM documents WHERE lang = 'en') AS within_hits)
SELECT gap, phrase, hits FROM (
  SELECT 0 AS gap, 'cross' AS phrase, cross_hits AS hits FROM c
  UNION ALL SELECT 0, 'within', within_hits FROM c
  UNION ALL SELECT 100, 'cross', 0 FROM c
  UNION ALL SELECT 100, 'within', within_hits FROM c)
ORDER BY gap, phrase""",
        "mapping_dynamic_templates": r"""
WITH f AS (SELECT * FROM events
           WHERE event_id = (SELECT MIN(event_id) FROM events))
SELECT field, type FROM (
  SELECT 'clicks_count' AS field, 'long' AS type FROM f
  UNION ALL SELECT 'event_type', 'text_keyword' FROM f
  UNION ALL SELECT 'note', 'text_keyword' FROM f
  UNION ALL SELECT 'ts_str',
    CASE WHEN regexp_matches(strftime(ts, '%Y-%m-%d %H:%M:%S'),
              '^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}:\d{2})?$')
         THEN 'date' ELSE 'text_keyword' END FROM f
  UNION ALL SELECT 'user_id', 'long' FROM f
  UNION ALL SELECT 'value', 'double' FROM f)
ORDER BY field""",
        "esql_sample": """
WITH s AS (
  SELECT * FROM events
  WHERE ((event_id * 2654435761 + 7 * 40503) % 4294967296)
        < 0.2 * 4294967296)
SELECT event_type, count(*) AS n, ROUND(AVG(value), 4) AS avg_v
FROM s GROUP BY event_type ORDER BY event_type""",
        "agg_cartesian_centroid": """
SELECT ROUND(AVG((p_partkey * 7919) % 1000 + 0.5), 4) AS x,
       ROUND(AVG((p_partkey * 104729) % 1000 + 0.5), 4) AS y,
       count(*) AS count
FROM part""",
        "agg_cartesian_bounds": """
SELECT ROUND(MIN((p_partkey * 7919) % 1000 + 0.5), 4) AS min_x,
       ROUND(MAX((p_partkey * 7919) % 1000 + 0.5), 4) AS max_x,
       ROUND(MIN((p_partkey * 104729) % 1000 + 0.5), 4) AS min_y,
       ROUND(MAX((p_partkey * 104729) % 1000 + 0.5), 4) AS max_y
FROM part""",
        "bulk_update_merge": """
WITH merged AS (
  SELECT doc_id,
         CASE WHEN doc_id % 3 = 0 THEN 'edited' ELSE source END AS source,
         CASE WHEN doc_id % 3 = 0 THEN 'updated'
              WHEN doc_id % 3 = 1 THEN 'noop'
              ELSE 'skipped' END AS result
  FROM documents
  UNION ALL
  SELECT (SELECT count(*) FROM documents) + u.i, 'edited', 'created'
  FROM unnest(generate_series(0, 6)) AS u(i)),
k AS (SELECT 'result:' || result AS key, count(*) AS n
      FROM merged GROUP BY result
      UNION ALL
      SELECT 'source:' || source, count(*) FROM merged GROUP BY source)
SELECT key, n FROM k ORDER BY key""",
        "update_conflicts_seq_no": """
SELECT lang,
       CAST(SUM(CASE WHEN (doc_id * 40503) % 13 = (doc_id * 24036583) % 13
                THEN 1 ELSE 0 END) AS BIGINT) AS updated,
       CAST(SUM(CASE WHEN (doc_id * 40503) % 13 = (doc_id * 24036583) % 13
                THEN 0 ELSE 1 END) AS BIGINT) AS version_conflicts
FROM documents GROUP BY lang ORDER BY lang""",
    })
    return out
