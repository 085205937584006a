"""elasticsearch_ray — a Ray-Data-native full-text index + data-processing engine.

A brand-new engine with the query and data-processing capabilities of the
reference (Elasticsearch 7.7.1 fork, vikashkumar-19/elasticsearch), rebuilt
Ray-Data-first: ``ray.data.Dataset`` pipelines of ``map_batches`` over
zero-copy Arrow batches, groupby-term shuffles for posting-list construction,
actor pools for stateful stages (segment writers, mergers, query scorers).

Layout:
    analyzer     — code-aware analysis chain (word_delimiter_graph semantics)
    smallfloat   — Lucene SmallFloat 1-byte norm quantization (BM25 parity)
    codec        — delta+varbyte posting-list codec, 128-doc blocks, block-max
    sources/     — corpus readers with deterministic doc_id assignment
    stages/      — map_batches stages (tokenize/explode, docmeta, postings)
    index/       — partitioned index build, tiered merge, manifests (resume)
    search/      — BM25 scoring, boolean ops, top-k, searcher actors
    aggs/        — aggregations (terms, histograms, HLL++, T-Digest, pipeline)
    functions/   — ingest processors, text analysis, dedup, similarity search
    pipelines/   — end-to-end flagship pipelines
"""

__version__ = "0.1.0"
