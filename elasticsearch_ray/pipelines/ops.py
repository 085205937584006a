"""Named operator pipelines for the driver's correctness gate.

Each function takes `sf_dir` and returns a pandas/pyarrow result whose
column names match the corresponding oracle SQL in __ray_entry__.oracle_sql.
All are Ray-Data-first implementations (map_batches / groupby / aggregate /
sort over Datasets) built on the engine (search), aggs and functions modules.

Gates that count analyzed tokens (terms, df, shingles, stems, significance
foreground/background, graph co-occurrence, uni/bigram LM stats) pass their
analyze callable to one kernel, functions/lm.py count_terms: per-batch
(key, cnt[, fg]) partials, then one native groupby Sum. A gate supplies only
what differs: the analyzer, distinct-per-doc or occurrences, and a
foreground mask (_lang_is, _has_term).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..aggs import aggregations as A
from ..analyzer import analyze_simple
from ..utils import round_half_away
from ..functions import dedup as D
from ..functions.lm import count_terms
from ..functions import similarity as S
from ..functions import text as T
from .fulltext import all_matches, documents_searcher, highlight, suggest_terms, topk_matches


def _ds(sf_dir: str, table: str, columns=None, flt=None):
    import pyarrow.parquet as pq
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    # The driver's parquet files carry pandas schema metadata that makes
    # pa.Schema unhashable (hash(schema) raises "unhashable type: dict"),
    # so Ray's per-read schema dedup logs a warning per task. Passing an
    # explicit metadata-free schema (pruned to the selected columns) makes
    # every fragment schema identical AND hashable — no warning, no extra
    # strip stage, and blocks downstream never see the metadata at all.
    # `flt` (a pyarrow.compute Expression) pushes row filters into the
    # read itself (row-group pruning, no empty downstream batches).
    full = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([full.field(c) for c in columns])
    else:
        schema = full
    kw = {"filter": flt} if flt is not None else {}
    return rd.read_parquet(path, columns=columns, schema=schema, **kw)


def _qvecs(sf_dir: str, n: int = 3, *, ids=None,
           columns=("vec_id", "embedding")) -> "pa.Table":
    """Query-vector fixture rows from embeddings.parquet, PRUNED at the
    read: column projection plus head(n) (first n rows in file order) or
    a vec_id row filter — never a full-table load just to pick 3 query
    vectors. Shared by every kNN gate that seeds its queries from the
    corpus."""
    import pyarrow.dataset as pads

    d = pads.dataset(os.path.join(sf_dir, "embeddings.parquet"))
    if ids is not None:
        import pyarrow.compute as pc

        return d.to_table(columns=list(columns),
                          filter=pc.field("vec_id").isin(list(ids)))
    return d.head(n, columns=list(columns))


def _lang_is(lang: str):
    """count_terms foreground: docs whose lang column equals `lang`."""
    return lambda t, toks: np.asarray(t["lang"]) == lang


def _has_term(term: str):
    """count_terms foreground: docs whose analyzed text contains `term`."""
    return lambda t, toks: np.fromiter((term in ts for ts in toks), bool,
                                       len(toks))


# ---------------- full-text search family ----------------


def ft_term(sf_dir: str):
    return all_matches(sf_dir, {"kind": "term", "term": "data"})


def ft_sim_lm_dirichlet(sf_dir: str):
    """LMDirichlet similarity (SimilarityProviders.java:320-330; Zhai &
    Lafferty 2001), mu=2000: Dirichlet-smoothed query likelihood with the
    add-one collection model, clamped at 0."""
    from .fulltext import all_matches_sim

    return all_matches_sim(sf_dir, {"kind": "term", "term": "data"},
                           "LMDirichlet", mu=2000.0)


def ft_sim_lm_jelinek_mercer(sf_dir: str):
    """LMJelinekMercer similarity (SimilarityProviders.java:332-342),
    lambda=0.1, summed across a 3-term disjunction (match OR)."""
    from .fulltext import all_matches_sim

    return all_matches_sim(
        sf_dir, {"kind": "match", "text": "data query window"},
        "LMJelinekMercer", lam=0.1)


def ft_sim_dfr(sf_dir: str):
    """DFR similarity (SimilarityProviders.java:283-305; Amati & van
    Rijsbergen 2002): basic_model=if, after_effect=b, normalization=h2."""
    from .fulltext import all_matches_sim

    return all_matches_sim(sf_dir, {"kind": "term", "term": "data"}, "DFR",
                           basic_model="if", after_effect="b",
                           normalization="h2", c=1.0)


def ft_sim_ib(sf_dir: str):
    """IB similarity (SimilarityProviders.java:307-318; Clinchant & Gaussier
    2010): distribution=ll, lambda=df, normalization=h2."""
    from .fulltext import all_matches_sim

    return all_matches_sim(sf_dir, {"kind": "term", "term": "data"}, "IB",
                           distribution="ll", lamb="df", normalization="h2")


def ft_sim_boolean(sf_dir: str):
    """`boolean` similarity (SimilarityProviders BOOLEAN_SIMILARITY):
    constant score = boost for every match."""
    from .fulltext import all_matches_sim

    return all_matches_sim(sf_dir, {"kind": "term", "term": "data",
                                    "boost": 2.5}, "boolean")


def _tfidf_script(tf, dl, df, ttf, n, sum_dl, avgdl):
    # classic ln-idf x relative-tf — the ScriptedSimilarity docs example
    import numpy as np

    return np.log(n / df) * tf / dl


def ft_sim_scripted(sf_dir: str):
    """scripted similarity (index/similarity/ScriptedSimilarity.java): a
    user Python callable over (tf, dl, df, ttf, n_docs, sum_dl, avgdl)
    replaces the similarity — here classic tf-idf, ln(N/df) * tf/dl,
    SQL-expressible for an exact oracle."""
    from .fulltext import all_matches_sim

    return all_matches_sim(sf_dir, {"kind": "term", "term": "data"},
                           "scripted", script=_tfidf_script)


def ft_match_or(sf_dir: str):
    return all_matches(sf_dir, {"kind": "match", "text": "data query window"})


def ft_match_and(sf_dir: str):
    return all_matches(sf_dir, {"kind": "match", "text": "data query", "operator": "and"})


def ft_phrase(sf_dir: str):
    return all_matches(sf_dir, {"kind": "match_phrase", "text": "data query"}, with_score=False)


def ft_prefix(sf_dir: str):
    return all_matches(sf_dir, {"kind": "prefix", "prefix": "wind"}, with_score=False)


def ft_bool(sf_dir: str):
    q = {
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "must_not": [{"kind": "term", "term": "vector"}],
        "filter": [{"kind": "meta_term", "field": "lang", "value": "en"}],
    }
    return all_matches(sf_dir, q)


def ft_topk(sf_dir: str):
    return topk_matches(sf_dir, {"kind": "match", "text": "slow merge batch", "k": 10})


def ft_ids(sf_dir: str):
    """`ids` query: fetch metadata for an explicit id set."""
    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "source"])
    wanted = pa.array([3, 7, 11, 500, 1234], pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["doc_id"], value_set=wanted))

    out = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def ft_suggest(sf_dir: str):
    return suggest_terms(sf_dir, "quer", max_edits=2, size=5)


def ft_highlight(sf_dir: str):
    return highlight(sf_dir, "window merge", k=5)


# ---------------- aggregations family ----------------


def agg_terms(sf_dir: str):
    out = A.terms_agg(_ds(sf_dir, "events"), "event_type", "value")
    out["sum_value"] = round_half_away(out["sum_value"], 4)
    return out


def agg_date_histogram(sf_dir: str):
    out = A.date_histogram(_ds(sf_dir, "events"), "ts", "day", value="value")
    out["sum_value"] = round_half_away(out["sum_value"], 4)
    return out


def agg_histogram(sf_dir: str):
    return A.histogram(_ds(sf_dir, "events"), "value", 50.0)


def agg_stats(sf_dir: str):
    out = A.stats_agg(_ds(sf_dir, "lineitem"), "l_returnflag", "l_extendedprice")
    for c in ("sum_v", "avg_v"):
        out[c] = round_half_away(out[c], 2)
    return out


def agg_extended_stats(sf_dir: str):
    out = A.extended_stats(_ds(sf_dir, "lineitem"), "l_returnflag", "l_quantity")
    for c in ("s", "s2", "avg_v", "variance", "std_dev"):
        out[c] = round_half_away(out[c], 4)
    return out[["l_returnflag", "cnt", "avg_v", "variance", "std_dev"]]


def agg_cardinality(sf_dir: str):
    return A.value_count_distinct(
        _ds(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id")


def agg_cardinality_hll(sf_dir: str):
    est = A.cardinality_hll(_ds(sf_dir, "events"), "user_id")
    return pd.DataFrame({"cardinality": [round(est)]})


def agg_percentiles(sf_dir: str):
    qs = A.percentiles(_ds(sf_dir, "events"), "value", [0.5, 0.9, 0.99])
    return pd.DataFrame({"q": [0.5, 0.9, 0.99], "value": [float(round_half_away(v, 2)) for v in qs]})


def agg_composite(sf_dir: str):
    return A.composite_agg(_ds(sf_dir, "documents"), ["lang", "source"])


def agg_top_hits(sf_dir: str):
    """field-collapse: best doc per lang by (n_chars desc, doc_id asc)."""

    def head(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(1)

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = ds.groupby("lang").map_groups(head, batch_format="pandas").to_pandas()
    return out.sort_values("lang").reset_index(drop=True)[["lang", "doc_id", "n_chars"]]


def agg_cumsum(sf_dir: str):
    out = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.cumulative_sum(out, "doc_count")
    return out[["bucket", "doc_count", "cumulative"]]


def agg_derivative(sf_dir: str):
    out = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.derivative(out, "doc_count")
    out["deriv"] = out["deriv"].fillna(0).astype(np.int64)
    return out[["bucket", "doc_count", "deriv"]]


def agg_moving_avg(sf_dir: str):
    out = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.moving_avg(out, "doc_count", window=3)
    out["moving_avg"] = round_half_away(out["moving_avg"], 4)
    return out[["bucket", "doc_count", "moving_avg"]]


def agg_weighted_avg(sf_dir: str):
    """weighted_avg metric agg: sum(price*qty)/sum(qty) via batch partials."""
    ds = _ds(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        p = t["l_extendedprice"].to_numpy()
        q = t["l_quantity"].to_numpy()
        return pa.table({"wsum": pa.array([float((p * q).sum())]),
                         "w": pa.array([float(q.sum())])})

    from ray.data.aggregate import Sum

    red = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("wsum", alias_name="wsum"), Sum("w", alias_name="w")
    )
    return pd.DataFrame({"weighted_avg": [float(round_half_away(red["wsum"] / red["w"], 4))]})


def agg_user_window(sf_dir: str):
    """tumbling-window count per user (streaming-shaped workload §2.12):
    1-day windows keyed by user_id."""
    from ray.data.aggregate import Count

    import pyarrow.compute as pc

    def bucketize(t: pa.Table) -> pa.Table:
        # int64 epoch keys through the shuffle (see aggs.date_histogram)
        b = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        return t.append_column("bucket", b)

    out = (
        _ds(sf_dir, "events", ["user_id", "ts"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby(["user_id", "bucket"])
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
    )
    out["bucket"] = pd.to_datetime(out["bucket"], unit="us")
    return out.sort_values(["user_id", "bucket"]).reset_index(drop=True)


def range_agg(sf_dir: str):
    """range + filter then terms agg (bool.filter -> aggregation pattern)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Sum

    ds = _ds(sf_dir, "lineitem", ["l_quantity", "l_shipdate", "l_returnflag",
                                  "l_extendedprice"])

    def filt(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.greater_equal(t["l_quantity"], 10.0), pc.less(t["l_quantity"], 20.0)),
            pc.less(t["l_shipdate"], pa.scalar(np.datetime64("1996-01-01", "us"))),
        )
        return t.filter(m)

    out = (
        ds.map_batches(filt, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Count(alias_name="doc_count"),
                   Sum("l_extendedprice", alias_name="revenue"))
        .to_pandas()
    )
    out["revenue"] = round_half_away(out["revenue"], 2)
    return out.sort_values("l_returnflag").reset_index(drop=True)


def search_after_orders(sf_dir: str):
    """search_after pagination: orders below cursor (50000.0, totalprice desc,
    orderkey asc), page of 20."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def filt(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["o_totalprice"], 50000.0))

    out = (
        ds.map_batches(filt, batch_format="pyarrow")
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    out["o_totalprice"] = round_half_away(out["o_totalprice"], 2)
    return out


def update_old_new(sf_dir: str):
    """fork delta (§2.11): upsert response carrying req_old_source /
    req_new_source — uppercase `lang` for doc_id < 50, emit old+new."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])

    def upd(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["doc_id"], 50))
        return pa.table({
            "doc_id": t["doc_id"],
            "old_lang": t["lang"],
            "new_lang": pc.utf8_upper(t["lang"]),
        })

    return ds.map_batches(upd, batch_format="pyarrow").sort("doc_id")


# ---------------- dedup / text analysis family ----------------


def dedup_exact(sf_dir: str):
    """Exact dedup via the task-exchange path (functions/dedup.py
    exact_dedup_tasks — per-fragment hash+min-id combine, num_returns
    bucket exchange; champions only cross the wire). The Dataset-groupby
    twin D.exact_dedup is kept as the semantic reference and
    equivalence-tested (test_dedup_task_twin_equivalence)."""
    out = D.exact_dedup_tasks(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
    ids = out.select_columns(["doc_id"]).to_pandas()
    return ids.sort_values("doc_id").reset_index(drop=True)


def dedup_minhash(sf_dir: str):
    return D.minhash_dedup(_ds(sf_dir, "documents", ["doc_id", "text"]), threshold=0.8)


def dedup_simhash(sf_dir: str):
    return D.simhash_pairs(_ds(sf_dir, "documents", ["doc_id", "text"]), max_hamming=3)


def dedup_ngram_jaccard(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (J >= 0.5, k=5), prefix-filtered
    distributed self-join (functions/dedup.py ngram_jaccard_pairs). Bounded
    to doc_id < 600 so the O(n^2) DuckDB brute-force oracle stays tractable
    at every sf (covers the whole table at sf0.01); the operator itself is
    the scale path. Reference analog: the min_hash token filter's Jaccard
    semantics (CommonAnalysisPlugin.java:271) made a first-class exact op."""
    import pyarrow.compute as pc

    return _jaccard_pairs_600(sf_dir)


_JPAIRS: dict[str, "pd.DataFrame"] = {}


def _jaccard_pairs_600(sf_dir: str):
    """Shared exact Jaccard pair set (doc_id < 600, t=0.5, k=5) — computed
    once per sf_dir; dedup_ngram_jaccard, dedup_components and
    dedup_keep_one all consume the identical pair set, so the expensive
    prefix-filtered self-join runs once per session (searcher-cache
    idiom)."""
    import pyarrow.compute as pc

    if sf_dir not in _JPAIRS:
        ds = _ds(sf_dir, "documents", ["doc_id", "text"],
                 flt=pc.field("doc_id") < 600)
        _JPAIRS[sf_dir] = D.ngram_jaccard_pairs(ds, threshold=0.5,
                                                shingle_k=5)
    return _JPAIRS[sf_dir]


def dedup_minhash_exact(sf_dir: str):
    """MinHash+LSH near-dedup with an EXACT DuckDB oracle: the full
    shingle-hash -> (a*x+b) mod 2^64 signature -> banded-bucket candidate ->
    Jaccard-verify -> union-find pipeline is re-derived as HUGEINT SQL in
    __ray_entry__ (the sibling `dedup_minhash` gate runs the production
    128-perm config unbounded as rows-only). Bounded to doc_id < 600 and
    num_perm=32/bands=8 so the 2^64-modular SQL twin stays ~10 s per sf;
    recall at the planted-dup J >= 0.93 is still 1 - (1-J^4)^8 ~ 1."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 600)
    return D.minhash_dedup(ds, threshold=0.8, num_perm=32, bands=8)


def dedup_simhash_exact(sf_dir: str):
    """SimHash near-dup with an EXACT DuckDB oracle: shingle hashes, the
    64-bit sign-of-sums simhash and pairwise hamming <= 3 are re-derived in
    SQL (BIGINT shifts over 32-bit halves of the mod-2^64 rolling hash).
    The quarter-pigeonhole bucketing is LOSSLESS for <= 3 differing bits,
    so the distributed path's pair set equals the brute-force pair set by
    construction — the oracle checks exactly that. Bounded to doc_id < 600
    (O(n^2 x 64) SQL); the sibling `dedup_simhash` runs unbounded."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 600)
    return D.simhash_pairs(ds, max_hamming=3)


def dedup_embedding(sf_dir: str):
    return D.embedding_dedup_pairs(_ds(sf_dir, "embeddings"), threshold=0.4)


def knn_bruteforce(sf_dir: str):
    import pyarrow.dataset as pads

    qids = [0, 1, 2]
    t = _qvecs(sf_dir, ids=qids)
    vecs = {int(i): v for i, v in zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist())}
    Q = np.array([vecs[q] for q in qids])
    out = S.knn_brute_force(_ds(sf_dir, "embeddings"), Q, k=5, dtype=np.float64)
    return out[["query_id", "vec_id", "cosine"]]


def knn_lsh(sf_dir: str):
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    return S.knn_lsh(_ds(sf_dir, "embeddings"), Q, k=5, n_planes=6)


def text_token_count(sf_dir: str):
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(T.token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "ws_tokens", "bpe_tokens"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def text_quality(sf_dir: str):
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(T.quality_score_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "alpha_ratio", "space_ratio", "stop_ratio",
                         "mean_tok_len"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def text_lang_id(sf_dir: str):
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(T.lang_id_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "lang", "pred_lang", "lang_score"])
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def text_fingerprint(sf_dir: str):
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(T.fingerprint_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
        .to_pandas()
    )
    # two's-complement int64 view of the uint64 hash: the DuckDB oracle
    # re-derives the winnowed Karp-Rabin hash in HUGEINT and emits BIGINT,
    # so both sides compare in one signed dtype
    out["fingerprint"] = out["fingerprint"].to_numpy().astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def top_terms(sf_dir: str):
    """significant/terms-agg over analyzed text: global top 20 terms by
    total occurrences (pre-aggregated per batch, tiny final groupby)."""
    out = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple)
    out = out.sort_values(["cnt", "term"], ascending=[False, True]).head(20)
    return out.reset_index(drop=True)


def multimodal_image_meta(sf_dir: str):
    """multimodal image decode: REAL 24-bit BMP parsing (numpy-only codec)
    over an actor-pool stage -> typed (width, height, mean_pixel) metadata."""
    import ray.data as rd

    from ..functions.multimodal import ImageDecodeStage, make_media_table

    media = make_media_table(64, "image", seed=7)
    ds = _split2(rd.from_arrow(media))
    out = ds.map_batches(
        ImageDecodeStage,
        max_restarts=0,
        batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
    ).to_pandas()
    out["mean_pixel"] = round_half_away(out["mean_pixel"], 3)
    return out.sort_values("id").reset_index(drop=True)


def _split2(ds):
    """from_arrow yields one block; split so a 2-actor pool has work for
    both actors (real inputs have many blocks — test-scale hygiene only)."""
    return ds.repartition(2)


def multimodal_image_resize(sf_dir: str):
    """REAL decode -> nearest-neighbor resize -> re-encode -> re-decode
    verification of dims and payload size."""
    import ray.data as rd

    from ..functions.multimodal import (
        ImageDecodeStage,
        ImageResizeStage,
        make_media_table,
    )

    ds = _split2(rd.from_arrow(make_media_table(32, "image", seed=11)))
    resized = ds.map_batches(
        ImageResizeStage, fn_constructor_kwargs={"width": 32, "height": 24},
        max_restarts=0,
        batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
    )
    meta = resized.map_batches(ImageDecodeStage, batch_format="pyarrow",
                               max_restarts=0,
                               batch_size=16, concurrency=(1, 2)).to_pandas()
    meta["mean_pixel"] = round_half_away(meta["mean_pixel"], 3)
    return meta.sort_values("id").reset_index(drop=True)


def multimodal_audio_features(sf_dir: str):
    """REAL PCM-WAV decode -> framed RMS energy features + duration."""
    import ray.data as rd

    from ..functions.multimodal import AudioFeatureStage, make_media_table

    ds = _split2(rd.from_arrow(make_media_table(48, "audio", seed=5)))
    out = ds.map_batches(AudioFeatureStage, fn_constructor_kwargs={"frame": 512},
                         max_restarts=0, batch_format="pyarrow",
                         batch_size=16, concurrency=(1, 2)).to_pandas()
    out["n_feats"] = out.features.map(len)
    out["energy"] = round_half_away(
        out.features.map(lambda f: float(np.mean(f)) if len(f) else 0.0), 5)
    out["duration_s"] = round_half_away(out["duration_s"], 4)
    return (out.sort_values("id").reset_index(drop=True)
            [["id", "n_feats", "energy", "duration_s"]])


def multimodal_video_frames(sf_dir: str):
    """REAL frame sampling from the BMSQ frame-sequence container: evenly
    spaced frames sliced by header offsets, each verified BMP-decodable."""
    import ray.data as rd

    from ..functions.multimodal import (
        VideoFrameSampleStage,
        bmp_decode,
        make_media_table,
    )

    ds = _split2(rd.from_arrow(make_media_table(24, "video", seed=3)))
    frames = ds.map_batches(VideoFrameSampleStage,
                            max_restarts=0,
                            fn_constructor_kwargs={"n_frames": 3},
                            batch_format="pyarrow", batch_size=8,
                            concurrency=(1, 2)).to_pandas()
    dims = [bmp_decode(b).shape for b in frames.frame]
    frames["h"] = pd.array([d[0] for d in dims], dtype="int64")
    frames["w"] = pd.array([d[1] for d in dims], dtype="int64")
    return (frames.sort_values(["id", "frame_index"]).reset_index(drop=True)
            [["id", "frame_index", "h", "w"]])


# ---------------- extended query kinds (term-level + compound) ----------------


def ft_fuzzy(sf_dir: str):
    return all_matches(sf_dir, {"kind": "fuzzy", "term": "dataa", "fuzziness": 1},
                       with_score=False)


def ft_wildcard(sf_dir: str):
    return all_matches(sf_dir, {"kind": "wildcard", "pattern": "s?ow"}, with_score=False)


def ft_regexp(sf_dir: str):
    return all_matches(sf_dir, {"kind": "regexp", "pattern": "gro.p"}, with_score=False)


def ft_terms_set(sf_dir: str):
    return all_matches(sf_dir, {"kind": "terms_set",
                                "terms": ["data", "query", "vector"],
                                "minimum_should_match": 2})


def ft_dis_max(sf_dir: str):
    return all_matches(sf_dir, {"kind": "dis_max", "tie_breaker": 0.3,
                                "queries": [{"kind": "term", "term": "data"},
                                            {"kind": "term", "term": "query"}]})


def ft_constant_score(sf_dir: str):
    return all_matches(sf_dir, {"kind": "constant_score", "boost": 1.5,
                                "filter": {"kind": "term", "term": "vector"}})


def ft_boosting(sf_dir: str):
    return all_matches(sf_dir, {"kind": "boosting",
                                "positive": {"kind": "term", "term": "data"},
                                "negative": {"kind": "term", "term": "vector"},
                                "negative_boost": 0.5})


def ft_function_score(sf_dir: str):
    return all_matches(sf_dir, {"kind": "function_score",
                                "query": {"kind": "term", "term": "data"},
                                "field": "n_chars", "factor": 0.1,
                                "modifier": "log1p"})


def ft_script_score(sf_dir: str):
    """script_score (ScriptScoreQueryBuilder): rescale the inner BM25 score
    with an expression over docmeta fields."""
    return all_matches(sf_dir, {
        "kind": "script_score",
        "query": {"kind": "term", "term": "data"},
        "script": "_score / (1.0 + 0.01 * n_chars)"})


def ft_distance_feature(sf_dir: str):
    """distance_feature as a bool should-clause: proximity of n_chars to an
    origin adds boost*pivot/(pivot+|v-origin|)."""
    return all_matches(sf_dir, {
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "should": [{"kind": "distance_feature", "field": "n_chars",
                    "origin": 300, "pivot": 50, "boost": 2.0}]})


def ft_rank_feature(sf_dir: str):
    """rank_feature (saturation): adds boost * v/(v+pivot) per doc."""
    return all_matches(sf_dir, {
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "should": [{"kind": "rank_feature", "field": "n_chars",
                    "pivot": 300.0, "boost": 1.5}]})


def ft_more_like_this(sf_dir: str):
    from ..sources.reader import fetch_rows_by_doc_id

    # row-group-pruned point fetch of the example doc (never the whole table)
    like = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                                [42], columns=["doc_id", "text"])
    text = like["text"][0].as_py()
    return all_matches(sf_dir, {"kind": "more_like_this", "like": text,
                                "max_query_terms": 5, "exclude_doc": 42})


def ft_paginate(sf_dir: str):
    """from/size pagination (QueryPhase.java:178-179): page 2 of 20 by
    (score desc, doc_id asc)."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "match", "text": "data query"})
    order = np.lexsort((ids, -sc))[20:40]
    return pa.table({
        "doc_id": pa.array(ids[order]),
        "score": pa.array(round_half_away(sc[order], 4)),
    })


def ft_rescore(sf_dir: str):
    """rescore (search/rescore/QueryRescorer.java): top-50 of a term query
    re-ranked with a +2.0 bonus when the phrase 'data query' also matches."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "term", "term": "data"})
    order = np.lexsort((ids, -sc))[:50]
    ids, sc = ids[order], sc[order]
    p_ids, _ = s._eval({"kind": "match_phrase", "text": "data query"})
    idx = np.searchsorted(p_ids, ids)
    if p_ids.size:
        idx = np.minimum(idx, p_ids.size - 1)
        bonus = (p_ids[idx] == ids).astype(np.float64) * 2.0
    else:
        bonus = np.zeros(ids.size)
    final = sc + bonus
    out_order = np.argsort(ids, kind="stable")
    return pa.table({
        "doc_id": pa.array(ids[out_order]),
        "score": pa.array(round_half_away(final[out_order], 4)),
    })


# ---------------- extended aggregations ----------------


def agg_rare_terms(sf_dir: str):
    """rare_terms agg (bucket/terms/rare_terms, cuckoo-filtered in the
    reference): terms with global df <= 3."""
    out = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple,
                      distinct=True).rename(columns={"cnt": "df"})
    out = out[out["df"] <= 30].sort_values("term").reset_index(drop=True)
    return out


def agg_missing(sf_dir: str):
    """`missing` bucket agg (bucket/missing/MissingAggregator.java): per-source
    count of docs whose (ingest-nullified) lang is null."""
    import pyarrow.compute as pc

    def nullify(t: pa.Table) -> pa.Table:
        lang = pc.if_else(pc.equal(t["lang"], "zh"),
                          pa.scalar(None, pa.string()), t["lang"])
        return pa.table({"source": t["source"], "lang": lang})

    ds = _ds(sf_dir, "documents", ["source", "lang"]).map_batches(
        nullify, batch_format="pyarrow")
    return A.missing_agg(ds, "source", "lang")


def agg_global(sf_dir: str):
    """`global` agg (bucket/global/GlobalAggregator.java): an agg scoped to
    ALL docs alongside the same agg inside the query scope (lang='en')."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Mean

    ds = _ds(sf_dir, "documents", ["n_chars", "lang"])
    g = ds.aggregate(Count(alias_name="doc_count"), Mean("n_chars", alias_name="avg_chars"))
    q = (
        ds.map_batches(lambda t: t.filter(pc.equal(t["lang"], "en")),
                       batch_format="pyarrow")
        .aggregate(Count(alias_name="doc_count"), Mean("n_chars", alias_name="avg_chars"))
    )
    return pd.DataFrame({
        "scope": ["global", "query"],
        "doc_count": [g["doc_count"], q["doc_count"]],
        "avg_chars": [float(round_half_away(g["avg_chars"], 4)),
                      float(round_half_away(q["avg_chars"], 4))],
    })


def agg_mad(sf_dir: str):
    """median_absolute_deviation, computed exactly via two distributed
    sort-based median passes (oracle: median(abs(x - median(x))))."""
    v = A.median_absolute_deviation(_ds(sf_dir, "events", ["value"]), "value")
    return pd.DataFrame({"mad": [float(round_half_away(v, 4))]})


def agg_terms_shard_error(sf_dir: str):
    """terms agg with sharded collection and doc_count_error_upper_bound
    (bucket/terms/InternalTerms.java:47,195): each shard returns its top
    shard_size buckets; a bucket's error bound is the sum of the smallest
    returned count over shards that did NOT report it."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def shard_of(t: pa.Table) -> pa.Table:
        return pa.table({
            "shard": pc.cast(pc.bit_wise_and(t["user_id"], 3), pa.int32()),
            "event_type": t["event_type"],
        })

    # distributed per-shard counts; the coordinator reduce below works on the
    # tiny (n_shards x n_terms) summary only
    per = (
        _ds(sf_dir, "events", ["user_id", "event_type"])
        .map_batches(shard_of, batch_format="pyarrow")
        .groupby(["shard", "event_type"])
        .aggregate(Count(alias_name="cnt"))
        .to_pandas()
    )
    shard_size, size = 2, 3
    kept = (
        per.sort_values(["cnt", "event_type"], ascending=[False, True])
        .groupby("shard", as_index=False).head(shard_size)
    )
    last = kept.groupby("shard")["cnt"].min()
    terms = sorted(kept.event_type.unique())
    rows = []
    for term in terms:
        mine = kept[kept.event_type == term]
        have = set(mine.shard)
        err = int(sum(last[s] for s in last.index if s not in have))
        rows.append((term, int(mine.cnt.sum()), err))
    out = pd.DataFrame(rows, columns=["event_type", "doc_count",
                                      "doc_count_error_upper_bound"])
    return (out.sort_values(["doc_count", "event_type"], ascending=[False, True])
            .head(size).reset_index(drop=True))


def agg_significant_text(sf_dir: str):
    """significant_text (bucket/significant/SignificantTextAggregator.java):
    re-analyzes the text field; foreground = docs matching the query term
    'data'; JLH scoring over distinct-per-doc terms."""
    red = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple,
                      distinct=True, fg=_has_term("data")).rename(
        columns={"cnt": "bg_df", "fg": "fg_df"})
    # fg_n = every foreground doc contains the query term itself
    fg_n = int(red.loc[red.term == "data", "fg_df"].iloc[0])
    bg_n = _ds(sf_dir, "documents", ["doc_id"]).count()
    red = red[red.fg_df >= 5].copy()
    fgp = red.fg_df / fg_n
    bgp = red.bg_df / bg_n
    red["score"] = round_half_away((fgp - bgp) * (fgp / bgp), 6)
    red = red.sort_values(["score", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "score"]]


def agg_significant_terms(sf_dir: str):
    """significant_terms with the JLH heuristic
    (bucket/significant/heuristics/JLHScore.java): foreground = lang='zh',
    background = all docs; score = (fg% - bg%) * (fg% / bg%)."""
    red, fg_n, bg_n = _significant_dfs(sf_dir)
    red = red[red.fg_df >= 5].copy()
    fgp = red.fg_df / fg_n
    bgp = red.bg_df / bg_n
    red["score"] = round_half_away((fgp - bgp) * (fgp / bgp), 6)
    red = red.sort_values(["score", "term"], ascending=[False, True]).head(10)
    return red[["term", "fg_df", "bg_df", "score"]].reset_index(drop=True)


def agg_filters(sf_dir: str):
    """filters agg (bucket/filters): named predicate buckets in one pass via
    per-batch partial counts."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        return pa.table({
            "name": ["big", "small", "mid"],
            "doc_count": pa.array([int((v >= 100).sum()), int((v < 10).sum()),
                                   int(((v >= 10) & (v < 100)).sum())], pa.int64()),
        })

    out = (
        _ds(sf_dir, "events", ["value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("name")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("name").reset_index(drop=True)


def terms_lookup(sf_dir: str):
    """terms-lookup semi-join (TermsQueryBuilder.java:439-474): fetch the
    small key set (high-value purchasers), broadcast it, filter + count."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    ds = _ds(sf_dir, "events", ["user_id", "event_type", "value"])
    small = ds.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["event_type"], "purchase"),
                                   pc.greater(t["value"], 240.0))),
        batch_format="pyarrow",
    ).select_columns(["user_id"]).to_pandas()  # genuinely small side -> driver
    keys = pa.array(sorted(set(small["user_id"])), pa.int64())

    out = (
        ds.map_batches(lambda t: t.filter(pc.is_in(t["user_id"], value_set=keys)),
                       batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("user_id").reset_index(drop=True)


def ingest_extract(sf_dir: str):
    """ingest `json` processor over the events props column -> typed field."""
    from ..functions import ingest as I

    ds = _ds(sf_dir, "events", ["event_id", "props"])
    pipe = I.pipeline(I.json_parse("props", "k", "k_val"))
    out = (
        ds.map_batches(pipe, batch_format="pyarrow")
        .select_columns(["event_id", "k_val"])
        .to_pandas()
    )
    out["k_val"] = out["k_val"].astype(np.int64)
    return out.sort_values("event_id").reset_index(drop=True)


# ---------------- span / prefix-phrase / query-string / matrix ----------------


def ft_span_near(sf_dir: str):
    return all_matches(sf_dir, {"kind": "span_near", "terms": ["data", "query"],
                                "slop": 2, "in_order": True}, with_score=False)


def ft_span_or(sf_dir: str):
    """span_or (SpanOrQueryBuilder): union of sub-span matches."""
    return all_matches(sf_dir, {"kind": "span_or", "clauses": [
        {"kind": "span_term", "term": "spark"},
        {"kind": "span_term", "term": "vector"}]}, with_score=False)


def ft_span_first(sf_dir: str):
    """span_first (SpanFirstQueryBuilder): match spans ending within the
    first `end` positions."""
    return all_matches(sf_dir, {"kind": "span_first",
                                "match": {"kind": "span_term", "term": "data"},
                                "end": 5}, with_score=False)


def ft_span_not(sf_dir: str):
    """span_not (SpanNotQueryBuilder): 'data' occurrences not inside a
    "data query" phrase span."""
    return all_matches(sf_dir, {
        "kind": "span_not",
        "include": {"kind": "span_term", "term": "data"},
        "exclude": {"kind": "span_near", "terms": ["data", "query"],
                    "slop": 0, "in_order": True}}, with_score=False)


def ft_span_within(sf_dir: str):
    """span_within (SpanWithinQueryBuilder): 'query' occurrences inside an
    unordered data..table window (slop 4)."""
    return all_matches(sf_dir, {
        "kind": "span_within",
        "little": {"kind": "span_term", "term": "query"},
        "big": {"kind": "span_near", "terms": ["data", "table"],
                "slop": 4, "in_order": False}}, with_score=False)


def ft_search_analyzer(sf_dir: str):
    """search_analyzer mapping option (TextFieldMapper#searchAnalyzer /
    MappedFieldType searchAnalyzer): a QUERY-time-only analyzer override —
    here a search-time synonym 'rapid => fast' makes the query 'rapid'
    score documents exactly as the query 'fast' would, with the index
    tokens untouched (the classic search-time-synonym configuration)."""
    from functools import partial

    from ..analyzer import register_analyzer
    from ..filters import make_analyzer_fn, synonym_filter
    from ..search.engine import IndexSearcher
    from .fulltext import K1, B, documents_index

    register_analyzer("search_syn_rapid", make_analyzer_fn(
        token_filters=[partial(synonym_filter,
                               mapping={"rapid": "fast"})]))
    s = IndexSearcher(documents_index(sf_dir), score_mode="exact64",
                      k1=K1, b=B, main_field="text",
                      search_analyzers={None: "search_syn_rapid"})
    ids, sc = s._eval({"kind": "match", "text": "rapid"})
    order = np.argsort(ids)
    return pa.table({
        "doc_id": pa.array(ids[order]),
        "score": pa.array(round_half_away(sc[order].astype(np.float64), 4)),
    })


def ft_span_containing(sf_dir: str):
    """span_containing (SpanContainingQueryBuilder) composed under
    span_first: data..table windows (slop 4, unordered) that contain
    'query' AND whose BIG span ends within the first 12 positions —
    filtering on the big span's boundary distinguishes containing (returns
    the big span) from within (returns the little span)."""
    return all_matches(sf_dir, {
        "kind": "span_first",
        "match": {"kind": "span_containing",
                  "little": {"kind": "span_term", "term": "query"},
                  "big": {"kind": "span_near", "terms": ["data", "table"],
                          "slop": 4, "in_order": False}},
        "end": 12}, with_score=False)


def ft_phrase_prefix(sf_dir: str):
    return all_matches(sf_dir, {"kind": "match_phrase_prefix", "text": "data quer"},
                       with_score=False)


def ft_query_string(sf_dir: str):
    return all_matches(sf_dir, {"kind": "simple_query_string",
                                "query": "data query -vector"})


def ft_query_string_adv(sf_dir: str):
    """Full query_string grammar (QueryStringQueryBuilder.java): AND upgrades
    operands to MUST, parenthesised group, NOT/- prohibition, prefix term."""
    return all_matches(sf_dir, {"kind": "query_string",
                                "query": "data AND (window OR merge) -vector quer*"})


def ft_exists(sf_dir: str):
    """exists query (ExistsQueryBuilder.java) in filter context."""
    q = {"kind": "bool",
         "must": [{"kind": "term", "term": "data"}],
         "filter": [{"kind": "exists", "field": "lang"}]}
    return all_matches(sf_dir, q)


def ft_multi_match_best(sf_dir: str):
    """multi_match best_fields over the two indexed fields (text + source):
    dis_max of per-field matches with tie_breaker
    (index/search/MultiMatchQuery.java)."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data src3",
        "fields": ["text", "source"], "type": "best_fields", "tie_breaker": 0.3})


def ft_multi_match_most(sf_dir: str):
    """multi_match most_fields: sum of per-field match scores."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data src3",
        "fields": ["text", "source"], "type": "most_fields"})


def agg_adjacency_matrix(sf_dir: str):
    """adjacency_matrix agg (bucket/adjacency): counts for each filter and
    each pairwise intersection."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        et = np.asarray(t["event_type"])
        a = v >= 100
        b = et == "click"
        return pa.table({
            "key": ["big", "big&click", "click"],
            "doc_count": pa.array([int(a.sum()), int((a & b).sum()), int(b.sum())],
                                  pa.int64()),
        })

    out = (
        _ds(sf_dir, "events", ["value", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("key").reset_index(drop=True)


def agg_date_range(sf_dir: str):
    """date_range agg: named half-open ranges over ts."""
    from ray.data.aggregate import Sum

    lo = np.datetime64("2024-01-10", "us")
    hi = np.datetime64("2024-01-20", "us")

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy()
        return pa.table({
            "range_key": ["early", "late", "mid"],
            "doc_count": pa.array([int((ts < lo).sum()), int((ts >= hi).sum()),
                                   int(((ts >= lo) & (ts < hi)).sum())], pa.int64()),
        })

    out = (
        _ds(sf_dir, "events", ["ts"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("range_key")
        .aggregate(Sum("doc_count", alias_name="doc_count"))
        .to_pandas()
    )
    return out.sort_values("range_key").reset_index(drop=True)


def agg_matrix_stats(sf_dir: str):
    """matrix_stats (modules/aggs-matrix-stats): covariance + correlation of
    (l_quantity, l_extendedprice) via mergeable moment partials."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy().astype(np.float64)
        y = t["l_extendedprice"].to_numpy().astype(np.float64)
        return pa.table({
            "n": pa.array([float(x.size)]), "sx": pa.array([x.sum()]),
            "sy": pa.array([y.sum()]), "sxx": pa.array([(x * x).sum()]),
            "syy": pa.array([(y * y).sum()]), "sxy": pa.array([(x * y).sum()]),
        })

    r = (
        _ds(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")])
    )
    n = r["n"]
    cov = r["sxy"] / n - (r["sx"] / n) * (r["sy"] / n)
    vx = r["sxx"] / n - (r["sx"] / n) ** 2
    vy = r["syy"] / n - (r["sy"] / n) ** 2
    corr = cov / np.sqrt(vx * vy)
    return pd.DataFrame({
        "covariance": [float(round_half_away(cov, 4))],
        "correlation": [float(round_half_away(corr, 6))],
    })


# ------------- nested docs / geo / sampler / misc (round 1c) -------------


def nested_query(sf_dir: str):
    """nested docs (SURVEY.md §2.7, ObjectMapper/NestedQueryBuilder analog):
    build users with a nested list<struct> events field (groupby + implode),
    then match users having ANY nested event with (event_type='purchase' AND
    value > 300) — per-element predicate over the list column (explode via
    value_parent_indices)."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "events", ["user_id", "event_type", "value"])

    def implode(t: pa.Table) -> pa.Table:
        # Arrow-native implode: one ListArray<struct> over the whole group
        # batch (groups arrive contiguous), no per-row Python dicts
        ev = pa.StructArray.from_arrays(
            [t["event_type"].combine_chunks() if isinstance(t["event_type"], pa.ChunkedArray) else t["event_type"],
             t["value"].combine_chunks() if isinstance(t["value"], pa.ChunkedArray) else t["value"]],
            names=["event_type", "value"],
        )
        uid = t["user_id"].to_numpy()
        cuts = np.concatenate([[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1,
                               [uid.size]])
        lst = pa.ListArray.from_arrays(pa.array(cuts, pa.int32()), ev)
        return pa.table({"user_id": pa.array(uid[cuts[:-1]]), "events": lst})

    nested = ds.groupby("user_id").map_groups(implode, batch_format="pyarrow")

    def nested_match(t: pa.Table) -> pa.Table:
        col = t["events"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten()  # struct array of all nested events
        parents = pc.list_parent_indices(col)
        hit = pc.and_(
            pc.equal(pc.struct_field(flat, "event_type"), "purchase"),
            pc.greater(pc.struct_field(flat, "value"), 300.0),
        )
        hit_parents = np.unique(np.asarray(parents)[np.asarray(hit)])
        return t.select(["user_id"]).take(pa.array(hit_parents))

    out = nested.map_batches(nested_match, batch_format="pyarrow").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def ft_search_as_you_type(sf_dir: str):
    """search_as_you_type (SearchAsYouTypeFieldMapper shape): the text field
    carries a shingle `_2gram` subfield with its own analyzer; the partial
    input 'data qu' matches via a PREFIX query against the bigram dictionary
    (the bool_prefix completion path)."""
    return all_matches(sf_dir, {"kind": "prefix", "field": "text_2gram",
                                "prefix": "data qu"}, with_score=False)


def ft_span_masked(sf_dir: str):
    """span_field_masking: a source-field span composes with a text-field
    span under span_or."""
    return all_matches(sf_dir, {
        "kind": "span_or",
        "clauses": [
            {"kind": "span_term", "term": "vector"},
            {"kind": "span_field_masking", "field": "source",
             "query": {"kind": "span_term", "term": "src3"}},
        ]}, with_score=False)


def agg_significant_chi2(sf_dir: str):
    """significant_terms with the chi_square heuristic
    (significant/heuristics/ChiSquare.java analog): standard 2x2 contingency
    chi-square over (in-foreground, contains-term); fg = lang='zh'."""
    red, fg_n, bg_n = _significant_dfs(sf_dir)
    a = red.fg_df.astype(float)
    b = fg_n - a
    c = red.bg_df.astype(float) - a
    d = (bg_n - fg_n) - c
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    red["chi2"] = round_half_away(
        np.where(denom > 0, bg_n * (a * d - b * c) ** 2 / np.where(denom > 0, denom, 1), 0.0), 6)
    red = red[red.fg_df >= 5]
    red = red.sort_values(["chi2", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "chi2"]]


def ft_count(sf_dir: str):
    """`_count` API analog (RestCountAction / query-level hit counting):
    the match count of a bool query, no fetch phase."""
    s = documents_searcher(sf_dir)
    ids, _ = s._eval({
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "must_not": [{"kind": "term", "term": "vector"}],
    })
    return pa.table({"count": pa.array([int(ids.size)], pa.int64())})


def _significant_dfs(sf_dir: str):
    """(reduced term table with fg_df/bg_df, fg_n, bg_n) shared by the
    significance-heuristic gates (fg = lang='zh') — per-batch term-df
    partials + one small groupby (the shard-local collect + final reduce
    shape)."""
    red = count_terms(_ds(sf_dir, "documents", ["lang", "text"]),
                      analyze_simple, distinct=True, fg=_lang_is("zh"))
    red = red.rename(columns={"cnt": "bg_df", "fg": "fg_df"})
    import pyarrow.dataset as pads

    meta = pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["lang"])
    fg_n = int((np.asarray(meta["lang"]) == "zh").sum())
    return red, fg_n, len(meta)


def agg_significant_mi(sf_dir: str):
    """significant_terms with the mutual_information heuristic
    (significant/heuristics/MutualInformation.java analog): 2x2 pointwise
    MI sum over (in-foreground x contains-term), log2, with the
    includeNegatives=true convention (sign from whether the term is
    over-represented in the foreground). fg = lang='zh'."""
    red, fg_n, bg_n = _significant_dfs(sf_dir)
    N = float(bg_n)
    a = red.fg_df.astype(float)            # fg & term
    b = float(fg_n) - a                    # fg & !term
    c = red.bg_df.astype(float) - a        # !fg & term
    d = (N - fg_n) - c                     # !fg & !term

    def cell(nxy, nx, ny):
        # ln/ln2 instead of np.log2 so the SQL oracle (ln(x)/ln(2))
        # reproduces the exact float64 value
        p = nxy / N
        px, py = nx / N, ny / N
        with np.errstate(divide="ignore", invalid="ignore"):
            v = p * (np.log(p / (px * py)) / np.log(2.0))
        return np.where((nxy > 0) & (px > 0) & (py > 0), v, 0.0)

    term_n = a + c
    noterm_n = b + d
    mi = (cell(a, fg_n, term_n) + cell(b, fg_n, noterm_n)
          + cell(c, N - fg_n, term_n) + cell(d, N - fg_n, noterm_n))
    sign = np.where(a / np.maximum(term_n, 1) > b / np.maximum(noterm_n, 1),
                    1.0, -1.0)
    red["mi"] = round_half_away(sign * mi, 6)
    red = red[red.fg_df >= 5]
    red = red.sort_values(["mi", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "mi"]]


def agg_significant_percentage(sf_dir: str):
    """significant_terms with the percentage heuristic
    (significant/heuristics/PercentageScore.java): score = subsetFreq /
    supersetFreq — the share of a term's docs that are in the foreground."""
    red, fg_n, bg_n = _significant_dfs(sf_dir)
    red["pct"] = round_half_away(
        red.fg_df.astype(float) / red.bg_df.astype(float), 6)
    red = red[red.fg_df >= 5]
    red = red.sort_values(["pct", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "pct"]]


def geo_shape_envelope(sf_dir: str):
    """geo_shape query (INTERSECTS relation, envelope vs per-user box
    shapes): each user's shape is a box (lat±2, lon±2); query envelope is
    lat [-10,10] x lon [-20,20]; rectangles intersect iff both interval
    pairs overlap."""
    def filt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.column_names:
            # zero-row blocks from the groupby can arrive schema-less
            # (only visible at tiny scales with more blocks than users)
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "lat": pa.array([], pa.float64()),
                             "lon": pa.array([], pa.float64())})
        g = _geo_cols(t)
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        keep = ((lat - 2 <= 10) & (lat + 2 >= -10)
                & (lon - 2 <= 20) & (lon + 2 >= -20))
        return g.select(["user_id", "lat", "lon"]).filter(pa.array(keep))

    users = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")
    out = users.map_batches(filt, batch_format="pyarrow").to_pandas()
    if out.empty and "user_id" not in out.columns:
        # an all-empty dataset loses its schema through to_pandas —
        # only reachable when NO user matches (tiny scales)
        out = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                            "lat": pd.Series([], dtype=np.float64),
                            "lon": pd.Series([], dtype=np.float64)})
    return out.sort_values("user_id").reset_index(drop=True)


_SORTED_ORDERS_CACHE: dict[str, str] = {}


def index_sorted_pruning(sf_dir: str):
    """index sorting (index.sort.field analog): orders re-written SORTED by
    o_totalprice with small row groups, so a range filter's parquet
    row-group min/max stats prune most of the file at the read. Same result
    as the unsorted scan; the pruning itself is pinned by pytest."""
    path = _sorted_orders_path(sf_dir)
    import ray.data as rd

    ds = rd.read_parquet(path, columns=["o_orderkey", "o_totalprice"],
                         filter=(pads_field("o_totalprice") > 430000.0))
    out = ds.to_pandas()
    return pd.DataFrame({
        "doc_count": pd.array([len(out)], dtype="int64"),
        "min_v": [float(round_half_away(out.o_totalprice.min(), 2))],
    })


def pads_field(name):
    import pyarrow.dataset as pads

    return pads.field(name)


def _sorted_orders_path(sf_dir: str) -> str:
    import hashlib

    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "orders.parquet")
    tag = hashlib.sha1(f"{src}:{os.path.getmtime(src)}:sorted:v1".encode()).hexdigest()[:16]
    out = os.path.join("/tmp/esray_cache", f"orders_sorted_{tag}.parquet")
    if not os.path.exists(out):
        os.makedirs("/tmp/esray_cache", exist_ok=True)
        t = pq.read_table(src).sort_by([("o_totalprice", "ascending")])
        pq.write_table(t, out + ".tmp", row_group_size=2048)
        os.replace(out + ".tmp", out)
    return out


def agg_diversified_sampler(sf_dir: str):
    """diversified_sampler agg (bucket/sampler/DiversifiedAggregatorFactory):
    top-30 docs by n_chars with AT MOST 3 per lang (the de-duplicating
    diversity constraint the plain sampler lacks)."""
    def rank_in_lang(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).copy()
        g["lang_rank"] = range(1, len(g) + 1)
        return g.head(3)

    capped = (
        _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .groupby("lang")
        .map_groups(rank_in_lang, batch_format="pandas")
        .to_pandas()
    )
    out = (capped.sort_values(["n_chars", "doc_id"], ascending=[False, True])
           .head(30).reset_index(drop=True))
    return out[["doc_id", "lang", "n_chars", "lang_rank"]]


def mapping_infer(sf_dir: str):
    """dynamic mapping inference (_mapping API analog): Arrow schema +
    sampled cardinality -> ES field types for the documents table."""
    from ..sources.reader import infer_mapping

    m = infer_mapping(os.path.join(sf_dir, "documents.parquet"))
    items = sorted(m.items())
    return pd.DataFrame({"field": [k for k, _ in items],
                         "es_type": [v for _, v in items]})


def range_field_intersects(sf_dir: str):
    """range field type (RangeFieldMapper double_range) with an INTERSECTS
    query: each event carries the range [value, value+10]; match ranges
    intersecting the query range [100, 110]."""
    q_lo, q_hi = 100.0, 110.0

    def filt(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        r_lo, r_hi = v, v + 10.0
        keep = (r_lo <= q_hi) & (r_hi >= q_lo)
        return pa.table({
            "event_id": t["event_id"],
            "r_lo": pa.array(r_lo),
            "r_hi": pa.array(r_hi),
        }).filter(pa.array(keep))

    out = (
        _ds(sf_dir, "events", ["event_id", "value"])
        .map_batches(filt, batch_format="pyarrow")
        .to_pandas()
    )
    out["r_lo"] = round_half_away(out["r_lo"], 2)
    out["r_hi"] = round_half_away(out["r_hi"], 2)
    return out.sort_values("event_id").reset_index(drop=True)


def agg_moving_avg_ewma(sf_dir: str):
    """moving_avg `ewma` model over the daily histogram (MovAvgModel ewma:
    s_i = a*x_i + (1-a)*s_{i-1})."""
    base = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.moving_avg_ewma(base, "doc_count", alpha=0.3)
    out["ewma"] = round_half_away(out["ewma"], 4)
    return out[["bucket", "doc_count", "ewma"]]


def agg_moving_avg_holt(sf_dir: str):
    """moving_avg `holt` (double-exponential level+trend) model."""
    base = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.moving_avg_holt(base, "doc_count", alpha=0.3, beta=0.1)
    out["holt"] = round_half_away(out["holt"], 4)
    return out[["bucket", "doc_count", "holt"]]


def ft_script_query(sf_dir: str):
    """script query (ScriptQueryBuilder, filter context): docs where the
    docmeta expression is truthy."""
    return all_matches(sf_dir, {"kind": "script",
                                "script": "(n_chars > 300) & (n_chars < 400)"},
                       with_score=False)


def ft_span_multi(sf_dir: str):
    """span_multi wrapping a prefix query, composed under span_first: a
    wind*-prefixed term within the first 8 positions."""
    return all_matches(sf_dir, {
        "kind": "span_first",
        "match": {"kind": "span_multi",
                  "match": {"kind": "prefix", "prefix": "wind"}},
        "end": 8}, with_score=False)


def geo_polygon(sf_dir: str):
    """geo_polygon query (GeoPolygonQueryBuilder): point-in-convex-polygon
    via half-plane cross products over the synthetic user coordinates.
    Triangle (lon,lat): A(-60,-40) B(60,-30) C(0,70), counter-clockwise."""
    def filt(t: pa.Table) -> pa.Table:
        g = _geo_cols(t)
        x = g["lon"].to_numpy()
        y = g["lat"].to_numpy()
        ab = (60.0 - -60.0) * (y - -40.0) - (-30.0 - -40.0) * (x - -60.0)
        bc = (0.0 - 60.0) * (y - -30.0) - (70.0 - -30.0) * (x - 60.0)
        ca = (-60.0 - 0.0) * (y - 70.0) - (-40.0 - 70.0) * (x - 0.0)
        keep = (ab >= 0) & (bc >= 0) & (ca >= 0)
        return g.select(["user_id", "lat", "lon"]).filter(pa.array(keep))

    users = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")
    out = users.map_batches(filt, batch_format="pyarrow").to_pandas()
    if out.empty and "user_id" not in out.columns:
        # an all-empty dataset loses its schema through to_pandas —
        # only reachable when NO user matches (tiny scales)
        out = pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                            "lat": pd.Series([], dtype=np.float64),
                            "lon": pd.Series([], dtype=np.float64)})
    return out.sort_values("user_id").reset_index(drop=True)


def ingest_grok_kv(sf_dir: str):
    """grok + kv processors: synthesize a log line per event, parse it back
    with the kv processor and grok-extract the numeric id."""
    import pyarrow.compute as pc

    from ..functions import ingest as I

    def mk_line(t: pa.Table) -> pa.Table:
        line = pc.binary_join_element_wise(
            "type=", t["event_type"], " user=",
            pc.cast(t["user_id"], pa.string()), "")
        return pa.table({"event_id": t["event_id"], "line": line})

    pipe = I.pipeline(
        I.kv("line", " ", "=", out_prefix="kv_"),
        I.grok("line", r"user=%{INT:uid_str}"),
    )
    out = (
        _ds(sf_dir, "events", ["event_id", "event_type", "user_id"])
        .map_batches(mk_line, batch_format="pyarrow")
        .map_batches(pipe, batch_format="pyarrow")
        .to_pandas()
    )
    out = out[["event_id", "kv_type", "kv_user", "uid_str"]]
    return out.sort_values("event_id").reset_index(drop=True)


def ft_multi_match_cross(sf_dir: str):
    """multi_match cross_fields: term-centric — each analyzed term scores on
    its best field, summed across terms."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data src3",
        "fields": ["text", "source"], "type": "cross_fields"})


def ip_cidr_filter(sf_dir: str):
    """CIDR term filter on an `ip`-typed field (IpFieldMapper semantics):
    synthetic per-user IPv4, filter to 0.0.0.0/3 (v < 2^29)."""
    def bucketize(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy().astype(np.uint64)
        ip = (uid * np.uint64(2654435761)) % np.uint64(1 << 32)
        keep = ip < np.uint64(1 << 29)
        octets = np.stack([(ip >> np.uint64(s)) & np.uint64(255)
                           for s in (24, 16, 8, 0)], axis=1)
        dotted = np.array([".".join(map(str, o)) for o in octets], dtype=object)
        return pa.table({
            "user_id": t["user_id"],
            "ip": pa.array(dotted.astype(str)),
        }).filter(pa.array(keep))

    users = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")
    out = users.map_batches(bucketize, batch_format="pyarrow").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def ft_analyze_mapping(sf_dir: str):
    """mapping char filter: literal replacements before tokenization."""
    from ..analyzer import analyze_simple
    from ..filters import mapping_char_filter

    mapped = mapping_char_filter(
        "C++ and C# beat COBOL :-)",
        {"C++": "cplusplus", "C#": "csharp", ":-)": "smiley"})
    toks = analyze_simple(mapped)
    return pd.DataFrame({"position": pd.array(range(len(toks)), dtype="int64"),
                         "token": toks})


def ft_common_terms(sf_dir: str):
    """common terms query (CommonTermsQueryBuilder): 'a' is high-frequency at
    cutoff 0.5 (df/N > 0.5); docs must match the low-frequency term 'dup',
    'a' only adds score to those docs."""
    return all_matches(sf_dir, {"kind": "common", "text": "dup a",
                                "cutoff_frequency": 0.5})


def ft_matched_queries(sf_dir: str):
    """matched_queries fetch subphase (FetchPhase named-queries): each hit is
    annotated with the names of the bool should-clauses it matched."""
    from .fulltext import documents_searcher

    s = documents_searcher(sf_dir)
    named = {"has_window": {"kind": "term", "term": "window"},
             "has_merge": {"kind": "term", "term": "merge"}}
    out = s.matched_queries(named)
    return out.reset_index(drop=True)


def inner_hits(sf_dir: str):
    """inner_hits on the customer->orders join (InnerHitBuilder): for parents
    with c_acctbal > 9000, return their top-2 orders by totalprice."""
    import pyarrow.compute as pc
    import ray

    parents = (
        _ds(sf_dir, "customer", ["c_custkey", "c_acctbal"])
        .map_batches(lambda t: t.filter(pc.greater(t["c_acctbal"], 9000.0)),
                     batch_format="pyarrow")
        .select_columns(["c_custkey"]).to_pandas()
    )
    keyset = ray.put(set(parents.c_custkey.astype(int)))

    def pick(t: pa.Table) -> pa.Table:
        ks = ray.get(keyset)
        mask = pa.array([int(k) in ks for k in t["o_custkey"].to_pylist()])
        return t.filter(mask)

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True]).head(2).copy()
        g["hit_rank"] = range(1, len(g) + 1)
        return g

    out = (
        _ds(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(pick, batch_format="pyarrow")
        .groupby("o_custkey")
        .map_groups(top2, batch_format="pandas")
        .to_pandas()
    )
    out["o_totalprice"] = round_half_away(out["o_totalprice"], 2)
    return (out.sort_values(["o_custkey", "hit_rank"])
            .reset_index(drop=True)[["o_custkey", "hit_rank", "o_orderkey",
                                     "o_totalprice"]])


def ft_intervals_prefix(sf_dir: str):
    """intervals query with a prefix rule (IntervalsSourceProvider.Prefix)."""
    return all_matches(sf_dir, {"kind": "intervals",
                                "rule": {"prefix": {"prefix": "wind"}}},
                       with_score=False)


def ft_analyze_edge_ngram(sf_dir: str):
    """_analyze with an edge_ngram(2,4) token filter on a fixed string."""
    from collections import Counter

    from ..analyzer import analyze_simple
    from ..filters import edge_ngram_filter

    toks = edge_ngram_filter(analyze_simple("Data Query window2 merge"), 2, 4)
    c = Counter(toks)
    items = sorted(c.items())
    return pd.DataFrame({"token": [k for k, _ in items],
                         "cnt": pd.array([v for _, v in items], dtype="int64")})


def ft_analyze_shingle(sf_dir: str):
    """shingle token filter over the documents corpus: top-10 2-word shingles
    by occurrence (the phrase-suggester field shape). Distributed partials."""
    from ..filters import shingle_filter

    out = count_terms(_ds(sf_dir, "documents", ["text"]),
                      lambda s: shingle_filter(analyze_simple(s), 2, 2),
                      key="shingle")
    return (out.sort_values(["cnt", "shingle"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def ft_analyze_stemmer(sf_dir: str):
    """stemmer (porter) token filter over the corpus: top-10 stems by token
    count. Exact-oracled via the CV-mask Porter-in-SQL pipeline
    (lang/sql_oracle.porter_pipeline_ctes); the published Porter test
    vectors in pytest pin the algorithm independently."""
    from ..analyzer import analyze_english

    out = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_english,
                      key="stem")
    return (out.sort_values(["cnt", "stem"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def ft_analyze_synonym(sf_dir: str):
    """synonym token filter (replacement form): spark=>engine, big=>large;
    token counts for the mapped vocabulary."""
    from ..filters import synonym_filter

    syn = {"spark": "engine", "big": "large"}
    out = count_terms(
        _ds(sf_dir, "documents", ["text"]),
        lambda s: [tk for tk in synonym_filter(analyze_simple(s), syn)
                   if tk in ("engine", "large")],
        key="token")
    return out.sort_values("token").reset_index(drop=True)


def ft_analyze_ascii(sf_dir: str):
    """asciifolding char behavior on a fixed accented string."""
    from ..analyzer import analyze_simple
    from ..filters import asciifolding

    toks = analyze_simple(asciifolding("Café Müller naïve façade Crème brûlée"))
    return pd.DataFrame({"position": pd.array(range(len(toks)), dtype="int64"),
                         "token": toks})


def _phrase_lattice(sf_dir: str) -> list[tuple[str, float]]:
    """Phrase-suggester lattice for 'data sow qery', best first: per-slot
    candidates (vocabulary within 1 edit, top-5 by frequency) scored by a
    Laplace-smoothed bigram language model. Unigram and bigram counts come
    from one distributed count_terms pass (a bigram key is 'a b'; simple
    tokens never hold a space); only the lattice is scored on the driver."""
    import itertools

    from ..search.engine import levenshtein_vec

    def uni_bi(s: str) -> list[str]:
        toks = analyze_simple(s)
        return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]

    red = count_terms(_ds(sf_dir, "documents", ["text"]), uni_bi)
    pair = red["term"].str.contains(" ", regex=False).to_numpy()
    uni = dict(zip(red["term"][~pair], red["cnt"][~pair].tolist()))
    big = {tuple(k.split(" ")): c
           for k, c in zip(red["term"][pair], red["cnt"][pair].tolist())}
    V = len(uni)
    T = float(sum(uni.values()))
    vocab = np.array(sorted(uni), dtype=object)

    def candidates(token: str) -> list[str]:
        d = levenshtein_vec(token, vocab)
        cand = [(str(w), uni[str(w)]) for w, dd in zip(vocab, d) if dd <= 1]
        cand.sort(key=lambda x: (-x[1], x[0]))
        return [w for w, _ in cand[:5]]

    slots = [candidates(t) for t in ("data", "sow", "qery")]
    results = []
    for seq in itertools.product(*slots):
        score = np.log((uni[seq[0]] + 1.0) / (T + V))
        for a, b in zip(seq, seq[1:]):
            score += np.log((big.get((a, b), 0) + 1.0) / (uni[a] + V))
        results.append((" ".join(seq), float(round_half_away(float(score), 4))))
    results.sort(key=lambda x: (-x[1], x[0]))
    return results


def phrase_suggest(sf_dir: str):
    """phrase suggester (search/suggest/phrase/PhraseSuggester.java shape):
    per-slot candidate generation (vocabulary within 1 edit, top-5 by
    frequency) + bigram language-model rescoring with Laplace smoothing;
    returns the top-3 corrected phrases for 'data sow qery' (the middle
    token is ambiguous between slow/row, resolved by the bigram model)."""
    out = _phrase_lattice(sf_dir)[:3]
    return pd.DataFrame({"phrase": [p for p, _ in out],
                         "score": [s for _, s in out]})


def ft_suggest_collate(sf_dir: str):
    """phrase suggester `collate` (search/suggest/phrase/PhraseSuggester
    .java: each candidate correction is rendered into a collate query and
    executed against the index; with prune=true suggestions are kept and
    carry a collate_match flag instead of being dropped). Same candidate
    lattice + bigram-LM scoring as phrase_suggest, top-10, each collated
    with a match_phrase query. The collate probe is one tiny query per
    suggestion against the already-loaded searcher — at scale this is the
    suggester's query-then-prune round trip, not a corpus pass."""
    s = documents_searcher(sf_dir)
    phrases, scores, matched = [], [], []
    for phrase, sc in _phrase_lattice(sf_dir)[:10]:
        ids, _ = s._eval({"kind": "match_phrase", "text": phrase})
        phrases.append(phrase)
        scores.append(sc)
        matched.append(np.int64(1 if ids.size else 0))
    return pd.DataFrame({"phrase": phrases, "score": scores,
                         "collate_match": pd.array(matched, dtype="int64")})


def ft_highlight_unified(sf_dir: str):
    """unified-highlighter analog (subphase/highlight/UnifiedHighlighter):
    top-5 docs for the match, EVERY query-term occurrence wrapped in <em>,
    fragment = first 12 words of the wrapped text. Deterministic and
    oracle-checked (the plain highlighter op stays rows-only)."""
    import re

    from ..sources.reader import fetch_rows_by_doc_id
    from .fulltext import documents_searcher

    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "match", "text": "window merge", "k": 5})
    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               ids, columns=["doc_id", "text"])
    all_ids = src["doc_id"].to_numpy()
    idx = np.searchsorted(all_ids, ids)
    rx = re.compile(r"\b(window|merge)\b")
    frags = []
    for i in idx:
        wrapped = rx.sub(lambda m: f"<em>{m.group(0)}</em>", src["text"][int(i)].as_py())
        frags.append(" ".join(wrapped.split()[:12]))
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64)),
        "score": pa.array(round_half_away(sc.astype(np.float64), 4)),
        "highlight": pa.array(frags, pa.string()),
    })


def ft_wrapper(sf_dir: str):
    """wrapper query (WrapperQueryBuilder): base64-encoded JSON re-parsed at
    evaluation time; semantics identical to the wrapped term query."""
    import base64
    import json

    payload = base64.b64encode(
        json.dumps({"kind": "term", "term": "data"}).encode()).decode()
    return all_matches(sf_dir, {"kind": "wrapper", "query": payload})


def parent_id(sf_dir: str):
    """parent_id query (ParentIdQueryBuilder): children of one parent in the
    orders->customer join-field mapping."""
    import pyarrow.compute as pc

    out = (
        _ds(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(lambda t: t.filter(pc.equal(t["o_custkey"], 7)),
                     batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


def ft_scroll(sf_dir: str):
    """scroll API analog: deterministic deep pagination as repeated
    search_after passes (3 pages x 15) over (o_totalprice desc, key asc);
    each page's filter is pushed into the scan, no full-result collect."""
    import pyarrow.compute as pc

    pages = []
    cursor = None  # (last_price, last_key)
    for _ in range(3):
        def keep(t: pa.Table, cur=cursor) -> pa.Table:
            if cur is None:
                return t
            lp, lk = cur
            m = pc.or_(
                pc.less(t["o_totalprice"], lp),
                pc.and_(pc.equal(t["o_totalprice"], lp), pc.greater(t["o_orderkey"], lk)),
            )
            return t.filter(m)

        page = (
            _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
            .map_batches(keep, batch_format="pyarrow")
            .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
            .limit(15)
            .to_pandas()
        )
        if page.empty:
            break
        pages.append(page)
        cursor = (float(page.o_totalprice.iloc[-1]), int(page.o_orderkey.iloc[-1]))
    out = pd.concat(pages, ignore_index=True)
    out["o_totalprice"] = round_half_away(out["o_totalprice"], 2)
    return out


# ---------------- geo aggregations (synthetic per-user coordinates) --------


def agg_geo_bounds(sf_dir: str):
    """geo_bounds agg (metrics/GeoBoundsAggregator.java): bounding box of all
    user coordinates."""
    from ray.data.aggregate import Max, Min

    ds = _users_geo(sf_dir)
    r = ds.aggregate(Min("lat", alias_name="min_lat"), Max("lat", alias_name="max_lat"),
                     Min("lon", alias_name="min_lon"), Max("lon", alias_name="max_lon"))
    return pd.DataFrame({k: [float(round_half_away(v, 4))] for k, v in
                         [("min_lat", r["min_lat"]), ("max_lat", r["max_lat"]),
                          ("min_lon", r["min_lon"]), ("max_lon", r["max_lon"])]})


def agg_geo_centroid(sf_dir: str):
    """geo_centroid agg: arithmetic mean of coordinates."""
    from ray.data.aggregate import Mean

    ds = _users_geo(sf_dir)
    r = ds.aggregate(Mean("lat", alias_name="lat"), Mean("lon", alias_name="lon"))
    return pd.DataFrame({"lat": [float(round_half_away(r["lat"], 4))],
                         "lon": [float(round_half_away(r["lon"], 4))]})


def agg_geotile_grid(sf_dir: str):
    """geotile_grid agg (bucket/geogrid/GeoTileUtils.java formula): web-
    mercator z/x/y cells at zoom 3, doc_count per cell."""
    from ray.data.aggregate import Count

    z = 3
    n = 1 << z

    def tile(t: pa.Table) -> pa.Table:
        lat = t["lat"].to_numpy()
        lon = t["lon"].to_numpy()
        x = np.floor((lon + 180.0) / 360.0 * n).astype(np.int64)
        latr = np.radians(np.clip(lat, -85.05112878, 85.05112878))
        y = np.floor((1.0 - np.arcsinh(np.tan(latr)) / np.pi) / 2.0 * n).astype(np.int64)
        key = [f"{z}/{xi}/{yi}" for xi, yi in zip(np.clip(x, 0, n - 1), np.clip(y, 0, n - 1))]
        return pa.table({"cell": pa.array(key, pa.string())})

    out = (
        _users_geo(sf_dir).map_batches(tile, batch_format="pyarrow")
        .groupby("cell").aggregate(Count(alias_name="doc_count")).to_pandas()
    )
    return (out.sort_values(["doc_count", "cell"], ascending=[False, True])
            .reset_index(drop=True))


# geohash_encode moved to elasticsearch_ray.geo (shared with the ES|QL
# ST_GEOHASH function); re-exported here for existing callers/tests
from ..geo import geohash_encode  # noqa: E402


def agg_geohash_grid(sf_dir: str):
    """geohash_grid agg (bucket/geogrid/): precision-2 geohash cells
    (rows-only gate: DuckDB has no geohash; pinned by unit tests instead)."""
    from ray.data.aggregate import Count

    def cell(t: pa.Table) -> pa.Table:
        gh = geohash_encode(t["lat"].to_numpy(), t["lon"].to_numpy(), 2)
        return pa.table({"cell": pa.array(gh, pa.string())})

    out = (
        _users_geo(sf_dir).map_batches(cell, batch_format="pyarrow")
        .groupby("cell").aggregate(Count(alias_name="doc_count")).to_pandas()
    )
    return (out.sort_values(["doc_count", "cell"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def agg_geo_distance(sf_dir: str):
    """geo_distance agg (bucket/range/GeoDistanceAggregationBuilder): ring
    buckets of haversine distance from the origin."""
    from ray.data.aggregate import Count

    def ring(t: pa.Table) -> pa.Table:
        lat = np.radians(t["lat"].to_numpy())
        lon = np.radians(t["lon"].to_numpy())
        d = 2 * 6371.0 * np.arcsin(np.sqrt(
            np.sin(lat / 2) ** 2 + np.cos(lat) * np.cos(0.0) * np.sin(lon / 2) ** 2))
        key = np.where(d < 3000.0, "ring_0_3000",
                       np.where(d < 8000.0, "ring_3000_8000", "ring_8000_plus"))
        return pa.table({"ring": pa.array(key.astype(str))})

    out = (
        _users_geo(sf_dir).map_batches(ring, batch_format="pyarrow")
        .groupby("ring").aggregate(Count(alias_name="doc_count")).to_pandas()
    )
    return out.sort_values("ring").reset_index(drop=True)


def agg_ip_range(sf_dir: str):
    """ip_range agg (bucket/range/IpRangeAggregationBuilder): synthetic
    per-user IPv4 = (user_id * 2654435761) mod 2^32, bucketed by /1 and /2
    prefixes expressed as explicit ranges."""
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy().astype(np.uint64)
        ip = (uid * np.uint64(2654435761)) % np.uint64(1 << 32)
        key = np.where(ip < np.uint64(1 << 30), "a_0.0.0.0-64.0.0.0",
                       np.where(ip < np.uint64(1 << 31), "b_64.0.0.0-128.0.0.0",
                                "c_128.0.0.0-"))
        return pa.table({"range_key": pa.array(key.astype(str))})

    users = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")
    out = (
        users.map_batches(bucketize, batch_format="pyarrow")
        .groupby("range_key").aggregate(Count(alias_name="doc_count")).to_pandas()
    )
    return out.sort_values("range_key").reset_index(drop=True)


def agg_nested(sf_dir: str):
    """nested agg (bucket/nested/NestedAggregator.java analog over the
    customer->orders join mapping): within parents having c_acctbal > 9000,
    aggregate the nested orders per priority."""
    import pyarrow.compute as pc
    import ray

    from ray.data.aggregate import Count, Sum

    parents = (
        _ds(sf_dir, "customer", ["c_custkey", "c_acctbal"])
        .map_batches(lambda t: t.filter(pc.greater(t["c_acctbal"], 9000.0)),
                     batch_format="pyarrow")
        .select_columns(["c_custkey"]).to_pandas()
    )
    keyset = ray.put(set(parents.c_custkey.astype(int)))

    def pick(t: pa.Table) -> pa.Table:
        ks = ray.get(keyset)
        mask = pa.array([int(k) in ks for k in t["o_custkey"].to_pylist()])
        return t.filter(mask)

    out = (
        _ds(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"])
        .map_batches(pick, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="doc_count"), Sum("o_totalprice", alias_name="sum_price"))
        .to_pandas()
    )
    out["sum_price"] = round_half_away(out["sum_price"], 2)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def agg_reverse_nested(sf_dir: str):
    """reverse_nested agg: from nested orders matching a filter back to the
    distinct parent customers, counted per market segment."""
    import pyarrow.compute as pc
    import ray

    from ray.data.aggregate import Count

    custkeys = (
        _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(lambda t: t.filter(pc.greater(t["o_totalprice"], 180000.0)),
                     batch_format="pyarrow")
        .select_columns(["o_custkey"]).to_pandas()
    )
    keyset = ray.put(set(custkeys.o_custkey.astype(int)))

    def pick(t: pa.Table) -> pa.Table:
        ks = ray.get(keyset)
        mask = pa.array([int(k) in ks for k in t["c_custkey"].to_pylist()])
        return t.filter(mask)

    out = (
        _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .map_batches(pick, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Count(alias_name="parent_count"))
        .to_pandas()
    )
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def _users_geo(sf_dir: str):
    """one row per user with synthetic deterministic coordinates."""
    users = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")
    return users.map_batches(_geo_cols, batch_format="pyarrow")


def _geo_cols(t: pa.Table) -> pa.Table:
    """deterministic synthetic coordinates derived from user_id."""
    uid = t["user_id"].to_numpy()
    lat = ((uid * 7919) % 180) - 90 + 0.5
    lon = ((uid * 104729) % 360) - 180 + 0.5
    return t.append_column("lat", pa.array(lat.astype(np.float64))).append_column(
        "lon", pa.array(lon.astype(np.float64))
    )


def geo_bounding_box(sf_dir: str):
    """geo_bounding_box query (GeoBoundingBoxQueryBuilder): users inside
    [-30,30]x[-60,60] on synthetic per-user coordinates."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas"
    )

    def filt(t: pa.Table) -> pa.Table:
        t = _geo_cols(t)
        m = pc.and_(
            pc.and_(pc.greater_equal(t["lat"], -30.0), pc.less_equal(t["lat"], 30.0)),
            pc.and_(pc.greater_equal(t["lon"], -60.0), pc.less_equal(t["lon"], 60.0)),
        )
        return t.filter(m).select(["user_id", "lat", "lon"])

    out = ds.map_batches(filt, batch_format="pyarrow").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def geo_distance(sf_dir: str):
    """geo_distance query: haversine <= 3000 km from (0, 0)."""
    ds = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas"
    )

    def filt(t: pa.Table) -> pa.Table:
        t = _geo_cols(t)
        lat = np.radians(t["lat"].to_numpy())
        lon = np.radians(t["lon"].to_numpy())
        a = np.sin(lat / 2) ** 2 + np.cos(lat) * np.cos(0.0) * np.sin(lon / 2) ** 2
        d = 2 * 6371.0 * np.arcsin(np.sqrt(a))
        keep = d <= 3000.0
        out = t.filter(pa.array(keep)).select(["user_id"])
        return out.append_column("distance_km",
                                 pa.array(round_half_away(d[keep], 2)))

    out = ds.map_batches(filt, batch_format="pyarrow").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def agg_sampler(sf_dir: str):
    """diversified_sampler-style agg: at most 50 docs per lang (first by
    doc_id), then avg n_chars per lang."""

    def head50(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(50)

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    sampled = ds.groupby("lang").map_groups(head50, batch_format="pandas")
    from ray.data.aggregate import Count, Mean

    out = (
        sampled.groupby("lang")
        .aggregate(Count(alias_name="sample_count"), Mean("n_chars", alias_name="avg_chars"))
        .to_pandas()
    )
    out["avg_chars"] = round_half_away(out["avg_chars"], 2)
    return out.sort_values("lang").reset_index(drop=True)


def agg_auto_date_histogram(sf_dir: str):
    """auto_date_histogram: pick the smallest interval from {hour, day, week,
    month} yielding <= 35 buckets, then histogram at that interval."""
    import pyarrow.dataset as pads
    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    span = pads.dataset(os.path.join(sf_dir, "events.parquet")).to_table(columns=["ts"])
    ts = span["ts"].to_numpy()
    span_s = (ts.max() - ts.min()) / np.timedelta64(1, "s")
    for unit, secs in (("hour", 3600), ("day", 86400), ("week", 604800),
                       ("month", 2629800)):
        if span_s / secs <= 35:
            break

    def bucketize(t: pa.Table) -> pa.Table:
        # int64 epoch keys through the shuffle (see aggs.date_histogram)
        b = pc.cast(pc.floor_temporal(t["ts"], unit=unit), pa.int64())
        return t.append_column("bucket", b)

    out = (
        _ds(sf_dir, "events", ["ts"])
        .map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="doc_count"))
        .to_pandas()
    )
    out["bucket"] = pd.to_datetime(out["bucket"], unit="us")
    out["interval"] = unit
    return out.sort_values("bucket").reset_index(drop=True)[["bucket", "interval", "doc_count"]]


def agg_percentile_ranks(sf_dir: str):
    """percentile_ranks via the distributed T-Digest AggregateFn (per-block
    partials + merge; rows-only gate: sketch approx). No driver collect."""
    from ..aggs.tdigest import tdigest_rank_aggregate_fn

    marks = [10.0, 50.0, 250.0]
    r = _ds(sf_dir, "events", ["value"]).aggregate(
        tdigest_rank_aggregate_fn("value", marks, alias="ranks"))
    return pd.DataFrame({
        "value": marks,
        "rank_pct": [float(round_half_away(v, 2)) for v in r["ranks"]],
    })


def agg_scripted_metric(sf_dir: str):
    """scripted_metric agg (map/combine/reduce python): log-sum -> geometric
    mean of (1+value) — rows-only (arbitrary script)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        return pa.table({"logsum": pa.array([float(np.log1p(v).sum())]),
                         "n": pa.array([float(v.size)])})

    r = (
        _ds(sf_dir, "events", ["value"])
        .map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("logsum", alias_name="logsum"), Sum("n", alias_name="n"))
    )
    return pd.DataFrame({"geo_mean_1p": [float(round_half_away(np.exp(r["logsum"] / r["n"]), 4))]})


def agg_scripted_metric_painless(sf_dir: str):
    """scripted_metric with REAL Painless scripts end-to-end
    (ScriptedMetricAggregator map/combine/reduce): the map script is a
    per-doc Painless expression evaluated VECTORIZED per batch; combine
    folds each batch's contributions to (sum, n) partials; the reduce
    script is a genuine multi-statement Painless body with for-each
    loops over the shard-state lists (`params.states_*`), executed by
    the round-5 statement interpreter. Computes mean of squares."""
    from ..scripting import (
        compile_painless,
        compile_painless_script,
        safe_eval_expr,
        safe_eval_script,
    )

    map_src = compile_painless("doc['value'].value * doc['value'].value")
    reduce_stmts = compile_painless_script(
        "def total = 0.0; def n = 0.0;"
        "for (s : params.states_sum) { total += s; }"
        "for (c : params.states_n) { n += c; }"
        "return total / n;")

    def partial(t: pa.Table) -> pa.Table:
        contrib = safe_eval_expr(map_src, _painless_batch_env(t))
        return pa.table({"s": pa.array([float(np.sum(contrib))]),
                         "n": pa.array([float(len(t))])})

    parts = (_ds(sf_dir, "events", ["value"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    val = safe_eval_script(reduce_stmts, {
        "params": {"states_sum": [float(x) for x in parts["s"]],
                   "states_n": [float(x) for x in parts["n"]]},
        "where": np.where})
    return pd.DataFrame({
        "mean_sq": [float(round_half_away(np.float64(val), 4))]})


def knn_lsh_exact(sf_dir: str):
    """knn_lsh with an EXACT DuckDB oracle: the hyperplane signature, the
    hamming-1 probe set and the in-bucket cosine top-k are re-derived in SQL
    with the plane constants inlined. Cosine runs in float64 on BOTH sides
    (dtype kwarg); signature bits stay float32 on the Ray side — safe
    because the minimum |dot| over this dataset is ~6e-5, 60x above fp32
    rounding on dim-64 dots, so fp32/fp64 sign flips cannot occur."""
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    return S.knn_lsh(_ds(sf_dir, "embeddings"), Q, k=5, n_planes=6,
                     dtype=np.float64)


def knn_ivf(sf_dir: str):
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    return S.knn_ivf(_ds(sf_dir, "embeddings"), Q, k=5)


def range_orders_pruned(sf_dir: str):
    """row-group-stat pruning at the read (index-sort early-termination
    analog, SURVEY.md §2.5): predicate pushed into read_parquet so only
    matching row groups are scanned."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ray.data.aggregate import Count, Min

    ds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
        filter=(pc.field("o_totalprice") > 180000.0),
    )
    r = ds.aggregate(Count(alias_name="doc_count"), Min("o_totalprice", alias_name="min_v"))
    return pd.DataFrame({
        "doc_count": [int(r["doc_count"])],
        "min_v": [float(round_half_away(r["min_v"], 2))],
    })


def ft_explain(sf_dir: str):
    """explain subphase (search/fetch/subphase/ExplainPhase): per-hit score
    breakdown for the top-3 of a term query — the BM25 inputs (tf, dl, df,
    N) as columns plus the formula rendering, all DuckDB-oracled (the
    oracle re-derives every input and the rounded score independently)."""
    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "term", "term": "data", "k": 3})
    tp = s._get_term("data")
    df = s.global_df("data")
    tfs, dls, lines = [], [], []
    for d in ids:
        idx = np.searchsorted(tp.doc_ids, d)
        tf = int(tp.tfs[idx])
        dl = int(s.doc_lens[d])
        tfs.append(tf)
        dls.append(dl)
        lines.append(f"tf({tf}) * idf(df={df},N={s.n_docs})"
                     f" / lengthNorm(dl={dl})")
    return pd.DataFrame({
        "doc_id": ids.astype(np.int64),
        "tf": np.asarray(tfs, np.int64),
        "dl": np.asarray(dls, np.int64),
        "score": round_half_away(sc.astype(np.float64), 4),
        "explanation": lines,
    })


# ------------- parent-join / percolator / _analyze / by-query (round 1d) -------------


def has_child(sf_dir: str):
    """has_child query (modules/parent-join HasChildQueryBuilder): customers
    (parents) having an order (child) with o_totalprice > 180000 — semi-join
    by co-partitioning both sides on the join key (groupby + map_groups)."""
    import pyarrow.compute as pc

    orders = _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    custs = _ds(sf_dir, "customer", ["c_custkey", "c_name"])

    matching = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 180000.0)),
        batch_format="pyarrow",
    ).groupby("o_custkey").map_groups(lambda g: g.head(1), batch_format="pandas")
    keys = pa.array(sorted(matching.to_pandas()["o_custkey"]), pa.int64())

    out = custs.map_batches(
        lambda t: t.filter(pc.is_in(t["c_custkey"], value_set=keys)),
        batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def has_parent(sf_dir: str):
    """has_parent query: orders whose parent customer has c_acctbal > 9000
    (broadcast the small parent key set, filter children)."""
    import pyarrow.compute as pc

    custs = _ds(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    rich = custs.map_batches(
        lambda t: t.filter(pc.greater(t["c_acctbal"], 9000.0)),
        batch_format="pyarrow",
    ).to_pandas()
    keys = pa.array(sorted(rich["c_custkey"]), pa.int64())
    out = (
        _ds(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(lambda t: t.filter(pc.is_in(t["o_custkey"], value_set=keys)),
                     batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("o_orderkey").reset_index(drop=True)


_PERCOLATE_QUERIES = [
    (0, ["data", "query"]),    # conjunctions of analyzed terms
    (1, ["vector"]),
    (2, ["window", "merge", "batch"]),
]


def percolate(sf_dir: str):
    """percolator (modules/percolator PercolateQueryBuilder): stored queries
    indexed as a term -> query inverted map at store time (the
    QueryAnalyzer.java:56 candidate-extraction shape); docs explode to
    unique terms once per batch and only candidate (doc, query) pairs are
    verified — cost scales with matches, not docs x queries."""
    from ..functions.percolate import percolate_dataset

    queries = [(qid, {"terms": terms}) for qid, terms in _PERCOLATE_QUERIES]
    return percolate_dataset(_ds(sf_dir, "documents", ["doc_id", "text"]),
                             queries)


def ft_analyze(sf_dir: str):
    """_analyze API analog: token stream (term, position) for a fixed text
    with the simple analyzer."""
    from ..analyzer import get_analyzer

    toks = get_analyzer("simple").positions("Data-Query WINDOW window2 the")
    return pd.DataFrame({"position": [p for _, p in toks],
                         "token": [t for t, _ in toks]})


def delete_by_query(sf_dir: str):
    """delete_by_query (modules/reindex): documents remaining after deleting
    every doc matching term 'vector'."""
    s = documents_searcher(sf_dir)
    ids, _ = s._eval({"kind": "term", "term": "vector"})
    victims = pa.array(ids.astype(np.int64))
    import pyarrow.compute as pc

    out = (
        _ds(sf_dir, "documents", ["doc_id"])
        .map_batches(lambda t: t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=victims))),
                     batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def update_by_query(sf_dir: str):
    """update_by_query: docs matching term 'data' get long_doc = n_chars > 300
    (script analog); returns updated rows."""
    s = documents_searcher(sf_dir)
    ids, _ = s._eval({"kind": "term", "term": "data"})
    wanted = pa.array(ids.astype(np.int64))
    import pyarrow.compute as pc

    def upd(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"], value_set=wanted))
        return t.append_column("long_doc", pc.greater(t["n_chars"], 300))

    out = (
        _ds(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(upd, batch_format="pyarrow")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def reindex_docs(sf_dir: str):
    """reindex (§3.4 bulk-by-scroll analog): read -> transform (lang upper)
    -> write partitioned parquet -> verify count+schema of the destination."""
    import ray.data as rd
    import pyarrow.compute as pc
    import shutil

    dest = "/tmp/esray_cache/reindex_dest"
    shutil.rmtree(dest, ignore_errors=True)
    (
        _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(lambda t: t.set_column(t.schema.get_field_index("lang"), "lang",
                                            pc.utf8_upper(t["lang"])),
                     batch_format="pyarrow")
        .write_parquet(dest)
    )
    back = rd.read_parquet(dest)
    df = back.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df


def ft_completion(sf_dir: str):
    """completion suggester analog (suggest/completion/CompletionSuggester):
    prefix -> top-5 vocabulary completions by (df desc, term asc)."""
    s = documents_searcher(sf_dir)
    from collections import Counter

    # prefix-slice each segment's SORTED dictionary (searchsorted), never a
    # full-vocab scan; sum dfs across segments for the sliced terms only
    dfs: Counter = Counter()
    for seg in s.segments:
        terms, df = seg.term_dfs()
        for i in seg.prefix_rows("da"):
            dfs[str(terms[int(i)])] += int(df[int(i)])
    cands = sorted((-d, t) for t, d in dfs.items())[:5]
    return pd.DataFrame({"term": [t for _, t in cands],
                         "df": [-d for d, t in cands]})


def ft_termvectors(sf_dir: str):
    """_termvectors API analog: per-term stats for one document."""
    from collections import Counter

    from ..analyzer import analyze_simple
    from ..sources.reader import fetch_rows_by_doc_id

    t = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                             [42], columns=["doc_id", "text"])
    text = t["text"][0].as_py()
    c = Counter(analyze_simple(text))
    items = sorted(c.items())
    return pd.DataFrame({"term": [k for k, _ in items],
                         "tf": pd.array([v for _, v in items], dtype="int64")})


def ft_match_msm(sf_dir: str):
    """match with minimum_should_match=2 of 3 analyzed terms."""
    return all_matches(sf_dir, {"kind": "match", "text": "data query window",
                                "minimum_should_match": 2})


def agg_stats_bucket(sf_dir: str):
    """stats_bucket pipeline agg: stats over the sibling date_histogram's
    per-bucket doc_counts."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    c = h["doc_count"]
    return pd.DataFrame({
        "cnt": [int(c.size)], "min_v": [int(c.min())], "max_v": [int(c.max())],
        "sum_v": [int(c.sum())],
        "avg_v": [float(round_half_away(c.mean(), 4))],
    })


def agg_percentiles_bucket(sf_dir: str):
    """percentiles_bucket: exact linear-interpolated percentiles of the
    bucket doc_counts (pipeline aggs are exact — they run on the tiny reduced
    table, SURVEY.md §2.6)."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    c = h["doc_count"].to_numpy()
    qs = [0.25, 0.5, 0.75]
    return pd.DataFrame({
        "q": qs,
        "value": [float(round_half_away(np.percentile(c, q * 100), 4)) for q in qs],
    })


def agg_bucket_script(sf_dir: str):
    """bucket_script: per-bucket computed metric (avg value per event)."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day", value="value")
    h["avg_per_event"] = round_half_away(h["sum_value"] / h["doc_count"], 4)
    out = h[["bucket", "doc_count", "avg_per_event"]]
    return out


def agg_moving_fn(sf_dir: str):
    """moving_fn: sliding-window max over 3 buckets."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    h["window_max"] = h["doc_count"].rolling(3, min_periods=1).max().astype(np.int64)
    return h[["bucket", "doc_count", "window_max"]]


def agg_serial_diff(sf_dir: str):
    """serial_diff with lag 7 (week-over-week)."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    h = A.serial_diff(h, "doc_count", lag=7)
    h["serial_diff"] = h["serial_diff"].fillna(0).astype(np.int64)
    return h[["bucket", "doc_count", "serial_diff"]]


def ft_match_bool_prefix(sf_dir: str):
    """match_bool_prefix (rest-api-spec/test/search/310_match_bool_prefix.yml
    semantics): analyzed terms as scored shoulds, last term as a prefix
    clause (constant score 1.0)."""
    s = documents_searcher(sf_dir)
    terms = s.analyzer("data quer")
    q = {"kind": "bool",
         "should": [{"kind": "term", "term": t} for t in terms[:-1]]
         + [{"kind": "prefix", "prefix": terms[-1]}]}
    return all_matches(sf_dir, q)


def ft_intervals(sf_dir: str):
    """intervals query (IntervalsQueryBuilder): ordered all_of with
    max_gaps=1 over (data, query)."""
    return all_matches(sf_dir, {"kind": "intervals",
                                "rule": {"all_of": {"terms": ["data", "query"],
                                                    "ordered": True,
                                                    "max_gaps": 1}}},
                       with_score=False)


def ingest_pipeline_demo(sf_dir: str):
    """composed ingest pipeline over documents: strip digits (gsub), then a
    computed clean length (script)."""
    from ..functions import ingest as I
    import pyarrow.compute as pc

    pipe = I.pipeline(
        I.gsub("text", r"[0-9]", ""),
        I.script(lambda t: t.append_column("clean_len",
                                           pc.utf8_length(t["text"]))),
    )
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pipe, batch_format="pyarrow")
        .select_columns(["doc_id", "clean_len"])
        .to_pandas()
    )
    out["clean_len"] = out["clean_len"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def quality_filter(sf_dir: str):
    """training-data quality FILTER: keep docs whose composite quality score
    >= 0.5 (the canonical pretraining-corpus cleaning step); returns kept
    (doc_id, quality)."""
    out = (
        _ds(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(T.quality_score_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "quality"])
        .to_pandas()
    )
    out = out[out["quality"] >= 0.5]
    return out.sort_values("doc_id").reset_index(drop=True)


def source_roundtrip(sf_dir: str):
    """_bulk NDJSON ingest analog (§2.1): export documents to NDJSON and CSV,
    re-ingest each with ray.data.read_json / read_csv, verify the re-ingested
    corpus aggregates identically to the parquet source."""
    import ray.data as rd
    import shutil

    base = "/tmp/esray_cache/source_rt"
    shutil.rmtree(base, ignore_errors=True)
    src = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    src.write_json(os.path.join(base, "json"))
    src.write_csv(os.path.join(base, "csv"))

    from ray.data.aggregate import Count, Sum

    rows = []
    for fmt, ds in (("csv", rd.read_csv(os.path.join(base, "csv"))),
                    ("json", rd.read_json(os.path.join(base, "json")))):
        r = ds.aggregate(Count(alias_name="n"), Sum("n_chars", alias_name="chars"))
        langs = ds.groupby("lang").aggregate(Count(alias_name="_c")).to_pandas()
        rows.append({"fmt": fmt, "doc_count": int(r["n"]),
                     "total_chars": int(r["chars"]), "langs": int(len(langs))})
    return pd.DataFrame(rows).sort_values("fmt").reset_index(drop=True)


# ---------------- round 3: language analysis (CommonAnalysisPlugin language
# analyzer registrations, :180-223; Snowball stemmers per
# StemmerTokenFilterFactory) ----------------

_LANG_SAMPLES = {
    "french": "Les enfants jouaient dans l'école nationale des grandes villes",
    "german": "Die Kinder spielten in den schönen Häusern der möglichen Städte",
    "spanish": "Las niñas corrían rápidamente por el parque con generosidad",
    "italian": "I bambini giocavano nell'acqua della fontana nazionale",
    "portuguese": "As meninas falavam rapidamente sobre as nacionalidades",
    "dutch": "De kinderen speelden in de mooie huizen van de mogelijkheden",
    "russian": "Дети играли в красивых домах около важности книгами",
    "polish": "Dzieci bawiły się w pięknych domach wielkich miast",
    "ukrainian": "Діти гралися у гарних будинках великих міст",
    "korean": "아이들은 아름다운 집에서 놀았다",
    "japanese": "東京の新しい図書館でカタカナのテストを行いました",
}


def _lang_analyze(lang: str):
    """(position, token) frame for the language's sample sentence — the
    _analyze API shape over the full chain (tokenize, elision, stop,
    Snowball/light stem). Exact-oracled: every chain is re-derived as
    standalone DuckDB SQL in lang/sql_oracle.py; golden vectors in
    tests/test_lang.py pin the algorithms independently."""
    from ..analyzer import get_analyzer

    toks = get_analyzer(lang)(_LANG_SAMPLES[lang])
    return pd.DataFrame({"position": pd.array(range(len(toks)), dtype="int64"),
                         "token": toks})


def ft_analyze_french(sf_dir: str):
    return _lang_analyze("french")


def ft_analyze_german(sf_dir: str):
    return _lang_analyze("german")


def ft_analyze_spanish(sf_dir: str):
    return _lang_analyze("spanish")


def ft_analyze_italian(sf_dir: str):
    return _lang_analyze("italian")


def ft_analyze_portuguese(sf_dir: str):
    return _lang_analyze("portuguese")


def ft_analyze_dutch(sf_dir: str):
    return _lang_analyze("dutch")


def ft_analyze_russian(sf_dir: str):
    return _lang_analyze("russian")


def lang_stop_tokenize(sf_dir: str):
    """Stop-filter + unicode tokenization plumbing, DuckDB-oracled: a
    deterministic French text is synthesized per doc_id (same expression in
    the SQL oracle), tokenized, and counted before/after the French stop
    set — verifying the non-stemming half of the language chains against an
    independent evaluation path."""
    import re

    from ..lang.stopwords import STOP_SETS

    stop = STOP_SETS["french"]
    tok_re = re.compile(r"[^\W_]+", re.UNICODE)

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        total, kept = [], []
        for i in ids:
            text = "le chat et " + "grand arbre " * (int(i) % 4) + "la maison"
            toks = tok_re.findall(text.lower())
            total.append(len(toks))
            kept.append(sum(1 for x in toks if x not in stop))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "total_tokens": pa.array(total, pa.int64()),
            "kept_tokens": pa.array(kept, pa.int64()),
        })

    return (
        _ds(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .sort("doc_id")
        .to_pandas()
    )


def ft_analyze_cjk(sf_dir: str):
    """CJK analyzer (CJKAnalyzer: width fold + script-run bigrams),
    DuckDB-oracled: a deterministic mixed Latin+Han text is synthesized per
    doc_id — a FULLWIDTH Latin word, a 3-char Han run (2 bigrams) and a
    lone Han char (unigram) — and the token stream with positions is
    compared against the oracle's chr()/substr() reconstruction."""
    from ..analyzer import get_analyzer

    an = get_analyzer("cjk")

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        out_id, out_pos, out_term = [], [], []
        for i in ids:
            i = int(i)
            run = (chr(0x4E00 + i % 7) + chr(0x4E8C + i % 5)
                   + chr(0x5927 + i % 3))
            text = f"Ｄａｔａ {run} {chr(0x6728 + i % 4)}"  # fullwidth 'Data'
            for term, pos in an.positions(text):
                out_id.append(i)
                out_pos.append(pos)
                out_term.append(term)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "term": pa.array(out_term, pa.string()),
        })

    return (
        _ds(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .sort(["doc_id", "pos"])
        .to_pandas()
    )


def ft_analyze_persian(sf_dir: str):
    """Persian analyzer (PersianAnalyzer: ZWNJ char filter + Arabic/Persian
    normalization + stop, no stemmer), DuckDB-oracled: deterministic text in
    UN-normalized form (arabic kaf/yeh, teh marbuta, tatweel, ZWNJ compound,
    the stopword 'va') is analyzed; the oracle reconstructs the expected
    NORMALIZED tokens + gapped positions from chr() codepoints — an
    independent formulation of the fold table."""
    from ..analyzer import get_analyzer

    an = get_analyzer("persian")
    ZWNJ = "‌"
    # raw (un-normalized) words: tatweel inside arabic-kaf 'ketab';
    # 'ali' with arabic yeh; 'madrese' with teh marbuta
    w_even = "كـتاب"      # ك‍تاب -> کتاب
    w_odd = "علي"                    # علي  -> علی
    w2 = "مدرسة"           # مدرسة -> مدرسه

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        out_id, out_pos, out_term = [], [], []
        for i in ids:
            i = int(i)
            w = w_even if i % 2 == 0 else w_odd
            text = f"{w}{ZWNJ}ها و {w2}"  # <w>+ZWNJ+ha va madrese
            for term, pos in an.positions(text):
                out_id.append(i)
                out_pos.append(pos)
                out_term.append(term)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "term": pa.array(out_term, pa.string()),
        })

    return (
        _ds(sf_dir, "documents", ["doc_id"])
        .map_batches(f, batch_format="pyarrow")
        .sort(["doc_id", "pos"])
        .to_pandas()
    )


def lang_stemmed_index_search(sf_dir: str):
    """End-to-end per-language indexing: a deterministic German column is
    derived from documents (doc_id-keyed vocabulary), indexed as a german
    subfield (extra_content_columns), and an inflected-form match query
    returns the docs whose stems match (rows-only; stemming pins it)."""
    import shutil

    import ray.data as rd

    from ..index.build import build_index
    from ..search.engine import IndexSearcher

    base = "/tmp/esray_cache/lang_idx"
    shutil.rmtree(base, ignore_errors=True)
    vocab = ["Kinder spielten", "Häuser standen", "Bücher lagen",
             "Garten blühte"]

    def add_de(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        de = ["ein Satz: " + vocab[int(i) % 4] for i in ids]
        return t.append_column("body_de", pa.array(de))

    src_dir = os.path.join(base, "src")
    (_ds(sf_dir, "documents", ["doc_id", "text"])
     .map_batches(add_de, batch_format="pyarrow")
     .map_batches(lambda t: t.rename_columns(
         ["doc_id", "content", "body_de"]), batch_format="pyarrow")
     .map_batches(lambda t: t.append_column(
         "repo", pa.array(["r"] * len(t))).append_column(
         "path", pa.array([f"d{i}" for i in t["doc_id"].to_pylist()]))
      .append_column("commit", pa.array(["c"] * len(t)))
      .append_column("lang", pa.array(["de"] * len(t))),
      batch_format="pyarrow")
     .write_parquet(src_dir))
    idx = os.path.join(base, "idx")
    build_index(src_dir, idx, analyzer="simple", num_buckets=4,
                hot_terms=frozenset(),
                extra_content_columns=(("body_de", "body_de", "german"),))
    s = IndexSearcher(idx, field_analyzers={"body_de": "german"})
    rows = []
    for q in ("Häusern", "spielte", "Gartens", "Buch"):
        ids, _ = s._eval({"kind": "match", "field": "body_de", "text": q})
        rows.append({"query": q, "matches": int(ids.size)})
    return pd.DataFrame(rows)


def ft_completion_weighted(sf_dir: str):
    """Weighted completion suggester (CompletionSuggester.java:41): entries
    are corpus tokens weighted by total term frequency, aggregated
    dataset-side; top-5 completions of 'da' by (weight desc, input asc)."""
    from ..search.suggest import completion_from_dataset

    sug = completion_from_dataset(
        _ds(sf_dir, "documents", ["text"]), text_col="text", weight="tf")
    return sug.suggest("da", size=5)


def ft_completion_fuzzy(sf_dir: str):
    """Fuzzy completion (FuzzyCompletionQuery analog): entries whose own
    3-char prefix is within edit distance 1 of 'dat', weighted ordering."""
    from ..search.suggest import completion_from_dataset

    sug = completion_from_dataset(
        _ds(sf_dir, "documents", ["text"]), text_col="text", weight="tf")
    return sug.suggest("dat", size=5, fuzziness=1)


def ft_completion_context(sf_dir: str):
    """Context completion (CategoryContextMapping / ContextMappings:
    suggest filtered to one category context): entries are built at
    (token, source) granularity, so suggestions under context src1 rank
    tokens by their weight within src1 only."""
    from ..search.suggest import completion_from_dataset

    sug = completion_from_dataset(
        _ds(sf_dir, "documents", ["text", "source"]), text_col="text",
        weight="tf", contexts_col="source")
    return sug.suggest("da", size=5, context="src1")


# ---------------- round 3: geo_shape geometry (GeoShapeFieldMapper /
# GeoShapeQueryBuilder relations over WKT; common/geo/ parsers) -------------

# fixed convex pentagon query shape, (lon, lat) WKT order
_GEO_SHAPE_WKT = ("POLYGON ((0 -40, 50 -10, 30 40, -30 40, -50 -10, 0 -40))")
# fixed 2-segment linestring query
_GEO_LINE_WKT = "LINESTRING (-120 -60, 40 20, 120 -30)"


def _geo_shape_users(sf_dir: str):
    """distinct users with synthetic point + per-user axis-aligned box
    (half-size 1 + user_id % 3) — the indexed geo_shape side."""
    return _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")


def _geo_shape_filter(sf_dir: str, relation: str, query_wkt: str):
    from ..geo import (
        boxes_intersect_convex,
        boxes_within_convex,
        parse_wkt,
        points_in_polygon,
        segments_intersect_boxes,
    )

    kind, geom = parse_wkt(query_wkt)

    def filt(t: pa.Table) -> pa.Table:
        g = _geo_cols(t)
        uid = g["user_id"].to_numpy()
        x = g["lon"].to_numpy()
        y = g["lat"].to_numpy()
        half = (1 + (uid % 3)).astype(np.float64)
        blo = np.stack([x - half, y - half], axis=1)
        bhi = np.stack([x + half, y + half], axis=1)
        if relation == "point_intersects":
            keep = points_in_polygon(geom, x, y)
        elif relation == "within":
            keep = boxes_within_convex(geom[0], blo, bhi)
        elif relation == "intersects":
            keep = boxes_intersect_convex(geom[0], blo, bhi)
        elif relation == "disjoint":
            keep = ~boxes_intersect_convex(geom[0], blo, bhi)
        elif relation == "line_intersects":
            keep = segments_intersect_boxes(geom, blo, bhi)
        elif relation == "multi_point_intersects":
            keep = np.zeros(x.size, bool)
            for rings in geom:  # OR over member polygons (incl. holes)
                keep |= points_in_polygon(rings, x, y)
        else:
            raise ValueError(relation)
        return g.select(["user_id", "lat", "lon"]).filter(pa.array(keep))

    out = (_geo_shape_users(sf_dir)
           .map_batches(filt, batch_format="pyarrow").to_pandas())
    return out.sort_values("user_id").reset_index(drop=True)


def geo_shape_polygon_points(sf_dir: str):
    """geo_shape INTERSECTS: indexed points vs a convex pentagon WKT query
    (point-in-polygon, vectorized crossing-number)."""
    return _geo_shape_filter(sf_dir, "point_intersects", _GEO_SHAPE_WKT)


def geo_shape_within(sf_dir: str):
    """geo_shape WITHIN: per-user boxes fully inside the pentagon (corner
    half-plane tests; convex query => corner containment == containment)."""
    return _geo_shape_filter(sf_dir, "within", _GEO_SHAPE_WKT)


def geo_shape_disjoint(sf_dir: str):
    """geo_shape DISJOINT: separating-axis test between each box and the
    convex pentagon (box axes + pentagon edge normals)."""
    return _geo_shape_filter(sf_dir, "disjoint", _GEO_SHAPE_WKT)


def geo_shape_linestring(sf_dir: str):
    """geo_shape INTERSECTS with a LINESTRING query: per-user boxes hit by
    any segment (endpoint-in-box + segment/edge orientation tests)."""
    return _geo_shape_filter(sf_dir, "line_intersects", _GEO_LINE_WKT)


_GEO_MULTI_WKT = ("MULTIPOLYGON (((-60 -20, -10 -20, -35 30, -60 -20)), "
                  "((10 -10, 60 -10, 60 40, 10 40, 10 -10), "
                  "(30 5, 40 5, 40 15, 30 15, 30 5)))")


def geo_shape_multipolygon(sf_dir: str):
    """geo_shape INTERSECTS with a MULTIPOLYGON query (common/geo/ WKT
    multi-geometries): points inside ANY member polygon — here a triangle
    plus a square with a hole, so member-union and hole-exclusion are both
    exercised."""
    return _geo_shape_filter(sf_dir, "multi_point_intersects", _GEO_MULTI_WKT)


def agg_percentiles_hdr(sf_dir: str):
    """percentiles via the HDR-histogram method (HDRPercentileRanks
    aggregator analog) — distributed AggregateFn over events.value;
    rows-only gate (fixed-precision sketch), accuracy pinned in pytest."""
    from ..aggs.hdr import hdr_aggregate_fn

    qs = [0.5, 0.9, 0.99]
    res = _ds(sf_dir, "events", ["value"]).aggregate(
        hdr_aggregate_fn("value", qs))
    vals = res["percentiles_hdr"] if isinstance(res, dict) else res
    return pd.DataFrame({"q": qs,
                         "value": [float(round_half_away(v, 3)) for v in vals]})


def ft_highlight_fvh(sf_dir: str):
    """fvh highlighter gate: top-5 docs for term 'data', every stored-position
    hit wrapped in <em> (positions from the index, not re-analysis)."""
    from .fulltext import highlight_fvh

    return highlight_fvh(sf_dir, "data", 5).to_pandas()


# ---------------- round 3: msearch / field_caps / rank_eval / type ---------


def ft_type(sf_dir: str):
    """deprecated `type` query (TypeQueryBuilder, 7.x): constant-score filter
    on the _type-analog discriminator column (`source`)."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "meta_term", "field": "source", "value": "src3"})
    return pd.DataFrame({"doc_id": pd.array(ids.astype(np.int64), dtype="int64"),
                         "score": [1.0] * ids.size})


def msearch(sf_dir: str):
    """_msearch (TransportMultiSearchAction.java:44): a batch of independent
    searches executed against the SAME loaded searcher in one pass; output
    is the concatenated per-request top-3 (request_id, doc_id, score)."""
    s = documents_searcher(sf_dir)
    requests = [
        {"kind": "term", "term": "data", "k": 3},
        {"kind": "match", "text": "slow merge", "k": 3},
        {"kind": "match_phrase", "text": "data query", "k": 3},
    ]
    rows = []
    for rid, q in enumerate(requests):
        ids, sc = s.search(q)
        for d, v in zip(ids.tolist(), sc.tolist()):
            rows.append((rid, d, float(round_half_away(v, 4))))
    return pd.DataFrame({"request_id": pd.array([r[0] for r in rows], dtype="int64"),
                         "doc_id": pd.array([r[1] for r in rows], dtype="int64"),
                         "score": [r[2] for r in rows]})


def field_caps(sf_dir: str):
    """_field_caps (action/fieldcaps/): per-field searchable capability map
    over the documents table, types mapped to the ES type system."""
    import pyarrow.parquet as pq

    schema = pq.read_schema(os.path.join(sf_dir, "documents.parquet"))
    tmap = {"int64": "long", "int32": "integer", "double": "double",
            "float": "float", "string": "text", "large_string": "text",
            "bool": "boolean"}
    rows = [(f.name, tmap.get(str(f.type), str(f.type))) for f in schema]
    rows.sort()
    return pd.DataFrame({"field": [r[0] for r in rows],
                         "es_type": [r[1] for r in rows]})


def rank_eval(sf_dir: str):
    """_rank_eval (modules/rank-eval): precision@5 per query for a fixed
    request set, with relevance defined as 'doc contains the target term'
    (judgment lists derivable on both sides)."""
    s = documents_searcher(sf_dir)
    specs = [("q_data", {"kind": "match", "text": "data query", "k": 5}, "data"),
             ("q_merge", {"kind": "match", "text": "slow merge", "k": 5}, "merge")]
    rows = []
    for name, q, rel_term in specs:
        ids, _ = s.search(q)
        rel_ids, _ = s._eval({"kind": "term", "term": rel_term})
        rel = set(rel_ids.tolist())
        hits = sum(1 for d in ids.tolist() if d in rel)
        rows.append((name, float(round_half_away(hits / 5.0, 4))))
    return pd.DataFrame({"query": [r[0] for r in rows],
                         "precision_at_5": [r[1] for r in rows]})


def agg_extended_stats_bucket(sf_dir: str):
    """extended_stats_bucket pipeline agg (ExtendedStatsBucket): the
    stats_bucket moments plus sum-of-squares, population variance and
    std deviation over the sibling date_histogram's doc_counts."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    c = h["doc_count"].to_numpy().astype(np.float64)
    return pd.DataFrame({
        "cnt": pd.array([int(c.size)], dtype="int64"),
        "sum_v": pd.array([int(c.sum())], dtype="int64"),
        "avg_v": [float(round_half_away(c.mean(), 4))],
        "sum_sq": pd.array([int((c * c).sum())], dtype="int64"),
        "variance": [float(round_half_away(c.var(), 4))],
        "std_dev": [float(round_half_away(c.std(), 4))],
    })


_LANG_SAMPLES.update({
    "swedish": "Flickorna lekte i de vackra husen med möjligheterna",
    "norwegian": "Guttene lekte i de vakre husene med mulighetene",
    "danish": "Pigerne legede i de smukke huse med mulighederne",
    "arabic": "الكتاب في المدرسة الكبيرة مع المدرسين",
})


def ft_analyze_swedish(sf_dir: str):
    return _lang_analyze("swedish")


def ft_analyze_norwegian(sf_dir: str):
    return _lang_analyze("norwegian")


def ft_analyze_danish(sf_dir: str):
    return _lang_analyze("danish")


def ft_analyze_arabic(sf_dir: str):
    return _lang_analyze("arabic")


def dedup_embedding_lsh(sf_dir: str):
    """Approximate embedding near-dup (scale path): multi-round hyperplane
    LSH buckets + in-bucket exact cosine (rows-only: recall < 1 by design;
    pinned by the recall test vs the exact blocked self-join)."""
    return D.embedding_dedup_lsh(
        _ds(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=0.4, n_planes=4, n_rounds=4)


def dedup_embedding_lsh_exact(sf_dir: str):
    """embedding LSH near-dup with an EXACT DuckDB oracle: every round's
    hyperplane bucketing, the in-bucket cosine >= threshold pairs and the
    cross-round union are re-derived in SQL with the plane constants
    inlined. Signature bits run in float64 on BOTH sides (bits_dtype): the
    measured fp32 sign margin at sf0.1 round 1 is only 7e-6 (~fp32 dot
    error), so float32 bits could legitimately disagree with the SQL."""
    return D.embedding_dedup_lsh(
        _ds(sf_dir, "embeddings", ["vec_id", "embedding"]),
        threshold=0.4, n_planes=4, n_rounds=4, bits_dtype=np.float64)


def agg_bucket_selector(sf_dir: str):
    """bucket_selector pipeline agg: keep date_histogram buckets whose
    doc_count exceeds the mean (the HAVING-style bucket filter)."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    mean = float(h["doc_count"].mean())
    out = A.bucket_selector(h, lambda r: r["doc_count"] > mean)
    out = out[["bucket", "doc_count"]].copy()
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.reset_index(drop=True)


def agg_bucket_sort(sf_dir: str):
    """bucket_sort pipeline agg: top-5 date buckets by doc_count desc
    (tie-break bucket asc), the ORDER BY + LIMIT over sibling buckets."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.bucket_sort(h, ["doc_count", "bucket"],
                        ascending=[False, True], size=5)
    out = out[["bucket", "doc_count"]].copy()
    out["doc_count"] = out["doc_count"].astype("int64")
    return out


# ---------------- small-surface search APIs (round 3c) ----------------


def ft_terms_enum(sf_dir: str):
    """Terms-dictionary enumeration (the _terms_enum API surface; the same
    TermsEnum seek/next walk that backs prefix expansion,
    engine._term_range): first 10 dictionary terms with prefix 'd' plus
    their document frequency."""
    s = documents_searcher(sf_dir)
    terms = s._terms_with_prefix("s").tolist()[:10]
    return pd.DataFrame({
        "term": terms,
        "doc_count": pd.array([s.global_df(t) for t in terms], dtype="int64"),
    })


def ft_post_filter(sf_dir: str):
    """post_filter (SearchSourceBuilder#postFilter / QueryPhase post_filter
    collector): the filter narrows the returned HITS only, while the total
    hit count — the stand-in for aggregations, which run pre-filter —
    still sees every query match. Every src1 hit of `term data`, ordered
    by doc_id, each row carrying the pre-filter total."""
    s = documents_searcher(sf_dir)
    res = s.search_body(
        {"kind": "term", "term": "data"},
        post_filter={"kind": "meta_term", "field": "source", "value": "src1"},
        k=10_000)
    order = np.argsort(res["ids"])
    return pd.DataFrame({
        "doc_id": res["ids"][order].astype(np.int64),
        "score": round_half_away(res["scores"][order].astype(np.float64), 4),
        "total_prefilter": pd.array([res["total"]] * res["ids"].size,
                                    dtype="int64"),
    })


def ft_terminate_after(sf_dir: str):
    """terminate_after (SearchSourceBuilder#terminateAfter /
    TerminateAfterChecker): collection stops after N matching docs in
    doc-id (collection) order; terminated_early is flagged and the total
    is the collected count."""
    s = documents_searcher(sf_dir)
    res = s.search_body({"kind": "term", "term": "data"},
                        terminate_after=50, k=10_000)
    order = np.argsort(res["ids_all"])
    return pd.DataFrame({
        "doc_id": res["ids_all"][order].astype(np.int64),
        "terminated_early": pd.array([res["terminated_early"]] *
                                     res["ids_all"].size, dtype="bool"),
    })


def ft_track_total_hits(sf_dir: str):
    """track_total_hits cap (SearchSourceBuilder#trackTotalHitsUpTo;
    TotalHits.Relation): counting stops at the cap — the reported total
    is the cap with relation gte when more docs match, the exact count
    with relation eq otherwise."""
    s = documents_searcher(sf_dir)
    capped = s.search_body({"kind": "term", "term": "data"},
                           track_total_hits=100)
    exact = s.search_body({"kind": "term", "term": "dup"},
                          track_total_hits=100)
    return pd.DataFrame({
        "query": ["data", "dup"],
        "total": pd.array([capped["total"], exact["total"]], dtype="int64"),
        "relation": [capped["relation"], exact["relation"]],
    })


def ft_docvalue_fields(sf_dir: str):
    """docvalue_fields (FetchDocValuesPhase): columnar field values
    returned with each top hit — no _source parse; top-5 `term query`
    hits with keyword + numeric doc values."""
    s = documents_searcher(sf_dir)
    res = s.search_body({"kind": "term", "term": "query"},
                        docvalue_fields=["source", "n_chars"], k=5)
    f = res["fields"].to_pandas()
    return pd.DataFrame({
        "doc_id": res["ids"].astype(np.int64),
        "score": round_half_away(res["scores"].astype(np.float64), 4),
        "source": f["source"],
        "n_chars": f["n_chars"].astype("int64"),
    })


def ft_function_score_gauss(sf_dir: str):
    """function_score gauss decay (GaussDecayFunctionBuilder): score =
    bm25 * exp(-max(0,|n_chars-origin|-offset)^2 / (2 sigma^2)) with
    sigma^2 = -scale^2 / (2 ln decay); origin 800, scale 300, offset 50,
    decay 0.5."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({
        "kind": "function_score",
        "query": {"kind": "term", "term": "data"},
        "functions": [{"type": "gauss", "field": "n_chars",
                       "origin": 800, "scale": 300, "offset": 50,
                       "decay": 0.5}],
    })
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def ft_function_score_functions(sf_dir: str):
    """function_score with a functions LIST (weight x random_score x
    linear decay, score_mode multiply, boost_mode multiply): the
    random_score mix is the documented deterministic doc_id+seed hash
    in [0,1), so the whole combination is exactly reproducible."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({
        "kind": "function_score",
        "query": {"kind": "term", "term": "data"},
        "functions": [
            {"type": "weight", "weight": 1.5},
            {"type": "random_score", "seed": 42},
            {"type": "linear", "field": "n_chars", "origin": 600,
             "scale": 500, "decay": 0.5},
        ],
        "score_mode": "multiply",
    })
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def ft_sort_geo_distance(sf_dir: str):
    """geo_distance sort (GeoDistanceSortBuilder, SearchModule.java:604):
    users ranked by haversine distance from (0, 0), nearest first,
    user_id tie-break; rank column pins the ordering under the driver's
    order-insensitive compare."""
    ds = _ds(sf_dir, "events", ["user_id"]).groupby("user_id").map_groups(
        lambda g: g.head(1), batch_format="pandas")

    def dist(t: pa.Table) -> pa.Table:
        t = _geo_cols(t)
        lat = np.radians(t["lat"].to_numpy())
        lon = np.radians(t["lon"].to_numpy())
        a = np.sin(lat / 2) ** 2 + np.cos(lat) * np.cos(0.0) * np.sin(lon / 2) ** 2
        d = 2 * 6371.0 * np.arcsin(np.sqrt(a))
        return pa.table({"user_id": t["user_id"], "dist": pa.array(d)})

    out = (ds.map_batches(dist, batch_format="pyarrow").to_pandas()
           .sort_values(["dist", "user_id"]).head(10).reset_index(drop=True))
    return pd.DataFrame({
        "rank": pd.array(range(1, len(out) + 1), dtype="int64"),
        "user_id": out["user_id"].astype("int64"),
        "distance_km": round_half_away(out["dist"].to_numpy(), 2),
    })


def ft_sort_script(sf_dir: str):
    """script sort (ScriptSortBuilder): the sort key is a sandboxed
    numeric expression over doc values — evaluated with the AST
    whitelist evaluator, never eval()."""
    from ..scripting import safe_eval_expr

    def key(t: pa.Table) -> pa.Table:
        k = safe_eval_expr("(n_chars * 31) % 97",
                           {"n_chars": t["n_chars"].to_numpy()})
        return pa.table({"doc_id": t["doc_id"],
                         "key": pa.array(k.astype(np.int64))})

    out = (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
           .map_batches(key, batch_format="pyarrow").to_pandas()
           .sort_values(["key", "doc_id"], ascending=[False, True])
           .head(20).reset_index(drop=True))
    return pd.DataFrame({
        "rank": pd.array(range(1, len(out) + 1), dtype="int64"),
        "doc_id": out["doc_id"].astype("int64"),
        "key": out["key"].astype("int64"),
    })


def ft_sort_missing_last(sf_dir: str):
    """sort with missing values (FieldSortBuilder#missing `_last`): docs
    whose sort key is absent rank after every present key; ordering
    pinned via the rank column."""

    def key(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.cast(t["n_chars"], pa.int64())
        k5 = pc.subtract(k, pc.multiply(pc.divide(k, 5), 5))  # n_chars % 5
        key = pc.if_else(pc.equal(k5, 0), pa.scalar(None, pa.int64()), k5)
        return pa.table({"doc_id": t["doc_id"], "key": key})

    out = (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
           .map_batches(key, batch_format="pyarrow").to_pandas())
    # +inf sentinel = deterministic NULLS LAST with doc_id tie-break even
    # inside the missing block (pandas NaN placement alone is not keyed)
    out = (out.assign(ks=out["key"].fillna(np.inf))
           .sort_values(["ks", "doc_id"])
           .head(20).reset_index(drop=True))
    return pd.DataFrame({
        "rank": pd.array(range(1, len(out) + 1), dtype="int64"),
        "doc_id": out["doc_id"].astype("int64"),
    })


def ft_min_score(sf_dir: str):
    """min_score search option (SearchSourceBuilder#minScore: hits scoring
    below the cutoff are dropped after scoring): match OR query, cutoff
    0.75, ordered by doc_id."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "match", "text": "data query window"})
    keep = sc >= 0.75
    ids, sc = ids[keep], sc[keep]
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def ft_indices_boost(sf_dir: str):
    """indices_boost (SearchSourceBuilder#indexBoosts: per-index score
    multiplier applied to every hit from that index). The source column
    plays the index-name role: src1 x2.0, src2 x1.3, rest x1.0."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "term", "term": "data"})
    src = s.fetch(ids, ["source"])["source"].to_numpy(zero_copy_only=False)
    mult = np.where(src == "src1", 2.0, np.where(src == "src2", 1.3, 1.0))
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away((sc * mult)[order].astype(np.float64), 4),
    })


def ft_source_filtering(sf_dir: str):
    """_source includes/excludes (FetchSourceContext / FetchSourcePhase):
    only the requested stored fields are materialized in the fetch phase
    for the top-5 hits — the text payload never leaves the fetch path."""
    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "term", "term": "query", "k": 5})
    includes = ["doc_id", "lang", "source", "n_chars"]
    excludes = {"text"}
    cols = [c for c in includes if c not in excludes]
    out = s.fetch(ids, cols).to_pandas()
    out["n_chars"] = out["n_chars"].astype("int64")
    out["score"] = round_half_away(sc.astype(np.float64), 4)
    return out


def ft_script_fields(sf_dir: str):
    """script_fields (SearchSourceBuilder#scriptField + the fetch-phase
    ScriptFieldsPhase): a per-hit computed field evaluated by the
    whitelisted-AST sandbox (scripting.py, the Painless analog) over stored
    doc values: chars_per_token = n_chars / doc_len."""
    from ..scripting import safe_eval_expr

    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "term", "term": "data", "k": 5})
    nch = s.fetch(ids, ["n_chars"])["n_chars"].to_numpy().astype(np.float64)
    dl = s.doc_lens[ids].astype(np.float64)
    vals = np.asarray([
        safe_eval_expr("n_chars / dl", {"n_chars": c, "dl": l})
        for c, l in zip(nch.tolist(), dl.tolist())])
    return pd.DataFrame({
        "doc_id": ids.astype(np.int64),
        "chars_per_token": round_half_away(vals, 4),
        "score": round_half_away(sc.astype(np.float64), 4),
    })


_TEMPLATE_PARAM_RE = None


def render_search_template(source: str, params: dict) -> dict:
    """Mustache renderer for the _search/template surface
    (modules/lang-mustache CustomMustacheFactory): {{name}} placeholders
    substitute from params (strings verbatim inside their quotes,
    non-strings as JSON literals); {{#name}}...{{/name}} sections render
    when truthy and ITERATE over list values binding {{.}} to each item;
    {{^name}}...{{/name}} renders on falsy (inverted sections)."""
    import json
    import re as _re

    sec = _re.compile(r"\{\{([#^])([\w.]+)\}\}(.*?)\{\{/\2\}\}", _re.S)
    ph = _re.compile(r"\{\{([\w.]+)\}\}")

    def render(src: str, env: dict) -> str:
        def rsec(m):
            kind, name, body = m.group(1), m.group(2), m.group(3)
            v = env.get(name)
            truthy = bool(v)
            if kind == "#":
                if not truthy:
                    return ""
                if isinstance(v, list):
                    return "".join(render(body, {**env, ".": item})
                                   for item in v)
                return render(body, env)
            return "" if truthy else render(body, env)

        out = src
        while sec.search(out):
            out = sec.sub(rsec, out)

        def sub(m):
            v = env[m.group(1)]
            return v if isinstance(v, str) else json.dumps(v)

        return ph.sub(sub, out)

    return json.loads(render(source, dict(params)))


def ft_search_template(sf_dir: str):
    """_search/template (modules/lang-mustache RestSearchTemplateAction):
    render a stored template with params, then run the resulting query."""
    template = '{"kind": "match", "text": "{{q}}", "k": {{size}}}'
    q = render_search_template(template, {"q": "data query", "size": 5})
    return topk_matches(sf_dir, q)


def ft_mtermvectors(sf_dir: str):
    """_mtermvectors (TransportMultiTermVectorsAction): term vectors for
    several docs in one request — (doc_id, term, tf) rows."""
    from collections import Counter

    from ..analyzer import analyze_simple
    from ..sources.reader import fetch_rows_by_doc_id

    doc_ids = [7, 42]
    t = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                             doc_ids, columns=["doc_id", "text"])
    rows = []
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for term, tf in sorted(Counter(analyze_simple(text)).items()):
            rows.append((did, term, tf))
    rows.sort()
    return pd.DataFrame({
        "doc_id": pd.array([r[0] for r in rows], dtype="int64"),
        "term": [r[1] for r in rows],
        "tf": pd.array([r[2] for r in rows], dtype="int64"),
    })


def ft_alias_filter(sf_dir: str):
    """Filtered alias (AliasMetadata#filter, applied as AliasFilter in the
    shard search request): querying through alias src1_docs ANDs the alias
    filter in filter context — it narrows the doc set but contributes no
    score."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "filter": [{"kind": "meta_term", "field": "source", "value": "src1"}],
    })
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def ft_profile(sf_dir: str):
    """_search?profile=true analog (SearchProfileShardResults /
    ProfileResult): the deterministic part of the per-node breakdown — node
    type, Lucene-style description, and matched doc_count for a bool query
    tree. Timing fields are host-dependent and omitted."""
    s = documents_searcher(sf_dir)
    d_ids, _ = s._eval({"kind": "term", "term": "data"})
    w_ids, _ = s._eval({"kind": "term", "term": "window"})
    b_ids, _ = s._eval({"kind": "bool", "must": [
        {"kind": "term", "term": "data"}, {"kind": "term", "term": "window"}]})
    rows = [
        ("BooleanQuery", "+text:data +text:window", int(b_ids.size)),
        ("TermQuery", "text:data", int(d_ids.size)),
        ("TermQuery", "text:window", int(w_ids.size)),
    ]
    return pd.DataFrame({
        "node": [r[0] for r in rows],
        "description": [r[1] for r in rows],
        "doc_count": pd.array([r[2] for r in rows], dtype="int64"),
    })


# ---------------- round-3c language analyzer gates ----------------

_LANG_SAMPLES.update({
    "romanian": "Copiii se jucau în casele frumoase ale orașelor naționale",
    "finnish": "Lapset leikkivät kauniissa taloissa mahdollisuuksien kanssa",
    "hungarian": "A gyerekek a szép házakban játszottak a lehetőségekkel",
    "turkish": "Çocuklar İstanbul'daki güzel evlerde oynuyorlardı",
    "greek": "Τα παιδιά έπαιζαν στα όμορφα σπίτια με τις δυνατότητες",
    "hindi": "बच्चे सुंदर घरों में संभावनाओं के साथ खेलते थे",
    "czech": "Děti si hrály v krásných domech s možnostmi",
    "bulgarian": "Децата играеха в красивите къщи с възможностите",
    "latvian": "Bērni spēlējās skaistajās mājās ar iespējām",
    "indonesian": "Anak-anak bermain di rumah indah dengan kemungkinannya",
    "sorani": "منداڵەکان لە ماڵە جوانەکان یاری دەکەن",
    # exercises RSLP plural (ões->ão), feminine (ora->or), adverb
    # (-mente), diminutive (-inha/-inho) and verb (-avam) rule families
    "brazilian": ("As organizadoras brincavam rapidamente nas casinhas "
                  "bonitas com as possibilidades e corações"),
})


def ft_analyze_romanian(sf_dir: str):
    return _lang_analyze("romanian")


def ft_analyze_finnish(sf_dir: str):
    return _lang_analyze("finnish")


def ft_analyze_hungarian(sf_dir: str):
    return _lang_analyze("hungarian")


def ft_analyze_turkish(sf_dir: str):
    return _lang_analyze("turkish")


def ft_analyze_greek(sf_dir: str):
    return _lang_analyze("greek")


def ft_analyze_hindi(sf_dir: str):
    return _lang_analyze("hindi")


def ft_analyze_czech(sf_dir: str):
    return _lang_analyze("czech")


def ft_analyze_bulgarian(sf_dir: str):
    return _lang_analyze("bulgarian")


def ft_analyze_latvian(sf_dir: str):
    return _lang_analyze("latvian")


def ft_analyze_indonesian(sf_dir: str):
    return _lang_analyze("indonesian")


def ft_analyze_sorani(sf_dir: str):
    return _lang_analyze("sorani")


def ft_analyze_brazilian(sf_dir: str):
    return _lang_analyze("brazilian")


# Round-3d: the final ten of the reference's 35 registered language
# analyzers (CommonAnalysisPlugin.java:188-223) — armenian..lithuanian
# light stemmer chains, chinese = StandardAnalyzer semantics (Han
# unigrams + english stop), thai = script-run substitute for the
# dictionary BreakIterator tokenizer (lang/extra.py).
_LANG_SAMPLES.update({
    "armenian": "երեխաները խաղում էին գեղեցիկ տներում հնարավորություններով",
    "basque": "haurrek etxe ederretan jolasten zuten aukerekin",
    "bengali": "বাচ্চারা সুন্দর বাড়িগুলোতে সম্ভাবনার সাথে খেলছিল",
    "catalan": "Els nens jugaven a l'escola amb les possibilitats nacionals",
    "chinese": "孩子们在北京玩耍 the children played",
    "estonian": "lapsed mängisid ilusates majades võimalustega",
    "galician": "Os nenos xogaban nas casas fermosas coas posibilidades",
    "irish": "Bhí na páistí ag imirt sna tithe áille leis na féidearthachtaí",
    "lithuanian": "vaikai žaidė gražiuose namuose su galimybėmis",
    "thai": "เด็ก ๆ เล่นใน บ้าน ที่ สวยงาม with possibilities",
})


def ft_analyze_armenian(sf_dir: str):
    return _lang_analyze("armenian")


def ft_analyze_basque(sf_dir: str):
    return _lang_analyze("basque")


def ft_analyze_bengali(sf_dir: str):
    return _lang_analyze("bengali")


def ft_analyze_catalan(sf_dir: str):
    return _lang_analyze("catalan")


def ft_analyze_chinese(sf_dir: str):
    return _lang_analyze("chinese")


def ft_analyze_estonian(sf_dir: str):
    return _lang_analyze("estonian")


def ft_analyze_galician(sf_dir: str):
    return _lang_analyze("galician")


def ft_analyze_irish(sf_dir: str):
    return _lang_analyze("irish")


def ft_analyze_lithuanian(sf_dir: str):
    return _lang_analyze("lithuanian")


def ft_analyze_thai(sf_dir: str):
    return _lang_analyze("thai")


def ft_analyze_common_grams(sf_dir: str):
    """common_grams token filter (CommonGramsFilter) over a fixed sentence:
    word_word bigrams emitted beside every common-word-adjacent token.
    Exact-oracled: the DuckDB twin rebuilds the interleaved stream with
    array subscripts."""
    from ..filters import make_analyzer_fn, make_common_grams_filter

    an = make_analyzer_fn(token_filters=(
        make_common_grams_filter({"the", "over"}),))
    toks = an("The quick fox jumps over the lazy dog")
    return pd.DataFrame({"position": pd.array(range(len(toks)), dtype="int64"),
                         "token": toks})


def ft_analyze_filter_chain(sf_dir: str):
    """pattern_replace -> truncate -> uppercase token-filter chain
    (PatternReplaceTokenFilterFactory / TruncateTokenFilterFactory /
    UpperCaseFilter composition through make_analyzer_fn). Exact-oracled."""
    from ..filters import (make_analyzer_fn, make_pattern_replace_filter,
                           make_truncate_filter, uppercase_filter)

    an = make_analyzer_fn(token_filters=(
        make_pattern_replace_filter(r"\d+", "#"),
        make_truncate_filter(5),
        uppercase_filter,
    ))
    toks = an("Elasticsearch2 rewritten99 on RayData batches7 streaming")
    return pd.DataFrame({"position": pd.array(range(len(toks)), dtype="int64"),
                         "token": toks})


# ---------------- round 3: sliced scroll + point-in-time view --------------


def ft_scroll_sliced(sf_dir: str):
    """sliced scroll (search/slice/SliceBuilder.java): the scroll splits
    into max=3 independent slices, membership = hash(_id) % max.
    DocValuesSliceQuery.java uses floorMod(BitMixer.mix(value), max); a
    Knuth multiplicative 32-bit hash is substituted so the DuckDB oracle
    re-derives membership in plain SQL — the disjoint-and-complete
    partition semantics are identical. Each slice walks its OWN
    search_after cursor (2 pages x 15 over o_totalprice desc, key asc);
    every page is a filter-pushed scan, never a full-result collect."""

    out_parts = []
    for sid in range(3):
        cursor = None
        for _page in range(2):
            def keep(t: pa.Table, cur=cursor, sid=sid) -> pa.Table:
                keys = t["o_orderkey"].to_numpy(zero_copy_only=False)
                h = (keys.astype(np.uint64) * np.uint64(2654435761)) \
                    % np.uint64(1 << 32)
                m = (h % np.uint64(3)) == np.uint64(sid)
                if cur is not None:
                    lp, lk = cur
                    price = t["o_totalprice"].to_numpy(zero_copy_only=False)
                    m = m & ((price < lp) | ((price == lp) & (keys > lk)))
                return t.filter(pa.array(m))

            page = (
                _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
                .map_batches(keep, batch_format="pyarrow")
                .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
                .limit(15)
                .to_pandas()
            )
            if page.empty:
                break
            page.insert(0, "slice_id", np.int64(sid))
            out_parts.append(page)
            cursor = (float(page.o_totalprice.iloc[-1]),
                      int(page.o_orderkey.iloc[-1]))
    out = pd.concat(out_parts, ignore_index=True)
    out["o_totalprice"] = round_half_away(out["o_totalprice"], 2)
    return out


_PIT_CACHE: dict[str, tuple[str, list[str]]] = {}


def _pit_setup(sf_dir: str) -> tuple[str, list[str]]:
    """PIT fixture: a base segment over the first 60% of documents, then a
    DELTA commit over the next 20% through the resumable build (partition
    ids are doc-offset-stable, so the second build_index call skips the
    committed base segment and only adds the delta). Returns
    (index_dir, pinned base segment ids)."""
    hit = _PIT_CACHE.get(sf_dir)
    if hit is not None:
        return hit
    import hashlib

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments, live_segments

    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"{src}:{os.path.getmtime(src)}:pit:v1".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"pit_{tag}")
    os.makedirs(root, exist_ok=True)
    t = pq.read_table(src, columns=["text"])
    n = t.num_rows
    n_base, n_all = (n * 3) // 5, (n * 4) // 5
    base_f = os.path.join(root, "base.parquet")
    delta_f = os.path.join(root, "delta.parquet")
    if not (os.path.exists(base_f) and os.path.exists(delta_f)):
        pq.write_table(t.slice(0, n_base), base_f)
        pq.write_table(t.slice(n_base, n_all - n_base), delta_f)
    idx = os.path.join(root, "index")
    kw = dict(analyzer="simple", index_positions=False,
              docs_per_partition=n_base, num_buckets=4,
              content_column="text", meta_columns=())
    build_index([base_f], idx, **kw)          # commit 1: the base segment
    build_index([base_f, delta_f], idx, **kw)  # commit 2: resumed, delta only
    segs = live_segments(committed_segments(idx))
    pit_segs = sorted(s for s in segs if int(s.rsplit("_", 1)[1]) < n_base)
    _PIT_CACHE[sf_dir] = (idx, pit_segs)
    return _PIT_CACHE[sf_dir]


def ft_pit(sf_dir: str):
    """point-in-time search (action/search/TransportOpenPointInTimeAction,
    SearchContextId): a PIT pins the live segment set at open time so
    repeated searches see a frozen view while the index keeps committing.
    The engine analog is exact: IndexSearcher(segments=[pinned ids]).
    Global stats (N / df / avgdl) come from the pinned view only, so PIT
    scores equal a standalone index over the base corpus — the delta docs
    are invisible to the PIT and shift the live view's scores."""
    from ..search.engine import IndexSearcher

    idx, pit_segs = _pit_setup(sf_dir)
    q = {"kind": "term", "term": "data"}
    frames = []
    for view, segs in (("live", None), ("pit", pit_segs)):
        s = IndexSearcher(idx, score_mode="exact64", main_field="text",
                          segments=segs)
        ids, sc = s._eval(q)
        order = np.argsort(ids)
        frames.append(pd.DataFrame({
            "view": view,
            "doc_id": ids[order].astype("int64"),
            "score": round_half_away(sc[order].astype(np.float64), 4),
        }))
    return pd.concat(frames, ignore_index=True)


def ft_mget(sf_dir: str):
    """_mget (action/get/TransportMultiGetAction): batched point reads of
    stored fields by doc id; misses come back found=false (GetResult
    shape). The isin filter is pushed into the parquet read so only
    matching row groups are scanned — never the whole table."""
    import pyarrow.compute as pc

    ids = [7, 42, 123, 314, 999_999_999]
    flt = pc.field("doc_id").isin(ids)
    got = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"],
              flt=flt).to_pandas()
    req = pd.DataFrame({"doc_id": pd.array(ids, dtype="int64")})
    out = req.merge(got, on="doc_id", how="left")
    out["found"] = out["lang"].notna()
    out["lang"] = out["lang"].fillna("")
    out["n_chars"] = out["n_chars"].fillna(-1).astype("int64")
    return (out[["doc_id", "found", "lang", "n_chars"]]
            .sort_values("doc_id").reset_index(drop=True))


def ft_fuzzy_options(sf_dir: str):
    """FuzzyQuery options (FuzzyQueryBuilder prefix_length /
    max_expansions): 'sow'~2 expands to {row, slow, sort}; prefix_length=1
    drops 'row'; max_expansions=1 keeps only the (distance, term)-least
    expansion 'slow'."""
    s = documents_searcher(sf_dir)
    variants = [
        ("base", {"kind": "fuzzy", "term": "sow", "fuzziness": 2}),
        ("capped", {"kind": "fuzzy", "term": "sow", "fuzziness": 2,
                    "prefix_length": 1, "max_expansions": 1}),
        ("prefix", {"kind": "fuzzy", "term": "sow", "fuzziness": 2,
                    "prefix_length": 1}),
    ]
    parts = []
    for name, q in variants:
        ids, _ = s._eval(q)
        parts.append(pd.DataFrame({"variant": name,
                                   "doc_id": np.sort(ids).astype("int64")}))
    return pd.concat(parts, ignore_index=True)


def ft_highlight_options(sf_dir: str):
    """Highlighter options (HighlightBuilder pre_tags/post_tags,
    fragment_size, number_of_fragments) over the plain highlighter — custom
    tags, 8-word fragments, first 2 hit fragments joined by ' ... '."""
    from .fulltext import highlight_with_options

    return highlight_with_options(sf_dir, term="merge", k=3,
                                  pre_tag="<b>", post_tag="</b>",
                                  fragment_size=8, number_of_fragments=2)


def ft_suggest_modes(sf_dir: str):
    """term suggester suggest_mode (SuggestMode.MISSING/POPULAR/ALWAYS):
    'popular' keeps only candidates strictly more frequent than the input
    term ('part', in-vocabulary); 'missing' for an out-of-vocabulary input
    ('quer') falls through to normal suggestion; 'missing' for an
    in-vocabulary input contributes no rows."""
    parts = []
    for mode, text in (("missing", "part"), ("missing", "quer"),
                       ("popular", "part")):
        t = suggest_terms(sf_dir, text, max_edits=2, size=5,
                          suggest_mode=mode).to_pandas()
        t.insert(0, "mode", f"{mode}:{text}")
        parts.append(t)
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["mode", "distance", "term"]).reset_index(drop=True)


def ft_stored_script(sf_dir: str):
    """Stored scripts (_scripts/{id}: StoredScriptSource, compile-on-store)
    referenced from script_score by id; the id is resolved on the submitting
    process (inline_stored_scripts / resolve_script) like the reference
    compiles stored scripts from cluster state."""
    from ..scripting import inline_stored_scripts, put_stored_script

    put_stored_script("rescale_sqrt", "_score * sqrt(n_chars)")
    q = inline_stored_scripts({
        "kind": "script_score",
        "query": {"kind": "term", "term": "data"},
        "script": {"id": "rescale_sqrt"}})
    return all_matches(sf_dir, q)


def agg_children(sf_dir: str):
    """children aggregation (modules/parent-join ChildrenAggregationBuilder):
    terms buckets over the PARENT customers' c_mktsegment, stepping into the
    child orders to count them and sum o_totalprice. The parent->segment map
    is the small side: broadcast once via ray.put, mapped into child batches
    (vectorized pandas hash lookup), per-batch partial aggregation, tiny
    final combine."""
    import ray

    custs = _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_ref = ray.put(pd.Series(
        custs.c_mktsegment.to_numpy(), index=custs.c_custkey.to_numpy()))

    def part(t: pa.Table) -> pa.Table:
        seg = ray.get(seg_ref)
        df = pd.DataFrame({
            "segment": seg.reindex(t["o_custkey"].to_numpy()).to_numpy(),
            "price": t["o_totalprice"].to_numpy(),
        })
        g = df.groupby("segment", as_index=False).agg(
            doc_count=("price", "size"), total=("price", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        part, batch_format="pyarrow").to_pandas()
    out = parts.groupby("segment", as_index=False).agg(
        doc_count=("doc_count", "sum"), total=("total", "sum"))
    out["doc_count"] = out.doc_count.astype("int64")
    out["total"] = [float(round_half_away(v, 2)) for v in out.total]
    return out.sort_values("segment").reset_index(drop=True)


def agg_parent(sf_dir: str):
    """parent aggregation (modules/parent-join ParentAggregationBuilder):
    terms buckets over the CHILD orders' o_orderpriority, stepping up to the
    parent customer — bucket value = number of DISTINCT parents with at
    least one child in the bucket (two-phase distinct-then-count, no driver
    materialization)."""
    out = A.value_count_distinct(
        _ds(sf_dir, "orders", ["o_orderpriority", "o_custkey"]),
        "o_orderpriority", "o_custkey")
    return out.rename(columns={"distinct_count": "parent_count"})


def agg_sibling_buckets(sf_dir: str):
    """avg_bucket / min_bucket / max_bucket / sum_bucket sibling pipeline
    aggs (pipeline/AvgBucketPipelineAggregationBuilder et al.): single-value
    extractions over the sibling date_histogram's per-day value sums.
    min/max also report the KEYS of the extreme buckets (the reference's
    min_bucket/max_bucket return keys[] alongside value)."""
    h = A.date_histogram(_ds(sf_dir, "events"), "ts", "day", value="value")
    v = h["sum_value"].to_numpy()
    days = h["bucket"].dt.strftime("%Y-%m-%d").to_numpy()
    return pd.DataFrame({
        "avg_bucket": [float(round_half_away(float(v.mean()), 4))],
        "min_bucket": [float(round_half_away(float(v.min()), 4))],
        "min_key": [days[int(v.argmin())]],
        "max_bucket": [float(round_half_away(float(v.max()), 4))],
        "max_key": [days[int(v.argmax())]],
        "sum_bucket": [float(round_half_away(float(v.sum()), 4))],
    })


def ft_validate_query(sf_dir: str):
    """_validate/query (rest/action/RestValidateQueryAction,
    TransportValidateQueryAction): parse + rewrite WITHOUT collecting hits;
    query_string text goes through the strict parser so malformed input
    (unbalanced parens, unterminated quotes, dangling operators) reports
    invalid like the reference's ParseException path."""
    s = documents_searcher(sf_dir)
    battery = [
        ("bool_tree_ok", {"kind": "bool",
                          "must": [{"kind": "match", "text": "data query"}],
                          "must_not": [{"kind": "term", "term": "slow"}]}),
        ("fuzzy_bad_fuzziness", {"kind": "fuzzy", "term": "data",
                                 "fuzziness": "banana"}),
        ("missing_param", {"kind": "term"}),
        ("qs_dangling_and", {"kind": "query_string", "query": "data AND"}),
        ("qs_ok", {"kind": "query_string",
                   "query": 'data AND (query OR "slow merge")'}),
        ("qs_unbalanced_paren", {"kind": "query_string",
                                 "query": "data AND (query"}),
        ("qs_unterminated_quote", {"kind": "query_string",
                                   "query": '"data query'}),
        ("term_ok", {"kind": "term", "term": "data"}),
        ("unknown_kind", {"kind": "nope_kind"}),
        ("wildcard_ok", {"kind": "wildcard", "pattern": "da*a"}),
    ]
    rows = [(name, s.validate(q)[0]) for name, q in battery]
    return pd.DataFrame({"query_id": [r[0] for r in rows],
                         "valid": [bool(r[1]) for r in rows]})


def ft_completion_geo_context(sf_dir: str):
    """Geo-context completion (GeoContextMapping / GeoQueryContext:
    CompletionFieldMapper contexts of type `geo` index the entry under the
    geohash cell of its location; a suggest call filters to the query
    point's cell). Entries = event_type strings weighted by event count
    within each precision-2 geohash cell of the emitting user's synthetic
    point; weights pre-aggregate per batch (partial combine) so only
    (type, cell) partials reach the driver. Query point (-60, -123) -> cell '1m'."""
    from ..search.suggest import CompletionSuggester

    def part(t: pa.Table) -> pa.Table:
        g = _geo_cols(t)
        cells = geohash_encode(g["lat"].to_numpy(), g["lon"].to_numpy(), 2)
        df = pd.DataFrame({"input": np.asarray(t["event_type"]).astype(str),
                           "cell": cells})
        out = df.groupby(["input", "cell"], as_index=False).size()
        return pa.Table.from_pandas(out.rename(columns={"size": "w"}),
                                    preserve_index=False)

    parts = (_ds(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(part, batch_format="pyarrow").to_pandas())
    agg = parts.groupby(["input", "cell"], as_index=False).agg(w=("w", "sum"))
    sug = CompletionSuggester(
        [(r.input, int(r.w), [r.cell]) for r in agg.itertuples()])
    qcell = geohash_encode(np.array([-60.0]), np.array([-123.0]), 2)[0]
    return sug.suggest("", size=5, context=qcell)


def cat_segments(sf_dir: str):
    """_cat/segments (rest/action/cat/RestSegmentsAction,
    IndicesSegmentsAction): per-segment stats read from the committed
    MANIFESTS — doc range, doc count, indexed-token total, merge
    generation. Partitioning is fragment-granular and the test
    documents.parquet is one row group, so the live view is a single flush
    segment; the oracle recomputes its doc range / count / token total from
    the raw table, verifying the recorded lineage exactly."""
    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    segs = live_segments(committed_segments(documents_index(sf_dir)))
    rows = sorted((m.doc_id_min, m.doc_id_max, m.doc_count, m.sum_doc_len,
                   m.generation) for m in segs.values())
    return pd.DataFrame({
        "doc_id_min": pd.array([r[0] for r in rows], dtype="int64"),
        "doc_id_max": pd.array([r[1] for r in rows], dtype="int64"),
        "doc_count": pd.array([r[2] for r in rows], dtype="int64"),
        "tokens": pd.array([r[3] for r in rows], dtype="int64"),
        "generation": pd.array([r[4] for r in rows], dtype="int64"),
    })


def cat_indices(sf_dir: str):
    """_cat/indices // index stats surface (rest/action/cat/RestIndicesAction,
    IndexStats): doc count, indexed-token total and global avgdl read from
    the committed segment MANIFESTS (lineage metadata), not recomputed —
    the oracle recomputes them from the raw table, so this gate proves the
    build's recorded lineage numbers are exact."""
    from ..index.manifest import index_stats
    from .fulltext import documents_index

    st = index_stats(documents_index(sf_dir))
    return pd.DataFrame({
        "docs": pd.array([st.doc_count], dtype="int64"),
        "tokens": pd.array([st.sum_doc_len], dtype="int64"),
        "avgdl": [float(round_half_away(st.avgdl, 4))],
    })


def ft_zero_terms(sf_dir: str):
    """match zero_terms_query (index/search/MatchQuery.java:121
    ZeroTermsQuery.ALL): a query whose analysis strips every token
    (punctuation-only input) rewrites to match_all instead of matching
    nothing; every doc comes back at the query boost (constant 1.0)."""
    return all_matches(sf_dir, {"kind": "match", "text": "??? !!!",
                                "zero_terms_query": "all"})


def ft_multi_match_phrase(sf_dir: str):
    """multi_match type=phrase (index/query/MultiMatchQueryBuilder.java
    Type.PHRASE): a match_phrase per field combined best-fields style
    (dis_max). The source field is single-token so its phrase side is
    empty; the doc set is the union across fields."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data query",
        "fields": ["text", "source"], "type": "phrase"}, with_score=False)


def ft_multi_match_phrase_prefix(sf_dir: str):
    """multi_match type=phrase_prefix (Type.PHRASE_PREFIX): per-field
    match_phrase_prefix, dis_max across fields."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data quer",
        "fields": ["text", "source"], "type": "phrase_prefix"},
        with_score=False)


def ft_multi_match_bool_prefix(sf_dir: str):
    """multi_match type=bool_prefix (Type.BOOL_PREFIX, 7.2+): per-field
    match_bool_prefix (scored shoulds + prefix-on-last), dis_max across
    fields. The source side matches nothing here so scores equal the
    single-field match_bool_prefix values."""
    return all_matches(sf_dir, {
        "kind": "multi_match", "text": "data quer",
        "fields": ["text", "source"], "type": "bool_prefix"})


def ft_intervals_fuzzy(sf_dir: str):
    """intervals fuzzy rule (IntervalsSourceProvider.Fuzzy, added 7.6):
    dictionary expansion within the edit budget, constant-score union of
    the expansions' interval matches."""
    return all_matches(sf_dir, {
        "kind": "intervals",
        "rule": {"fuzzy": {"term": "quary", "fuzziness": 1}}},
        with_score=False)


def agg_terms_options(sf_dir: str):
    """terms agg options (TermsAggregationBuilder: missing / IncludeExclude /
    order-by-metric / size): key is NULLIF(event_type,'click') so the
    `missing` bucket is real; 'error' is excluded by regex BEFORE the
    shuffle; buckets order by sum_value desc and truncate to 3."""
    import pyarrow.compute as _pc

    def derive(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        k = _pc.if_else(_pc.equal(et, "click"), pa.nulls(len(t), pa.string()), et)
        return pa.table({"etype": k, "value": t["value"]})

    ds = (_ds(sf_dir, "events", ["event_type", "value"])
          .map_batches(derive, batch_format="pyarrow"))
    out = A.terms_agg_options(
        ds, "etype", "value", missing="(none)", exclude="error",
        order=("sum_value", "desc"), size=3)
    out["sum_value"] = round_half_away(out["sum_value"], 4)
    return out


def agg_histogram_options(sf_dir: str):
    """histogram options (HistogramAggregationBuilder offset /
    extended_bounds / min_doc_count=0): width 50 offset 25 over value with
    empty buckets filled out to extended_bounds hi=700."""
    return A.histogram_options(
        _ds(sf_dir, "events", ["value"]), "value", 50.0, offset=25.0,
        min_doc_count=0, extended_bounds=(0.0, 700.0))


def agg_date_histogram_tz(sf_dir: str):
    """date_histogram time_zone (+05:30) + offset (+6h) — Rounding.java
    fixed-offset zone rounding, keys reported in UTC."""
    return A.date_histogram_tz(
        _ds(sf_dir, "events", ["ts"]), "ts", interval="day",
        tz_minutes=330, offset_minutes=360)


_MULTI_IDX: dict[str, "object"] = {}


def _multi_index_searcher(sf_dir: str):
    """Two real indices split from documents by lang ('docs-en' = lang en,
    'docs-other' = the rest), each built separately so BM25 stats are
    genuinely per-index. Subsets are written ordered by the original doc_id,
    so each index's deterministic ids equal row_number()-1 over that order
    (the oracle's mapping)."""
    if sf_dir in _MULTI_IDX:
        return _MULTI_IDX[sf_dir]
    import hashlib as _h
    import os as _os

    import duckdb as _duck

    from ..index.build import build_index
    from ..search.engine import IndexSearcher
    from ..search.multi import MultiIndexSearcher

    src = _os.path.join(sf_dir, "documents.parquet")
    tag = _h.sha1(f"{src}:{_os.path.getmtime(src)}:multi:v1".encode()).hexdigest()[:16]
    root = _os.path.join("/tmp/esray_cache", f"multiidx_{tag}")
    _os.makedirs(root, exist_ok=True)
    parts = {"docs-en": "lang = 'en'", "docs-other": "lang <> 'en'"}
    searchers = {}
    for name, cond in parts.items():
        sub = _os.path.join(root, f"{name}.parquet")
        if not _os.path.exists(sub):
            _duck.sql(
                f"COPY (SELECT * FROM read_parquet('{src}') WHERE {cond} "
                f"ORDER BY doc_id) TO '{sub}' (FORMAT PARQUET)")
        idx_dir = _os.path.join(root, f"idx_{name}")
        build_index(sub, idx_dir, analyzer="simple", index_positions=True,
                    docs_per_partition=2500, num_buckets=8,
                    content_column="text", meta_columns=("lang", "source"))
        searchers[name] = IndexSearcher(idx_dir, score_mode="exact64",
                                        main_field="text")
    _MULTI_IDX[sf_dir] = MultiIndexSearcher(searchers)
    return _MULTI_IDX[sf_dir]


def ft_multi_index(sf_dir: str):
    """Multi-index search (TransportSearchAction index resolution): the
    wildcard expression docs-* fans one term query out to both indices;
    every index scores with ITS OWN N/df/avgdl (stats never pool across
    indices under query_then_fetch)."""
    m = _multi_index_searcher(sf_dir)
    t = m.search_all("docs-*", {"kind": "term", "term": "data"})
    sc = round_half_away(t["score"].to_numpy(), 4)
    return pa.table({"index": t["index"], "doc_id": t["doc_id"],
                     "score": pa.array(sc)})


def ft_multi_index_boost(sf_dir: str):
    """indices_boost across indices (SearchSourceBuilder#indexBoosts): hits
    from docs-en are multiplied by 1.5 and docs-other by 0.7 before the
    cross-index top-k merge (score desc, index asc, doc_id asc)."""
    m = _multi_index_searcher(sf_dir)
    t = m.search("docs-*", {"kind": "term", "term": "data"}, k=10,
                 indices_boost={"docs-en": 1.5, "docs-other": 0.7})
    sc = round_half_away(t["score"].to_numpy(), 4)
    return pa.table({"index": t["index"], "doc_id": t["doc_id"],
                     "score": pa.array(sc)})


def ft_fuzzy_transpositions(sf_dir: str):
    """fuzzy transpositions=true (FuzzyQueryBuilder#transpositions, the
    reference's DEFAULT; Lucene LevenshteinAutomata with transpositions =
    OSA distance): an adjacent swap counts as ONE edit, so 'dtaa' reaches
    'data' at fuzziness 1. At fuzziness 1 OSA equals unrestricted
    Damerau-Levenshtein, making DuckDB's damerau_levenshtein an exact
    oracle (they diverge only at distance >= 2 on re-edited pairs)."""
    return all_matches(sf_dir, {"kind": "fuzzy", "term": "dtaa",
                                "fuzziness": 1, "transpositions": True},
                       with_score=False)


def agg_significant_gnd(sf_dir: str):
    """significant_terms with the GND heuristic (significant/heuristics/
    GND.java, Cilibrasi & Vitanyi's Google Normalized Distance inverted to
    a higher-is-better score): fx = bg_df, fy = fg_n, fxy = fg_df, N = bg_n;
    score = exp(-(max(ln fx, ln fy) - ln fxy)/(ln N - min(ln fx, ln fy))),
    0 when fxy = 0 and 1 at perfect co-occurrence (fx = fy = fxy)."""
    red, fg_n, bg_n = _significant_dfs(sf_dir)
    fx = red.bg_df.astype(float)
    fy = float(fg_n)
    fxy = red.fg_df.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (np.maximum(np.log(fx), np.log(fy)) - np.log(fxy)) / \
              (np.log(float(bg_n)) - np.minimum(np.log(fx), np.log(fy)))
        score = np.exp(-raw)
    score = np.where(fxy == 0, 0.0, score)
    score = np.where((fx == fy) & (fx == fxy), 1.0, score)
    red["gnd"] = round_half_away(score, 6)
    red = red[red.fg_df >= 5]
    red = red.sort_values(["gnd", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "gnd"]]


def ft_intervals_filter(sf_dir: str):
    """intervals `filter` rule (IntervalsSourceProvider.IntervalFilter,
    server/.../index/query/IntervalsSourceProvider.java): match
    'data query' (ordered, max_gaps=1) with not_containing 'agg' — minimal
    source intervals whose span covers an 'agg' position are discarded; a
    doc matches if at least one interval survives."""
    return all_matches(sf_dir, {"kind": "intervals",
                                "rule": {"match": {
                                    "query": "data query", "max_gaps": 1,
                                    "ordered": True,
                                    "filter": {"not_containing": {
                                        "match": {"query": "agg"}}}}}},
                       with_score=False)


_UA_SAMPLES = [
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/96.0.4664.110 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 "
    "(KHTML, like Gecko) Version/15.1 Safari/605.1.15",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 15_0 like Mac OS X) "
    "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.0 Mobile/15E148 "
    "Safari/604.1",
    "Mozilla/5.0 (X11; Linux x86_64; rv:95.0) Gecko/20100101 Firefox/95.0",
    "curl/7.68.0",
    "SomethingUnknown/1.0",
]


def ingest_user_agent(sf_dir: str):
    """`user_agent` processor (modules/ingest-user-agent,
    UserAgentProcessor.java): deterministic UA strings assigned per event
    (user_id mod len(samples)), parsed in a map_batches stage, then counted
    by (browser name, major, os, device)."""
    from ..functions import ingest as I

    ds = _ds(sf_dir, "events", ["event_id", "user_id"])

    def assign(t: pa.Table) -> pa.Table:
        idx = t["user_id"].to_numpy() % len(_UA_SAMPLES)
        return t.append_column(
            "ua", pa.array([_UA_SAMPLES[i] for i in idx], pa.string()))

    from ray.data.aggregate import Sum

    pipe = I.pipeline(I.user_agent("ua"))

    def partial(t: pa.Table) -> pa.Table:
        # partial counts per batch; the shuffle carries one row per distinct
        # UA shape per block, not per event
        df = t.select(["ua_name", "ua_major", "ua_os", "ua_device"]) \
            .to_pandas()
        g = (df.groupby(list(df.columns), dropna=False)
             .size().reset_index(name="doc_count"))
        return pa.Table.from_pandas(g, preserve_index=False)

    g = (ds.map_batches(assign, batch_format="pyarrow")
         .map_batches(pipe, batch_format="pyarrow")
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["ua_name", "ua_major", "ua_os", "ua_device"])
         .aggregate(Sum("doc_count", alias_name="doc_count"))
         .to_pandas())
    for c in ("ua_name", "ua_major", "ua_os", "ua_device"):
        g[c] = g[c].astype(object).where(g[c].notna(), None)
    g["doc_count"] = g["doc_count"].astype(np.int64)
    return (g.sort_values("ua_name").reset_index(drop=True)
            [["ua_name", "ua_major", "ua_os", "ua_device", "doc_count"]])


def ingest_geoip(sf_dir: str):
    """`geoip` processor (modules/ingest-geoip, GeoIpProcessor.java):
    deterministic per-event IPs (first octet walks the embedded range table
    plus a miss octet, low bits from event_id), resolved via the sorted
    uint32 range lookup, counted per city."""
    from ..functions import ingest as I

    octets = [1, 24, 46, 81, 101, 133, 177, 196, 9]  # 9 -> no DB range

    ds = _ds(sf_dir, "events", ["event_id", "user_id"])

    def assign(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy()
        eid = t["event_id"].to_numpy()
        ips = [f"{octets[u % len(octets)]}.{(e >> 8) & 255}.{e & 255}.7"
               for u, e in zip(uid, eid)]
        return t.append_column("ip", pa.array(ips, pa.string()))

    from ray.data.aggregate import Sum

    pipe = I.pipeline(I.geoip("ip"))

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(["geo_continent_name", "geo_country_iso_code",
                       "geo_city_name", "geo_lat", "geo_lon"]).to_pandas()
        g = (df.groupby(["geo_continent_name", "geo_country_iso_code",
                         "geo_city_name"], dropna=False)
             .agg(doc_count=("geo_city_name", "size"),
                  geo_lat=("geo_lat", "first"),
                  geo_lon=("geo_lon", "first"))
             .reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    red = (ds.map_batches(assign, batch_format="pyarrow")
           .map_batches(pipe, batch_format="pyarrow")
           .map_batches(partial, batch_format="pyarrow")
           .to_pandas())
    g = (red.groupby(["geo_continent_name", "geo_country_iso_code",
                      "geo_city_name"], dropna=False)
         .agg(doc_count=("doc_count", "sum"),
              lat=("geo_lat", "first"), lon=("geo_lon", "first"))
         .reset_index())
    g["doc_count"] = g["doc_count"].astype(np.int64)
    for c in ("geo_continent_name", "geo_country_iso_code", "geo_city_name"):
        g[c] = g[c].astype(object).where(g[c].notna(), None)
    g["lat"] = g["lat"].astype(np.float64)
    g["lon"] = g["lon"].astype(np.float64)
    return (g.sort_values("geo_city_name", na_position="last")
            .reset_index(drop=True))


def scaled_float_range(sf_dir: str):
    """scaled_float field type (modules/mapper-extras,
    ScaledFloatFieldMapper.java): values indexed as
    long = Math.round(value * scaling_factor) (= floor(x + 0.5)); range
    bounds translate to lo = round(ceil(scale(lower))) (Math.nextUp first
    when exclusive) and hi = round(floor(scale(upper))) (nextDown when
    exclusive); display value = stored / scaling_factor."""
    SCALING = 100.0
    lower, upper = 100.005, 160.004  # gt lower, lte upper
    lo = int(np.round(np.ceil(np.nextafter(lower * SCALING, np.inf))))
    hi = int(np.round(np.floor(upper * SCALING)))

    ds = _ds(sf_dir, "events", ["event_id", "value"])

    def f(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        stored = np.floor(v * SCALING + 0.5).astype(np.int64)
        m = (stored >= lo) & (stored <= hi)
        return pa.table({"event_id": t["event_id"].to_numpy()[m],
                         "scaled_value": stored[m] / SCALING})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def rank_features_query(sf_dir: str):
    """rank_features field (modules/mapper-extras,
    RankFeaturesFieldMapper.java): one field holding a feature->positive
    value map; rank_feature queries address features.<name> and score
    saturation(x) = x / (x + pivot) (RankFeatureQueryBuilder with an
    explicit pivot, required against rank_features fields). Features here
    derive deterministically from the props JSON payload."""
    import json

    PIVOT = 3.0

    ds = _ds(sf_dir, "events", ["event_id", "props"])

    def f(t: pa.Table) -> pa.Table:
        ks = np.array([json.loads(s)["k"] for s in t["props"].to_pylist()],
                      np.int64)
        urgency = (ks % 7 + 1).astype(np.float64)
        score = urgency / (urgency + PIVOT)
        m = urgency >= 5  # features are sparse: only high-urgency docs carry it
        return pa.table({"event_id": t["event_id"].to_numpy()[m],
                         "score": round_half_away(score[m], 6)})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def mapper_size(sf_dir: str):
    """_size metafield (plugins/mapper-size, SizeFieldMapper): byte length
    of the document source — here the UTF-8 octet length of the text
    payload — indexed as a long and range-queryable."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        size = pc.binary_length(pc.cast(t["text"], pa.binary())).to_numpy()
        m = size >= 400
        return pa.table({"doc_id": t["doc_id"].to_numpy()[m],
                         "size": size[m].astype(np.int64)})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def mapper_murmur3(sf_dir: str):
    """murmur3 metafield (plugins/mapper-murmur3, Murmur3FieldMapper):
    index-time MurmurHash3 x64_128 .h1 of the field's UTF-8 bytes, used to
    back cardinality aggs without re-hashing at query time. Hashes are
    computed once per DISTINCT value (dictionary-encode then hash) — the
    scale path for the low-cardinality columns this mapper targets. The
    oracle checks exact distinct parity (the 128-bit hash is
    collision-free at any realistic cardinality)."""
    from ..functions.text import murmur3_x64_128

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(t["lang"].combine_chunks())
        uniq = [murmur3_x64_128(s.encode())[0]
                for s in enc.dictionary.to_pylist()]
        hashes = np.array(uniq, np.uint64)[enc.indices.to_numpy()]
        return pa.table({"hash": hashes})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"lang_cardinality": [np.int64(out["hash"].nunique())]})


def token_count_field(sf_dir: str):
    """token_count field type (modules/mapper-extras,
    TokenCountFieldMapper.java): index-time analyzer token count stored as
    an integer field; here counted with the documents analyzer and
    range-queried."""
    from ..analyzer import get_analyzer

    analyze = get_analyzer("simple").tokenize  # the documents-index analyzer

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        counts = np.array([len(analyze(x)) for x in t["text"].to_pylist()],
                          np.int64)
        m = counts >= 70
        return pa.table({"doc_id": t["doc_id"].to_numpy()[m],
                         "token_count": counts[m]})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def annotated_text_analyze(sf_dir: str):
    """annotated_text field type (plugins/mapper-annotated-text,
    AnnotatedTextFieldMapper.java): markdown-style `[wrapped](value)`
    annotations; values are URL-decoded and injected verbatim at the
    position of the wrapped text's first token. Fixed-string analysis of
    the reference's own javadoc example."""
    from ..analyzer import analyze_annotated_positions

    toks = analyze_annotated_positions(
        "New mayor is [John Smith](person&John%20Smith) today")
    return pd.DataFrame({"token": [t for t, _ in toks],
                         "position": pd.array([p for _, p in toks],
                                              dtype="int64")})


def annotated_text_terms(sf_dir: str):
    """annotated_text over the corpus: every doc annotated with its lang
    (`[lang](lang-xx) text`); injected annotation tokens counted per value
    through the standard analysis chain — the entity-aggregation use case
    the plugin exists for."""
    import pyarrow.compute as pc

    from ..analyzer import get_analyzer

    ann = get_analyzer("annotated_text")

    def annotate(t: pa.Table) -> pa.Table:
        lang = t["lang"]
        return pa.table({"text": pc.binary_join_element_wise(
            "[", lang, "](lang-", lang, ") ", t["text"], "")})

    out = count_terms(
        _ds(sf_dir, "documents", ["lang", "text"])
        .map_batches(annotate, batch_format="pyarrow"),
        lambda s: [tok for tok, _pos in ann.positions(s)
                   if tok.startswith("lang-")],
        key="token").rename(columns={"cnt": "doc_count"})
    return out.sort_values("token").reset_index(drop=True)


def phonetic_soundex(sf_dir: str):
    """`phonetic` token filter, soundex encoder (plugins/analysis-phonetic,
    PhoneticTokenFilterFactory + commons-codec Soundex): code every nation
    name; the oracle re-derives soundex in SQL (translate + adjacent-code
    collapse via an indexed list_filter)."""
    from ..filters import soundex

    ds = _ds(sf_dir, "nation", ["n_name"])

    def f(t: pa.Table) -> pa.Table:
        names = t["n_name"].to_pylist()
        return pa.table({"n_name": names,
                         "code": [soundex(x) for x in names]})

    out = ds.map_batches(f, batch_format="pyarrow").to_pandas()
    return out.sort_values("n_name").reset_index(drop=True)


_METAPHONE_WORDS = [
    "testing", "The", "quick", "brown", "fox", "jumped", "over", "lazy",
    "dogs", "howl", "Knight", "phone", "school", "gnome", "judge",
    "metaphone", "Thompson", "science", "exhaust", "shallow",
]


def phonetic_metaphone(sf_dir: str):
    """`phonetic` token filter, metaphone encoder (Lawrence Philips 1990
    algorithm): fixed word list -> codes, pinned by a literal oracle."""
    from ..filters import metaphone

    return pd.DataFrame({"word": _METAPHONE_WORDS,
                         "code": [metaphone(w) for w in _METAPHONE_WORDS]})


def icu_analyze(sf_dir: str):
    """ICU analysis chain (plugins/analysis-icu): icu_normalizer (nfkc_cf)
    and icu_folding over a fixed multilingual sample, pinned by a literal
    oracle — fullwidth forms, ligatures, accents, sharp-s, roman numerals."""
    from ..filters import icu_folding, icu_normalizer

    words = ["ＦＵＬＬｗｉｄｔｈ", "ﬁle", "Åström", "ÉLÉGANT", "Straße",
             "Ⅻ", "①", "Ｑｕéｒｙ"]
    return pd.DataFrame({
        "word": words,
        "nfkc_cf": [icu_normalizer(w) for w in words],
        "folded": [icu_folding(w) for w in words],
    })


def ingest_attachment(sf_dir: str):
    """`attachment` processor (plugins/ingest-attachment,
    AttachmentProcessor.java; Tika replaced by plain/html extractors):
    even docs shipped as base64 plain text, odd docs as base64 HTML with
    the lang in <title>; content/content_type/content_length/title
    re-derived by the oracle from the raw text."""
    import base64

    from ..functions import ingest as I

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "text"])

    def assign(t: pa.Table) -> pa.Table:
        b64s = []
        for did, lang, text in zip(t["doc_id"].to_pylist(),
                                   t["lang"].to_pylist(),
                                   t["text"].to_pylist()):
            if did % 2 == 0:
                raw = text.encode()
            else:
                raw = (f"<html><head><title>{lang}</title></head>"
                       f"<body>{text}</body></html>").encode()
            b64s.append(base64.b64encode(raw).decode())
        return t.append_column("data", pa.array(b64s, pa.string()))

    pipe = I.pipeline(I.attachment("data"))
    out = (ds.map_batches(assign, batch_format="pyarrow")
           .map_batches(pipe, batch_format="pyarrow")
           .select_columns(["doc_id", "attachment_content_type",
                            "attachment_content_length",
                            "attachment_title"])
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def tasks_api(sf_dir: str):
    """_tasks API (tasks/TaskManager.java + BulkByScrollTask status): an
    update_by_query-style job registered as a cancellable task, counters
    updated at each batch checkpoint, then listed via `GET _tasks`."""
    from ..tasks import TaskManager

    mgr = TaskManager()
    tid = mgr.start("indices:data/write/update/byquery",
                    "update-by-query over documents")

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])
    for batch in ds.iter_batches(batch_size=128, batch_format="pyarrow"):
        mgr.check_cancelled(tid)
        mgr.update(tid, total=len(batch), updated=len(batch), batches=1)
    rec = mgr.finish(tid)
    listed = mgr.list("indices:data/write/*")
    assert len(listed) == 1 and listed[0]["id"] == tid
    st = rec["status"]
    return pd.DataFrame({
        "action": [rec["action"]],
        "completed": [bool(rec["completed"])],
        "cancelled": [bool(rec["cancelled"])],
        "total": pd.array([st["total"]], dtype="int64"),
        "updated": pd.array([st["updated"]], dtype="int64"),
    })


def script_expression(sf_dir: str):
    """lang-expression (modules/lang-expression,
    ExpressionScriptEngine.java): Lucene-expression syntax — doc['f'].value
    references, && / ||, and the ternary operator — compiled onto the
    sandboxed AST evaluator (scripting.compile_expression)."""
    return all_matches(sf_dir, {
        "kind": "script_score",
        "query": {"kind": "term", "term": "data"},
        "script": {"lang": "expression",
                   "source": "doc['n_chars'].value > 300 ? _score * 2"
                             " : _score / 2"}})


def dedup_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix C / Llama style): docs with
    doc_id % 50 == 0 act as the held-out benchmark; every OTHER doc sharing
    a 4-token word n-gram with the benchmark is flagged with its distinct
    overlapping-gram count. Benchmark grams are broadcast via ray.put; the
    corpus side is one streaming pass."""
    from ..functions.dedup import decontaminate

    def split(keep_bench: bool):
        def f(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 50 == 0) == keep_bench
            return t.filter(pa.array(m))

        return f

    bench = (_ds(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(split(True), batch_format="pyarrow").to_pandas())
    ds = (_ds(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(split(False), batch_format="pyarrow"))
    return decontaminate(ds, bench["text"].tolist(), n=4)


def phrase_suggest_collate(sf_dir: str):
    """phrase suggester `collate` (PhraseSuggestionBuilder#collateQuery,
    search/suggest/phrase/PhraseSuggester.java): each surviving correction
    is executed as a match_phrase query against the index; prune=true keeps
    every suggestion and annotates collate_match."""
    df = phrase_suggest(sf_dir)
    s = documents_searcher(sf_dir)
    flags = []
    for p in df["phrase"]:
        ids, _ = s._eval({"kind": "match_phrase", "text": str(p)})
        flags.append(bool(ids.size))
    out = df.copy()
    out["collate_match"] = flags
    return out


def text_repetition(sf_dir: str):
    """Gopher-rule repetition filter (Rae et al. 2021): per-doc duplicate
    bigram/trigram occurrence fractions; docs above 0.3 duplicate-bigram
    fraction are the boilerplate candidates a 100 TB pipeline drops."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = (ds.map_batches(T.repetition_ratios_batch, batch_format="pyarrow")
           .to_pandas())
    out["dup_2gram_frac"] = round_half_away(
        out["dup_2gram_frac"].to_numpy(), 6)
    out["dup_3gram_frac"] = round_half_away(
        out["dup_3gram_frac"].to_numpy(), 6)
    out = out[out.dup_2gram_frac >= 0.05]
    return out.sort_values("doc_id").reset_index(drop=True)


def search_shards(sf_dir: str):
    """_search_shards API (action/admin/cluster/shards/
    ClusterSearchShardsAction): the routing plan a coordinator would use —
    which segment partition each searcher "shard" serves, with its doc
    range and count. Derived from the same round-robin assignment
    DistributedSearcher makes over the committed manifests; the oracle
    re-derives doc counts from the raw table (one flush segment per
    fragment at this corpus size -> shard 0 of 2 holds it)."""
    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    live = live_segments(committed_segments(documents_index(sf_dir)))
    seg_ids = sorted(live)
    num = max(1, min(2, len(seg_ids)))
    rows = []
    for i, sid in enumerate(seg_ids):
        m = live[sid]
        rows.append((i % num, int(m.doc_id_min), int(m.doc_id_max),
                     int(m.doc_count)))
    rows.sort()
    return pd.DataFrame({
        "shard": pd.array([r[0] for r in rows], dtype="int64"),
        "doc_id_min": pd.array([r[1] for r in rows], dtype="int64"),
        "doc_id_max": pd.array([r[2] for r in rows], dtype="int64"),
        "doc_count": pd.array([r[3] for r in rows], dtype="int64"),
    })


def agg_composite_date_histogram(sf_dir: str):
    """composite agg with a date_histogram source paired with a terms source
    (CompositeAggregationBuilder sources,
    DateHistogramValuesSourceBuilder): day-truncated ts x event_type, key
    order, after-cursor pagination (page 2 of size 10)."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "events", ["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.floor_temporal(t["ts"], unit="day"),
                         "event_type": t["event_type"]})

    d2 = ds.map_batches(derive, batch_format="pyarrow")
    page1 = A.composite_agg(d2, ["day", "event_type"], size=10)
    after = (page1["day"].iloc[-1], page1["event_type"].iloc[-1])
    page2 = A.composite_agg(d2, ["day", "event_type"], size=10, after=after)
    return page2


def agg_significant_script(sf_dir: str):
    """significant_terms with script_heuristic (significant/heuristics/
    ScriptHeuristic.java): the score expression runs in the sandboxed
    evaluator over the reference's four exposed variables (_subset_freq,
    _subset_size, _superset_freq, _superset_size) — here the 'absolute
    rate difference' heuristic."""
    from ..scripting import safe_eval_expr

    red, fg_n, bg_n = _significant_dfs(sf_dir)
    env = {"_subset_freq": red.fg_df.to_numpy().astype(np.float64),
           "_superset_freq": red.bg_df.to_numpy().astype(np.float64),
           "_subset_size": float(fg_n), "_superset_size": float(bg_n)}
    score = safe_eval_expr(
        "_subset_freq / _subset_size - _superset_freq / _superset_size", env)
    red = red.copy()
    red["score"] = round_half_away(np.asarray(score, np.float64), 6)
    red = red[red.fg_df >= 5]
    red = red.sort_values(["score", "term"],
                          ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "score"]]


def forcemerge_api(sf_dir: str):
    """_forcemerge API (rest/action/admin/indices/RestForceMergeAction ->
    force_merge): the live index is split into 4 segments (resize
    machinery), force-merged back to max_num_segments=1, and verified —
    one live segment whose recorded doc/token totals equal a from-scratch
    recount, and a term query's doc count unchanged across the cycle."""
    import shutil

    from ..index.manifest import committed_segments, live_segments
    from ..index.merge import force_merge
    from ..index.reshape import split_index
    from ..search.engine import IndexSearcher
    from .fulltext import documents_index

    import tempfile

    src = documents_index(sf_dir)
    work = tempfile.mkdtemp(prefix="esray_forcemerge_")
    shutil.rmtree(work, ignore_errors=True)
    split_index(src, work, parts=4)
    before = len(live_segments(committed_segments(work)))
    n_before = int(IndexSearcher(work)._eval(
        {"kind": "term", "term": "data"})[0].size)
    force_merge(work, max_num_segments=1)
    live = live_segments(committed_segments(work))
    n_after = int(IndexSearcher(work)._eval(
        {"kind": "term", "term": "data"})[0].size)
    m = next(iter(live.values()))
    return pd.DataFrame({
        "segments_before": pd.array([before], dtype="int64"),
        "segments_after": pd.array([len(live)], dtype="int64"),
        "doc_count": pd.array([int(m.doc_count)], dtype="int64"),
        "tokens": pd.array([int(m.sum_doc_len)], dtype="int64"),
        "term_docs_stable": [bool(n_before == n_after)],
    })


def bulk_actions(sf_dir: str):
    """_bulk wire format (action/bulk/BulkRequestParser.java): a
    deterministic action stream over documents — index all, then partial
    update (lang -> upper) for doc_id % 10 == 0, delete doc_id % 25 == 0,
    and a conflicting create (must fail, state unchanged) for
    doc_id % 40 == 0 — applied with per-id seq ordering and compared
    against the SQL-computed final state."""
    import json

    from ..sources.bulk import apply_bulk, parse_bulk

    docs = (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
            .to_pandas().sort_values("doc_id"))
    lines = []
    for r in docs.itertuples():
        lines.append(json.dumps({"index": {"_id": int(r.doc_id)}}))
        lines.append(json.dumps({"lang": r.lang, "n_chars": int(r.n_chars)}))
    for r in docs.itertuples():
        did = int(r.doc_id)
        if did % 10 == 0:
            lines.append(json.dumps({"update": {"_id": did}}))
            lines.append(json.dumps({"doc": {"lang": r.lang.upper()}}))
        if did % 25 == 0:
            lines.append(json.dumps({"delete": {"_id": did}}))
        if did % 40 == 0:
            lines.append(json.dumps({"create": {"_id": did}}))
            lines.append(json.dumps({"lang": "xx", "n_chars": -1}))
    out = apply_bulk(parse_bulk(lines))
    parsed = out["doc"].map(json.loads)
    return pd.DataFrame({
        "doc_id": out["_id"].astype(np.int64),
        "lang": [d["lang"] for d in parsed],
        "n_chars": pd.array([d["n_chars"] for d in parsed], dtype="int64"),
        "errors": out["errors"].astype(np.int64),
    })


def source_orc_roundtrip(sf_dir: str):
    """ORC source (the reference reads any bulk payload; Ray-side: write the
    corpus as ORC, read back with pyarrow.orc inside map_batches over file
    fragments, verify count/chars/langs parity with the parquet original."""
    import pyarrow.orc as paorc

    import tempfile

    dest = tempfile.mkdtemp(prefix="esray_orc_")
    df = (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
          .to_pandas().sort_values("doc_id"))
    # two files -> two read fragments
    half = len(df) // 2
    for i, part in enumerate((df.iloc[:half], df.iloc[half:])):
        paorc.write_table(pa.Table.from_pandas(part.reset_index(drop=True)),
                          os.path.join(dest, f"part-{i}.orc"))
    import ray.data as rd

    files = sorted(os.path.join(dest, f) for f in os.listdir(dest))

    def read_file(batch: pa.Table) -> pa.Table:
        tabs = [paorc.read_table(p) for p in batch["path"].to_pylist()]
        return pa.concat_tables(tabs)

    back = (rd.from_items([{"path": p} for p in files])
            .map_batches(read_file, batch_format="pyarrow"))
    agg = back.to_pandas()
    return pd.DataFrame({
        "doc_count": pd.array([len(agg)], dtype="int64"),
        "total_chars": pd.array([int(agg.n_chars.sum())], dtype="int64"),
        "langs": pd.array([agg.lang.nunique()], dtype="int64"),
    })


def mapping_options(sf_dir: str):
    """Mapper parse-stage options (KeywordFieldMapper.ignore_above,
    NumberFieldMapper null_value/coerce, TypeParsers copy_to): keyword
    `source` values longer than ignore_above=4 are NOT indexed (bucket
    drops), lang 'de' stands in for a null taking null_value='unknown',
    n_chars arrives as a string and coerces to long, and copy_to combines
    lang+source into an `all` field whose per-doc token count is summed."""
    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    IGNORE_ABOVE = 4

    def parse(t: pa.Table) -> pa.Table:
        src = t["source"].to_pylist()
        lang = t["lang"].to_pylist()
        nchars_str = [str(x) for x in t["n_chars"].to_pylist()]  # wire form
        kw = [s if len(s) <= IGNORE_ABOVE else None for s in src]
        lang_nv = ["unknown" if x == "de" else x for x in lang]
        coerced = np.array([int(float(s)) for s in nchars_str], np.int64)
        all_field = [f"{a} {b}" for a, b in zip(lang_nv, src)]
        return pa.table({
            "kw_indexed": pa.array([x is not None for x in kw]),
            "lang_nv": pa.array(lang_nv, pa.string()),
            "coerced": pa.array(coerced, pa.int64()),
            "all_tokens": pa.array([len(s.split()) for s in all_field],
                                   pa.int64()),
        })

    from ray.data.aggregate import Count, Sum

    g = (ds.map_batches(parse, batch_format="pyarrow")
         .groupby("lang_nv")
         .aggregate(Count(alias_name="doc_count"),
                    Sum("kw_indexed", alias_name="kw_indexed"),
                    Sum("coerced", alias_name="sum_coerced"),
                    Sum("all_tokens", alias_name="all_tokens"))
         .to_pandas())
    g["kw_indexed"] = g["kw_indexed"].astype(np.int64)
    g["sum_coerced"] = g["sum_coerced"].astype(np.int64)
    g["all_tokens"] = g["all_tokens"].astype(np.int64)
    return g.sort_values("lang_nv").reset_index(drop=True)


def training_mix(sf_dir: str):
    """Training-data mixing: per-language sampling weights (the data-mixture
    step of LLM corpus assembly) applied deterministically — doc kept when
    doc_id mod 100 < weight*100. One map_batches pass, no shuffle; the
    mixture report is a tiny groupby."""
    weights = {"en": 1.0, "fr": 0.5, "de": 0.25, "es": 0.5, "zh": 0.75}

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_pylist()
        did = t["doc_id"].to_numpy()
        w = np.array([weights.get(x, 0.0) for x in lang])
        m = (did % 100) < np.round(w * 100).astype(np.int64)
        return t.filter(pa.array(m))

    from ray.data.aggregate import Count

    g = (ds.map_batches(keep, batch_format="pyarrow")
         .groupby("lang").aggregate(Count(alias_name="kept"))
         .to_pandas())
    g["kept"] = g["kept"].astype(np.int64)
    return g.sort_values("lang").reset_index(drop=True)


def sequence_packing(sf_dir: str):
    """Sequence packing (concat-then-chunk, the standard LLM pretraining
    batch-assembly op): token streams concatenated in doc_id order and cut
    into fixed 2048-token sequences; reports per-chunk how many documents
    it touches and its token count.

    Scale shape — a distributed prefix sum, NOT a driver cumsum: pass A
    reduces each block of the (doc_id, tokens) table to (first_doc_id,
    block_total); the driver prefix-sums only the per-BLOCK totals (K
    values); pass B recomputes in-block cumsums, adds its block's offset,
    and emits per-chunk partial doc counts that a tiny groupby reduces.
    Blocks are doc_id-disjoint (the corpus files are doc_id-sorted), and
    both passes use batch_size=None over the same materialized per-doc
    table so block boundaries match."""
    BUDGET = 2048

    from ray.data.aggregate import Sum

    from ..analyzer import get_analyzer

    analyze = get_analyzer("simple").tokenize

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "tokens": pa.array([len(analyze(x))
                                for x in t["text"].to_pylist()], pa.int64()),
        })

    per_doc = ds.map_batches(count, batch_format="pyarrow").materialize()

    def block_total(t: pa.Table) -> pa.Table:
        return pa.table({
            "first_doc": pa.array([int(t["doc_id"][0].as_py())], pa.int64()),
            "total": pa.array([int(np.sum(t["tokens"].to_numpy()))],
                              pa.int64()),
        })

    blocks = (per_doc.map_batches(block_total, batch_format="pyarrow",
                                  batch_size=None)
              .to_pandas().sort_values("first_doc"))
    totals = blocks.total.to_numpy()
    offsets = {int(fd): int(o) for fd, o in
               zip(blocks.first_doc, np.cumsum(totals) - totals)}
    grand_total = int(totals.sum())

    def chunk_partials(t: pa.Table) -> pa.Table:
        toks = t["tokens"].to_numpy()
        base = offsets[int(t["doc_id"][0].as_py())]
        cum = base + np.cumsum(toks)
        start = cum - toks
        first = start // BUDGET
        last = np.maximum(first, (cum - 1) // BUDGET)
        lo, hi = int(first.min()), int(last.max())
        local = np.zeros(hi - lo + 1, np.int64)
        for fi, la in zip(first, last):
            local[fi - lo:la - lo + 1] += 1
        return pa.table({"chunk": pa.array(np.arange(lo, hi + 1), pa.int64()),
                         "n_docs": pa.array(local, pa.int64())})

    red = (per_doc.map_batches(chunk_partials, batch_format="pyarrow",
                               batch_size=None)
           .groupby("chunk").aggregate(Sum("n_docs", alias_name="n_docs"))
           .to_pandas().sort_values("chunk").reset_index(drop=True))
    n_chunks = len(red)
    tokens_per_chunk = np.full(n_chunks, BUDGET, np.int64)
    if n_chunks:
        tokens_per_chunk[-1] = grand_total - (n_chunks - 1) * BUDGET
    return pd.DataFrame({
        "chunk": red.chunk.astype(np.int64),
        "n_docs": red.n_docs.astype(np.int64),
        "tokens": pd.array(tokens_per_chunk, dtype="int64"),
    })


def agg_date_histogram_quarter(sf_dir: str):
    """date_histogram calendar_interval=quarter
    (DateHistogramInterval.QUARTER; ISO quarters via Rounding analog)."""
    out = A.date_histogram(_ds(sf_dir, "events", ["ts", "value"]),
                           "ts", interval="quarter", value="value")
    out["sum_value"] = round_half_away(out["sum_value"].to_numpy(), 2)
    return out


def redact_pii(sf_dir: str):
    """PII redaction (training-data scrubbing): a deterministic contact
    line (email / phone / IPv4 by doc_id mod 3) is appended to each doc,
    then the RE2 redaction chain runs vectorized (Arrow kernels); the
    oracle replays the SAME sequential regex chain in DuckDB (both engines
    are RE2, so semantics are byte-identical)."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        texts = t["text"].to_pylist()
        out = []
        for did, x in zip(ids, texts):
            if did % 3 == 0:
                x = f"{x} contact user{did}@example.com now"
            elif did % 3 == 1:
                x = f"{x} call +1 (555) 010-{did % 10000:04d} today"
            else:
                x = f"{x} node 10.{did % 256}.0.1 up"
            out.append(x)
        return pa.table({"doc_id": ids, "text": pa.array(out, pa.string())})

    out = (ds.map_batches(assign, batch_format="pyarrow")
           .map_batches(T.redact_pii_batch, batch_format="pyarrow")
           .select_columns(["doc_id", "n_redactions"])
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def keyword_normalizer(sf_dir: str):
    """keyword `normalizer` (index/analysis normalizers; KeywordFieldMapper
    normalizer option): keyword values pass through a tokenless filter
    chain — lowercase + asciifolding — at index AND query time, so
    differently-cased writes land in one bucket. Odd doc_ids are
    upper-cased on ingest to exercise it."""
    from ..filters import asciifolding

    ds = _ds(sf_dir, "documents", ["doc_id", "source"])

    def ingest_and_normalize(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        raw = [s.upper() if d % 2 else s
               for d, s in zip(did, t["source"].to_pylist())]
        norm = [asciifolding(s).lower() for s in raw]
        return pa.table({"source_norm": pa.array(norm, pa.string())})

    from ray.data.aggregate import Count

    g = (ds.map_batches(ingest_and_normalize, batch_format="pyarrow")
         .groupby("source_norm").aggregate(Count(alias_name="doc_count"))
         .to_pandas())
    g["doc_count"] = g["doc_count"].astype(np.int64)
    return g.sort_values("source_norm").reset_index(drop=True)


def cat_aliases(sf_dir: str):
    """_aliases / _cat/aliases (rest/action/cat/RestAliasAction +
    TransportGetAliasesAction): create two aliases over scratch index
    names, list them, delete one, list again — the full alias CRUD cycle
    with a literal oracle."""
    import tempfile

    from ..index.reshape import create_alias, delete_alias, list_aliases

    base = tempfile.mkdtemp(prefix="esray_aliases_")
    create_alias(base, "logs-write", "logs-000001")
    create_alias(base, "metrics-write", "metrics-000007")
    first = [(s["alias"], s["index"]) for s in list_aliases(base)]
    assert delete_alias(base, "metrics-write") is True
    assert delete_alias(base, "metrics-write") is False
    second = [(s["alias"], s["index"]) for s in list_aliases(base)]
    rows = [("initial", a, i) for a, i in first] + \
           [("after_delete", a, i) for a, i in second]
    return pd.DataFrame({
        "phase": [r[0] for r in rows],
        "alias": [r[1] for r in rows],
        "index_name": [r[2] for r in rows],
    })


def snapshot_restore_renamed(sf_dir: str):
    """snapshot restore with rename_pattern / rename_replacement
    (RestoreSnapshotRequest, action/admin/cluster/snapshots/restore):
    snapshot the documents index, restore it under a rewritten name, and
    verify the restored copy answers a term query identically."""
    import tempfile

    from ..index.snapshot import create_snapshot, restore_snapshot_renamed
    from ..search.engine import IndexSearcher
    from .fulltext import documents_index, documents_searcher

    repo = tempfile.mkdtemp(prefix="esray_snaprepo_")
    base = tempfile.mkdtemp(prefix="esray_snaprestore_")
    create_snapshot(documents_index(sf_dir), repo, "docs-snap")
    dest = restore_snapshot_renamed(repo, "docs-snap", base,
                                    r"^docs-(.*)$", r"restored-\1")
    restored_n = int(IndexSearcher(dest)._eval(
        {"kind": "term", "term": "data"})[0].size)
    live_n = int(documents_searcher(sf_dir)._eval(
        {"kind": "term", "term": "data"})[0].size)
    return pd.DataFrame({
        "index_name": [os.path.basename(dest)],
        "doc_count": pd.array([restored_n], dtype="int64"),
        "matches_live": [bool(restored_n == live_n)],
    })


def embed_kmeans(sf_dir: str):
    """Distributed k-means (Lloyd, k=8, 3 update iterations) over the
    embeddings table — the domain-clustering step of a training-data mixing
    pipeline and the coarse-quantizer trainer of the IVF ANN index. Each
    iteration is one streaming map_batches pass emitting k partial rows per
    batch, reduced by a tiny groupby; the driver only ever holds k centroids.
    Oracle: the same Lloyd iterations unrolled as chained DuckDB CTEs
    (list_distance + per-dim avg), assignments compared exactly."""
    from ..functions import clustering as CL

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    _, assign = CL.kmeans(ds, k=8, iters=3)
    out = assign.to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def dedup_paragraph(sf_dir: str):
    """CCNet-style paragraph dedup (Wenzek et al. 2020): documents split
    into 3-word chunks (the synthetic corpus is newline-free; 3 words gives
    a ~19% duplicate-chunk rate at sf0.01), every repeated chunk dropped
    except the globally first occurrence by (doc_id, chunk_index), text
    reassembled per doc. Exact oracle: the same split/window/rank pipeline
    in DuckDB (string_split + row_number over chunk)."""
    out = D.paragraph_dedup(_ds(sf_dir, "documents", ["doc_id", "text"]),
                            chunk_words=3)
    df = out.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def url_canonical_dedup(sf_dir: str):
    """Crawl-pipeline URL dedup: synthesize a deterministic URL per document
    (uppercase scheme/host noise, default port, www, tracking params,
    unsorted query, fragment, trailing slash — all the variants a crawler
    sees), canonicalize (functions/text.canonicalize_url), and dedup by the
    canonical form (groupby: first doc + count). Oracle: the same synthesis
    + canonicalization rules in DuckDB string/list functions."""
    from ray.data.aggregate import Count, Min

    ds = _ds(sf_dir, "documents", ["doc_id", "source"])

    def mk(t: pa.Table) -> pa.Table:
        urls = []
        for d, s in zip(t["doc_id"].to_pylist(), t["source"].to_pylist()):
            base = f"HTTPS://WWW.{s}.Example.COM:443/Docs/{d % 50}"
            r = d % 3
            if r == 0:
                u = base + "/?utm_source=feed&b=2&a=1#frag"
            elif r == 1:
                u = base + "?a=1&b=2"
            else:
                u = base + "/"
            urls.append(u)
        return t.append_column("url", pa.array(urls, pa.string()))

    out = (ds.map_batches(mk, batch_format="pyarrow")
             .map_batches(lambda t: T.canonicalize_url_batch(t),
                          batch_format="pyarrow")
             .groupby("canonical_url")
             .aggregate(Min("doc_id", alias_name="first_doc"),
                        Count(alias_name="n"))
             .to_pandas())
    out["first_doc"] = out["first_doc"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("canonical_url").reset_index(drop=True)


def dedup_substring(sf_dir: str):
    """Exact duplicated-substring removal (Lee et al. 2022 ExactSubstr, word
    granularity, 8-word grams): any 8-gram seen earlier in the corpus (global
    (doc_id, start) order) marks its span; per doc the union of duplicate
    spans is cut out. Oracle: the same gram/row_number/coverage pipeline as
    DuckDB SQL with an ANTI JOIN on covered word indexes."""
    out = D.substring_dedup(_ds(sf_dir, "documents", ["doc_id", "text"]),
                            gram_words=8)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def embed_cluster_sample(sf_dir: str):
    """Cluster-balanced sampling (the data-mixing step after domain
    clustering): k-means assignment (k=8, 3 iters) then a deterministic
    per-cluster rate — keep vec_id where vec_id % 10 < 3 + (cluster % 5).
    One streaming filter pass after assignment; oracle composes the
    unrolled k-means CTEs with the same modular predicate."""
    from ..functions import clustering as CL

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    _, assign = CL.kmeans(ds, k=8, iters=3)

    def sample(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy()
        cl = t["cluster"].to_numpy()
        return t.filter(pa.array((vid % 10) < (3 + cl % 5)))

    out = assign.map_batches(sample, batch_format="pyarrow").to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def join_orders_customer(sf_dir: str):
    """Distributed hash join (Ray Data native Dataset.join, both sides
    shuffled by key — the large×large case where broadcast doesn't apply)
    orders ⋈ customer on custkey, then revenue per market segment. Column
    pruning at the read on both sides; the post-join aggregate reduces to 5
    rows. Revenue rounded to 2 decimals on both sides (fp sum order)."""
    from ray.data.aggregate import Count, Sum

    orders = _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = orders.join(cust, join_type="inner", num_partitions=16,
                    on=("o_custkey",), right_on=("c_custkey",))
    out = (j.groupby("c_mktsegment")
            .aggregate(Sum("o_totalprice", alias_name="revenue"),
                       Count(alias_name="n_orders"))
            .to_pandas())
    out["revenue"] = round_half_away(out["revenue"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def events_sessionize(sf_dir: str):
    """Sessionization (gaps-and-islands): per user, a new session when the
    gap to the previous event exceeds 30 minutes (order (ts, event_id)).
    One bucketed exchange (user_id % 64), vectorized shift/cumsum per
    bucket. Oracle: lag + windowed running sum in SQL."""
    from ..functions import temporal as TP

    ds = _ds(sf_dir, "events", ["event_id", "ts", "user_id"])
    out = TP.sessionize(ds, gap_minutes=30).to_pandas()
    return (out.sort_values(["user_id", "session_idx"])
               .reset_index(drop=True)
               [["user_id", "session_idx", "n_events", "start_ts", "end_ts"]])


def asof_join_events_orders(sf_dir: str):
    """As-of join: each event (at a synthetic as-of time spread across the
    order-date range: 1995-01-01 + (event_id % 2000) days) matched to the
    latest order of the same customer at-or-before that time; date ties
    break to the larger o_orderkey. Per-bucket pandas.merge_asof — a
    sorted merge, not a key-pair blowup. Inner semantics."""
    from ..functions import temporal as TP

    ev = _ds(sf_dir, "events", ["event_id", "user_id"])

    def add_asof(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        ts = (np.datetime64("1995-01-01") +
              (eid % 2000).astype("timedelta64[D]")).astype("datetime64[us]")
        return t.append_column("as_of_ts", pa.array(ts))

    ev = ev.map_batches(add_asof, batch_format="pyarrow")
    orders = _ds(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])
    out = TP.asof_join(ev, orders,
                       left_key="user_id", right_key="o_custkey",
                       left_time="as_of_ts", right_time="o_orderdate",
                       left_id="event_id", right_payload="o_orderkey")
    return (out.to_pandas().sort_values("event_id").reset_index(drop=True)
            [["event_id", "user_id", "o_orderkey", "o_orderdate"]])


def range_join_events_windows(sf_dir: str):
    """Range join: events joined to a SMALL interval table (20 deterministic
    3-day campaign windows over Jan 2024, window w = [start0 + 33h*w,
    +3 days)) — the broadcast-side range-join shape: the window table rides
    to every task via ray.put, per batch np.searchsorted buckets event
    timestamps against window starts, membership checked vectorized, then a
    tiny groupby. Oracle: plain BETWEEN join in SQL."""
    import ray
    from ray.data.aggregate import Count

    starts = (np.datetime64("2024-01-01T00:00:00") +
              np.arange(20) * np.timedelta64(33, "h")).astype("datetime64[us]")
    ends = (starts + np.timedelta64(72, "h")).astype("datetime64[us]")
    w_ref = ray.put((starts.astype("int64"), ends.astype("int64")))

    ds = _ds(sf_dir, "events", ["event_id", "ts", "event_type"])

    def explode_windows(t: pa.Table) -> pa.Table:
        s64, e64 = ray.get(w_ref)
        ts = t["ts"].cast(pa.timestamp("us")).to_numpy().astype("int64")
        # windows overlap (33h step < 72h len), so test all 20 per event —
        # 20 is the broadcast-side bound; vectorized (n_events, 20) mask
        m = (ts[:, None] >= s64[None, :]) & (ts[:, None] < e64[None, :])
        ei, wi = np.nonzero(m)
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)[ei]
        return pa.table({
            "window_id": pa.array(wi.astype("int64")),
            "event_type": pa.array(et, pa.string()),
        })

    out = (ds.map_batches(explode_windows, batch_format="pyarrow")
             .groupby(["window_id", "event_type"])
             .aggregate(Count(alias_name="n"))
             .to_pandas())
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["window_id", "event_type"])
               .reset_index(drop=True))


def sliding_window_counts(sf_dir: str):
    """Sliding-window aggregate (1-hour window, 15-minute step): each event
    belongs to up to 4 windows; explode event->windows inside map_batches
    (vectorized integer arithmetic), then groupby(window_start) counts with
    value sums. Oracle: generate_series window table joined on BETWEEN."""
    from ray.data.aggregate import Count, Sum

    step = np.timedelta64(15 * 60, "s")
    width_steps = 4  # 1h / 15min

    ds = _ds(sf_dir, "events", ["ts", "value"])

    def explode(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.timestamp("us")).to_numpy()
        val = t["value"].to_numpy()
        sidx = (ts - np.datetime64("2024-01-01T00:00:00")) // step
        rows_ts, rows_val = [], []
        for k in range(width_steps):
            w = sidx - k
            keep = w >= 0
            rows_ts.append((np.datetime64("2024-01-01T00:00:00") +
                            w[keep] * step).astype("datetime64[us]"))
            rows_val.append(val[keep])
        return pa.table({
            "window_start": pa.array(np.concatenate(rows_ts)),
            "value": pa.array(np.concatenate(rows_val), pa.float64()),
        })

    out = (ds.map_batches(explode, batch_format="pyarrow")
             .groupby("window_start")
             .aggregate(Count(alias_name="n"),
                        Sum("value", alias_name="value_sum"))
             .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["value_sum"] = round_half_away(out["value_sum"], 4)
    return out.sort_values("window_start").reset_index(drop=True)


def rank_eval_metrics(sf_dir: str):
    """_rank_eval's remaining metrics (modules/rank-eval: MeanReciprocalRank,
    DiscountedCumulativeGain (+normalized), ExpectedReciprocalRank) for one
    request: match 'data query' top-5, binary relevance = doc contains
    'data' (grade 1, max grade 1 -> ERR p = (2^g-1)/2^1 = 0.5)."""
    s = documents_searcher(sf_dir)
    ids, _ = s.search({"kind": "match", "text": "data query", "k": 5})
    rel_ids, _ = s._eval({"kind": "term", "term": "data"})
    rel = set(rel_ids.tolist())
    r = np.array([1.0 if d in rel else 0.0 for d in ids.tolist()])
    pos = np.arange(1, r.size + 1, dtype=np.float64)
    mrr = float(1.0 / pos[r > 0][0]) if (r > 0).any() else 0.0
    dcg = float((r / np.log2(pos + 1)).sum())
    R = min(len(rel), 5)
    idcg = float((1.0 / np.log2(np.arange(1, R + 1) + 1)).sum()) if R else 0.0
    ndcg = dcg / idcg if idcg else 0.0
    p = 0.5 * r
    prodprev = np.cumprod(np.concatenate([[1.0], (1.0 - p)[:-1]]))
    err = float(np.sum(p * prodprev / pos))
    return pd.DataFrame({
        "query": ["q_data"],
        "mrr": [float(round_half_away(mrr, 4))],
        "dcg_at_5": [float(round_half_away(dcg, 4))],
        "ndcg_at_5": [float(round_half_away(ndcg, 4))],
        "err_at_5": [float(round_half_away(err, 4))],
    })


def dedup_components(sf_dir: str):
    """Connected components over near-dup pairs (the clustering step after
    pair generation): exact n-gram Jaccard pairs (same bounded config as
    dedup_ngram_jaccard) -> distributed min-label propagation
    (functions/graph.py: two hash joins + groupby-min per round, SUM(label)
    as the convergence scalar). Oracle: the same pairs in SQL + a recursive
    CTE reachability closure taking MIN over reached labels."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.graph import connected_components

    pairs = _jaccard_pairs_600(sf_dir)
    cc = connected_components(rd.from_pandas(pairs),
                              a_col="doc_a", b_col="doc_b")
    out = cc.to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["component"] = out["component"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def dedup_keep_one(sf_dir: str):
    """Full near-dedup pipeline: exact n-gram Jaccard pairs -> distributed
    connected components -> anti-join exchange dropping every
    non-representative cluster member (functions/graph.py). The corpus
    shuffles once; the driver sees only the final kept rows. Oracle: the
    recursive-CTE component closure, then documents minus non-representative
    members."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.graph import dedup_keep_representatives

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 600)
    pairs = _jaccard_pairs_600(sf_dir)
    kept = dedup_keep_representatives(ds, rd.from_pandas(pairs))
    out = kept.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "n_chars": pc.utf8_length(t["text"]).cast(pa.int64())}),
        batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def lm_perplexity(sf_dir: str):
    """CCNet-style LM quality scoring (Wenzek et al. 2020): fit an
    add-alpha unigram LM on the reference slice (sources src1-src3),
    score every document's perplexity with a broadcast-model actor stage
    (functions/lm.py). Oracle: the same counts/smoothing/ln re-derived in
    SQL over exploded tokens."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    ref = _ds(sf_dir, "documents", ["text", "source"],
              flt=pc.field("source").isin(["src1", "src2", "src3"]))
    model = LM.fit_unigram_lm(ref, alpha=0.5)
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = LM.perplexity(docs, model).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["ppl"] = round_half_away(out["ppl"], 4)
    return out.sort_values("doc_id").reset_index(drop=True)


def dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): per-doc mean token
    log-likelihood ratio between the target-domain LM (sources src1-src3)
    and the raw-corpus LM (all documents). Positive weight = more
    target-like; resampling keeps the top-weight slice."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    target_ds = _ds(sf_dir, "documents", ["text", "source"],
                    flt=pc.field("source").isin(["src1", "src2", "src3"]))
    all_ds = _ds(sf_dir, "documents", ["text"])
    target = LM.fit_unigram_lm(target_ds, alpha=0.5)
    source = LM.fit_unigram_lm(all_ds, alpha=0.5)
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = LM.importance_weights(docs, target, source).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["weight"] = round_half_away(out["weight"], 4)
    return out.sort_values("doc_id").reset_index(drop=True)


def lm_perplexity_bigram(sf_dir: str):
    """Interpolated bigram-LM perplexity (the KenLM-direction upgrade of
    lm_perplexity): p(w|prev) = 0.7*c(prev,w)/ctx(prev) + 0.3*p_uni(w),
    first token scored by the unigram. Trained on sources src1-src3,
    scored over the whole corpus; one flattened bigram-key lookup per
    batch (functions/lm.py)."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    ref = _ds(sf_dir, "documents", ["text", "source"],
              flt=pc.field("source").isin(["src1", "src2", "src3"]))
    model = LM.fit_bigram_lm(ref, alpha=0.5, lam=0.7)
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = LM.bigram_perplexity(docs, model).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["ppl"] = round_half_away(out["ppl"], 4)
    return out.sort_values("doc_id").reset_index(drop=True)


def dsir_resample(sf_dir: str):
    """DSIR resampling step (Xie et al. 2023 §2: Gumbel-top-k draws k docs
    without replacement with probability ∝ exp(weight)): key = weight
    - ln(-ln(u)), u a deterministic md5(doc_id)-derived uniform so the
    Ray pipeline and the SQL oracle draw the SAME sample. Per-batch
    partial top-k + driver merge (the ANN pattern) — no global sort."""
    import hashlib

    import pyarrow.compute as pc

    from ..functions import lm as LM

    target_ds = _ds(sf_dir, "documents", ["text", "source"],
                    flt=pc.field("source").isin(["src1", "src2", "src3"]))
    all_ds = _ds(sf_dir, "documents", ["text"])
    target = LM.fit_unigram_lm(target_ds, alpha=0.5)
    source = LM.fit_unigram_lm(all_ds, alpha=0.5)
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    k = 100

    def gumbel_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = t["weight"].to_numpy()
        u = np.array([int(hashlib.md5(str(int(i)).encode())
                          .hexdigest()[:13], 16) for i in ids],
                     dtype=np.float64) / float(1 << 52)
        key = w - np.log(-np.log(u))
        top = np.argsort(-key, kind="stable")[:k]
        return pa.table({"doc_id": pa.array(ids[top].astype(np.int64)),
                         "weight": pa.array(w[top]),
                         "gkey": pa.array(key[top])})

    parts = (LM.importance_weights(docs, target, source)
             .map_batches(gumbel_topk, batch_format="pyarrow")
             .to_pandas())
    top = parts.sort_values(["gkey", "doc_id"],
                            ascending=[False, True]).head(k)
    top["weight"] = round_half_away(top["weight"], 4)
    top["gkey"] = round_half_away(top["gkey"], 4)
    return top.sort_values("doc_id").reset_index(drop=True)


def nb_domain_classify(sf_dir: str):
    """Domain classifier gate (the quality-classifier stage of real
    training pipelines, deterministic NB analog): class A = sources
    src1+src2, class B = src3+src4, multinomial NB with add-0.5 token
    models and ln(nA/nB) prior, scored over the whole corpus."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    a_ds = _ds(sf_dir, "documents", ["text", "source"],
               flt=pc.field("source").isin(["src1", "src2"]))
    b_ds = _ds(sf_dir, "documents", ["text", "source"],
               flt=pc.field("source").isin(["src3", "src4"]))
    lm_a = LM.fit_unigram_lm(a_ds, alpha=0.5)
    lm_b = LM.fit_unigram_lm(b_ds, alpha=0.5)
    n_a, n_b = a_ds.count(), b_ds.count()
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = LM.nb_classify(docs, lm_a, lm_b,
                         log_prior_diff=float(np.log(n_a / n_b)),
                         labels=("a", "b")).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["log_odds"] = round_half_away(out["log_odds"], 4)
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "log_odds", "pred"]])


def tfidf_keywords(sf_dir: str):
    """Per-document keyword extraction: top-3 tokens by tf·idf
    (idf = ln(N/df)), ties broken by term. Distributed (doc, token, tf)
    explode with per-batch aggregation; df is vocabulary-bounded and
    broadcast back into a scoring stage (the LM-model pattern). Oracle:
    the same tf/df/ln arithmetic + row_number window in SQL."""
    from ..functions import lm as LM

    docs = _ds(sf_dir, "documents", ["doc_id", "text"])

    def explode_tf(t: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = LM._tokens(x)
            if not toks:
                continue
            uniq, cnt = np.unique(np.asarray(toks, dtype=str),
                                  return_counts=True)
            ids.append(np.full(len(uniq), i, dtype=np.int64))
            terms.append(uniq)
            tfs.append(cnt.astype(np.int64))
        if not ids:
            return pa.table({"bkt": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        did = np.concatenate(ids)
        return pa.table({"bkt": did % 64, "doc_id": did,
                         "term": pa.array(np.concatenate(terms)),
                         "tf": np.concatenate(tfs)})

    doc_terms = docs.map_batches(explode_tf,
                                 batch_format="pyarrow").materialize()
    n_docs = float(docs.count())
    df = doc_terms.groupby("term").count().to_pandas()
    vocab = df["term"].to_numpy().astype(str)
    order = np.argsort(vocab, kind="stable")
    vocab = vocab[order]
    idf = np.log(n_docs / df["count()"].to_numpy().astype(np.float64)[order])

    def score_topk(t: pa.Table) -> pa.Table:
        d = t.to_pandas()
        terms = d["term"].to_numpy().astype(str)
        pos = np.searchsorted(vocab, terms)
        d["score"] = d["tf"].to_numpy() * idf[pos]
        d = d.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True], kind="stable")
        d = d.groupby("doc_id").head(3)
        return pa.Table.from_pandas(d[["doc_id", "term", "score"]],
                                    preserve_index=False)

    # one bucketed exchange (doc_id % 64) so every doc's term rows land
    # in one group regardless of block splitting; per-bucket top-3 is
    # vectorized sort + groupby-head
    out = (doc_terms.groupby("bkt")
           .map_groups(score_topk, batch_format="pyarrow").to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["score"] = round_half_away(out["score"], 4)
    return (out.sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True], kind="stable")
            .reset_index(drop=True))


def pmi_collocations(sf_dir: str):
    """Collocation extraction (Church & Hanks 1990 PMI): top-50 bigrams
    with c(ab) >= 5 by ln((c(ab)/NB) / ((c(a)/N)·(c(b)/N))), ties by
    bigram. Counting is the distributed part; scoring runs on the
    vocabulary-bounded count tables."""
    from ..functions import lm as LM

    docs = _ds(sf_dir, "documents", ["text"])
    uni = LM.unigram_counts(docs).to_pandas()
    big = LM.bigram_counts(docs).to_pandas()
    n = float(uni["c"].sum())
    nb = float(big["c"].sum())
    big = big[big["c"] >= 5].copy()
    parts = big["key"].str.split("\x1f", n=1, expand=True)
    big["w1"], big["w2"] = parts[0], parts[1]
    cu = dict(zip(uni["token"].astype(str), uni["c"].astype(np.float64)))
    ca = big["w1"].map(cu).to_numpy(dtype=np.float64)
    cb = big["w2"].map(cu).to_numpy(dtype=np.float64)
    cab = big["c"].to_numpy(dtype=np.float64)
    big["pmi"] = np.log((cab / nb) / ((ca / n) * (cb / n)))
    big["bigram"] = big["w1"] + " " + big["w2"]
    top = (big.sort_values(["pmi", "bigram"], ascending=[False, True],
                           kind="stable").head(50))
    top["n_ab"] = top["c"].astype("int64")
    top["pmi"] = round_half_away(top["pmi"], 4)
    return (top[["bigram", "n_ab", "pmi"]]
            .sort_values("bigram").reset_index(drop=True))


def doc_chunks(sf_dir: str):
    """Fixed-token-window chunking with stride (LLM pre-training prep):
    window=64 tokens, stride=48 (16-token overlap); the final partial
    window is kept iff it starts before the text ends. Pure map —
    vectorized per batch, no exchange. Output (doc_id, chunk_idx,
    n_tokens, chunk)."""
    from ..functions import lm as LM

    import pyarrow.compute as pc

    docs = _ds(sf_dir, "documents", ["doc_id", "text"],
               flt=pc.field("doc_id") < 200)
    window, stride = 64, 48

    def chunk(t: pa.Table) -> pa.Table:
        ids, idxs, ns, chunks = [], [], [], []
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = LM._tokens(x)
            if not toks:
                continue
            for k, s in enumerate(range(0, len(toks), stride)):
                piece = toks[s:s + window]
                ids.append(i)
                idxs.append(k)
                ns.append(len(piece))
                chunks.append(" ".join(piece))
                if s + window >= len(toks):
                    break
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "chunk_idx": pa.array(idxs, pa.int64()),
                         "n_tokens": pa.array(ns, pa.int64()),
                         "chunk": pa.array(chunks, pa.string())})

    out = docs.map_batches(chunk, batch_format="pyarrow").to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


def bpe_pair_counts(sf_dir: str):
    """BPE training, iteration-0 statistics: top-20 weighted adjacent-symbol
    pairs over the initial character vocabulary (chars + '</w>' end marker)
    of the distinct-word frequency table (functions/bpe.py; Sennrich et al.
    2016). Exchange ships per-batch-distinct pairs only."""
    from ..functions import bpe as BPE

    docs = _ds(sf_dir, "documents", ["text"])
    out = (BPE.pair_counts(BPE.word_counts(docs)).to_pandas()
           .sort_values(["c", "left_sym", "right_sym"],
                        ascending=[False, True, True], kind="stable")
           .head(20).reset_index(drop=True))
    out["c"] = out["c"].astype("int64")
    return out[["left_sym", "right_sym", "c"]]


def bpe_train_merges(sf_dir: str):
    """Distributed BPE merge learning (k=8): each iteration is a pair-count
    exchange over the vocabulary-bounded word table + per-batch partial
    argmax + vectorized merge application — the corpus is read once.
    No SQL oracle (iterative); differential-tested against the serial
    Sennrich twin in tests/test_bpe.py."""
    from ..functions import bpe as BPE

    docs = _ds(sf_dir, "documents", ["text"])
    out = BPE.train_bpe(docs, 8)
    out["rank"] = out["rank"].astype("int64")
    out["c"] = out["c"].astype("int64")
    return out


def lm_ngram_counts(sf_dir: str):
    """Order-3 n-gram count table with BOS/EOS markers and min_count=2
    pruning (the KenLM lmplz counting phase; functions/lm.py). Top-50 by
    (c desc, trigram asc)."""
    from ..functions import lm as LM

    docs = _ds(sf_dir, "documents", ["text"])
    out = (LM.ngram_counts(docs, n=3, min_count=2).to_pandas()
           .sort_values(["c", "w1", "w2", "w3"],
                        ascending=[False, True, True, True], kind="stable")
           .head(50).reset_index(drop=True))
    out["c"] = out["c"].astype("int64")
    return out[["w1", "w2", "w3", "c"]]


def dedup_semantic(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means (k=8, 3 iters) over the
    embeddings table, within-cluster cosine pairs at tau=0.42, connected
    components, keep each duplicate group's min-id representative
    (functions/clustering.semantic_dedup). Oracle: the unrolled-Lloyd
    kmeans CTE + intra-cluster cosine self-join + recursive component
    closure."""
    from ..functions.clustering import semantic_dedup

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = semantic_dedup(ds, k=8, iters=3, tau=0.42).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["cluster"] = out["cluster"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


def lm_perplexity_kn(sf_dir: str):
    """Interpolated Kneser-Ney bigram perplexity (Chen & Goodman 1999 — the
    smoothing KenLM implements), trained on sources src1-src3 with BOS/EOS
    markers, scored over the whole corpus (functions/lm.py:fit_kn_bigram).
    D=0.75; the continuation distribution is add-0.5 smoothed so OOV mass
    is nonzero and the DuckDB oracle can mirror it exactly."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    ref = _ds(sf_dir, "documents", ["text", "source"],
              flt=pc.field("source").isin(["src1", "src2", "src3"]))
    model = LM.fit_kn_bigram(ref, D=0.75, alpha=0.5)
    docs = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = LM.kn_perplexity(docs, model).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["ppl"] = round_half_away(out["ppl"], 4)
    return out.sort_values("doc_id").reset_index(drop=True)


def ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020: score each
    document with a KenLM-style LM, split each language partition into
    head/middle/tail perplexity terciles; CCNet keeps head+middle for
    training). Partition key here is `source` (the corpus's language
    analog). Shape: the scored exchange carries (doc_id, source, ppl)
    scalars only — text never shuffles; tercile assignment is a
    per-partition map_groups over that metadata table. Tie order is
    (rounded ppl, doc_id), matching the oracle's ntile(3) ordering."""
    import pyarrow.compute as pc

    from ..functions import lm as LM

    ref = _ds(sf_dir, "documents", ["text", "source"],
              flt=pc.field("source").isin(["src1", "src2", "src3"]))
    model = LM.fit_kn_bigram(ref, D=0.75, alpha=0.5)
    docs = _ds(sf_dir, "documents", ["doc_id", "text", "source"])
    scored = LM.kn_perplexity(docs, model, keep_cols=("source",))

    def terciles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["ppl"] = round_half_away(g["ppl"].to_numpy(), 4)
        g = g.sort_values(["ppl", "doc_id"], kind="mergesort")
        n = len(g)
        base, extra = divmod(n, 3)
        sizes = [base + (1 if i < extra else 0) for i in range(3)]
        g["bucket"] = np.repeat(
            np.array(["head", "middle", "tail"]), sizes)
        return g

    out = (scored.groupby("source")
           .map_groups(terciles, batch_format="pandas").to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    return (out[["doc_id", "source", "ppl", "bucket"]]
            .sort_values("doc_id").reset_index(drop=True))


def gopher_quality(sf_dir: str):
    """Gopher rule-set document filter (Rae et al. 2021):
    functions/text.gopher_flags_batch over the documents table; returns
    every doc's rule metrics plus the kept conjunction. Thresholds are
    Gopher's published Table A1 values."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = (ds.map_batches(T.gopher_flags_batch, batch_format="pyarrow")
           .drop_columns(["text"]).to_pandas())
    for c in ("doc_id", "n_words", "stop_hits", "kept"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def c4_filter(sf_dir: str):
    """C4 cleaning rules (Raffel et al. 2020 §2.2) over deterministic
    synthetic multi-line pages (the corpus is newline-free, so pages are
    synthesized like url_canonical_dedup synthesizes URLs: 8-word lines,
    every (doc_id+line)%3==0 line missing its terminal '.', line 1 of
    every 7th doc poisoned with 'javascript'); the filter itself
    (functions/text.c4_filter_batch) is the real line/page rule set."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def mk_page(t: pa.Table) -> pa.Table:
        pages = []
        for d, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = [w for w in s.lower().split() if w]
            lines = []
            for i in range(1, -(-len(toks) // 8) + 1):
                line = " ".join(toks[(i - 1) * 8:i * 8])
                if (d + i) % 3 != 0:
                    line += "."
                if d % 7 == 0 and i == 1:
                    line = "javascript " + line
                lines.append(line)
            pages.append("\n".join(lines))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "page": pa.array(pages, pa.string())})

    out = (ds.map_batches(mk_page, batch_format="pyarrow")
           .map_batches(T.c4_filter_batch, batch_format="pyarrow")
           .to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def gopher_repetition(sf_dir: str):
    """Gopher Table-A1 character-level repetition rules: fraction of word
    characters in the most common 2/3/4-gram and in duplicated 5-grams
    (functions/text.ngram_char_fraction_batch). Complements
    text_repetition's occurrence-level duplicate fractions."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = (ds.map_batches(T.ngram_char_fraction_batch,
                          batch_format="pyarrow").to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def text_entropy(sf_dir: str):
    """Per-doc character/word Shannon entropy (functions/text.entropy_batch)
    — the degenerate-text detector of a curation pipeline."""
    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(T.entropy_batch, batch_format="pyarrow").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def training_mix_temperature(sf_dir: str):
    """Temperature-scaled mixture sampling (the multilingual data-mixing
    rule, e.g. mT5: q_l proportional to p_l^T with T=0.7): per-language corpus
    shares are counted distributed, the temperature-rescaled target share
    becomes a per-language keep rate (capped at 1) against a 50%% global
    budget, applied deterministically via a Knuth-hash draw
    ((doc_id*2654435761) mod 10000) so small-id corpora still spread.
    Rates are rounded to 6 decimals BEFORE the draw test so the SQL
    oracle's pow() agrees bit-for-bit at the keep boundary."""
    from ray.data.aggregate import Count

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])
    cnt = (ds.groupby("lang").aggregate(Count(alias_name="c")).to_pandas())
    c = cnt["c"].to_numpy().astype(np.float64)
    total = c.sum()
    q = (c / total) ** 0.7
    q = q / q.sum()
    rate = round_half_away(np.minimum(1.0, 0.5 * total * q / c), 6)
    rates = dict(zip(cnt["lang"], rate))

    def keep(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_pylist()
        did = t["doc_id"].to_numpy()
        r = np.array([rates.get(x, 0.0) for x in lang])
        m = ((did * 2654435761) % 10000) < np.round(r * 10000).astype(np.int64)
        return t.filter(pa.array(m))

    g = (ds.map_batches(keep, batch_format="pyarrow")
         .groupby("lang").aggregate(Count(alias_name="kept")).to_pandas())
    g = g.merge(cnt, on="lang")
    g["kept"] = g["kept"].astype(np.int64)
    g["c"] = g["c"].astype(np.int64)
    g["rate"] = [rates[x] for x in g["lang"]]
    return (g[["lang", "c", "rate", "kept"]]
            .sort_values("lang").reset_index(drop=True))


def decontaminate_bloom(sf_dir: str):
    """Bloom-prefiltered benchmark decontamination: identical semantics to
    dedup_decontaminate (same 4-gram overlap, same doc_id%%50 benchmark
    split) but the corpus pass consults a broadcast fixed-size Bloom filter
    first and only verifies the surviving grams exactly — the shape that
    holds when the benchmark gram set is too hot to probe per gram."""
    from ..functions.dedup import decontaminate_bloom as _db

    def split(keep_bench: bool):
        def f(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 50 == 0) == keep_bench
            return t.filter(pa.array(m))

        return f

    bench = (_ds(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(split(True), batch_format="pyarrow").to_pandas())
    ds = (_ds(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(split(False), batch_format="pyarrow"))
    return _db(ds, bench["text"].tolist(), n=4)


def bpe_token_counts(sf_dir: str):
    """BPE encode step: per-doc subword counts under 4 learned merges
    (same trainer as bpe_train_merges, shorter for gate latency) — actor-pool stage with ranks broadcast per actor
    and a persistent distinct-word cache (functions/bpe.EncodeStage). No
    SQL oracle (depends on the learned merge list); the encoder is
    differential-tested in tests/test_bpe.py."""
    from ..functions import bpe as BPE

    docs = _ds(sf_dir, "documents", ["text"])
    merges_df = BPE.train_bpe(docs, 4)
    merges = list(zip(merges_df["left_sym"], merges_df["right_sym"]))
    out = (BPE.encode_token_counts(
        _ds(sf_dir, "documents", ["doc_id", "text"]), merges, concurrency=2)
        .select_columns(["doc_id", "bpe_subwords"]).to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["bpe_subwords"] = out["bpe_subwords"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def ft_span_gap(sf_dir: str):
    """span_near with a span_gap clause (SpanNearQueryBuilder.SpanGapQuery-
    Builder): 'data', a mandatory 1-position gap, then 'query', slop 1,
    in_order — i.e. 1 to 2 intervening tokens, never adjacency."""
    return all_matches(sf_dir, {"kind": "span_near",
                                "terms": ["data", {"gap": 1}, "query"],
                                "slop": 1, "in_order": True},
                       with_score=False)


def ft_fetch_metadata(sf_dir: str):
    """version + seq_no/primary_term fetch subphases (FetchVersionPhase,
    SeqNoPrimaryTermPhase): per-hit _version/_seq_no/_primary_term for the
    top-5 'query' term hits. In this batch engine a committed build is one
    generation: _version = 1, _seq_no = doc_id (deterministic ingest
    order), _primary_term = 1 — the same values a freshly-bulk-indexed
    reference shard reports."""
    s = documents_searcher(sf_dir)
    ids, scores = s.search({"kind": "term", "term": "query", "k": 5})
    return pd.DataFrame({
        "doc_id": ids.astype(np.int64),
        "score": round_half_away(scores.astype(np.float64), 4),
        "_version": np.ones(len(ids), dtype=np.int64),
        "_seq_no": ids.astype(np.int64),
        "_primary_term": np.ones(len(ids), dtype=np.int64),
    })


def corpus_split(sf_dir: str):
    """Deterministic stratified train/valid/test split (the split step every
    training corpus goes through): bucket = md5(doc_id) first 8 hex digits
    mod 100 -> train <90, valid <95, else test. Hash-based so the split is
    stable under repartitioning/resume; one map_batches pass + a tiny
    groupby report of (split, lang, n)."""
    import hashlib

    from ray.data.aggregate import Count

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])

    def tag(t: pa.Table) -> pa.Table:
        b = np.array([int(hashlib.md5(str(int(i)).encode())
                          .hexdigest()[:8], 16) % 100
                      for i in t["doc_id"].to_pylist()], dtype=np.int64)
        split = np.where(b < 90, "train", np.where(b < 95, "valid", "test"))
        return pa.table({"split": pa.array(split.astype(str), pa.string()),
                         "lang": t["lang"]})

    g = (ds.map_batches(tag, batch_format="pyarrow")
         .groupby(["split", "lang"]).aggregate(Count(alias_name="n"))
         .to_pandas())
    g["n"] = g["n"].astype(np.int64)
    return g.sort_values(["split", "lang"]).reset_index(drop=True)


def corpus_diversity(sf_dir: str):
    """Distinct-n diversity (corpus analysis: distinct n-gram types / total
    n-gram occurrences per source slice, n=1..3 — the repetitiveness
    metric of generation/corpus QA). Per-batch partial (source, gram)
    pre-aggregation feeding two tiny groupbys; the ratio math happens on
    the k-row reduced table."""
    from ray.data.aggregate import Count, Sum

    ds = _ds(sf_dir, "documents", ["text", "source"])

    def explode(t: pa.Table) -> pa.Table:
        srcs, ns, grams = [], [], []
        for s, x in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            toks = [w for w in x.lower().split() if w]
            for n in (1, 2, 3):
                for i in range(len(toks) - n + 1):
                    srcs.append(s)
                    ns.append(n)
                    grams.append(" ".join(toks[i:i + n]))
        tb = pa.table({"source": pa.array(srcs, pa.string()),
                       "n": pa.array(ns, pa.int64()),
                       "gram": pa.array(grams, pa.string())})
        # in-batch pre-aggregation: ship distinct (source, n, gram) + count
        import pyarrow.compute as pc
        return tb.group_by(["source", "n", "gram"]).aggregate(
            [([], "count_all")]).rename_columns(
            ["source", "n", "gram", "c"])

    partial = (ds.map_batches(explode, batch_format="pyarrow")
               .groupby(["source", "n", "gram"]).sum("c"))
    red = (partial.map_batches(
        lambda t: pa.table({
            "source": t["source"], "n": t["n"],
            "types": pa.array(np.ones(t.num_rows, np.int64)),
            "occ": t["sum(c)"].cast(pa.int64())}),
        batch_format="pyarrow")
        .groupby(["source", "n"])
        .aggregate(Sum(on="types", alias_name="types"),
                   Sum(on="occ", alias_name="occ"))
        .to_pandas())
    red["types"] = red["types"].astype(np.int64)
    red["occ"] = red["occ"].astype(np.int64)
    red["distinct_ratio"] = round_half_away(
        red["types"].to_numpy() / red["occ"].to_numpy(), 6)
    return (red[["source", "n", "types", "occ", "distinct_ratio"]]
            .sort_values(["source", "n"]).reset_index(drop=True))


def cdc_chunks(sf_dir: str):
    """Content-defined chunking over the first 200 docs
    (functions/text.cdc_chunks_batch): Karp-Rabin window hashes, cut when
    h %% 64 == 0 — the insertion-stable chunking that storage/crawl dedup
    builds on."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 200)
    out = (ds.map_batches(T.cdc_chunks_batch, batch_format="pyarrow")
           .to_pandas())
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


def dedup_cdc(sf_dir: str):
    """CDC-chunk crawl dedup: docs sharing >= 3 distinct CDC chunks of
    >= 24 chars are near-dup candidates (the storage-dedup route to crawl
    dedup: chunk once, join on chunk hash — insertion-stable, so shifted
    copies still collide). Pair generation is a groupby-chunk exchange;
    tiny chunks are dropped first so the join key space stays content-
    bearing."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 200)
    chunks = (ds.map_batches(T.cdc_chunks_batch, batch_format="pyarrow")
              .map_batches(
                  lambda t: t.filter(
                      pc.greater_equal(t["length"], 24)).select(
                      ["doc_id", "chunk"]),
                  batch_format="pyarrow"))

    def pairs(g):
        ids = np.unique(g["doc_id"].to_numpy())
        if ids.size < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64)})
        ii, jj = np.triu_indices(ids.size, k=1)
        return pd.DataFrame({"doc_a": ids[ii].astype(np.int64),
                             "doc_b": ids[jj].astype(np.int64)})

    cand = chunks.groupby("chunk").map_groups(pairs).to_pandas()
    if cand.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64),
                             "shared_chunks": pd.Series([], dtype=np.int64)})
    out = (cand.groupby(["doc_a", "doc_b"]).size().rename("shared_chunks")
           .reset_index())
    out = out[out["shared_chunks"] >= 3]
    out["shared_chunks"] = out["shared_chunks"].astype(np.int64)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def embed_score(sf_dir: str):
    """Broadcast linear-classifier inference over the embeddings table (the
    batched model-scoring stage of a curation pipeline): weights = the
    unit-normalized embedding of vec_id 0 (deterministic, data-derived),
    score = sigmoid(w . v), computed as one matmul per batch against the
    ray.put weight vector. Returns every vec's score rounded to 6."""
    import ray

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    import pyarrow.compute as pc

    w0 = (ds.map_batches(
        lambda t: t.filter(pc.equal(t["vec_id"], 0)),
        batch_format="pyarrow").take_all())
    w = np.asarray(w0[0]["embedding"], dtype=np.float64)
    w = w / np.linalg.norm(w)
    w_ref = ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        W = ray.get(w_ref)
        V = np.stack([np.asarray(v, dtype=np.float64)
                      for v in t["embedding"].to_pylist()])
        s = 1.0 / (1.0 + np.exp(-(V @ W)))
        return pa.table({"vec_id": t["vec_id"].cast(pa.int64()),
                         "score": pa.array(round_half_away(s, 6),
                                           pa.float64())})

    out = ds.map_batches(score, batch_format="pyarrow",
                         batch_size=2048).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def graph_pagerank(sf_dir: str):
    """Distributed PageRank (3 unrolled iterations, damping 0.85) over a
    deterministic synthetic link graph on the documents table (i ->
    (7i+3)%%N, i -> (13i+5)%%N, and i -> i//2 for i%%3==0, self-loops
    dropped — synthesized identically in the SQL oracle, the
    url_canonical_dedup precedent). Each iteration is two hash-join
    exchanges + a groupby-sum (functions/graph.pagerank)."""
    from ..functions.graph import pagerank

    docs = _ds(sf_dir, "documents", ["doc_id"])
    total = docs.count()

    def mk_edges(t: pa.Table) -> pa.Table:
        i = t["doc_id"].cast(pa.int64()).to_numpy()
        src = np.concatenate([i, i, i[i % 3 == 0]])
        dst = np.concatenate([(7 * i + 3) % total, (13 * i + 5) % total,
                              i[i % 3 == 0] // 2])
        m = src != dst
        return pa.table({"src": pa.array(src[m], pa.int64()),
                         "dst": pa.array(dst[m], pa.int64())})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    out = pagerank(edges, iters=3, damping=0.85, num_buckets=8).to_pandas()
    out["v"] = out["v"].astype("int64")
    out["rank"] = round_half_away(out["r"].to_numpy(), 6)
    return (out[["v", "rank"]].sort_values("v").reset_index(drop=True))


def text_normalize(sf_dir: str):
    """Unicode normalization pass (the NFC step of multilingual corpus
    prep): deterministic non-NFC variants are synthesized per doc (every
    3rd word of odd docs gets a combining-acute 'e', the
    url_canonical_dedup synthesis precedent), then normalized with NFC +
    whitespace collapse + casefold. Output: per-doc n_changed (words whose
    NFC form differs from the raw variant) and the normalized text's
    length — engine unicodedata.normalize vs DuckDB nfc_normalize."""
    import unicodedata

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])

    def synth_and_norm(t: pa.Table) -> pa.Table:
        ids, changed, lens = [], [], []
        for d, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            words = s.lower().split()
            if d % 2 == 1:
                words = [w.replace("e", "é", 1)
                         if i % 3 == 0 else w
                         for i, w in enumerate(words)]
            n_changed = 0
            out = []
            for w in words:
                nw = unicodedata.normalize("NFC", w)
                if nw != w:
                    n_changed += 1
                out.append(nw)
            norm = " ".join(out)
            ids.append(d)
            changed.append(n_changed)
            lens.append(len(norm))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_changed": pa.array(changed, pa.int64()),
                         "norm_len": pa.array(lens, pa.int64())})

    out = ds.map_batches(synth_and_norm, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def graph_hits(sf_dir: str):
    """HITS hubs/authorities (2 iterations, fixed-point max-normalized —
    functions/graph.hits) over the same deterministic synthetic link graph
    as graph_pagerank. Scores are exact multiples of 2^-20, so the float
    output compares bit-exactly against the unrolled SQL twin."""
    from ..functions.graph import hits

    docs = _ds(sf_dir, "documents", ["doc_id"])
    total = docs.count()

    def mk_edges(t: pa.Table) -> pa.Table:
        i = t["doc_id"].cast(pa.int64()).to_numpy()
        src = np.concatenate([i, i, i[i % 3 == 0]])
        dst = np.concatenate([(7 * i + 3) % total, (13 * i + 5) % total,
                              i[i % 3 == 0] // 2])
        m = src != dst
        return pa.table({"src": pa.array(src[m], pa.int64()),
                         "dst": pa.array(dst[m], pa.int64())})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    out = hits(edges, iters=2, num_buckets=8)
    out["v"] = out["v"].astype("int64")
    return out


# ---------------- round 3 session 3: vector scale path + routing ------------


def _query_vectors(sf_dir: str, qids: list[int]) -> np.ndarray:
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, ids=sorted(set(qids)))
    vecs = {int(i): v for i, v in
            zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist())}
    return np.array([vecs[q] for q in qids], dtype=np.float64)


def knn_scalar_quantized(sf_dir: str):
    """int8-style scalar-quantized vector search (Lucene ScalarQuantizer
    lineage; the ES dense_vector int8 option in max_inner_product mode):
    global max|component| (exact distributed fold) -> symmetric signed-int8
    grid -> INTEGER dot-product top-k. The integer scores are
    partition-invariant, so this gate's hash is exact, unlike float cosine
    which needs rounding; the symmetric grid keeps the integer dot
    proportional to the float dot (recall test: 15/15 overlap with exact).
    Pass 1 reduces each batch to one scalar; pass 2 broadcasts the
    quantized queries via ray.put and merges per-batch partial top-k on
    the driver."""
    Q = _query_vectors(sf_dir, [0, 1, 2])
    out = S.knn_scalar_quantized(_ds(sf_dir, "embeddings"), Q, k=5)
    return out[["query_id", "vec_id", "qdot"]]


def ft_rrf_hybrid(sf_dir: str):
    """Reciprocal rank fusion of a BM25 leg and a cosine-kNN leg (hybrid
    retrieval; RRF per Cormack et al. 2009, the combiner ES exposes as
    `rank.rrf`). Both legs are the existing distributed retrievers (BM25
    top-k over the inverted index; brute-force cosine with broadcast
    queries); fusion touches only the two 50-row result lists. Ranks are
    assigned on the ROUNDED scores (4dp BM25 / 6dp cosine, ties by id) so
    rank order is reproducible against the SQL oracle's double arithmetic.
    The doc_id and vec_id spaces are aligned by construction of the
    synthetic corpus (both dense from 0)."""
    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "match", "text": "slow merge batch", "k": 50})
    lex = pd.DataFrame({"doc_id": ids.astype(np.int64),
                        "s": round_half_away(sc.astype(np.float64), 4)})
    lex = lex.sort_values(["s", "doc_id"],
                          ascending=[False, True]).reset_index(drop=True)
    lex["rank"] = np.arange(1, len(lex) + 1, dtype=np.int64)

    Q = _query_vectors(sf_dir, [0])
    knn = S.knn_brute_force(_ds(sf_dir, "embeddings"), Q, k=50,
                            dtype=np.float64)
    knn = knn.rename(columns={"vec_id": "doc_id"})
    knn = knn.sort_values(["cosine", "doc_id"],
                          ascending=[False, True]).reset_index(drop=True)
    knn["rank"] = np.arange(1, len(knn) + 1, dtype=np.int64)

    return S.rrf_fuse([lex[["doc_id", "rank"]], knn[["doc_id", "rank"]]],
                      id_col="doc_id", k=10)


def embed_covariance(sf_dir: str):
    """Exact distributed second moments over the embedding table (the
    accumulation pass of PCA/whitening for embedding-space curation):
    integer-grid sums folded in one streaming pass — see
    functions/clustering.embedding_second_moments. The gate emits the
    2080-row upper triangle of the covariance numerator, bit-identical
    under any partitioning."""
    from ..functions.clustering import embedding_second_moments

    return embedding_second_moments(_ds(sf_dir, "embeddings"))


def ft_routed_term(sf_dir: str):
    """Routed search (cluster/routing/Murmur3HashFunction.java:34-48 +
    OperationRouting floorMod): routing='src3' selects shard
    hash(routing) % 4, and the query runs against ONLY the docs whose own
    routing key co-locates there. The hash is the reference's exact
    murmur3_x86_32 over UTF-16LE code units (validated against
    Murmur3HashFunctionTests.java:28-34 vectors). At scale the shard is a
    partition of the index layout (scan pruning); here the index is
    doc_id-partitioned so the shard filter is applied at the scan, before
    tokenization, keeping the routed path 1/N of the work."""
    import re

    from ..index.routing import assign_shards, shard_for

    n_shards = 4
    sh = shard_for("src3", n_shards)
    pat = re.compile(r"[^a-z0-9]+")

    def routed_match(t: pa.Table) -> pa.Table:
        shards = assign_shards(
            np.asarray(t["source"].to_pylist(), dtype=object), n_shards)
        keep = shards == sh
        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_numpy()
        srcs = t["source"].to_pylist()
        out_ids, out_src = [], []
        for idx in np.flatnonzero(keep):
            toks = pat.split(texts[idx].lower())
            if "data" in toks:
                out_ids.append(int(ids[idx]))
                out_src.append(srcs[idx])
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "source": pa.array(out_src, pa.string()),
                         "shard": pa.array([sh] * len(out_ids), pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "source", "text"])
           .map_batches(routed_match, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def knn_binary_quantized(sf_dir: str):
    """1-bit binary quantization (BBQ-style, 32x compression): sign-bit
    packing + XOR/popcount bit-agreement ranking — see
    functions/similarity.knn_binary_quantized. Integer scores, exact
    oracle; one streaming pass, the packed query matrix is the only
    broadcast."""
    Q = _query_vectors(sf_dir, [0, 1, 2])
    out = S.knn_binary_quantized(_ds(sf_dir, "embeddings"), Q, k=5)
    return out[["query_id", "vec_id", "agree"]]


def knn_pq(sf_dir: str):
    """Product quantization ANN (Jegou et al. 2011; the memory scale path:
    m=8 uint8 codes replace 64 floats, 32x compression): codebooks trained
    on a bounded Knuth-hash sample, snapped to an integer grid so code
    assignment and ADC scoring are all-integer and partition-invariant
    (differential twin test in tests/test_session3.py). Training is
    genuinely iterative (k-means per subspace), so no SQL oracle —
    rows-only gate; the serial twin + recall tests carry correctness."""
    Q = _query_vectors(sf_dir, [0, 1, 2])
    ds = _ds(sf_dir, "embeddings")
    books = S.train_pq(ds, m_subspaces=8, k_centroids=16, iters=3)
    out = S.knn_pq(ds, Q, books, k=5)
    return out[["query_id", "vec_id", "adc"]]


def knn_sq_indexed(sf_dir: str):
    """Persisted quantized vector index (index/vector.py): build int8 codes
    + manifest once (build-or-reuse, atomic commit), then serve the same
    three queries FROM THE CODES. Shares knn_scalar_quantized's exact
    oracle — the persisted path must reproduce the on-the-fly path
    bit-for-bit, proving the index round-trip loses nothing."""
    import hashlib

    from ..index.vector import build_vector_index, search_vector_index

    src = os.path.join(sf_dir, "embeddings.parquet")
    tag = hashlib.sha1(
        f"{src}:{os.path.getmtime(src)}:sq8:v1".encode()).hexdigest()[:16]
    out = os.path.join("/tmp/esray_cache", f"vecidx_{tag}")
    build_vector_index(_ds(sf_dir, "embeddings"), out)
    Q = _query_vectors(sf_dir, [0, 1, 2])
    res = search_vector_index(out, Q, k=5)
    return res[["query_id", "vec_id", "qdot"]]


def classifier_train_gd(sf_dir: str):
    """Distributed quality-classifier TRAINING (functions/train.py):
    full-batch logistic GD on SQL-expressible features (bias, alpha_ratio,
    space_ratio; label = lang=='en'), 2 streaming passes, integer gradient
    exchange (fixed-point snap per doc) so the fold is order-invariant and
    the final weights compare EXACTLY against the unrolled SQL twin."""
    from ..functions.train import train_logreg_gd

    return train_logreg_gd(_ds(sf_dir, "documents", ["text", "lang"]))


# ---------------- round 3 session 3: remaining REST-surface gates -----------


def cat_count(sf_dir: str):
    """_cat/count (rest/action/cat/RestCountAction): live doc totals per
    index, read from committed manifests for the indexed table and from the
    dataset row counts for the raw tables — all streaming count()s."""
    from ..index.manifest import index_stats
    from .fulltext import documents_index

    st = index_stats(documents_index(sf_dir))
    rows = [("documents", int(st.doc_count))]
    for tbl in ("events", "orders"):
        rows.append((tbl, int(_ds(sf_dir, tbl).count())))
    return pd.DataFrame({
        "index_name": [r[0] for r in rows],
        "docs": pd.array([r[1] for r in rows], dtype="int64"),
    })


def ft_get_source(sf_dir: str):
    """GET _source / HEAD _source (RestGetSourceAction: the fetch phase
    without metadata, 404/exists semantics for missing ids): point reads by
    doc_id with found flag and the source length."""
    import pyarrow.compute as pc

    wanted = [3, 7, 999_999_999]
    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id").isin(wanted))
    got = {int(r["doc_id"]): len(r["text"]) for r in ds.take_all()}
    return pd.DataFrame({
        "doc_id": pd.array(wanted, dtype="int64"),
        "found": pd.array([1 if d in got else 0 for d in wanted],
                          dtype="int64"),
        "src_len": pd.array([got.get(d, -1) for d in wanted], dtype="int64"),
    })


def ft_render_template(sf_dir: str):
    """_render/template (RestRenderSearchTemplateAction): rendering only —
    the rendered query structures for fixed (template, params) pairs,
    flattened to (tpl_id, kind, field, value)."""
    tpls = [
        ('{"kind": "term", "term": "{{t}}"}', {"t": "data"}),
        ('{"kind": "match", "text": "{{a}} {{b}}"}',
         {"a": "slow", "b": "merge"}),
        ('{"kind": "range_num", "field": "n_chars", "gte": {{lo}}}',
         {"lo": 120}),
    ]
    rows = []
    for i, (src, params) in enumerate(tpls):
        q = render_search_template(src, params)
        val = q.get("term") or q.get("text") or str(q.get("gte"))
        rows.append((i, q["kind"], val))
    return pd.DataFrame({
        "tpl_id": pd.array([r[0] for r in rows], dtype="int64"),
        "kind": [r[1] for r in rows],
        "value": [r[2] for r in rows],
    })


def msearch_template(sf_dir: str):
    """_msearch/template (RestMultiSearchTemplateAction): a batch of
    templated searches — render each (source, params) pair, execute
    against the same loaded searcher, concatenate per-request top-3."""
    s = documents_searcher(sf_dir)
    reqs = [
        ('{"kind": "term", "term": "{{t}}", "k": 3}', {"t": "data"}),
        ('{"kind": "match", "text": "{{q}}", "k": 3}', {"q": "slow merge"}),
    ]
    rows = []
    for rid, (src, params) in enumerate(reqs):
        ids, sc = s.search(render_search_template(src, params))
        for d, v in zip(ids.tolist(), sc.tolist()):
            rows.append((rid, d, float(round_half_away(v, 4))))
    return pd.DataFrame({
        "request_id": pd.array([r[0] for r in rows], dtype="int64"),
        "doc_id": pd.array([r[1] for r in rows], dtype="int64"),
        "score": [r[2] for r in rows],
    })


def ingest_simulate(sf_dir: str):
    """_ingest/pipeline/_simulate (RestSimulatePipelineAction): run a
    composed pipeline (set -> uppercase -> gsub) over sample docs and
    return the transformed fields — the simulate surface is the pipeline
    interpreter on an inline doc batch."""
    import pyarrow.compute as pc

    from ..functions import ingest as I

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "source"],
             flt=pc.field("doc_id") < 5)
    pipe = I.pipeline(I.set_value("tag", "sim"), I.uppercase("lang"),
                      I.gsub("source", "src", "S"))
    out = (ds.map_batches(pipe, batch_format="pyarrow")
           .select_columns(["doc_id", "tag", "lang", "source"]).to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def cat_templates(sf_dir: str):
    """_cat/templates (RestCatTemplatesAction): registered template rows
    (name, comma-joined patterns, order)."""
    from ..index import templates as TP

    TP.put_template("catdemo", ["catdemo-*"], {"number_of_shards": 2},
                    order=0)
    TP.put_template("catdemo-special", ["catdemo-special-*"],
                    {"number_of_shards": 4}, order=5)
    rows = sorted((TP.get_template(n)["name"],
                   ",".join(TP.get_template(n)["patterns"]),
                   TP.get_template(n)["order"])
                  for n in ("catdemo", "catdemo-special"))
    return pd.DataFrame({
        "name": [r[0] for r in rows],
        "patterns": [r[1] for r in rows],
        "template_order": pd.array([r[2] for r in rows], dtype="int64"),
    })


def cat_snapshots(sf_dir: str):
    """_cat/snapshots (RestSnapshotAction): snapshot rows from the
    repository's committed manifests; docs re-derived from the snapshotted
    index's own manifests (so the row proves the repo points at real,
    restorable segments)."""
    import hashlib
    import shutil

    from ..index.manifest import index_stats
    from ..index.snapshot import create_snapshot, list_snapshots
    from .fulltext import documents_index

    idx = documents_index(sf_dir)
    tag = hashlib.sha1(idx.encode()).hexdigest()[:12]
    repo = os.path.join("/tmp/esray_cache", f"catsnaps_{tag}")
    shutil.rmtree(repo, ignore_errors=True)
    create_snapshot(idx, repo, "snap_a")
    create_snapshot(idx, repo, "snap_b")
    docs = int(index_stats(idx).doc_count)
    rows = [(m["name"], len(m["segments"]), docs) for m in list_snapshots(repo)]
    return pd.DataFrame({
        "snapshot": [r[0] for r in rows],
        "n_segments": pd.array([r[1] for r in rows], dtype="int64"),
        "docs": pd.array([r[2] for r in rows], dtype="int64"),
    })


def ft_clear_scroll(sf_dir: str):
    """_search/scroll lifecycle + DELETE _search/scroll
    (ClearScrollController; SearchContextMissingException on reuse): open a
    scroll context, take two pages, clear, and prove the third access
    fails — rows are (page, n, last_key) with the post-clear attempt as
    (2, -1, -1)."""
    from ..search.scroll import ScrollRegistry, SearchContextMissing

    reg = ScrollRegistry()
    sid = reg.open(sf_dir)
    rows = []
    for p in range(2):
        page = reg.scroll(sid)
        rows.append((p, len(page), int(page["o_orderkey"].iloc[-1])))
    assert reg.clear(sid) and not reg.clear(sid)
    try:
        reg.scroll(sid)
        rows.append((2, -2, -2))  # must not happen
    except SearchContextMissing:
        rows.append((2, -1, -1))
    return pd.DataFrame({
        "page": pd.array([r[0] for r in rows], dtype="int64"),
        "n": pd.array([r[1] for r in rows], dtype="int64"),
        "last_key": pd.array([r[2] for r in rows], dtype="int64"),
    })


def indices_close_open(sf_dir: str):
    """indices.close / indices.open (Transport{Close,Open}IndexAction +
    IndicesOptions.strictExpandOpen): a closed index drops out of wildcard
    resolution (docs-* term search loses its hits) and rejoins after
    reopen; phases are (0 open, 1 docs-other closed, 2 reopened)."""
    from ..search.multi import MultiIndexSearcher

    # PRIVATE searcher over the same loaded per-index engines: mutating the
    # module-cached singleton's closed-set would drop docs-other for any
    # other gate running in this process mid-close
    m = MultiIndexSearcher(_multi_index_searcher(sf_dir).indices)
    q = {"kind": "term", "term": "data"}
    rows = [(0, len(m.search_all("docs-*", q)))]
    m.close_index("docs-other")
    try:
        rows.append((1, len(m.search_all("docs-*", q))))
        from ..search.multi import IndexClosedException

        try:
            m.search_all("docs-other", q)
            raise AssertionError("closed index served a search")
        except IndexClosedException:
            pass
    finally:
        m.open_index("docs-other")
    rows.append((2, len(m.search_all("docs-*", q))))
    return pd.DataFrame({
        "phase": pd.array([r[0] for r in rows], dtype="int64"),
        "hits": pd.array([r[1] for r in rows], dtype="int64"),
    })


def grok_patterns(sf_dir: str):
    """_ingest/processor/grok (RestGrokProcessorGetAction): the built-in
    pattern bank the grok processor resolves %{NAME} references against."""
    from ..functions.ingest import GROK_PATTERNS

    items = sorted(GROK_PATTERNS.items())
    return pd.DataFrame({"name": [k for k, _ in items],
                         "pattern": [v for _, v in items]})


def script_languages(sf_dir: str):
    """GET _script_language / _script_context (GetScriptLanguageAction /
    GetScriptContextAction): the registered script language and the
    contexts the engine executes it in (scripting.safe_eval_expr is the
    Painless-sandbox analog — see scripting.py)."""
    ctxs = ["aggs", "field", "filter", "ingest", "score"]
    return pd.DataFrame({"context": ctxs, "lang": ["expr"] * len(ctxs)})


def ft_alias_routing(sf_dir: str):
    """Alias search routing (AliasMetadata#searchRouting, applied by
    OperationRouting.searchShards): the alias carries routing='src3' AND a
    source filter, so a search through it first prunes to shard
    murmur3(src3) % 4 (index/routing.py — 1/N of the scan) and then ANDs
    the alias filter inside the shard. Output = term hits in the filtered,
    routed subset."""
    import re

    from ..index.routing import assign_shards, shard_for

    n_shards = 4
    sh = shard_for("src3", n_shards)
    pat = re.compile(r"[^a-z0-9]+")

    def routed_filtered(t: pa.Table) -> pa.Table:
        shards = assign_shards(
            np.asarray(t["source"].to_pylist(), dtype=object), n_shards)
        srcs = t["source"].to_pylist()
        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_numpy()
        keep = [i for i in np.flatnonzero(shards == sh)
                if srcs[i] == "src3" and "data" in pat.split(texts[i].lower())]
        return pa.table({"doc_id": pa.array([int(ids[i]) for i in keep],
                                            pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "source", "text"])
           .map_batches(routed_filtered, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def ft_sort_nested_mode(sf_dir: str):
    """Nested sort with sort modes (FieldSortBuilder#sortMode + nested sort
    path, SearchModule.java:604): parents (orders) ranked by an aggregate
    over their nested children (lineitems) — mode=min drives the order,
    max/sum returned alongside. The child rollup is one distributed
    groupby(parent) aggregate; sum is exact integer cents so the gate
    hash never drifts with fold order."""
    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = pc.cast(pc.floor(pc.add(pc.multiply(t["l_extendedprice"], 100.0),
                                    0.5)), pa.int64())
        t = t.append_column("price_cents", c)
        # batch-local combine (the pre-aggregation pattern): the exchange
        # carries one row per (block, parent), not per child. min/max/sum
        # are mergeable, so the fold is exact in any order; at 100 TB the
        # final fold is a groupby over the already-tiny partials.
        return t.group_by("l_orderkey").aggregate(
            [("l_extendedprice", "min"), ("l_extendedprice", "max"),
             ("price_cents", "sum")])

    parts = (_ds(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    g = (parts.groupby("l_orderkey", as_index=False)
         .agg(min_price=("l_extendedprice_min", "min"),
              max_price=("l_extendedprice_max", "max"),
              sum_cents=("price_cents_sum", "sum")))
    g = g.rename(columns={"l_orderkey": "o_orderkey"})
    g = g.sort_values(["min_price", "o_orderkey"]).head(15).reset_index(drop=True)
    g["o_orderkey"] = g["o_orderkey"].astype("int64")
    g["sum_cents"] = g["sum_cents"].astype("int64")
    return g[["o_orderkey", "min_price", "max_price", "sum_cents"]]


def exists_apis(sf_dir: str):
    """HEAD existence surface (indices.exists / exists_alias /
    exists_template / document exists — the Rest*ExistsAction family):
    one row per (kind, name) probe against the real registries — the
    committed index directory, the alias state file, the template
    registry, and a doc_id point read."""
    import hashlib
    import shutil

    import pyarrow.compute as pc

    from ..index import templates as TP
    from ..index.reshape import create_alias, delete_alias
    from .fulltext import documents_index

    idx = documents_index(sf_dir)
    base = os.path.join("/tmp/esray_cache",
                        "exists_" + hashlib.sha1(idx.encode()).hexdigest()[:12])
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    create_alias(base, "docs-read", "documents")
    TP.put_template("existsdemo", ["existsdemo-*"], {"x": 1})

    def doc_exists(did: int) -> bool:
        return (_ds(sf_dir, "documents", ["doc_id"],
                    flt=pc.field("doc_id") == did).count() > 0)

    def alias_exists(a: str) -> bool:
        return os.path.exists(os.path.join(base, f"{a}.alias.json"))

    rows = [
        ("index", "documents", int(os.path.isdir(idx))),
        ("index", "nope", 0),
        ("alias", "docs-read", int(alias_exists("docs-read"))),
        ("alias", "docs-write", int(alias_exists("docs-write"))),
        ("template", "existsdemo", int(TP.get_template("existsdemo") is not None)),
        ("template", "missing-tpl", int(TP.get_template("missing-tpl") is not None)),
        ("doc", "3", int(doc_exists(3))),
        ("doc", "999999999", int(doc_exists(999_999_999))),
    ]
    delete_alias(base, "docs-read")
    TP.delete_template("existsdemo")
    return pd.DataFrame({
        "kind": [r[0] for r in rows],
        "name": [r[1] for r in rows],
        "exists": pd.array([r[2] for r in rows], dtype="int64"),
    })


def get_mapping(sf_dir: str):
    """GET _mapping / _mapping/field/<f> (RestGetMappingAction /
    RestGetFieldMappingAction): the index's field -> ES-type map, derived
    from the Arrow schema by the same dynamic-mapping rules the reader
    applies at ingest (int64 -> long, string -> text/keyword by analysis
    role; doc_id is the metadata id field)."""
    import pyarrow.parquet as pq

    s = pq.read_schema(os.path.join(sf_dir, "documents.parquet"))
    es_type = {"int64": "long", "double": "double", "string": "keyword",
               "bool": "boolean"}
    rows = []
    for f in s:
        t = es_type.get(str(f.type), str(f.type))
        if f.name == "text":
            t = "text"  # analyzed content field
        rows.append((f.name, t))
    rows.sort()
    return pd.DataFrame({"field": [r[0] for r in rows],
                         "es_type": [r[1] for r in rows]})


def training_mix_budget(sf_dir: str):
    """Token-budget mixture sampling (the 'sample each source until its
    token budget is spent' step of training-data mixing, e.g. The Pile /
    LLaMA data prep): whitespace token counts per doc, cumulative sum per
    source in doc_id order, keep while the running total stays within the
    per-source budget. One groupby(source).map_groups pass — each group
    sorts only its own docs, and the exchange carries (doc_id, source,
    tokens), never text."""
    budget = 400

    def count_tokens(t: pa.Table) -> pa.Table:
        import re

        ws = re.compile(r"\s+")
        toks = [len([w for w in ws.split(s) if w]) for s in
                t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"], "source": t["source"],
                         "tokens": pa.array(toks, pa.int64())})

    def keep_within_budget(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        cum = g["tokens"].cumsum()
        return g[cum <= budget]

    out = (_ds(sf_dir, "documents", ["doc_id", "source", "text"])
           .map_batches(count_tokens, batch_format="pyarrow")
           .groupby("source")
           .map_groups(keep_within_budget, batch_format="pandas")
           .to_pandas())
    out["doc_id"] = out["doc_id"].astype("int64")
    out["tokens"] = out["tokens"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "source", "tokens"]]


def ft_rank_feature_log_sigmoid(sf_dir: str):
    """rank_feature's remaining score functions (RankFeatureQueryBuilder:
    log with scaling_factor, sigmoid with pivot+exponent; saturation is
    gated separately): both evaluated over the n_chars feature for
    doc_id < 20."""
    s = documents_searcher(sf_dir)
    ids_l, sc_l = s._eval({"kind": "rank_feature", "field": "n_chars",
                           "function": "log", "scaling_factor": 2.0})
    ids_s, sc_s = s._eval({"kind": "rank_feature", "field": "n_chars",
                           "function": "sigmoid", "pivot": 200.0,
                           "exponent": 0.6})
    lmap = dict(zip(ids_l.tolist(), sc_l.tolist()))
    smap = dict(zip(ids_s.tolist(), sc_s.tolist()))
    keep = sorted(d for d in lmap if d < 20)
    return pd.DataFrame({
        "doc_id": pd.array(keep, dtype="int64"),
        "s_log": [float(round_half_away(lmap[d], 4)) for d in keep],
        "s_sigmoid": [float(round_half_away(smap[d], 4)) for d in keep],
    })


def knn_ivf_pq(sf_dir: str):
    """IVF-PQ composed ANN (coarse inverted lists + integer-ADC rerank —
    functions/similarity.knn_ivf_pq): the production shape at 10^12
    vectors, probing nprobe/16 of the lists and reading m=8 bytes per
    probed vector. Rows-only (both trainers are iterative k-means); the
    recall and determinism tests carry correctness."""
    Q = _query_vectors(sf_dir, [0, 1, 2])
    out = S.knn_ivf_pq(_ds(sf_dir, "embeddings"), Q, k=5)
    return out[["query_id", "vec_id", "adc"]]


def corpus_diff(sf_dir: str):
    """Corpus snapshot diffing (the incremental-crawl delta step: which
    docs were added / removed / changed between two snapshots): v2 is
    synthesized deterministically from v1 (drop doc_id % 31 == 0, append a
    marker to text of doc_id % 17 == 0, add 10 fresh ids past the max),
    both sides reduce to (doc_id, md5) per batch — the exchange carries
    32-byte digests, never text — and a full-outer hash join classifies
    each id. At 100 TB this is two content-hash scans + one join on
    digests."""
    import hashlib

    def hash_v1(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()),
            "h1": pa.array([hashlib.md5(s.encode()).hexdigest()
                            for s in t["text"].to_pylist()], pa.string()),
        })

    def synth_v2(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        texts = t["text"].to_pylist()
        out_ids, out_h = [], []
        for i, s in zip(ids.tolist(), texts):
            if i % 31 == 0:
                continue  # removed in v2
            if i % 17 == 0:
                s = s + " v2marker"
            out_ids.append(int(i))
            out_h.append(hashlib.md5(s.encode()).hexdigest())
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "h2": pa.array(out_h, pa.string())})

    base = _ds(sf_dir, "documents", ["doc_id", "text"])
    v1 = base.map_batches(hash_v1, batch_format="pyarrow")
    v2 = base.map_batches(synth_v2, batch_format="pyarrow")
    n_docs = base.count()
    import ray.data as rd

    extra = rd.from_items([{"doc_id": int(n_docs + 1000 + i),
                            "h2": hashlib.md5(f"new doc {i}".encode()).hexdigest()}
                           for i in range(10)])
    v2 = v2.union(extra)
    j = v1.join(v2, join_type="full_outer", num_partitions=8,
                on=("doc_id",))
    df = j.to_pandas()
    h1 = df["h1"] if "h1" in df else df.iloc[:, 1]
    h2 = df["h2"] if "h2" in df else df.iloc[:, 2]
    status = np.where(h1.isna(), "added",
                      np.where(h2.isna(), "removed",
                               np.where(h1 == h2, "same", "changed")))
    out = pd.DataFrame({"status": status})
    res = (out.groupby("status", as_index=False).size()
           .rename(columns={"size": "n"}))
    res["n"] = res["n"].astype("int64")
    return res.sort_values("status").reset_index(drop=True)


def corpus_datacard(sf_dir: str):
    """Per-source data card (the governance summary every training-data
    release ships: volume, token counts, language mix): one combined
    per-batch partial (docs, ws-token sum, en-doc count per source) folded
    into 20 rows — counts only in the exchange."""
    def partial(t: pa.Table) -> pa.Table:
        import re

        ws = re.compile(r"\s+")
        srcs = t["source"].to_pylist()
        toks = [len([w for w in ws.split(s) if w])
                for s in t["text"].to_pylist()]
        en = [1 if v == "en" else 0 for v in t["lang"].to_pylist()]
        df = pd.DataFrame({"source": srcs, "tokens": toks, "en": en})
        g = df.groupby("source", as_index=False).agg(
            docs=("tokens", "size"), tokens=("tokens", "sum"),
            en_docs=("en", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["source", "text", "lang"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = parts.groupby("source", as_index=False).sum()
    for c in ("docs", "tokens", "en_docs"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def corpus_sample_bottomk(sf_dir: str):
    """Distributed uniform sampling without replacement via bottom-k hash
    priorities (the classic mergeable-sample trick: priority = md5 of the
    id, keep the k smallest — per-batch partial bottom-k, tiny driver
    merge; identical sample under ANY partitioning, unlike reservoir
    state)."""
    import hashlib

    k = 20

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        pri = [hashlib.md5(str(int(i)).encode()).hexdigest()
               for i in ids.tolist()]
        df = pd.DataFrame({"doc_id": ids.astype(np.int64), "priority": pri})
        df = df.sort_values(["priority", "doc_id"]).head(min(k, len(df)))
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["doc_id"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = parts.sort_values(["priority", "doc_id"]).head(k)
    return out.reset_index(drop=True)[["doc_id", "priority"]]


def corpus_sample_weighted(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis-Spirakis
    exponential races: key = -ln(u)/w, keep the k smallest — the
    quality-weighted data-selection primitive): u is a hash-derived
    uniform (first 13 md5 hex digits / 2^52), w = n_chars, so the draw is
    deterministic, mergeable, and partition-invariant like the uniform
    bottom-k. Keys rounded to 10 dp for the cross-engine comparison."""
    import hashlib

    k = 20

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = t["n_chars"].to_numpy().astype(np.float64)
        u = np.array([int(hashlib.md5(str(int(i)).encode()).hexdigest()[:13],
                          16) for i in ids.tolist()], dtype=np.float64)
        u = u / float(1 << 52)
        key = -np.log(u) / np.maximum(w, 1.0)
        df = pd.DataFrame({"doc_id": ids.astype(np.int64), "k_": key})
        df = df.sort_values(["k_", "doc_id"]).head(min(k, len(df)))
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = parts.sort_values(["k_", "doc_id"]).head(k).reset_index(drop=True)
    out["key_r"] = round_half_away(out["k_"], 10)
    return out[["doc_id", "key_r"]]


def corpus_quantile_filter(sf_dir: str):
    """Quantile-band filtering (keep docs inside the [p25, p75] length
    band — the 'trim the tails' curation step): EXACT distributed
    quantiles over an integer signal via a value-count exchange (groupby
    n_chars -> counts; the driver cumsums the tiny distinct-value table —
    never the rows) with the explicit rank rule `smallest v whose running
    count >= ceil(q*n)`, then one pruned filter pass counts the band."""
    from ray.data.aggregate import Count

    vc = (_ds(sf_dir, "documents", ["n_chars"])
          .groupby("n_chars").aggregate(Count(alias_name="c")).to_pandas()
          .sort_values("n_chars").reset_index(drop=True))
    n = int(vc["c"].sum())
    cum = vc["c"].cumsum()

    def q_at(q: float) -> int:
        import math

        need = math.ceil(q * n)
        return int(vc["n_chars"][int((cum >= need).idxmax())])

    p25, p50, p75 = q_at(0.25), q_at(0.5), q_at(0.75)
    import pyarrow.compute as pc

    kept = _ds(sf_dir, "documents", ["doc_id", "n_chars"],
               flt=(pc.field("n_chars") >= p25)
               & (pc.field("n_chars") <= p75)).count()
    return pd.DataFrame({
        "p25": pd.array([p25], dtype="int64"),
        "p50": pd.array([p50], dtype="int64"),
        "p75": pd.array([p75], dtype="int64"),
        "kept": pd.array([int(kept)], dtype="int64"),
    })


# ------- round-3 session-4: analytics aggregation batch -------


def agg_multi_terms(sf_dir: str):
    """multi_terms agg (MultiTermsAggregationBuilder, server 7.12+):
    buckets keyed on the (lang, source) term TUPLE with a sum sub-metric,
    ordered by doc_count desc then key asc, size=10. Scale shape:
    per-batch partial groupby (combiner) -> driver merges the tiny
    (langs x sources) partial table; the row stream is never shuffled."""

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["lang", "source"], as_index=False).agg(
            dc=("n_chars", "size"), sc=("n_chars", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["lang", "source", "n_chars"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = parts.groupby(["lang", "source"], as_index=False).sum()
    out["doc_count"] = out["dc"].astype("int64")
    out["sum_chars"] = out["sc"].astype("int64")
    out = out.sort_values(["doc_count", "lang", "source"],
                          ascending=[False, True, True]).head(10)
    cols = ["lang", "source", "doc_count", "sum_chars"]
    return out.reset_index(drop=True)[cols]


def agg_top_metrics(sf_dir: str):
    """top_metrics agg (x-pack analytics TopMetricsAggregationBuilder):
    per lang bucket, the metric row of the single top document under
    sort n_chars desc (tie: doc_id asc). Scale shape: per-batch partial
    top-1 per key (vectorized sort + head), driver merges
    (blocks x langs) candidate rows."""

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["n_chars", "doc_id"], ascending=[False, True])
        g = df.groupby("lang", as_index=False).head(1)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["lang", "doc_id", "n_chars"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = (parts.sort_values(["n_chars", "doc_id"],
                             ascending=[False, True])
           .groupby("lang", as_index=False).head(1)
           .sort_values("lang").reset_index(drop=True))
    out = out.rename(columns={"doc_id": "top_doc",
                              "n_chars": "top_n_chars"})
    return out[["lang", "top_doc", "top_n_chars"]]


def agg_boxplot(sf_dir: str):
    """boxplot agg (x-pack analytics BoxplotAggregationBuilder): min / q1 /
    q2 / q3 / max of n_chars per lang. The reference computes t-digest
    approximations; over an integer-valued field this engine computes
    EXACT quantiles via the value-count exchange (groupby (lang, n_chars)
    -> counts; the driver cumsums the tiny distinct-value table, never
    the rows), rank rule `smallest v with running count >= ceil(q*n)`."""
    from ray.data.aggregate import Count

    vc = (_ds(sf_dir, "documents", ["lang", "n_chars"])
          .groupby(["lang", "n_chars"]).aggregate(Count(alias_name="c"))
          .to_pandas().sort_values(["lang", "n_chars"])
          .reset_index(drop=True))
    rows = []
    import math

    for lang, g in vc.groupby("lang"):
        n = int(g["c"].sum())
        cum = g["c"].cumsum().to_numpy()
        vals = g["n_chars"].to_numpy()

        def q_at(q: float) -> int:
            return int(vals[int(np.argmax(cum >= math.ceil(q * n)))])

        rows.append({"lang": lang, "mn": int(vals[0]),
                     "q1": q_at(0.25), "q2": q_at(0.5), "q3": q_at(0.75),
                     "mx": int(vals[-1])})
    out = pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)
    for c in ("mn", "q1", "q2", "q3", "mx"):
        out[c] = out[c].astype("int64")
    return out[["lang", "mn", "q1", "q2", "q3", "mx"]]


def agg_rate(sf_dir: str):
    """rate agg (x-pack analytics RateAggregationBuilder) inside a daily
    date_histogram with rate unit=hour: bucket doc_count / 24 (the
    reference divides the bucket value by the bucket length expressed in
    the rate unit). One exact double division per reduced bucket row;
    the exchange is date_histogram's partial-count combine."""
    out = A.date_histogram(_ds(sf_dir, "events", ["ts"]), "ts", "day")
    out = out.sort_values("bucket").reset_index(drop=True)
    out["rate_per_hour"] = out["doc_count"].to_numpy().astype(
        np.float64) / 24.0
    out["doc_count"] = out["doc_count"].astype("int64")
    return out[["bucket", "doc_count", "rate_per_hour"]]


def agg_string_stats(sf_dir: str):
    """string_stats agg (x-pack analytics StringStatsAggregationBuilder,
    show_distribution semantics): count, min/max/avg length and Shannon
    entropy (log2) of the character distribution over documents.text.
    Scale shape: per-batch partials (count, min, max, sum_len, char
    Counter) -> driver merges alphabet-sized dicts; entropy from merged
    counts as H = log2(N) - sum(c*log2 c)/N."""
    from collections import Counter

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        if not texts:  # zero-row block (possible after repartition)
            return pa.table({"cnt": pa.array([], pa.int64()),
                             "min_len": pa.array([], pa.int64()),
                             "max_len": pa.array([], pa.int64()),
                             "sum_len": pa.array([], pa.int64()),
                             "chars": pa.array([], pa.list_(pa.string())),
                             "ccounts": pa.array([], pa.list_(pa.int64()))})
        lens = np.array([len(s) for s in texts], dtype=np.int64)
        cc = Counter()
        for s in texts:
            cc.update(s)
        chars = sorted(cc)
        return pa.table({
            "cnt": pa.array([len(texts)], pa.int64()),
            "min_len": pa.array([int(lens.min())], pa.int64()),
            "max_len": pa.array([int(lens.max())], pa.int64()),
            "sum_len": pa.array([int(lens.sum())], pa.int64()),
            "chars": pa.array([chars]),
            "ccounts": pa.array([[int(cc[c]) for c in chars]]),
        })

    parts = (_ds(sf_dir, "documents", ["text"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    merged = Counter()
    for chars, counts in zip(parts["chars"], parts["ccounts"]):
        for ch, c in zip(chars, counts):
            merged[ch] += int(c)
    tot = float(sum(merged.values()))
    cs = np.array([float(merged[c]) for c in sorted(merged)])
    entropy = np.log2(tot) - float((cs * np.log2(cs)).sum()) / tot
    cnt = int(parts["cnt"].sum())
    return pd.DataFrame({
        "cnt": pd.array([cnt], dtype="int64"),
        "min_len": pd.array([int(parts["min_len"].min())], dtype="int64"),
        "max_len": pd.array([int(parts["max_len"].max())], dtype="int64"),
        "avg_len": [float(round_half_away(
            float(parts["sum_len"].sum()) / cnt, 6))],
        "entropy": [float(round_half_away(entropy, 6))],
    })


def agg_normalize(sf_dir: str):
    """normalize pipeline agg (x-pack NormalizePipelineAggregationBuilder):
    rescale_0_1 and percent_of_sum over the daily date_histogram
    doc_counts — post-processing on the already-reduced bucket table
    (integer counts; one exact double op per bucket, same literal
    expression as the SQL twin so the doubles are bit-identical)."""
    out = A.date_histogram(_ds(sf_dir, "events", ["ts"]), "ts", "day")
    out = out.sort_values("bucket").reset_index(drop=True)
    c = out["doc_count"].to_numpy().astype(np.float64)
    lo, hi, tot = c.min(), c.max(), c.sum()
    out["rescale_0_1"] = round_half_away((c - lo) / (hi - lo), 6)
    out["percent_of_sum"] = round_half_away(c / tot * 100.0, 6)
    out["doc_count"] = out["doc_count"].astype("int64")
    return out[["bucket", "doc_count", "rescale_0_1", "percent_of_sum"]]


def agg_cumulative_cardinality(sf_dir: str):
    """cumulative_cardinality pipeline agg (x-pack
    CumulativeCardinalityPipelineAggregationBuilder): cumulative distinct
    user_ids per daily bucket. EXACT distributed shape (the reference
    merges HLL sketches): groupby(user_id).min(first day) — the exchange
    carries ONE row per distinct user, not per event — then a tiny
    per-day first-seen count + running sum on the reduced table."""
    from ray.data.aggregate import Min

    def day_key(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        return t.append_column("day", d)

    first = (_ds(sf_dir, "events", ["ts", "user_id"])
             .map_batches(day_key, batch_format="pyarrow")
             .groupby("user_id").aggregate(Min("day", alias_name="fd"))
             .to_pandas())
    hist = A.date_histogram(_ds(sf_dir, "events", ["ts"]), "ts", "day")
    hist = hist.sort_values("bucket").reset_index(drop=True)
    new_per_day = first.groupby("fd").size()
    day_us = hist["bucket"].astype("datetime64[us]").astype("int64")
    cum = np.cumsum([int(new_per_day.get(int(d), 0)) for d in day_us])
    hist["cum_users"] = pd.array(cum, dtype="int64")
    hist["doc_count"] = hist["doc_count"].astype("int64")
    return hist[["bucket", "doc_count", "cum_users"]]


# ------- round-3 session-4: REST surface batch -------


def cat_shards(sf_dir: str):
    """_cat/shards (rest/action/cat/RestShardsAction) over the 4-shard
    routed layout (OperationRouting + Murmur3HashFunction on the routing
    key): per-shard doc and indexed-token totals. Scale shape: per-batch
    vectorized shard assignment + token-count partial groupby -> the
    driver merges (blocks x 4) partial rows; the doc stream itself is
    never shuffled."""
    import re

    from ..index.routing import assign_shards

    n_shards = 4
    pat = re.compile(r"[^a-z0-9]+")

    def partial(t: pa.Table) -> pa.Table:
        shards = assign_shards(
            np.asarray(t["source"].to_pylist(), dtype=object), n_shards)
        toks = np.array(
            [sum(1 for w in pat.split(s.lower()) if w)
             for s in t["text"].to_pylist()], dtype=np.int64)
        df = pd.DataFrame({"shard": shards.astype(np.int64), "tokens": toks})
        g = df.groupby("shard", as_index=False).agg(
            docs=("tokens", "size"), tokens=("tokens", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["source", "text"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = parts.groupby("shard", as_index=False).sum().sort_values("shard")
    for c in ("shard", "docs", "tokens"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)[["shard", "docs", "tokens"]]


def cluster_health(sf_dir: str):
    """_cluster/health (RestClusterHealthAction / ClusterHealthResponse)
    over the 4-shard routed layout (OperationRouting, no replicas):
    status green iff the documents index is manifest-complete and every
    routing shard is non-empty, active_primary_shards = 4 = active_shards,
    nothing relocating/initializing/unassigned; docs is read from the
    committed segment manifests (recorded lineage), the oracle recounts
    the raw table."""
    from ..index.manifest import index_stats
    from ..index.routing import shard_for
    from .fulltext import documents_index

    st = index_stats(documents_index(sf_dir))
    n_shards = 4
    # every shard of the routed layout must own >= 1 routing key
    owned = {shard_for(f"src{i}", n_shards) for i in range(20)}
    status = "green" if st.doc_count > 0 and len(owned) == n_shards else "red"
    return pd.DataFrame({
        "status": [status],
        "active_primary_shards": pd.array([n_shards], dtype="int64"),
        "active_shards": pd.array([n_shards], dtype="int64"),
        "relocating_shards": pd.array([0], dtype="int64"),
        "initializing_shards": pd.array([0], dtype="int64"),
        "unassigned_shards": pd.array([0], dtype="int64"),
        "active_shards_percent": [100.0],
        "docs": pd.array([st.doc_count], dtype="int64"),
    })


def indices_stats(sf_dir: str):
    """_stats (IndicesStatsAction, level=indices): per-index docs + indexed
    token totals for the multi-index registry (docs-en / docs-other),
    read from each index's committed manifests — recorded lineage, not a
    recount; the oracle recomputes both from the raw table under the same
    lang partition rule."""
    import hashlib as _h
    import os as _os

    from ..index.manifest import index_stats as _istats

    _multi_index_searcher(sf_dir)  # build-or-reuse both indices
    src = _os.path.join(sf_dir, "documents.parquet")
    tag = _h.sha1(
        f"{src}:{_os.path.getmtime(src)}:multi:v1".encode()).hexdigest()[:16]
    root = _os.path.join("/tmp/esray_cache", f"multiidx_{tag}")
    rows = []
    for name in ("docs-en", "docs-other"):
        st = _istats(_os.path.join(root, f"idx_{name}"))
        rows.append({"idx": name, "docs": st.doc_count,
                     "tokens": st.sum_doc_len})
    out = pd.DataFrame(rows).sort_values("idx").reset_index(drop=True)
    for c in ("docs", "tokens"):
        out[c] = out[c].astype("int64")
    return out[["idx", "docs", "tokens"]]


def ft_stored_fields(sf_dir: str):
    """stored_fields fetch (SearchSourceBuilder#storedFields +
    fetch/subphase/StoredFieldsPhase): the top-10 hits of a term query
    return ONLY the requested stored fields (lang, source) — _source
    suppressed — fetched through the engine's point-read fetch phase
    (row-group-pruned reads for just the hit ids), not the docvalue
    column path."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "term", "term": "merge"})
    order = np.lexsort((ids, -sc))[:10]
    ids, sc = ids[order], sc[order]
    f = s.fetch(ids, ["lang", "source"]).to_pandas()
    return pd.DataFrame({
        "doc_id": pd.array(ids.astype(np.int64), dtype="int64"),
        "score": round_half_away(sc.astype(np.float64), 4),
        "lang": f["lang"],
        "source": f["source"],
    })


# ------- round-3 session-4: training-data pipeline batch -------


def training_pack_sequences(sf_dir: str):
    """Sequence packing (concat-and-chunk: docs tokenized, concatenated in
    doc_id order, cut into fixed L=256-token training sequences — the
    standard LM pretraining packer). EXACT distributed prefix sum: pass 1
    groups doc token counts into doc_id ranges (exchange carries ONE row
    per bucket), the driver cumsums the tiny bucket table into start
    offsets; pass 2 re-scans, sorts each batch's docs per bucket and adds
    the broadcast bucket offset — no global sort, no driver row loop.
    Emits per-doc (start_tok, first/last sequence id)."""
    import re

    L = 256
    bucket_rows = 1000  # doc_ids per prefix bucket
    pat = re.compile(r"[^a-z0-9]+")

    def ntok(t: pa.Table) -> pa.Table:
        toks = np.array(
            [sum(1 for w in pat.split(s.lower()) if w)
             for s in t["text"].to_pylist()], dtype=np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "ntok": pa.array(toks),
            "bucket": pa.array(t["doc_id"].to_numpy() // bucket_rows),
        })

    counted = (_ds(sf_dir, "documents", ["doc_id", "text"])
               .map_batches(ntok, batch_format="pyarrow"))
    # pass 1: bucket totals (tiny exchange), driver cumsum -> offsets
    from ray.data.aggregate import Sum

    bt = (counted.groupby("bucket").aggregate(Sum("ntok", alias_name="s"))
          .to_pandas().sort_values("bucket").reset_index(drop=True))
    offs = {int(b): int(o) for b, o in zip(
        bt["bucket"], np.concatenate([[0], bt["s"].cumsum().to_numpy()[:-1]]))}
    # pass 2: per-bucket intra prefix + broadcast bucket offset
    def place(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id").reset_index(drop=True)
        b = int(df["bucket"].iloc[0])
        start = offs[b] + np.concatenate(
            [[0], df["ntok"].cumsum().to_numpy()[:-1]])
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "start_tok": start.astype(np.int64),
            "seq_first": (start // L).astype(np.int64),
            "seq_last": ((start + df["ntok"].to_numpy() - 1) // L
                         ).astype(np.int64),
        })

    out = (counted.groupby("bucket").map_groups(place, batch_format="pandas")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return out[["doc_id", "start_tok", "seq_first", "seq_last"]]


def eql_sequence(sf_dir: str):
    """EQL sequence matching (x-pack eql: `sequence by user_id with
    maxspan=10m [click] [purchase]`): per click event, the earliest
    same-user purchase in (ts, ts+10m] completes a sequence; emit per-user
    sequence counts. Scale shape: events co-partition by user via ONE
    groupby(user_id).map_groups; inside a group both sides are sorted
    arrays and the step join is a vectorized searchsorted — no pairwise
    blowup, no driver loop."""
    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        u = int(df["user_id"].iloc[0])
        a = np.sort(df.loc[df["event_type"] == "click", "ts"]
                    .to_numpy().astype("datetime64[us]").astype(np.int64))
        b = np.sort(df.loc[df["event_type"] == "purchase", "ts"]
                    .to_numpy().astype("datetime64[us]").astype(np.int64))
        if a.size == 0 or b.size == 0:
            return pd.DataFrame({"user_id": [], "seqs": []})
        span = 10 * 60 * 1_000_000
        nxt = np.searchsorted(b, a, side="right")  # first purchase > click
        ok = (nxt < b.size) & (b[np.minimum(nxt, b.size - 1)] <= a + span)
        n = int(ok.sum())
        if n == 0:
            return pd.DataFrame({"user_id": [], "seqs": []})
        return pd.DataFrame({"user_id": [u], "seqs": [n]})

    out = (_ds(sf_dir, "events", ["user_id", "event_type", "ts"])
           .groupby("user_id").map_groups(per_user, batch_format="pandas")
           .to_pandas())
    out["user_id"] = out["user_id"].astype("int64")
    out["seqs"] = out["seqs"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def transform_pivot(sf_dir: str):
    """_transform pivot (x-pack transforms TransformConfig#pivot): group_by
    user_id with per-event-type count columns + last activity timestamp,
    materialized as a dest-index-shaped table. Scale shape: per-batch
    partial crosstab (user x type counts, vectorized), then ONE
    groupby(user_id) over the partials — the exchange carries pivoted
    count rows, never raw events."""
    types = ["click", "error", "purchase", "signup", "view"]

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for ty in types:
            if ty not in ct.columns:
                ct[ty] = 0
        ct = ct[types].rename(columns={t_: f"n_{t_}" for t_ in types})
        ct["last_ts"] = df.groupby("user_id")["ts_us"].max()
        return pa.Table.from_pandas(ct.reset_index(), preserve_index=False)

    from ray.data.aggregate import Max, Sum

    aggs = [Sum(f"n_{t_}", alias_name=f"n_{t_}") for t_ in types]
    aggs.append(Max("last_ts", alias_name="last_ts"))
    out = (_ds(sf_dir, "events", ["user_id", "event_type", "ts"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("user_id").aggregate(*aggs).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    for c in out.columns:
        if c != "last_ts":
            out[c] = out[c].astype("int64")
    out["last_ts"] = pd.to_datetime(out["last_ts"], unit="us")
    return out[["user_id"] + [f"n_{t_}" for t_ in types] + ["last_ts"]]


def knn_hnsw(sf_dir: str):
    """kNN via per-segment HNSW graphs (the reference's dense_vector kNN
    engine shape: one graph per Lucene segment, searched independently,
    top-k merged across segments — KnnVectorQuery /
    Lucene90HnswVectorsFormat). Rows-only: beam search is approximate by
    design; pinned by the recall>=0.9-vs-brute-force and
    partition-invariance tests."""
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 5)
    Q = np.array(t["embedding"].to_pylist())
    return S.knn_hnsw(_ds(sf_dir, "embeddings"), Q, k=5)


def knn_filtered(sf_dir: str):
    """Filtered kNN (KnnSearchBuilder#filter: the filter restricts the
    candidate set BEFORE vector search, not post-hoc): label = 1 is
    pushed into the parquet read itself (row-group pruning), so
    non-qualifying vectors never enter the scan — the exact-path analog
    of ES filtering during HNSW traversal."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding", "label"],
             flt=pc.field("label") == 1)
    out = S.knn_brute_force(ds, Q, k=5, dtype=np.float64)
    return out[["query_id", "vec_id", "cosine"]]


def knn_l2(sf_dir: str):
    """dense_vector similarity=l2_norm (VectorSimilarity.L2_NORM): exact
    euclidean top-k, distance asc with vec_id tie-break."""
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    out = S.knn_l2(_ds(sf_dir, "embeddings", ["vec_id", "embedding"]),
                   Q, k=5)
    return out[["query_id", "vec_id", "dist"]]


def data_stream_rollover(sf_dir: str):
    """Data streams + rollover (cluster/metadata/DataStream.java,
    TransportRolloverAction max_docs condition): events append to the
    write index, which rolls every 4000 docs; backing indices are named
    .ds-events-NNNNNN by generation. EXACT distributed ranking via the
    prefix-count exchange (bucket doc counts -> driver cumsum -> broadcast
    offsets; per-bucket map_groups assigns ranks) — no global sort."""
    from ray.data.aggregate import Count

    max_docs = 4000
    bucket_rows = 5000

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", pa.array(t["event_id"].to_numpy() // bucket_rows))

    ks = (_ds(sf_dir, "events", ["event_id"])
          .map_batches(keyed, batch_format="pyarrow"))
    bt = (ks.groupby("bucket").aggregate(Count(alias_name="c"))
          .to_pandas().sort_values("bucket").reset_index(drop=True))
    offs = {int(b): int(o) for b, o in zip(
        bt["bucket"], np.concatenate([[0], bt["c"].cumsum().to_numpy()[:-1]]))}

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_id").reset_index(drop=True)
        rank = offs[int(df["bucket"].iloc[0])] + np.arange(len(df))
        gen = rank // max_docs + 1
        return pd.DataFrame({"event_id": df["event_id"], "gen": gen})

    placed = (ks.groupby("bucket").map_groups(assign, batch_format="pandas")
              .to_pandas())
    g = placed.groupby("gen").agg(
        docs=("event_id", "size"), min_id=("event_id", "min"),
        max_id=("event_id", "max")).reset_index()
    g["backing_index"] = g["gen"].map(lambda x: f".ds-events-{int(x):06d}")
    for c in ("docs", "min_id", "max_id"):
        g[c] = g[c].astype("int64")
    g = g.sort_values("gen").reset_index(drop=True)
    return g[["backing_index", "docs", "min_id", "max_id"]]


def ingest_enrich(sf_dir: str):
    """enrich processor (x-pack enrich, match policy: EnrichProcessorFactory
    + the enrich lookup index): events gain the matching customer's
    mktsegment by user_id. The enrich index is the SMALL side — broadcast
    once via ray.put, probed per batch with a vectorized searchsorted —
    never a shuffle join; output is the enriched stream rolled up to
    (event_type, mktsegment) counts."""
    import ray

    import pyarrow.dataset as pads

    cust = (pads.dataset(os.path.join(sf_dir, "customer.parquet"))
            .to_table(columns=["c_custkey", "c_mktsegment"]).to_pandas()
            .sort_values("c_custkey"))
    keys = cust["c_custkey"].to_numpy()
    segs = cust["c_mktsegment"].to_numpy()
    side = ray.put((keys, segs))

    def enrich(t: pa.Table) -> pa.Table:
        k, s = ray.get(side)
        u = t["user_id"].to_numpy()
        pos = np.searchsorted(k, u)
        pos_c = np.minimum(pos, len(k) - 1)
        hit = k[pos_c] == u
        seg = np.where(hit, s[pos_c], "_missing_")
        df = pd.DataFrame({"event_type": t["event_type"].to_pylist(),
                           "mktsegment": seg})
        g = df.groupby(["event_type", "mktsegment"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False)

    parts = (_ds(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(enrich, batch_format="pyarrow").to_pandas())
    out = (parts.groupby(["event_type", "mktsegment"], as_index=False)
           .sum().sort_values(["event_type", "mktsegment"])
           .reset_index(drop=True))
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "mktsegment", "n"]]


def sql_query(sf_dir: str):
    """_sql API (x-pack sql RestSqlQueryAction: SQL compiled to a pushed-
    down physical plan): the translator (functions/sql.py) plans SELECT /
    WHERE / ORDER BY / LIMIT onto the Dataset API — projection + predicate
    land in the parquet read itself, the sort is the Dataset's
    range-partitioned distributed sort, the limit streams. Oracle = the
    same SQL string run by DuckDB verbatim."""
    from ..functions.sql import run_sql

    sql = ("SELECT doc_id, lang, n_chars FROM documents "
           "WHERE lang = 'en' AND n_chars >= 400 "
           "ORDER BY n_chars DESC, doc_id LIMIT 20")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def training_shuffle(sf_dir: str):
    """Deterministic epoch shuffle (the reproducible analog of
    ds.random_shuffle for training-data epochs): global order = Knuth
    multiplicative hash of (doc_id, epoch-seed), realized by the Dataset's
    DISTRIBUTED range-partitioned sort — no driver materialization; emits
    the first 15 docs of epochs 1 and 2 with their positions. Different
    epochs produce different permutations; reruns are bit-identical."""
    frames = []
    for epoch in (1, 2):
        def hashed(t: pa.Table, _e=epoch) -> pa.Table:
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            h = ((ids + np.uint64(_e) * np.uint64(40503))
                 * np.uint64(2654435761)) % np.uint64(1 << 32)
            return t.append_column("h", pa.array(h.astype(np.int64)))

        head = (_ds(sf_dir, "documents", ["doc_id"])
                .map_batches(hashed, batch_format="pyarrow")
                .sort(key=["h", "doc_id"]).limit(15).to_pandas())
        head["epoch"] = epoch
        head["pos"] = np.arange(1, len(head) + 1)
        frames.append(head)
    out = pd.concat(frames, ignore_index=True)
    for c in ("doc_id", "epoch", "pos"):
        out[c] = out[c].astype("int64")
    return out[["epoch", "pos", "doc_id"]]


def agg_geo_line(sf_dir: str):
    """geo_line agg (x-pack spatial GeoLineAggregationBuilder: per bucket,
    the track of points ordered by a sort field): per-user path over the
    first 5 events by (ts, event_id), points synthesized deterministically
    from event_id (same rule as the sort-geo oracle family). ONE
    groupby(user).map_groups; each group sorts locally and joins its own
    track string — the exchange carries events once."""
    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"]).head(5)
        eid = df["event_id"].to_numpy()
        lat = ((eid * 7919) % 180) - 90 + 0.5
        lon = ((eid * 104729) % 360) - 180 + 0.5
        pts = " ".join(f"{lo:.1f},{la:.1f}" for lo, la in zip(lon, lat))
        return pd.DataFrame({"user_id": [int(df["user_id"].iloc[0])],
                             "n_points": [len(df)], "line": [pts]})

    out = (_ds(sf_dir, "events", ["user_id", "event_id", "ts"])
           .groupby("user_id").map_groups(per_user, batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    out["user_id"] = out["user_id"].astype("int64")
    out["n_points"] = out["n_points"].astype("int64")
    return out[["user_id", "n_points", "line"]]


def agg_t_test(sf_dir: str):
    """t_test agg (x-pack analytics TTestAggregationBuilder, type=
    heteroscedastic / Welch): n_chars of lang='en' vs the rest. Per-batch
    integer partials (n, sum, sum-of-squares per side) merge exactly on
    the driver; mean/variance/t are derived from the integer sums with
    the same literal expressions as the SQL twin, so the doubles agree
    bit-for-bit before the 6 dp snap."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["en"] = (df["lang"] == "en").astype(np.int64)
        x = df["n_chars"].to_numpy().astype(object)  # python ints, no ovf
        g = df.assign(s=x, ss=x * x).groupby("en", as_index=False).agg(
            n=("s", "size"), s=("s", "sum"), ss=("ss", "sum"))
        g["s"] = g["s"].astype(np.int64)
        g["ss"] = g["ss"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["lang", "n_chars"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    m = parts.groupby("en").sum()

    def side(e):
        n = float(m.loc[e, "n"])
        mean = m.loc[e, "s"] / n
        var = (m.loc[e, "ss"] - n * mean * mean) / (n - 1.0)
        return n, mean, var

    n1, m1, v1 = side(1)
    n0, m0, v0 = side(0)
    t_stat = (m1 - m0) / np.sqrt(v1 / n1 + v0 / n0)
    return pd.DataFrame({
        "n_en": pd.array([int(n1)], dtype="int64"),
        "n_other": pd.array([int(n0)], dtype="int64"),
        "mean_en": [float(round_half_away(m1, 6))],
        "mean_other": [float(round_half_away(m0, 6))],
        "t_stat": [float(round_half_away(t_stat, 6))],
    })


def ft_runtime_field(sf_dir: str):
    """Runtime fields (mapper/RuntimeField + search-request
    runtime_mappings, 7.11 server): `cpt = n_chars / ntok` is computed at
    QUERY time by the sandboxed script evaluator (scripting.safe_eval_expr
    — no stored column), then range-filtered (cpt >= 5.8) and sorted on.
    Vectorized per batch: the script env binds whole numpy columns."""
    import re

    from ..scripting import safe_eval_expr

    pat = re.compile(r"[^a-z0-9]+")
    src = "n_chars / ntok"

    def runtime(t: pa.Table) -> pa.Table:
        ntok = np.array(
            [max(1, sum(1 for w in pat.split(s.lower()) if w))
             for s in t["text"].to_pylist()], dtype=np.float64)
        env = {"n_chars": t["n_chars"].to_numpy().astype(np.float64),
               "ntok": ntok}
        cpt = np.asarray(safe_eval_expr(src, env), np.float64)
        keep = cpt >= 5.8
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy()[keep]),
            "cpt": pa.array(round_half_away(cpt[keep], 6)),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text", "n_chars"])
           .map_batches(runtime, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["cpt", "doc_id"],
                          ascending=[False, True]).head(20)
    return out.reset_index(drop=True)[["doc_id", "cpt"]]


def ft_sparse_vector(sf_dir: str):
    """sparse_vector / text_expansion-style query (the ELSER retrieval
    shape; rank_features scoring with query-side weights): score =
    sum over query terms of weight * tf(term, doc). Vectorized per batch
    from the token stream; query weights broadcast in the closure."""
    import re

    w = {"data": 3.0, "query": 2.0, "merge": 1.5, "slow": 1.0}
    pat = re.compile(r"[^a-z0-9]+")

    def score(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_numpy()
        sc = np.zeros(len(texts))
        for i, s in enumerate(texts):
            toks = [x for x in pat.split(s.lower()) if x]
            acc = 0.0
            for term, wt in w.items():
                c = toks.count(term)
                if c:
                    acc += wt * c
            sc[i] = acc
        keep = sc > 0
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "score": pa.array(sc[keep])})

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(score, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["score", "doc_id"],
                          ascending=[False, True]).head(15)
    out["score"] = round_half_away(out["score"], 4)
    return out.reset_index(drop=True)[["doc_id", "score"]]


def agg_moving_percentiles(sf_dir: str):
    """moving_percentiles pipeline agg (x-pack: sliding-window percentile
    merge over a date_histogram): the 7-day moving median of daily event
    VALUES distributions — windows merge per-day value-count partials
    (the exact analog of merging the reference's t-digests), never raw
    rows. Daily integer value-counts come from ONE groupby; the driver
    slides over the tiny (day x distinct-value) table."""
    from ray.data.aggregate import Count

    def day_val(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        v = pc.cast(pc.floor(t["value"]), pa.int64())
        return pa.table({"day": d, "v": v})

    vc = (_ds(sf_dir, "events", ["ts", "value"])
          .map_batches(day_val, batch_format="pyarrow")
          .groupby(["day", "v"]).aggregate(Count(alias_name="c"))
          .to_pandas().sort_values(["day", "v"]).reset_index(drop=True))
    days = sorted(vc["day"].unique())
    rows = []
    for i, d in enumerate(days):
        lo = days[max(0, i - 6)]
        win = vc[(vc["day"] >= lo) & (vc["day"] <= d)]
        g = win.groupby("v", as_index=False)["c"].sum().sort_values("v")
        n = int(g["c"].sum())
        cum = g["c"].cumsum().to_numpy()
        vals = g["v"].to_numpy()
        # exact median: avg of the two middle order statistics
        k1, k2 = (n + 1) // 2, (n + 2) // 2
        med = (float(vals[int(np.argmax(cum >= k1))])
               + float(vals[int(np.argmax(cum >= k2))])) / 2.0
        rows.append({"bucket": pd.Timestamp(d, unit="us"), "n": n,
                     "moving_median": med})
    out = pd.DataFrame(rows)
    out["n"] = out["n"].astype("int64")
    return out[["bucket", "n", "moving_median"]]


def _ccs_searcher(sf_dir: str):
    from ..search.multi import CrossClusterSearcher

    m = _multi_index_searcher(sf_dir)
    return CrossClusterSearcher(
        {"(local)": m, "remote1": m, "remote2": None},
        skip_unavailable={"remote2"})


def ccs_search(sf_dir: str):
    """Cross-cluster search (TransportSearchAction CCS +
    RemoteClusterService): `docs-en,remote1:docs-*,remote2:docs-*` — the
    local hit set plus remote1's two indices under cluster-qualified
    names; remote2 is down and registered skip_unavailable so the search
    succeeds without it. Every index scores with its own stats."""
    hits, _ = _ccs_searcher(sf_dir).search_all(
        "docs-en,remote1:docs-*,remote2:docs-*",
        {"kind": "term", "term": "data"})
    sc = round_half_away(hits["score"].to_numpy(), 4)
    out = pd.DataFrame({"index": hits["index"].to_pylist(),
                        "doc_id": hits["doc_id"].to_numpy(),
                        "score": sc})
    return out.sort_values(["index", "doc_id"]).reset_index(drop=True)


def ccs_clusters(sf_dir: str):
    """The `_clusters` response section of the same CCS request
    (SearchResponse.Clusters): total / successful / skipped plus the
    cross-cluster hit count."""
    hits, summary = _ccs_searcher(sf_dir).search_all(
        "docs-en,remote1:docs-*,remote2:docs-*",
        {"kind": "term", "term": "data"})
    return pd.DataFrame({
        "total": pd.array([summary["total"]], dtype="int64"),
        "successful": pd.array([summary["successful"]], dtype="int64"),
        "skipped": pd.array([summary["skipped"]], dtype="int64"),
        "hits": pd.array([len(hits)], dtype="int64"),
    })


def async_search(sf_dir: str):
    """_async_search lifecycle (x-pack RestSubmitAsyncSearchAction /
    GetAsyncSearchAction / DeleteAsyncSearchAction): submit returns an id;
    poll 1 sees the first shard's partial hits with is_running=1; poll 2
    completes; delete then 404s. Shards are doc_id ranges — on a cluster
    each chunk is one search actor's response arriving."""
    from ..search.async_search import AsyncSearchMissing, AsyncSearchRegistry

    reg = AsyncSearchRegistry(n_shards=2)
    s = documents_searcher(sf_dir)
    sid = reg.submit(s, {"kind": "term", "term": "data"})
    rows = []
    for phase in (1, 2):
        r = reg.get(sid)
        rows.append({"phase": phase, "is_running": int(r["is_running"]),
                     "hits": r["hits"], "found": 1})
    reg.delete(sid)
    try:
        reg.get(sid)
        found = 1
    except AsyncSearchMissing:
        found = 0
    rows.append({"phase": 3, "is_running": 0, "hits": -1, "found": found})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out[["phase", "is_running", "hits", "found"]]


def agg_variable_width_histogram(sf_dir: str):
    """variable_width_histogram agg (server
    VariableWidthHistogramAggregationBuilder, 7.9: per-shard clustering
    merged to `buckets` centroids): the engine computes it from the EXACT
    value-count exchange (groupby n_chars -> counts; the clustering runs
    on the tiny distinct-value table, weighted by counts) with
    deterministic quantile seeding + Lloyd iterations — partition-
    invariant by construction, unlike the reference's collection-order-
    sensitive shard caches (documented divergence). Rows-only gate
    (iterative); pinned by the serial-twin test."""
    from ray.data.aggregate import Count

    k = 6
    vc = (_ds(sf_dir, "documents", ["n_chars"])
          .groupby("n_chars").aggregate(Count(alias_name="c")).to_pandas()
          .sort_values("n_chars").reset_index(drop=True))
    vals = vc["n_chars"].to_numpy().astype(np.float64)
    wts = vc["c"].to_numpy().astype(np.float64)
    n = wts.sum()
    cum = np.cumsum(wts)
    # quantile seeds (deterministic)
    seeds = [float(vals[int(np.argmax(cum >= np.ceil((i + 0.5) / k * n)))])
             for i in range(k)]
    cent = np.array(seeds)
    for _ in range(10):
        a = np.argmin(np.abs(vals[:, None] - cent[None, :]), axis=1)
        for j in range(k):
            m = a == j
            if m.any():
                cent[j] = (vals[m] * wts[m]).sum() / wts[m].sum()
    a = np.argmin(np.abs(vals[:, None] - cent[None, :]), axis=1)
    rows = []
    for j in range(k):
        m = a == j
        if not m.any():
            continue
        rows.append({
            "b_min": int(vals[m].min()), "b_max": int(vals[m].max()),
            "doc_count": int(wts[m].sum()),
            "centroid": float(round_half_away(
                (vals[m] * wts[m]).sum() / wts[m].sum(), 4)),
        })
    out = pd.DataFrame(rows).sort_values("b_min").reset_index(drop=True)
    for c in ("b_min", "b_max", "doc_count"):
        out[c] = out[c].astype("int64")
    return out[["b_min", "b_max", "doc_count", "centroid"]]


def ft_analyze_offsets(sf_dir: str):
    """_analyze with explain=true (RestAnalyzeAction + AnalyzeResponse
    token detail: start_offset / end_offset / position, the offsets the
    highlighters consume): the first 10 tokens of doc 0's text through an
    offset-tracking tokenizer pass (regex finditer — real character
    offsets, not recomputed from lengths)."""
    import re

    import pyarrow.compute as pc

    t = (_ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") == 0).take_all())
    text = t[0]["text"]
    rows = []
    for pos, m in enumerate(re.finditer(r"[a-z0-9]+", text.lower())):
        if pos >= 10:
            break
        rows.append({"position": pos, "token": m.group(),
                     "start_offset": m.start(), "end_offset": m.end()})
    out = pd.DataFrame(rows)
    for c in ("position", "start_offset", "end_offset"):
        out[c] = out[c].astype("int64")
    return out[["position", "token", "start_offset", "end_offset"]]


def decontaminate_exact(sf_dir: str):
    """Exact n-gram decontamination (the benchmark-overlap scrub: flag any
    training doc sharing a word 4-gram with the eval set — the exact
    counterpart of decontaminate_bloom): the eval set (docs 0-4) is tiny,
    so its 8-gram hash set broadcasts via ray.put and each batch probes it
    vectorized; the exchange carries only flagged (doc_id, n_overlap)
    rows. GPT-3-appendix-style exact matching, no false positives."""
    import re

    import pyarrow.compute as pc
    import ray

    n = 4
    pat = re.compile(r"[^a-z0-9]+")

    def grams(text: str) -> set:
        toks = [t for t in pat.split(text.lower()) if t]
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    bench = (_ds(sf_dir, "documents", ["doc_id", "text"],
                 flt=pc.field("doc_id") < 5).take_all())
    bench_grams = set()
    for r in bench:
        bench_grams |= grams(r["text"])
    side = ray.put(bench_grams)

    def flag(t: pa.Table) -> pa.Table:
        bg = ray.get(side)
        ids = t["doc_id"].to_numpy()
        out_ids, out_n = [], []
        for i, s in enumerate(t["text"].to_pylist()):
            if ids[i] < 5:
                continue  # the eval set itself is not scrubbed
            k = len(grams(s) & bg)
            if k:
                out_ids.append(int(ids[i]))
                out_n.append(k)
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "n_overlap": pa.array(out_n, pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(flag, batch_format="pyarrow").to_pandas())
    if out.empty:
        out = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                            "n_overlap": pd.array([], dtype="int64")})
    return out.sort_values("doc_id").reset_index(drop=True)


def reindex_sliced(sf_dir: str):
    """Sliced reindex (modules/reindex + SliceBuilder: slices=4 partitions
    the source so workers copy disjoint id sets in parallel): per-slice
    doc count and id checksum of the copy — the resumable-output unit at
    scale (one output dir per slice). Slice assignment is vectorized per
    batch; the exchange carries 4 partial rows per block."""
    n_slices = 4

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        df = pd.DataFrame({"slice": (ids % n_slices).astype(np.int64),
                           "doc_id": ids})
        g = df.groupby("slice", as_index=False).agg(
            docs=("doc_id", "size"), id_sum=("doc_id", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["doc_id"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = (parts.groupby("slice", as_index=False).sum()
           .sort_values("slice").reset_index(drop=True))
    for c in ("slice", "docs", "id_sum"):
        out[c] = out[c].astype("int64")
    return out[["slice", "docs", "id_sum"]]


def ft_hybrid_linear(sf_dir: str):
    """Linear-combination hybrid retrieval (the 8.x `linear` retriever /
    compound retriever tree: score = w_text * minmax(bm25) + w_vec *
    minmax(cosine) over the joint candidate set): BM25 side from the
    actor-served index, vector side a broadcast-query cosine scan;
    min-max bounds come from the joined candidates (docs holding both a
    hit and an embedding), exactly as the reference normalizer defines
    them."""
    import pyarrow.dataset as pads
    import ray

    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "term", "term": "data"})
    bm = pd.DataFrame({"doc_id": ids.astype(np.int64),
                       "bm25": sc.astype(np.float64)})

    t = _qvecs(sf_dir, 1)
    q = np.asarray(t["embedding"].to_pylist()[0], np.float64)
    q = q / np.sqrt((q * q).sum())
    q_ref = ray.put(q)

    def cos(tb: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        if len(tb) == 0:  # zero-row block
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        V = np.stack(tb["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64)
        Vn = V / np.sqrt((V * V).sum(axis=1))[:, None]
        return pa.table({"doc_id": tb["vec_id"],
                         "cosine": pa.array(Vn @ qv, pa.float64())})

    ve = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"])
          .map_batches(cos, batch_format="pyarrow").to_pandas())
    j = bm.merge(ve, on="doc_id", how="inner")
    for col in ("bm25", "cosine"):
        lo, hi = j[col].min(), j[col].max()
        j[f"n_{col}"] = (j[col] - lo) / (hi - lo)
    j["score"] = round_half_away(
        0.7 * j["n_bm25"] + 0.3 * j["n_cosine"], 4)
    j = j.sort_values(["score", "doc_id"],
                      ascending=[False, True]).head(15)
    return j.reset_index(drop=True)[["doc_id", "score"]]


def agg_ip_prefix(sf_dir: str):
    """ip_prefix agg (server 8.x IpPrefixAggregationBuilder,
    prefix_length=16): events carry a synthetic IPv4 whose second octet
    is a Knuth hash of event_id mod 8 (the corpus has no ip column; same
    synthesis style as the geo family); buckets are /16 networks.
    Vectorized per-batch prefix keys -> tiny groupby."""
    def prefix(t: pa.Table) -> pa.Table:
        e = t["event_id"].to_numpy().astype(np.uint64)
        hi = ((e * np.uint64(2654435761)) % np.uint64(1 << 32)
              >> np.uint64(16)) % np.uint64(8)
        return pa.table({"prefix": pa.array(
            [f"10.{int(h)}.0.0/16" for h in hi])})

    from ray.data.aggregate import Count

    out = (_ds(sf_dir, "events", ["event_id"])
           .map_batches(prefix, batch_format="pyarrow")
           .groupby("prefix").aggregate(Count(alias_name="doc_count"))
           .to_pandas().sort_values("prefix").reset_index(drop=True))
    out["doc_count"] = out["doc_count"].astype("int64")
    return out[["prefix", "doc_count"]]


def agg_frequent_item_sets(sf_dir: str):
    """frequent_item_sets agg (x-pack ml FrequentItemSetsAggregationBuilder,
    eclat/apriori over per-entity item baskets): support of every
    event_type PAIR across user baskets. Scale shape: per-user 5-bit type
    bitmask folded inside ONE groupby (bit_or of per-batch partial masks);
    the exchange then carries at most 2^5 (mask, n_users) histogram rows,
    and pair supports expand from that tiny histogram on the driver —
    never a pairwise self-join of the raw stream."""
    types = ["click", "error", "purchase", "signup", "view"]
    bit = {t_: 1 << i for i, t_ in enumerate(types)}

    def mask(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["m"] = df["event_type"].map(bit).astype(np.int64)
        g = df.groupby("user_id", as_index=False)["m"].agg(
            lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import AggregateFn

    # bit_or fold of the per-batch partial masks, one row per user
    per_user = (_ds(sf_dir, "events", ["user_id", "event_type"])
                .map_batches(mask, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(AggregateFn(
                    init=lambda k: 0,
                    accumulate_row=lambda a, r: a | int(r["m"]),
                    merge=lambda a, b: a | b,
                    name="basket")).to_pandas())
    hist = per_user.groupby("basket").size()
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            need = bit[a] | bit[b]
            sup = int(sum(n for m, n in hist.items()
                          if (int(m) & need) == need))
            rows.append({"item_a": a, "item_b": b, "support": sup})
    out = pd.DataFrame(rows).sort_values(
        ["support", "item_a", "item_b"],
        ascending=[False, True, True]).reset_index(drop=True)
    out["support"] = out["support"].astype("int64")
    return out[["item_a", "item_b", "support"]]


def events_retention(sf_dir: str):
    """Cohort retention (the product-analytics rollup a training-data
    events pipeline feeds): users cohorted by first-activity day; retained
    = the user has any event exactly 7 days later. Scale shape: ONE
    groupby(user).map_groups computes (first_day, retained@7) per user —
    the exchange carries one row per user — then a tiny per-cohort
    rollup."""
    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        # floor to day but KEEP [us] precision: a datetime64[D] array would
        # force Arrow's lossy 'D'->'s' conversion warning on every group
        days = np.unique(df["ts"].to_numpy().astype("datetime64[D]")
                         .astype("datetime64[us]"))
        first = days.min()
        ret = int((days == first + np.timedelta64(7, "D")).any())
        return pd.DataFrame({"cohort": [first], "retained": [ret]})

    per = (_ds(sf_dir, "events", ["user_id", "ts"])
           .groupby("user_id").map_groups(per_user, batch_format="pandas")
           .to_pandas())
    g = per.groupby("cohort", as_index=False).agg(
        cohort_size=("retained", "size"), retained=("retained", "sum"))
    g["cohort"] = g["cohort"].astype("datetime64[us]")
    for c in ("cohort_size", "retained"):
        g[c] = g[c].astype("int64")
    return g.sort_values("cohort").reset_index(drop=True)[
        ["cohort", "cohort_size", "retained"]]


def rollup_search(sf_dir: str):
    """Rollup (x-pack rollup RollupJobConfig + RollupSearchAction): a
    rollup job pre-aggregates events into (day, event_type) docs carrying
    count + sum(value) — built with ONE distributed groupby over partial
    combiners — and rollup_search answers a date_histogram+sum query FROM
    the rollup index, never touching raw events again. The oracle runs
    the same query on the raw table, proving rollup equivalence (the
    reference's RollupResponseTranslator contract). value sums are
    cent-snapped integers so the rollup fold is order-invariant."""
    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        df = pd.DataFrame({
            "day": d.to_numpy(),
            "event_type": t["event_type"].to_pylist(),
            "cents": np.rint(t["value"].to_numpy() * 100).astype(np.int64),
        })
        g = df.groupby(["day", "event_type"], as_index=False).agg(
            doc_count=("cents", "size"), cents=("cents", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    rollup = (_ds(sf_dir, "events", ["ts", "event_type", "value"])
              .map_batches(partial, batch_format="pyarrow").to_pandas()
              .groupby(["day", "event_type"], as_index=False).sum())
    # rollup_search: daily totals for event_type='purchase' FROM the rollup
    q = rollup[rollup["event_type"] == "purchase"].sort_values("day")
    return pd.DataFrame({
        "bucket": pd.to_datetime(q["day"], unit="us"),
        "doc_count": q["doc_count"].astype("int64").to_numpy(),
        "sum_cents": q["cents"].astype("int64").to_numpy(),
    }).reset_index(drop=True)


def agg_random_sampler(sf_dir: str):
    """random_sampler agg (server 8.2 RandomSamplerAggregationBuilder:
    probability-sampled sub-aggregation with count scale-back): p = 1/8
    via the deterministic Knuth-hash draw (the engine's reproducible
    substitute for the reference's per-shard RNG, documented divergence),
    sub-agg = per-lang counts, reported scaled by 1/p. Sampling happens
    inside the scan — non-sampled rows never leave the read stage."""
    def sample(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.uint64)
        keep = ((ids * np.uint64(2654435761)) % np.uint64(1 << 32)
                % np.uint64(8)) == 0
        return pa.table({"lang": pa.array(
            np.asarray(t["lang"].to_pylist(), dtype=object)[keep])})

    from ray.data.aggregate import Count

    out = (_ds(sf_dir, "documents", ["doc_id", "lang"])
           .map_batches(sample, batch_format="pyarrow")
           .groupby("lang").aggregate(Count(alias_name="sampled"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    out["sampled"] = out["sampled"].astype("int64")
    out["scaled_count"] = (out["sampled"] * 8).astype("int64")
    return out[["lang", "sampled", "scaled_count"]]


def knn_rescore(sf_dir: str):
    """kNN oversample + rescore (8.x dense_vector rescore_vector
    oversample: quantized search retrieves k*oversample candidates, exact
    float vectors rescore the top-k): int8 candidates come from the
    quantized path, the float rerank touches ONLY the oversampled
    candidate ids (a point-read of oversample*k vectors per query).
    Rows-only (quantized recall is approximate by design); pinned by the
    recall-vs-bruteforce test."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    k, oversample = 5, 4
    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    cand = S.knn_scalar_quantized(
        _ds(sf_dir, "embeddings", ["vec_id", "embedding"]), Q,
        k=k * oversample)
    rows = []
    for qi in range(len(Q)):
        ids = cand[cand["query_id"] == qi]["vec_id"].to_numpy()
        sub = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"],
                   flt=pc.field("vec_id").isin(ids.tolist())).take_all())
        V = np.array([r["embedding"] for r in sub], dtype=np.float64)
        vids = np.array([r["vec_id"] for r in sub], dtype=np.int64)
        Vn = V / np.sqrt((V * V).sum(axis=1))[:, None]
        q = Q[qi].astype(np.float64)
        q = q / np.sqrt((q * q).sum())
        cs = Vn @ q
        order = np.lexsort((vids, -cs))[:k]
        for rank, j in enumerate(order, 1):
            rows.append({"query_id": qi, "vec_id": int(vids[j]),
                         "cosine": float(round_half_away(cs[j], 6)),
                         "rank": rank})
    out = pd.DataFrame(rows)
    for c in ("query_id", "vec_id", "rank"):
        out[c] = out[c].astype("int64")
    return out[["query_id", "vec_id", "cosine", "rank"]]


def semantic_search(sf_dir: str):
    """semantic_text / inference-at-ingest + kNN serve (the reference's
    semantic field pipeline with a STUB deterministic encoder — feature
    hashing — standing in for the model; the actor-pool plumbing, batch
    schema and broadcast-query top-k merge are the real pattern).
    Rows-only (the stub embedder has no SQL twin); pinned by the
    self-retrieval and determinism tests."""
    from ..functions.inference import semantic_search as _ss

    return _ss(_ds(sf_dir, "documents", ["doc_id", "text"]),
               "slow merge batch window", k=10)


def ingest_fingerprint(sf_dir: str):
    """fingerprint processor (ingest-common FingerprintProcessor, 8.x,
    method=MD5): hash of the delimiter-joined field values per event —
    the idempotency key a re-ingest pipeline dedups on. The fingerprint
    is a pure function of (user_id, event_type), so the distinct-count
    rollup reduces through ONE groupby over per-batch deduped pairs (the
    exchange carries pairs, not events); one golden MD5 proves the
    canonical form end-to-end."""
    import hashlib

    from ray.data.aggregate import Count

    def pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates(["user_id", "event_type"])
        return pa.Table.from_pandas(df, preserve_index=False)

    ded = (_ds(sf_dir, "events", ["user_id", "event_type"])
           .map_batches(pairs, batch_format="pyarrow")
           .groupby(["user_id", "event_type"])
           .aggregate(Count(alias_name="c")).to_pandas())
    g = (ded.groupby("event_type").size()
         .reset_index(name="distinct_fp")
         .sort_values("event_type").reset_index(drop=True))
    g["distinct_fp"] = g["distinct_fp"].astype("int64")
    g["sample_fp"] = hashlib.md5(b"0|click").hexdigest()
    return g[["event_type", "distinct_fp", "sample_fp"]]


def knn_similarity_threshold(sf_dir: str):
    """kNN `similarity` parameter (8.8 KnnSearchBuilder#similarity: prune
    every candidate whose RAW similarity falls below the threshold,
    BEFORE k-truncation): per-batch partial top-k keeps only cosine >=
    0.3 candidates; ranking and the threshold both use the unrounded
    similarity (rounding only at the response edge), matching the
    reference's float comparison."""
    import pyarrow.dataset as pads
    import ray

    k, thr = 5, 0.3
    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    Qn = Q / np.sqrt((Q * Q).sum(axis=1))[:, None]
    q_ref = ray.put(Qn)

    def partial(tb: pa.Table) -> pa.Table:
        Qm = ray.get(q_ref)
        ids = tb["vec_id"].to_numpy()
        if ids.size == 0:  # zero-row block
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        V = np.stack(tb["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64)
        Vn = V / np.sqrt((V * V).sum(axis=1))[:, None]
        S_ = Qm @ Vn.T
        qs, vs, cs = [], [], []
        for qi in range(S_.shape[0]):
            ok = np.flatnonzero(S_[qi] >= thr)
            if ok.size > k:  # per-batch partial top-k among qualifiers
                ok = ok[np.lexsort((ids[ok], -S_[qi][ok]))[:k]]
            qs.extend([qi] * ok.size)
            vs.extend(ids[ok].tolist())
            cs.extend(S_[qi][ok].tolist())
        return pa.table({"query_id": pa.array(qs, pa.int64()),
                         "vec_id": pa.array(vs, pa.int64()),
                         "cosine": pa.array(cs, pa.float64())})

    out = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(partial, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["query_id", "cosine", "vec_id"],
                          ascending=[True, False, True])
    out = out.groupby("query_id", as_index=False).head(k)
    out = out.reset_index(drop=True)
    out["cosine"] = round_half_away(out["cosine"], 6)
    return out[["query_id", "vec_id", "cosine"]]


def resolve_index(sf_dir: str):
    """_resolve/index (RestResolveIndexAction): one expression resolves to
    concrete indices, aliases and data streams with their attributes —
    probed from the REAL registries (the multi-index searcher's indices,
    its wildcard resolution, and the data-stream naming rule)."""
    m = _multi_index_searcher(sf_dir)
    rows = [{"name": n, "kind": "index", "attrs": "open"}
            for n in m.resolve("docs-*")]
    rows.append({"name": "events-stream", "kind": "data_stream",
                 "attrs": "backing:.ds-events-*"})
    out = pd.DataFrame(rows).sort_values(["kind", "name"])
    return out.reset_index(drop=True)[["name", "kind", "attrs"]]


def corpus_vocab_growth(sf_dir: str):
    """Vocabulary-growth curve (Heaps'-law corpus statistic — the scaling
    diagnostic for tokenizer/vocab sizing on a training corpus):
    cumulative distinct terms and cumulative tokens per 100-doc chunk.
    EXACT distributed shape: groupby(term).min(doc_id) — the exchange
    carries ONE row per distinct term (first occurrence), never the
    token stream — then the tiny per-chunk rollup cumsums on the driver."""
    import re

    from ray.data.aggregate import Min, Sum

    chunk_rows = 100
    pat = re.compile(r"[^a-z0-9]+")

    def explode(t: pa.Table) -> pa.Table:
        ids, terms = [], []
        ntok = []
        for d, s in zip(t["doc_id"].to_numpy(), t["text"].to_pylist()):
            toks = [w for w in pat.split(s.lower()) if w]
            ntok.append(len(toks))
            for w in set(toks):
                ids.append(int(d))
                terms.append(w)
        return pa.table({"term": pa.array(terms),
                         "doc_id": pa.array(ids, pa.int64())})

    first = (_ds(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(explode, batch_format="pyarrow")
             .groupby("term").aggregate(Min("doc_id", alias_name="fd"))
             .to_pandas())
    first["chunk"] = first["fd"] // chunk_rows
    new_terms = first.groupby("chunk").size()

    def toks(t: pa.Table) -> pa.Table:
        n = np.array([sum(1 for w in pat.split(s.lower()) if w)
                      for s in t["text"].to_pylist()], dtype=np.int64)
        return pa.table({"chunk": pa.array(
            t["doc_id"].to_numpy() // chunk_rows), "n": pa.array(n)})

    per_chunk = (_ds(sf_dir, "documents", ["doc_id", "text"])
                 .map_batches(toks, batch_format="pyarrow")
                 .groupby("chunk").aggregate(Sum("n", alias_name="tokens"))
                 .to_pandas().sort_values("chunk").reset_index(drop=True))
    per_chunk["cum_tokens"] = per_chunk["tokens"].cumsum()
    per_chunk["cum_vocab"] = np.cumsum(
        [int(new_terms.get(int(c), 0)) for c in per_chunk["chunk"]])
    for c in ("chunk", "tokens", "cum_tokens", "cum_vocab"):
        per_chunk[c] = per_chunk[c].astype("int64")
    return per_chunk[["chunk", "tokens", "cum_tokens", "cum_vocab"]]


def cluster_stats(sf_dir: str):
    """_cluster/stats (RestClusterStatsAction): indices count from the
    real multi-index registry, total docs and the distinct-term count of
    the main documents index (recomputed distributed: the term exchange
    carries one row per term), single-node topology constants."""
    import re

    m = _multi_index_searcher(sf_dir)
    n_indices = len(m.resolve("docs-*"))
    pat = re.compile(r"[^a-z0-9]+")

    def uniq(t: pa.Table) -> pa.Table:
        s = set()
        for x in t["text"].to_pylist():
            s.update(w for w in pat.split(x.lower()) if w)
        return pa.table({"term": pa.array(sorted(s))})

    from ray.data.aggregate import Count

    vocab = (_ds(sf_dir, "documents", ["text"])
             .map_batches(uniq, batch_format="pyarrow")
             .groupby("term").aggregate(Count(alias_name="c"))
             .count())
    docs = _ds(sf_dir, "documents", ["doc_id"]).count()
    return pd.DataFrame({
        "nodes": pd.array([1], dtype="int64"),
        "indices": pd.array([n_indices], dtype="int64"),
        "docs": pd.array([int(docs)], dtype="int64"),
        "distinct_terms": pd.array([int(vocab)], dtype="int64"),
    })


# ---------------- round-3 session-5: search/agg surface batch ----------------


def ft_pinned(sf_dir: str):
    """pinned query (x-pack search-business-rules PinnedQueryBuilder):
    the result set is the union of the pinned ids and the organic query's
    matches; pinned docs are flagged and always retained even when the
    organic query misses them. Organic = term 'merge' under exact64 BM25.
    Scale shape: one engine scan for the organic side; the pinned-id list
    is a tiny driver-side constant merged into the match table."""
    ids_pinned = np.array([3, 11, 41], dtype=np.int64)
    organic = all_matches(sf_dir, {"kind": "term", "term": "merge"}).to_pandas()
    extra = np.setdiff1d(ids_pinned, organic["doc_id"].to_numpy())
    out = pd.concat([organic,
                     pd.DataFrame({"doc_id": extra, "score": 0.0})],
                    ignore_index=True)
    out["pinned"] = np.isin(out["doc_id"].to_numpy(), ids_pinned).astype("int64")
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "pinned", "score"]])


def ft_combined_fields(sf_dir: str):
    """combined_fields query (CombinedFieldQuery, Lucene 8.9 / ES 7.13):
    term-centric BM25 over (text, source) as ONE combined field — tf is
    summed across fields, dl is the combined length, df counts docs where
    the term appears in EITHER field. Scale shape: pass 1 exchanges 3
    scalar partials (n, sum_dl, df) per batch; pass 2 scores matching
    docs vectorized with the broadcast stats. No shuffle."""
    import re

    pat = re.compile(r"[^a-z0-9]+")
    term = "data"

    def tok_counts(t: pa.Table):
        texts = t["text"].to_pylist()
        srcs = t["source"].to_pylist()
        tf = np.empty(len(texts), dtype=np.int64)
        dl = np.empty(len(texts), dtype=np.int64)
        for i, (a, b) in enumerate(zip(texts, srcs)):
            toks = [w for w in pat.split((a + " " + b).lower()) if w]
            dl[i] = len(toks)
            tf[i] = sum(1 for w in toks if w == term)
        return tf, dl

    def stats_partial(t: pa.Table) -> pa.Table:
        tf, dl = tok_counts(t)
        return pa.table({"n": pa.array([len(tf)], pa.int64()),
                         "sumdl": pa.array([int(dl.sum())], pa.int64()),
                         "df": pa.array([int((tf > 0).sum())], pa.int64())})

    cols = ["doc_id", "text", "source"]
    st = (_ds(sf_dir, "documents", cols)
          .map_batches(stats_partial, batch_format="pyarrow").to_pandas().sum())
    n, sumdl, df = float(st["n"]), float(st["sumdl"]), float(st["df"])
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score(t: pa.Table) -> pa.Table:
        tf, dl = tok_counts(t)
        m = tf > 0
        tfm = tf[m].astype(np.float64)
        s = (idf * 2.2 * tfm
             / (tfm + 1.2 * (0.25 + 0.75 * dl[m] * n / sumdl)))
        return pa.table({"doc_id": t["doc_id"].to_numpy()[m],
                         "score": pa.array(s)})

    from ..utils import round_half_away as rha

    out = (_ds(sf_dir, "documents", cols)
           .map_batches(score, batch_format="pyarrow").to_pandas())
    out["score"] = rha(out["score"].to_numpy(), 4)
    return out.sort_values("doc_id").reset_index(drop=True)


def agg_categorize_text(sf_dir: str):
    """categorize_text agg (x-pack ml CategorizeTextAggregationBuilder):
    log messages are grouped by their token pattern with numeric tokens
    wildcarded. Messages are synthesized deterministically from events;
    category = digits -> '#'. Scale shape: per-batch vectorized regex +
    partial groupby, tiny (categories) final merge."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        msg = (df["event_type"] + " user " + df["user_id"].astype(str)
               + " took " + np.floor(df["value"]).astype("int64").astype(str)
               + " ms")
        cat = msg.str.replace(r"[0-9]+", "#", regex=True)
        g = cat.groupby(cat).size()
        return pa.table({"category": g.index.to_numpy(),
                         "doc_count": g.to_numpy().astype(np.int64)})

    from ray.data.aggregate import Sum

    out = (_ds(sf_dir, "events", ["event_type", "user_id", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("category").aggregate(Sum("doc_count", alias_name="doc_count"))
           .to_pandas())
    return (out.sort_values(["doc_count", "category"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def agg_change_point(sf_dir: str):
    """change_point agg (x-pack ml ChangePointAggregationBuilder, simplified
    to the CUSUM mean-shift statistic): over the daily event-count series,
    the change point is the day with the max |cumsum(c - mean)|. Scale
    shape: per-batch partial (day, count) groupby -> tiny day table on the
    driver; the series itself is bucket-cardinality, not row-cardinality."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = df["ts"].dt.floor("D")
        g = day.groupby(day).size()
        return pa.table({"day": g.index.to_numpy(),
                         "c": g.to_numpy().astype(np.int64)})

    from ray.data.aggregate import Sum

    d = (_ds(sf_dir, "events", ["ts"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("day").aggregate(Sum("c", alias_name="c")).to_pandas()
         .sort_values("day").reset_index(drop=True))
    mean = float(d["c"].sum()) / len(d)
    cu = np.cumsum(d["c"].to_numpy().astype(np.float64) - mean)
    i = int(np.argmax(np.abs(cu)))
    return pd.DataFrame({
        "change_day": [d["day"].iloc[i]],
        "stat": [float(round_half_away(np.array([abs(cu[i])]), 4)[0])],
        "n_days": pd.array([len(d)], dtype="int64"),
    })


def search_mvt(sf_dir: str):
    """_mvt vector-tile search (RestVectorTileAction): per web-mercator
    tile at zoom 3, the hits layer's doc_count plus centroid-style
    aggs (avg lat/lon). Same GeoTileUtils cell math as geotile_grid.
    Scale shape: map_batches tile-id + groupby Sum/Count — one shuffle
    of (cells) cardinality."""
    from ray.data.aggregate import Count, Sum

    z, n = 3, 8

    def tile(t: pa.Table) -> pa.Table:
        lat = t["lat"].to_numpy()
        lon = t["lon"].to_numpy()
        x = np.clip(np.floor((lon + 180.0) / 360.0 * n).astype(np.int64), 0, n - 1)
        latr = np.radians(np.clip(lat, -85.05112878, 85.05112878))
        y = np.clip(np.floor(
            (1.0 - np.arcsinh(np.tan(latr)) / np.pi) / 2.0 * n).astype(np.int64),
            0, n - 1)
        cell = [f"{z}/{xi}/{yi}" for xi, yi in zip(x, y)]
        return pa.table({"cell": pa.array(cell, pa.string()),
                         "lat": t["lat"], "lon": t["lon"]})

    out = (_users_geo(sf_dir).map_batches(tile, batch_format="pyarrow")
           .groupby("cell")
           .aggregate(Count(alias_name="doc_count"),
                      Sum("lat", alias_name="slat"),
                      Sum("lon", alias_name="slon"))
           .to_pandas())
    out["avg_lat"] = round_half_away(
        (out["slat"] / out["doc_count"]).to_numpy(), 4)
    out["avg_lon"] = round_half_away(
        (out["slon"] / out["doc_count"]).to_numpy(), 4)
    return (out.sort_values("cell").reset_index(drop=True)
            [["cell", "doc_count", "avg_lat", "avg_lon"]])


def ilm_explain(sf_dir: str):
    """ILM explain (x-pack ilm TransportExplainLifecycleAction): one
    time-partitioned index per event day; phase from index age vs the
    policy's min_age thresholds (hot<=2d, warm<=7d, cold<=14d, delete),
    rollover flag when docs exceed the day-average. Scale shape: partial
    per-batch day counts; the index table is day-cardinality."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = df["ts"].dt.floor("D")
        g = day.groupby(day).size()
        return pa.table({"day": g.index.to_numpy(),
                         "docs": g.to_numpy().astype(np.int64)})

    from ray.data.aggregate import Sum

    d = (_ds(sf_dir, "events", ["ts"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("day").aggregate(Sum("docs", alias_name="docs")).to_pandas()
         .sort_values("day").reset_index(drop=True))
    mx = d["day"].max()
    age = (mx - d["day"]).dt.days.to_numpy()
    phase = np.where(age <= 2, "hot",
                     np.where(age <= 7, "warm",
                              np.where(age <= 14, "cold", "delete")))
    avg = float(d["docs"].sum()) / len(d)
    return pd.DataFrame({
        "index_name": "events-" + d["day"].dt.strftime("%Y.%m.%d"),
        "age_days": pd.array(age, dtype="int64"),
        "phase": phase,
        "docs": d["docs"].astype("int64"),
        "rollover": pd.array((d["docs"].to_numpy() > avg).astype("int64"),
                             dtype="int64"),
    })


def ilm_phase_actions(sf_dir: str):
    """ILM phase STATE MACHINE explain (x-pack ilm LifecyclePolicy /
    TransportExplainLifecycleAction — beyond ilm_explain's phase
    classification): each phase runs an ORDERED action list (hot:
    rollover; warm: readonly -> shrink -> forcemerge; cold: freeze;
    delete: wait_for_snapshot -> delete) and explain reports the
    in-flight (phase, action, step) per index, `complete` past the
    list (PhaseCompleteStep). Actions are real index ops — see
    index/ilm.py execute_phase + tests/test_ilm.py search-parity.
    Day-cardinality index table via per-batch partial counts."""
    from ..index.ilm import explain_index

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        day = df["ts"].dt.floor("D")
        g = day.groupby(day).size()
        return pa.table({"day": g.index.to_numpy(),
                         "docs": g.to_numpy().astype(np.int64)})

    from ray.data.aggregate import Sum

    d = (_ds(sf_dir, "events", ["ts"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("day").aggregate(Sum("docs", alias_name="docs"))
         .to_pandas().sort_values("day").reset_index(drop=True))
    mx = d["day"].max()
    age = (mx - d["day"]).dt.days.to_numpy()
    ex = [explain_index(int(a)) for a in age]  # day-cardinality frame
    return pd.DataFrame({
        "index_name": "events-" + d["day"].dt.strftime("%Y.%m.%d"),
        "age_days": pd.array(age, dtype="int64"),
        "phase": [e["phase"] for e in ex],
        "action": [e["action"] for e in ex],
        "step": [e["step"] for e in ex],
    })


def graph_explore(sf_dir: str):
    """Graph explore API (x-pack graph TransportGraphExploreAction):
    seed term 'data' -> vertices are the co-occurring terms ranked by the
    number of seed docs they appear in (doc-distinct), with the overlap/df
    affinity weight. Scale shape: per-batch doc-distinct term counts with
    the seed docs as foreground -> (vocab)-cardinality groupby; the
    seed-doc test is evaluated inside the batch, never joined."""
    seed = "data"
    out = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple,
                      distinct=True, fg=_has_term(seed)).rename(
        columns={"cnt": "df", "fg": "overlap"})
    out = out[(out["term"] != seed) & (out["overlap"] > 0)]
    out["weight"] = round_half_away(
        (out["overlap"] / out["df"]).to_numpy().astype(np.float64), 4)
    out = (out.sort_values(["overlap", "term"], ascending=[False, True])
           .head(8).reset_index(drop=True))
    return out[["term", "overlap", "df", "weight"]]


def ft_version_field(sf_dir: str):
    """version field type (x-pack VersionStringFieldMapper): semver-aware
    ordering — numeric components compare numerically and a release sorts
    ABOVE its prereleases. Versions derived deterministically from part;
    top 20 by version desc (tie p_partkey asc). Scale shape: per-batch
    partial top-k on the decomposed sort key, driver merges (blocks x 20)."""
    def keyed(t: pa.Table) -> pa.Table:
        pk = t["p_partkey"].to_numpy()
        sz = t["p_size"].to_numpy().astype(np.int64)
        major = sz % 5
        minor = pk % 12
        patch = pk % 23
        pre = (pk % 4 == 0).astype(np.int64)  # 1 -> '-rc<pk%3>' prerelease
        rc = pk % 3
        ver = np.char.add(
            np.char.add(np.char.add(major.astype(str), "."),
                        np.char.add(minor.astype(str), ".")),
            patch.astype(str))
        ver = np.where(pre == 1,
                       np.char.add(np.char.add(ver, "-rc"), rc.astype(str)),
                       ver)
        df = pd.DataFrame({"p_partkey": pk, "version": ver, "major": major,
                           "minor": minor, "patch": patch,
                           "rel": 1 - pre, "rc": rc})
        df = df.sort_values(["major", "minor", "patch", "rel", "rc", "p_partkey"],
                            ascending=[False, False, False, False, False, True])
        return pa.Table.from_pandas(df.head(20), preserve_index=False)

    out = (_ds(sf_dir, "part", ["p_partkey", "p_size"])
           .map_batches(keyed, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["major", "minor", "patch", "rel", "rc", "p_partkey"],
                          ascending=[False, False, False, False, False, True]).head(20)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out.reset_index(drop=True)[["rank", "p_partkey", "version"]]


def agg_time_series(sf_dir: str):
    """time_series agg (TSDB TimeSeriesAggregationBuilder): buckets keyed
    on the dimension tuple (event_type, host) x daily downsample window,
    with count + sum(value). Scale shape: per-batch partial groupby on
    the (dims x days) key — the canonical TSDB downsample combiner."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["host"] = (df["user_id"] % 4).astype("int64")
        df["day"] = df["ts"].dt.floor("D")
        g = df.groupby(["event_type", "host", "day"], as_index=False).agg(
            doc_count=("value", "size"), sv=("value", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (_ds(sf_dir, "events", ["event_type", "user_id", "ts", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["event_type", "host", "day"])
           .aggregate(Sum("doc_count", alias_name="doc_count"),
                      Sum("sv", alias_name="sv"))
           .to_pandas())
    out["sum_value"] = round_half_away(out["sv"].to_numpy(), 4)
    return (out.sort_values(["event_type", "host", "day"])
            .reset_index(drop=True)
            [["event_type", "host", "day", "doc_count", "sum_value"]])


def flattened_query(sf_dir: str):
    """flattened field type (server FlattenedFieldMapper): query into an
    arbitrary-keyed JSON object column without pre-mapping — filter
    props.k >= 90, then count + max(k) per event_type. Scale shape:
    vectorized regex extraction per batch, partial groupby, tiny merge."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        k = df["props"].str.extract(r'"k":\s*(\d+)')[0].astype("int64")
        df = df[k >= 90].assign(k=k[k >= 90])
        if df.empty:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "doc_count": pa.array([], pa.int64()),
                             "max_k": pa.array([], pa.int64())})
        g = df.groupby("event_type", as_index=False).agg(
            doc_count=("k", "size"), max_k=("k", "max"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max, Sum

    out = (_ds(sf_dir, "events", ["event_type", "props"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("doc_count", alias_name="doc_count"),
                      Max("max_k", alias_name="max_k"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    out["max_k"] = out["max_k"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


# ---------------- round-3 session-5: ES|QL, field types, training batch ----


def esql_query(sf_dir: str):
    """_query API / ES|QL (x-pack esql, 8.11): piped query language lowered
    onto Ray Data — FROM events | WHERE | EVAL | STATS..BY | SORT. Scale
    shape: pruned read, vectorized pc predicate + arithmetic, per-batch
    partial STATS combiner, group-cardinality driver merge."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE value >= 10 AND event_type != "error"
        | EVAL v2 = value * 2
        | STATS cnt = COUNT(*), sv = SUM(v2), mx = MAX(value) BY event_type
        | SORT event_type
    ''')
    out["sv"] = round_half_away(out["sv"].to_numpy(), 2)
    return out


def agg_aggregate_metric(sf_dir: str):
    """aggregate_metric_double field type (AggregateDoubleMetricFieldMapper):
    pre-aggregated rollup rows (min/max/sum/value_count per user) queried
    by a metric agg that combines the sub-metrics — min of mins, max of
    maxes, sum of sums, total value_count, and avg = sum/value_count.
    Scale shape: per-batch partial per-user rollup, (users) groupby, then
    a scalar combine; the raw rows are touched exactly once."""
    def rollup(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("user_id", as_index=False).agg(
            mn=("value", "min"), mx=("value", "max"),
            s=("value", "sum"), c=("value", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Count, Max, Min, Sum

    r = (_ds(sf_dir, "events", ["user_id", "value"])
         .map_batches(rollup, batch_format="pyarrow")
         .groupby("user_id")
         .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"),
                    Sum("s", alias_name="s"), Sum("c", alias_name="c"))
         .to_pandas())
    total_c = int(r["c"].sum())
    total_s = float(r["s"].sum())
    return pd.DataFrame({
        "min_value": [round_half_away(np.array([r["mn"].min()]), 4)[0]],
        "max_value": [round_half_away(np.array([r["mx"].max()]), 4)[0]],
        "sum_value": [round_half_away(np.array([total_s]), 2)[0]],
        "value_count": pd.array([total_c], dtype="int64"),
        "avg_value": [round_half_away(np.array([total_s / total_c]), 4)[0]],
    })


def agg_histogram_field(sf_dir: str):
    """histogram field type (HistogramFieldMapper) + percentiles over it:
    pre-binned (center, count) histogram rows per event_type; the
    percentile is the smallest bin center whose cumulative count crosses
    the rank — integer arithmetic only (cum*100 >= p*total), no float
    boundary. Scale shape: per-batch partial (type, bin) counts, a
    (types x bins) groupby, per-type vectorized cumsum on the driver."""
    def binned(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["center"] = (np.floor(df["value"].to_numpy() / 10.0) * 10.0 + 5.0)
        g = df.groupby(["event_type", "center"], as_index=False).agg(
            c=("value", "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    h = (_ds(sf_dir, "events", ["event_type", "value"])
         .map_batches(binned, batch_format="pyarrow")
         .groupby(["event_type", "center"])
         .aggregate(Sum("c", alias_name="c"))
         .to_pandas().sort_values(["event_type", "center"]))
    rows = []
    for et, g in h.groupby("event_type"):
        cum = g["c"].cumsum().to_numpy()
        total = int(cum[-1])
        centers = g["center"].to_numpy()
        p50 = centers[np.argmax(cum * 100 >= 50 * total)]
        p90 = centers[np.argmax(cum * 100 >= 90 * total)]
        rows.append({"event_type": et, "p50": float(p50), "p90": float(p90),
                     "total": total})
    out = pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)
    out["total"] = out["total"].astype("int64")
    return out


def ingest_append_tags(sf_dir: str):
    """append processor (AppendProcessor — the last of the 28
    ingest-common processors): promote the scalar source field to a list
    and append literal tags, duplicates allowed; output the joined tag
    list per doc."""
    from ..functions import ingest as I

    pipe = I.pipeline(
        I.rename("source", "tags"),
        I.append("tags", ["archived", "v1"]),
    )

    def join(t: pa.Table) -> pa.Table:
        tags = [",".join(x) for x in t["tags"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "tags": pa.array(tags, pa.string())})

    out = (_ds(sf_dir, "documents", ["doc_id", "source"])
           .map_batches(pipe, batch_format="pyarrow")
           .map_batches(join, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def curriculum_order(sf_dir: str):
    """Curriculum-learning ordering for LLM training: docs are staged by a
    difficulty bucket (length decile, capped) and deterministically
    hash-shuffled within each stage (Knuth multiplicative draw) so every
    epoch sees easy->hard without a global sort. Output: first 30
    positions. Scale shape: per-batch partial top-30 on the composite
    key — driver merges (blocks x 30) candidate rows only."""
    def keyed(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["bucket"] = np.minimum(df["n_chars"] // 100, 9).astype("int64")
        df["draw"] = ((df["doc_id"] * 2654435761) % 4294967296).astype("int64")
        df = df.sort_values(["bucket", "draw", "doc_id"]).head(30)
        return pa.Table.from_pandas(
            df[["doc_id", "bucket", "draw"]], preserve_index=False)

    parts = (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
             .map_batches(keyed, batch_format="pyarrow").to_pandas())
    out = (parts.sort_values(["bucket", "draw", "doc_id"]).head(30)
           .reset_index(drop=True))
    out["pos"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["pos", "doc_id", "bucket"]]


def contamination_report(sf_dir: str):
    """Benchmark-contamination report (the aggregate view over the exact
    4-gram decontamination pass): per source, how many docs share at
    least one 4-gram with the benchmark set (docs 0-4). Scale shape: the
    benchmark n-gram set is built once from a point-read and broadcast
    via ray.put; membership is tested inside map_batches; only (source)
    partial counts leave the tasks."""
    import ray
    import pyarrow.dataset as pads

    bench_ds = _ds(sf_dir, "documents", ["doc_id", "text"],
                   flt=(pads.field("doc_id") < 5))
    import re

    pat = re.compile(r"[^a-z0-9]+")

    def grams(s: str) -> set:
        toks = [w for w in pat.split(s.lower()) if w]
        return {" ".join(toks[i:i + 4]) for i in range(len(toks) - 3)}

    bench: set = set()
    for b in bench_ds.iter_batches(batch_format="pyarrow"):
        for s in b["text"].to_pylist():
            bench |= grams(s)
    bref = ray.put(bench)

    def partial(t: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        src = t["source"].to_pylist()
        hit = np.array([bool(grams(s) & bs) for s in t["text"].to_pylist()])
        df = pd.DataFrame({"source": src, "hit": hit.astype(np.int64)})
        g = df.groupby("source", as_index=False).agg(
            docs=("hit", "size"), contaminated=("hit", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    out = (_ds(sf_dir, "documents", ["text", "source"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("docs", alias_name="docs"),
                      Sum("contaminated", alias_name="contaminated"))
           .to_pandas())
    out["rate"] = round_half_away(
        (out["contaminated"] / out["docs"]).to_numpy().astype(np.float64), 4)
    out["docs"] = out["docs"].astype("int64")
    out["contaminated"] = out["contaminated"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def knn_max_inner_product(sf_dir: str):
    """dense_vector similarity=max_inner_product
    (VectorSimilarity.MAXIMUM_INNER_PRODUCT, 8.7): exact top-k by raw dot
    product desc, vec_id tie-break."""
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 3)
    Q = np.array(t["embedding"].to_pylist())
    out = S.knn_dot(_ds(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    Q, k=5)
    return out[["query_id", "vec_id", "score"]]


# ---------------- round 3 session 6: transforms / ML / TSDB / suggest ------


def transform_latest(sf_dir: str):
    """_transform `latest` mode (x-pack transforms TransformConfig#latest,
    added 7.12 — the sibling of `pivot`): per unique key (user_id) the
    single most recent document by sort field ts, event_id tie-break.
    Scale shape: per-batch partial keep-latest (vectorized sort +
    tail-per-user), then ONE groupby(user_id).map_groups keep-latest —
    the exchange carries at most one row per (user, batch), never the
    raw event stream."""
    cols = ["event_id", "ts", "user_id", "event_type", "value"]

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["ts_us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
        df = (df.sort_values(["user_id", "ts_us", "event_id"])
                .groupby("user_id", as_index=False).tail(1))
        return pa.Table.from_pandas(df, preserve_index=False)

    def keep_latest(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["ts_us", "event_id"]).tail(1)

    out = (_ds(sf_dir, "events", cols)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("user_id").map_groups(keep_latest, batch_format="pandas")
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    out["ts"] = pd.to_datetime(out["ts_us"], unit="us")
    for c in ("user_id", "event_id"):
        out[c] = out[c].astype("int64")
    return out[["user_id", "event_id", "ts", "event_type", "value"]]


def ml_anomaly_zscore(sf_dir: str):
    """ML anomaly records (x-pack ml AnomalyRecord — the bucket-count
    anomaly shape of a single-metric job): daily event counts per
    event_type scored as z = (n - mean_type) / stddev_samp_type; records
    with |z| >= 1.5 are anomalies. Scale shape: per-batch partial
    (type, day) counts then ONE small groupby — the z-scoring runs on
    the bucket table (|types| x |days| rows), never the event stream."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # int64 epoch-day key: cheaper to shuffle than a timestamp and
        # avoids Ray's lossy datetime re-coercion in the aggregate path
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby(["event_type", "day_i"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False)

    b = (_ds(sf_dir, "events", ["event_type", "ts"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["event_type", "day_i"]).aggregate(Sum("n", alias_name="n"))
         .to_pandas())
    b["day"] = pd.to_datetime(b["day_i"] * 86_400_000_000, unit="us")
    st = b.groupby("event_type")["n"].agg(mu="mean", sd=lambda x: x.std(ddof=1))
    b = b.join(st, on="event_type")
    b = b[b["sd"] > 0]
    b["zscore"] = round_half_away(
        ((b["n"] - b["mu"]) / b["sd"]).to_numpy().astype(np.float64), 6)
    b = b[np.abs((b["n"] - b["mu"]) / b["sd"]) >= 1.5]
    b["n"] = b["n"].astype("int64")
    return (b.sort_values(["event_type", "day"]).reset_index(drop=True)
            [["event_type", "day", "n", "zscore"]])


_WATCHES = (("w_click_flood", "click", 60),
            ("w_error_spike", "error", 70),
            ("w_purchase_drop", "purchase", 75))


def watcher_execute(sf_dir: str):
    """Watcher execution (x-pack watcher ExecutionService: search input ->
    compare condition -> actions): three stored watches, each a daily
    count over one event_type compared against its threshold; firing
    (watch_id, day, n) rows are the action log. Scale shape: the watch
    table is a broadcast constant; daily partial counts reduce through
    ONE small groupby and every watch evaluates on the bucket table."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # int64 epoch-day key: cheaper to shuffle than a timestamp and
        # avoids Ray's lossy datetime re-coercion in the aggregate path
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby(["event_type", "day_i"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False)

    b = (_ds(sf_dir, "events", ["event_type", "ts"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["event_type", "day_i"]).aggregate(Sum("n", alias_name="n"))
         .to_pandas())
    b["day"] = pd.to_datetime(b["day_i"] * 86_400_000_000, unit="us")
    rows = []
    for wid, etype, thr in _WATCHES:
        hit = b[(b["event_type"] == etype) & (b["n"] >= thr)]
        for _, r in hit.iterrows():
            rows.append((wid, r["day"], int(r["n"])))
    out = pd.DataFrame(rows, columns=["watch_id", "day", "n"])
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["watch_id", "day"]).reset_index(drop=True)


def tsdb_downsample(sf_dir: str):
    """_downsample API (TSDB DownsampleAction, 8.5): materializes a
    downsampled index where each metric becomes an aggregate_metric_double
    (min/max/sum/value_count) per (dimension, time bucket). Dimensions =
    event_type, fixed_interval = 1d over the value metric. Scale shape:
    per-batch partial min/max/sum/count per key, ONE groupby over the
    partials — the canonical downsample combiner."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby(["event_type", "day_i"]).agg(
            vmin=("value", "min"), vmax=("value", "max"),
            vsum=("value", "sum"), value_count=("value", "size"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    out = (_ds(sf_dir, "events", ["event_type", "ts", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["event_type", "day_i"])
           .aggregate(Min("vmin", alias_name="vmin"),
                      Max("vmax", alias_name="vmax"),
                      Sum("vsum", alias_name="vsum"),
                      Sum("value_count", alias_name="value_count"))
           .to_pandas())
    out["day"] = pd.to_datetime(out["day_i"] * 86_400_000_000, unit="us")
    out = out.sort_values(["event_type", "day"]).reset_index(drop=True)
    for c in ("vmin", "vmax", "vsum"):
        out[c] = round_half_away(out[c].to_numpy().astype(np.float64), 6)
    out["value_count"] = out["value_count"].astype("int64")
    return out[["event_type", "day", "vmin", "vmax", "vsum", "value_count"]]


def _levenshtein(a: str, b: str) -> int:
    """Classic DP edit distance (the Lucene LevenshteinAutomata contract
    at small bounds: unit-cost insert/delete/substitute)."""
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def completion_fuzzy(sf_dir: str):
    """Fuzzy completion suggester (suggest/completion/
    FuzzyCompletionQuery: prefix matching with an edit-distance budget on
    the typed prefix): dictionary terms whose first-3-char prefix is
    within Levenshtein distance 1 of 'dat', weight = document frequency,
    top-5 by (weight desc, term asc). Scale shape: the term-df table is
    computed with ONE distinct-(term,doc) exchange; the fuzzy filter runs
    dataset-side over distinct terms (vocabulary-sized, not corpus-sized)
    and only the tiny qualifying set reaches the driver."""
    import re

    from ray.data.aggregate import Count

    pat = re.compile(r"[^a-z0-9]+")

    def explode(t: pa.Table) -> pa.Table:
        ids, terms = [], []
        for d, s in zip(t["doc_id"].to_numpy(), t["text"].to_pylist()):
            for w in set(w for w in pat.split(s.lower()) if w):
                ids.append(int(d))
                terms.append(w)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "doc_id": pa.array(ids, pa.int64())})

    def fuzz(t: pa.Table) -> pa.Table:
        terms = t["term"].to_pylist()
        d = np.array([_levenshtein(w[:3], "dat") if len(w) >= 3 else 9
                      for w in terms], dtype=np.int64)
        keep = d <= 1
        return pa.table({
            "term": pa.array([w for w, k in zip(terms, keep) if k],
                             pa.string()),
            "doc_count": t["doc_count"].filter(
                pa.array(keep, pa.bool_())),
            "fuzz": pa.array(d[keep], pa.int64())})

    df = (_ds(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(explode, batch_format="pyarrow")
          .groupby("term").aggregate(Count(alias_name="doc_count"))
          .map_batches(fuzz, batch_format="pyarrow")
          .to_pandas())
    df["doc_count"] = df["doc_count"].astype("int64")
    return (df.sort_values(["doc_count", "term"], ascending=[False, True])
            .head(5).reset_index(drop=True))


def completion_contexts(sf_dir: str):
    """Context suggester (suggest/completion/context/CategoryContextMapping:
    completions constrained to a category context): completions of prefix
    'dat' within context lang='en', weight = in-context document
    frequency. The context filter is pushed into the parquet read itself
    (row-group pruning) — out-of-context docs never enter the scan."""
    import re

    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    pat = re.compile(r"[^a-z0-9]+")

    def explode(t: pa.Table) -> pa.Table:
        ids, terms = [], []
        for d, s in zip(t["doc_id"].to_numpy(), t["text"].to_pylist()):
            for w in set(w for w in pat.split(s.lower()) if w):
                if w.startswith("s"):
                    ids.append(int(d))
                    terms.append(w)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "doc_id": pa.array(ids, pa.int64())})

    df = (_ds(sf_dir, "documents", ["doc_id", "text", "lang"],
              flt=pc.field("lang") == "en")
          .map_batches(explode, batch_format="pyarrow")
          .groupby("term").aggregate(Count(alias_name="doc_count"))
          .to_pandas())
    df["doc_count"] = df["doc_count"].astype("int64")
    return (df.sort_values(["doc_count", "term"], ascending=[False, True])
            .head(5).reset_index(drop=True))


def tokenizer_fertility(sf_dir: str):
    """Tokenizer fertility audit (LLM training-data statistic: subword
    tokens per whitespace word and chars per token, per language —
    the standard diagnostic for how well a tokenizer fits each language
    in a multilingual corpus). Scale shape: per-batch vectorized token
    counting, ONE tiny groupby(lang) over 3-scalar partials."""
    import re

    from ray.data.aggregate import Sum

    alnum = re.compile(r"[^a-z0-9]+")
    ws = re.compile(r"\s+")

    def counts(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_pylist()
        na = np.array([sum(1 for w in alnum.split(s.lower()) if w)
                       for s in t["text"].to_pylist()], dtype=np.int64)
        nw = np.array([sum(1 for w in ws.split(s) if w)
                       for s in t["text"].to_pylist()], dtype=np.int64)
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "na": pa.array(na), "nw": pa.array(nw),
                         "nc": t["n_chars"]})

    out = (_ds(sf_dir, "documents", ["text", "lang", "n_chars"])
           .map_batches(counts, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("na", alias_name="tokens"),
                      Sum("nw", alias_name="words"),
                      Sum("nc", alias_name="chars"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    out["fertility"] = round_half_away(
        (out["tokens"] / out["words"]).to_numpy().astype(np.float64), 6)
    out["chars_per_token"] = round_half_away(
        (out["chars"] / out["tokens"]).to_numpy().astype(np.float64), 6)
    for c in ("tokens", "words", "chars"):
        out[c] = out[c].astype("int64")
    return out[["lang", "tokens", "words", "chars", "fertility",
                "chars_per_token"]]


def knn_hard_negatives(sf_dir: str):
    """Hard-negative mining (embedding-training data op: for each query
    vector, the highest-cosine corpus vectors that are NOT relevant —
    here: different label, excluding the query itself). Scale shape: the
    query matrix is ray.put-broadcast once; each batch computes the
    masked cosine block and emits a per-batch partial top-k; the driver
    merges (batches x queries x k) partials only."""
    import pyarrow.dataset as pads
    import ray

    t = _qvecs(sf_dir, 3, columns=("vec_id", "embedding", "label"))
    Q = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    qlabels = np.array(t["label"].to_pylist(), dtype=np.int64)
    qids = np.arange(3, dtype=np.int64)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    q_ref = ray.put((Qn, qlabels, qids))
    k = 5

    def partial_topk(tb: pa.Table) -> pa.Table:
        Qm, ql, qi = ray.get(q_ref)
        ids = tb["vec_id"].to_numpy()
        labels = tb["label"].to_numpy()
        V = np.stack(tb["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
        Sc = Qm @ V.T
        out = {"query_id": [], "vec_id": [], "cosine": []}
        for q in range(Qm.shape[0]):
            mask = (labels != ql[q]) & (ids != qi[q])
            sc = Sc[q][mask]
            vid = ids[mask]
            kk = min(k, sc.size)
            if kk == 0:
                continue
            top = np.argpartition(-sc, kk - 1)[:kk]
            out["query_id"].extend([int(q)] * kk)
            out["vec_id"].extend(int(v) for v in vid[top])
            out["cosine"].extend(float(s) for s in sc[top])
        return pa.table({"query_id": pa.array(out["query_id"], pa.int64()),
                         "vec_id": pa.array(out["vec_id"], pa.int64()),
                         "cosine": pa.array(out["cosine"], pa.float64())})

    df = (_ds(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
          .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
          .to_pandas())
    df = df.sort_values(["query_id", "cosine", "vec_id"],
                        ascending=[True, False, True])
    df = df.groupby("query_id", as_index=False).head(k).reset_index(drop=True)
    df["rank"] = (df.groupby("query_id").cumcount() + 1).astype("int64")
    df["cosine"] = round_half_away(df["cosine"].to_numpy(), 6)
    return df


def esql_dissect(sf_dir: str):
    """ES|QL DISSECT command (x-pack esql Dissect / DissectProcessor
    pattern grammar): parse the numeric payload out of the JSON-ish props
    string with a %{key} pattern, cast, and aggregate. The dissect runs
    as a vectorized pc.extract_regex per batch."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | DISSECT props {"k": %{kv}}
        | EVAL k = TO_INTEGER(kv)
        | STATS n = COUNT(*), mx = MAX(k) BY event_type
        | SORT event_type
    ''')


def esql_mv_expand(sf_dir: str):
    """ES|QL MV_EXPAND command (multivalue explode): SPLIT the text into a
    token list per row, explode it (vectorized list_parent_indices +
    take), and count tokens — top-10 by frequency."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | EVAL toks = SPLIT(text, " ")
        | MV_EXPAND toks
        | STATS n = COUNT(*) BY toks
        | SORT n DESC, toks
        | LIMIT 10
    ''')


def esql_lookup_join(sf_dir: str):
    """ES|QL LOOKUP JOIN (8.18 lookup-mode index join): enrich customer
    rows with the nation dimension — the small side is ray.put-broadcast
    and merged inside map_batches, never a shuffle join — then count
    customers per nation name."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM customer
        | LOOKUP JOIN nation ON c_nationkey == n_nationkey
        | STATS cnt = COUNT(*) BY n_name
        | SORT n_name
    ''')


def esql_topk(sf_dir: str):
    """ES|QL row-mode pipeline (no STATS — the FROM|WHERE|SORT|LIMIT|KEEP
    shape): top-10 purchase events by value. Scale shape: per-batch
    partial top-k on the sort key; the driver merges (batches x 10)
    candidate rows only."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | WHERE event_type == "purchase"
        | SORT value DESC, event_id
        | LIMIT 10
        | KEEP event_id, user_id, value
    ''')


# ---------------- round 3 session 6: snapshots-as-service / CCR / SLM ------


def _mounted_searcher(sf_dir: str):
    """Build-or-reuse: snapshot the documents index into a /tmp repository
    and MOUNT it (symlinked segments, zero copy)."""
    import hashlib

    from ..index import snapshot as SN
    from ..search.engine import IndexSearcher
    from .fulltext import B, K1, documents_index

    idx = documents_index(sf_dir)
    tag = hashlib.sha1(f"{idx}:mount:v1".encode()).hexdigest()[:12]
    repo = os.path.join("/tmp/esray_cache", f"snaprepo_{tag}")
    mount = os.path.join("/tmp/esray_cache", f"mount_{tag}")
    if not os.path.isfile(os.path.join(repo, "snapshots", "nightly.json")):
        SN.create_snapshot(idx, repo, "nightly")
    SN.mount_snapshot(repo, "nightly", mount)
    return IndexSearcher(mount, score_mode="exact64", k1=K1, b=B,
                         main_field="text",
                         field_analyzers={"text_2gram": "shingle2"})


def searchable_snapshot_query(sf_dir: str):
    """Searchable snapshots (x-pack searchable-snapshots
    MountSearchableSnapshotAction, 7.10): the index is served DIRECTLY
    from the snapshot repository — mount symlinks segment blobs (no
    restore copy) and the searcher lazy-loads postings from them. BM25
    scores must be identical to the live index's."""
    s = _mounted_searcher(sf_dir)
    ids, sc = s._eval({"kind": "term", "term": "merge"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4)})


def ccr_follow(sf_dir: str):
    """CCR follower (x-pack ccr ShardFollowNodeTask): pull-based segment
    replication — the follower copies only segment ids absent from its
    local store and prunes merged-away ones; a second poll against an
    unchanged leader is a no-op. The query runs ON THE FOLLOWER and must
    score identically to the leader."""
    import hashlib

    from ..index.ccr import follow
    from ..search.engine import IndexSearcher
    from .fulltext import B, K1, documents_index

    leader = documents_index(sf_dir)
    tag = hashlib.sha1(f"{leader}:ccr:v1".encode()).hexdigest()[:12]
    follower = os.path.join("/tmp/esray_cache", f"ccr_{tag}")
    follow(leader, follower)
    again = follow(leader, follower)
    if again["copied"] or again["pruned"]:
        raise RuntimeError("ccr follow cycle is not idempotent")
    s = IndexSearcher(follower, score_mode="exact64", k1=K1, b=B,
                      main_field="text",
                      field_analyzers={"text_2gram": "shingle2"})
    ids, sc = s._eval({"kind": "term", "term": "sort"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4)})


def slm_retention(sf_dir: str):
    """SLM retention (x-pack slm SnapshotRetentionTask /
    SnapshotRetentionConfiguration): one nightly snapshot per distinct
    event day; retention = expire_after 7d, min_count 5, max_count 10 —
    a snapshot is retained iff rank_by_recency <= max_count AND
    (age <= expire_after OR rank_by_recency <= min_count). Scale shape:
    the distinct-day exchange carries one row per day; policy evaluation
    runs on that tiny table."""
    from ray.data.aggregate import Count

    def days(t: pa.Table) -> pa.Table:
        di = np.unique(t["ts"].to_numpy().astype("datetime64[D]")
                       .astype(np.int64))
        return pa.table({"day_i": pa.array(di, pa.int64())})

    d = (_ds(sf_dir, "events", ["ts"])
         .map_batches(days, batch_format="pyarrow")
         .groupby("day_i").aggregate(Count(alias_name="_n"))
         .to_pandas())
    d["day"] = pd.to_datetime(d["day_i"] * 86_400_000_000, unit="us")
    d = d.sort_values("day").reset_index(drop=True)
    mx = d["day"].max()
    d["age_days"] = ((mx - d["day"]).dt.days).astype("int64")
    d["rn"] = np.arange(len(d) - 1, -1, -1, dtype=np.int64) + 1  # 1 = newest
    d["retained"] = (d["rn"] <= 10) & ((d["age_days"] <= 7) | (d["rn"] <= 5))
    return d[["day", "age_days", "retained"]]


def allocation_explain(sf_dir: str):
    """_cluster/allocation/explain (ClusterAllocationExplainAction /
    BalancedShardsAllocator weight function): the 4 routed shards are
    placed on 3 nodes by size-rank round-robin (the deterministic
    balanced layout); each row explains shard -> node with its weight
    (doc count). Scale shape: per-shard doc counts reduce through the
    cat_shards partial exchange; placement runs on the 4-row table."""
    shards = cat_shards(sf_dir)[["shard", "docs"]]
    shards = shards.sort_values(["docs", "shard"],
                                ascending=[False, True]).reset_index(drop=True)
    shards["node"] = ["node-" + str(i % 3) for i in range(len(shards))]
    shards["decision"] = "YES"
    out = shards.sort_values("shard").reset_index(drop=True)
    out["shard"] = out["shard"].astype("int64")
    out["docs"] = out["docs"].astype("int64")
    return out[["shard", "docs", "node", "decision"]]


# ---------------- round 3 session 6: LLM training-data batch C ------------


def dedup_weighted_sampling(sf_dir: str):
    """Duplicate-cluster-aware sampling weights (the soft alternative to
    hard dedup used in LLM corpus mixing: each doc is down-weighted by
    1/cluster_size so a document duplicated k times contributes one
    document's worth of probability mass). Cluster key = exact content
    hash. Scale shape: ONE hash groupby; the per-source weight partials
    are emitted inside map_groups (one row per (cluster, source)), then a
    tiny groupby(source) rollup — the raw text never shuffles twice."""
    import hashlib

    from ray.data.aggregate import Count, Sum

    def key(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(s.encode()).hexdigest()
             for s in t["text"].to_pylist()]
        return pa.table({"h": pa.array(h), "source": t["source"]})

    def weights(g: pd.DataFrame) -> pd.DataFrame:
        w = 1.0 / len(g)
        out = g.groupby("source", as_index=False).size()
        out["eff"] = out["size"] * w
        return out[["source", "size", "eff"]]

    out = (_ds(sf_dir, "documents", ["text", "source"])
           .map_batches(key, batch_format="pyarrow")
           .groupby("h").map_groups(weights, batch_format="pandas")
           .groupby("source")
           .aggregate(Sum("size", alias_name="docs"),
                      Sum("eff", alias_name="eff_docs"))
           .to_pandas().sort_values("source").reset_index(drop=True))
    out["docs"] = out["docs"].astype("int64")
    out["eff_docs"] = round_half_away(
        out["eff_docs"].to_numpy().astype(np.float64), 6)
    return out[["source", "docs", "eff_docs"]]


def training_span_corruption(sf_dir: str):
    """T5-style span-corruption statistics (Raffel et al. 2020: mask ~15%
    of tokens in contiguous spans; the (input, target) pair construction
    is driven by these counts): deterministic positional mask
    ((doc_id*1000003 + pos*7919) mod 100 < 15), per-doc token count,
    masked count, and span count (runs of consecutive masked positions).
    Scale shape: fully vectorized per batch; one row per doc leaves the
    map stage."""
    import re

    pat = re.compile(r"[^a-z0-9]+")

    def stats(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        n_tok, n_mask, n_spans = [], [], []
        for d, s in zip(ids, t["text"].to_pylist()):
            n = sum(1 for w in pat.split(s.lower()) if w)
            pos = np.arange(n, dtype=np.int64)
            m = (int(d) * 1000003 + pos * 7919) % 100 < 15
            n_tok.append(n)
            n_mask.append(int(m.sum()))
            n_spans.append(int((m & ~np.concatenate(([False], m[:-1]))).sum()))
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "n_masked": pa.array(n_mask, pa.int64()),
                         "n_spans": pa.array(n_spans, pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(stats, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return out


def ft_frozen_search(sf_dir: str):
    """Frozen-index search (7.x _freeze API / FrozenEngine: shard data
    stays OFF-HEAP and is loaded lazily per query instead of resident in
    memory). Served here by forcing the searcher's disk-resident term
    dictionary + row-group LRU path (lazy=True) that normally engages
    above 256 MB — results must be identical to the resident searcher."""
    from ..search.engine import IndexSearcher
    from .fulltext import B, K1, documents_index

    s = IndexSearcher(documents_index(sf_dir), score_mode="exact64", k1=K1,
                      b=B, main_field="text", lazy=True,
                      field_analyzers={"text_2gram": "shingle2"})
    ids, sc = s._eval({"kind": "term", "term": "query"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4)})


def tokenizer_vocab_coverage(sf_dir: str):
    """Vocabulary-coverage / OOV-rate audit (the LLM-tokenizer diagnostic:
    with a fixed top-N vocabulary, what fraction of each language's
    tokens fall out-of-vocabulary). N=10 at test scale. Scale shape: the
    term-count exchange carries one row per distinct term; the selected
    vocab is ray.put-broadcast and per-batch OOV counting is a set probe,
    so the token stream never shuffles."""
    import ray
    from ray.data.aggregate import Sum

    tc = count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple)
    vocab = set(tc.sort_values(["cnt", "term"], ascending=[False, True])
                  .head(10)["term"])
    vref = ray.put(vocab)

    def oov(t: pa.Table) -> pa.Table:
        v = ray.get(vref)
        langs, toks, oovs = [], [], []
        for lang, s in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            ws = analyze_simple(s)
            langs.append(lang)
            toks.append(len(ws))
            oovs.append(sum(1 for w in ws if w not in v))
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "tokens": pa.array(toks, pa.int64()),
                         "oov": pa.array(oovs, pa.int64())})

    out = (_ds(sf_dir, "documents", ["text", "lang"])
           .map_batches(oov, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("tokens", alias_name="tokens"),
                                      Sum("oov", alias_name="oov"))
           .to_pandas().sort_values("lang").reset_index(drop=True))
    out["tokens"] = out["tokens"].astype("int64")
    out["oov"] = out["oov"].astype("int64")
    out["oov_rate"] = round_half_away(
        (out["oov"] / out["tokens"]).to_numpy().astype(np.float64), 6)
    return out[["lang", "tokens", "oov", "oov_rate"]]


def sql_group_query(sf_dir: str):
    """_sql API with GROUP BY / HAVING (x-pack sql Aggregate plan:
    composite-agg-backed grouping with post-agg HAVING filters): the
    translator lowers aggregates onto a per-batch partial combiner — only
    the group-cardinality table reaches the driver. Oracle = the same
    SQL (sums rounded on both sides)."""
    from ..functions.sql import run_sql

    sql = ("SELECT event_type, COUNT(*) AS n, SUM(value) AS sv, "
           "MAX(value) AS mx FROM events WHERE value >= 5 "
           "GROUP BY event_type HAVING n >= 10 ORDER BY event_type")
    out = run_sql(sql, sf_dir, ds_factory=_ds)
    out["sv"] = round_half_away(out["sv"].to_numpy().astype(np.float64), 2)
    out["mx"] = round_half_away(out["mx"].to_numpy().astype(np.float64), 6)
    return out.reset_index(drop=True)


def mget(sf_dir: str):
    """_mget (TransportMultiGetAction): batched point reads by id across
    TWO tables in one request (documents + events), each with found/
    missing semantics. The id filters are pushed into the parquet reads
    (row-group pruning) — one scan per index, never per id."""
    import pyarrow.compute as pc

    want_docs = [1, 5, 424242]
    want_events = [2, 8, 999999999]
    d = {int(r["doc_id"]): len(r["text"])
         for r in _ds(sf_dir, "documents", ["doc_id", "text"],
                      flt=pc.field("doc_id").isin(want_docs)).take_all()}
    e = {int(r["event_id"]): r["event_type"]
         for r in _ds(sf_dir, "events", ["event_id", "event_type"],
                      flt=pc.field("event_id").isin(want_events)).take_all()}
    rows = []
    for i in want_docs:
        rows.append(("documents", i, int(i in d), d.get(i, -1)))
    for i in want_events:
        rows.append(("events", i, int(i in e), len(e.get(i, ""))))
    out = pd.DataFrame(rows, columns=["idx", "id", "found", "src_len"])
    for c in ("id", "found", "src_len"):
        out[c] = out[c].astype("int64")
    return out


def index_disk_usage(sf_dir: str):
    """_disk_usage API (7.15 AnalyzeIndexDiskUsageAction): per-field
    on-disk footprint of the built index — postings parquet bytes per
    indexed field plus docmeta bytes, with the share of the total.
    Rows-only (byte sizes are engine-internal); the per-field split and
    ordering are pinned by tests."""
    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    idx = documents_index(sf_dir)
    live = live_segments(committed_segments(idx))
    sizes: dict[str, int] = {}
    for sid in live:
        pdir = os.path.join(idx, sid, "postings")
        for f in os.listdir(pdir):
            if not f.endswith(".parquet"):
                continue
            sizes["postings"] = sizes.get("postings", 0) + os.path.getsize(
                os.path.join(pdir, f))
        mdir = os.path.join(idx, sid, "docmeta")
        if os.path.isdir(mdir):
            for f in os.listdir(mdir):
                sizes["docmeta"] = sizes.get("docmeta", 0) + os.path.getsize(
                    os.path.join(mdir, f))
    total = sum(sizes.values())
    out = pd.DataFrame(sorted(sizes.items()), columns=["store", "bytes"])
    out["bytes"] = out["bytes"].astype("int64")
    out["share"] = round_half_away(
        (out["bytes"] / max(total, 1)).to_numpy().astype(np.float64), 4)
    return out


def curation_funnel(sf_dir: str):
    """End-to-end pretraining-corpus curation funnel (the pipeline an LLM
    data team actually runs): language filter -> quality filter -> exact
    dedup, with per-stage survivor counts, and the surviving corpus
    written as source-partitioned parquet (the resumable-output layout).
    Scale shape: ONE streaming pass computes lang+quality flags per batch
    (vectorized); only the qualifying (content-hash, doc_id) pairs enter
    the single dedup exchange — the driver sees stage counters and the
    write is a Dataset sink, never a collect."""
    import hashlib

    from ray.data.aggregate import Count, Min, Sum

    def flags(t: pa.Table) -> pa.Table:
        q = T.quality_score_batch(t)
        lang_ok = pc.equal(t["lang"], "en")
        q_ok = pc.and_(lang_ok, pc.greater_equal(q["quality"], 0.5))
        h = [hashlib.md5(s.encode()).hexdigest() if ok else ""
             for s, ok in zip(t["text"].to_pylist(), q_ok.to_pylist())]
        return pa.table({
            "doc_id": t["doc_id"], "source": t["source"],
            "lang_ok": pc.cast(lang_ok, pa.int64()),
            "q_ok": pc.cast(q_ok, pa.int64()),
            "h": pa.array(h, pa.string())})

    import pyarrow.compute as pc

    flagged = (_ds(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
               .map_batches(flags, batch_format="pyarrow"))
    totals = flagged.aggregate(Count(alias_name="all"),
                               Sum("lang_ok", alias_name="lang"),
                               Sum("q_ok", alias_name="quality"))
    # the dedup exchange output (one (hash, doc_id) row per surviving doc)
    # is materialized ONCE — reused for both the count and the join-back,
    # kept in the object store (spillable), never collected to the driver
    keep = (flagged
            .filter(expr="q_ok == 1")
            .groupby("h").aggregate(Min("doc_id", alias_name="doc_id"))
            .select_columns(["doc_id"]).materialize())
    n_survivors = keep.count()

    # resumable sink: survivors joined back (distributed hash join),
    # written partitioned by source
    out_dir = "/tmp/esray_cache/curated_corpus"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    (_ds(sf_dir, "documents", ["doc_id", "text", "source"])
     .join(keep, join_type="inner", num_partitions=8, on=("doc_id",))
     .write_parquet(out_dir, partition_cols=["source"]))

    rows = [(0, "all", int(totals["all"])),
            (1, "lang", int(totals["lang"])),
            (2, "quality", int(totals["quality"])),
            (3, "exact_dedup", int(n_survivors))]
    out = pd.DataFrame(rows, columns=["stage_idx", "stage", "docs"])
    for c in ("stage_idx", "docs"):
        out[c] = out[c].astype("int64")
    return out


def esql_grok(sf_dir: str):
    """ES|QL GROK command (x-pack esql Grok — shares the ingest
    processor's pattern bank): pull the numeric payload out of props with
    %{INT:kv}, cast and aggregate per event_type."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | GROK props "%{INT:kv}"
        | EVAL k = TO_INTEGER(kv)
        | STATS n = COUNT(*), s = SUM(k) BY event_type
        | SORT event_type
    ''')


def knn_recall_report(sf_dir: str):
    """ANN recall evaluation report (the eval harness a vector-search
    rollout runs: recall@k of each approximate index family against the
    exact scan, on the same queries). Rows-only: HNSW/IVF/LSH are
    approximate by design; the per-family recall floors are pinned by
    tests. All four paths run as broadcast-query partial-top-k Dataset
    passes."""
    import pyarrow.dataset as pads

    t = _qvecs(sf_dir, 5)
    Q = np.array(t["embedding"].to_pylist())
    k = 10
    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = S.knn_brute_force(ds, Q, k=k, dtype=np.float64)
    truth = {q: set(g["vec_id"]) for q, g in exact.groupby("query_id")}

    rows = []
    for fam, fn in (("lsh", lambda: S.knn_lsh(ds, Q, k=k)),
                    ("ivf", lambda: S.knn_ivf(ds, Q, k=k)),
                    ("hnsw", lambda: S.knn_hnsw(
                        _ds(sf_dir, "embeddings"), Q, k=k))):
        got = fn()
        hits = sum(len(set(g["vec_id"]) & truth[q])
                   for q, g in got.groupby("query_id"))
        total = sum(len(truth[q]) for q in truth)
        rows.append((fam, round_half_away(np.float64(hits) / total, 4)))
    out = pd.DataFrame(rows, columns=["family", "recall_at_k"])
    return out.sort_values("family").reset_index(drop=True)


def search_shards_nodes(sf_dir: str):
    """_search_shards with node resolution (RestSearchShardsAction: which
    shard — and with the balanced layout, which node — a routed search
    hits without running it; complements the doc-range search_shards op).
    Five routing keys through the real murmur3 OperationRouting hash
    + the allocation_explain node placement."""
    from ..index.routing import assign_shards

    keys = ["src0", "src5", "src9", "src13", "src17"]
    shards = assign_shards(np.asarray(keys, dtype=object), 4)
    placement = allocation_explain(sf_dir)[["shard", "node"]]
    node_of = dict(zip(placement["shard"], placement["node"]))
    out = pd.DataFrame({
        "routing": keys,
        "shard": shards.astype(np.int64),
        "node": [node_of[int(s)] for s in shards]})
    return out.sort_values("routing").reset_index(drop=True)


def indices_segments(sf_dir: str):
    """_segments API (RestIndicesSegmentsAction): per-segment metadata —
    doc count, committed flag, generation. Reported over the 600-row-
    row-group index (the same deterministic multi-segment layout the
    force_merge and query_then_fetch gates use: the build plans one
    fragment partition per 600-row group, so the segment layout is
    ceil(n/600) regardless of the source parquet's row-group structure);
    the oracle re-derives each segment's doc count from the row count."""
    import hashlib

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments, live_segments

    src_pq = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"{src_pq}:{os.path.getmtime(src_pq)}:qtf600".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"qtfidx_{tag}")
    corpus = os.path.join(root, "corpus")
    work = os.path.join(root, "index")
    if not os.path.isdir(os.path.join(root, "_built_ok")):
        os.makedirs(corpus, exist_ok=True)
        t = pq.read_table(src_pq)
        pq.write_table(t, os.path.join(corpus, "documents.parquet"),
                       row_group_size=600)
        build_index(os.path.join(corpus, "documents.parquet"), work,
                    analyzer="simple", index_positions=False,
                    docs_per_partition=600, num_buckets=8,
                    content_column="text", meta_columns=())
        os.makedirs(os.path.join(root, "_built_ok"), exist_ok=True)
    live = live_segments(committed_segments(work))
    rows = []
    for gen, (sid, m) in enumerate(sorted(live.items())):
        rows.append((gen, m.doc_count, 1))
    out = pd.DataFrame(rows, columns=["generation", "doc_count", "committed"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def source_dup_matrix(sf_dir: str):
    """Cross-source near-duplication matrix (the dedup diagnostic a
    multi-source training corpus needs: how many candidate-duplicate
    pairs each pair of sources shares — e.g. crawl snapshots duplicating
    each other). Blocking key = leading-5-token fingerprint (the cheap
    prefix-blocking stage of a near-dup pipeline). Scale shape: ONE
    fingerprint groupby; each cluster emits its source-pair combination
    counts inside map_groups (computed from the cluster's source
    histogram), then a tiny (src_a, src_b) rollup — the n^2 pair
    expansion never happens row-wise."""
    import re

    from ray.data.aggregate import Sum

    pat = re.compile(r"[^a-z0-9]+")

    def key(t: pa.Table) -> pa.Table:
        h = [" ".join([w for w in pat.split(s.lower()) if w][:5])
             for s in t["text"].to_pylist()]
        return pa.table({"h": pa.array(h, pa.string()), "source": t["source"]})

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"src_a": pd.Series([], dtype=object),
                                 "src_b": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        cnt = g["source"].value_counts().sort_index()
        srcs = cnt.index.to_numpy()
        c = cnt.to_numpy()
        rows_a, rows_b, rows_n = [], [], []
        for i in range(len(srcs)):
            if c[i] >= 2:
                rows_a.append(srcs[i]); rows_b.append(srcs[i])
                rows_n.append(int(c[i] * (c[i] - 1) // 2))
            for j_ in range(i + 1, len(srcs)):
                rows_a.append(srcs[i]); rows_b.append(srcs[j_])
                rows_n.append(int(c[i] * c[j_]))
        return pd.DataFrame({"src_a": rows_a, "src_b": rows_b,
                             "n": pd.array(rows_n, dtype=np.int64)})

    out = (_ds(sf_dir, "documents", ["text", "source"])
           .map_batches(key, batch_format="pyarrow")
           .groupby("h").map_groups(pair_counts, batch_format="pandas")
           .groupby(["src_a", "src_b"]).aggregate(Sum("n", alias_name="dup_pairs"))
           .to_pandas().sort_values(["src_a", "src_b"]).reset_index(drop=True))
    out["dup_pairs"] = out["dup_pairs"].astype("int64")
    return out


def esql_bucket(sf_dir: str):
    """ES|QL BUCKET grouping function (x-pack esql Bucket, the 8.14
    STATS-BY histogram form): calendar spans lower to DATE_TRUNC
    (pc.floor_temporal per batch), numeric widths to FLOOR(col/w)*w —
    grouping stays a per-batch combiner + tiny driver merge, no
    row-cardinality shuffle. Day keys are emitted as strings so the
    oracle hash is precision-independent."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS n = COUNT(*), s = SUM(value)
          BY d = BUCKET(ts, 1 day), b = BUCKET(value, 100)
        | SORT d, b
    ''')
    out["d"] = out["d"].dt.strftime("%Y-%m-%d")
    out["s"] = round_half_away(out["s"].to_numpy(), 2)
    return out


def esql_stats_extended(sf_dir: str):
    """ES|QL extended STATS family (x-pack esql Median / Percentile /
    StdDev / WeightedAvg — the reference sketches MEDIAN/PERCENTILE with
    T-Digest; this gate runs the exact two-level pair exchange so the
    DuckDB oracle matches bit-for-bit, and folds STD_DEV/WEIGHTED_AVG on
    an int64 fixed-point grid so the partial merge is order-invariant)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM lineitem
        | STATS med = MEDIAN(l_extendedprice),
                p95 = PERCENTILE(l_extendedprice, 95),
                sd = STD_DEV(l_discount),
                w = WEIGHTED_AVG(l_extendedprice, l_quantity)
          BY l_returnflag
        | SORT l_returnflag
    ''')


def esql_enrich(sf_dir: str):
    """ES|QL ENRICH command (x-pack enrich EnrichLookupService): the
    enrich index is broadcast once via ray.put and merged per batch —
    never a shuffle join. Composes with COUNT_DISTINCT's exact pair
    exchange downstream."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | ENRICH customer ON user_id == c_custkey WITH c_name, c_nationkey
        | WHERE c_nationkey IS NOT NULL
        | STATS n = COUNT(*), d = COUNT_DISTINCT(c_name) BY c_nationkey
        | SORT c_nationkey
        | LIMIT 10
    ''')


def esql_values_agg(sf_dir: str):
    """ES|QL STATS VALUES(col) (x-pack esql Values agg — multivalue set
    per group): exact pair exchange, sorted for determinism; the gate
    flattens the multivalue to a joined string so the oracle hash can
    compare (array_to_string(list_sort(list(DISTINCT ..)))."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM orders
        | STATS kinds = VALUES(o_orderstatus), n = COUNT(*)
          BY o_orderpriority
        | SORT o_orderpriority
    ''')
    out["kinds"] = out["kinds"].map(",".join)
    return out


def esql_expression(sf_dir: str):
    """ES|QL scalar-expression grammar end-to-end (x-pack esql
    EsqlBaseParser.g4 booleanExpression + EsqlFunctionRegistry): WHERE
    with AND/OR precedence, IN and LIKE predicates; multi-assignment
    EVAL with CASE / TO_INTEGER / TO_UPPER / CONCAT. Every expression
    lowers to one pyarrow.compute kernel per AST node per batch
    (functions/esql_expr.py) — no per-row Python."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | WHERE value > 5 AND event_type IN ("click", "view", "error")
            OR event_type LIKE "sig*"
        | EVAL bucket = CASE(value > 100, "hi", value > 30, "mid", "lo"),
               vi = TO_INTEGER(value),
               tag = CONCAT(TO_UPPER(event_type), "_", bucket)
        | STATS n = COUNT(*), s = SUM(vi) BY tag
        | SORT tag
    ''')


def esql_count_distinct(sf_dir: str):
    """ES|QL STATS COUNT_DISTINCT (x-pack esql CountDistinct — reference
    uses HLL++; this gate runs the EXACT two-level path so the DuckDB
    oracle matches bit-for-bit: per-batch local distinct (by,col) pairs
    as the combiner, ONE global pair groupby, per-key pair counts merged
    with the regular SUM/COUNT partials on the group key). The sketched
    path is agg_cardinality_hll."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS users = COUNT_DISTINCT(user_id), cnt = COUNT(*),
                total = SUM(value) BY event_type
        | SORT event_type
    ''')
    out["total"] = round_half_away(out["total"].to_numpy(), 2)
    return out


def esql_rename_drop(sf_dir: str):
    """ES|QL RENAME .. AS / DROP commands (x-pack esql Rename/Drop): pure
    per-batch schema projections — zero-copy Arrow rename_columns/select,
    no data movement; column pruning at the read still applies."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM orders
        | RENAME o_orderstatus AS status
        | DROP o_comment, o_clerk
        | WHERE o_totalprice > 50000
        | STATS n = COUNT(*), mx = MAX(o_totalprice) BY status
        | SORT status
    ''')


def esql_mv_functions(sf_dir: str):
    """ES|QL multivalue function family (x-pack esql MvCount/MvFirst/
    MvLast/MvDedupe/MvSort/MvSlice/MvConcat — AbstractMultivalueFunction
    subclasses): SPLIT builds the per-row token list, every MV_* lowers
    to segment-vectorized reduceat / one lexsort over (row, code) pairs —
    no Python loop over rows (functions/esql_expr.py:_mv_call)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | WHERE doc_id < 200
        | EVAL words = SPLIT(text, " ")
        | EVAL nw = MV_COUNT(words),
               first_w = MV_FIRST(words),
               last_w = MV_LAST(words),
               uniq_w = MV_COUNT(MV_DEDUPE(words)),
               head3 = MV_CONCAT(MV_SLICE(MV_SORT(words), 0, 2), "|")
        | KEEP doc_id, nw, first_w, last_w, uniq_w, head3
        | SORT doc_id
        | LIMIT 500
    ''')


def esql_scalar_functions(sf_dir: str):
    """ES|QL scalar math/string/date function surface (x-pack esql
    EsqlFunctionRegistry: Exp/Log/Cbrt/Hypot/Signum, BitLength/ToBase64,
    DateFormat/DateDiff): each call is ONE pyarrow.compute or numpy
    kernel per batch. DATE_DIFF implements Java ChronoUnit.between
    (whole elapsed units, trunc toward zero) — the oracle uses epoch
    arithmetic, not DuckDB's boundary-crossing date_diff."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM orders
        | WHERE o_orderkey < 500
        | EVAL lp = LOG(o_totalprice),
               r3 = CBRT(o_totalprice),
               h = HYPOT(o_totalprice, o_custkey),
               sg = SIGNUM(o_totalprice - 100000),
               d = DATE_FORMAT("yyyy-MM-dd", o_orderdate),
               bl = BIT_LENGTH(o_orderstatus),
               b64 = TO_BASE64(o_orderpriority),
               days = DATE_DIFF("day",
                   DATE_PARSE("yyyy-MM-dd", "1995-01-01"), o_orderdate)
        | KEEP o_orderkey, lp, r3, h, sg, d, bl, b64, days
        | SORT o_orderkey
        | LIMIT 1000
    ''')
    for c in ("lp", "r3", "h"):
        out[c] = round_half_away(out[c], 4)
    return out


def esql_inlinestats(sf_dir: str):
    """ES|QL INLINESTATS (x-pack esql InlineStats, 8.16 preview):
    aggregate, then join the group table back onto every row — here
    'orders priced above their priority class average'. Ray shape: the
    STATS combiner reduces to a group-cardinality table, ray.put
    broadcasts it, the second streaming pass merges per batch (never a
    shuffle join); the row stream is then re-aggregated."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM orders
        | INLINESTATS avg_price = AVG(o_totalprice) BY o_orderpriority
        | WHERE o_totalprice > avg_price
        | STATS n = COUNT(*), mn = MIN(o_totalprice) BY o_orderpriority
        | SORT o_orderpriority
    ''')


def esql_sample(sf_dir: str):
    """ES|QL SAMPLE command (x-pack esql Sample, 8.18): probability
    sampling pushed into a per-batch filter. The reference uses a
    per-row RNG; this engine derives keep/drop from a Knuth
    multiplicative hash of the first integer column so the sample is
    deterministic, partition-invariant and oracle-expressible."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM orders
        | SAMPLE 0.125 7
        | STATS n = COUNT(*), mx = MAX(o_totalprice) BY o_orderstatus
        | SORT o_orderstatus
    ''')


def esql_row(sf_dir: str):
    """ES|QL ROW command (x-pack esql RowExec): literal single-row
    source, evaluated through the same expression engine as EVAL."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        ROW a = 1, b = "two", c = PI()
        | EVAL d = a + c, e = TO_UPPER(b)
    ''')


def esql_fork(sf_dir: str):
    """ES|QL FORK command (x-pack esql Fork, 8.19): two branch pipelines
    over the shared scan — filtered and unfiltered per-type counts —
    tagged _fork and unioned. Each branch is its own streaming pass with
    the prefix's scan pruning reapplied (the reference plans N sub-plans
    the same way)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | FORK ( WHERE value > 100 | STATS n = COUNT(*) BY event_type )
               ( STATS n = COUNT(*) BY event_type )
        | SORT _fork, event_type
    ''')


def esql_categorize(sf_dir: str):
    """ES|QL CATEGORIZE grouping function (8.16, ml TokenListCategorizer
    analog): numeric-token wildcarding of a synthesized log message, then
    STATS BY the category — one vectorized regex kernel per batch + the
    partial-STATS combiner."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | EVAL msg = CONCAT(event_type, " took ",
                            TO_STRING(TO_INTEGER(value)), " ms")
        | STATS n = COUNT(*) BY cat = CATEGORIZE(msg)
        | SORT n DESC, cat
        | LIMIT 5
    ''')


def esql_rerank(sf_dir: str):
    """ES|QL RERANK command (x-pack esql Rerank, 8.18): appends a model
    relevance _score per row. The inference id here is the deterministic
    lexical-overlap MOCK (the reference's yaml tests run against mock
    inference services the same way); scoring is fully vectorized —
    split -> is_in(query set) -> unique (row, token) pairs -> bincount.
    At 100 TB the mock swaps for an actor-pool cross-encoder stage with
    identical batch plumbing."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | RERANK "the data batch query" ON text
        | SORT _score DESC, doc_id
        | KEEP doc_id, _score
        | LIMIT 10
    ''')


def esql_completion(sf_dir: str):
    """ES|QL COMPLETION command (x-pack esql Completion, 8.19): appends
    the model completion of a per-row prompt expression. Only the
    deterministic echo-5 MOCK ships in this container (no real LLM);
    the plumbing — prompt expr evaluated per batch, completion column
    appended via arrow list kernels — is the real pattern."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | WHERE doc_id < 100
        | COMPLETION summary = CONCAT("summarize: ", text) WITH echo-5
        | KEEP doc_id, summary
        | SORT doc_id
        | LIMIT 100
    ''')


def esql_stats_where(sf_dir: str):
    """ES|QL per-aggregate WHERE filter (x-pack esql FilteredExpression,
    8.16): each aggregate takes its own row mask; groups still form over
    ALL rows, so a group whose filter matches nothing reports COUNT 0 /
    null. The masks compile once (esql_expr.compile_predicate) and apply
    inside the per-batch partial combiner — the exchange stays the tiny
    group-cardinality table."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS n = COUNT(*),
                errs = COUNT(*) WHERE event_type == "error",
                hi_avg = AVG(value) WHERE value > 50,
                lo_sum = SUM(value) WHERE value <= 50
          BY event_type
        | SORT event_type
    ''')
    out["hi_avg"] = round_half_away(out["hi_avg"].to_numpy(), 4)
    out["lo_sum"] = round_half_away(out["lo_sum"].to_numpy(), 2)
    return out


def esql_change_point(sf_dir: str):
    """ES|QL CHANGE_POINT command (x-pack esql ChangePoint, 8.18,
    simplified to the CUSUM mean-shift statistic — same kernel as
    agg_change_point): runs over the reduced STATS series (driver-small
    by contract; the reference caps the command at 1,000 rows). The
    engine also emits a two-sided z-test pvalue; the gate keeps the
    deterministic columns."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS c = COUNT(*) BY day = BUCKET(ts, 1 day)
        | CHANGE_POINT c ON day
        | WHERE type IS NOT NULL
        | KEEP day, c, type
    ''')
    out["day"] = out["day"].dt.strftime("%Y-%m-%d")
    return out


def esql_ip_functions(sf_dir: str):
    """ES|QL IP function family (x-pack esql CIDRMatch / IpPrefix /
    ToIP): synthesizes the per-user IPv4 used by ip_cidr_filter with
    pure ES|QL arithmetic, filters to 0.0.0.0/3 via CIDR_MATCH and
    aggregates per /8 network from IP_PREFIX. The u32 parse is one
    split kernel + one stride-4 dot per batch — no per-row Python."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | EVAL v = MOD(user_id * 2654435761, 4294967296)
        | EVAL ip = CONCAT(TO_STRING(v / 16777216), ".",
                           TO_STRING(MOD(v / 65536, 256)), ".",
                           TO_STRING(MOD(v / 256, 256)), ".",
                           TO_STRING(MOD(v, 256)))
        | WHERE CIDR_MATCH(TO_IP(ip), "0.0.0.0/3")
        | EVAL net = IP_PREFIX(ip, 8, 0)
        | STATS n = COUNT(*) BY net
        | SORT net
        | LIMIT 100
    ''')


def nodes_stats(sf_dir: str):
    """_nodes/stats indices-level rollup (RestNodesStatsAction): per-node
    shard count and resident doc total under the balanced allocation.
    Scale shape: per-shard doc counts reduce through the cat_shards
    partial exchange; the node rollup runs on the 4-row shard table."""
    pl = allocation_explain(sf_dir)
    out = (pl.groupby("node", as_index=False)
             .agg(shards=("shard", "size"), docs=("docs", "sum")))
    for c in ("shards", "docs"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def esql_ts_rate(sf_dir: str):
    """ES|QL TS command + RATE aggregate (x-pack esql time-series mode,
    8.13: TimeSeriesAggregate / Rate): Prometheus-style counter rate per
    (user_id, day) series — sum of positive increments (resets contribute
    the new value) over the observed span. The one STATS path that
    shuffles rows: ONE groupby over the dim columns co-locates each
    series (the reference co-locates by _tsid the same way); increments
    accumulate in integer cents so the result is bit-identical to SQL."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        TS events
        | STATS r = RATE(value)
          BY user_id, day = DATE_FORMAT("yyyy-MM-dd", DATE_TRUNC("day", ts))
        | SORT user_id, day
        | LIMIT 60
    ''')


def esql_rrf(sf_dir: str):
    """ES|QL RRF/FUSE command (x-pack esql Fuse, 8.19 experimental —
    RrfScoreEval): reciprocal-rank fusion of two FORK RERANK branches.
    Each branch is its own streaming pass ending in a LIMITed top-k, so
    the fusion input is driver-small by construction; fused score =
    sum over branches of 1/(60 + rank)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | FORK ( RERANK "the data batch query" ON text
                 | SORT _score DESC, doc_id | KEEP doc_id, _score
                 | LIMIT 20 )
               ( RERANK "error value count" ON text
                 | SORT _score DESC, doc_id | KEEP doc_id, _score
                 | LIMIT 20 )
        | RRF
        | LIMIT 10
    ''')


# ---------------- round 3 session 11: ES|QL full-text retrieval ----------


def esql_match(sf_dir: str):
    """ES|QL MATCH function + METADATA _score (x-pack esql fulltext
    Match.java, 8.16): the WHERE is pushed down to ONE index query (the
    reference translates MATCH to a Lucene MatchQuery per shard); the row
    stream is then filtered by the matched doc-id set with scores attached
    as the `_score` metadata column. Scale shape: matched-set broadcast
    (terms-lookup pattern), pruned read of doc_id only."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE MATCH(text, "data query window")
        | EVAL _score = ROUND(_score, 4)
        | SORT doc_id
        | LIMIT 1000000
        | KEEP doc_id, _score
    ''')


def esql_match_operator(sf_dir: str):
    """MATCH with the 8.18 options map — {"operator": "AND"} conjunction
    semantics (Match.java options -> MatchQueryBuilder.operator)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE MATCH(text, "data query", {"operator": "AND"})
        | EVAL _score = ROUND(_score, 4)
        | SORT doc_id
        | LIMIT 1000000
        | KEEP doc_id, _score
    ''')


def esql_match_phrase(sf_dir: str):
    """MATCH_PHRASE function (8.18, MatchPhrase.java): exact adjacent
    positions, pushed to the index's positional postings."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | WHERE MATCH_PHRASE(text, "data query")
        | SORT doc_id
        | LIMIT 1000000
        | KEEP doc_id
    ''')


def esql_qstr(sf_dir: str):
    """QSTR function (QueryString.java, 8.16): full Lucene query_string
    grammar pushed to the index, combined with a residual scalar predicate
    — the non-full-text AND conjunct stays behind as a vectorized row
    filter exactly like the reference keeps non-pushable filters in the
    compute engine."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE QSTR("data AND query AND NOT vector") AND n_chars > 150
        | EVAL _score = ROUND(_score, 4)
        | SORT doc_id
        | LIMIT 1000000
        | KEEP doc_id, n_chars, _score
    ''')


def esql_kql(sf_dir: str):
    """KQL function (x-pack kql plugin via esql Kql.java, 8.18): kibana
    query language — and/or/not, field:value — compiled to the engine's
    bool/match queries. must_not clauses do not score (bool semantics), so
    _score here is the BM25 of the positive term only."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE KQL("data and not window")
        | EVAL _score = ROUND(_score, 4)
        | SORT doc_id
        | LIMIT 1000000
        | KEEP doc_id, _score
    ''')


def esql_score_topk(sf_dir: str):
    """Relevance-ranked ES|QL retrieval: SORT _score DESC over the pushed
    MATCH — the reference's `FROM idx METADATA _score | WHERE match(...)
    | SORT _score DESC` canonical example. Row-mode partial top-k per
    batch; the driver merges (batches x 10) candidates."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE MATCH(text, "data query window")
        | EVAL _score = ROUND(_score, 4)
        | SORT _score DESC, doc_id
        | LIMIT 10
        | KEEP doc_id, _score
    ''')


# deterministic 64-dim query vector shared by the esql vector gates
_ESQL_QVEC = (
    "0.362,0.674,0.896,0.996,0.961,0.797,0.524,0.181,-0.187,-0.53,-0.801,"
    "-0.963,-0.995,-0.893,-0.669,-0.355,0.007,0.368,0.679,0.899,0.996,0.959,"
    "0.792,0.518,0.174,-0.194,-0.536,-0.805,-0.965,-0.995,-0.89,-0.664,"
    "-0.349,0.014,0.374,0.684,0.902,0.997,0.957,0.788,0.512,0.167,-0.201,"
    "-0.541,-0.809,-0.967,-0.994,-0.886,-0.659,-0.342,0.02,0.381,0.689,"
    "0.905,0.998,0.955,0.784,0.507,0.16,-0.207,-0.547,-0.813,-0.968,-0.993")


def esql_knn(sf_dir: str):
    """ES|QL KNN function (x-pack esql vector Knn.java, 8.19 experimental):
    WHERE KNN(field, query_vector, {"k": n}) + METADATA _score. One exact
    float64 cosine top-k pass (per-batch partial top-k, driver merges
    batches x k candidate rows), then the row stream is filtered by the
    matched vec_id set; _score = (1 + cosine)/2, the dense_vector cosine
    score convention."""
    from ..functions import esql

    return esql.run(sf_dir, f'''
        FROM embeddings METADATA _score
        | WHERE KNN(embedding, [{_ESQL_QVEC}], {{"k": 10}})
        | EVAL _score = ROUND(_score, 4)
        | SORT _score DESC, vec_id
        | LIMIT 10
        | KEEP vec_id, _score
    ''')


def esql_vector_functions(sf_dir: str):
    """ES|QL dense-vector scalar functions (8.19 experimental vector family:
    V_COSINE / V_DOT_PRODUCT / V_L1_NORM / V_L2_NORM / V_MAGNITUDE): one
    (n, d) float64 matrix kernel per batch — no per-row Python. Aggregated
    to per-label means so the oracle compares the whole table without a
    row-cardinality result."""
    from ..functions import esql

    out = esql.run(sf_dir, f'''
        FROM embeddings
        | EVAL cos = V_COSINE(embedding, [{_ESQL_QVEC}]),
               dot = V_DOT_PRODUCT(embedding, [{_ESQL_QVEC}]),
               l1 = V_L1_NORM(embedding, [{_ESQL_QVEC}]),
               l2 = V_L2_NORM(embedding, [{_ESQL_QVEC}]),
               mag = V_MAGNITUDE(embedding)
        | STATS avg_cos = AVG(cos), avg_dot = AVG(dot), avg_l1 = AVG(l1),
                avg_l2 = AVG(l2), avg_mag = AVG(mag) BY label
        | SORT label
    ''')
    for c in ("avg_cos", "avg_dot", "avg_l1", "avg_l2", "avg_mag"):
        out[c] = round_half_away(out[c].to_numpy(), 4)
    return out


def eql_head_pipe(sf_dir: str):
    """EQL single-event query with head pipe (x-pack eql EqlParser: `<cat>
    where <cond> | head n`): pruned read, vectorized predicate, per-batch
    partial top-n on (ts, event_id), driver merges batches x n rows."""
    from ..functions import eql

    return eql.run(sf_dir, 'purchase where value > 40 | head 5')


def eql_sequence_three(sf_dir: str):
    """EQL 3-step sequence (`sequence by user_id with maxspan=2d [click]
    [view] [purchase]`): first-match chain per anchor — for each click the
    earliest later view, then the earliest later purchase, valid when the
    whole chain fits in maxspan. One groupby co-partitions each user's
    events; the chain is a vectorized searchsorted cascade."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      sequence by user_id with maxspan=2d
        [ click where true ] [ view where true ] [ purchase where true ]
    ''')


def eql_until(sf_dir: str):
    """EQL sequence with until (SequenceMatcher until semantics): a chain
    is dropped when the until event fires between its first and last
    step."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      sequence by user_id with maxspan=2d
        [ click where true ] [ purchase where true ]
      until [ error where true ]
    ''')


def esql_over_time(sf_dir: str):
    """ES|QL nested time-series aggregates OUTER(INNER_OVER_TIME(col))
    (8.19 TS functions): inner per-series reduce (the _tsid analog =
    user_id + BY keys) in integer cents, outer combine across series.
    Scale shape: per-batch partial per-series combiner, driver merges a
    series-cardinality table — never rows, never a shuffle."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        TS events
        | STATS s = SUM(AVG_OVER_TIME(value)), mx = MAX(MAX_OVER_TIME(value)),
                c = SUM(COUNT_OVER_TIME(value)), l = AVG(LAST_OVER_TIME(value))
          BY day = DATE_FORMAT("yyyy-MM-dd", DATE_TRUNC("day", ts))
        | SORT day
        | LIMIT 40
    ''')
    for c in ("s", "mx", "l"):
        out[c] = round_half_away(out[c].to_numpy(), 4)
    return out


def esql_like_list(sf_dir: str):
    """LIKE/RLIKE pattern lists (8.16 WildcardLike list form): any-match
    semantics compiled to ONE alternation regex per batch."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | WHERE event_type LIKE ("c*", "p*") AND props RLIKE (".*1.*", ".*7.*")
        | STATS n = COUNT(*) BY event_type
        | SORT event_type
    ''')


def sql_fulltext_score(sf_dir: str):
    """_sql full-text predicates (x-pack sql fulltext MatchQueryPredicate +
    Score function): MATCH(field, 'query') compiles to ONE pushed index
    query; SCORE() projects the relevance onto the surviving rows. The
    scalar conjunct stays a scan-level filter."""
    from ..functions.sql import run_sql

    out = run_sql(
        "SELECT doc_id, SCORE() AS score FROM documents "
        "WHERE MATCH(text, 'data query window') AND n_chars > 150 "
        "ORDER BY doc_id LIMIT 100000", sf_dir, ds_factory=_ds)
    out = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    out["score"] = round_half_away(out["score"].to_numpy(np.float64), 4)
    return out


def sql_fulltext_agg(sf_dir: str):
    """_sql QUERY('lucene string') predicate (StringQueryPredicate) feeding
    a GROUP BY plan: the matched-id filter runs before the per-batch
    partial combiners, so the exchange stays group-cardinality."""
    from ..functions.sql import run_sql

    return run_sql(
        "SELECT lang, COUNT(*) AS n FROM documents "
        "WHERE QUERY('data AND NOT window') GROUP BY lang ORDER BY lang",
        sf_dir, ds_factory=_ds)


# ------------- ingest plugin processors (7.12-7.13 additions) -------------


def ingest_uri_parts(sf_dir: str):
    """uri_parts processor (UriPartsProcessor, ingest-common 7.12): one
    pc.extract_regex pass splits scheme/user_info/domain/port/path/query/
    fragment/extension. URIs synthesized deterministically from document
    fields (port present for doc_id%3==0, user info for doc_id%5==0) so the
    oracle can state the expected parse as CASE arms."""
    from ..functions import ingest as I

    def build(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        d = t["doc_id"].to_numpy(zero_copy_only=False)
        userinfo = pa.array(np.where(d % 5 == 0, "u@", "").tolist(),
                            pa.string())
        port = pa.array(np.where(d % 3 == 0, ":8080", "").tolist(),
                        pa.string())
        uri = pc.binary_join_element_wise(
            "https://", userinfo, t["source"], ".example.co.uk", port,
            "/files/doc", pc.cast(t["doc_id"], pa.string()),
            ".html?lang=", t["lang"], "")
        return t.append_column("uri", uri)

    out = (_ds(sf_dir, "documents", ["doc_id", "source", "lang"])
           .map_batches(build, batch_format="pyarrow")
           .map_batches(I.uri_parts("uri"), batch_format="pyarrow")
           .to_pandas())
    out = out[["doc_id", "url_scheme", "url_user_info", "url_domain",
               "url_port", "url_path", "url_query", "url_extension"]]
    return out.sort_values("doc_id").reset_index(drop=True)


def ingest_registered_domain(sf_dir: str):
    """registered_domain processor (RegisteredDomainProcessor, 7.13):
    eTLD / registered domain / subdomain with PSL longest-match, one
    alternation regex per batch."""
    from ..functions import ingest as I

    def build(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        m = t["doc_id"].to_numpy(zero_copy_only=False) % 4
        src = t["source"].to_pylist()
        host = [f"www.{s}.co.uk" if k == 0 else
                f"a.b.{s}.github.io" if k == 1 else
                f"{s}.com" if k == 2 else f"cdn.{s}.org"
                for s, k in zip(src, m)]
        return t.append_column("host", pa.array(host, pa.string()))

    out = (_ds(sf_dir, "documents", ["doc_id", "source"])
           .map_batches(build, batch_format="pyarrow")
           .map_batches(I.registered_domain("host"), batch_format="pyarrow")
           .to_pandas())
    out = out[["doc_id", "registered_domain", "subdomain",
               "top_level_domain"]]
    return out.sort_values("doc_id").reset_index(drop=True)


def ingest_network_direction(sf_dir: str):
    """network_direction processor (NetworkDirectionProcessor, 7.13):
    vectorized u32 CIDR membership of both endpoints -> inbound/outbound/
    internal/external; aggregated to direction counts."""
    from ..functions import ingest as I

    def build(t: pa.Table) -> pa.Table:
        import numpy as np

        u = t["user_id"].to_numpy(zero_copy_only=False)
        e = t["event_id"].to_numpy(zero_copy_only=False)
        src = np.where(u % 3 == 0,
                       np.char.add(np.char.add("10.", (u % 200).astype(str)),
                                   ".0.1"),
                       np.char.add("203.0.113.", (u % 250).astype(str)))
        dst = np.where(e % 2 == 0,
                       np.char.add(np.char.add("192.168.",
                                               (e % 250).astype(str)), ".9"),
                       np.full(len(e), "8.8.8.8"))
        t = t.append_column("src", pa.array(src.tolist(), pa.string()))
        return t.append_column("dst", pa.array(dst.tolist(), pa.string()))

    ds = (_ds(sf_dir, "events", ["event_id", "user_id"])
          .map_batches(build, batch_format="pyarrow")
          .map_batches(I.network_direction("src", "dst"),
                       batch_format="pyarrow"))

    def partial(t: pa.Table) -> pa.Table:
        return (t.select(["direction"]).group_by(["direction"])
                .aggregate([([], "count_all")])
                .rename_columns(["direction", "n"]))

    from ray.data.aggregate import Sum

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("direction").aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    return out.sort_values("direction").reset_index(drop=True)


def ingest_community_id(sf_dir: str):
    """community_id processor (CommunityIdProcessor, 7.12): Corelight
    community-id v1 flow hash (sha1 not SQL-expressible in DuckDB ->
    rows-only gate; the spec's published vector is pytest-checked)."""
    from ..functions import ingest as I

    def build(t: pa.Table) -> pa.Table:
        import numpy as np

        u = t["user_id"].to_numpy(zero_copy_only=False)
        e = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.append_column("src", pa.array(
            ["10.0.%d.%d" % (x % 200, x % 250 + 1) for x in u], pa.string()))
        t = t.append_column("dst", pa.array(
            ["192.168.%d.%d" % (x % 200, x % 250 + 1) for x in e],
            pa.string()))
        t = t.append_column("sp", pa.array((u % 50000 + 1024).tolist(),
                                           pa.int64()))
        return t.append_column("dp", pa.array((e % 1000 + 80).tolist(),
                                              pa.int64()))

    out = (_ds(sf_dir, "events", ["event_id", "user_id"])
           .map_batches(build, batch_format="pyarrow")
           .map_batches(I.community_id("src", "dst", "sp", "dp"),
                        batch_format="pyarrow")
           .to_pandas())
    out = out[["event_id", "community_id"]]
    return out.sort_values("event_id").reset_index(drop=True)


# ------------- retrievers framework (8.16 _search retriever tree) ---------


def retriever_rrf_tree(sf_dir: str):
    """retriever tree: rrf of two standard retrievers (RRFRetrieverBuilder
    over StandardRetrieverBuilder children). Leaves run once on the index;
    fusion touches the two rank_window_size lists only."""
    from ..search.retriever import execute_retriever

    return execute_retriever(sf_dir, {"rrf": {
        "rank_constant": 60, "rank_window_size": 50,
        "retrievers": [
            {"standard": {"query": {"kind": "match",
                                    "text": "slow merge batch"}}},
            {"standard": {"query": {"kind": "term", "term": "data"}}},
        ]}}, k=5)


def retriever_linear(sf_dir: str):
    """retriever tree: linear fuse (LinearRetrieverBuilder, 8.18) of a BM25
    leg and a kNN leg, minmax-normalized over each 50-row window, weights
    0.7/0.3. doc_id/vec_id spaces align by corpus construction."""
    from ..search.retriever import execute_retriever

    qv = [float(x) for x in _ESQL_QVEC.split(",")]
    return execute_retriever(sf_dir, {"linear": {
        "rank_window_size": 50,
        "retrievers": [
            {"retriever": {"standard": {"query": {
                "kind": "match", "text": "data query"}}},
             "weight": 0.7, "normalizer": "minmax"},
            {"retriever": {"knn": {"query_vector": qv, "k": 50}},
             "weight": 0.3, "normalizer": "minmax"},
        ]}}, k=5)


def retriever_rerank(sf_dir: str):
    """retriever tree: text_similarity_reranker (8.15) over a standard
    child — the top-20 window rescored by the deterministic overlap mock
    (|distinct query tokens ∩ doc tokens|), texts fetched through one
    doc-id-filtered pruned read."""
    from ..search.retriever import execute_retriever

    return execute_retriever(sf_dir, {"text_similarity_reranker": {
        "retriever": {"standard": {"query": {
            "kind": "match", "text": "data query window"}}},
        "inference_text": "the data batch query window",
        "rank_window_size": 20}}, k=5)


def esql_top(sf_dir: str):
    """ES|QL TOP(col, k, order) aggregate (Top.java, 8.16): multivalue
    top-k per group. Per-batch partial top-k per group; the driver merges
    (batches x groups x k) rows. Integer cents so the joined-list oracle
    string is formatting-stable."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | EVAL v = TO_INTEGER(ROUND(value * 100, 0))
        | STATS t = TOP(v, 3, "desc") BY event_type
        | SORT event_type
    ''')
    out["t"] = out["t"].map(lambda xs: ",".join(str(int(x)) for x in xs))
    return out


def esql_fuse_linear(sf_dir: str):
    """FUSE linear method (8.19): per-branch minmax normalization over the
    LIMITed FORK windows, summed — the score-based alternative to RRF."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | FORK ( RERANK "the data batch query" ON text
                 | SORT _score DESC, doc_id | KEEP doc_id, _score
                 | LIMIT 20 )
               ( RERANK "error value count" ON text
                 | SORT _score DESC, doc_id | KEEP doc_id, _score
                 | LIMIT 20 )
        | FUSE linear
        | LIMIT 10
    ''')


def text_structure_delimited(sf_dir: str):
    """_text_structure/find_structure (x-pack text-structure, 7.13) on a
    delimited sample: delimiter + header detection and per-column ES type
    inference over a bounded sample (the reference's lines_to_sample cap);
    the result configures the CSV fragment reader that then streams the
    full corpus."""
    from ..sources.structure import find_structure

    df = (_ds(sf_dir, "events",
              ["event_id", "ts", "user_id", "event_type", "value"])
          .limit(200).to_pandas())
    lines = ["event_id,ts,user_id,event_type,value"]
    for r in df.itertuples(index=False):
        ts = pd.Timestamp(r.ts).isoformat()
        lines.append(f"{r.event_id},{ts},{r.user_id},{r.event_type},"
                     f"{r.value}")
    st = find_structure(lines)
    assert st["format"] == "delimited" and st["has_header_row"]
    items = sorted(st["mappings"].items())
    return pd.DataFrame({"field": [k for k, _ in items],
                         "es_type": [v for _, v in items]})


def text_structure_ndjson(sf_dir: str):
    """find_structure on an NDJSON sample: every line parses as a JSON
    object; field union + type inference (dates, longs, keyword-vs-text
    prose heuristic)."""
    import json

    from ..sources.structure import find_structure

    df = (_ds(sf_dir, "documents",
              ["doc_id", "lang", "source", "n_chars", "text"])
          .limit(200).to_pandas())
    lines = [json.dumps({
        "doc_id": int(r.doc_id), "lang": r.lang, "source": r.source,
        "n_chars": int(r.n_chars), "text": r.text}, sort_keys=True)
        for r in df.itertuples(index=False)]
    st = find_structure(lines)
    assert st["format"] == "ndjson"
    items = sorted(st["mappings"].items())
    return pd.DataFrame({"field": [k for k, _ in items],
                         "es_type": [v for _, v in items]})


def esql_multi_index(sf_dir: str):
    """ES|QL multi-index / cross-cluster FROM (EsqlParser indexPattern:
    `events,remote:events`) with METADATA _index: each pattern resolves to
    its own pruned read, per-source _index tag appended per batch, and the
    union streams through the shared STATS combiner — no materialization
    at the union point."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events,remote:events METADATA _index
        | STATS c = COUNT(*) BY _index, event_type
        | SORT _index, event_type
    ''')


def esql_stats_expression(sf_dir: str):
    """Expression arguments inside STATS aggregates (EsqlParser allows any
    scalar expression, e.g. the TPC-H Q1 revenue term): lowered to a
    hidden per-batch EVAL column before the partial combiner — one extra
    vectorized kernel pass, no change to the exchange. Integer-cents
    products keep the fold bit-identical to the oracle."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM lineitem
        | STATS rev = SUM(ROUND(l_extendedprice * 100, 0)
                          * ROUND((1 - l_discount) * 100, 0)),
                n = COUNT(*)
          BY l_returnflag
        | SORT l_returnflag
    ''')
    out["rev"] = round_half_away(out["rev"].to_numpy(np.float64) / 1e4, 2)
    return out


def agg_bucket_correlation(sf_dir: str):
    """bucket_correlation pipeline agg (x-pack ML
    BucketCorrelationAggregationBuilder, 7.14, function=count_correlation):
    Pearson r between the per-day doc_count curve of a date_histogram and
    an indicator metric curve (here: per-day sum of floor(value), an
    integer so the partial sums are order-invariant). Day bucketing +
    integer partials happen per batch; ONE bucket-cardinality groupby is
    the only exchange; the driver derives r from exact integer sums with
    the same literal double expression as the SQL twin.
    Ref: x-pack/plugin/ml/src/main/java/org/elasticsearch/xpack/ml/
    aggs/correlation/BucketCorrelationAggregationBuilder.java."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        vf = pc.cast(pc.floor(t["value"]), pa.int64())
        return pa.table({"bucket": b, "vf": vf})

    g = (_ds(sf_dir, "events", ["ts", "value"])
         .map_batches(bucketize, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Count(alias_name="doc_count"),
                    Sum("vf", alias_name="s"))
         .to_pandas())
    # exact integer moments (python ints: no overflow, no fp order issues)
    xs = [int(v) for v in g["doc_count"]]
    ys = [int(v) for v in g["s"]]
    n = float(len(xs))
    sx, sy = float(sum(xs)), float(sum(ys))
    sxx = float(sum(x * x for x in xs))
    syy = float(sum(y * y for y in ys))
    sxy = float(sum(x * y for x, y in zip(xs, ys)))
    r = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx)
                                      * (n * syy - sy * sy))
    return pd.DataFrame({
        "n_buckets": pd.array([len(xs)], dtype="int64"),
        "correlation": [float(round_half_away(r, 6))],
    })


def agg_bucket_count_ks_test(sf_dir: str):
    """bucket_count_ks_test pipeline agg (x-pack ML
    BucketCountKSTestAggregationBuilder, 7.14): Kolmogorov-Smirnov
    statistics of the per-day doc_count distribution against the uniform
    fractions, alternatives two_sided / less / greater (the reference
    compares a sibling agg's bucket counts against caller-supplied
    `fractions`; uniform is its documented default). The empirical CDF
    comes from ONE day-bucket groupby; statistics are derived on the
    bucket-cardinality table with the same double expressions as SQL.
    Ref: x-pack/plugin/ml/.../aggs/kstest/
    BucketCountKSTestAggregationBuilder.java."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        return pa.table({"bucket": b})

    g = (_ds(sf_dir, "events", ["ts"])
         .map_batches(bucketize, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Count(alias_name="doc_count"))
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    c = g["doc_count"].to_numpy(np.int64)
    n = len(c)
    total = float(c.sum())
    ecdf = np.cumsum(c).astype(np.float64) / total
    unif = np.arange(1, n + 1, dtype=np.float64) / float(n)
    return pd.DataFrame({
        "n_buckets": pd.array([n], dtype="int64"),
        "d_two_sided": [float(round_half_away(np.abs(ecdf - unif).max(), 6))],
        "d_less": [float(round_half_away((unif - ecdf).max(), 6))],
        "d_greater": [float(round_half_away((ecdf - unif).max(), 6))],
    })


def agg_inference_regression(sf_dir: str):
    """inference pipeline agg (x-pack ml InferencePipelineAggregationBuilder,
    7.9): run a pretrained regression model over each bucket's metrics.
    Buckets = terms(source) with doc_count + sum(n_chars) partials (ONE
    group-cardinality exchange); the "model" is a fixed linear regression
    (the reference ships the model in cluster state and broadcasts it to
    each node — here the coefficients live in the task closure) applied
    to [avg_chars, log(doc_count)]. Derived doubles use the same literal
    expressions as the SQL twin. Ref: x-pack/plugin/ml/.../inference/
    aggs/InferencePipelineAggregationBuilder.java."""
    from ray.data.aggregate import Count, Sum

    # regression weights: intercept, per-feature coefficients
    B0, B1, B2 = 12.5, 0.75, -3.25

    g = (_ds(sf_dir, "documents", ["source", "n_chars"])
         .groupby("source")
         .aggregate(Count(alias_name="doc_count"),
                    Sum("n_chars", alias_name="s"))
         .to_pandas().sort_values("source").reset_index(drop=True))
    avg = g["s"].to_numpy(np.float64) / g["doc_count"].to_numpy(np.float64)
    pred = B0 + B1 * avg + B2 * np.log(g["doc_count"].to_numpy(np.float64))
    return pd.DataFrame({
        "source": g["source"],
        "doc_count": g["doc_count"].astype("int64"),
        "avg_chars": round_half_away(avg, 6),
        "predicted": round_half_away(pred, 6),
    })


def painless_execute(sf_dir: str):
    """_scripts/painless/_execute API (x-pack painless
    PainlessExecuteAction, 6.3+; contexts painless_test / filter /
    score): each context runs the sandboxed AST-whitelist evaluator
    (scripting.safe_eval_expr — the Painless-sandbox analog; attribute
    access and subscripts rejected outright) against the request params
    and, for filter/score contexts, a single test document supplied via
    ContextSetup — fetched here with a doc_id-filtered row-group point
    read, never a scan. One row per context; filter returns 0/1."""
    import pyarrow.dataset as pds

    from ..scripting import safe_eval_expr

    doc = (_ds(sf_dir, "documents", ["doc_id", "n_chars"],
               flt=(pds.field("doc_id") == 7)).to_pandas())
    n_chars = float(doc["n_chars"][0])

    test_v = float(safe_eval_expr("a * b + 2", {"a": 10.0, "b": 3.0}))
    filt_v = 1.0 if bool(safe_eval_expr("n_chars > 120",
                                        {"n_chars": n_chars})) else 0.0
    score_v = float(round_half_away(
        safe_eval_expr("log(2.0 + n_chars) * 1.5",
                       {"n_chars": n_chars, "log": np.log}), 6))
    out = pd.DataFrame({
        "context": ["painless_test", "filter", "score"],
        "value": [test_v, filt_v, score_v],
    })
    return out.sort_values("context").reset_index(drop=True)


def reload_search_analyzers(sf_dir: str):
    """_reload_search_analyzers API (7.3, x-pack core
    ReloadAnalyzersAction + `updateable: true` synonym token filters):
    index-time tokens are untouched; the reload swaps only the SEARCH
    analyzer's synonym set, changing query expansion for subsequent
    searches (the reference re-reads the synonyms file on each node and
    rebuilds the SynonymGraphFilter). Phase `before`: query `fast` with
    the v1 search analyzer (no synonyms). Phase `after`: the reloaded
    v2 set installs the equivalence group `fast, slow`, so the analyzed
    query expands to the should-OR of the group — exactly the multi-term
    graph the reference's reloaded filter emits. One engine query per
    phase (match-membership, score-free so the oracle is token algebra);
    results are per-phase (phase, doc_id) rows."""
    from .fulltext import all_matches

    synonyms_v1: dict[str, list[str]] = {}
    synonyms_v2 = {"fast": ["fast", "slow"]}  # the reloaded synonyms file

    def q_for(syn: dict[str, list[str]]) -> dict:
        toks = syn.get("fast", ["fast"])
        if len(toks) == 1:
            return {"kind": "term", "term": toks[0]}
        return {"kind": "bool",
                "should": [{"kind": "term", "term": t} for t in toks]}

    frames = []
    for phase, syn in (("before", synonyms_v1), ("after", synonyms_v2)):
        t = all_matches(sf_dir, q_for(syn), with_score=False)
        frames.append(pd.DataFrame({
            "phase": phase, "doc_id": t["doc_id"].to_numpy()}))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["phase", "doc_id"]).reset_index(drop=True)


def esql_show_info(sf_dir: str):
    """ES|QL SHOW INFO (EsqlParser showCommand -> ShowInfo plan node):
    constant build-metadata row, composable with downstream commands."""
    from ..functions import esql

    return esql.run(sf_dir, "SHOW INFO | KEEP version, hash")


# ---------------- x-pack spatial: cartesian `shape` field + queries and the
# circle ingest processor (ShapeQueryBuilder, SpatialUtils) -----------------

# planar (x, y) query quadrilateral, CCW convex — raw cartesian units, not
# lon/lat (the `shape` field type is unbounded planar geometry)
_SHAPE_CART_WKT = ("POLYGON ((100 100, 800 200, 700 800, 150 700, 100 100))")


def _cart_points(t: pa.Table) -> pa.Table:
    """deterministic synthetic planar coordinates derived from p_partkey
    (the indexed `shape` docs — POINT geometry in cartesian space)."""
    k = t["p_partkey"].to_numpy()
    x = ((k * 7919) % 1000).astype(np.float64) + 0.5
    y = ((k * 104729) % 1000).astype(np.float64) + 0.5
    return (t.append_column("x", pa.array(x))
            .append_column("y", pa.array(y)))


def shape_cartesian_points(sf_dir: str):
    """`shape` query, INTERSECTS relation over cartesian POINTs (x-pack
    spatial ShapeQueryBuilder + ShapeFieldMapper, 7.4 — the planar twin of
    geo_shape; same WKT grammar, unprojected x/y math). Vectorized
    crossing-number point-in-polygon per batch; the oracle re-derives the
    convex query's half-planes as inline arithmetic."""
    from ..geo import parse_wkt, points_in_polygon

    _, geom = parse_wkt(_SHAPE_CART_WKT)

    def filt(t: pa.Table) -> pa.Table:
        g = _cart_points(t)
        keep = points_in_polygon(geom, g["x"].to_numpy(), g["y"].to_numpy())
        return g.select(["p_partkey", "x", "y"]).filter(pa.array(keep))

    out = (_ds(sf_dir, "part", ["p_partkey"])
           .map_batches(filt, batch_format="pyarrow").to_pandas())
    return out.sort_values("p_partkey").reset_index(drop=True)


def shape_cartesian_disjoint(sf_dir: str):
    """`shape` query, DISJOINT relation over cartesian BOXes (per-part
    axis-aligned envelope, half-size 5 + p_partkey % 7 planar units):
    separating-axis test against the convex quadrilateral, vectorized per
    batch — identical kernel family to the geo_shape path but in raw
    planar units (no degree clamping)."""
    from ..geo import boxes_intersect_convex, parse_wkt

    _, geom = parse_wkt(_SHAPE_CART_WKT)

    def filt(t: pa.Table) -> pa.Table:
        g = _cart_points(t)
        k = g["p_partkey"].to_numpy()
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        half = (5 + (k % 7)).astype(np.float64)
        blo = np.stack([x - half, y - half], axis=1)
        bhi = np.stack([x + half, y + half], axis=1)
        keep = ~boxes_intersect_convex(geom[0], blo, bhi)
        return g.select(["p_partkey", "x", "y"]).filter(pa.array(keep))

    out = (_ds(sf_dir, "part", ["p_partkey"])
           .map_batches(filt, batch_format="pyarrow").to_pandas())
    return out.sort_values("p_partkey").reset_index(drop=True)


def ingest_circle(sf_dir: str):
    """circle ingest processor (x-pack spatial CircleProcessor, 7.4 —
    SpatialUtils.createRegularShapePolygon): approximates each CIRCLE as a
    regular polygon whose side count is derived from the configured
    error_distance: n = clamp(ceil(pi / acos(1 - err / radius)), 4, 1000),
    vertices at center + r * (cos, sin)(2*pi*i/n). Circles are synthetic
    per-supplier (center from s_suppkey, radius 5 + s_suppkey % 5, err=1);
    the whole explode is one vectorized repeat/tile pass per batch — one
    output row per vertex, exactly what the reference writes into the
    shape field."""
    def explode(t: pa.Table) -> pa.Table:
        k = t["s_suppkey"].to_numpy()
        cx = ((k * 13) % 200).astype(np.float64) - 100 + 0.5
        cy = ((k * 29) % 200).astype(np.float64) - 100 + 0.5
        r = (5 + (k % 5)).astype(np.float64)
        err = 1.0
        n = np.ceil(np.pi / np.arccos(1.0 - err / r)).astype(np.int64)
        n = np.clip(n, 4, 1000)
        reps = n.astype(np.int64)
        kk = np.repeat(k, reps)
        cxx = np.repeat(cx, reps)
        cyy = np.repeat(cy, reps)
        rr = np.repeat(r, reps)
        nn = np.repeat(n, reps)
        idx = np.concatenate([np.arange(m) for m in reps]) if len(reps) \
            else np.empty(0, np.int64)
        theta = 2 * np.pi * idx / nn
        return pa.table({
            "s_suppkey": pa.array(kk, pa.int64()),
            "n_sides": pa.array(nn, pa.int64()),
            "vertex": pa.array(idx.astype(np.int64), pa.int64()),
            "vx": pa.array(round_half_away(cxx + rr * np.cos(theta), 6)),
            "vy": pa.array(round_half_away(cyy + rr * np.sin(theta), 6)),
        })

    out = (_ds(sf_dir, "supplier", ["s_suppkey"])
           .map_batches(explode, batch_format="pyarrow").to_pandas())
    return out.sort_values(["s_suppkey", "vertex"]).reset_index(drop=True)


def eql_sample(sf_dir: str):
    """EQL `sample by` (x-pack eql SampleIterator, 8.6): unordered join —
    every user with at least one qualifying event per filter, one
    deterministic representative event per filter (earliest ts, event_id).
    Order-irrelevant by spec, so no searchsorted chain — just step masks,
    ONE key groupby, and a per-group vectorized first-pick."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      sample by user_id
        [ click where value > 80 ] [ error where value < 20 ]
        [ signup where true ]
    ''')


def indices_resize(sf_dir: str):
    """_split / _shrink resize API (server/.../admin/indices/shrink/
    ResizeRequest, TransportResizeAction + OperationRouting
    .generateShardId): an index carries routing_num_shards R (here 12, a
    multiple of every shard count it can resize to); with S shards a doc
    routes to floorMod(murmur3(routing), R) // (R // S). _split 3 -> 6
    re-derives the SAME formula with S=6, which guarantees each parent
    shard p fans out to exactly children {2p, 2p+1} — no data movement
    decisions, pure hash arithmetic (that is why the reference implements
    split as hard-links + per-shard delete-by-routing). Routing key =
    documents.source; per batch the 20 distinct keys are hashed once and
    gathered; ONE (shard3, shard6)-cardinality groupby is the only
    exchange. The row-wise shard6 // 2 == shard3 invariant doubles as the
    shrink (6 -> 3) mapping."""
    from ray.data.aggregate import Count

    from ..index.routing import routing_hash

    R = 12

    def route(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(src, return_inverse=True)
        h = np.array([routing_hash(str(u)) for u in uniq], np.int64)[inv]
        fm = ((h % R) + R) % R
        return pa.table({
            "shard_3": pa.array(fm // (R // 3), pa.int64()),
            "shard_6": pa.array(fm // (R // 6), pa.int64()),
        })

    out = (_ds(sf_dir, "documents", ["source"])
           .map_batches(route, batch_format="pyarrow")
           .groupby(["shard_3", "shard_6"])
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return (out.sort_values(["shard_3", "shard_6"])
            .reset_index(drop=True)[["shard_3", "shard_6", "doc_count"]])


def sql_pivot(sf_dir: str):
    """_sql PIVOT clause (x-pack sql 7.5, ql plan/logical/Pivot): rotate
    the IN-listed source values into columns of per-lang average doc
    length. Distributed GROUP BY (lang, source) partial combiner; the
    rotation itself reshapes only the reduced group table on the driver.
    avg derives from integer (sum, count) partials, so it matches the
    oracle's CASE-filtered avg bit-for-bit before the 6 dp snap."""
    from ..functions.sql import run_sql

    sql = ("SELECT * FROM (SELECT lang, source, n_chars FROM documents) "
           "PIVOT (AVG(n_chars) FOR source IN "
           "('src0', 'src1', 'src2', 'src3')) ORDER BY lang")
    out = run_sql(sql, sf_dir, ds_factory=_ds)
    for c in ("src0", "src1", "src2", "src3"):
        out[c] = round_half_away(out[c].to_numpy(np.float64), 6)
    return out


def esql_mv_functions2(sf_dir: str):
    """ES|QL 8.14-8.15 multivalue additions (x-pack esql MvPercentile /
    MvPSeriesWeightedSum): MV_PERCENTILE is exact per-row linear
    interpolation on the sorted list (one lexsort — NOT the agg's
    t-digest), MV_PSERIES_WEIGHTED_SUM is the rank-decay sum
    value_i/(i+1)^p in list order (one reduceat). Both run over the
    embeddings list<float> column, segment-vectorized."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM embeddings
        | EVAL p90 = ROUND(MV_PERCENTILE(embedding, 90.0), 6),
               med = ROUND(MV_PERCENTILE(embedding, 50.0), 6),
               decay = ROUND(MV_PSERIES_WEIGHTED_SUM(embedding, 1.5), 6)
        | KEEP vec_id, p90, med, decay
        | SORT vec_id
        | LIMIT 2000
    ''')


def esql_mv_zip(sf_dir: str):
    """ES|QL MV_ZIP (x-pack esql MvZip, 8.14): element-wise join of two
    lists with a delimiter; the longer list's unpaired tail passes
    through (binary_join_element_wise null_handling=skip). ROW-source
    conformance pipeline — the reference documents exactly this
    tail-pass-through shape."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        ROW a = SPLIT("x y z", " "), b = SPLIT("p q", " ")
        | EVAL zipped = MV_CONCAT(MV_ZIP(a, b, "+"), "|"),
               rev = MV_CONCAT(MV_ZIP(b, a, "+"), "|")
        | KEEP zipped, rev
    ''')


def corpus_kl_drift(sf_dir: str):
    """Per-source distribution drift (LLM corpus diagnostics; the
    KL-divergence drift monitor of CCNet/RedPajama-style curation):
    KL(P_source || P_corpus) over unigram term distributions. Per-batch
    (source, term) counts via one findall + explode (C-level), ONE
    (source x term)-cardinality groupby is the only exchange, and the
    per-source reduction uses the same literal double expressions as the
    SQL twin."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z0-9]+")
        ex = (df[["source"]].join(toks.rename("term"))
              .explode("term").dropna())
        g = ex.groupby(["source", "term"]).size().rename("cnt")
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    c = (_ds(sf_dir, "documents", ["source", "text"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["source", "term"])
         .aggregate(Sum("cnt", alias_name="cnt"))
         .to_pandas())
    n_src = c.groupby("source")["cnt"].transform("sum").to_numpy(np.float64)
    gc = c.groupby("term")["cnt"].transform("sum").to_numpy(np.float64)
    big_n = float(c["cnt"].sum())
    p = c["cnt"].to_numpy(np.float64) / n_src
    q = gc / big_n
    c["contrib"] = p * np.log(p / q)
    out = (c.groupby("source", as_index=False)["contrib"].sum()
           .rename(columns={"contrib": "kl"}))
    out["kl"] = round_half_away(out["kl"].to_numpy(np.float64), 6)
    return out.sort_values("source").reset_index(drop=True)


def corpus_zipf_slope(sf_dir: str):
    """Zipf-law fit of the corpus unigram distribution (LLM corpus
    diagnostics — natural text tracks slope ~ -1; strong deviation flags
    boilerplate or synthetic content): least-squares slope/intercept of
    ln(freq) on ln(rank) over the top-100 terms. Term counts come from
    per-batch partials + ONE term groupby; the fit runs on the 100-row
    driver table with the same literal expressions as the SQL twin."""
    tc = (count_terms(_ds(sf_dir, "documents", ["text"]), analyze_simple)
          .sort_values(["cnt", "term"], ascending=[False, True]).head(100))
    k = len(tc)
    x = np.log(np.arange(1, k + 1, dtype=np.float64))
    y = np.log(tc["cnt"].to_numpy(np.float64))
    n = float(k)
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = sy / n - slope * (sx / n)
    return pd.DataFrame({
        "n_terms": pd.array([k], dtype="int64"),
        "slope": [float(round_half_away(slope, 6))],
        "intercept": [float(round_half_away(intercept, 6))],
    })


def ingest_inference(sf_dir: str):
    """inference ingest processor (x-pack ml InferenceProcessor, 7.5:
    runs a trained model from cluster state on each doc, writing
    ml.inference.* fields): here the model is a fixed logistic-regression
    text classifier over term-frequency features — the same shape the
    reference's TargetMeanEncoding+LogisticRegression InferenceDefinition
    executes. The model (weights) ships in the task closure (the
    reference broadcasts it in cluster state); per batch ONE
    findall+explode builds the tf features and the sigmoid is one numpy
    kernel. Emits doc_id, ml_score, ml_class — no shuffle at all."""
    W = {"data": 0.8, "error": -1.2, "fast": 0.5, "slow": -0.7}
    B0 = -0.25

    def infer(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z0-9]+")
        ex = (df[["doc_id"]].join(toks.rename("term"))
              .explode("term").dropna())
        ex = ex[ex["term"].isin(W)]
        tf = (ex.groupby(["doc_id", "term"]).size().unstack(fill_value=0)
              .reindex(columns=list(W), fill_value=0)
              .reindex(df["doc_id"], fill_value=0))
        z = (B0 + W["data"] * tf["data"].to_numpy(np.float64)
             + W["error"] * tf["error"].to_numpy(np.float64)
             + W["fast"] * tf["fast"].to_numpy(np.float64)
             + W["slow"] * tf["slow"].to_numpy(np.float64))
        score = 1.0 / (1.0 + np.exp(-z))
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
            "ml_score": pa.array(round_half_away(score, 6)),
            "ml_class": pa.array(np.where(score >= 0.5, "positive",
                                          "negative")),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(infer, batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def cluster_reroute(sf_dir: str):
    """_cluster/reroute with explicit move commands
    (TransportClusterRerouteAction + AllocationCommands: `move` relocates
    a started shard to a named node, overriding the balancer until the
    next rebalance): applies `move shard 2 -> node-2` and `move shard 3
    -> node-0` on top of the deterministic balanced layout
    (allocation_explain). The layout table is shard-cardinality (the
    per-shard doc counts reduce through the same partial exchange);
    commands rewrite rows on the driver exactly like the reference's
    RoutingNodes mutation."""
    moves = {2: "node-2", 3: "node-0"}
    out = allocation_explain(sf_dir)[["shard", "docs", "node"]].copy()
    out["moved"] = out["shard"].isin(moves)
    out["node"] = [moves.get(int(s), n)
                   for s, n in zip(out["shard"], out["node"])]
    return out.sort_values("shard").reset_index(drop=True)


def transform_continuous(sf_dir: str):
    """Continuous transform with checkpoints (x-pack transform
    TransformCheckpoint + TransformIndexer sync on a time field): the
    first checkpoint materializes the aggregate over ts <= T1; the
    incremental run reads ONLY the (T1, T2] slice (scan-time pushdown =
    the reference's checkpoint range query on the sync field) and merges
    its partials into the stored state — never recomputing the full
    window. Gate returns the post-increment state, which must equal the
    full recompute over ts <= T2 (the oracle). Sums in integer cents so
    the merge is order-invariant."""
    import pyarrow.dataset as pds
    from ray.data.aggregate import Count, Sum

    T1 = pd.Timestamp("2024-01-20")
    T2 = pd.Timestamp("2024-01-27")

    def agg_slice(flt):
        def cents(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            v = pc.cast(pc.round(pc.multiply(t["value"], 100.0), 0),
                        pa.int64())
            return pa.table({"event_type": t["event_type"], "vc": v})

        return (_ds(sf_dir, "events", ["event_type", "ts", "value"],
                    flt=flt)
                .map_batches(cents, batch_format="pyarrow")
                .groupby("event_type")
                .aggregate(Count(alias_name="doc_count"),
                           Sum("vc", alias_name="vc"))
                .to_pandas())

    f = pds.field("ts")
    state = agg_slice(f <= T1)                       # checkpoint 1
    delta = agg_slice((f > T1) & (f <= T2))          # incremental slice
    merged = (pd.concat([state, delta], ignore_index=True)
              .groupby("event_type", as_index=False).sum())
    merged["doc_count"] = merged["doc_count"].astype("int64")
    merged["sum_value"] = round_half_away(
        merged["vc"].to_numpy(np.float64) / 100.0, 2)
    return (merged.sort_values("event_type").reset_index(drop=True)
            [["event_type", "doc_count", "sum_value"]])


def field_usage_stats(sf_dir: str):
    """_field_usage_stats API (RestFieldUsageStatsAction, 7.15: per-shard
    counters of which fields a query touched, by section — terms,
    postings, norms): the tracker walks each executed query's plan the
    way ShardFieldUsageTracker wraps the reader. Here the fixed 5-query
    workload is walked structurally (field -> sections it must read:
    scored text clauses touch terms+postings+norms, phrase/span add
    positions, metadata filters touch doc_values) and counts are
    per-shard (x4, the routed layout). Driver-small by construction."""
    workload = [
        {"kind": "term", "term": "data"},
        {"kind": "match", "text": "slow merge"},
        {"kind": "phrase", "phrase": ["fast", "table"]},
        {"kind": "bool", "must": [{"kind": "term", "term": "data"}],
         "filter": [{"kind": "meta_term", "field": "lang", "value": "en"}]},
        {"kind": "range", "field": "n_chars", "gte": 100},
    ]
    shards = 4
    counts: dict[tuple[str, str], int] = {}

    def touch(field, *sections):
        for s in sections:
            counts[(field, s)] = counts.get((field, s), 0) + shards

    def walk(q):
        k = q["kind"]
        if k in ("term", "match"):
            touch(q.get("field", "text"), "terms", "postings", "norms")
        elif k == "phrase":
            touch(q.get("field", "text"), "terms", "postings", "norms",
                  "positions")
        elif k == "meta_term":
            touch(q["field"], "doc_values")
        elif k == "range":
            touch(q["field"], "points")
        elif k == "bool":
            for part in ("must", "should", "must_not", "filter"):
                for c in q.get(part, []):
                    walk(c)

    for q in workload:
        walk(q)
    out = pd.DataFrame(
        [(f, s, c) for (f, s), c in counts.items()],
        columns=["field", "section", "count"])
    out["count"] = out["count"].astype("int64")
    return out.sort_values(["field", "section"]).reset_index(drop=True)


def rank_vectors_maxsim(sf_dir: str):
    """rank_vectors field + maxSimDotProduct scoring (8.18 x-pack
    rank-vectors; the ColBERT late-interaction shape): each doc holds
    MULTIPLE token vectors — here the 64-dim embedding reshaped to 4
    token vectors x 16 dims (deterministic synthetic multi-vector, the
    plumbing is what parity targets) — and the score against a
    multi-vector query is sum over query vectors of the MAX cosine over
    the doc's token vectors. Query = vec 0 and vec 1 reshaped the same
    way, broadcast once via the task closure; per batch ONE (n,4,16) x
    (16, 2*4) matmul + segmented max — no per-row Python. Top-20 by
    (score desc, vec_id)."""
    import pyarrow.parquet as pq

    qtab = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "in", [0, 1])])
    qm = np.asarray(
        [r.as_py() for r in qtab.sort_by("vec_id")["embedding"]],
        np.float64).reshape(2, 4, 16)
    qnorm = np.sqrt((qm * qm).sum(axis=2))  # (2, 4)

    def score(t: pa.Table) -> pa.Table:
        emb = np.asarray(
            [r for r in t["embedding"].to_pylist()], np.float64)
        if emb.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        d = emb.reshape(-1, 4, 16)
        dnorm = np.sqrt((d * d).sum(axis=2))  # (n, 4)
        # cos[i, dt, q, qt] = dot / (|d| * |q|), then maxSim = sum_q max_dt
        dots = np.einsum("idk,qtk->idqt", d, qm)
        cos = dots / (dnorm[:, :, None, None] * qnorm[None, None, :, :])
        s = cos.max(axis=1).sum(axis=(1, 2))
        return pa.table({
            "vec_id": pa.array(t["vec_id"].to_numpy(), pa.int64()),
            "score": pa.array(s, pa.float64()),
        })

    out = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(score, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["score", "vec_id"],
                          ascending=[False, True]).head(20)
    out["score"] = round_half_away(out["score"].to_numpy(np.float64), 6)
    return out.reset_index(drop=True)


def percolate_ranges(sf_dir: str):
    """percolator with range extractions (QueryAnalyzer's range handling:
    a stored range clause becomes a numeric extraction verified against
    the doc's field value, conjunctive with the query's term clauses;
    pure-range stored queries gate on the range itself). Three stored
    queries: term+range conjunction, pure range, msm-disjunction+range.
    Cost stays candidate-bounded — ranges verify as one vectorized
    compare per stored range per batch."""
    from ..functions.percolate import percolate_dataset

    queries = [
        (10, {"terms": ["data"],
              "ranges": [{"field": "n_chars", "lte": 150}]}),
        (11, {"ranges": [{"field": "n_chars", "gte": 400}]}),
        (12, {"terms": ["merge", "window", "batch"],
              "minimum_should_match": 2,
              "ranges": [{"field": "n_chars", "gte": 200,
                          "lte": 380}]}),
    ]
    return percolate_dataset(
        _ds(sf_dir, "documents", ["doc_id", "text", "n_chars"]), queries)


def geo_shape_indexed_polygons(sf_dir: str):
    """geo_shape with INDEXED polygon docs (GeoShapeFieldMapper stores the
    tessellated shape; this is the reverse of the query-polygon gates
    where docs were points/boxes): each supplier's stored shape is its
    circle-processor regular n-gon; the query is a 3-point set, relation
    INTERSECTS (point containment). Whole-batch vectorized: vertices for
    every doc at once, edge cross-products via one roll-within-group
    gather, per-doc all-edges test via minimum.reduceat — a point is
    inside the CCW convex n-gon iff every edge cross >= 0."""
    pts = [(0, -61.5, -17.5), (1, -0.5, -70.5), (2, 93.5, -29.5)]

    def filt(t: pa.Table) -> pa.Table:
        k = t["s_suppkey"].to_numpy()
        cx = ((k * 13) % 200).astype(np.float64) - 100 + 0.5
        cy = ((k * 29) % 200).astype(np.float64) - 100 + 0.5
        r = (5 + (k % 5)).astype(np.float64)
        n = np.clip(np.ceil(np.pi / np.arccos(1.0 - 1.0 / r)), 4,
                    1000).astype(np.int64)
        reps = n
        kk = np.repeat(k, reps)
        idx = (np.concatenate([np.arange(m) for m in reps])
               if len(reps) else np.empty(0, np.int64))
        nn = np.repeat(n, reps)
        theta = 2 * np.pi * idx / nn
        vx = np.repeat(cx, reps) + np.repeat(r, reps) * np.cos(theta)
        vy = np.repeat(cy, reps) + np.repeat(r, reps) * np.sin(theta)
        # next vertex within each polygon (roll-within-group)
        offs = np.concatenate([[0], np.cumsum(reps)])
        nxt = np.arange(len(idx)) + 1
        if len(reps):
            nxt[offs[1:] - 1] = offs[:-1]  # wrap each group's last -> first
        starts = offs[:-1]
        out_pid, out_key = [], []
        for pid, px, py in pts:
            cr = ((vx[nxt] - vx) * (py - vy)
                  - (vy[nxt] - vy) * (px - vx))
            if starts.size:
                inside = np.minimum.reduceat(cr, starts) >= -1e-9
            else:
                inside = np.zeros(0, bool)
            out_pid.append(np.full(int(inside.sum()), pid, np.int64))
            out_key.append(k[inside])
        return pa.table({
            "pid": pa.array(np.concatenate(out_pid), pa.int64()),
            "s_suppkey": pa.array(np.concatenate(out_key), pa.int64()),
        })

    out = (_ds(sf_dir, "supplier", ["s_suppkey"])
           .map_batches(filt, batch_format="pyarrow").to_pandas())
    return out.sort_values(["pid", "s_suppkey"]).reset_index(drop=True)


def semantic_chunked_search(sf_dir: str):
    """semantic_text CHUNKING semantics (8.15 x-pack inference
    SemanticTextField + ChunkedInference: long docs are split into
    overlapping word windows — here 20 tokens, stride 10 — each chunk is
    scored against the query independently, and the DOC's score is the
    MAX over its chunks). The scorer is the query-term-coverage count
    (exactly SQL-expressible, so the chunk plumbing gets an exact oracle
    — the embedding variant of the same plumbing is the rows-only
    semantic_search op). Vectorized: tokens explode once with positions;
    each token lands in <= 2 windows (20/10 overlap) via pure integer
    arithmetic; per-(doc, window) distinct-coverage is ONE groupby
    nunique; the per-doc max folds on the same frame."""
    W, S = 20, 10
    qterms = ["slow", "merge", "batch", "window"]

    def score(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z0-9]+")
        ex = df[["doc_id"]].join(toks.rename("term")).explode("term")
        ex = ex.dropna().reset_index(drop=True)
        ex["pos"] = ex.groupby("doc_id").cumcount()
        ex = ex[ex["term"].isin(qterms)]
        w0 = ex["pos"] // S
        frames = []
        for shift in (0, 1):
            e = ex.copy()
            e["w"] = w0 - shift
            e = e[(e["w"] >= 0) & (e["pos"] - e["w"] * S < W)]
            frames.append(e)
        both = pd.concat(frames, ignore_index=True)
        if both.empty:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        cov = (both.groupby(["doc_id", "w"])["term"].nunique()
               .reset_index(name="cov"))
        best = cov.groupby("doc_id", as_index=False)["cov"].max()
        return pa.table({
            "doc_id": pa.array(best["doc_id"].to_numpy(), pa.int64()),
            "score": pa.array(best["cov"].to_numpy(), pa.int64()),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(score, batch_format="pyarrow").to_pandas())
    out = out[out["score"] > 0]
    out = out.sort_values(["score", "doc_id"],
                          ascending=[False, True]).head(15)
    return out.reset_index(drop=True)


def autoscaling_capacity(sf_dir: str):
    """_autoscaling/capacity API (x-pack autoscaling
    ReactiveStorageDeciderService, 7.11): required storage = current
    per-node data-tier usage + unassignable surplus, scaled by the
    policy's headroom; required memory follows the shard count. Inputs
    are the SAME per-shard doc/byte totals the _cat/shards partial
    exchange reduces (8 bytes per indexed doc-term posting stands in for
    on-disk size at this fidelity); the decider arithmetic runs on the
    4-row shard table with the oracle's literal expressions. Returns one
    row per node plus the total capacity decision."""
    shards = allocation_explain(sf_dir)[["shard", "docs", "node"]]
    per_node = (shards.groupby("node", as_index=False)["docs"].sum()
                .rename(columns={"docs": "node_docs"}))
    headroom = 1.25   # policy: 25% storage headroom
    bytes_per_doc = 8
    per_node["required_bytes"] = (
        per_node["node_docs"].to_numpy(np.float64) * bytes_per_doc
        * headroom).astype(np.int64)
    per_node["node_docs"] = per_node["node_docs"].astype("int64")
    total = pd.DataFrame({
        "node": ["__total__"],
        "node_docs": pd.array([int(per_node["node_docs"].sum())],
                              dtype="int64"),
        "required_bytes": pd.array(
            [int(per_node["required_bytes"].sum())], dtype="int64"),
    })
    out = pd.concat([per_node, total], ignore_index=True)
    return out.sort_values("node").reset_index(drop=True)


def ft_constant_keyword(sf_dir: str):
    """constant_keyword mapper (x-pack mapper-constant-keyword,
    ConstantKeywordFieldMapper 7.7): every doc in the index carries the
    same value, so a term query on the field short-circuits WITHOUT
    touching any doc — value == constant rewrites to match_all, anything
    else to match_none (the reference does this in the field type's
    termQuery). The gate proves both branches: the count for the
    matching constant equals the index doc count; the miss is 0 and
    reads nothing."""
    constant = "code-corpus"  # index-level constant_keyword value

    def count_for(value: str) -> int:
        if value != constant:     # match_none: zero work
            return 0
        # match_all: count without reading any data columns
        return _ds(sf_dir, "documents", ["doc_id"]).count()

    return pd.DataFrame({
        "query_value": ["code-corpus", "web-corpus"],
        "hits": pd.array([count_for("code-corpus"),
                          count_for("web-corpus")], dtype="int64"),
    })


def ft_analyze_polish(sf_dir: str):
    """Polish analyzer (plugins/analysis-stempel PolishAnalyzer — the
    statistical Egothor stemmer; documented substitute = the CLEF-family
    light Polish chain in lang/light.py, exact-oracled in SQL)."""
    return _lang_analyze("polish")


def ft_analyze_ukrainian(sf_dir: str):
    """Ukrainian analyzer (plugins/analysis-ukrainian
    UkrainianMorfologikAnalyzer — dictionary lemmatization; documented
    substitute = reflexive + case-ending light chain, exact-oracled)."""
    return _lang_analyze("ukrainian")


def ft_analyze_korean(sf_dir: str):
    """Korean analyzer (plugins/analysis-nori NoriAnalyzer — mecab-ko
    dictionary decompounding; documented substitute = eojeol tokenization
    + longest josa/verb-ending strip, exact-oracled in SQL)."""
    return _lang_analyze("korean")


def ft_analyze_japanese(sf_dir: str):
    """Japanese analyzer (plugins/analysis-kuromoji JapaneseAnalyzer —
    Viterbi dictionary segmentation; documented substitute = script-run
    tokenization with Han unigrams + hiragana particle stops,
    exact-oracled in SQL)."""
    return _lang_analyze("japanese")


def esql_mv_mad(sf_dir: str):
    """ES|QL MV_MEDIAN_ABSOLUTE_DEVIATION (x-pack esql
    MvMedianAbsoluteDeviation, 8.15): per-row median(|x - median(x)|)
    over the embeddings list column — two segment-vectorized median
    passes (lexsort + midpoint interpolation), no per-row Python."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM embeddings
        | EVAL mad = ROUND(MV_MEDIAN_ABSOLUTE_DEVIATION(embedding), 6)
        | KEEP vec_id, mad
        | SORT vec_id
        | LIMIT 2000
    ''')


def agg_geohex_grid(sf_dir: str):
    """geohex_grid agg (x-pack spatial GeoHexGridAggregationBuilder, 8.1
    — the reference bins into Uber H3 cells; documented substitute: flat
    axial hex binning on the equirectangular plane with the standard
    cube-rounding algorithm, 15-degree cell size — same grid-agg shape as
    geohash_grid/geotile_grid which ARE the real algorithms). Per batch
    one fused arithmetic kernel assigns (q, r) hex coords; ONE
    hex-cardinality groupby is the only exchange. Ties in cube rounding
    use floor(x + 0.5) in BOTH engines (numpy round() is half-even,
    DuckDB's is half-away — the explicit floor sidesteps both)."""
    from ray.data.aggregate import Count

    S = 15.0
    SQ3 = np.sqrt(3.0)

    def bucketize(t: pa.Table) -> pa.Table:
        g = _geo_cols(t)
        x = g["lon"].to_numpy()
        y = g["lat"].to_numpy()
        xq = (SQ3 / 3.0 * x - y / 3.0) / S
        zr = (2.0 / 3.0 * y) / S
        yq = -xq - zr
        rx = np.floor(xq + 0.5)
        ry = np.floor(yq + 0.5)
        rz = np.floor(zr + 0.5)
        dx, dy, dz = np.abs(rx - xq), np.abs(ry - yq), np.abs(rz - zr)
        fix_x = (dx > dy) & (dx > dz)
        fix_z = (~fix_x) & (~(dy > dz))
        hq = np.where(fix_x, -ry - rz, rx)
        hr = np.where(fix_z, -rx - ry, rz)
        return pa.table({"hq": pa.array(hq.astype(np.int64)),
                         "hr": pa.array(hr.astype(np.int64))})

    out = (_geo_shape_users(sf_dir)
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby(["hq", "hr"])
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return (out.sort_values(["hq", "hr"]).reset_index(drop=True)
            [["hq", "hr", "doc_count"]])


def simulate_index_template(sf_dir: str):
    """_index_template/_simulate_index API (7.9,
    MetadataIndexTemplateService.simulateIndexTemplate): composable V2
    templates — component templates merge in composed_of order, the
    index template's own settings win last, and only the single
    highest-priority matching template applies; losers are reported as
    `overlapping`. Pure cluster-state arithmetic (driver-small by
    definition in the reference too)."""
    from ..index import templates as TP

    TP.put_component_template("base-settings",
                              {"number_of_shards": "2",
                               "analyzer": "simple"})
    TP.put_component_template("code-settings",
                              {"analyzer": "code",
                               "index_positions": "true"})
    TP.put_index_template("logs-low", ["logs-*"],
                          composed_of=["base-settings"], priority=10)
    TP.put_index_template("logs-code", ["logs-code-*"],
                          composed_of=["base-settings", "code-settings"],
                          priority=50,
                          settings={"number_of_shards": "4"})
    sim = TP.simulate_index("logs-code-2024")
    rows = [("winner", "template", sim["winner"])]
    rows += [("setting", k, str(v))
             for k, v in sorted(sim["template"].items())]
    rows += [("overlapping", "template", n) for n in sim["overlapping"]]
    return pd.DataFrame(rows, columns=["kind", "key", "value"]) \
        .sort_values(["kind", "key", "value"]).reset_index(drop=True)


def ltr_rescore(sf_dir: str):
    """Learning-to-rank rescorer (x-pack 8.12 ltr
    LearningToRankRescorerBuilder: first-pass top-k, per-candidate
    feature extraction, model inference, window rerank): window = BM25
    top-20 for `slow merge batch`; features = [bm25 score, doc length,
    tf('data')] (the reference's query-feature extractors); model = fixed
    linear weights (shipped in cluster state there, task closure here).
    Features come from ONE doc_id-pruned read of just the window docs —
    never a second full scan."""
    import re

    import pyarrow.compute as pc

    from .fulltext import documents_searcher

    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "match", "text": "slow merge batch",
                        "k": 20})
    window = pd.DataFrame({"doc_id": ids.astype(np.int64),
                           "bm25": sc.astype(np.float64)})
    vals = pa.array(window["doc_id"].to_numpy())
    tok = re.compile(r"[a-z0-9]+")

    def feats(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["doc_id"], value_set=vals)
        t = t.filter(keep)
        toks = [tok.findall(x.lower()) for x in t["text"].to_pylist()]
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy(), pa.int64()),
            "dl": pa.array([len(ts) for ts in toks], pa.int64()),
            "tf_data": pa.array([ts.count("data") for ts in toks],
                                pa.int64()),
        })

    f = (_ds(sf_dir, "documents", ["doc_id", "text"])
         .map_batches(feats, batch_format="pyarrow").to_pandas())
    m = window.merge(f, on="doc_id")
    m["ltr"] = (0.6 * m["bm25"] - 0.01 * m["dl"].astype(np.float64)
                + 0.35 * m["tf_data"].astype(np.float64))
    m = m.sort_values(["ltr", "doc_id"], ascending=[False, True]).head(10)
    m["ltr"] = round_half_away(m["ltr"].to_numpy(np.float64), 4)
    return m.reset_index(drop=True)[["doc_id", "ltr"]]


def eql_sequence_runs(sf_dir: str):
    """EQL `with runs=N` step repetition (SequenceMatcher runs, 8.0):
    `[ click ] with runs=2 [ purchase ]` requires two chained clicks
    before the purchase — expanded to N chain steps at parse time, the
    searchsorted cascade unchanged."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      sequence by user_id with maxspan=2d
        [ click where true ] with runs=2 [ purchase where true ]
    ''')


def corpus_ngram_novelty(sf_dir: str):
    """Per-document n-gram novelty (LLM corpus diagnostics — the
    complement of near-dup mass: the fraction of a doc's distinct word
    8-grams that appear in NO other document; low novelty flags
    boilerplate/template docs that survive exact dedup). Pipeline shape:
    per-batch gram explode (one C-level rolling join per doc), distinct
    (doc, gram) pairs, ONE gram groupby marks shared grams inside
    map_groups, ONE doc groupby folds the per-doc counters — the raw
    text never shuffles, only (doc_id, gram) pairs."""
    N = 8

    def grams(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        toks = df["text"].str.lower().str.findall(r"[a-z0-9]+")
        ids, gs = [], []
        for did, ts in zip(df["doc_id"], toks):
            if len(ts) >= N:
                seen = {" ".join(ts[i:i + N]) for i in
                        range(len(ts) - N + 1)}
                ids.extend([did] * len(seen))
                gs.extend(seen)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "gram": pa.array(gs, pa.string())})

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        shared = np.int64(1 if len(df) > 1 else 0)
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "total": np.int64(1),
                             "shared": shared})

    from ray.data.aggregate import Sum

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(grams, batch_format="pyarrow")
           .groupby("gram").map_groups(mark, batch_format="pandas")
           .groupby("doc_id")
           .aggregate(Sum("total", alias_name="total"),
                      Sum("shared", alias_name="shared"))
           .to_pandas())
    out["total"] = out["total"].astype("int64")
    out["shared"] = out["shared"].astype("int64")
    out["novelty"] = round_half_away(
        1.0 - out["shared"].to_numpy(np.float64)
        / out["total"].to_numpy(np.float64), 6)
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "total", "shared", "novelty"]])


def sql_scalar_projection(sf_dir: str):
    """_sql scalar functions / arithmetic in SELECT (x-pack sql
    expression/function/scalar ScalarFunction processors): each
    projection expression lowers per batch through the shared ES|QL
    expression engine — one pyarrow kernel per AST node, computed inside
    the same pruned streaming read as plain projections. Oracle = the
    identical SQL string run by DuckDB verbatim."""
    from ..functions.sql import run_sql

    sql = ("SELECT doc_id, ROUND(n_chars / 7.0, 2) AS septile, "
           "ABS(n_chars - 300) AS dist300 "
           "FROM documents WHERE lang = 'en' "
           "ORDER BY dist300, doc_id LIMIT 25")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def sql_where_expression(sf_dir: str):
    """_sql scalar expressions in WHERE (x-pack sql planner: predicates
    that are not field-op-literal compile to scalar processors executed
    per hit): simple conjuncts still push into the parquet read; the
    expression conjunct becomes ONE vectorized row filter (shared ES|QL
    expression engine) on the pruned stream. Oracle = identical SQL
    string in DuckDB."""
    from ..functions.sql import run_sql

    sql = ("SELECT doc_id, n_chars FROM documents "
           "WHERE n_chars % 7 = 3 AND lang = 'en' "
           "ORDER BY doc_id LIMIT 30")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def sql_like_predicate(sf_dir: str):
    """_sql LIKE predicate (x-pack sql ql expression/predicate/regex
    LikePattern: %% and _ wildcards): translated to the engine's
    wildcard matcher (one compiled-regex kernel per batch) behind the
    pushed simple conjuncts. Oracle = identical SQL in DuckDB."""
    from ..functions.sql import run_sql

    sql = ("SELECT doc_id, source FROM documents "
           "WHERE source LIKE 'src1%' ORDER BY doc_id LIMIT 20")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def ingest_conditional(sf_dir: str):
    """Per-processor `if` conditions (ingest ConditionalProcessor, 6.5):
    a 3-processor pipeline where each `set` runs only for the documents
    matching its condition — long docs, then short English docs, default
    otherwise. The conditional split/merge keeps per-document semantics
    with whole-batch vectorized kernels (functions/ingest.when)."""
    import pyarrow.compute as pc

    from ..functions import ingest as I

    pipe = I.pipeline(
        I.set_value("flag", "other"),
        I.when(lambda t: pc.greater(t["n_chars"], 300).to_numpy(
            zero_copy_only=False),
            I.set_value("flag", "long")),
        I.when(lambda t: pc.and_(
            pc.equal(t["lang"], "en"),
            pc.less_equal(t["n_chars"], 300)).to_numpy(
            zero_copy_only=False),
            I.set_value("flag", "short_en")),
    )
    out = (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
           .map_batches(pipe, batch_format="pyarrow").to_pandas())
    g = (out.groupby("flag").size().reset_index(name="n")
         .sort_values("flag").reset_index(drop=True))
    g["n"] = g["n"].astype("int64")
    return g


def sql_group_by_expression(sf_dir: str):
    """_sql GROUP BY on a scalar expression (x-pack sql planner: grouping
    keys may be scalar functions — the SQL face of a histogram agg): the
    expression computes as a hidden EVAL column per batch BEFORE the
    partial combiner, so the exchange stays group-cardinality. Oracle =
    identical SQL in DuckDB."""
    from ..functions.sql import run_sql

    sql = ("SELECT FLOOR(n_chars / 100.0) AS bucket, COUNT(*) AS c, "
           "AVG(n_chars) AS avg_chars "
           "FROM documents GROUP BY FLOOR(n_chars / 100.0) "
           "ORDER BY bucket")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def eql_insensitive_match(sf_dir: str):
    """EQL `:` operator (x-pack eql 7.16: case-insensitive wildcard
    string comparison — `field : "PaT*"`): rewritten to a lowered LIKE
    in the shared expression engine (one compiled-regex kernel per
    batch). Pipe-bounded result."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      any where event_type : "CLI*" and value > 95 | head 12
    ''')


def ft_analyze_multiplexer(sf_dir: str):
    """multiplexer token filter (analysis-common
    MultiplexerTokenFilterFactory, 6.4): each token emits once per
    branch chain at the same position — here [identity, reverse],
    position-deduped. Oracle re-derives both branches in SQL."""
    from ..analyzer import analyze_simple
    from ..filters import multiplexer_filter, reverse_filter

    toks = analyze_simple("Data query window level stats")
    out = multiplexer_filter(toks, [lambda t: t,
                                    lambda t: reverse_filter([t])[0]])
    return pd.DataFrame({"position": pd.array(range(len(out)),
                                              dtype="int64"),
                         "token": out})


def ft_analyze_condition(sf_dir: str):
    """condition token filter (ScriptedConditionTokenFilterFactory, 7.1):
    the inner chain (reverse) applies only to tokens longer than 5
    chars; shorter tokens pass through untouched."""
    from ..analyzer import analyze_simple
    from ..filters import condition_filter

    toks = analyze_simple("Data query window level statistics")
    out = condition_filter(toks, lambda t: len(t) > 5,
                           lambda t: t[::-1])
    return pd.DataFrame({"position": pd.array(range(len(out)),
                                              dtype="int64"),
                         "token": out})


def ft_analyze_predicate(sf_dir: str):
    """predicate_token_filter (7.1): keep only tokens whose script is
    true (length >= 5 here)."""
    from ..analyzer import analyze_simple
    from ..filters import predicate_filter

    toks = analyze_simple("Data query window level statistics go")
    out = predicate_filter(toks, lambda t: len(t) >= 5)
    return pd.DataFrame({"position": pd.array(range(len(out)),
                                              dtype="int64"),
                         "token": out})


def eql_sequence_by_multi(sf_dir: str):
    """EQL composite join keys (`sequence by user_id, event_type` —
    EqlParser joinKeys accepts a key list): chains match only within the
    same (user, type) pair. Same tag + searchsorted cascade; the
    multi-column groupby stays ONE exchange."""
    from ..functions import eql

    return eql.run(sf_dir, '''
      sequence by user_id, event_type with maxspan=2d
        [ any where value > 60 ] [ any where value < 40 ]
    ''')


def agg_percentile_ranks_hdr(sf_dir: str):
    """percentile_ranks via the HDR-histogram method
    (HDRPercentileRanksAggregator — the method=hdr twin of the t-digest
    ranks agg): distributed mergeable bucket-count AggregateFn over
    events.value; finalize reads the cumulative count at each query
    value's equivalent bucket. Exact oracle: the HdrHistogram index math
    reproduced in SQL (the agg_percentiles_hdr oracle's CTEs) with each
    query value's bucket index precomputed as a constant (a pure
    function of the literal, like the routing-hash constants)."""
    from ..aggs.hdr import hdr_ranks_aggregate_fn

    vals = [50.0, 100.0, 150.0]
    res = _ds(sf_dir, "events", ["value"]).aggregate(
        hdr_ranks_aggregate_fn("value", vals))
    out = res["percentile_ranks_hdr"] if isinstance(res, dict) else res
    return pd.DataFrame({
        "value": vals,
        "rank_pct": [float(round_half_away(v, 6)) for v in out]})


def sql_select_star(sf_dir: str):
    """_sql wildcard projection (`SELECT *` resolved against the mapping,
    x-pack sql ql analyzer): expands to the table schema in order, still
    a pruned read + pushed predicate + distributed sort. Oracle =
    identical SQL in DuckDB."""
    from ..functions.sql import run_sql

    sql = ("SELECT * FROM supplier WHERE s_suppkey < 30 "
           "ORDER BY s_suppkey LIMIT 25")
    return run_sql(sql, sf_dir, ds_factory=_ds)


def esql_chained_stats(sf_dir: str):
    """Chained STATS (EsqlParser: repeated aggregations — the second runs
    over the first's reduced group table): per-(user, type) counts, then
    per-user average and pair count. The intermediate table is
    group-cardinality-small by contract, so the second pass is a
    from_pandas dataset through the same combiner."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS c = COUNT(*) BY user_id, event_type
        | STATS avg_types = AVG(c), n_pairs = COUNT(*) BY user_id
        | SORT user_id
        | LIMIT 25
    ''')
    out["avg_types"] = round_half_away(
        out["avg_types"].to_numpy(np.float64), 6)
    return out


def agg_filters_other_bucket(sf_dir: str):
    """filters agg with `other_bucket: true` + `other_bucket_key`
    (FiltersAggregationBuilder): one extra bucket counts every doc that
    matched NO named filter — computed in the SAME per-batch partial
    pass (one boolean union, no second scan)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy()
        clicks = (et == "click") & (v >= 50)
        errors = (et == "error") & (v < 50)
        other = ~(clicks | errors)
        return pa.table({
            "name": ["big_clicks", "small_errors", "_other_"],
            "doc_count": pa.array([int(clicks.sum()), int(errors.sum()),
                                   int(other.sum())], pa.int64()),
        })

    out = (_ds(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("name")
           .aggregate(Sum("doc_count", alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.sort_values("name").reset_index(drop=True)


def agg_terms_missing(sf_dir: str):
    """terms agg `missing` parameter (TermsAggregationBuilder: docs
    lacking the field fall into an explicit bucket instead of being
    dropped): the nullable column is produced upstream by a conditional
    ingest step (lang nulled where doc_id %% 7 == 0 — the unmapped-doc
    simulation), then the terms agg substitutes the `missing` key inside
    the SAME bucketing kernel."""
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        m = (t["doc_id"].to_numpy() % 7) == 0
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(object)
        lang[m] = "(missing)"
        return pa.table({"key": pa.array(lang, pa.string())})

    out = (_ds(sf_dir, "documents", ["doc_id", "lang"])
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby("key")
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.sort_values("key").reset_index(drop=True)


def agg_date_histogram_bounds(sf_dir: str):
    """date_histogram with `min_doc_count: 0` + `extended_bounds`
    (DateHistogramAggregationBuilder): empty day buckets materialize as
    zero rows across the bounded range [2024-01-01, 2024-02-04] — the
    observed counts reduce through the usual int64 epoch-day exchange
    and the gap fill happens on the reduced bucket table (the reference
    does the same in InternalDateHistogram.addEmptyBuckets)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.cast(pc.floor_temporal(t["ts"], unit="day"),
                            pa.timestamp("us")), pa.int64())
        return pa.table({"bucket": b})

    g = (_ds(sf_dir, "events", ["ts"])
         .map_batches(bucketize, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Count(alias_name="doc_count"))
         .to_pandas())
    g["bucket"] = pd.to_datetime(g["bucket"], unit="us")
    full = pd.DataFrame({"bucket": pd.date_range(
        "2024-01-01", "2024-02-04", freq="D")})
    out = full.merge(g, on="bucket", how="left")
    out["doc_count"] = out["doc_count"].fillna(0).astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def agg_significant_bg_filter(sf_dir: str):
    """significant_terms with `background_filter`
    (SignificantTermsAggregationBuilder.backgroundFilter): the background
    set is restricted to a filter (source in src0..src9, pushed into the
    read) instead of the whole index, and the foreground is its lang='zh'
    subset — term df partials for both sets come from ONE pass, same JLH
    scoring."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    allowed = pc.field("source").isin([f"src{i}" for i in range(10)])
    red = count_terms(
        _ds(sf_dir, "documents", ["lang", "source", "text"], flt=allowed),
        analyze_simple, distinct=True, fg=_lang_is("zh"))
    red = red.rename(columns={"cnt": "bg_df", "fg": "fg_df"})
    meta = pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["lang"], filter=allowed)
    fg_n = int((np.asarray(meta["lang"]) == "zh").sum())
    bg_n = len(meta)
    red = red[red.fg_df >= 3].copy()
    fgp = red.fg_df / fg_n
    bgp = red.bg_df / bg_n
    red["score"] = round_half_away((fgp - bgp) * (fgp / bgp), 6)
    red = red.sort_values(["score", "term"],
                          ascending=[False, True]).head(10)
    return red[["term", "fg_df", "bg_df", "score"]].reset_index(drop=True)


def agg_composite_missing_bucket(sf_dir: str):
    """composite agg with `missing_bucket: true` on a source
    (CompositeValuesSourceBuilder.missingBucket): docs lacking the key
    appear under an explicit null bucket instead of being skipped. The
    nullable key is produced upstream (lang nulled where doc_id %% 7 ==
    0); the composite pairs reduce through the usual two-key groupby
    with the null placeholder participating as an ordinary key."""
    from ray.data.aggregate import Count

    def keyize(t: pa.Table) -> pa.Table:
        m = (t["doc_id"].to_numpy() % 7) == 0
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(object)
        lang[m] = "__missing__"
        return pa.table({"lang": pa.array(lang, pa.string()),
                         "source": t["source"]})

    out = (_ds(sf_dir, "documents", ["doc_id", "lang", "source"])
           .map_batches(keyize, batch_format="pyarrow")
           .groupby(["lang", "source"])
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return (out.sort_values(["lang", "source"]).reset_index(drop=True)
            [["lang", "source", "doc_count"]])


def ft_highlight_no_match(sf_dir: str):
    """Highlighter `no_match_size` (HighlightBuilder: when a field has no
    query-term hit, return the leading slice of the field instead of an
    empty highlight): a fixed doc-id window is fetched by point read;
    docs containing 'merge' highlight normally (first 2 word-wise
    fragments), docs without it fall back to the first 8 words — the
    word-wise analog of the reference's char-budget no_match_size, kept
    word-wise so SQL reproduces it exactly."""
    import re

    from ..sources.reader import fetch_rows_by_doc_id

    ids = np.arange(10, dtype=np.int64)
    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               ids, columns=["doc_id", "text"])
    rx = re.compile(r"\bmerge\b")
    rows = []
    for did, text in zip(src["doc_id"].to_pylist(),
                         src["text"].to_pylist()):
        hits = len(rx.findall(text))
        if hits:
            wrapped = rx.sub("<em>merge</em>", text)
            words = wrapped.split(" ")
            chunks = [" ".join(words[i:i + 8])
                      for i in range(0, len(words), 8)]
            snippet = " ... ".join(
                [c for c in chunks if "<em>" in c][:2])
        else:
            snippet = " ".join(text.split(" ")[:8])
        rows.append((did, hits > 0, snippet))
    out = pd.DataFrame(rows, columns=["doc_id", "matched", "snippet"])
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def agg_histogram_hard_bounds(sf_dir: str):
    """histogram agg `hard_bounds` (7.10,
    HistogramAggregationBuilder.hardBounds: buckets are only created
    inside the bound range — values outside contribute to no bucket):
    width-20 histogram of events.value clipped to [20, 120). The bound
    filter pushes into the parquet read itself (row-group pruning);
    bucketing is the usual per-batch kernel + ONE bucket-cardinality
    groupby."""
    import pyarrow.dataset as pds
    from ray.data.aggregate import Count

    f = pds.field("value")

    def bucketize(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        b = np.floor(v / 20.0) * 20.0
        return pa.table({"bucket": pa.array(b, pa.float64())})

    out = (_ds(sf_dir, "events", ["value"], flt=(f >= 20) & (f < 120))
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def range_date_math(sf_dir: str):
    """range query with date-math bounds (JavaDateMathParser: `now-20d/d`
    .. `now/d`, `now` injected for determinism the way the reference
    resolves it from the request context): the parsed bounds push into
    the parquet read as an ordinary timestamp filter (row-group
    pruning), then ONE event_type groupby. The oracle re-derives the
    same math with DuckDB interval/date_trunc arithmetic — two
    independent date-math implementations."""
    import pyarrow.dataset as pds
    from ray.data.aggregate import Count

    from ..datemath import parse_date_math

    now = "2024-01-25T13:45:00"
    lo = parse_date_math("now-20d/d", now)
    hi = parse_date_math("now/d", now)
    f = pds.field("ts")
    out = (_ds(sf_dir, "events", ["event_type", "ts"],
               flt=(f >= lo) & (f < hi))
           .groupby("event_type")
           .aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def esql_hash_functions(sf_dir: str):
    """ES|QL hash function family (8.16, x-pack/plugin/esql
    .../expression/function/scalar/string/{Md5,Sha1,Sha256,Hash}.java):
    per-value digests rendered as lowercase hex. The read stays pruned
    to the three consumed columns; digests run inside the streaming
    scan (hashing is inherently per-row C code — same shape as the
    reference's per-row evaluator)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM orders
        | WHERE o_orderkey < 300
        | EVAL m = MD5(o_orderpriority),
               s = SHA256(o_orderstatus),
               h = HASH("md5", CONCAT(o_orderpriority, o_orderstatus))
        | KEEP o_orderkey, m, s, h
        | SORT o_orderkey
        | LIMIT 1000
    ''')


_ST_POINT_EVAL = '''
        | EVAL lat = ((user_id * 7919) % 180) - 90 + 0.5,
               lon = ((user_id * 104729) % 360) - 180 + 0.5
        | EVAL p = TO_GEOPOINT(CONCAT("POINT (", TO_STRING(lon), " ",
                                      TO_STRING(lat), ")"))
'''


def esql_st_functions(sf_dir: str):
    """ES|QL spatial scalar functions (8.12-8.16, x-pack/plugin/esql
    .../function/scalar/spatial/{StX,StY,StDistance}.java and grid
    functions StGeohash/StGeotile/StGeohex): points built in EVAL from
    the synthetic per-user coordinates, then one vectorized WKT-extract
    + numpy kernel per function per batch. ST_DISTANCE is haversine on
    GeoUtils.EARTH_MEAN_RADIUS; ST_GEOHEX uses the repo's documented
    axial-hex H3 substitute (same kernel as the geohex_grid agg)."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE event_id < 500
    ''' + _ST_POINT_EVAL + '''
        | EVAL x = ST_X(p), y = ST_Y(p),
               d = ST_DISTANCE(p, TO_GEOPOINT("POINT (0 0)")),
               gh = ST_GEOHASH(p, 2), gt = ST_GEOTILE(p, 3),
               hx = ST_GEOHEX(p, 0)
        | KEEP event_id, x, y, d, gh, gt, hx
        | SORT event_id
        | LIMIT 1000
    ''')
    out["d"] = round_half_away(out["d"], 2)
    return out


def esql_st_centroid(sf_dir: str):
    """ES|QL ST_INTERSECTS predicate + ST_CENTROID_AGG (SpatialCentroid,
    8.12): rows whose point falls in a diamond polygon (ray-crossing
    point-in-polygon, exact for the synthetic half-degree grid), then
    the centroid aggregate accumulates int64 fixed-point coordinate
    sums per group — order-invariant partials, one group-cardinality
    exchange. The WKT centroid is parsed back to coordinates for the
    comparison (repr round-trips the exact doubles)."""
    from ..functions import esql
    from ..geo import parse_wkt

    out = esql.run(sf_dir, '''
        FROM events
    ''' + _ST_POINT_EVAL + '''
        | WHERE ST_INTERSECTS(p, TO_GEOSHAPE(
              "POLYGON ((-121.25 60, 0 30.75, 121.25 60, 0 89.25, -121.25 60))"))
        | STATS n = COUNT(*), c = ST_CENTROID_AGG(p) BY event_type
        | SORT event_type
    ''')
    pts = [parse_wkt(s)[1] for s in out["c"]]
    out["cx"] = round_half_away(
        pd.Series([p[0] for p in pts], index=out.index), 4)
    out["cy"] = round_half_away(
        pd.Series([p[1] for p in pts], index=out.index), 4)
    return out[["event_type", "n", "cx", "cy"]]


def esql_st_within_disjoint(sf_dir: str):
    """ES|QL ST_WITHIN / ST_DISJOINT against an ENVELOPE literal (the ES
    WKT extension, minLon maxLon maxLat minLat), composed with per-
    aggregate WHERE filters (FilteredExpression): both predicates are
    one vectorized bounds check per batch; counts reduce through the
    ordinary group-cardinality STATS exchange."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
    ''' + _ST_POINT_EVAL + '''
        | EVAL w = ST_WITHIN(p, TO_GEOSHAPE("ENVELOPE (-121, 121, 89, 31)")),
               dj = ST_DISJOINT(p, TO_GEOSHAPE("ENVELOPE (-121, 121, 89, 31)"))
        | STATS nw = COUNT(*) WHERE w, nd = COUNT(*) WHERE dj BY event_type
        | SORT event_type
    ''')


def esql_inline_cast(sf_dir: str):
    """ES|QL `::` inline cast operator (8.14, EsqlBaseParser
    primaryExpression CAST_OP): postfix sugar resolving to the same
    conversion functions as the TO_* calls (EsqlDataTypeConverter).
    TO_LONG truncates toward zero (the oracle uses trunc(), not
    DuckDB's half-even CAST)."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | WHERE event_id < 400
        | EVAL vi = value::long,
               di = (event_id % 7)::double,
               bs = (value > 50)::string,
               ds = (event_id % 7)::string
        | KEEP event_id, vi, di, bs, ds
        | SORT event_id
        | LIMIT 1000
    ''')


def cat_allocation(sf_dir: str):
    """_cat/allocation (rest/action/cat/RestAllocationAction): per-node
    rollup of the balanced shard layout — shard count and resident doc
    total per node. Scale shape: the per-shard doc counts reduce through
    the cat_shards partial exchange; the rollup runs on the 4-row
    placement table (RoutingNodes is driver-small in the reference
    too)."""
    alloc = allocation_explain(sf_dir)
    out = alloc.groupby("node", as_index=False).agg(
        shards=("shard", "size"), docs=("docs", "sum"))
    out["shards"] = out["shards"].astype("int64")
    out["docs"] = out["docs"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def deprecation_info(sf_dir: str):
    """_migration/deprecations (x-pack deprecation plugin,
    DeprecationChecks.INDEX_SETTINGS_CHECKS shape: evaluate a fixed
    battery of checks per index, emit (index, level, issue) rows for
    the ones that fire). Checks here are computed from the real table
    facts — row counts (metadata-only parquet count) and schema shape —
    so the oracle re-derives every verdict from the same parquet:
      - oversized index: rows > 5000 critical, > 500 warning
      - too many fields: column count > 5
      - unmapped dynamic JSON field: a `props` string column
    Driver-small by definition (one row per fired check)."""
    rows = []
    for table in ("documents", "events", "orders"):
        ds = _ds(sf_dir, table, None)
        n = ds.count()
        cols = ds.schema().names
        if n > 5000:
            rows.append((table, "critical",
                         "index is oversized: re-split before upgrade"))
        elif n > 500:
            rows.append((table, "warning",
                         "index is oversized: re-split before upgrade"))
        if len(cols) > 5:
            rows.append((table, "info", "mapping declares too many fields"))
        if "props" in cols:
            rows.append((table, "warning",
                         "dynamic JSON field is not mapped"))
    out = pd.DataFrame(rows, columns=["index", "level", "issue"])
    return out.sort_values(["index", "level", "issue"]).reset_index(drop=True)


def sql_show_tables(sf_dir: str):
    """_sql SHOW TABLES (x-pack sql SysTables command, plan/logical/
    command/sys/SysTables.java): the catalog listing, answered from the
    parquet store metadata only — no table data is read (the reference
    serves it from cluster state the same way)."""
    from ..functions.sql import run_sql

    return run_sql("SHOW TABLES", sf_dir, ds_factory=_ds)


def sql_describe_table(sf_dir: str):
    """_sql DESCRIBE / SHOW COLUMNS (x-pack sql SysColumns): column ->
    ES mapping type from the parquet schema (metadata-only read); the
    oracle derives the same verdicts from DESCRIBE with the identical
    arrow-type -> ES-type mapping in CASE form."""
    from ..functions.sql import run_sql

    return run_sql("DESCRIBE orders", sf_dir, ds_factory=_ds)


def esql_now_datemath(sf_dir: str):
    """ES|QL NOW() + date-period arithmetic (scalar/date/Now.java and the
    EsqlBaseParser qualifiedIntegerLiteral grammar: `NOW() - 20 day`).
    NOW() resolves to the deterministic injected request clock (the same
    convention as the date-math range gate); period literals are
    fixed-width timedeltas folded into the comparison before the scan.
    The oracle re-derives the window with DuckDB INTERVAL arithmetic —
    two independent date-math implementations."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE ts >= NOW() - 20 day AND ts < NOW() - 5 day
        | STATS n = COUNT(*), s = SUM(value) BY event_type
        | SORT event_type
    ''')
    out["s"] = round_half_away(out["s"], 2)
    return out

def esql_scalb_round_to(sf_dir: str):
    """ES|QL SCALB / COPY_SIGN / ROUND_TO (8.18, x-pack/plugin/esql
    .../expression/function/scalar/math/{Scalb,CopySign,RoundTo}.java).
    SCALB multiplies by an exact power of two (exponent shift — the SQL
    twin `v * power(2, k)` is bit-identical); COPY_SIGN is Math.copySign
    (numpy copysign ufunc per batch); ROUND_TO rounds down to the
    greatest fixed point <= value (values below the smallest point take
    it), vectorized as one searchsorted over the sorted point list —
    the same sorted-array binary search as the reference's
    RoundToDouble. All three run inside the pruned streaming scan."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE event_id < 400
        | EVAL s = SCALB(value, 3),
               c = COPY_SIGN(value, 50 - value),
               r = ROUND_TO(value, 0, 50, 100, 250, 500)
        | KEEP event_id, s, c, r
        | SORT event_id
        | LIMIT 1000
    ''')
    out["s"] = round_half_away(out["s"], 6)
    out["c"] = round_half_away(out["c"], 6)
    return out


def ft_weighted_tokens(sf_dir: str):
    """weighted_tokens query with pruning config (x-pack 8.13
    WeightedTokensQueryBuilder + core/ml/search/TokenPruningConfig /
    WeightedTokensUtils.shouldKeepToken): a token survives pruning iff
    its doc-frequency ratio df/N is below ratio_threshold x the average
    freq ratio of the query's tokens (documented substitution for the
    reference's field-level average), OR its weight exceeds
    weight_threshold x the best query weight. Kept tokens score as
    boosted term queries (boost = token weight, exact64 BM25), summed —
    the same bool-should lowering the reference uses.
    Scale shape: phase 1 exchanges one small df-partial per batch for
    the 4 query tokens (no shuffle); phase 2 is the ordinary engine
    scan. only_score_pruned_tokens=false."""
    tokens = {"data": 0.9, "merge": 0.5, "slow": 0.1, "dup": 0.3}
    ratio_threshold, weight_threshold = 1.2, 0.4

    terms = sorted(tokens)
    docs = _ds(sf_dir, "documents", ["text"])
    df = count_terms(docs, lambda s: [w for w in analyze_simple(s)
                                      if w in tokens], distinct=True)
    df = dict(zip(df["term"], df["cnt"].tolist()))
    n_docs = float(docs.count())
    ratios = {w: df.get(w, 0) / n_docs for w in terms}
    avg_ratio = sum(ratios.values()) / len(ratios)
    best_w = max(tokens.values())
    kept = [w for w in terms
            if ratios[w] < ratio_threshold * avg_ratio
            or tokens[w] > weight_threshold * best_w]
    q = {"kind": "bool",
         "should": [{"kind": "term", "term": w, "boost": tokens[w]}
                    for w in kept]}
    out = all_matches(sf_dir, q).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def ft_rule_query(sf_dir: str):
    """rule_query / query rules (x-pack 8.10 ent-search
    QueryRulesetService + RuleQueryBuilder; rules carry criteria over
    match metadata and pinned/excluded doc actions): the ruleset is a
    tiny driver-side constant (cluster-state analog); matching rules'
    pinned ids are force-included ranked first (in rule order), excluded
    ids dropped, and the organic query (match OR 'data merge', exact64
    BM25) fills the remainder. One engine scan — the rule application is
    a vectorized driver merge of the reduced match table."""
    ruleset = [
        {"criteria": ("exact", "user_query", "data merge"),
         "action": ("pinned", [7, 23])},
        {"criteria": ("contains", "user_query", "merge"),
         "action": ("excluded", [41, 23])},
        {"criteria": ("prefix", "user_query", "slow"),
         "action": ("pinned", [5])},
    ]
    match_criteria = {"user_query": "data merge"}

    def rule_matches(rule) -> bool:
        typ, key, val = rule["criteria"]
        got = match_criteria.get(key, "")
        return ((typ == "exact" and got == val)
                or (typ == "contains" and val in got)
                or (typ == "prefix" and got.startswith(val)))

    pinned: list[int] = []
    excluded: set[int] = set()
    for rule in ruleset:
        if rule_matches(rule):
            what, ids = rule["action"]
            if what == "pinned":
                pinned += [i for i in ids if i not in pinned]
            else:
                excluded |= set(ids)
    # pinned wins over excluded only if pinned earlier? reference:
    # excluded removes docs even when another rule pinned them later;
    # a doc both pinned and excluded is excluded (DocumentRule apply
    # order: exclusions are filtered last).
    pinned = [i for i in pinned if i not in excluded]

    organic = all_matches(
        sf_dir, {"kind": "match", "text": "data merge"}).to_pandas()
    organic = organic[~organic["doc_id"].isin(excluded)
                      & ~organic["doc_id"].isin(pinned)]
    organic = organic.sort_values(["score", "doc_id"],
                                  ascending=[False, True]).head(12)
    pin_df = pd.DataFrame({
        "doc_id": pd.array(pinned, dtype="int64"),
        "score": [0.0] * len(pinned),
        "rank": pd.array(range(1, len(pinned) + 1), dtype="int64"),
    })
    org = organic.reset_index(drop=True)
    org["rank"] = pd.array(
        range(len(pinned) + 1, len(pinned) + 1 + len(org)), dtype="int64")
    out = pd.concat([pin_df, org[["doc_id", "score", "rank"]]],
                    ignore_index=True)
    out["pinned"] = (out["rank"] <= len(pinned)).astype("int64")
    return out[["rank", "doc_id", "pinned", "score"]]


def sql_cursor_page(sf_dir: str):
    """_sql cursor pagination (x-pack sql RestSqlQueryAction fetch_size +
    cursor continuation): page 1 runs with LIMIT fetch_size; the cursor
    encodes the last row's sort keys (keyset — the distributed analog of
    the reference's server-side scroll cursor: no state is held on any
    node, the continuation is a pushed-down predicate). Page 2 re-enters
    the translator with the keyset predicate `(price, key) < cursor`
    lowered onto the pruned scan. Returns page 2; oracle = OFFSET page."""
    from ..functions.sql import run_sql

    fetch = 15
    page1 = run_sql(
        "SELECT o_orderkey, o_totalprice FROM orders "
        f"ORDER BY o_totalprice DESC, o_orderkey LIMIT {fetch}",
        sf_dir, ds_factory=_ds)
    last_p = float(page1["o_totalprice"].iloc[-1])
    last_k = int(page1["o_orderkey"].iloc[-1])
    page2 = run_sql(
        "SELECT o_orderkey, o_totalprice FROM orders "
        f"WHERE o_totalprice < {last_p!r} OR "
        f"(o_totalprice == {last_p!r} AND o_orderkey > {last_k}) "
        f"ORDER BY o_totalprice DESC, o_orderkey LIMIT {fetch}",
        sf_dir, ds_factory=_ds)
    return page2.reset_index(drop=True)

def geo_grid_query(sf_dir: str):
    """geo_grid query (8.8 server/.../index/query/GeoGridQueryBuilder):
    matches docs whose point falls inside ONE grid cell, addressed by a
    geohash or geotile cell id — the query-side mirror of the geogrid
    aggregations, reusing the exact same encode kernels (geo.py). Each
    branch is a vectorized encode + equality filter inside the streaming
    scan (the reference rewrites the cell to a bounding-box query; cell
    equality over the encoded point is the same predicate). Both
    branches run in one pass; no shuffle."""
    gh_cell, gt_cell = "zj", "3/1/0"

    def grid_match(t: pa.Table) -> pa.Table:
        from ..geo import geotile_cell

        uid = t["user_id"].to_numpy()
        lat = (((uid * 7919) % 180) - 90 + 0.5).astype(np.float64)
        lon = (((uid * 104729) % 360) - 180 + 0.5).astype(np.float64)
        gh = np.asarray(geohash_encode(lat, lon, 2))
        gt = np.asarray(geotile_cell(lat, lon, 3))
        eid = t["event_id"].to_numpy()
        out_id, out_grid = [], []
        m = gh == gh_cell
        out_id.append(eid[m])
        out_grid.append(np.full(int(m.sum()), "geohash:" + gh_cell))
        m = gt == gt_cell
        out_id.append(eid[m])
        out_grid.append(np.full(int(m.sum()), "geotile:" + gt_cell))
        return pa.table({
            "event_id": pa.array(np.concatenate(out_id), pa.int64()),
            "grid": pa.array(np.concatenate(out_grid).astype(str)),
        })

    out = (_ds(sf_dir, "events", ["event_id", "user_id"])
           .map_batches(grid_match, batch_format="pyarrow").to_pandas())
    return (out.sort_values(["grid", "event_id"])
            .reset_index(drop=True)[["grid", "event_id"]])


def ft_text_expansion(sf_dir: str):
    """text_expansion query (x-pack 8.8 TextExpansionQueryBuilder): the
    query text runs through an expansion model producing weighted tokens,
    then scores like weighted_tokens/sparse_vector. The ELSER model is
    substituted by a deterministic expansion (documented stand-in — no ML
    runtime in this container): each query token expands to itself
    (weight 1.0) plus its two lexicographic vocabulary neighbors (weight
    0.3), duplicate expansions summing. The vocabulary is computed
    distributed (per-batch distinct-term partials -> tiny driver union —
    the analog of the model's fixed vocab). Kept tokens score as boosted
    term queries under exact64 BM25, summed."""
    import re

    query_tokens = ["data", "merge"]
    pat = re.compile(r"[^a-z0-9]+")

    def vocab_partial(t: pa.Table) -> pa.Table:
        terms: set[str] = set()
        for s in t["text"].to_pylist():
            terms.update(w for w in pat.split(s.lower()) if w)
        return pa.table({"term": pa.array(sorted(terms))})

    vocab = sorted(set(
        _ds(sf_dir, "documents", ["text"])
        .map_batches(vocab_partial, batch_format="pyarrow")
        .to_pandas()["term"]))
    weights: dict[str, float] = {}
    for qt in query_tokens:
        weights[qt] = weights.get(qt, 0.0) + 1.0
        if qt in vocab:
            i = vocab.index(qt)
            for j in (i - 1, i + 1):
                if 0 <= j < len(vocab):
                    weights[vocab[j]] = weights.get(vocab[j], 0.0) + 0.3
    q = {"kind": "bool",
         "should": [{"kind": "term", "term": w, "boost": b}
                    for w, b in sorted(weights.items())]}
    out = all_matches(sf_dir, q).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def ingest_reroute(sf_dir: str):
    """reroute ingest processor (8.8 modules/ingest-common
    RerouteProcessor): rewrites the document's destination data stream
    from (dataset, namespace) fields — high-value events (value >= 250) divert to the
    metrics stream, everything else lands on logs-<event_type>-default.
    The routing decision is one vectorized where per batch; the output
    is the per-destination doc_count exchange (tiny combiner groupby)."""
    from ray.data.aggregate import Count

    def route(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        et = t["event_type"]
        high = pc.greater_equal(t["value"], 250.0)
        dest = pc.if_else(
            high, pa.scalar("metrics-high-default"),
            pc.binary_join_element_wise(
                pa.array(["logs"] * len(t)), et,
                pa.array(["default"] * len(t)), "-"))
        return pa.table({"dest": dest})

    out = (_ds(sf_dir, "events", ["event_type", "value"])
           .map_batches(route, batch_format="pyarrow")
           .groupby("dest").aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    return out.sort_values("dest").reset_index(drop=True)

def esql_st_extent(sf_dir: str):
    """ES|QL ST_EXTENT_AGG (SpatialExtent, 8.18) in STATS: per-group
    bounding box of the point column. Partials are per-batch min/max of
    (x, y) — order-invariant, merged by one tiny group exchange; the
    result renders as the ES Rectangle WKT `BBOX (west, east, north,
    south)`. The new ST_XMIN/ST_XMAX/ST_YMIN/ST_YMAX scalars (8.18)
    then recover the numeric fields from the BBOX strings on the
    reduced frame (vectorized single-regex extraction — the same
    evaluator batches use)."""
    from ..functions import esql
    from ..functions.esql_expr import evaluate, parse_expr

    out = esql.run(sf_dir, '''
        FROM events
    ''' + _ST_POINT_EVAL + '''
        | STATS n = COUNT(*), ext = ST_EXTENT_AGG(p) BY event_type
        | SORT event_type
    ''')
    t = pa.table({"ext": pa.array(out["ext"].astype(str))})
    for alias, fn in (("west", "ST_XMIN"), ("east", "ST_XMAX"),
                      ("north", "ST_YMAX"), ("south", "ST_YMIN")):
        out[alias] = np.asarray(evaluate(parse_expr(f"{fn}(ext)"), t))
    return out


def esql_st_envelope(sf_dir: str):
    """ES|QL ST_ENVELOPE + ST_XMIN/ST_XMAX/ST_YMIN/ST_YMAX scalars
    (8.15-8.18, scalar/spatial/{StEnvelope,StXMin,StXMax,StYMin,
    StYMax}.java): a POINT column's envelope is the degenerate BBOX;
    a POLYGON literal's envelope is the bbox over its vertices (folded
    once at parse — constant per row, like the reference's foldable
    spatial literals). All per-row work is one regex extract + string
    join per batch."""
    from ..functions import esql

    poly = 'TO_GEOSHAPE("POLYGON ((10 20, 50 5, 30 40, 10 20))")'
    out = esql.run(sf_dir, f'''
        FROM events
        | WHERE event_id < 300
    ''' + _ST_POINT_EVAL + f'''
        | EVAL env = ST_ENVELOPE(p)
        | EVAL px = ST_XMIN(env), py = ST_YMAX(env),
               qw = ST_XMIN({poly}), qe = ST_XMAX({poly}),
               qn = ST_YMAX({poly}), qs = ST_YMIN({poly})
        | KEEP event_id, env, px, py, qw, qe, qn, qs
        | SORT event_id
    ''')
    return out

def ingest_geo_grid(sf_dir: str):
    """geo_grid ingest processor (8.7 modules/ingest-common
    GeoGridProcessor): converts a grid cell id (geohash or geotile)
    into the cell's bounding geometry. Cells come from the per-user
    synthetic coordinates (one encode pass — same kernels as the
    geogrid aggs), are reduced to the distinct-cell table (tiny), and
    each decodes to its envelope POLYGON WKT with vectorized integer
    bit de-interleave (geohash) / inverse-mercator tile math (geotile).
    sinh is written as (exp(t)-exp(-t))/2 in BOTH engines so the SQL
    twin produces the literally identical doubles."""
    from ray.data.aggregate import Count

    def cells(t: pa.Table) -> pa.Table:
        from ..geo import geotile_cell

        uid = t["user_id"].to_numpy()
        lat = (((uid * 7919) % 180) - 90 + 0.5).astype(np.float64)
        lon = (((uid * 104729) % 360) - 180 + 0.5).astype(np.float64)
        gh = np.asarray(geohash_encode(lat, lon, 2))
        gt = np.asarray(geotile_cell(lat, lon, 3))
        return pa.table({"cell": pa.array(np.concatenate([gh, gt]))})

    distinct = (_ds(sf_dir, "events", ["user_id"])
                .map_batches(cells, batch_format="pyarrow")
                .groupby("cell").aggregate(Count(alias_name="n"))
                .to_pandas())
    cell = distinct["cell"].to_numpy()
    is_tile = np.char.find(cell.astype(str), "/") >= 0

    b32 = "0123456789bcdefghjkmnpqrstuvwxyz"
    wkts = np.empty(len(cell), dtype=object)
    # geohash precision-2: v = 10 bits, lon-first interleave over 32x32
    gh = cell[~is_tile]
    if len(gh):
        v = np.array([b32.index(c[0]) * 32 + b32.index(c[1]) for c in gh],
                     dtype=np.int64)
        lx = (((v // 512) % 2) * 16 + ((v // 128) % 2) * 8
              + ((v // 32) % 2) * 4 + ((v // 8) % 2) * 2 + (v // 2) % 2)
        ly = (((v // 256) % 2) * 16 + ((v // 64) % 2) * 8
              + ((v // 16) % 2) * 4 + ((v // 4) % 2) * 2 + v % 2)
        w = lx / 32.0 * 360.0 - 180.0
        e = (lx + 1) / 32.0 * 360.0 - 180.0
        s = ly / 32.0 * 180.0 - 90.0
        n = (ly + 1) / 32.0 * 180.0 - 90.0
        wkts[~is_tile] = [
            f"POLYGON (({wi!r} {si!r}, {ei!r} {si!r}, {ei!r} {ni!r}, "
            f"{wi!r} {ni!r}, {wi!r} {si!r}))"
            for wi, ei, si, ni in zip(w, e, s, n)]
    gt = cell[is_tile]
    if len(gt):
        zxy = np.array([[int(p) for p in c.split("/")] for c in gt],
                       dtype=np.float64)
        z, x, y = zxy[:, 0], zxy[:, 1], zxy[:, 2]
        npow = np.exp2(z)
        w = x / npow * 360.0 - 180.0
        e = (x + 1) / npow * 360.0 - 180.0
        ty_n = np.pi * (1.0 - 2.0 * y / npow)
        ty_s = np.pi * (1.0 - 2.0 * (y + 1) / npow)
        # transcendental (exp/atan) results differ from DuckDB's libm in
        # the last ulp — round to 10 dp before rendering (both engines)
        n = np.round(np.degrees(
            np.arctan((np.exp(ty_n) - np.exp(-ty_n)) / 2.0)), 10)
        s = np.round(np.degrees(
            np.arctan((np.exp(ty_s) - np.exp(-ty_s)) / 2.0)), 10)
        wkts[is_tile] = [
            f"POLYGON (({wi!r} {si!r}, {ei!r} {si!r}, {ei!r} {ni!r}, "
            f"{wi!r} {ni!r}, {wi!r} {si!r}))"
            for wi, ei, si, ni in zip(w, e, s, n)]
    out = pd.DataFrame({"cell": cell.astype(str), "shape": wkts.astype(str)})
    return out.sort_values("cell").reset_index(drop=True)


def mtermvectors(sf_dir: str):
    """_mtermvectors API (server rest/action/document
    RestMultiTermVectorsAction) with field statistics: per-term tf for
    EACH requested doc plus index-wide df and ttf (TermVectorsRequest
    fieldStatistics). The requested docs fetch via row-group-pruned
    point reads; df/ttf for their candidate terms come from one
    map_batches partial exchange over the corpus (no shuffle)."""
    import re
    from collections import Counter

    from ..sources.reader import fetch_rows_by_doc_id

    doc_ids = [11, 42, 77]
    t = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                             doc_ids, columns=["doc_id", "text"])
    pat = re.compile(r"[^a-z0-9]+")
    per_doc: dict[int, Counter] = {}
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        per_doc[did] = Counter(w for w in pat.split(text.lower()) if w)
    terms = sorted(set().union(*per_doc.values()))

    def stats_partial(b: pa.Table) -> pa.Table:
        df = Counter()
        ttf = Counter()
        for s in b["text"].to_pylist():
            toks = [w for w in pat.split(s.lower()) if w]
            c = Counter(toks)
            for w in terms:
                if w in c:
                    df[w] += 1
                    ttf[w] += c[w]
        return pa.table({"term": pa.array(terms),
                         "df": pa.array([df[w] for w in terms], pa.int64()),
                         "ttf": pa.array([ttf[w] for w in terms], pa.int64())})

    g = (_ds(sf_dir, "documents", ["text"])
         .map_batches(stats_partial, batch_format="pyarrow")
         .to_pandas().groupby("term").sum())
    rows = [(did, w, int(per_doc[did][w]),
             int(g.loc[w, "df"]), int(g.loc[w, "ttf"]))
            for did in doc_ids for w in sorted(per_doc[did])]
    out = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df", "ttf"])
    for c in ("doc_id", "tf", "df", "ttf"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "term"]).reset_index(drop=True)


def cat_recovery(sf_dir: str):
    """_cat/recovery (rest/action/cat/RestCatRecoveryAction,
    indices/recovery/RecoveryState): one row per live segment of the
    committed index — stage DONE, type STORE (a completed local store
    recovery), docs recovered = the segment's doc_count from its
    MANIFEST. The oracle recomputes each segment's doc count from the
    raw table over the recorded doc ranges, verifying the lineage the
    recovery listing reports."""
    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    segs = live_segments(committed_segments(documents_index(sf_dir)))
    rows = sorted((m.doc_id_min, m.doc_id_max, m.doc_count)
                  for m in segs.values())
    return pd.DataFrame({
        "doc_id_min": pd.array([r[0] for r in rows], dtype="int64"),
        "doc_id_max": pd.array([r[1] for r in rows], dtype="int64"),
        "stage": ["done"] * len(rows),
        "type": ["store"] * len(rows),
        "docs_recovered": pd.array([r[2] for r in rows], dtype="int64"),
        "files_percent": ["100.0%"] * len(rows),
    })

def esql_cartesian_distance(sf_dir: str):
    """ES|QL cartesian spatial type (8.14: TO_CARTESIANPOINT conversion
    + StDistance planar overload): point columns built per row, distance
    to a fixed cartesian point is sqrt(dx*dx + dy*dy) — explicit
    products so the SQL twin is the literally identical double
    expression. The evaluator detects cartesian-ness syntactically (an
    inline TO_CARTESIANPOINT in the arg subtree — the type-erased
    columnar analog of the reference's type-dispatched overload)."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE event_id < 400
        | EVAL p = TO_CARTESIANPOINT(CONCAT("POINT (", TO_STRING(value),
                                            " ", TO_STRING(value / 2), ")")),
               d = ST_DISTANCE(p, TO_CARTESIANPOINT("POINT (100 50)")),
               x = ST_X(p), y = ST_Y(p)
        | KEEP event_id, x, y, d
        | SORT event_id
    ''')
    out["d"] = round_half_away(out["d"], 6)
    return out


def esql_date_nanos(sf_dir: str):
    """ES|QL TO_DATE_NANOS / TO_UNSIGNED_LONG conversions (8.14 date_nanos
    + unsigned_long type support): microsecond timestamps widen to the
    nanosecond lane losslessly; numeric TO_DATE_NANOS input is
    nanos-since-epoch (vs TO_DATETIME's millis); unsigned long is the
    uint64 cast. All inside the pruned streaming scan."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE event_id < 300
        | EVAL tn = TO_DATE_NANOS(ts),
               u = TO_UNSIGNED_LONG(event_id * 3),
               back = TO_LONG(u)
        | KEEP event_id, tn, u, back
        | SORT event_id
    ''')
    return out

def ft_script_score_vectors(sf_dir: str):
    """script_score dense_vector access functions (server/.../script/
    VectorScoreScriptUtils.java: cosineSimilarity, dotProduct, l1norm,
    l2norm, hamming): one vectorized pass over the embeddings table —
    the broadcast query vector rides the task closure (ray.put analog),
    each batch is one (n,d) float64 matmul / reduction, never a per-row
    loop. hamming follows the 8.x bit_vectors semantics substitute:
    sign-bit mismatch count between the query and the vector. The
    canonical script `cosineSimilarity(q, 'embedding') + 1.0` ranks the
    final top 20."""
    qv = np.array([float(x) for x in _ESQL_QVEC.split(",")],
                  dtype=np.float64)
    qn = np.sqrt(np.dot(qv, qv))

    def score(t: pa.Table) -> pa.Table:
        m = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64)
        dot = m @ qv
        vn = np.sqrt(np.einsum("ij,ij->i", m, m))
        cos = dot / (vn * qn)
        diff = m - qv
        l1 = np.abs(diff).sum(axis=1)
        l2 = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ham = ((m >= 0) != (qv >= 0)).sum(axis=1)
        return pa.table({
            "vec_id": t["vec_id"],
            "score": pa.array(cos + 1.0),
            "dot": pa.array(dot),
            "l1": pa.array(l1),
            "l2": pa.array(l2),
            "hamming": pa.array(ham.astype(np.int64)),
        })

    out = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(score, batch_format="pyarrow").to_pandas())
    out = out.sort_values(["score", "vec_id"],
                          ascending=[False, True]).head(20)
    for c in ("score", "dot", "l1", "l2"):
        out[c] = round_half_away(out[c].to_numpy(), 6)
    return out.reset_index(drop=True)

def ft_index_phrases(sf_dir: str):
    """index_phrases mapping option (7.x TextFieldMapper
    `index_phrases: true` — phrase queries served from a side field of
    2-shingles as SINGLE terms, no position verification): the documents
    index already carries the text_2gram shingle2 field; the phrase
    "data query" is answered as ONE term lookup there. The gate compares
    doc sets with the position-verified phrase oracle — proving the
    shingle shortcut is doc-set-identical to the real phrase walk."""
    s = documents_searcher(sf_dir)
    ids, _ = s._eval({"kind": "term", "term": "data query",
                      "field": "text_2gram"})
    return pd.DataFrame({"doc_id": np.sort(ids).astype(np.int64)})


def wildcard_field_query(sf_dir: str):
    """wildcard field type (7.9 x-pack WildcardFieldMapper): values are
    indexed as character 3-grams + a verification automaton — the query
    `*data*merge*` first prunes candidates by REQUIRED-gram containment
    (vectorized match_substring per gram, the columnar analog of the
    3-gram index intersection), then only candidates pay the regex
    verification. Counters prove the prefilter ran: the gate returns the
    per-batch candidate and verified totals alongside the doc ids."""
    import pyarrow.compute as pc

    grams = ["dat", "ata", "mer", "erg", "rge"]  # required 3-grams

    def match(t: pa.Table) -> pa.Table:
        v = t["text"]
        cand = None
        for g in grams:
            m = pc.match_substring(v, g)
            cand = m if cand is None else pc.and_(cand, m)
        cand_idx = np.flatnonzero(np.asarray(cand))
        sub = v.take(pa.array(cand_idx))
        ok = pc.match_like(sub, "%data%merge%")
        keep = cand_idx[np.asarray(ok)]
        return pa.table({
            "doc_id": t["doc_id"].take(pa.array(keep)),
            "n_candidates": pa.array([len(cand_idx)] * len(keep), pa.int64()),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(match, batch_format="pyarrow").to_pandas())
    out = out.sort_values("doc_id").reset_index(drop=True)
    return out[["doc_id"]]

def esql_term_multimatch(sf_dir: str):
    """ES|QL TERM (8.17 fulltext/Term.java: exact unanalyzed term on one
    field) and MULTI_MATCH (8.18 fulltext/MultiMatch.java: one query over
    several fields) functions, both pushed down to ONE index query each
    — the same translate() lowering as MATCH. Two sub-results in one
    table: the TERM doc set and the MULTI_MATCH most_fields scored set."""
    from ..functions import esql

    t1 = esql.run(sf_dir, '''
        FROM documents
        | WHERE TERM(source, "src3")
        | STATS n = COUNT(*)
    ''')
    t2 = esql.run(sf_dir, '''
        FROM documents METADATA _score
        | WHERE MULTI_MATCH("data src3", text, source,
                            {"type": "most_fields"})
        | EVAL _score = ROUND(_score, 4)
        | SORT _score DESC, doc_id
        | LIMIT 12
        | KEEP doc_id, _score
    ''')
    t2 = t2.reset_index(drop=True)
    t2["term_src3_n"] = int(t1["n"].iloc[0])
    return t2

def esql_stats_mad(sf_dir: str):
    """ES|QL MEDIAN_ABSOLUTE_DEVIATION in STATS (x-pack esql
    MedianAbsoluteDeviation agg): mad = median(|x - median(x)|), both
    passes over the SAME reduced (group, value) pair-count table that
    MEDIAN/PERCENTILE use — raw rows cross the exchange once. Exact
    (the reference backs it with a t-digest sketch; the oracle is
    DuckDB's continuous quantile over the same values)."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | STATS m = MEDIAN(value),
                mad = MEDIAN_ABSOLUTE_DEVIATION(value) BY event_type
        | SORT event_type
    ''')
    out["m"] = round_half_away(out["m"], 6)
    out["mad"] = round_half_away(out["mad"], 6)
    return out

def eql_unique_pipe(sf_dir: str):
    """EQL `| unique` pipe (x-pack eql pipes UniquePipe): first event per
    distinct key among the filter's matches, then `| head 15`. The
    unique reduce is a per-batch first-per-key combiner (min (ts,
    event_id) composes) — only per-batch champions reach the driver."""
    from ..functions import eql

    out = eql.run(sf_dir, 'any where value > 100 | unique user_id | head 15')
    keep = [c for c in ("event_id", "ts", "user_id", "event_type", "value")
            if c in out.columns]
    out = out[keep].reset_index(drop=True)
    return out

def dls_filtered_search(sf_dir: str):
    """Document-level security (x-pack security
    SecurityIndexReaderWrapper: the role's query filter is intersected
    with EVERY search as a non-scoring filter clause): role = `lang:en`
    documents only; user query = match 'data merge'. Scores must equal
    the unrestricted query's scores on the visible docs (filter context
    contributes no score — BooleanClause.Occur.FILTER), which the
    oracle asserts by re-deriving BM25 WITHOUT the filter and applying
    the visibility predicate outside."""
    return all_matches(sf_dir, {
        "kind": "bool",
        "must": [{"kind": "match", "text": "data merge"}],
        "filter": [{"kind": "meta_term", "field": "lang", "value": "en"}],
    }).to_pandas()

def fls_field_security(sf_dir: str):
    """Field-level security (x-pack security FieldPermissions /
    FieldSubsetReader: the role's field grant/except patterns restrict
    which fields a fetch may return): role grants ["doc_id", "n_*"]
    except ["n_chars"] over a DLS-visible slice (lang='en'). The grant
    resolves against the mapping ONCE (driver-side constant, like the
    role's automaton) and lands as the projection of the pruned read —
    denied columns never leave storage."""
    import fnmatch

    import pyarrow.parquet as pq

    schema = pq.read_schema(os.path.join(sf_dir, "documents.parquet"))
    grant, deny = ["doc_id", "lang", "n_*"], ["n_chars"]
    allowed = [c for c in schema.names
               if any(fnmatch.fnmatch(c, g) for g in grant)
               and not any(fnmatch.fnmatch(c, d) for d in deny)]
    import pyarrow.compute as pc

    out = (_ds(sf_dir, "documents", allowed,
               flt=pc.field("lang") == "en").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)

def agg_composite_geotile(sf_dir: str):
    """composite agg with a geotile_grid source (bucket/composite/
    GeoTileGridValuesSourceBuilder, 7.5): buckets keyed on (geotile
    cell, event_type) in key order with an `after` cursor — the cell
    key is computed per batch with the shared geotile kernel, then the
    SAME vectorized composite pagination as the terms sources."""
    from ray.data.aggregate import Count

    def cell(t: pa.Table) -> pa.Table:
        from ..geo import geotile_cell

        uid = t["user_id"].to_numpy()
        lat = (((uid * 7919) % 180) - 90 + 0.5).astype(np.float64)
        lon = (((uid * 104729) % 360) - 180 + 0.5).astype(np.float64)
        return pa.table({
            "tile": pa.array(geotile_cell(lat, lon, 3), pa.string()),
            "event_type": t["event_type"],
        })

    out = (_ds(sf_dir, "events", ["user_id", "event_type"])
           .map_batches(cell, batch_format="pyarrow")
           .groupby(["tile", "event_type"])
           .aggregate(Count(alias_name="doc_count")).to_pandas())
    out = out.sort_values(["tile", "event_type"]).reset_index(drop=True)
    # after-cursor: strictly beyond ("3/2/3", "error"), page size 20
    after = ("3/2/3", "error")
    gt = np.zeros(len(out), bool)
    eq = np.ones(len(out), bool)
    for k, a in zip(("tile", "event_type"), after):
        col = out[k].to_numpy()
        gt |= eq & (col > a)
        eq &= col == a
    return out[gt].head(20).reset_index(drop=True)


# ---------------- session-15: REST closure + force_merge + data ops ----------------


def ft_type_query(sf_dir: str):
    """Deprecated `type` query (index/query/TypeQueryBuilder.java): a 7.x
    index has the single mapping type `_doc`, so a bool filter [type:_doc]
    is a no-op (scores equal the unfiltered query) and any other value
    empties the result. Phase 0 filters on `_doc`, phase 1 on `legacy`
    (contributes no rows)."""
    from .fulltext import all_matches

    t0 = all_matches(sf_dir, {
        "kind": "bool", "must": [{"kind": "term", "term": "window"}],
        "filter": [{"kind": "type", "value": "_doc"}]})
    t1 = all_matches(sf_dir, {
        "kind": "bool", "must": [{"kind": "term", "term": "window"}],
        "filter": [{"kind": "type", "value": "legacy"}]})
    df0 = t0.to_pandas()
    df0.insert(0, "phase", np.int64(0))
    df1 = t1.to_pandas()
    df1.insert(0, "phase", np.int64(1))
    out = pd.concat([df0, df1], ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def indices_clone(sf_dir: str):
    """_clone resize (7.4 TransportResizeAction, ResizeType.CLONE): the
    target keeps the SAME shard count, so routing is unchanged and clone
    is hard-links + a fresh manifest — per-shard doc sets identical by
    construction. Verified observably: per shard (floorMod(murmur3(source),
    12) // 2, the resize formula with an unchanged factor) the doc count
    AND a content checksum — sum of the leading 8 hex digits of
    sha256(text), the per-row invariant of the input contract — must agree
    between source index and clone; the clone columns come from an
    independent second read. Scale shape: two pruned scans, per-batch
    integer partials, ONE shard-cardinality groupby each."""
    import hashlib

    from ray.data.aggregate import Count, Sum

    from ..index.routing import routing_hash

    R = 12

    def shard_sum(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(src, return_inverse=True)
        h = np.array([routing_hash(str(u)) for u in uniq], np.int64)[inv]
        shard = (((h % R) + R) % R) // (R // 6)
        ck = np.array([int(hashlib.sha256(s.encode()).hexdigest()[:8], 16)
                       for s in t["text"].to_pylist()], np.int64)
        return pa.table({"shard": pa.array(shard, pa.int64()),
                         "ck": pa.array(ck, pa.int64())})

    def one(tag: str) -> pd.DataFrame:
        out = (_ds(sf_dir, "documents", ["source", "text"])
               .map_batches(shard_sum, batch_format="pyarrow")
               .groupby("shard")
               .aggregate(Count(alias_name=f"docs_{tag}"),
                          Sum("ck", alias_name=f"checksum_{tag}"))
               .to_pandas().sort_values("shard").reset_index(drop=True))
        for c in out.columns:
            out[c] = out[c].astype(np.int64)
        return out

    src = one("source")
    clone = one("clone").drop(columns=["shard"])
    out = pd.concat([src, clone], axis=1)
    assert (out["docs_source"] == out["docs_clone"]).all()
    assert (out["checksum_source"] == out["checksum_clone"]).all()
    return out


def cluster_state(sf_dir: str):
    """_cluster/state metadata + routing_table view (RestClusterStateAction
    response sections): one row per index — number_of_shards (the logical
    shard plan: doc_id ranges of 2500, the OperationRouting analog; the
    physical segment layout is fragment-granular and reported by
    _segments), live doc count, state. Docs read from committed manifests;
    the oracle re-derives both numbers from the raw table."""
    import math

    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    idx = documents_index(sf_dir)
    live = live_segments(committed_segments(idx))
    docs = sum(m.doc_count for m in live.values())
    return pd.DataFrame({
        "index": ["documents"], "state": ["OPEN"],
        "shards": np.array([math.ceil(docs / 2500.0)], np.int64),
        "docs": np.array([docs], np.int64)})


def indices_get_settings(sf_dir: str):
    """_settings API (RestGetSettingsAction): the effective index settings
    of the documents index as a (setting, value) table. number_of_shards
    is the logical shard plan (doc ranges of 2500, derived from manifest
    doc counts; the oracle re-derives it from the row count), the rest
    mirror the engine's fixed build configuration."""
    import math

    from ..index.manifest import committed_segments, live_segments
    from .fulltext import documents_index

    idx = documents_index(sf_dir)
    live = live_segments(committed_segments(idx))
    docs = sum(m.doc_count for m in live.values())
    rows = [
        ("index.analysis.analyzer", "simple"),
        ("index.codec", "delta_varbyte"),
        ("index.number_of_replicas", "0"),
        ("index.number_of_shards", str(math.ceil(docs / 2500.0))),
        ("index.sort.field", "doc_id"),
    ]
    return pd.DataFrame(rows, columns=["setting", "value"])


def force_merge_api(sf_dir: str):
    """_forcemerge API (RestForceMergeAction -> index/merge.py force_merge,
    the TieredMergePolicy analog): rewrite the documents table as a
    600-row-row-group parquet (so the build plans ceil(n/600) fragment
    partitions -> that many segments), build, merge until ONE live
    segment, then prove search equivalence — the merged index's BM25
    scores for a 2-term OR match must equal the oracle recomputed from
    the raw table. Output rows carry (segments_before, segments_after)
    as constant columns."""
    import hashlib

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments, live_segments
    from ..index.merge import force_merge, gc_merged
    from ..search.engine import IndexSearcher
    from .fulltext import K1, B

    src_pq = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"{src_pq}:{os.path.getmtime(src_pq)}:fm600".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"fmidx_{tag}")
    corpus = os.path.join(root, "corpus")
    work = os.path.join(root, "index")
    if not os.path.isdir(os.path.join(root, "_merged_ok")):
        os.makedirs(corpus, exist_ok=True)
        t = pq.read_table(src_pq)
        pq.write_table(t, os.path.join(corpus, "documents.parquet"),
                       row_group_size=600)
        build_index(os.path.join(corpus, "documents.parquet"), work,
                    analyzer="simple", index_positions=False,
                    docs_per_partition=600, num_buckets=8,
                    content_column="text", meta_columns=())
        before = len(live_segments(committed_segments(work)))
        with open(os.path.join(root, "before.txt"), "w") as f:
            f.write(str(before))
        force_merge(work, max_num_segments=1)
        gc_merged(work)
        os.makedirs(os.path.join(root, "_merged_ok"), exist_ok=True)
    before = int(open(os.path.join(root, "before.txt")).read())
    after = len(live_segments(committed_segments(work)))
    s = IndexSearcher(work, score_mode="exact64", k1=K1, b=B,
                      main_field="text")
    ids, sc = s._eval({"kind": "match", "text": "merge vector"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
        "segments_before": np.full(ids.size, before, np.int64),
        "segments_after": np.full(ids.size, after, np.int64)})


def eql_tail_pipe(sf_dir: str):
    """EQL `| tail n` pipe (x-pack eql LimitWithOffset tail form): the n
    LATEST matching events — per-batch partial bottom-n on (ts, event_id)
    descending, driver merges batches x n rows, ascending output order
    (the reference returns tail results in timestamp order)."""
    from ..functions import eql

    return eql.run(sf_dir, 'view where value > 60 | tail 5')


def eql_count_pipe(sf_dir: str):
    """EQL `| count` pipe: total matching-event count — per-batch partial
    counts, scalar merge."""
    from ..functions import eql

    return eql.run(sf_dir, 'click where value <= 25 | count')


def dsir_importance(sf_dir: str):
    """DSIR data selection (Xie et al. 2023, "Data Selection for Language
    Models via Importance Resampling" — public): score every doc by the
    log-likelihood ratio between a target unigram LM (docs with lang='en')
    and the raw-corpus unigram LM, both add-1 smoothed over the corpus
    vocabulary; keep the top 15. Scale shape: phase 1 is ONE
    vocabulary-cardinality groupby of (term, is_target) count partials
    (pre-aggregated per batch); the log-ratio table broadcasts in the
    closure; phase 2 is a per-batch tf x ratio dot product + partial
    top-k — the corpus never reshuffles. Per-term ratios snap to the
    1e-6 grid in BOTH engines before the per-doc sum, so the float dot
    product is reproducible."""
    counts = count_terms(_ds(sf_dir, "documents", ["text", "lang"]),
                         lambda s: s.lower().split(), fg=_lang_is("en"))
    counts = counts.rename(columns={"cnt": "c_raw", "fg": "c_tgt"})
    vocab = counts["term"].to_numpy()
    c_raw = counts["c_raw"].to_numpy(np.float64)
    c_tgt = counts["c_tgt"].to_numpy(np.float64)
    n_raw, n_tgt, vs = c_raw.sum(), c_tgt.sum(), float(vocab.size)
    ratio = round_half_away(
        np.log((c_tgt + 1.0) / (n_tgt + vs)) - np.log((c_raw + 1.0) / (n_raw + vs)),
        6)
    lut = dict(zip(vocab.tolist(), ratio.tolist()))

    def weigh(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = np.empty(ids.size, np.float64)
        for i, txt in enumerate(t["text"].to_pylist()):
            w[i] = np.sum([lut[x] for x in txt.lower().split() if x])
        # per-batch partial top-k (driver merges batches x 15 rows)
        keep = np.lexsort((ids, -w))[:15]
        return pa.table({"doc_id": pa.array(ids[keep], pa.int64()),
                         "weight": pa.array(w[keep], pa.float64())})

    parts = (_ds(sf_dir, "documents", ["doc_id", "text"])
             .map_batches(weigh, batch_format="pyarrow").to_pandas())
    parts = parts.sort_values(["weight", "doc_id"],
                              ascending=[False, True]).head(15)
    parts["weight"] = round_half_away(parts["weight"].to_numpy(np.float64), 6)
    return parts.reset_index(drop=True)


def dedup_keep_best(sf_dir: str):
    """Keep-best dedup policy (the canonical-selection stage of a training
    -data pipeline: within each exact-duplicate cluster keep the HIGHEST
    -quality member — here longest n_chars, ties to smallest doc_id —
    rather than first-seen). Cluster key = sha256 of the token-normalized
    text. argmax composes, so per-batch champions pre-reduce before the
    ONE key-cardinality groupby; text never reshuffles."""
    import hashlib

    def keyed(t: pa.Table) -> pa.Table:
        ks = [hashlib.sha256(" ".join(s.lower().split()).encode()).hexdigest()
              for s in t["text"].to_pylist()]
        return pa.table({"k": pa.array(ks), "doc_id": t["doc_id"],
                         "n_chars": t["n_chars"]})

    def champion(g: pd.DataFrame) -> pd.DataFrame:
        o = g.sort_values(["n_chars", "doc_id"],
                          ascending=[False, True]).iloc[0]
        return pd.DataFrame({"doc_id": [int(o["doc_id"])],
                             "dups": [np.int64(g["dups"].sum())]})

    def batch_pre(t: pa.Table) -> pa.Table:
        # per-batch champion + count partial (argmax/count both compose)
        df = t.to_pandas()
        df = df.sort_values(["k", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        dups = df.groupby("k", sort=False).size()
        champ = df.drop_duplicates("k")
        out = pd.DataFrame({
            "k": champ["k"].to_numpy(),
            "doc_id": champ["doc_id"].to_numpy(np.int64),
            "n_chars": champ["n_chars"].to_numpy(np.int64),
            "dups": dups.reindex(champ["k"]).to_numpy(np.int64)})
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    out = (_ds(sf_dir, "documents", ["doc_id", "text", "n_chars"])
           .map_batches(keyed, batch_format="pyarrow")
           .map_batches(batch_pre, batch_format="pyarrow")
           .groupby("k").map_groups(champion, batch_format="pandas")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["dups"] = out["dups"].astype(np.int64)
    return out


def search_type_qtf(sf_dir: str):
    """query_then_fetch vs dfs_query_then_fetch (action/search/SearchType
    .java QUERY_THEN_FETCH default; TransportSearchAction DFS phase;
    SURVEY §2.5): under query_then_fetch each shard scores with its LOCAL
    term statistics (df, N, avgdl) — the rank drift vs global DFS stats is
    the small-shard artifact the DFS mode exists to remove. The engine
    builds a ceil(n/600)-shard index (600-row row groups), runs the same
    term query once per shard with purely local stats (IndexSearcher over
    segments=[sid] — exactly a shard-local searcher) and once globally;
    output is (mode, doc_id, score) for both modes. Scale shape: per-shard
    searches are independent actor work; the qtf mode is the zero-
    coordination path, dfs adds the one tiny stats exchange."""
    import hashlib

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments, live_segments
    from ..search.engine import IndexSearcher
    from .fulltext import K1, B

    src_pq = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha1(
        f"{src_pq}:{os.path.getmtime(src_pq)}:qtf600".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"qtfidx_{tag}")
    corpus = os.path.join(root, "corpus")
    work = os.path.join(root, "index")
    if not os.path.isdir(os.path.join(root, "_built_ok")):
        os.makedirs(corpus, exist_ok=True)
        t = pq.read_table(src_pq)
        pq.write_table(t, os.path.join(corpus, "documents.parquet"),
                       row_group_size=600)
        build_index(os.path.join(corpus, "documents.parquet"), work,
                    analyzer="simple", index_positions=False,
                    docs_per_partition=600, num_buckets=8,
                    content_column="text", meta_columns=())
        os.makedirs(os.path.join(root, "_built_ok"), exist_ok=True)
    q = {"kind": "term", "term": "data"}
    rows = []
    for sid in sorted(live_segments(committed_segments(work))):
        loc = IndexSearcher(work, segments=[sid], score_mode="exact64",
                            k1=K1, b=B, main_field="text")
        ids, sc = loc._eval(q)
        rows.append((ids, sc))
    ids_l = np.concatenate([r[0] for r in rows])
    sc_l = np.concatenate([r[1] for r in rows])
    glob = IndexSearcher(work, score_mode="exact64", k1=K1, b=B,
                         main_field="text")
    ids_g, sc_g = glob._eval(q)
    out = pd.DataFrame({
        "mode": ["query_then_fetch"] * ids_l.size + ["dfs"] * ids_g.size,
        "doc_id": np.concatenate([ids_l, ids_g]).astype(np.int64),
        "score": round_half_away(
            np.concatenate([sc_l, sc_g]).astype(np.float64), 4)})
    return (out.sort_values(["mode", "doc_id"], ascending=[False, True])
            .reset_index(drop=True))


def ingest_on_failure(sf_dir: str):
    """Ingest pipeline `on_failure` handlers (ingest/CompoundProcessor
    .java onFailureProcessors): the body tags rows 'ok' but FAILS rows
    with value > 140 (the `fail` processor); failed rows run the handler
    chain instead — tag 'failed' + reason from the on_failure_message
    metadata — and the pipeline itself never aborts. Vectorized
    split/apply/merge, row order preserved."""
    from ..functions import ingest as I
    import pyarrow.compute as _pc

    proc = I.on_failure(
        lambda t: _pc.greater(t["value"], 140.0),
        I.pipeline(I.set_value("tag", "ok")),
        I.pipeline(
            I.set_value("tag", "failed"),
            I.rename("_ingest_on_failure_message", "failure_reason")),
    )
    out = (_ds(sf_dir, "events", ["event_id", "value"])
           .map_batches(proc, batch_format="pyarrow")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    out["failure_reason"] = out["failure_reason"].astype(object).where(
        out["failure_reason"].notna(), None)
    return out[["event_id", "tag", "failure_reason"]]


def agg_terms_partitions(sf_dir: str):
    """terms agg include.partition / num_partitions (search/aggregations/
    bucket/terms/IncludeExclude.java: floorMod(hash(term), num_partitions)
    == partition — the scroll-all-terms pagination device). The reference
    hashes BytesRef with a JVM-seeded murmur3 (unstable across restarts);
    this engine substitutes the stable murmur3_x86_32(seed=0) routing hash
    (index/routing.py, OperationRouting's own function) and documents the
    substitution. Partition 1 of 4 over event_type; count + sum(value)
    per surviving term; the partition filter applies BEFORE the exchange
    (terms that miss the partition never shuffle)."""
    from ray.data.aggregate import Count, Sum

    from ..index.routing import routing_hash

    def part_filter(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(et, return_inverse=True)
        h = np.array([((routing_hash(str(u)) % 4) + 4) % 4 for u in uniq],
                     np.int64)[inv]
        keep = h == 1
        return pa.table({"event_type": pa.array(et[keep]),
                         "value": pa.array(
                             t["value"].to_numpy()[keep], pa.float64())})

    out = (_ds(sf_dir, "events", ["event_type", "value"])
           .map_batches(part_filter, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="doc_count"),
                      Sum("value", alias_name="sum_value"))
           .to_pandas().sort_values("event_type").reset_index(drop=True))
    out["doc_count"] = out["doc_count"].astype(np.int64)
    out["sum_value"] = round_half_away(
        out["sum_value"].to_numpy(np.float64), 6)
    return out


def sql_select_distinct(sf_dir: str):
    """_sql SELECT DISTINCT (x-pack sql ql plan Distinct over the
    projection): distributed distinct = per-batch local dedup combiner +
    ONE projection-cardinality groupby; ORDER BY applies to the reduced
    table. Oracle = the SQL itself, verbatim."""
    from ..functions.sql import run_sql

    return run_sql(
        "SELECT DISTINCT o_orderstatus, o_orderpriority FROM orders "
        "ORDER BY o_orderstatus, o_orderpriority", sf_dir, ds_factory=_ds)


def ml_outlier_detection(sf_dir: str):
    """x-pack ML data-frame analytics `outlier_detection` (7.3,
    x-pack/plugin/ml .../dataframe/analyses/OutlierDetection.java): the
    distance-based kNN family — each point's outlier score derives from
    its distance to the k-th (k=5) nearest neighbor; top-10 by score.
    Scale shape: the vector table broadcasts once (ray.put); each batch
    computes a (batch x N) squared-distance matrix by the norm expansion,
    takes 8 > k candidates per row, recomputes exact sum-of-squares
    distances for candidates only (the SQL twin's list_distance
    evaluation), and emits one (vec_id, 5th-NN distance) row per point —
    a per-batch partial; the driver sees N rows, merges top-10. The
    reference caps the same computation with hash-based sampling above
    ~64k points; the IVF/LSH bucketing in functions/similarity.py is this
    engine's equivalent scale hatch."""
    import pyarrow.dataset as pads

    import ray

    k = 5
    t = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"])
    ids_all = t["vec_id"].to_numpy()
    E = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
        np.float64)
    e_ref = ray.put((ids_all, E, np.sum(E * E, axis=1)))

    def knn_dist(b: pa.Table) -> pa.Table:
        aids, Em, nrm = ray.get(e_ref)
        ids = b["vec_id"].to_numpy()
        if ids.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "knn_dist": pa.array([], pa.float64())})
        V = np.stack(b["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64)
        d2 = (np.sum(V * V, axis=1)[:, None] - 2.0 * (V @ Em.T) + nrm[None, :])
        # exclude self by id (not by position: batches are row subsets)
        self_col = np.searchsorted(aids, ids)
        d2[np.arange(ids.size), self_col] = np.inf
        cand = np.argpartition(d2, 8, axis=1)[:, :8]
        out = np.empty(ids.size, np.float64)
        for i in range(ids.size):
            # exact distances, ranked (d, neighbor_id) like the SQL twin
            ds_ = np.sqrt(((V[i] - Em[cand[i]]) ** 2).sum(axis=1))
            order = np.lexsort((aids[cand[i]], ds_))
            out[i] = ds_[order][k - 1]
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "knn_dist": pa.array(out, pa.float64())})

    out = (_ds(sf_dir, "embeddings", ["vec_id", "embedding"])
           .map_batches(knn_dist, batch_format="pyarrow")
           .to_pandas())
    out = out.sort_values(["knn_dist", "vec_id"],
                          ascending=[False, True]).head(10)
    out["knn_dist"] = round_half_away(out["knn_dist"].to_numpy(np.float64), 6)
    out["vec_id"] = out["vec_id"].astype(np.int64)
    return out.reset_index(drop=True)


def dedup_substring_runs(sf_dir: str):
    """Exact duplicated-substring spans (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better" — the suffix-array exact
    substring pass, public): an 8-token window occurring >= 2 times in the
    corpus marks its span as duplicated; per doc, the union length of all
    duplicated spans (gaps-and-islands merge) is the number of tokens an
    exact-substring dedup pass would cut. Scale shape: only (gram, doc,
    pos) rows shuffle — ~1 row per token, the same volume as the index
    build's posting explode — and BOTH groupbys are bucket-cardinality
    (gram-hash buckets, doc buckets), each group processed by a fully
    vectorized kernel (value_counts flagging; segmented-cummax interval
    union). At 100 TB the gram column becomes a 64-bit hash (collision
    odds ~2^-22 per the birthday bound); the string form keeps the
    oracle exact."""
    import zlib

    W, BUCKETS = 8, 64

    def grams(t: pa.Table) -> pa.Table:
        gs, ds_, ps = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = [w for w in txt.lower().split() if w]
            for i in range(len(ws) - W + 1):
                gs.append(" ".join(ws[i:i + W]))
                ds_.append(did)
                ps.append(i)
        gb = np.array([zlib.crc32(g.encode()) % BUCKETS for g in gs],
                      np.int64)
        return pa.table({"gbucket": pa.array(gb),
                         "gram": pa.array(gs, pa.string()),
                         "doc_id": pa.array(ds_, pa.int64()),
                         "pos": pa.array(ps, pa.int64())})

    def flag_dups(g: pd.DataFrame) -> pd.DataFrame:
        # one gram-hash bucket: keep occurrences of grams seen >= 2 times
        c = g.groupby("gram")["doc_id"].transform("size")
        keep = g.loc[c >= 2, ["doc_id", "pos"]].copy()
        keep["dbucket"] = keep["doc_id"].to_numpy(np.int64) % BUCKETS
        return keep

    def union_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one doc bucket: vectorized interval union over ALL its docs —
        # segmented cummax via doc-offset keys, no per-doc Python loop
        if len(g) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "dup_tokens": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["doc_id", "pos"])
        d = g["doc_id"].to_numpy(np.int64)
        p = g["pos"].to_numpy(np.int64)
        e = p + W
        off = int(e.max()) + W + 1
        key = d * off + e
        rm = np.maximum.accumulate(key)
        brk = np.ones(d.size, bool)
        if d.size > 1:
            prev_end = rm[:-1] - d[1:] * off  # prior run-end in cur doc frame
            brk[1:] = (d[1:] != d[:-1]) | (p[1:] > prev_end)
        final = np.concatenate([brk[1:], [True]])
        starts = p[brk]
        ends = rm[final] - d[final] * off
        res = pd.DataFrame({"doc_id": d[brk], "cov": ends - starts})
        out = res.groupby("doc_id", as_index=False)["cov"].sum()
        return pd.DataFrame({"doc_id": out["doc_id"].to_numpy(np.int64),
                             "dup_tokens": out["cov"].to_numpy(np.int64)})

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(grams, batch_format="pyarrow")
           .groupby("gbucket").map_groups(flag_dups, batch_format="pandas")
           .groupby("dbucket").map_groups(union_bucket, batch_format="pandas")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["dup_tokens"] = out["dup_tokens"].astype(np.int64)
    return out[["doc_id", "dup_tokens"]]


def agg_moving_fn_holt_winters(sf_dir: str):
    """moving_fn holtWinters builtin (MovingFunctions.java:240-321; the
    last of the MovingFunctions family — max/min/sum/avg/stdDev/
    linearWeightedAvg/ewma/holt are registered ops already): additive
    triple-exponential smoothing over the full day-bucket series
    (alpha=.3, beta=.1, gamma=.3, period=7), emitting the one-step
    forecast plus final level/trend. The bucket series reduces through
    the ordinary date_histogram partial exchange (30 rows); the smoothing
    recursion is inherently sequential and runs on the reduced table —
    the oracle replays the identical recursion (including ES's
    `last_s - last_b` seasonal-update quirk and double-divided trend
    seed) as a recursive CTE carrying the seasonal LIST."""
    base = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    v = base.sort_values("bucket")["doc_count"].to_numpy(np.float64)
    f, lvl, tr = A.holt_winters_forecast(v, 0.3, 0.1, 0.3, 7)
    return pd.DataFrame({
        "buckets": np.array([v.size], np.int64),
        "forecast": [round_half_away(np.array([f]), 4)[0]],
        "level": [round_half_away(np.array([lvl]), 4)[0]],
        "trend": [round_half_away(np.array([tr]), 4)[0]]})


def ft_analyze_keyword_repeat(sf_dir: str):
    """keyword_repeat + stemmer + remove_duplicates chain (analysis-common
    KeywordRepeatTokenFilter via CommonAnalysisPlugin.java:230-303 with
    RemoveDuplicatesTokenFilter — the canonical index-both-forms setup
    from the reference docs): every token emits the ORIGINAL and its
    Porter stem at the same position; remove_duplicates collapses the
    pair when stemming was a no-op. Output: top-10 indexed tokens by
    count. The oracle replays the same chain with the Porter-in-SQL
    pipeline (position-keyed UNION = per-position dedup)."""
    from ..analyzer import ENGLISH_STOP_WORDS
    from ..filters import porter_stem

    def repeat_stem(s: str) -> list[str]:
        out = []
        for w in analyze_simple(s):
            if w not in ENGLISH_STOP_WORDS:
                st = porter_stem(w)
                out += (w,) if st == w else (w, st)
        return out

    out = count_terms(_ds(sf_dir, "documents", ["text"]), repeat_stem,
                      key="token")
    return (out.sort_values(["cnt", "token"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def dedup_substring_cut(sf_dir: str):
    """The CUT phase of exact substring dedup (Lee et al. 2021: remove
    every duplicated span, keep the remainder): tokens covered by a
    duplicated 8-gram island (dedup_substring_runs' interval union) are
    deleted and the survivors rejoin. Output: (doc_id, kept_tokens,
    clean_text) for affected docs. Scale shape: the gram explode and
    bucket flagging match dedup_substring_runs; the rebuild co-groups
    duplicated positions WITH doc texts via a tagged union + ONE
    doc-bucket groupby (the chunk-dedup reassembly shape) — the driver
    never holds positions or texts."""
    import zlib

    W, BUCKETS = 8, 64

    def grams(t: pa.Table) -> pa.Table:
        gs, ds_, ps = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = [w for w in txt.lower().split() if w]
            for i in range(len(ws) - W + 1):
                gs.append(" ".join(ws[i:i + W]))
                ds_.append(did)
                ps.append(i)
        gb = np.array([zlib.crc32(g.encode()) % BUCKETS for g in gs],
                      np.int64)
        return pa.table({"gbucket": pa.array(gb),
                         "gram": pa.array(gs, pa.string()),
                         "doc_id": pa.array(ds_, pa.int64()),
                         "pos": pa.array(ps, pa.int64())})

    def flag_dups(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("gram")["doc_id"].transform("size")
        keep = g.loc[c >= 2, ["doc_id", "pos"]].copy()
        keep["dbucket"] = keep["doc_id"].to_numpy(np.int64) % BUCKETS
        return keep

    # co-group duplicated positions WITH the doc texts by doc bucket
    # (the dedup.py chunk-dedup shape: one tagged union + ONE bucket
    # groupby; the driver never holds positions or texts)
    occ = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(grams, batch_format="pyarrow")
           .groupby("gbucket").map_groups(flag_dups, batch_format="pandas"))

    def tag_docs(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "pos": pa.array(np.full(d.size, -1), pa.int64()),
                         "dbucket": pa.array(d % BUCKETS),
                         "text": t["text"]})

    def widen_occ(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "pos": t["pos"],
                         "dbucket": t["dbucket"],
                         "text": pa.nulls(len(t), pa.string())})

    docs = (_ds(sf_dir, "documents", ["doc_id", "text"])
            .map_batches(tag_docs, batch_format="pyarrow"))
    both = occ.map_batches(widen_occ, batch_format="pyarrow").union(docs)

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        cuts: dict[int, set] = {}
        o = g[g["pos"] >= 0]
        for did, p_ in zip(o["doc_id"].to_numpy(np.int64),
                           o["pos"].to_numpy(np.int64)):
            cuts.setdefault(int(did), set()).update(range(p_, p_ + W))
        ids, kept, clean = [], [], []
        d = g[g["pos"] < 0]
        for did, txt in zip(d["doc_id"].to_numpy(np.int64),
                            d["text"].tolist()):
            cut = cuts.get(int(did))
            if not cut:
                continue
            ws = [w for w in txt.lower().split() if w]
            sur = [w for i, w in enumerate(ws) if i not in cut]
            ids.append(int(did))
            kept.append(len(sur))
            clean.append(" ".join(sur))
        return pd.DataFrame({"doc_id": pd.array(ids, dtype="int64"),
                             "kept_tokens": pd.array(kept, dtype="int64"),
                             "clean_text": pd.Series(clean, dtype="string")})

    out = (both.groupby("dbucket").map_groups(rebuild, batch_format="pandas")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["kept_tokens"] = out["kept_tokens"].astype(np.int64)
    out["clean_text"] = out["clean_text"].astype(str)
    return out


def agg_t_test_paired(sf_dir: str):
    """t_test agg, type=paired (x-pack analytics TTestAggregationBuilder
    TTestType.PAIRED: per-document differences, t = mean(d) /
    sqrt(var(d)/n) with the sample variance): value vs the props.k metric
    of the same event. Differences scale to integer cents so the
    per-batch (n, sum, sum-of-squares) partials merge exactly; mean/t
    derive from the integer sums with the same literal expressions as
    the SQL twin."""
    import json

    def partial(t: pa.Table) -> pa.Table:
        v = np.rint(t["value"].to_numpy() * 100).astype(np.int64)
        k = np.array([json.loads(s)["k"] for s in t["props"].to_pylist()],
                     np.int64) * 100
        d = (v - k).astype(object)  # python ints: no overflow in d*d sums
        return pa.table({"n": [np.int64(d.size)],
                         "s": [np.int64(sum(d))],
                         "ss": [np.int64(sum(d * d))]})

    parts = (_ds(sf_dir, "events", ["value", "props"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    n = float(parts["n"].sum())
    s = float(parts["s"].sum())
    ss = float(parts["ss"].sum())
    mean = s / n
    var = (ss - n * mean * mean) / (n - 1.0)
    t_stat = mean / np.sqrt(var / n)
    return pd.DataFrame({
        "n": np.array([int(n)], np.int64),
        "mean_diff": [round_half_away(np.array([mean / 100.0]), 6)[0]],
        "t_stat": [round_half_away(np.array([t_stat]), 6)[0]]})


def k_anonymity_suppress(sf_dir: str):
    """k-anonymity suppression pass (the privacy gate of a training-data
    pipeline; Sweeney 2002, public): customers whose quasi-identifier
    tuple (c_nationkey, c_mktsegment) is shared by fewer than k rows are
    suppression candidates; k = ceil(mean class size) so the gate is
    meaningful at every scale. Count composes, so per-batch partials
    pre-reduce before ONE QI-cardinality groupby; the flagged QI classes
    broadcast back over a second scan to emit the suppression list —
    rows never shuffle."""
    import math

    from ray.data.aggregate import Count

    import ray

    qi = ["c_nationkey", "c_mktsegment"]
    classes = (_ds(sf_dir, "customer", qi)
               .groupby(qi).aggregate(Count(alias_name="n"))
               .to_pandas())
    total = int(classes["n"].sum())
    k = math.ceil(total / len(classes))
    small = classes[classes["n"] < k]
    flag = {(int(r.c_nationkey), r.c_mktsegment): int(r.n)
            for r in small.itertuples()}
    f_ref = ray.put(flag)

    def suppress(t: pa.Table) -> pa.Table:
        fm = ray.get(f_ref)
        nk = t["c_nationkey"].to_numpy()
        seg = t["c_mktsegment"].to_pylist()
        ck = t["c_custkey"].to_numpy()
        keep = [i for i in range(len(ck))
                if (int(nk[i]), seg[i]) in fm]
        return pa.table({
            "c_custkey": pa.array(ck[keep].astype(np.int64)),
            "class_size": pa.array(
                [fm[(int(nk[i]), seg[i])] for i in keep], pa.int64())})

    out = (_ds(sf_dir, "customer", ["c_custkey"] + qi)
           .map_batches(suppress, batch_format="pyarrow")
           .to_pandas())
    if out.empty:
        return pd.DataFrame({"c_custkey": pd.Series([], dtype=np.int64),
                             "class_size": pd.Series([], dtype=np.int64)})
    out = out.sort_values("c_custkey").reset_index(drop=True)
    out["c_custkey"] = out["c_custkey"].astype(np.int64)
    out["class_size"] = out["class_size"].astype(np.int64)
    return out


def synthetic_source(sf_dir: str):
    """Synthetic _source (8.4 index.mapping.source.mode=synthetic,
    SourceFieldMapper synthetic mode): _source is NOT stored; it is
    reconstructed from doc values at fetch time, with leaf fields in
    ALPHABETICAL order and normalized values — the reference documents
    this as a lossy-but-canonical rebuild. Here: the 5 top-value orders
    rebuilt as canonical JSON from the columnar row (the parquet columns
    ARE the doc values); the oracle concatenates the same canonical
    form in SQL."""
    import pyarrow.compute as _pc

    ds = _ds(sf_dir, "orders",
             ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"])

    def topk(t: pa.Table) -> pa.Table:
        idx = _pc.select_k_unstable(
            t, 5, [("o_totalprice", "descending"), ("o_orderkey", "ascending")])
        return t.take(idx)

    top = (ds.map_batches(topk, batch_format="pyarrow").to_pandas()
           .sort_values(["o_totalprice", "o_orderkey"],
                        ascending=[False, True]).head(5))

    def render(r) -> str:
        # alphabetical leaves, canonical JSON (2 dp prices are exact)
        return ('{"o_custkey":%d,"o_orderkey":%d,"o_orderstatus":"%s",'
                '"o_totalprice":%.2f}' % (
                    r.o_custkey, r.o_orderkey, r.o_orderstatus,
                    r.o_totalprice))

    out = pd.DataFrame({
        "o_orderkey": top["o_orderkey"].to_numpy(np.int64),
        "synthetic": [render(r) for r in top.itertuples()]})
    return out.reset_index(drop=True)


def snapshot_clone(sf_dir: str):
    """_snapshot clone (8.0 TransportCloneSnapshotAction -> index/snapshot
    .py clone_snapshot): clone references the SAME content-addressed
    blobs (zero copy), and a restore from the CLONE must search
    identically to the live index. Output: the term query's matches from
    the restored clone plus a reused_blobs flag (1 = the clone copied
    nothing). The oracle recomputes the query from the raw table."""
    import hashlib
    import shutil

    from ..index.snapshot import (clone_snapshot, create_snapshot,
                                  restore_snapshot)
    from ..search.engine import IndexSearcher
    from .fulltext import K1, B, documents_index

    idx = documents_index(sf_dir)
    tag = hashlib.sha1(idx.encode()).hexdigest()[:12]
    root = os.path.join("/tmp/esray_cache", f"snapclone_{tag}")
    repo = os.path.join(root, "repo")
    dest = os.path.join(root, "restored")
    if not os.path.isdir(os.path.join(root, "_ok")):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(repo, exist_ok=True)
        create_snapshot(idx, repo, "src")
        m = clone_snapshot(repo, "src", "clone")
        assert m["copied"] == [] and m["cloned_from"] == "src"
        restore_snapshot(repo, "clone", dest)
        os.makedirs(os.path.join(root, "_ok"), exist_ok=True)
    s = IndexSearcher(dest, score_mode="exact64", k1=K1, b=B,
                      main_field="text",
                      field_analyzers={"text_2gram": "shingle2"})
    ids, sc = s._eval({"kind": "term", "term": "stream"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
        "reused_blobs": np.full(ids.size, 1, np.int64)})


def esql_enrich_range(sf_dir: str):
    """ES|QL ENRICH with a range-type policy (enrich match_type=range,
    x-pack enrich RangePolicy / EnrichPolicy.RANGE_TYPE): each event's
    value matches the band whose [lo, hi) interval contains it; the
    policy table broadcasts (the reference materializes the enrich index
    to every node). Per batch: ONE searchsorted against the sorted band
    bounds — no shuffle; then a band-cardinality count rollup."""
    from ray.data.aggregate import Count, Sum

    bands = [(0.0, 25.0, "low"), (25.0, 75.0, "mid"),
             (75.0, 150.0, "high"), (150.0, 1e18, "extreme")]
    lows = np.array([b[0] for b in bands])
    names = np.array([b[2] for b in bands], dtype=object)

    def enrich(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        band = names[np.searchsorted(lows, v, side="right") - 1]
        return pa.table({"band": pa.array(band.astype(str)),
                         "value": pa.array(v, pa.float64())})

    out = (_ds(sf_dir, "events", ["value"])
           .map_batches(enrich, batch_format="pyarrow")
           .groupby("band")
           .aggregate(Count(alias_name="events"),
                      Sum("value", alias_name="sum_value"))
           .to_pandas().sort_values("band").reset_index(drop=True))
    out["events"] = out["events"].astype(np.int64)
    out["sum_value"] = round_half_away(out["sum_value"].to_numpy(np.float64), 6)
    return out


def ingest_dissect_modifiers(sf_dir: str):
    """dissect modifiers (libs/dissect DissectKey.Modifier: `%{+key/n}`
    ordered append, `%{?key}` named skip, `%{key->}` right-padding):
    o_orderpriority '1-URGENT' parses under "%{+p/2}-%{+p/1}"
    (append_separator '_') to 'URGENT_1'; a right-padded composite
    string parses under "%{?num}-%{word->} %{okey}" where the repeated
    space delimiter absorbs the padding and the leading digit is a named
    skip. The oracle re-derives every field with independent string
    arithmetic."""
    from ..functions import ingest as I

    def compose(t: pa.Table) -> pa.Table:
        pr = t["o_orderpriority"].to_pylist()
        ok = t["o_orderkey"].to_pylist()
        # dissect splits at the FIRST delimiter hit (the reference does
        # too), so spaces inside the value are underscored first
        padded = ["%-17s%d" % (p.replace(" ", "_"), k)
                  for p, k in zip(pr, ok)]
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_orderpriority": t["o_orderpriority"],
                         "padded": pa.array(padded, pa.string())})

    proc = I.pipeline(
        I.dissect_advanced("o_orderpriority", "%{+p/2}-%{+p/1}",
                           append_separator="_"),
        I.dissect_advanced("padded", "%{?num}-%{word->} %{okey}"),
    )
    out = (_ds(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
           .map_batches(compose, batch_format="pyarrow")
           .map_batches(proc, batch_format="pyarrow")
           .to_pandas().sort_values("o_orderkey").reset_index(drop=True))
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    assert (out["okey"] == out["o_orderkey"].astype(str)).all()
    return out[["o_orderkey", "p", "word", "okey"]]


def ft_regexp_interval(sf_dir: str):
    """Lucene RegExp `<n-m>` numeric-interval class (RegexpQueryBuilder ->
    org.apache.lucene.util.automaton.RegExp [Lucene 8.5, public
    knowledge]): `src<5-12>` over the source field matches src5..src12
    — the interval is NUMERIC, not lexicographic (src10 matches; src2
    does not). Expansion runs over the field's term dictionary like any
    multi-term query; constant-score filter context."""
    return all_matches(sf_dir, {"kind": "regexp", "pattern": "src<5-12>",
                                "field": "source"}, with_score=False)


def ft_case_insensitive(sf_dir: str):
    """`case_insensitive` option on term-level queries (7.10,
    TermQueryBuilder:64 / PrefixQueryBuilder / WildcardQueryBuilder /
    RegexpQueryBuilder caseInsensitive -> AutomatonQueries): the query
    value case-folds to meet the case-folded term dictionary. Phase 0:
    term 'DATA' ci; phase 1: wildcard 'SRC1*' ci on source; phase 2:
    the same term WITHOUT the option — no rows (the dictionary is
    lowercase)."""
    from .fulltext import all_matches

    frames = []
    specs = [
        (0, {"kind": "term", "term": "DATA", "case_insensitive": True}),
        (1, {"kind": "wildcard", "pattern": "SRC1*", "field": "source",
             "case_insensitive": True}),
        (2, {"kind": "term", "term": "DATA"}),
    ]
    for phase, q in specs:
        t = all_matches(sf_dir, q, with_score=False).to_pandas()
        t.insert(0, "phase", np.int64(phase))
        frames.append(t)
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def ft_mlt_unlike(sf_dir: str):
    """more_like_this with `unlike` negative examples + min_term_freq
    (MoreLikeThisQueryBuilder unlikeTexts / minTermFreq -> Lucene
    XMoreLikeThis skip-terms): doc 42's terms with tf >= 2, minus every
    term of the unlike doc 7, top-8 by (tf desc, term asc), BM25 OR.
    The oracle re-derives the SELECTED TERM SET in SQL too, so the
    choice logic (not just the scoring) is verified."""
    from ..sources.reader import fetch_rows_by_doc_id

    rows = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                                [7, 42], columns=["doc_id", "text"])
    by_id = {r["doc_id"]: r["text"] for r in rows.to_pylist()}
    return all_matches(sf_dir, {
        "kind": "more_like_this", "like": by_id[42], "unlike": by_id[7],
        "max_query_terms": 8, "min_term_freq": 2, "exclude_doc": 42})


def dedup_cluster_sizes(sf_dir: str):
    """Duplicate-cluster size distribution (the dedup diagnostic a corpus
    report needs: how many near-dup clusters of each size exist — the
    heavy tail is where dedup pays). Reuses the connected-components
    pipeline (distributed min-label propagation); the histogram is two
    groupbys over the already-reduced (doc, component) table."""
    cc = dedup_components(sf_dir)
    sizes = cc.groupby("component").size()
    hist = sizes.value_counts().sort_index()
    return pd.DataFrame({
        "csize": hist.index.to_numpy(np.int64),
        "clusters": hist.to_numpy(np.int64)})


def knn_matryoshka_overlap(sf_dir: str):
    """Matryoshka-truncation retrieval check (Kusupati et al. 2022, MRL —
    public; the dense_vector dim-reduction question every embedding
    pipeline asks): top-5 cosine neighbors under the FULL 64-d vectors vs
    the first-16-dim truncation; output per query = |overlap|. Both
    passes are the broadcast-queries / per-batch partial-top-k shape; the
    truncation is a zero-copy list slice per batch."""
    import pyarrow.dataset as pads

    from ..functions import similarity as S_

    t = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        columns=["vec_id", "embedding"])
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False))[:3]
    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    full = S_.knn_brute_force(ds, Q, k=5, dtype=np.float64)

    def trunc(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table({"vec_id": b["vec_id"],
                         "embedding": _pc.list_slice(b["embedding"], 0, 16)})

    ds16 = ds.map_batches(trunc, batch_format="pyarrow")
    part = S_.knn_brute_force(ds16, Q[:, :16], k=5, dtype=np.float64)
    f = {int(q): set(g["vec_id"]) for q, g in full.groupby("query_id")}
    p = {int(q): set(g["vec_id"]) for q, g in part.groupby("query_id")}
    qids = sorted(f)
    return pd.DataFrame({
        "query_id": np.array(qids, np.int64),
        "overlap": np.array([len(f[q] & p[q]) for q in qids], np.int64),
        "trunc_dim": np.full(len(qids), 16, np.int64)})


def dedup_minhash_incremental(sf_dir: str):
    """Incremental near-dedup (the streaming-append shape a growing corpus
    needs: check ONLY the new batch against the existing corpus): docs
    with doc_id % 10 == 0 are the "new" batch; LSH buckets come from the
    SAME banded pipeline, but verification forms only NEW x EXISTING
    pairs inside the bucket groups (new x new and existing x existing are
    never computed — at a steady append rate that is the entire cost
    difference vs full re-dedup). Output: (new_doc, dup_of, jaccard).
    Bounded (doc_id < 600, 32 perms / 8 bands) to keep the HUGEINT SQL
    twin exact, like the sibling exact dedup gates."""
    import pyarrow.compute as pc

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 600)
    pairs = D.minhash_verified_pairs_ds(
        ds, threshold=0.8, num_perm=32, bands=8,
        new_ids_pred=lambda i: i % 10 == 0, emit_jaccard=True)
    out = pairs.to_pandas()
    if out.empty:
        return pd.DataFrame({"new_doc": pd.Series([], dtype=np.int64),
                             "dup_of": pd.Series([], dtype=np.int64),
                             "jaccard": pd.Series([], dtype=np.float64)})
    out = out.rename(columns={"doc_a": "new_doc", "doc_b": "dup_of"})
    out["new_doc"] = out["new_doc"].astype(np.int64)
    out["dup_of"] = out["dup_of"].astype(np.int64)
    out["jaccard"] = round_half_away(out["jaccard"].to_numpy(np.float64), 6)
    return (out.sort_values(["new_doc", "dup_of"])
            .reset_index(drop=True)[["new_doc", "dup_of", "jaccard"]])


def agg_derivative_unit(sf_dir: str):
    """derivative `unit` option (DerivativePipelineAggregationBuilder
    .unit -> DerivativePipelineAggregator normalizedValue: the delta
    divided by (bucket_interval / unit)): day buckets with unit=1h emit
    the per-hour rate alongside the raw delta. First bucket has no
    derivative (null in the reference; surfaced as 0 raw / 0.0 rate,
    matching the sibling agg_derivative's convention)."""
    out = A.date_histogram(_ds(sf_dir, "events"), "ts", "day")
    out = A.derivative(out, "doc_count")
    out["deriv"] = out["deriv"].fillna(0).astype(np.int64)
    out["per_hour"] = round_half_away(
        out["deriv"].to_numpy(np.float64) / 24.0, 6)
    return out[["bucket", "doc_count", "deriv", "per_hour"]]


def agg_significant_text_dedup(sf_dir: str):
    """significant_text `filter_duplicate_text` option
    (SignificantTextAggregationBuilder.filterDuplicateText — the
    near-dup-pollution guard the reference docs recommend for news-wire
    corpora): exact-duplicate texts count ONCE before the significance
    statistics. Stage 1 = keep-first exact dedup (per-batch champion
    combiner, ONE key groupby — text rides the shuffle once); stage 2 =
    the ordinary JLH partials over the surviving set."""
    import hashlib

    def keyed(t: pa.Table) -> pa.Table:
        ks = [hashlib.sha256(" ".join(s.lower().split()).encode()).hexdigest()
              for s in t["text"].to_pylist()]
        return pa.table({"k": pa.array(ks), "doc_id": t["doc_id"],
                         "text": t["text"]})

    def batch_pre(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["k", "doc_id"])
        return pa.Table.from_pandas(
            df.drop_duplicates("k"),
            preserve_index=False).replace_schema_metadata(None)

    def champion(g: pd.DataFrame) -> pd.DataFrame:
        o = g.sort_values("doc_id").iloc[0]
        return pd.DataFrame({"text": [o["text"]]})

    champions = (_ds(sf_dir, "documents", ["doc_id", "text"])
                 .map_batches(keyed, batch_format="pyarrow")
                 .map_batches(batch_pre, batch_format="pyarrow")
                 .groupby("k").map_groups(champion, batch_format="pandas")
                 .materialize())
    red = count_terms(champions, analyze_simple, distinct=True,
                      fg=_has_term("data")).rename(
        columns={"cnt": "bg_df", "fg": "fg_df"})
    bg_n = champions.count()
    fg_n = int(red.loc[red.term == "data", "fg_df"].iloc[0])
    red = red[red.fg_df >= 5].copy()
    fgp = red.fg_df / fg_n
    bgp = red.bg_df / bg_n
    red["score"] = round_half_away(
        ((fgp - bgp) * (fgp / bgp)).to_numpy(np.float64), 6)
    red = red.sort_values(["score", "term"], ascending=[False, True]).head(10)
    return red.reset_index(drop=True)[["term", "fg_df", "bg_df", "score"]]


def percolate_existing_doc(sf_dir: str):
    """percolate with an EXISTING indexed document (PercolateQueryBuilder's
    index/id form — the reference fetches the doc, then percolates it like
    an inline one): docs 17, 42 and 99 fetched by row-group-pruned point
    read, run against the same stored-query set as the sibling percolate
    op. Output: (doc_id, query_id) matches."""
    import ray.data as rd

    from ..functions.percolate import percolate_dataset
    from ..sources.reader import fetch_rows_by_doc_id

    rows = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                                [17, 42, 99], columns=["doc_id", "text"])
    queries = [(qid, {"terms": terms}) for qid, terms in _PERCOLATE_QUERIES]
    out = percolate_dataset(rd.from_arrow(rows), queries)
    return out


def mapper_size_field(sf_dir: str):
    """mapper-size plugin (`_size` metadata field: the byte length of the
    original _source, queryable and aggregatable): docs with
    800 <= _size < 1200 plus per-lang _size stats over the full table.
    _size here = length of the text payload (the engine's _source is the
    text column). Filter pushes into the scan; stats are per-batch
    integer partials."""
    import pyarrow.compute as _pc

    from ray.data.aggregate import Count, Max, Min, Sum

    def add_size(t: pa.Table) -> pa.Table:
        return pa.table({"lang": t["lang"],
                         "size": _pc.utf8_length(t["text"])})

    sized = (_ds(sf_dir, "documents", ["lang", "text"])
             .map_batches(add_size, batch_format="pyarrow"))
    stats = (sized.groupby("lang")
             .aggregate(Count(alias_name="docs"),
                        Min("size", alias_name="min_size"),
                        Max("size", alias_name="max_size"),
                        Sum("size", alias_name="sum_size"))
             .to_pandas().sort_values("lang").reset_index(drop=True))
    in_range = (sized.map_batches(
        lambda t: t.filter(_pc.and_(_pc.greater_equal(t["size"], 800),
                                    _pc.less(t["size"], 1200))),
        batch_format="pyarrow").count())
    stats["in_range_800_1200"] = np.int64(in_range)
    for c in ("docs", "min_size", "max_size", "sum_size",
              "in_range_800_1200"):
        stats[c] = stats[c].astype(np.int64)
    return stats


def murmur3_field_cardinality(sf_dir: str):
    """mapper-murmur3 plugin (Murmur3FieldMapper: index the murmur3 hash
    of the value; cardinality aggs then hash-count without re-hashing at
    query time): per lang, count of DISTINCT murmur3(source) hashes plus
    their XOR (order-invariant checksum the oracle reproduces from
    embedded hash constants — the mapper plugin's x64_128 is substituted
    with the engine's stable murmur3_x86_32 routing hash, documented).
    Per-batch distinct-pair partials -> ONE (lang, hash) exchange."""
    from ray.data.aggregate import Count

    from ..index.routing import routing_hash

    def hashed(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(src, return_inverse=True)
        h = np.array([routing_hash(str(u)) for u in uniq], np.int64)[inv]
        return pa.Table.from_pandas(
            pd.DataFrame({"lang": t["lang"].to_pylist(), "h": h})
            .drop_duplicates(), preserve_index=False).replace_schema_metadata(None)

    pairs = (_ds(sf_dir, "documents", ["lang", "source"])
             .map_batches(hashed, batch_format="pyarrow")
             .groupby(["lang", "h"]).aggregate(Count(alias_name="c"))
             .to_pandas())
    out = (pairs.groupby("lang")
           .agg(distinct_hashes=("h", "size"),
                hash_xor=("h", lambda s: int(np.bitwise_xor.reduce(
                    s.to_numpy(np.int64)))))
           .reset_index().sort_values("lang").reset_index(drop=True))
    out["distinct_hashes"] = out["distinct_hashes"].astype(np.int64)
    out["hash_xor"] = out["hash_xor"].astype(np.int64)
    return out


def ft_annotated_text(sf_dir: str):
    """mapper-annotated-text plugin (AnnotatedTextFieldMapper): the first
    occurrence of 'merge' in each doc is annotated `[merge](action:merge)`
    at ingest; the annotated-text analyzer emits the annotation key at
    the SAME position as the surface token, so an annotation-term search
    returns exactly the docs containing the surface term AND the key's
    position equals the surface token's position — both re-derived by
    the oracle from the raw token stream."""
    import re as _re

    from ..analyzer import annotated_text_positions

    rx = _re.compile(r"\bmerge\b")

    def scan(t: pa.Table) -> pa.Table:
        ids, poss = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ann = rx.sub("[merge](action:merge)", txt, count=1)
            toks = annotated_text_positions(ann)
            hit = [p for tok, p in toks if tok == "action:merge"]
            if hit:
                ids.append(did)
                poss.append(hit[0])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "ann_pos": pa.array(poss, pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(scan, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["ann_pos"] = out["ann_pos"].astype(np.int64)
    return out


def text_structure_log(sf_dir: str):
    """find_structure on SEMI-STRUCTURED log text (x-pack text-structure's
    third detection tier, after ndjson and delimited): ISO-timestamp-led
    lines built from the events stream; detection must land on
    semi_structured_text with the TIMESTAMP_ISO8601 grok candidate and a
    timestamp field. Output: the structure verdicts as (property, value)
    rows; num_lines_analyzed derives from the data (lines_to_sample cap
    at 200), which the oracle recomputes."""
    from ..sources.structure import find_structure

    df = (_ds(sf_dir, "events", ["ts", "event_type", "value"])
          .limit(200).to_pandas())
    lines = [f"{pd.Timestamp(r.ts).isoformat()} {r.event_type} "
             f"value={r.value}" for r in df.itertuples(index=False)]
    st = find_structure(lines)
    rows = [
        ("format", st["format"]),
        ("grok_pattern", st["grok_pattern"]),
        ("num_lines_analyzed", str(st["num_lines_analyzed"])),
        ("timestamp_field", st["timestamp_field"]),
    ]
    return pd.DataFrame(rows, columns=["property", "value"])


def ft_render_template_sections(sf_dir: str):
    """Mustache sections in search templates (lang-mustache
    CustomMustacheFactory: {{#x}} conditional/iteration, {{^x}}
    inverted, {{.}} item binding — the reference docs' canonical
    conditional-filter and terms-list idioms): the SAME template renders
    with and without the optional range filter (phase 0/1), and a
    {{#list}} section builds a terms query from a params LIST (phase 2).
    Every rendered query then executes for real."""
    from .fulltext import all_matches

    tpl = ('{"kind": "bool", "must": [{"kind": "term", "term": "{{q}}"}]'
           '{{#lo}}, "filter": [{"kind": "script", "script": '
           '"n_chars >= {{lo}}"}]{{/lo}}}')
    frames = []
    for phase, params in ((0, {"q": "data", "lo": 300}),
                          (1, {"q": "data", "lo": None})):
        q = render_search_template(tpl, params)
        t = all_matches(sf_dir, q).to_pandas()
        t.insert(0, "phase", np.int64(phase))
        frames.append(t)
    terms_tpl = ('{"kind": "terms", "terms": '
                 '[{{#vals}}"{{.}}",{{/vals}}"window"]}')
    q2 = render_search_template(terms_tpl, {"vals": ["data", "merge"]})
    t2 = all_matches(sf_dir, q2, with_score=False).to_pandas()
    t2.insert(0, "phase", np.int64(2))
    t2["score"] = 1.0
    frames.append(t2)
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


# ---------------- round-3 session-16 ops ----------------


def esql_sample(sf_dir: str):
    """ES|QL SAMPLE command (x-pack esql Sample, 8.18): probabilistic
    row sampling. The engine's keep decision is a deterministic Knuth
    multiplicative hash of the row key (functions/esql._sample_fn), so
    the sampled aggregate is partition-invariant and exactly
    oracle-expressible: keep iff (key*2654435761 + seed*40503) mod 2^32
    < p * 2^32."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | SAMPLE 0.2 7
        | STATS n = COUNT(*), avg_v = AVG(value) BY event_type
        | SORT event_type
    ''')
    out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    out["avg_v"] = round_half_away(out["avg_v"].to_numpy(np.float64), 4)
    return out


def agg_cartesian_centroid(sf_dir: str):
    """cartesian_centroid agg (x-pack spatial CartesianCentroid-
    Aggregator, the planar twin of geo_centroid): arithmetic mean of the
    indexed cartesian POINT coordinates (the same deterministic planar
    points the `shape` query family indexes) plus the point count."""
    from ray.data.aggregate import Count, Mean

    ds = (_ds(sf_dir, "part", ["p_partkey"])
          .map_batches(_cart_points, batch_format="pyarrow"))
    r = ds.aggregate(Mean("x", alias_name="x"), Mean("y", alias_name="y"),
                     Count(alias_name="count"))
    return pd.DataFrame({
        "x": [float(round_half_away(r["x"], 4))],
        "y": [float(round_half_away(r["y"], 4))],
        "count": pd.array([r["count"]], dtype="int64"),
    })


def agg_cartesian_bounds(sf_dir: str):
    """cartesian_bounds agg (x-pack spatial CartesianBoundsAggregator):
    the tight bounding box of the indexed planar points — Min/Max
    partials per block, trivially mergeable (no dateline wrapping in
    cartesian space, unlike geo_bounds)."""
    from ray.data.aggregate import Max, Min

    ds = (_ds(sf_dir, "part", ["p_partkey"])
          .map_batches(_cart_points, batch_format="pyarrow"))
    r = ds.aggregate(Min("x", alias_name="min_x"), Max("x", alias_name="max_x"),
                     Min("y", alias_name="min_y"), Max("y", alias_name="max_y"))
    return pd.DataFrame({k: [float(round_half_away(r[k], 4))]
                         for k in ("min_x", "max_x", "min_y", "max_y")})


def bulk_update_merge(sf_dir: str):
    """_bulk `update` actions with partial-doc merge, `doc_as_upsert` and
    `detect_noop` (action/update/UpdateHelper.java: prepareUpdate merges
    the partial doc into the existing source; detect_noop=true reports
    `noop` when the merge changes nothing; doc_as_upsert=true indexes
    the partial doc as a new document when the id is absent).

    The update stream (driver-small by contract, like a real _bulk body)
    is ray.put-broadcast and applied per batch — the base table streams,
    updates never shuffle. Output: per-result counters plus the merged
    table's per-source doc counts, both re-derived by the oracle."""
    import ray
    from ray.data.aggregate import Count

    base = _ds(sf_dir, "documents", ["doc_id", "source", "lang"])
    n_docs = base.count()
    # partial docs: ids ≡ 0 (mod 3) move to source='edited'; ids ≡ 1
    # (mod 3) "update" source to its current deterministic value (a noop
    # under detect_noop); ids past the end arrive via doc_as_upsert
    upserts = [{"doc_id": n_docs + i, "source": "edited", "lang": "xx"}
               for i in range(7)]

    def apply_updates(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        updated = did % 3 == 0
        noop = did % 3 == 1  # merged doc equals existing doc
        src = np.where(updated, "edited", src)
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "source": pa.array(src, pa.string()),
            "lang": t["lang"],
            "result": pa.array(np.where(updated, "updated",
                               np.where(noop, "noop", "skipped")),
                               pa.string()),
        })

    merged = base.map_batches(apply_updates, batch_format="pyarrow")
    up_tbl = pa.Table.from_pylist(
        [{**u, "result": "created"} for u in upserts],
        schema=pa.schema([("doc_id", pa.int64()), ("source", pa.string()),
                          ("lang", pa.string()), ("result", pa.string())]))
    import ray.data as rd

    merged = merged.union(rd.from_arrow(up_tbl))
    res = (merged.groupby("result").aggregate(Count(alias_name="n"))
           .to_pandas())
    by_src = (merged.groupby("source").aggregate(Count(alias_name="n"))
              .to_pandas())
    res["key"] = "result:" + res["result"]
    by_src["key"] = "source:" + by_src["source"]
    out = pd.concat([res[["key", "n"]], by_src[["key", "n"]]],
                    ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("key").reset_index(drop=True)


def update_conflicts_seq_no(sf_dir: str):
    """Optimistic concurrency control with if_seq_no (index/engine
    VersionConflictEngineException; _update_by_query `conflicts=proceed`
    counts version_conflicts in BulkByScrollResponse): each doc carries
    seq_no = (doc_id * 40503) mod 13; a writer batch preconditions every
    write on if_seq_no = (doc_id * 24036583) mod 13. Writes whose
    precondition mismatches are conflicts (skipped under proceed);
    matches apply. Output: updated / version_conflicts counters plus
    the surviving write count per lang."""
    from ray.data.aggregate import Count, Sum

    base = _ds(sf_dir, "documents", ["doc_id", "lang"])

    def attempt(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        seq_no = (did * 40503) % 13
        if_seq_no = (did * 24036583) % 13
        ok = seq_no == if_seq_no
        return pa.table({
            "lang": t["lang"],
            "updated": pa.array(ok.astype(np.int64)),
            "conflict": pa.array((~ok).astype(np.int64)),
        })

    per_lang = (base.map_batches(attempt, batch_format="pyarrow")
                .groupby("lang")
                .aggregate(Sum("updated", alias_name="updated"),
                           Sum("conflict", alias_name="version_conflicts"))
                .to_pandas())
    for c in ("updated", "version_conflicts"):
        per_lang[c] = per_lang[c].astype(np.int64)
    return per_lang.sort_values("lang").reset_index(drop=True)


def ft_match_only_text(sf_dir: str):
    """match_only_text field type (8.x MatchOnlyTextFieldMapper): text
    indexed WITHOUT frequencies or positions — every query on the field
    is constant-score (1.0), and positional queries re-derive positions
    from _source at verification time (SourceConfirmedTextQuery).

    Phase 0: match 'data merge' (OR) — doc set from the postings, score
    pinned at 1.0. Phase 1: match_phrase 'data query' — candidates from
    the docs-only postings (both terms present), adjacency then verified
    by re-analyzing the stored text per batch, never from indexed
    positions."""
    import pyarrow.compute as pc

    from ..analyzer import analyze_simple

    s = documents_searcher(sf_dir)
    ids0, _ = s._eval({"kind": "match", "text": "data merge"})
    cand, _ = s._eval({"kind": "match", "text": "data query",
                       "operator": "and"})
    cand_list = np.sort(cand).astype(np.int64).tolist()

    def verify(t: pa.Table) -> pa.Table:
        keep = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = analyze_simple(txt)
            if any(a == "data" and b == "query"
                   for a, b in zip(toks, toks[1:])):
                keep.append(did)
        return pa.table({"doc_id": pa.array(keep, pa.int64())})

    phrase = (_ds(sf_dir, "documents", ["doc_id", "text"],
                  flt=pc.field("doc_id").isin(cand_list))
              .map_batches(verify, batch_format="pyarrow")
              .to_pandas())
    out = pd.concat([
        pd.DataFrame({"phase": np.int64(0),
                      "doc_id": np.sort(ids0).astype(np.int64)}),
        pd.DataFrame({"phase": np.int64(1),
                      "doc_id": np.sort(phrase["doc_id"].to_numpy())
                      .astype(np.int64)}),
    ], ignore_index=True)
    out["score"] = 1.0
    out["phase"] = out["phase"].astype(np.int64)
    return out


_COPY_TO_IDX: dict[str, object] = {}


def _copy_to_searcher(sf_dir: str):
    """Index whose `meta_all` field is the copy_to destination of `lang`
    and `source` (FieldMapper.CopyTo: each source field's analyzed
    tokens are appended to the destination field's stream, so dl / df /
    avgdl all derive from the UNION of values)."""
    if sf_dir in _COPY_TO_IDX:
        return _COPY_TO_IDX[sf_dir]
    import hashlib as _h

    import duckdb as _duck

    from ..index.build import build_index
    from ..search.engine import IndexSearcher

    src = os.path.join(sf_dir, "documents.parquet")
    tag = _h.sha1(f"{src}:{os.path.getmtime(src)}:copyto:v1".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"copyto_{tag}")
    os.makedirs(root, exist_ok=True)
    sub = os.path.join(root, "derived.parquet")
    if not os.path.exists(sub):
        _duck.sql(
            f"COPY (SELECT doc_id, lang || ' ' || source AS meta_all "
            f"FROM read_parquet('{src}') ORDER BY doc_id) "
            f"TO '{sub}' (FORMAT PARQUET)")
    idx_dir = os.path.join(root, "idx")
    build_index(sub, idx_dir, analyzer="simple", index_positions=True,
                docs_per_partition=2500, num_buckets=8,
                content_column="meta_all", meta_columns=())
    _COPY_TO_IDX[sf_dir] = IndexSearcher(idx_dir, score_mode="exact64",
                                         main_field="meta_all")
    return _COPY_TO_IDX[sf_dir]


def ft_copy_to(sf_dir: str):
    """copy_to mapping (server/.../index/mapper/FieldMapper.java CopyTo):
    `lang` and `source` both copy into `meta_all`; a match on the
    destination field hits values from EITHER source field and scores
    with the destination's own BM25 stats (dl = summed token counts,
    avgdl over the combined stream) — re-derived exactly by the oracle
    over lower(lang || ' ' || source)."""
    s = _copy_to_searcher(sf_dir)
    ids, sc = s._eval({"kind": "match", "text": "en src3"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def ft_position_increment_gap(sf_dir: str):
    """position_increment_gap (TextFieldMapper#positionIncrementGap,
    default 100): a multi-valued text field ['alpha <source>',
    '<lang> beta'] assigns the second value's positions AFTER a gap, so
    a match_phrase spanning the value boundary ('src2 en') matches at
    gap=0 but NEVER at gap=100, while a phrase inside one value
    ('en beta') matches at both. Positions are assigned by the real
    analyzer chain per batch (value streams concatenated with the gap
    offset), and adjacency is checked on those positions."""
    from ray.data.aggregate import Count

    from ..analyzer import analyze_simple

    def phrase_hits(t: pa.Table) -> pa.Table:
        rows_gap, rows_phrase = [], []
        for src, lang in zip(t["source"].to_pylist(), t["lang"].to_pylist()):
            values = [f"alpha {src}", f"{lang} beta"]
            for gap in (0, 100):
                pos, stream = 0, []
                for i, v in enumerate(values):
                    if i:
                        pos += gap
                    for tok in analyze_simple(v):
                        stream.append((tok, pos))
                        pos += 1
                pmap = {}
                for tok, p in stream:
                    pmap.setdefault(tok, []).append(p)
                for name, (t1, t2) in (("cross", ("src2", "en")),
                                       ("within", ("en", "beta"))):
                    hit = any(p + 1 in pmap.get(t2, ())
                              for p in pmap.get(t1, ()))
                    if hit:
                        rows_gap.append(gap)
                        rows_phrase.append(name)
        return pa.table({"gap": pa.array(rows_gap, pa.int64()),
                         "phrase": pa.array(rows_phrase, pa.string())})

    out = (_ds(sf_dir, "documents", ["source", "lang"])
           .map_batches(phrase_hits, batch_format="pyarrow")
           .groupby(["gap", "phrase"]).aggregate(Count(alias_name="hits"))
           .to_pandas())
    out["hits"] = out["hits"].astype(np.int64)
    # gap=100 cross-value phrase: zero matches -> emit the explicit zero
    # row the reference's hit count would report
    if not ((out["gap"] == 100) & (out["phrase"] == "cross")).any():
        out = pd.concat([out, pd.DataFrame(
            {"gap": [np.int64(100)], "phrase": ["cross"],
             "hits": [np.int64(0)]})], ignore_index=True)
    out["gap"] = out["gap"].astype(np.int64)
    out["hits"] = out["hits"].astype(np.int64)
    return out.sort_values(["gap", "phrase"]).reset_index(drop=True)


def mapping_dynamic_templates(sf_dir: str):
    """Dynamic mapping with dynamic_templates + date_detection
    (index/mapper/RootObjectMapper.java DynamicTemplate; ObjectMapper
    dynamic=true): the mapper sees a stream of raw JSON-ish docs (built
    from events rows) and derives each new field's type from its FIRST
    occurrence: long/double by JSON number shape, date_detection on
    strings matching the ISO pattern, a `*_count` name template forcing
    numeric strings to long, and plain strings to text-with-keyword.
    The derived (field, type) mapping is the output; the oracle
    re-derives every verdict from the same first-row values."""
    import re as _re

    iso_rx = _re.compile(r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}:\d{2})?$")

    def infer(t: pa.Table) -> pa.Table:
        # each batch infers from ITS first row; the groupby-min below
        # keeps the globally-first verdict (mapper update semantics:
        # first writer wins, later conflicting writers are rejected)
        if t.num_rows == 0:  # Ray may hand an empty block
            return pa.table({"field": pa.array([], pa.string()),
                             "type": pa.array([], pa.string()),
                             "first_event": pa.array([], pa.int64())})
        r = {c: t[c][0].as_py() for c in t.column_names}
        eid = r["event_id"]
        doc = {
            "event_type": str(r["event_type"]),
            "value": float(r["value"]),
            "user_id": int(r["user_id"]),
            "ts_str": pd.Timestamp(r["ts"]).strftime("%Y-%m-%d %H:%M:%S"),
            "clicks_count": str(int(r["value"] * 10)),
            "note": f"free text {eid}",
        }
        rows = []
        for field, v in doc.items():
            if field.endswith("_count"):
                typ = "long"  # dynamic_templates match="*_count" -> long
            elif isinstance(v, bool):
                typ = "boolean"
            elif isinstance(v, int):
                typ = "long"
            elif isinstance(v, float):
                typ = "double" if v != int(v) else "float_whole"
            elif iso_rx.match(v):
                typ = "date"  # date_detection
            else:
                typ = "text_keyword"
            rows.append((field, typ, eid))
        return pa.table({
            "field": pa.array([x[0] for x in rows], pa.string()),
            "type": pa.array([x[1] for x in rows], pa.string()),
            "first_event": pa.array([x[2] for x in rows], pa.int64()),
        })

    from ray.data.aggregate import Min

    out = (_ds(sf_dir, "events",
               ["event_id", "ts", "event_type", "value", "user_id"])
           .map_batches(infer, batch_size=4096, batch_format="pyarrow")
           .groupby("field")
           .aggregate(Min("first_event", alias_name="first_event"))
           .to_pandas())
    # resolve each field's verdict from the winning (earliest) doc
    first = int(out["first_event"].min())
    import pyarrow.compute as pc

    t0 = (_ds(sf_dir, "events",
              ["event_id", "ts", "event_type", "value", "user_id"],
              flt=pc.field("event_id") == first)
          .map_batches(infer, batch_format="pyarrow").to_pandas())
    t0 = t0[["field", "type"]]
    t0["type"] = t0["type"].replace({"float_whole": "double"})
    return t0.sort_values("field").reset_index(drop=True)


def agg_histogram_min_doc_count(sf_dir: str):
    """histogram `min_doc_count` + `extended_bounds` (bucket/histogram/
    HistogramAggregationBuilder; BucketsAggregator#buildEmptyBuckets):
    phase 0 prunes buckets under min_doc_count=20 AFTER the global
    merge (a shard-local prune would be wrong — partial counts); phase 1
    runs min_doc_count=0 with extended_bounds [0, 1450], materializing
    every empty bucket in the padded range. Only the reduced bucket
    table is padded/pruned — never the row stream."""
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        v = np.asarray(t["value"].to_numpy(zero_copy_only=False), np.float64)
        b = np.floor(v[~np.isnan(v)] / 50.0) * 50.0
        return pa.table({"bucket": pa.array(b)})

    base = (_ds(sf_dir, "events", ["value"])
            .map_batches(bucketize, batch_format="pyarrow")
            .groupby("bucket").aggregate(Count(alias_name="doc_count"))
            .to_pandas())
    p0 = base[base["doc_count"] >= 20].copy()
    p0.insert(0, "phase", np.int64(0))
    grid = pd.DataFrame({"bucket": np.arange(0.0, 1450.0 + 1, 50.0)})
    p1 = grid.merge(base, on="bucket", how="outer").fillna({"doc_count": 0})
    p1.insert(0, "phase", np.int64(1))
    out = pd.concat([p0, p1], ignore_index=True)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    out["phase"] = out["phase"].astype(np.int64)
    return out.sort_values(["phase", "bucket"]).reset_index(drop=True)


def agg_date_histogram_timezone(sf_dir: str):
    """date_histogram `time_zone` (common/Rounding.java#timeZone; the
    fixed-offset fast path): day buckets computed in UTC+05:00 — shift,
    floor, shift back — so bucket keys stay UTC instants but the day
    boundary falls at 19:00 UTC."""
    from ray.data.aggregate import Count

    def bucketize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        shift = pa.scalar(5 * 3600 * 1_000_000, pa.duration("us"))
        ts = pc.cast(t["ts"], pa.timestamp("us"))
        floored = pc.floor_temporal(pc.add(ts, shift), unit="day")
        b = pc.cast(pc.subtract(floored, shift), pa.int64())
        return pa.table({"bucket": b})

    out = (_ds(sf_dir, "events", ["ts"])
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket").aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["bucket"] = pd.to_datetime(out["bucket"], unit="us")
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out.sort_values("bucket").reset_index(drop=True)


def agg_terms_order_subagg(sf_dir: str):
    """terms agg ordered by a sub-aggregation (BucketOrder.aggregation:
    `"order": {"avg_value": "desc"}`): the order key is the POST-merge
    avg of each bucket's metric partials — ordering on any shard-local
    avg would be wrong. Rank pinned as a column."""
    from ray.data.aggregate import Count, Mean

    out = (_ds(sf_dir, "events", ["event_type", "value"])
           .groupby("event_type")
           .aggregate(Count(alias_name="doc_count"),
                      Mean("value", alias_name="avg_value"))
           .to_pandas())
    out = (out.sort_values(["avg_value", "event_type"],
                           ascending=[False, True])
           .reset_index(drop=True))
    out.insert(0, "rank", pd.array(range(1, len(out) + 1), dtype="int64"))
    out["avg_value"] = round_half_away(out["avg_value"], 4)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def ft_script_sort(sf_dir: str):
    """script sort, type=number (ScriptSortBuilder; sort/ScriptSort):
    hits of `term: data` ordered by the script value
    `n_chars % 7 + n_chars / 1000` asc, doc_id tie-break, top 25 with
    rank pinned. The script runs dataset-side over the pruned meta
    columns of the hit set — sorting never touches text."""
    import pyarrow.compute as pc

    s = documents_searcher(sf_dir)
    ids, _ = s._eval({"kind": "term", "term": "data"})
    hit_list = np.sort(ids).astype(np.int64).tolist()

    def script(t: pa.Table) -> pa.Table:
        n = t["n_chars"].to_numpy().astype(np.float64)
        return pa.table({"doc_id": t["doc_id"],
                         "key": pa.array(n % 7 + n / 1000.0)})

    out = (_ds(sf_dir, "documents", ["doc_id", "n_chars"],
               flt=pc.field("doc_id").isin(hit_list))
           .map_batches(script, batch_format="pyarrow")
           .to_pandas().sort_values(["key", "doc_id"])
           .head(25).reset_index(drop=True))
    return pd.DataFrame({
        "rank": pd.array(range(1, len(out) + 1), dtype="int64"),
        "doc_id": out["doc_id"].astype("int64"),
        "key": round_half_away(out["key"].to_numpy(), 4),
    })


def count_api(sf_dir: str):
    """_count API (rest/action/RestCountAction; TransportCountAction is
    a size-0 search): match_all, a term query and a range filter each
    return only their hit total — counts come from the per-partition
    searcher doc sets, no fetch phase, no scoring pass."""
    s = documents_searcher(sf_dir)
    rows = []
    for name, q in (("match_all", {"kind": "match_all"}),
                    ("term_data", {"kind": "term", "term": "data"}),
                    ("range_chars", {"kind": "script", "script":
                                     "(n_chars >= 500) & (n_chars < 900)"})):
        ids, _ = s._eval(q)
        rows.append((name, int(ids.size)))
    return pd.DataFrame(rows, columns=["query", "count"]).astype(
        {"count": "int64"}).sort_values("query").reset_index(drop=True)


def corpus_unimax_sample(sf_dir: str):
    """UniMax language-balanced sampling (Chung et al. 2023, public):
    per-language doc budgets via the waterfill threshold theta solving
    sum(min(size_l, theta)) = B with B = 90% of the corpus — small
    languages keep everything, large ones are capped at theta (epochs
    bounded). Only the per-language size table (5 rows) reaches the
    driver; the allocation math is closed-form on it."""
    from ray.data.aggregate import Count

    sizes = (_ds(sf_dir, "documents", ["lang"])
             .groupby("lang").aggregate(Count(alias_name="size"))
             .to_pandas().sort_values("lang").reset_index(drop=True))
    total = int(sizes["size"].sum())
    budget = int(total * 0.9)
    sz = sizes["size"].to_numpy(np.float64)
    order = np.argsort(sz, kind="stable")
    s_sorted = sz[order]
    k = len(s_sorted)
    cum = np.cumsum(s_sorted)
    theta = budget / k
    for i in range(k):
        # if every language from i up took theta_i, budget is exact
        remaining = budget - (cum[i - 1] if i else 0.0)
        theta_i = remaining / (k - i)
        if s_sorted[i] >= theta_i:
            theta = theta_i
            break
    alloc = np.minimum(sz, theta)
    out = sizes.copy()
    out["alloc"] = np.floor(alloc).astype(np.int64)
    out["size"] = out["size"].astype(np.int64)
    return out


def ft_collapse_inner_hits(sf_dir: str):
    """Field collapse with inner_hits (search/collapse/
    CollapseBuilder#setInnerHits): one collapsed hit per `lang` group
    (best n_chars desc, doc_id asc) PLUS that group's top-3 inner hits
    under the same sort. Per-group work happens inside map_groups —
    group membership never leaves its partition."""

    def head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"],
                          ascending=[False, True]).head(3)
        g = g.assign(inner_rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = (ds.groupby("lang").map_groups(head, batch_format="pandas")
           .to_pandas().sort_values(["lang", "inner_rank"])
           .reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_chars"] = out["n_chars"].astype(np.int64)
    return out[["lang", "inner_rank", "doc_id", "n_chars"]]


def text_readability(sf_dir: str):
    """Flesch reading-ease scoring (Flesch 1948, public formula:
    206.835 - 1.015*(words/sentences) - 84.6*(syllables/words)) with the
    standard vowel-group syllable heuristic — a per-doc quality signal a
    curation pipeline thresholds on. Everything is one vectorized
    map_batches pass; the oracle recomputes words, sentence breaks and
    vowel groups with the same regexes in SQL."""
    import re as _re

    word_rx = _re.compile(r"[a-z0-9]+")
    sent_rx = _re.compile(r"[.!?]+")
    syl_rx = _re.compile(r"[aeiouy]+")

    def score(t: pa.Table) -> pa.Table:
        rows = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            low = txt.lower()
            words = word_rx.findall(low)
            n_w = len(words)
            n_s = max(1, len(sent_rx.findall(low)))
            n_syl = sum(len(syl_rx.findall(w)) for w in words)
            f = (206.835 - 1.015 * (n_w / n_s) - 84.6 * (n_syl / max(1, n_w)))
            rows.append((did, n_w, n_s, n_syl, f))
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "n_words": pa.array([r[1] for r in rows], pa.int64()),
            "n_sentences": pa.array([r[2] for r in rows], pa.int64()),
            "n_syllables": pa.array([r[3] for r in rows], pa.int64()),
            "flesch": pa.array([r[4] for r in rows], pa.float64()),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(score, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    out["flesch"] = round_half_away(out["flesch"].to_numpy(), 4)
    return out


def training_length_buckets(sf_dir: str):
    """Length-bucketed batching prep (the classic dynamic-batching /
    bucketing stage in LLM training dataloaders): docs binned by
    next-power-of-2 token count; per bucket, doc count and the padding
    waste ratio a fixed-length batcher would pay (1 - sum(len)/
    (count*bucket)). Partial (count, sum_len) pairs merge per bucket —
    the token stream itself never shuffles."""
    from ray.data.aggregate import Count, Sum

    def bucketize(t: pa.Table) -> pa.Table:
        txt = t["text"].to_pylist()
        n = np.array([len(x.split()) for x in txt], np.int64)
        n = np.maximum(n, 1)
        b = 2 ** np.ceil(np.log2(n)).astype(np.int64)
        return pa.table({"bucket": pa.array(b), "toks": pa.array(n)})

    out = (_ds(sf_dir, "documents", ["text"])
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Count(alias_name="doc_count"),
                      Sum("toks", alias_name="sum_toks"))
           .to_pandas().sort_values("bucket").reset_index(drop=True))
    out["doc_count"] = out["doc_count"].astype(np.int64)
    out["sum_toks"] = out["sum_toks"].astype(np.int64)
    out["pad_waste"] = round_half_away(
        1.0 - out["sum_toks"] / (out["doc_count"] * out["bucket"]), 4)
    out["bucket"] = out["bucket"].astype(np.int64)
    return out


def dedup_url(sf_dir: str):
    """URL-canonicalization dedup (the CCNet/RefinedWeb first pass:
    strip tracking params, lowercase the host, drop the trailing slash,
    then exact-dedup on the canonical URL). URLs are synthesized
    deterministically from doc_id; canonicalization is vectorized and
    the dedup is ONE url-cardinality groupby — winner = min doc_id."""
    from ray.data.aggregate import Count, Min

    def canon(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        urls = [
            f"HTTP://Site{d % 37}.example.com/page/{d % 111}/"
            f"?utm_source=feed&id={d % 111}" if d % 2 else
            f"http://site{d % 37}.example.com/page/{d % 111}?id={d % 111}"
            for d in did
        ]
        out = []
        for u in urls:
            scheme, rest = u.split("://", 1)
            host, _, pathq = rest.partition("/")
            path, _, q = pathq.partition("?")
            params = [p for p in q.split("&")
                      if p and not p.startswith("utm_")]
            path = path.rstrip("/")
            out.append(scheme.lower() + "://" + host.lower() + "/" + path
                       + ("?" + "&".join(sorted(params)) if params else ""))
        return pa.table({"doc_id": pa.array(did, pa.int64()),
                         "curl": pa.array(out, pa.string())})

    g = (_ds(sf_dir, "documents", ["doc_id"])
         .map_batches(canon, batch_format="pyarrow")
         .groupby("curl")
         .aggregate(Count(alias_name="n_dups"),
                    Min("doc_id", alias_name="keeper"))
         .to_pandas())
    g = g.sort_values("curl").reset_index(drop=True)
    g["n_dups"] = g["n_dups"].astype(np.int64)
    g["keeper"] = g["keeper"].astype(np.int64)
    return g


def indices_stats(sf_dir: str):
    """_stats API (rest/action/admin/indices/RestIndicesStatsAction:
    docs + segments + terms sections): docs.count and the term
    dictionary's distinct-term count measured from the live documents
    index; segments.count measured from the deterministic 600-row-group
    twin (the same multi-segment layout indices_segments reports, one
    committed segment per 600-doc partition) so the count is
    data-derivable at every scale."""
    import pyarrow.parquet as pq

    src_pq = os.path.join(sf_dir, "documents.parquet")
    n_docs = pq.read_metadata(src_pq).num_rows
    n_segments = int(len(indices_segments(sf_dir)))
    s = documents_searcher(sf_dir)
    # distinct terms of the main text field (the dictionary range walk
    # excludes field-qualified and subfield entries — the _stats `terms`
    # section is per-field)
    n_terms = int(np.unique(s._terms_with_prefix("")).size)
    return pd.DataFrame({
        "stat": ["docs_count", "segments_count", "terms_count"],
        "value": pd.array([n_docs, n_segments, n_terms], dtype="int64"),
    })


def ft_bool_msm_forms(sf_dir: str):
    """bool minimum_should_match, full Lucene grammar (BoolQueryBuilder#
    minimumShouldMatch -> Queries.calculateMinShouldMatch): phase 0 =
    4 shoulds with '75%' (3 required), phase 1 = same shoulds with '-2'
    (n-2 = 2 required), phase 2 = 2 shoulds with conditional '3<75%'
    (n <= cond, so ALL required). Scores stay the sum of the matched
    should clauses' BM25."""
    s = documents_searcher(sf_dir)
    four = [{"kind": "term", "term": t}
            for t in ("data", "merge", "window", "slow")]
    two = [{"kind": "term", "term": t} for t in ("data", "merge")]
    frames = []
    for phase, (clauses, msm) in enumerate(
            ((four, "75%"), (four, "-2"), (two, "3<75%"))):
        ids, sc = s._eval({"kind": "bool", "should": clauses,
                           "minimum_should_match": msm})
        order = np.argsort(ids)
        frames.append(pd.DataFrame({
            "phase": np.int64(phase),
            "doc_id": ids[order].astype(np.int64),
            "score": round_half_away(sc[order].astype(np.float64), 4),
        }))
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def ft_match_fuzziness(sf_dir: str):
    """match with fuzziness (MatchQuery#setFuzziness): each analyzed
    query term expands to dictionary terms within edit distance 1
    (OSA, transpositions=true — the reference default) under the
    CONSTANT_SCORE rewrite (FuzzyQueryBuilder#rewrite): every matched
    clause contributes exactly 1.0, so a doc's score = number of query
    terms fuzzily present. Query: 'dtaa merg' (both misspelled)."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval({"kind": "bool", "should": [
        {"kind": "fuzzy", "term": "dtaa", "fuzziness": 1,
         "transpositions": True},
        {"kind": "fuzzy", "term": "merg", "fuzziness": 1,
         "transpositions": True},
    ]})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def completion_skip_duplicates(sf_dir: str):
    """completion suggester skip_duplicates (CompletionSuggestion-
    Builder#skipDuplicates, 6.1): entries built at (token, source)
    granularity so the same input text exists once per source; phase 0
    returns the raw ranked entries (duplicates visible), phase 1 the
    deduplicated top-5 (best-weight occurrence per text, size applied
    after dedup)."""
    from ..search.suggest import completion_from_dataset

    sug = completion_from_dataset(
        _ds(sf_dir, "documents", ["text", "source"]), text_col="text",
        weight="tf", contexts_col="source")
    frames = []
    for phase, skip in ((0, False), (1, True)):
        t = sug.suggest("da", size=5, skip_duplicates=skip)
        t.insert(0, "rank", pd.array(range(1, len(t) + 1), dtype="int64"))
        t.insert(0, "phase", np.int64(phase))
        frames.append(t)
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    out["weight"] = out["weight"].astype(np.int64)
    return out


def mapping_ignore_malformed(sf_dir: str):
    """ignore_malformed (mapper/NumberFieldMapper#ignoreMalformed + the
    `_ignored` meta field): a numeric field arrives as strings, some
    unparseable (every doc_id % 7 == 0 gets 'N/A'). With
    ignore_malformed=true the DOC still indexes but the field is
    dropped and the field name lands in `_ignored`; with false the doc
    is rejected. Output: per-mode indexed/rejected/ignored-field
    counters plus the range-query hit count (malformed docs invisible
    to it in mode true)."""
    from ray.data.aggregate import Sum

    def parse(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        raw = np.where(did % 7 == 0, "N/A",
                       (did % 1000).astype(np.str_))
        malformed = did % 7 == 0
        val = np.where(malformed, -1, did % 1000).astype(np.int64)
        in_range = (~malformed) & (val >= 200) & (val < 600)
        return pa.table({
            "indexed_true": pa.array(np.ones(did.size, np.int64)),
            "ignored_true": pa.array(malformed.astype(np.int64)),
            "indexed_false": pa.array((~malformed).astype(np.int64)),
            "rejected_false": pa.array(malformed.astype(np.int64)),
            "range_hits": pa.array(in_range.astype(np.int64)),
        })

    r = (_ds(sf_dir, "documents", ["doc_id"])
         .map_batches(parse, batch_format="pyarrow")
         .aggregate(*[Sum(c, alias_name=c) for c in
                      ("indexed_true", "ignored_true", "indexed_false",
                       "rejected_false", "range_hits")]))
    out = pd.DataFrame({"stat": list(r), "value": list(r.values())})
    out["value"] = out["value"].astype(np.int64)
    return out.sort_values("stat").reset_index(drop=True)


def date_multi_format(sf_dir: str):
    """Multi-format date parsing (mapper/DateFieldMapper `format:
    "yyyy-MM-dd HH:mm:ss||epoch_millis"`): each event's timestamp
    arrives as EITHER an ISO string (even event_id) or an epoch-millis
    digit string (odd); the parser tries formats left to right. Parsed
    values bucket per day — identical regardless of wire format, which
    the oracle reproduces with the same branch."""
    from ray.data.aggregate import Count

    def parse(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        ts = pd.to_datetime(t["ts"].to_pandas())
        iso = ts.dt.strftime("%Y-%m-%d %H:%M:%S")
        millis = (ts.astype("datetime64[ns]").astype(np.int64)
                  // 1_000_000).astype(np.str_)
        wire = np.where(eid % 2 == 0, iso, millis)
        parsed = np.empty(eid.size, "datetime64[us]")
        for i, w in enumerate(wire):
            if w.isdigit():  # epoch_millis branch
                parsed[i] = np.datetime64(int(w), "ms")
            else:
                parsed[i] = np.datetime64(w.replace(" ", "T"))
        day = parsed.astype("datetime64[D]").astype("datetime64[us]")
        return pa.table({"bucket": pa.array(day.astype(np.int64))})

    out = (_ds(sf_dir, "events", ["event_id", "ts"])
           .map_batches(parse, batch_format="pyarrow")
           .groupby("bucket").aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["bucket"] = pd.to_datetime(out["bucket"], unit="us")
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out.sort_values("bucket").reset_index(drop=True)


def ft_index_prefixes(sf_dir: str):
    """index_prefixes (TextFieldMapper#indexPrefixes, min_chars=2
    max_chars=5): the `text._index_prefix` subfield stores every token
    prefix of length 2-5, so in-range prefix queries become a SINGLE
    term lookup instead of a dictionary range expansion. Both paths are
    computed — the subfield token stream dataset-side, the expansion
    from the live dictionary — and must agree; the output ships the
    subfield path's doc sets for 'da' (in range) and the expansion
    fallback for 'd' (below min_chars)."""
    from ray.data.aggregate import Count

    from ..analyzer import analyze_simple

    def prefix_terms(t: pa.Table) -> pa.Table:
        ids, pfx = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            seen = set()
            for tok in analyze_simple(txt):
                for n in range(2, min(5, len(tok)) + 1):
                    seen.add(tok[:n])
            for p in seen:
                ids.append(did)
                pfx.append(p)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "prefix": pa.array(pfx, pa.string())})

    def only_da(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t["prefix"], "da"))

    da = (_ds(sf_dir, "documents", ["doc_id", "text"])
          .map_batches(prefix_terms, batch_format="pyarrow")
          .map_batches(only_da, batch_format="pyarrow")
          .to_pandas()["doc_id"].sort_values().reset_index(drop=True))
    # cross-check against the dictionary-expansion path (must be equal)
    s = documents_searcher(sf_dir)
    exp_ids, _ = s._eval({"kind": "prefix", "prefix": "da"})
    if set(da) != set(exp_ids.tolist()):
        raise AssertionError("index_prefixes subfield diverged from "
                             "dictionary expansion")
    d_ids, _ = s._eval({"kind": "prefix", "prefix": "d"})  # fallback path
    out = pd.concat([
        pd.DataFrame({"prefix": "da", "doc_id": da.astype(np.int64)}),
        pd.DataFrame({"prefix": "d",
                      "doc_id": np.sort(d_ids).astype(np.int64)}),
    ], ignore_index=True)
    return out.sort_values(["prefix", "doc_id"]).reset_index(drop=True)


def agg_doc_count_field(sf_dir: str):
    """`_doc_count` meta field for pre-aggregated data (mapper/
    DocCountFieldMapper, 7.11): each stored doc represents
    1 + doc_id % 3 raw documents; bucket aggs SUM _doc_count instead of
    counting rows, so rollup indices report true totals."""
    from ray.data.aggregate import Sum

    def weight(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        return pa.table({"lang": t["lang"],
                         "dc": pa.array(1 + did % 3, pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "lang"])
           .map_batches(weight, batch_format="pyarrow")
           .groupby("lang").aggregate(Sum("dc", alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def quality_ensemble(sf_dir: str):
    """Quality-signal ensemble (the FineWeb/Dolma-style combination
    stage: individual heuristics vote, a weighted score thresholds the
    corpus): word-count band, stopword-hit, char-entropy and Flesch
    signals computed in ONE map_batches pass (shared tokenization),
    combined as score = 0.4*wc + 0.3*stop + 0.2*ent + 0.1*read; docs
    with score >= 0.6 are kept. Output: per-doc signals + verdict."""
    import re as _re

    word_rx = _re.compile(r"[a-z0-9]+")
    syl_rx = _re.compile(r"[aeiouy]+")
    sent_rx = _re.compile(r"[.!?]+")
    stops = {"the", "and", "of", "to", "a", "in", "is", "for", "with",
             "data", "query"}

    def score(t: pa.Table) -> pa.Table:
        rows = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            low = txt.lower()
            words = word_rx.findall(low)
            n_w = len(words)
            n_s = max(1, len(sent_rx.findall(low)))
            s_wc = 1 if 20 <= n_w <= 200 else 0
            s_stop = 1 if sum(1 for w in words if w in stops) >= 2 else 0
            # char entropy over the lowercased alnum stream
            chars = "".join(words)
            if chars:
                _, cnt = np.unique(np.frombuffer(
                    chars.encode("latin-1", "replace"), np.uint8),
                    return_counts=True)
                p = cnt / cnt.sum()
                ent = float(-(p * np.log2(p)).sum())
            else:
                ent = 0.0
            s_ent = 1 if ent >= 3.0 else 0
            n_syl = sum(len(syl_rx.findall(w)) for w in words)
            flesch = (206.835 - 1.015 * (n_w / n_s)
                      - 84.6 * (n_syl / max(1, n_w)))
            s_read = 1 if flesch >= -60.0 else 0
            sc = 0.4 * s_wc + 0.3 * s_stop + 0.2 * s_ent + 0.1 * s_read
            rows.append((did, s_wc, s_stop, s_ent, s_read, sc,
                         1 if sc >= 0.6 else 0))
        cols = list(zip(*rows)) if rows else [[]] * 7
        return pa.table({
            "doc_id": pa.array(cols[0], pa.int64()),
            "s_wordcount": pa.array(cols[1], pa.int64()),
            "s_stopword": pa.array(cols[2], pa.int64()),
            "s_entropy": pa.array(cols[3], pa.int64()),
            "s_readability": pa.array(cols[4], pa.int64()),
            "score": pa.array(
                round_half_away(np.asarray(cols[5], np.float64), 4)),
            "kept": pa.array(cols[6], pa.int64()),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(score, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return out


def analyze_api_explain(sf_dir: str):
    """_analyze with explain=true (action/admin/indices/analyze/
    TransportAnalyzeAction#detailAnalyze): per-STAGE token attribution —
    the tokenizer's raw stream, then each filter's output, each row
    tagged with the emitting stage. Chain: simple tokenizer ->
    lowercase (already folded) -> stop (the engine's english stop set
    member 'the'/'and' analog: {'data','query'} here so the effect is
    corpus-visible) -> porter stem. Input strings are deterministic
    per doc (first 6 tokens of text), so the oracle re-derives every
    stage."""
    from ..analyzer import analyze_simple
    from ..filters import porter_stem

    drop = {"data", "query"}

    def stages(t: pa.Table) -> pa.Table:
        rows = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = analyze_simple(txt)[:6]
            for pos, tok in enumerate(toks):
                rows.append((did, "tokenizer", pos, tok))
            kept = [(p, tok) for p, tok in enumerate(toks)
                    if tok not in drop]
            for pos, tok in kept:
                rows.append((did, "stop", pos, tok))
            for pos, tok in kept:
                rows.append((did, "stemmer", pos, porter_stem(tok)))
        cols = list(zip(*rows)) if rows else [[]] * 4
        return pa.table({
            "doc_id": pa.array(cols[0], pa.int64()),
            "stage": pa.array(cols[1], pa.string()),
            "pos": pa.array(cols[2], pa.int64()),
            "token": pa.array(cols[3], pa.string()),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "text"])
           .map_batches(stages, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["doc_id", "stage", "pos"])
           .reset_index(drop=True))
    return out


def index_incremental_append(sf_dir: str):
    """Incremental index append via the manifest resume path (the
    translog/checkpoint analog: `build_index([A])` then
    `build_index([A, B])` into the SAME directory — committed segments
    are skipped by the fragments their manifests list, only B's partitions
    build). The appended index must be search-IDENTICAL to a from-scratch
    rebuild over A+B: global
    BM25 stats (N, df, avgdl) pool across segments at load, so scores
    cannot tell the histories apart. The op asserts that equality and
    returns the appended index's hits (`term: data`), which the oracle
    re-derives from the full corpus."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments
    from ..search.engine import IndexSearcher

    src = os.path.join(sf_dir, "documents.parquet")
    n = pq.read_metadata(src).num_rows
    per_seg = 100
    cut = (int(n * 0.6) // per_seg) * per_seg  # A ends on a segment boundary
    tag = _h.sha1(f"{src}:{os.path.getmtime(src)}:append:v2".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"appendidx_{tag}")
    os.makedirs(root, exist_ok=True)
    a_pq = os.path.join(root, "a.parquet")
    b_pq = os.path.join(root, "b.parquet")
    if not os.path.exists(b_pq):
        # pyarrow writer honors small row groups (DuckDB's COPY clamps
        # row_group_size up to its 2048-row vector multiple)
        full = pq.read_table(src)
        ids = full["doc_id"].to_numpy()
        pq.write_table(full.filter(pa.array(ids < cut)), a_pq,
                       row_group_size=per_seg)
        pq.write_table(full.filter(pa.array(ids >= cut)), b_pq,
                       row_group_size=per_seg)
    inc_dir = os.path.join(root, "idx_incremental")
    full_dir = os.path.join(root, "idx_full")
    kw = dict(analyzer="simple", index_positions=False,
              docs_per_partition=per_seg, num_buckets=8,
              content_column="text", meta_columns=())
    import math

    expected = math.ceil(n / per_seg)
    build_index([a_pq], inc_dir, **kw)          # phase 1: base
    n_base = len(committed_segments(inc_dir))
    build_index([a_pq, b_pq], inc_dir, **kw)    # phase 2: append (resume)
    n_after = len(committed_segments(inc_dir))
    # on a cold cache phase 1 holds only A's segments and phase 2 must
    # grow the set; on a warm cache both phases see the complete index
    if n_after != expected or n_base > n_after:
        raise AssertionError(
            f"append produced {n_base}->{n_after} segments, "
            f"expected final {expected}")
    build_index([a_pq, b_pq], full_dir, **kw)   # independent full rebuild
    s_inc = IndexSearcher(inc_dir, score_mode="exact64", main_field="text")
    s_full = IndexSearcher(full_dir, score_mode="exact64", main_field="text")
    ids_i, sc_i = s_inc._eval({"kind": "term", "term": "data"})
    ids_f, sc_f = s_full._eval({"kind": "term", "term": "data"})
    oi, of = np.argsort(ids_i), np.argsort(ids_f)
    if not (np.array_equal(ids_i[oi], ids_f[of])
            and np.allclose(sc_i[oi], sc_f[of], rtol=0, atol=0)):
        raise AssertionError("appended index diverged from full rebuild")
    return pd.DataFrame({
        "doc_id": ids_i[oi].astype(np.int64),
        "score": round_half_away(sc_i[oi].astype(np.float64), 4),
    })


def corpus_shard_writer(sf_dir: str):
    """Resumable partitioned-parquet output (the task-spec sink shape:
    one directory per key range + a manifest per shard so a failed run
    skips finished partitions). Docs hash-route to 8 shards
    (doc_id * 2654435761 mod 2^32 mod 8 — the same stable routing the
    SAMPLE command uses); each shard writes docs sorted by doc_id and
    commits a manifest (rows, doc_id span) ATOMICALLY (tmp + rename)
    AFTER the data file. A second pass must resume: every committed
    shard is skipped, zero rows rewritten. Output: per-shard rows +
    min/max doc_id + resume-skip counts, all re-derived by the oracle
    from the routing hash."""
    import hashlib as _h
    import json as _json

    src = os.path.join(sf_dir, "documents.parquet")
    tag = _h.sha1(f"{src}:{os.path.getmtime(src)}:shardw:v1".encode()).hexdigest()[:16]
    root = os.path.join("/tmp/esray_cache", f"shardout_{tag}")
    os.makedirs(root, exist_ok=True)
    n_shards = 8

    def route(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.uint64)
        shard = ((did * np.uint64(2654435761)) % np.uint64(2 ** 32)) \
            % np.uint64(n_shards)
        return t.append_column("shard", pa.array(shard.astype(np.int64)))

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as _pq

        shard = int(g["shard"].iloc[0])
        sdir = os.path.join(root, f"shard={shard}")
        man = os.path.join(sdir, "manifest.json")
        if os.path.isfile(man):  # committed -> resume skips it
            return pd.DataFrame({"shard": [shard], "rows": [0],
                                 "skipped": [1]})
        os.makedirs(sdir, exist_ok=True)
        g = g.sort_values("doc_id")
        _pq.write_table(pa.Table.from_pandas(
            g[["doc_id", "lang", "source"]], preserve_index=False),
            os.path.join(sdir, "data.parquet"))
        tmp = man + ".tmp"
        with open(tmp, "w") as f:
            _json.dump({"rows": len(g),
                        "min_doc": int(g["doc_id"].min()),
                        "max_doc": int(g["doc_id"].max())}, f)
        os.replace(tmp, man)  # atomic commit, data first
        return pd.DataFrame({"shard": [shard], "rows": [len(g)],
                             "skipped": [0]})

    def run_pass():
        return (_ds(sf_dir, "documents", ["doc_id", "lang", "source"])
                .map_batches(route, batch_format="pyarrow")
                .groupby("shard").map_groups(write_shard,
                                             batch_format="pandas")
                .to_pandas())

    import json as _json2
    import shutil as _sh

    _sh.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    run_pass()                     # pass 1: cold write
    second = run_pass()            # pass 2: must skip every shard
    if int(second["skipped"].sum()) != n_shards or \
            int(second["rows"].sum()) != 0:
        raise AssertionError("resume pass rewrote committed shards")
    rows = []
    for shard in range(n_shards):
        with open(os.path.join(root, f"shard={shard}",
                               "manifest.json")) as f:
            m = _json2.load(f)
        rows.append((shard, m["rows"], m["min_doc"], m["max_doc"]))
    out = pd.DataFrame(rows, columns=["shard", "rows", "min_doc",
                                      "max_doc"])
    return out.astype({c: "int64" for c in out.columns})


def ft_norms_disabled(sf_dir: str):
    """`norms: false` mapping option (TextFieldMapper#omitNorms;
    Lucene BM25Similarity with no norms): the length-normalization
    component collapses to 1, so score = idf * (k1+1) * tf / (tf + k1)
    — long and short docs score identically for equal tf. Implemented
    through the engine's similarity extension point (the same hook the
    DFR/IB/scripted providers use) over the live index; match OR of
    'data merge'."""
    from ..search.altsim import make_similarity
    from ..search.engine import IndexSearcher
    from .fulltext import documents_index

    def bm25_no_norms(tf, dl, df, ttf, n, sum_dl, avgdl):
        idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        return idf * 2.2 * tf / (tf + 1.2)

    s = IndexSearcher(documents_index(sf_dir), score_mode="exact64",
                      main_field="text",
                      similarity=make_similarity("scripted",
                                                 script=bm25_no_norms))
    ids, sc = s._eval({"kind": "match", "text": "data merge"})
    order = np.argsort(ids)
    return pd.DataFrame({
        "doc_id": ids[order].astype(np.int64),
        "score": round_half_away(sc[order].astype(np.float64), 4),
    })


def enrich_geo_match(sf_dir: str):
    """ENRICH policy match_type=geo_match (x-pack enrich
    GeoMatchProcessor / esql ENRICH with a geo_match policy): each
    user's point is matched against a broadcast table of 4 indexed
    zone polygons (point-in-shape, first match wins in zone order) and
    enriched with the zone name; unmatched points keep zone 'none'.
    The zone table ships once (4 quadrant boxes as real polygons
    through the vectorized crossing-number kernel); the per-user
    stream never shuffles. Output: user count + mean lat per zone."""
    from ray.data.aggregate import Count, Mean

    from ..geo import parse_wkt, points_in_polygon

    zones = [
        ("north_east", "POLYGON ((0 0, 180 0, 180 90, 0 90, 0 0))"),
        ("north_west", "POLYGON ((-180 0, 0 0, 0 90, -180 90, -180 0))"),
        ("south_east", "POLYGON ((0 -90, 180 -90, 180 0, 0 0, 0 -90))"),
        ("south_west", "POLYGON ((-180 -90, 0 -90, 0 0, -180 0, -180 -90))"),
    ]
    geoms = [(name, parse_wkt(wkt)[1]) for name, wkt in zones]

    def enrich(t: pa.Table) -> pa.Table:
        lat = t["lat"].to_numpy()
        lon = t["lon"].to_numpy()
        zone = np.full(lat.size, "none", dtype=object)
        unset = np.ones(lat.size, bool)
        for name, geom in geoms:  # first match wins
            hit = points_in_polygon(geom, lon, lat) & unset
            zone[hit] = name
            unset &= ~hit
        return pa.table({"zone": pa.array(zone, pa.string()),
                         "lat": t["lat"]})

    out = (_users_geo(sf_dir)
           .map_batches(enrich, batch_format="pyarrow")
           .groupby("zone")
           .aggregate(Count(alias_name="n_users"),
                      Mean("lat", alias_name="avg_lat"))
           .to_pandas())
    out["n_users"] = out["n_users"].astype(np.int64)
    out["avg_lat"] = round_half_away(out["avg_lat"], 4)
    return out.sort_values("zone").reset_index(drop=True)


def agg_t_test_unpaired(sf_dir: str):
    """t_test agg, unpaired types (x-pack analytics TTestType
    HOMOSCEDASTIC pooled-variance and HETEROSCEDASTIC Welch): group A =
    'click' events' values, group B = 'error' events'. Integer-cent
    (n, sum, sum-of-squares) partials per group merge exactly across
    batches; both statistics derive from the same six integers with
    the literal expressions of the SQL twin."""

    def partial(t: pa.Table) -> pa.Table:
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        v = np.rint(t["value"].to_numpy() * 100).astype(np.int64)
        out = {}
        for g, name in ((et == "click", "a"), ((et == "error"), "b")):
            d = v[g].astype(object)
            out[f"n_{name}"] = [np.int64(d.size)]
            out[f"s_{name}"] = [np.int64(sum(d))]
            out[f"ss_{name}"] = [np.int64(sum(d * d))]
        return pa.table(out)

    parts = (_ds(sf_dir, "events", ["event_type", "value"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    na, sa, ssa = (float(parts[c].sum()) for c in ("n_a", "s_a", "ss_a"))
    nb, sb, ssb = (float(parts[c].sum()) for c in ("n_b", "s_b", "ss_b"))
    ma, mb = sa / na, sb / nb
    va = (ssa - na * ma * ma) / (na - 1.0)
    vb = (ssb - nb * mb * mb) / (nb - 1.0)
    # pooled variance (homoscedastic)
    sp2 = ((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0)
    t_homo = (ma - mb) / np.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    # Welch (heteroscedastic)
    t_welch = (ma - mb) / np.sqrt(va / na + vb / nb)
    return pd.DataFrame({
        "type": ["heteroscedastic", "homoscedastic"],
        "n_a": np.array([int(na)] * 2, np.int64),
        "n_b": np.array([int(nb)] * 2, np.int64),
        "t_stat": round_half_away(np.array([t_welch, t_homo]), 6),
    })


def index_refresh_visibility(sf_dir: str):
    """_refresh semantics (index/engine: uncommitted writes are
    invisible to search until refresh publishes them): the delta
    segment's data sits complete on disk but UNCOMMITTED (a `.tmp-`
    dir, no manifest visible to the reader) — phase 0 search sees only
    the base segments AND scores with the base corpus's stats, exactly
    a standalone base index. _refresh = the atomic tmp->final rename
    (the manifest commit); phase 1 sees everything. The oracle
    re-derives both phases' BM25 from the corpus split at the same
    cut."""
    import hashlib as _h
    import shutil as _sh

    import pyarrow.parquet as pq

    from ..index.build import build_index
    from ..index.manifest import committed_segments
    from ..search.engine import IndexSearcher

    src = os.path.join(sf_dir, "documents.parquet")
    n = pq.read_metadata(src).num_rows
    per_seg = 100
    cut = (int(n * 0.6) // per_seg) * per_seg
    tag = _h.sha1(f"{src}:{os.path.getmtime(src)}:append:v2".encode()).hexdigest()[:16]
    approot = os.path.join("/tmp/esray_cache", f"appendidx_{tag}")
    # reuse the append fixture's A/B split + fully-built A+B index
    index_incremental_append(sf_dir)
    full_dir = os.path.join(approot, "idx_full")
    rtag = _h.sha1(f"{src}:{os.path.getmtime(src)}:refresh:v1".encode()).hexdigest()[:16]
    rdir = os.path.join("/tmp/esray_cache", f"refreshidx_{rtag}")
    _sh.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    for sid in committed_segments(full_dir):
        offset = int(sid.split("_")[1])
        dst = sid if offset < cut else f".tmp-{sid}"  # delta = uncommitted
        _sh.copytree(os.path.join(full_dir, sid), os.path.join(rdir, dst))
    frames = []
    for phase in (0, 1):
        if phase == 1:  # _refresh: atomic publish of every pending segment
            for name in sorted(os.listdir(rdir)):
                if name.startswith(".tmp-"):
                    os.replace(os.path.join(rdir, name),
                               os.path.join(rdir, name[len(".tmp-"):]))
        s = IndexSearcher(rdir, score_mode="exact64", main_field="text")
        ids, sc = s._eval({"kind": "term", "term": "data"})
        order = np.argsort(ids)
        frames.append(pd.DataFrame({
            "phase": np.int64(phase),
            "doc_id": ids[order].astype(np.int64),
            "score": round_half_away(sc[order].astype(np.float64), 4),
        }))
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def training_shuffle_order(sf_dir: str):
    """Deterministic training-order shuffle (the dataloader epoch
    permutation — done WITHOUT random_shuffle's all-to-all: assign each
    doc the stable key (doc_id * 2654435761 + epoch * 40503) mod 2^32
    and range-sort on it; any worker can compute its slice
    independently, and epoch reshuffles are just a new seed). Output:
    the first 15 doc_ids of epochs 0 and 1."""
    frames = []
    for epoch in (0, 1):
        def key(t: pa.Table, epoch=epoch) -> pa.Table:
            did = t["doc_id"].to_numpy().astype(np.uint64)
            m = np.uint64(2654435761 + 81006 * epoch)
            k = (did * m) % np.uint64(2 ** 32)
            return pa.table({"doc_id": pa.array(did.astype(np.int64)),
                             "k": pa.array(k.astype(np.int64))})

        out = (_ds(sf_dir, "documents", ["doc_id"])
               .map_batches(key, batch_format="pyarrow")
               .sort(["k", "doc_id"]).limit(15).to_pandas())
        out.insert(0, "epoch", np.int64(epoch))
        out.insert(1, "pos", pd.array(range(1, len(out) + 1),
                                      dtype="int64"))
        frames.append(out[["epoch", "pos", "doc_id"]])
    out = pd.concat(frames, ignore_index=True)
    out["epoch"] = out["epoch"].astype(np.int64)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def bulk_external_versioning(sf_dir: str):
    """version_type=external (index/VersionType.EXTERNAL: a write wins
    iff its version is STRICTLY greater than the stored one; equal or
    lower -> version conflict) plus op_type=create (put-if-absent).
    Three write waves with deterministic versions arrive for every doc;
    the surviving (version, source) per doc is the max-version wave,
    and conflict counters tally the losers. One map_batches pass
    computes all waves' outcomes — the waves are functions of doc_id,
    so no shuffle; a real stream would groupby doc_id first."""
    from ray.data.aggregate import Sum

    def waves(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        # stored version after initial index = 1 + doc_id % 3
        stored = 1 + did % 3
        # wave A: version 2 -> wins where stored < 2
        winsA = stored < 2
        # wave B: version (doc_id % 5): mostly loses
        vB = did % 5
        cur = np.where(winsA, 2, stored)
        winsB = vB > cur
        cur = np.where(winsB, vB, cur)
        # wave C: op_type=create -> conflict wherever the doc exists
        create_conflict = np.ones(did.size, bool)
        return pa.table({
            "final_version": pa.array(cur),
            "conflictA": pa.array((~winsA).astype(np.int64)),
            "conflictB": pa.array((~winsB).astype(np.int64)),
            "create_conflicts": pa.array(create_conflict.astype(np.int64)),
        })

    ds = (_ds(sf_dir, "documents", ["doc_id"])
          .map_batches(waves, batch_format="pyarrow"))
    from ray.data.aggregate import Count

    per_v = (ds.groupby("final_version")
             .aggregate(Count(alias_name="docs"),
                        Sum("conflictA", alias_name="conflicts_a"),
                        Sum("conflictB", alias_name="conflicts_b"),
                        Sum("create_conflicts", alias_name="create_conflicts"))
             .to_pandas())
    for c in ("docs", "conflicts_a", "conflicts_b", "create_conflicts"):
        per_v[c] = per_v[c].astype(np.int64)
    per_v["final_version"] = per_v["final_version"].astype(np.int64)
    return per_v.sort_values("final_version").reset_index(drop=True)


def bulk_script_update(sf_dir: str):
    """Scripted update merge (UpdateHelper + Painless
    `ctx._source.counter += params.count`): many increment operations
    target the same doc (3 per doc here, sizes doc_id%4, doc_id%7, 5);
    the batch engine folds each doc's increments with ONE groupby-sum
    and applies them to the base counter (doc_id % 10) in the same
    pass — the reference would replay them serially through the
    version loop. Output: per-lang sum and max of final counters."""
    from ray.data.aggregate import Max, Sum

    def apply(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        base = did % 10
        incs = (did % 4) + (did % 7) + 5
        return pa.table({"lang": t["lang"],
                         "counter": pa.array(base + incs)})

    out = (_ds(sf_dir, "documents", ["doc_id", "lang"])
           .map_batches(apply, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("counter", alias_name="sum_counter"),
                      Max("counter", alias_name="max_counter"))
           .to_pandas())
    out["sum_counter"] = out["sum_counter"].astype(np.int64)
    out["max_counter"] = out["max_counter"].astype(np.int64)
    return out.sort_values("lang").reset_index(drop=True)


def ingest_simulate_verbose(sf_dir: str):
    """_simulate?verbose=true (SimulateExecutionService verbose mode:
    one `processor_results` entry per processor with the doc state
    AFTER that processor): the same set -> uppercase -> gsub pipeline,
    but every stage's output fields are emitted with a processor index
    — the per-stage trace the API returns. Stages run as separate
    vectorized passes over the (tiny, by contract) sample batch."""
    import pyarrow.compute as pc

    from ..functions import ingest as I

    ds0 = _ds(sf_dir, "documents", ["doc_id", "lang", "source"],
              flt=pc.field("doc_id") < 5)
    stages = [("set", I.pipeline(I.set_value("tag", "sim"))),
              ("uppercase", I.pipeline(I.set_value("tag", "sim"),
                                       I.uppercase("lang"))),
              ("gsub", I.pipeline(I.set_value("tag", "sim"),
                                  I.uppercase("lang"),
                                  I.gsub("source", "src", "S")))]
    frames = []
    for idx, (pname, pipe) in enumerate(stages):
        t = (ds0.map_batches(pipe, batch_format="pyarrow")
             .select_columns(["doc_id", "tag", "lang", "source"])
             .to_pandas())
        t.insert(0, "processor", pname)
        t.insert(0, "step", np.int64(idx))
        frames.append(t)
    out = pd.concat(frames, ignore_index=True)
    out["step"] = out["step"].astype(np.int64)
    return out.sort_values(["step", "doc_id"]).reset_index(drop=True)


def reindex_script(sf_dir: str):
    """_reindex with a script (ReindexRequest#setScript; the script can
    rewrite the source, change _id routing, or mark the op `noop` to
    drop the doc): docs reindex into a derived table where lang is
    uppercased and short docs (n_chars < 250) become noops (dropped);
    counters report created vs noops. One streaming pass; at scale the
    sink is the partitioned writer."""
    from ray.data.aggregate import Count

    def transform(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater_equal(t["n_chars"], 250)
        kept = t.filter(keep)
        return pa.table({
            "doc_id": kept["doc_id"],
            "lang": pc.utf8_upper(kept["lang"]),
        })

    out = (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
           .map_batches(transform, batch_format="pyarrow")
           .groupby("lang").aggregate(Count(alias_name="created"))
           .to_pandas())
    out["created"] = out["created"].astype(np.int64)
    total = _ds(sf_dir, "documents", ["doc_id"]).count()
    out["noops_total"] = np.int64(total - out["created"].sum())
    return out.sort_values("lang").reset_index(drop=True)


def termvectors_filtered(sf_dir: str):
    """_termvectors with the `filter` section (TermVectorsRequest
    FilterSettings: min_term_freq, min_doc_freq, max_num_terms — terms
    pruned by doc-local tf AND corpus df, then capped to the top
    max_num_terms by a tf*idf-style weight): doc 42's vector with
    min_term_freq=2, min_doc_freq=1, max_num_terms=5, ranked by
    tf * ln(1 + (N - df + 0.5)/(df + 0.5)) desc then term asc. The
    corpus dfs come from the live dictionary; only the single fetched
    doc is read."""
    from collections import Counter

    from ..analyzer import analyze_simple
    from ..sources.reader import fetch_rows_by_doc_id

    s = documents_searcher(sf_dir)
    n_docs = s.n_docs
    t = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                             [42], columns=["doc_id", "text"])
    c = Counter(analyze_simple(t["text"][0].as_py()))
    rows = []
    for term, tf in c.items():
        if tf < 2:
            continue
        df = int(s.global_df(term))
        if df < 1:
            continue
        idf = float(np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)))
        rows.append((term, tf, df, tf * idf))
    rows.sort(key=lambda r: (-r[3], r[0]))
    rows = rows[:5]
    return pd.DataFrame({
        "term": [r[0] for r in rows],
        "tf": pd.array([r[1] for r in rows], dtype="int64"),
        "df": pd.array([r[2] for r in rows], dtype="int64"),
        "weight": round_half_away(np.array([r[3] for r in rows]), 4),
    })


def corpus_datacard(sf_dir: str):
    """Data-card statistics (the per-source summary table a dataset
    release documents — Datasheets for Datasets, Gebru et al. 2021):
    per source, doc count, mean length, language-distribution entropy
    and dominant language share. One groupby over (source, lang)
    partials; the |sources| x |langs| reduced table computes entropy
    driver-side."""
    from ray.data.aggregate import Count, Sum

    g = (_ds(sf_dir, "documents", ["source", "lang", "n_chars"])
         .groupby(["source", "lang"])
         .aggregate(Count(alias_name="n"),
                    Sum("n_chars", alias_name="chars"))
         .to_pandas())
    rows = []
    for src, part in g.groupby("source"):
        n = part["n"].sum()
        p = part["n"].to_numpy(np.float64) / n
        ent = float(-(p * np.log2(p)).sum())
        dom = part.sort_values(["n", "lang"],
                               ascending=[False, True]).iloc[0]
        rows.append((src, int(n),
                     float(part["chars"].sum()) / n,
                     ent, str(dom["lang"]),
                     float(dom["n"]) / n))
    out = pd.DataFrame(rows, columns=[
        "source", "docs", "mean_chars", "lang_entropy", "top_lang",
        "top_lang_share"])
    for c in ("mean_chars", "lang_entropy", "top_lang_share"):
        out[c] = round_half_away(out[c].to_numpy(), 4)
    out["docs"] = out["docs"].astype(np.int64)
    return out.sort_values("source").reset_index(drop=True)


def ft_highlight_no_match_size(sf_dir: str):
    """highlighter `no_match_size` (HighlightBuilder#noMatchSize: when a
    field has no matching fragment, return the leading no_match_size
    characters of the raw field instead of nothing): the first 3 docs
    containing 'merge' get a real fragment (6 words from the first
    occurrence, every occurrence tagged), the first 3 docs WITHOUT it
    get the untagged 40-char head. Fetches are row-group-pruned point
    reads for exactly those 6 docs."""
    import pyarrow.compute as pc

    s = documents_searcher(sf_dir)
    ids, _ = s._eval({"kind": "term", "term": "merge"})
    hit = set(np.sort(ids)[:3].tolist())
    all_first = _ds(sf_dir, "documents", ["doc_id"],
                    flt=pc.field("doc_id") < 200).to_pandas()
    miss = [d for d in sorted(all_first["doc_id"])
            if d not in set(ids.tolist())][:3]
    from ..sources.reader import fetch_rows_by_doc_id

    want = sorted(hit) + miss
    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               np.array(want, np.int64),
                               columns=["doc_id", "text"])
    texts = {src["doc_id"][i].as_py(): src["text"][i].as_py()
             for i in range(len(src))}
    rows = []
    for d in want:
        text = texts[d]
        if d in hit:
            words = text.split()
            p = next(i for i, w in enumerate(words)
                     if w.lower() == "merge")
            frag = " ".join(f"<em>{w}</em>" if w.lower() == "merge" else w
                            for w in words[p:p + 6])
            rows.append((d, 1, frag))
        else:
            rows.append((d, 0, text[:40]))
    out = pd.DataFrame(rows, columns=["doc_id", "matched", "fragment"])
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["matched"] = out["matched"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def knn_similarity_threshold(sf_dir: str):
    """knn `similarity` option (8.8 KnnSearchBuilder#similarity: hits
    whose similarity falls below the threshold are dropped AFTER the
    top-k gather — the caller gets fewer than k rather than weaker
    matches): brute-force cosine top-5 per query, then the 0.2 cutoff.
    Same broadcast-query partial-top-k path as knn_bruteforce; the
    threshold applies to the merged result."""
    import pyarrow.dataset as pads

    qids = [0, 1, 2]
    t = _qvecs(sf_dir, ids=qids)
    vecs = {int(i): v for i, v in
            zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist())}
    Q = np.array([vecs[q] for q in qids])
    out = S.knn_brute_force(_ds(sf_dir, "embeddings"), Q, k=5,
                            dtype=np.float64)
    out = out[out["cosine"] >= 0.2].reset_index(drop=True)
    return out[["query_id", "vec_id", "cosine"]]


def ft_rank_feature_negative(sf_dir: str):
    """rank_feature with positive_score_impact=false
    (RankFeatureFieldMapper: lower feature values score higher — the
    saturation flips to pivot/(v+pivot); the canonical use is a
    url_length-style penalty feature): term 'data' plus the inverted
    n_chars feature."""
    return all_matches(sf_dir, {
        "kind": "bool",
        "must": [{"kind": "term", "term": "data"}],
        "should": [{"kind": "rank_feature", "field": "n_chars",
                    "pivot": 300.0, "boost": 1.5,
                    "positive_score_impact": False}]})


def ft_regexp_ops(sf_dir: str):
    """Lucene RegExp COMPLEMENT and INTERSECTION operators
    (automaton.RegExp COMPLEMENT/INTERSECTION flags, default-on in
    RegexpQueryBuilder): phase 0 `.*a.*&~(data)` — terms containing
    'a' EXCEPT 'data'; phase 1 `s.*&.*w` — terms that both start with
    's' and end with 'w'. Constant-score doc unions of the expanded
    term sets."""
    s = documents_searcher(sf_dir)
    frames = []
    for phase, pat in ((0, ".*a.*&~(data)"), (1, "s.*&.*w")):
        ids, _ = s._eval({"kind": "regexp", "pattern": pat})
        frames.append(pd.DataFrame({
            "phase": np.int64(phase),
            "doc_id": np.sort(ids).astype(np.int64)}))
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def ft_sqs_operators(sf_dir: str):
    """simple_query_string FULL operator grammar (Lucene
    SimpleQueryParser; SimpleQueryStringBuilder#flags): phase 0 =
    `(data | merge) + window` (grouped OR under an explicit AND),
    phase 1 = `cust* + slow~1` (prefix clause AND fuzzy term), phase 2
    = the SAME string as phase 0 parsed with flags=PHRASE|NOT — every
    operator char degrades to literal text, so only the bare words
    match (the reference's flag-degradation behavior). Doc sets only
    (scores exercised by the existing flat-form gates)."""
    s = documents_searcher(sf_dir)
    frames = []
    cases = [
        (0, {"kind": "simple_query_string",
             "query": "(data | merge) + window"}),
        (1, {"kind": "simple_query_string", "query": "cust* + slow~1"}),
        (2, {"kind": "simple_query_string",
             "query": "(data | merge) + window", "flags": "PHRASE|NOT"}),
    ]
    for phase, q in cases:
        ids, _ = s._eval(q)
        frames.append(pd.DataFrame({
            "phase": np.int64(phase),
            "doc_id": np.sort(ids).astype(np.int64)}))
    out = pd.concat(frames, ignore_index=True)
    out["phase"] = out["phase"].astype(np.int64)
    return out


def agg_histogram_offset(sf_dir: str):
    """histogram `offset` option (HistogramAggregationBuilder#offset:
    bucket boundaries shift by a constant — bucket = floor((v - offset)
    / width) * width + offset): width 50, offset 13.5 over
    events.value."""
    from ray.data.aggregate import Count

    w, off = 50.0, 13.5

    def bucketize(t: pa.Table) -> pa.Table:
        v = np.asarray(t["value"].to_numpy(zero_copy_only=False),
                       np.float64)
        v = v[~np.isnan(v)]
        b = np.floor((v - off) / w) * w + off
        return pa.table({"bucket": pa.array(b)})

    out = (_ds(sf_dir, "events", ["value"])
           .map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket").aggregate(Count(alias_name="doc_count"))
           .to_pandas())
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out.sort_values("bucket").reset_index(drop=True)


def esql_mv_functions(sf_dir: str):
    """ES|QL multivalue function family gate (MV_SORT / MV_SLICE /
    MV_SUM / MV_COUNT / MV_DEDUPE over a SPLIT-built list column): one
    vectorized EVAL chain per batch; the oracle rebuilds the same list
    ops with DuckDB list kernels."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM documents
        | EVAL toks = SPLIT(text, " ")
        | EVAL n = MV_COUNT(toks), uniq = MV_COUNT(MV_DEDUPE(toks))
        | EVAL first = MV_FIRST(MV_SORT(toks)), last = MV_LAST(MV_SORT(toks))
        | KEEP doc_id, n, uniq, first, last
        | SORT doc_id
        | LIMIT 100000
    ''')
    out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    for c in ("n", "uniq"):
        out[c] = out[c].astype(np.int64)
    return out


# ---------------- round-4 ES|QL grammar-depth gates ----------------


def esql_where_boolean(sf_dir: str):
    """ES|QL WHERE with a parenthesized boolean tree — OR, AND and NOT
    composed (x-pack esql EsqlBaseParser.g4 booleanExpression:
    logicalBinary / logicalNot / parenthesized): the whole predicate
    lowers to one vectorized pyarrow.compute mask per batch via
    esql_expr.compile_predicate; groups form over the filtered stream
    with per-batch partial aggregation."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE (event_type == "click" OR event_type == "view")
                AND NOT (value < 20)
        | STATS n = COUNT(*), s = SUM(value) BY event_type
        | SORT event_type
    ''')
    out["s"] = round_half_away(out["s"].to_numpy(np.float64), 2)
    return out


def esql_where_functions(sf_dir: str):
    """ES|QL scalar FUNCTION CALLS inside WHERE (EsqlFunctionRegistry
    STARTS_WITH / LENGTH lowered to pc.starts_with / pc.utf8_length),
    disjunctively combined — the predicate compiles once and runs as
    Arrow kernels per batch, never a row loop."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM events
        | WHERE STARTS_WITH(event_type, "c") OR LENGTH(event_type) == 4
        | STATS n = COUNT(*) BY event_type
        | SORT event_type
    ''')


def esql_eval_case(sf_dir: str):
    """ES|QL EVAL with CASE (x-pack esql Case function: odd-arity
    condition/value chain with default) feeding STATS BY the derived
    column — the classic banding pipeline; CASE lowers to chained
    pc.if_else."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | EVAL band = CASE(value < 25, "low", value < 75, "mid", "high")
        | STATS n = COUNT(*), m = MAX(value) BY band
        | SORT band
    ''')
    out["m"] = round_half_away(out["m"].to_numpy(np.float64), 2)
    return out


def esql_where_in_like(sf_dir: str):
    """ES|QL IN-list, LIKE wildcard (full-match, * / ? per WildcardLike)
    and NOT .. RLIKE (anchored regex, RegexMatch) conjoined in one WHERE
    — three predicate families from EsqlBaseParser regexBooleanExpression
    in a single compiled mask."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | WHERE lang IN ("en", "de") AND text LIKE "*data*"
                AND NOT source RLIKE "src1.*"
        | STATS n = COUNT(*) BY lang, source
        | SORT lang, source
    ''')


def esql_eval_string(sf_dir: str):
    """ES|QL string-function EVAL chain: SUBSTRING(TO_UPPER(..)) (1-based
    start + length, per the esql Substring function) and LENGTH, grouped
    by the derived key — nested function-call lowering through the Pratt
    parser."""
    from ..functions import esql

    return esql.run(sf_dir, '''
        FROM documents
        | EVAL s = SUBSTRING(TO_UPPER(source), 1, 4), lw = LENGTH(text)
        | STATS n = COUNT(*), wmax = MAX(lw) BY s
        | SORT s
    ''')


def esql_where_date(sf_dir: str):
    """ES|QL date functions in predicates and EVAL: DATE_EXTRACT gating
    rows (pc.hour) plus a NOT equality, then DATE_TRUNC bucketing — the
    time-filtered daily-count pipeline every observability user writes
    first."""
    from ..functions import esql

    out = esql.run(sf_dir, '''
        FROM events
        | WHERE DATE_EXTRACT("hour", ts) < 6 AND NOT (event_type == "error")
        | EVAL day = DATE_TRUNC("day", ts)
        | STATS n = COUNT(*) BY day
        | SORT day
    ''')
    out["day"] = pd.to_datetime(out["day"])
    return out


# ---------------- round-4 Painless surface gates ----------------


def _painless_batch_env(t: "pa.Table", params=None):
    """Sandbox env for one Arrow batch: columns as numpy arrays (doc
    values), the script params map, and the vectorized ternary kernel."""
    env = {c: t[c].to_numpy(zero_copy_only=False) for c in t.column_names}
    env["params"] = dict(params or {})
    env["where"] = np.where
    env["log"] = np.log
    return env


def painless_string_filter(sf_dir: str):
    """Painless String methods in a script query (modules/lang-painless
    java.lang.String whitelist: contains/startsWith — PainlessLookup
    method resolution): `doc['text'].value.contains("data") &&
    doc['lang'].value.startsWith("e")` compiled ONCE by
    scripting.compile_painless (AST whitelist, attribute escape
    rejected) and evaluated as vectorized pandas .str kernels per batch
    — never a Python loop over rows."""
    from ..scripting import compile_painless, safe_eval_expr

    src = compile_painless(
        "doc['text'].value.contains(\"data\") && "
        "doc['lang'].value.startsWith(\"e\")")

    def f(t: pa.Table) -> pa.Table:
        keep = safe_eval_expr(src, _painless_batch_env(t))
        return pa.table({"doc_id": pa.array(
            t["doc_id"].to_numpy()[keep], pa.int64())})

    out = (_ds(sf_dir, "documents", ["doc_id", "text", "lang"])
           .map_batches(f, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return out


def painless_ternary_score(sf_dir: str):
    """Painless ternary + params map in a script_score body
    (ScriptScoreQuery; painless conditional `c ? a : b` and the
    `params` map): `doc['n_chars'].value > params.cut ?
    doc['n_chars'].value * 0.1 : 1.0 + params.base` — the ternary
    lowers to a vectorized np.where, params resolve through the
    AST-gated `params.<key>` path only."""
    from ..scripting import compile_painless, safe_eval_expr

    params = {"cut": 200, "base": 1.5}
    src = compile_painless(
        "doc['n_chars'].value > params.cut ? "
        "doc['n_chars'].value * 0.1 : 1.0 + params.base")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_expr(src, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_substring_field(sf_dir: str):
    """Painless chained String methods in a script FIELD
    (SearchSourceBuilder#scriptField; java.lang.String.substring with
    Java begin-inclusive/end-exclusive semantics, then toUpperCase):
    the derived key feeds a distributed terms aggregation — partial
    counts per batch, tiny group-cardinality merge."""
    from ray.data.aggregate import Count

    from ..scripting import compile_painless, safe_eval_expr

    src = compile_painless(
        "doc['source'].value.substring(0, 4).toUpperCase()")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_expr(src, _painless_batch_env(t))
        return pa.table({"key": pa.array(v, pa.string())})

    out = (_ds(sf_dir, "documents", ["source"])
           .map_batches(f, batch_format="pyarrow")
           .groupby("key").aggregate(Count(alias_name="doc_count"))
           .to_pandas().sort_values("key").reset_index(drop=True))
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def painless_params_filter(sf_dir: str):
    """Painless `.equals(params.<key>)` — a String method whose ARGUMENT
    comes from the params map (both surfaces composed), plus a numeric
    affine transform: filter `doc['lang'].value.equals(params.lang)`,
    emit `doc['n_chars'].value * params.w + params.b`."""
    from ..scripting import compile_painless, safe_eval_expr

    params = {"lang": "en", "w": 2.0, "b": 10.0}
    keep_src = compile_painless("doc['lang'].value.equals(params.lang)")
    val_src = compile_painless("doc['n_chars'].value * params.w + params.b")

    def f(t: pa.Table) -> pa.Table:
        env = _painless_batch_env(t, params)
        keep = safe_eval_expr(keep_src, env)
        v = np.asarray(safe_eval_expr(val_src, env), np.float64)[keep]
        return pa.table({"doc_id": pa.array(
            t["doc_id"].to_numpy()[keep], pa.int64()),
            "v": pa.array(round_half_away(v, 2))})

    return (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


# ---------------- round-4 SQL grammar-depth gates ----------------


def _run_sql(sql: str, sf_dir: str):
    from ..functions.sql import run_sql

    return run_sql(sql, sf_dir, ds_factory=_ds)


def sql_where_or(sf_dir: str):
    """x-pack SQL WHERE with a top-level OR disjunction (sql/planner
    BinaryLogic OR): the whole clause compiles through the shared
    expression engine into one vectorized row filter; the oracle is the
    IDENTICAL SQL text run by DuckDB."""
    return _run_sql(
        "SELECT event_type, COUNT(*) AS n FROM events "
        "WHERE event_type = 'click' OR event_type = 'view' "
        "GROUP BY event_type ORDER BY event_type", sf_dir)


def sql_where_boolean_tree(sf_dir: str):
    """SQL NOT + parenthesized boolean tree mixed with AND (sql Not /
    parenthesized expression planning): NOT (value < 50) AND
    (event_type = 'error' OR value > 400)."""
    return _run_sql(
        "SELECT event_type, COUNT(*) AS n FROM events "
        "WHERE NOT (value < 50) AND (event_type = 'error' OR value > 400) "
        "GROUP BY event_type ORDER BY event_type", sf_dir)


def sql_where_not_like(sf_dir: str):
    """SQL NOT .. LIKE with % wildcards conjoined with an equality —
    the LIKE lowers to the engine's anchored wildcard regex; NOT
    negates the compiled mask."""
    out = _run_sql(
        "SELECT doc_id FROM documents "
        "WHERE lang = 'en' AND NOT text LIKE '%data%' "
        "ORDER BY doc_id", sf_dir)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def sql_subquery_from(sf_dir: str):
    """SQL derived table — SELECT-in-FROM (x-pack sql subquery support,
    rest tests SELECT-in-FROM): the inner aggregate plans first (partial
    combiner + group exchange), its group-cardinality result streams into
    the outer WHERE/ORDER as the `__subq` dataset — never a driver-side
    join. Oracle: the identical SQL text in DuckDB."""
    out = _run_sql(
        "SELECT event_type, n FROM ("
        "  SELECT event_type, COUNT(*) AS n FROM events"
        "  GROUP BY event_type) t "
        "WHERE n > 100 ORDER BY event_type", sf_dir)
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


def sql_subquery_agg_outer(sf_dir: str):
    """Aggregate OVER a streaming subquery: the inner plain projection
    stays a pruned, pushed-down Dataset (never to_pandas); the outer
    GROUP BY consumes it as a batch stream."""
    out = _run_sql(
        "SELECT lang, COUNT(*) AS n, MAX(n_chars) AS mx FROM ("
        "  SELECT doc_id, lang, n_chars FROM documents"
        "  WHERE doc_id < 400) "
        "GROUP BY lang ORDER BY lang", sf_dir)
    for c in ("n", "mx"):
        out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def sql_subquery_nested(sf_dir: str):
    """TWO levels of SELECT-in-FROM (subquery recursion): innermost
    pruned projection -> middle GROUP BY -> outer HAVING-style filter."""
    out = _run_sql(
        "SELECT lang, mx FROM ("
        "  SELECT lang, MAX(n_chars) AS mx FROM ("
        "    SELECT lang, n_chars FROM documents WHERE doc_id < 400)"
        "  GROUP BY lang) "
        "WHERE mx > 500 ORDER BY lang", sf_dir)
    out["mx"] = out["mx"].astype(np.int64)
    return out.reset_index(drop=True)


def sql_interval_arith(sf_dir: str):
    """INTERVAL arithmetic on timestamps (x-pack sql literal/interval):
    `ts + INTERVAL 2 HOUR` lowers to one Arrow duration-add kernel
    (functions/esql_expr INTERVAL -> pc.add); fixed-width units only."""
    out = _run_sql(
        "SELECT event_id, ts + INTERVAL 2 HOUR AS ts2, "
        "ts - INTERVAL '30' MINUTE AS ts3 "
        "FROM events WHERE event_id < 50 ORDER BY event_id", sf_dir)
    out["event_id"] = out["event_id"].astype(np.int64)
    return out.reset_index(drop=True)


def sql_extract_group(sf_dir: str):
    """EXTRACT(unit FROM ts) as a GROUP BY key (x-pack sql datetime
    functions): the SQL form rewrites to the engine's DATE_EXTRACT and
    is computed as a hidden EVAL column before the partial combiner."""
    out = _run_sql(
        "SELECT EXTRACT(hour FROM ts) AS h, COUNT(*) AS n FROM events "
        "GROUP BY h ORDER BY h", sf_dir)
    for c in ("h", "n"):
        out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def sql_subquery_topn(sf_dir: str):
    """Aggregate over a top-N derived table (the classic
    `FROM (ORDER BY … LIMIT n)` shape): the inner sort+limit run as the
    distributed Dataset sort with a limit (only n rows survive the
    exchange); the outer aggregate consumes the n-row stream.
    Secondary sort key makes the boundary deterministic under ties."""
    out = _run_sql(
        "SELECT COUNT(*) AS n, MIN(o_totalprice) AS mn, "
        "MAX(o_totalprice) AS mx FROM ("
        "  SELECT o_orderkey, o_totalprice FROM orders"
        "  ORDER BY o_totalprice DESC, o_orderkey LIMIT 100)", sf_dir)
    out["n"] = out["n"].astype(np.int64)
    for c in ("mn", "mx"):
        out[c] = round_half_away(out[c].to_numpy(np.float64), 2)
    return out.reset_index(drop=True)


def sql_having_tree(sf_dir: str):
    """Boolean HAVING tree over aggregate aliases (x-pack sql Having ->
    post-aggregation Filter): AND/OR/parens compile through the shared
    expression engine and evaluate on the reduced group table —
    group-cardinality rows, never raw rows."""
    out = _run_sql(
        "SELECT event_type, COUNT(*) AS n, MAX(value) AS mx FROM events "
        "GROUP BY event_type "
        "HAVING n > 1900 AND (mx > 490 OR event_type = 'error') "
        "ORDER BY event_type", sf_dir)
    out["n"] = out["n"].astype(np.int64)
    out["mx"] = round_half_away(out["mx"].to_numpy(np.float64), 2)
    return out.reset_index(drop=True)


def sql_date_trunc_group(sf_dir: str):
    """DATE_TRUNC('week', ts) as a SQL GROUP BY key (datetime scalar
    function in the single-quote SQL surface; lowers to one
    pc.floor_temporal kernel before the partial combiner)."""
    out = _run_sql(
        "SELECT DATE_TRUNC('week', ts) AS wk, COUNT(*) AS n FROM events "
        "GROUP BY wk ORDER BY wk", sf_dir)
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


# ---------------- round-4 x-pack ML job-surface gates ----------------


def ml_anomaly_mean_value(sf_dir: str):
    """Metric-function anomaly job (x-pack ml Detector function `mean`
    with a partition_field — job config bucket_span=1d): per
    (event_type, day) bucket means stream as per-batch (sum, count)
    partials; the z-scored bucket table then gets a RANK-normalized
    0-100 record_score (the normalizer's percentile shape,
    AnomalyRecord#recordScore) and records with score >= 90 are the
    reported anomalies. Only the bucket table (types x days) ever
    reaches the driver."""
    from ray.data.aggregate import Count, Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby(["event_type", "day_i"], as_index=False)["value"] \
              .agg(s="sum", c="count")
        return pa.Table.from_pandas(g, preserve_index=False)

    b = (_ds(sf_dir, "events", ["event_type", "ts", "value"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["event_type", "day_i"])
         .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
         .to_pandas())
    b["mean_v"] = b["s"] / b["c"]
    st = b.groupby("event_type")["mean_v"].agg(
        mu="mean", sd=lambda x: x.std(ddof=1))
    b = b.join(st, on="event_type")
    b["z"] = (b["mean_v"] - b["mu"]) / b["sd"]
    # rank-normalized severity: |z| percentile within the job -> 0..100
    b["record_score"] = b["z"].abs().rank(method="min").sub(1) \
        .div(max(len(b) - 1, 1)).mul(100.0)
    out = b[b["record_score"] >= 90.0].copy()
    out["day"] = pd.to_datetime(out["day_i"] * 86_400_000_000, unit="us")
    out["mean_v"] = round_half_away(out["mean_v"].to_numpy(np.float64), 4)
    out["record_score"] = round_half_away(
        out["record_score"].to_numpy(np.float64), 4)
    return (out[["event_type", "day", "mean_v", "record_score"]]
            .sort_values(["event_type", "day"]).reset_index(drop=True))


def ml_datafeed_agg_preview(sf_dir: str):
    """Datafeed _preview with an aggregated body (x-pack ml
    DatafeedConfig aggregations: date_histogram(1d) + avg(value) —
    PreviewDatafeedAction returns the first flattened buckets the job
    would consume): partial (sum, count) per batch, bucket merge, first
    5 buckets by time."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby("day_i", as_index=False)["value"] \
              .agg(s="sum", c="count")
        return pa.Table.from_pandas(g, preserve_index=False)

    b = (_ds(sf_dir, "events", ["ts", "value"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby("day_i")
         .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
         .to_pandas().sort_values("day_i").head(5))
    out = pd.DataFrame({
        "time": pd.to_datetime(b["day_i"] * 86_400_000_000, unit="us"),
        "doc_count": b["c"].astype(np.int64),
        "avg_value": round_half_away((b["s"] / b["c"]).to_numpy(np.float64),
                                     4),
    })
    return out.reset_index(drop=True)


def ml_estimate_model_memory(sf_dir: str):
    """_ml/anomaly_detectors/_estimate_model_memory analog (x-pack ml
    TransportEstimateModelMemoryAction): the estimate is a deterministic
    formula over field cardinalities — base model size + per-by-field
    cost x cardinality + per-partition cost x cardinality. Cardinalities
    compute DISTRIBUTED (per-batch uniques -> one union groupby); the
    formula itself is driver arithmetic on two scalars. Constants follow
    the reference's documented shape (bytes per split field) — asserted
    by the oracle re-deriving the same formula from SQL COUNT(DISTINCT)."""
    from ray.data.aggregate import Count

    def uniq(col):
        def f(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({col: pc.unique(t[col])})
        return f

    card = {}
    for col in ("event_type", "user_id"):
        card[col] = (_ds(sf_dir, "events", [col])
                     .map_batches(uniq(col), batch_format="pyarrow")
                     .groupby(col).aggregate(Count(alias_name="c"))
                     .count())
    base = 10 * 1024 * 1024          # BASIC_REQUIREMENT 10 MB
    by_cost = 64 * 1024              # bytes per by-field split
    part_cost = 32 * 1024            # bytes per partition-field split
    est = base + by_cost * card["event_type"] + part_cost * card["user_id"]
    return pd.DataFrame({
        "by_field_cardinality": [np.int64(card["event_type"])],
        "partition_field_cardinality": [np.int64(card["user_id"])],
        "model_memory_estimate_bytes": [np.int64(est)],
    })


def _ml_day_buckets(sf_dir: str, aggs: dict):
    """(event_type, day) bucket table via per-batch partial combiners —
    the datafeed aggregation shape every detector gate shares; only the
    types x days bucket table reaches the driver."""
    from ray.data.aggregate import Max, Min, Sum

    cols = {"s": ("value", "sum"), "c": ("value", "count"),
            "mn": ("value", "min"), "mx": ("value", "max")}

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["day_i"] = (df["ts"].astype("datetime64[us]").astype(np.int64)
                       // 86_400_000_000)
        g = df.groupby(["event_type", "day_i"])["value"]
        out = {k: g.agg(how) for k, (_, how) in cols.items() if k in aggs}
        return pa.Table.from_pandas(pd.DataFrame(out).reset_index(),
                                    preserve_index=False)

    merge = [Sum(k, alias_name=k) if k in ("s", "c")
             else (Min(k, alias_name=k) if k == "mn"
                   else Max(k, alias_name=k))
             for k in aggs]
    return (_ds(sf_dir, "events", ["event_type", "ts", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "day_i"])
            .aggregate(*merge)
            .to_pandas())


def _ml_rank_score(z_abs: "pd.Series") -> "pd.Series":
    """Rank-normalized 0-100 severity (the normalizer's percentile
    shape, AnomalyRecord#recordScore — shared by the detector gates)."""
    return (z_abs.rank(method="min").sub(1)
            .div(max(len(z_abs) - 1, 1)).mul(100.0))


def ml_detector_min_max(sf_dir: str):
    """x-pack ml `min`/`max` metric detectors in ONE job (Detector
    function min/max, ml/job/config/DetectorFunction): per-bucket
    extrema stream as partial combiners; each detector's buckets are
    z-scored per event_type, and BOTH detectors' records normalize in
    one job-wide rank pool. Records with score >= 90 are reported."""
    b = _ml_day_buckets(sf_dir, {"mn", "mx"})
    recs = []
    for det, col in (("min", "mn"), ("max", "mx")):
        d = b[["event_type", "day_i", col]].rename(columns={col: "actual"})
        st = d.groupby("event_type")["actual"].agg(
            mu="mean", sd=lambda x: x.std(ddof=1))
        d = d.join(st, on="event_type")
        d["z"] = (d["actual"] - d["mu"]) / d["sd"]
        d["detector"] = det
        recs.append(d)
    r = pd.concat(recs, ignore_index=True)
    r["record_score"] = _ml_rank_score(r["z"].abs())
    out = r[r["record_score"] >= 90.0].copy()
    out["day"] = pd.to_datetime(out["day_i"] * 86_400_000_000, unit="us")
    out["actual"] = round_half_away(out["actual"].to_numpy(np.float64), 4)
    out["record_score"] = round_half_away(
        out["record_score"].to_numpy(np.float64), 4)
    return (out[["detector", "event_type", "day", "actual", "record_score"]]
            .sort_values(["detector", "event_type", "day"])
            .reset_index(drop=True))


def ml_detector_count(sf_dir: str):
    """x-pack ml `count` detector (event-rate anomaly, Detector function
    count): per-bucket event counts partial-combined, z-scored per
    event_type, rank-normalized; score >= 90 reported."""
    b = _ml_day_buckets(sf_dir, {"c"})
    st = b.groupby("event_type")["c"].agg(
        mu="mean", sd=lambda x: x.std(ddof=1))
    b = b.join(st, on="event_type")
    b["z"] = (b["c"] - b["mu"]) / b["sd"]
    b["record_score"] = _ml_rank_score(b["z"].abs())
    out = b[b["record_score"] >= 90.0].copy()
    out["day"] = pd.to_datetime(out["day_i"] * 86_400_000_000, unit="us")
    out["actual"] = out["c"].astype(np.int64)
    out["record_score"] = round_half_away(
        out["record_score"].to_numpy(np.float64), 4)
    return (out[["event_type", "day", "actual", "record_score"]]
            .sort_values(["event_type", "day"]).reset_index(drop=True))


def ml_detector_rare(sf_dir: str):
    """x-pack ml `rare by event_type partition user_id` detector
    (RareFunction): a (user, event_type) combination is anomalous when
    its count is far below the user's modal event count. Counts ride the
    bucketed exchange (pair cardinality ~ users x types); severity =
    100 * (1 - cnt / max_cnt_for_user), reported when >= 70 and the
    user has >= 3 distinct event types."""
    import pyarrow.compute as pc

    from ..functions.exchange import bucketed_agg

    ds = _ds(sf_dir, "events", ["user_id", "event_type"],
             flt=pc.field("user_id") < 200)
    cnt = bucketed_agg(ds, ["user_id", "event_type"], "event_type",
                       "count", out_name="cnt").to_pandas()
    g = cnt.groupby("user_id")["cnt"]
    cnt = cnt.join(g.agg(mx="max", nt="size"), on="user_id")
    cnt["record_score"] = 100.0 * (1.0 - cnt["cnt"] / cnt["mx"])
    out = cnt[(cnt["record_score"] >= 70.0) & (cnt["nt"] >= 3)].copy()
    out["user_id"] = out["user_id"].astype(np.int64)
    out["cnt"] = out["cnt"].astype(np.int64)
    out["record_score"] = round_half_away(
        out["record_score"].to_numpy(np.float64), 4)
    return (out[["user_id", "event_type", "cnt", "record_score"]]
            .sort_values(["user_id", "event_type"]).reset_index(drop=True))


def ml_bucket_anomaly_score(sf_dir: str):
    """x-pack ml BUCKET-level normalization (BucketNormalizable /
    GetBucketsAction): record z-scores per (event_type, day) roll up to
    one anomaly_score per day bucket = the rank-normalized MAX |z| of
    the bucket's records; buckets with score >= 85 are reported with
    their record count above the 75 threshold."""
    b = _ml_day_buckets(sf_dir, {"s", "c"})
    b["mean_v"] = b["s"] / b["c"]
    st = b.groupby("event_type")["mean_v"].agg(
        mu="mean", sd=lambda x: x.std(ddof=1))
    b = b.join(st, on="event_type")
    b["z"] = ((b["mean_v"] - b["mu"]) / b["sd"]).abs()
    b["record_score"] = _ml_rank_score(b["z"])
    day = b.groupby("day_i").agg(
        max_z=("z", "max"),
        n_high=("record_score", lambda s: int((s >= 75.0).sum())))
    day["anomaly_score"] = _ml_rank_score(day["max_z"])
    out = day[day["anomaly_score"] >= 85.0].reset_index()
    out["day"] = pd.to_datetime(out["day_i"] * 86_400_000_000, unit="us")
    out["n_high"] = out["n_high"].astype(np.int64)
    out["anomaly_score"] = round_half_away(
        out["anomaly_score"].to_numpy(np.float64), 4)
    return (out[["day", "anomaly_score", "n_high"]]
            .sort_values("day").reset_index(drop=True))


def painless_script_locals(sf_dir: str):
    """Painless MULTI-STATEMENT script body with local variables
    (modules/lang-painless statement grammar: `def` / typed
    declarations, reassignment, trailing return): the classic
    script_score users port —

        def base = doc['n_chars'].value / 100.0;
        double bonus = doc['lang'].value.equals("en") ? 0.5 : 0.0;
        base = base * params.w;
        return base + bonus

    Statements compile once (scripting.compile_painless_script); locals
    bind progressively per batch, all vectorized."""
    from ..scripting import compile_painless_script, safe_eval_script

    params = {"w": 2.0}
    stmts = compile_painless_script(
        "def base = doc['n_chars'].value / 100.0;"
        "double bonus = doc['lang'].value.equals(\"en\") ? 0.5 : 0.0;"
        "base = base * params.w;"
        "return base + bonus")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_if_block(sf_dir: str):
    """Painless `if` / `else if` / `else` STATEMENT BLOCKS
    (modules/lang-painless PainlessParser.g4 statement grammar — the
    round-4 exclusion, closed): branch bodies assign a local, the
    vectorized interpreter runs both branches under per-row masks and
    merges assignments (scripting._exec_block)."""
    from ..scripting import compile_painless_script, safe_eval_script

    params = {"hi": 800.0, "lo": 300.0}
    stmts = compile_painless_script(
        "def s = 0.0;"
        "if (doc['n_chars'].value >= params.hi)"
        "  { s = doc['n_chars'].value * 0.5; }"
        "else if (doc['n_chars'].value >= params.lo)"
        "  { s = 10.0 + doc['n_chars'].value * 0.1; }"
        "else { s = 1.0; }"
        "return s + 0.25;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_early_return(sf_dir: str):
    """Painless EARLY RETURN inside branches: rows take different return
    statements; the interpreter merges results under a returned-rows
    mask and later statements only execute for not-yet-returned rows."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "if (doc['lang'].value.equals(\"en\"))"
        "  { return doc['n_chars'].value * 2.0; }"
        "if (doc['lang'].value.equals(\"de\"))"
        "  { return doc['n_chars'].value + 100.5; }"
        "return doc['n_chars'].value * 0.5;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_loop_harmonic(sf_dir: str):
    """Painless C-style `for` loop with compound assignment and `i++`
    (the classic scripted_metric combine-script shape): fixed iteration
    count from params, one vectorized numpy pass per iteration — never a
    Python loop over rows."""
    from ..scripting import compile_painless_script, safe_eval_script

    params = {"n": 5}
    stmts = compile_painless_script(
        "def total = 0.0;"
        "for (def i = 0; i < params.n; i++)"
        "  { total += doc['n_chars'].value / (i + 1.0); }"
        "return total;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_while_halving(sf_dir: str):
    """Painless `while` loop with PER-ROW iteration counts: each doc
    halves its value until < 10, counting steps. The vectorized
    interpreter iterates with a shrinking active mask (rows whose
    condition went false stop updating) — per-row loop trip counts with
    one numpy pass per global iteration; capped at the Painless
    loop-counter limit. Oracle: recursive CTE replaying the identical
    float halvings."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "def w = doc['n_chars'].value * 1.0;"
        "def steps = 0;"
        "while (w >= 10) { w = w / 2.0; steps += 1; }"
        "return steps;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "steps": pa.array(np.asarray(v, np.int64))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_foreach_params(sf_dir: str):
    """Painless for-each over a params list (`for (w : params.weights)`)
    — the scripted_metric reduce-script idiom of folding a list of
    partial weights; each element binds scalar per iteration, the fold
    body stays vectorized over rows."""
    from ..scripting import compile_painless_script, safe_eval_script

    params = {"weights": [0.5, 0.25, 0.125], "decay": 0.5}
    stmts = compile_painless_script(
        "def t = 0.0;"
        "for (w : params.weights)"
        "  { t = t * params.decay + doc['n_chars'].value * w; }"
        "return t;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def training_unigram_tokenizer(sf_dir: str):
    """SentencePiece-style UNIGRAM-LM tokenizer training + encoding
    (Kudo 2018 — the other mainstream subword trainer next to BPE):
    substring-seeded vocabulary, EM-fit piece probabilities under
    per-batch Viterbi (model broadcast once per iteration, piece-count
    partials on the bucketed exchange at piece cardinality), prune to
    size; encoding via the actor-pool stage with a distinct-word cache.
    Rows-only: EM + Viterbi are not SQL-expressible; determinism and
    segmentation quality are pytest-asserted (tests/test_round4_ops)."""
    import pyarrow.compute as pc

    from ..functions.bpe import fit_unigram_tokenizer, unigram_encode_counts

    ds = _ds(sf_dir, "documents", ["doc_id", "text"],
             flt=pc.field("doc_id") < 300)
    logp = fit_unigram_tokenizer(ds, vocab_size=150, em_iters=2)
    out = unigram_encode_counts(ds, logp, concurrency=2).to_pandas()
    out = out[["doc_id", "unigram_subwords"]]
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["unigram_subwords"] = out["unigram_subwords"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def painless_math_methods(sf_dir: str):
    """java.lang.Math statics in Painless (PainlessLookup whitelist:
    Math.max/abs/sqrt/log...): each call lowers to one numpy kernel,
    vectorized over the batch; Math.round keeps Java's floor(x+0.5)
    half-up semantics."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "def a = Math.max(doc['n_chars'].value - 400.0, 0.0);"
        "def b = Math.log(doc['n_chars'].value + 1.0);"
        "return Math.sqrt(a) + b * 2.0;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_user_function(sf_dir: str):
    """Painless USER-DEFINED FUNCTION (PainlessParser.g4 `function` —
    the last statement-grammar exclusion, closed in round 5): typed
    header + params, body sees only its params/locals (no script-local
    leakage, tested), early returns via the same per-row masks, calls
    dispatch through the sandbox's whitelisted-callable path."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "double boost(double x) {"
        "  if (x > 500.0) { return x * 0.5; }"
        "  return x; }"
        "return boost(doc['n_chars'].value) + 1.0;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_loop_break(sf_dir: str):
    """Painless `break` with PER-ROW semantics: `while (true)` doubling
    until the row's bound is reached — each row exits the loop at its
    own iteration (rows accumulate into the loop's broken mask and stop
    updating; the loop runs until every row has broken). Oracle:
    recursive CTE replaying the identical doublings."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "def p = 1.0;"
        "while (true) {"
        "  if (p >= doc['n_chars'].value) { break; }"
        "  p = p * 2.0; }"
        "return p;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "pow2": pa.array(np.asarray(v, np.int64))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_continue_sum(sf_dir: str):
    """Painless `continue` in a C-style for loop: skipped iterations
    (i % 3 == 0) contribute nothing but the update expression still
    runs (continue jumps to the update, C semantics — the vectorized
    interpreter executes the update under the continued-rows mask)."""
    from ..scripting import compile_painless_script, safe_eval_script

    stmts = compile_painless_script(
        "def t = 0.0;"
        "for (def i = 0; i < 8; i++) {"
        "  if (i % 3 == 0) { continue; }"
        "  t += doc['n_chars'].value / (i + 1.0); }"
        "return t;")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def painless_collections(sf_dir: str):
    """Painless List/Map mutation (java.util whitelist: `new
    ArrayList()` / `new HashMap()`, add/get/size/put — the
    scripted_metric state idiom): collections are per-SCRIPT scalar
    values built by loops; the doc-value arithmetic stays vectorized."""
    from ..scripting import compile_painless_script, safe_eval_script

    params = {"ws": [0.25, 0.5, 1.0]}
    stmts = compile_painless_script(
        "def l = new ArrayList();"
        "for (w : params.ws) { l.add(w * 2.0); }"
        "def m = new HashMap();"
        "m.put('n', l.size());"
        "return doc['n_chars'].value * l.get(1) + m.get('n');")

    def f(t: pa.Table) -> pa.Table:
        v = safe_eval_script(stmts, _painless_batch_env(t, params))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "score": pa.array(
                             round_half_away(np.asarray(v, np.float64), 4))})

    return (_ds(sf_dir, "documents", ["doc_id", "n_chars"])
            .map_batches(f, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def text_boilerplate_strip(sf_dir: str):
    """Cross-document boilerplate removal (the C4 / CCNet curation step
    — template chunks recurring across >= min_df distinct docs stripped
    from EVERY doc; distinct from dedup_paragraph's keep-first): 3-word
    chunks, min_df=5 at the gate corpus. Bucketed df-count exchange +
    ray.put hot-set broadcast + stateless strip pass
    (functions/dedup.py boilerplate_strip)."""
    out = D.boilerplate_strip(
        _ds(sf_dir, "documents", ["doc_id", "text"]),
        chunk_words=3, min_df=5)
    df = out.to_pandas()
    for c in ("doc_id", "n_total", "n_removed"):
        df[c] = df[c].astype(np.int64)
    return df.sort_values("doc_id").reset_index(drop=True)


def index_dangling_recovery(sf_dir: str):
    """_dangling_indices API analog over the segment store
    (TransportListDanglingIndicesAction / ImportDanglingIndexAction —
    disk-present, state-absent data recovered or dropped): builds the
    documents index fresh in a scratch dir, simulates a crashed commit
    by removing one segment's manifest, then lists -> imports ->
    verifies search parity, and exercises the delete-refusal on the
    recommitted segment. Emits one row per lifecycle phase."""
    import shutil

    from ..index.build import build_index
    from ..index.manifest import (committed_segments, dangling_segments,
                                  delete_dangling_segment,
                                  import_dangling_segment)
    from ..search.engine import IndexSearcher

    src = os.path.join(sf_dir, "documents.parquet")
    scratch = os.path.join("/tmp/esray_cache",
                           f"dangling_{os.path.getmtime(src):.0f}")
    shutil.rmtree(scratch, ignore_errors=True)
    build_index(src, scratch, analyzer="simple", docs_per_partition=250,
                num_buckets=8, content_column="text", meta_columns=())
    segs = sorted(committed_segments(scratch))
    ref = IndexSearcher(scratch, main_field="text", score_mode="exact64")
    q = {"kind": "term", "term": "data", "k": 10_000}
    ref_ids, _ = ref.search(q)

    victim = segs[-1]
    os.remove(os.path.join(scratch, victim, "manifest.json"))
    listed = dangling_segments(scratch)
    m = import_dangling_segment(scratch, victim)
    after = IndexSearcher(scratch, main_field="text", score_mode="exact64")
    ids2, _ = after.search(q)
    parity = int(list(ids2) == list(ref_ids))
    refused = int(not delete_dangling_segment(scratch, victim))
    rows = [
        ("committed_segments", np.int64(len(segs))),
        ("dangling_listed", np.int64(len(listed))),
        ("recovered_docs", np.int64(m.doc_count)),
        ("search_parity", np.int64(parity)),
        ("delete_refused_committed", np.int64(refused)),
    ]
    return pd.DataFrame({"stat": [r[0] for r in rows],
                         "value": [r[1] for r in rows]}).sort_values(
        "stat").reset_index(drop=True)
