"""Deduplication operators for training-data pipelines.

The reference's own near-dedup primitive is the `min_hash` token filter
(modules/analysis-common/.../CommonAnalysisPlugin.java:271) and exact dedup
falls out of `_id` upsert semantics / field collapse (SURVEY.md §2.8). Here
they are first-class dataset operators:

  exact_dedup        hash-partition by content hash, keep min doc_id per group
  minhash_lsh        shingle -> minhash -> banded LSH buckets -> verified pairs
  simhash            64-bit simhash + hamming-radius candidate pairs
  ngram_jaccard      n-gram Jaccard verification kernel (used by both)
  embedding_dedup    cosine-similarity near-dup over an embedding column

Scale notes (explicit, per the north rule): every candidate-generation step is
a bounded groupby — exact by hash, minhash by (band, band_hash), simhash by
rotated prefix buckets — so no stage ever pairs all docs against all docs;
verification runs inside the bucket groups only.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..utils import round_half_away


def _content_hash_batch(t: pa.Table, text_col: str) -> pa.Table:
    h = [hashlib.md5(s.encode()).hexdigest() for s in t[text_col].to_pylist()]
    return t.append_column("content_hash", pa.array(h, pa.string()))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Exact dedup: md5(text) groupby, keep the min-id row per group.
    Returns the deduplicated Dataset (hash + shuffle + first — SURVEY.md §2.8
    mapping of `_id` upsert/collapse semantics).

    The shuffle key is a BUCKET of the hash (crc-folded, 64 buckets), not the
    hash itself, so map_groups is called once per bucket and keep-first runs
    vectorized in pandas over the whole bucket — not once per distinct
    document (group-call overhead dominated at 5k+ groups)."""
    import zlib

    B = 64

    def hash_and_bucket(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(s.encode()).hexdigest()
             for s in t[text_col].to_pylist()]
        hb = [zlib.crc32(x.encode()) % B for x in h]
        t = (t.append_column("content_hash", pa.array(h, pa.string()))
              .append_column("hbucket", pa.array(hb, pa.int64())))
        # pre-shuffle combiner: keep only the min-id row per hash WITHIN
        # the batch — global min-id survives composition, and at web-corpus
        # dup rates this cuts the all-to-all volume by the dup factor
        # (the only rows that cross the wire are per-batch champions)
        idx = pa.compute.sort_indices(
            t, sort_keys=[("content_hash", "ascending"),
                          (id_col, "ascending")])
        t = t.take(idx)
        hs = t["content_hash"].to_numpy(zero_copy_only=False)
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]
        return t.filter(pa.array(first))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["content_hash", id_col], kind="stable")
        return (g[~g["content_hash"].duplicated(keep="first")]
                .drop(columns=["hbucket"]))

    return (
        ds.map_batches(hash_and_bucket, batch_format="pyarrow")
        .groupby("hbucket")
        .map_groups(keep_first, batch_format="pandas")
    )


# ---------------- MinHash + LSH ----------------


def _shingles(text: str, k: int = 5) -> np.ndarray:
    """character k-shingle 64-bit hashes of the normalized text."""
    s = " ".join(text.lower().split())
    if len(s) < k:
        s = s + " " * (k - len(s))
    data = np.frombuffer(s.encode()[: 1 << 20], dtype=np.uint8)
    k = min(k, data.size)
    idx = np.arange(k)[None, :] + np.arange(data.size - k + 1)[:, None]
    powers = np.array([pow(1000003, k - 1 - j, 1 << 64) for j in range(k)], dtype=np.uint64)
    return np.unique((data[idx].astype(np.uint64) * powers[None, :]).sum(axis=1))


_MINHASH_A = None
_MINHASH_B = None


def _minhash_params(num_perm: int):
    global _MINHASH_A, _MINHASH_B
    if _MINHASH_A is None or _MINHASH_A.size != num_perm:
        rng = np.random.default_rng(12345)
        _MINHASH_A = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        _MINHASH_B = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return _MINHASH_A, _MINHASH_B


def minhash_signature(text: str, num_perm: int = 128, shingle_k: int = 5) -> np.ndarray:
    sh = _shingles(text, shingle_k)
    a, b = _minhash_params(num_perm)
    # (a*x + b) over 2^64 ring; min per permutation
    prods = sh[None, :] * a[:, None] + b[:, None]
    return prods.min(axis=1)


def minhash_signatures_batch(texts: list[str], num_perm: int = 128,
                             shingle_k: int = 5) -> np.ndarray:
    """(n_docs, num_perm) signature matrix for a whole batch in one pass:
    all docs' shingle hashes are computed over one concatenated byte buffer
    (windows crossing doc boundaries masked out by contiguous-segment
    indexing), then each permutation chunk takes a minimum.reduceat per doc.
    Signature-identical to minhash_signature per doc (min is unaffected by
    duplicate shingles, so the per-doc np.unique is skipped)."""
    k = shingle_k
    a, b = _minhash_params(num_perm)
    # bound peak memory: the per-permutation product below allocates one
    # total_window_positions u64 temp at a time; slice unbounded doc
    # batches so a slice stays cache/heap-friendly, recurse, and stack.
    _MAX_POS = 4_000_000
    if len(texts) > 1:
        est = sum(min(len(t), 1 << 20) for t in texts)
        if est > _MAX_POS:
            mid = len(texts) // 2
            return np.vstack([
                minhash_signatures_batch(texts[:mid], num_perm, shingle_k),
                minhash_signatures_batch(texts[mid:], num_perm, shingle_k),
            ])
    bufs, lens = [], []
    for t in texts:
        s = " ".join(t.lower().split())
        if len(s) < k:
            s = s + " " * (k - len(s))
        e = s.encode()[: 1 << 20]
        bufs.append(e)
        lens.append(len(e))
    n_docs = len(texts)
    if n_docs == 0:
        return np.empty((0, num_perm), np.uint64)
    data = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    lens_a = np.asarray(lens, np.int64)
    starts = np.concatenate([[0], np.cumsum(lens_a)[:-1]])
    # rolling polynomial window hashes over the whole buffer: k shifted
    # contiguous passes (no (n_pos, k) gather — measured 2x on the
    # sf0.1 corpus vs the fancy-indexed form)
    n_pos = data.size - k + 1
    powers = np.array([pow(1000003, k - 1 - j, 1 << 64) for j in range(k)],
                      dtype=np.uint64)
    whash = np.zeros(n_pos, np.uint64)
    for j in range(k):
        whash += data[j:j + n_pos].astype(np.uint64) * powers[j]
    # valid (in-doc) window positions form one contiguous run per doc
    seg_lens = lens_a - k + 1
    offsets = np.concatenate([[0], np.cumsum(seg_lens)])
    flat = np.arange(offsets[-1])
    valid = whash[flat - np.repeat(offsets[:-1], seg_lens)
                  + np.repeat(starts, seg_lens)]
    sig = np.empty((num_perm, n_docs), np.uint64)
    # ONE permutation at a time: the 2D broadcast product +
    # reduceat(axis=1) form measured 13x slower than this contiguous
    # 1D loop (strided-write/2D-reduceat overhead), and peak memory
    # drops from chunk x positions to 1 x positions
    for p in range(num_perm):
        sig[p] = np.minimum.reduceat(valid * a[p] + b[p], offsets[:-1])
    return sig.T


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64 bucket keys from a signature matrix — a
    vectorized splitmix-style fold over each band's rows (replaces the old
    per-doc-per-band hashlib.md5; collisions are ~2^-64, immaterial for
    bucketing)."""
    S = sig.reshape(sig.shape[0], bands, -1)
    h = np.full(S.shape[:2], 0x9E3779B97F4A7C15, np.uint64)
    C1 = np.uint64(0xBF58476D1CE4E5B9)
    C2 = np.uint64(0x94D049BB133111EB)
    for j in range(S.shape[2]):
        h = (h ^ S[:, :, j]) * C1
        h = (h ^ (h >> np.uint64(31))) * C2
    return h ^ (h >> np.uint64(33))


class MinHashStage:
    """actor-pool map_batches stage: text -> banded minhash rows
    (doc_id, band, band_hash[, text]) exploded for the LSH groupby. With
    emit_text=True the text rides into the bucket shuffle so Jaccard
    verification can run inside the bucket groups (no driver gather)."""

    def __init__(self, num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id",
                 emit_text: bool = False):
        assert num_perm % bands == 0
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.text_col, self.id_col = text_col, id_col
        self.emit_text = emit_text
        _minhash_params(num_perm)  # compile once per actor

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        ids = t[self.id_col].to_numpy()
        sig = minhash_signatures_batch(texts, self.num_perm, self.k)
        bh = _band_hashes(sig, self.bands)  # (n_docs, bands)
        n = ids.size
        cols = {
            self.id_col: pa.array(np.repeat(ids, self.bands), pa.int64()),
            "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
            "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
        }
        if self.emit_text:
            cols[self.text_col] = pa.array(
                np.repeat(np.asarray(texts, dtype=object), self.bands))
        return pa.table(cols)


def minhash_lsh_pairs(ds, *, num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                      text_col: str = "text", id_col: str = "doc_id",
                      concurrency=2) -> pd.DataFrame:
    """Candidate near-dup pairs via banded MinHash LSH: docs sharing any
    (band, band_hash) bucket. Returns a frame (doc_a, doc_b) with doc_a <
    doc_b, deduplicated across bands."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(g[id_col].unique())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []})
        a, b = zip(*[(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]])
        return pd.DataFrame({"doc_a": a, "doc_b": b})

    sig = ds.map_batches(
        MinHashStage,
        max_restarts=0,
        fn_constructor_kwargs=dict(num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    def _shard(t: pa.Table) -> pa.Table:
        bh = t["band_hash"].to_numpy()
        bd = t["band"].to_numpy().astype(np.int64)
        sh = np.abs((bh * np.int64(0x9E3779B1) + bd) % 64)
        return t.append_column("lshard", pa.array(sh.astype(np.int64)))

    def pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        outs = [pairs(sub) for _, sub in
                g.groupby(["band", "band_hash"], sort=False)]
        outs = [o for o in outs if len(o)]
        return (pd.concat(outs, ignore_index=True) if outs
                else pd.DataFrame({"doc_a": [], "doc_b": []}))

    # bucket-sharded pair emission (bucket count ~ row count otherwise;
    # functions/exchange.py / SCALE.md Round-4)
    cand = (sig.map_batches(_shard, batch_format="pyarrow")
            .groupby("lshard").map_groups(pairs_shard,
                                          batch_format="pandas"))
    df = cand.to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64)})
    return (
        df.drop_duplicates().astype({"doc_a": np.int64, "doc_b": np.int64})
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """n-gram Jaccard verification kernel."""
    a, b = _shingles(text_a, k), _shingles(text_b, k)
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def minhash_verified_pairs_ds(ds, *, threshold: float = 0.8,
                              num_perm: int = 128, bands: int = 16,
                              shingle_k: int = 5, text_col: str = "text",
                              id_col: str = "doc_id", concurrency=2,
                              new_ids_pred=None, new_ids_min=None,
                              emit_jaccard: bool = False):
    """Two-pass candidate->fetch MinHash near-dedup (SCALE.md's web-scale
    prescription, default since round 4):

      pass 1  int-only banded LSH rows (doc_id, band, band_hash) — texts
              NEVER ride the bands x corpus exchange;
      pass 2a buckets co-locate by a shard key = hash(band, band_hash)
              and each shard emits its candidate pairs VECTORIZED (run-
              length bucket detection + triu pair indices; Python touches
              only the >=2-member buckets);
      pass 2b pairs distinct dataset-side (a pair surfaces once per
              shared bucket — dedup BEFORE fetching text, so each
              candidate text ships once per pair, not once per bucket);
      pass 3  two hash joins fetch text_a / text_b per distinct pair and
              a flat map_batches computes exact n-gram Jaccard (per-batch
              shingle cache — no per-bucket UDF, no groupby over texts).

    Returns a DATASET of distinct verified (doc_a, doc_b) pairs — nothing
    touches the driver; feed it to graph.connected_components. Exchange
    volume: ints x bands for signatures + candidate texts x2 — the text
    bytes are bounded by the LSH candidate rate, not the band count.
    Skew note: a bucket of s identical docs emits s^2/2 candidate pairs
    (inherent to pairwise LSH verification); exact-dup pre-pass or a
    bucket cap is the standard mitigation for adversarial corpora."""

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "band_hash", id_col], kind="stable")
        ids = g[id_col].to_numpy()
        bnd = g["band"].to_numpy()
        bh = g["band_hash"].to_numpy()
        brk = np.flatnonzero(
            np.r_[True, (bnd[1:] != bnd[:-1]) | (bh[1:] != bh[:-1])])
        ends = np.r_[brk[1:], ids.size]
        hot = np.flatnonzero(ends - brk >= 2)
        out_a, out_b = [], []
        for h in hot:
            sub = np.unique(ids[brk[h]:ends[h]])
            if sub.size < 2:
                continue
            if new_ids_pred is not None or new_ids_min is not None:
                # incremental mode: only NEW x EXISTING pairs are formed
                # (streaming-append dedup — new/existing derives from the
                # id, so no flag column rides the shuffle)
                if new_ids_min is not None:
                    # append-only watermark: ids >= watermark are new
                    isnew = sub >= new_ids_min
                else:
                    try:
                        isnew = new_ids_pred(sub)
                    except (TypeError, ValueError):
                        # a scalar predicate on an array: `x in set` is
                        # unhashable, `a and b` has no truth value
                        isnew = None
                    if not (isinstance(isnew, np.ndarray)
                            and isnew.shape == sub.shape):
                        # predicate isn't numpy-vectorizable; scalar path
                        isnew = np.array(
                            [bool(new_ids_pred(int(x))) for x in sub])
                    else:
                        isnew = isnew.astype(bool)
                if isnew.any() and not isnew.all():
                    nw, ex = sub[isnew], sub[~isnew]
                    out_a.append(np.repeat(nw, ex.size))
                    out_b.append(np.tile(ex, nw.size))
            else:
                iu = np.triu_indices(sub.size, 1)
                out_a.append(sub[iu[0]])
                out_b.append(sub[iu[1]])
        if not out_a:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64())})
        out = pd.DataFrame({"doc_a": np.concatenate(out_a),
                            "doc_b": np.concatenate(out_b)})
        # intra-shard dedup shrinks the pair shuffle before the global
        # one; emit clean Arrow (no pandas schema metadata — it breaks
        # the hash-join aggregator's schema dedup downstream)
        out = out.drop_duplicates()
        return pa.table({"doc_a": pa.array(out["doc_a"].to_numpy(), pa.int64()),
                         "doc_b": pa.array(out["doc_b"].to_numpy(), pa.int64())})

    def verify_batch(t: pa.Table) -> pa.Table:
        a_ids = t["doc_a"].to_numpy()
        b_ids = t["doc_b"].to_numpy()
        a_txt = t["_text_a"].to_pylist()
        b_txt = t["_text_b"].to_pylist()
        cache: dict[int, np.ndarray] = {}

        def sh(did: int, txt: str) -> np.ndarray:
            s = cache.get(did)
            if s is None:
                s = cache[did] = _shingles(txt, shingle_k)
            return s

        jac = np.empty(a_ids.size, np.float64)
        for i in range(a_ids.size):
            sa, sb = sh(int(a_ids[i]), a_txt[i]), sh(int(b_ids[i]), b_txt[i])
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            jac[i] = inter / union if union else 1.0
        keep = jac >= threshold
        cols = {"doc_a": pa.array(a_ids[keep], pa.int64()),
                "doc_b": pa.array(b_ids[keep], pa.int64())}
        if emit_jaccard:
            cols["jaccard"] = pa.array(jac[keep], pa.float64())
        return pa.table(cols)

    # Pass 1 — banded LSH rows WITHOUT text. batch_size bounds the
    # signature kernel's working set. Plain TASK map (not an actor pool):
    # the only per-worker state is the 128-int permutation table, cached
    # module-level per worker process, so tasks parallelize elastically
    # with no pool-startup latency. The int-only rows materialize ONCE
    # (sized for the shard count below, and consumed by one exchange).
    # Size: docs x bands x ~20 B — object-store resident and spillable.
    _stage = MinHashStage(num_perm=num_perm, bands=bands,
                          shingle_k=shingle_k, text_col=text_col,
                          id_col=id_col, emit_text=False)
    banded = ds.map_batches(
        lambda t, _s=_stage: _s(t),
        batch_format="pyarrow",
        batch_size=512,
    ).materialize()

    # Pass 2a — shard key co-locates complete buckets; ~200k rows per
    # shard keeps each map_groups call large enough to amortize overhead
    # (the old per-bucket map_groups paid ~0.5 ms x n_buckets of pandas
    # group plumbing) while bounding shard memory at corpus scale.
    nshards = max(4 * max(int(concurrency), 1),
                  banded.count() // 200_000 + 1)

    def _shard(t: pa.Table) -> pa.Table:
        bh = t["band_hash"].to_numpy()
        bd = t["band"].to_numpy().astype(np.int64)
        s = ((bh * np.int64(0x9E3779B1) + bd) % nshards).astype(np.int64)
        return t.append_column("shard", pa.array(np.abs(s)))

    pairs = (banded.map_batches(_shard, batch_format="pyarrow")
             .groupby("shard")
             .map_groups(emit_pairs, batch_format="pandas")).materialize()
    if pairs.count() == 0:
        cols = {"doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64())}
        if emit_jaccard:
            cols["jaccard"] = pa.array([], pa.float64())
        import ray.data as _rd

        return _rd.from_arrow(pa.table(cols))

    # Pass 3 — fetch each side's text with the repo's bucketed-exchange
    # join (union + groupby(bucket) + vectorized in-bucket lookup — the
    # same idiom graph.py uses, deliberately NOT Dataset.join: the hash
    # join's per-call aggregator-actor startup dominates at this size and
    # its empty-partition finalize is fragile). The intra-shard dedup
    # already removed ~all pair recurrences (a pair recurs only via
    # buckets in DIFFERENT shards), so verifying pre-distinct costs
    # ~nothing and the expensive global distinct runs on the small
    # VERIFIED set. Exchange volume per side: every text once + the
    # candidate pair rows — identical to a hash join's shuffle.
    B = 64

    def _fetch_side(pair_ds, key: str, out_col: str, carry: tuple = ()):
        # carry = columns already on pair_ds (beyond the two keys) that
        # must ride this exchange too — declared statically so the lazy
        # pair_ds never needs a schema() call (which would execute it)
        other = "doc_b" if key == "doc_a" else "doc_a"

        def tag_text(t: pa.Table, _i=id_col, _t=text_col) -> pa.Table:
            ids = t[_i].cast(pa.int64()).to_numpy()
            n = ids.size
            cols = {"tbkt": pa.array(ids % B), key: pa.array(ids),
                    other: pa.array(np.full(n, -1, np.int64)),
                    "_role": pa.array(np.zeros(n, np.int8)),
                    out_col: t[_t].cast(pa.string())}
            for c in carry:
                cols[c] = pa.nulls(n, pa.string())
            return pa.table(cols)

        def tag_pair(t: pa.Table) -> pa.Table:
            k = t[key].to_numpy()
            cols = {"tbkt": pa.array(k % B), key: t[key], other: t[other],
                    "_role": pa.array(np.ones(k.size, np.int8)),
                    out_col: pa.nulls(k.size, pa.string())}
            for c in carry:
                cols[c] = t[c]
            return pa.table(cols)

        def merge(g: pa.Table) -> pa.Table:
            role = g["_role"].to_numpy()
            is_text = role == 0
            tv = g[key].to_numpy()[is_text]
            order = np.argsort(tv, kind="stable")
            tv = tv[order]
            tx = g[out_col].filter(pa.array(is_text)).take(
                pa.array(order, pa.int64()))
            p = g.filter(pa.array(~is_text))
            idx = np.searchsorted(tv, p[key].to_numpy())
            out = {c: p[c] for c in p.column_names
                   if c not in ("tbkt", "_role", out_col)}
            out[out_col] = tx.take(pa.array(idx, pa.int64()))
            return pa.table(out)

        tagged_t = ds.map_batches(tag_text, batch_format="pyarrow")
        tagged_p = pair_ds.map_batches(tag_pair, batch_format="pyarrow")
        return tagged_p.union(tagged_t).groupby("tbkt").map_groups(
            merge, batch_format="pyarrow")

    withtext = _fetch_side(_fetch_side(pairs, "doc_a", "_text_a"),
                           "doc_b", "_text_b", carry=("_text_a",))
    verified = withtext.map_batches(verify_batch, batch_format="pyarrow")

    # Distinct on the verified set — bucketed exchange, NOT a direct
    # groupby(doc_a, doc_b): Ray's sort-based groupby pays per-GROUP
    # overhead (measured 8-30 s at ~250k distinct keys), while 64 hash
    # buckets + a vectorized in-bucket drop_duplicates is O(fixed).
    def _pbucket(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy()
        b = t["doc_b"].to_numpy()
        s = np.abs((a * np.int64(0x9E3779B1) + b) % 64)
        return t.append_column("pbucket", pa.array(s.astype(np.int64)))

    def _dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop_duplicates(subset=["doc_a", "doc_b"])
                .drop(columns=["pbucket"]))

    # coalesce: the bucketed map_groups leaves ~64 tiny blocks, and a
    # downstream iterative consumer (connected_components) pays per-block
    # task fan-out in EVERY round's groupby (measured 170 s vs 3 s on
    # identical 256-row edge sets) — repartition to a handful of blocks
    distinct = (verified.map_batches(_pbucket, batch_format="pyarrow")
                .groupby("pbucket")
                .map_groups(_dedup_bucket, batch_format="pandas"))
    return distinct.repartition(max(4, int(concurrency)))


def minhash_verified_pairs(ds, *, threshold: float = 0.8, num_perm: int = 128,
                           bands: int = 16, shingle_k: int = 5,
                           text_col: str = "text", id_col: str = "doc_id",
                           concurrency=2) -> pd.DataFrame:
    """Driver-side frame of `minhash_verified_pairs_ds` (pairs are bounded
    by the true duplicate count, so collecting them is safe; the texts and
    candidates never leave the cluster)."""
    df = minhash_verified_pairs_ds(
        ds, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, text_col=text_col, id_col=id_col,
        concurrency=concurrency).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64)})
    return (df.astype({"doc_a": np.int64, "doc_b": np.int64})
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


def minhash_dedup(ds, *, threshold: float = 0.8, num_perm: int = 128, bands: int = 16,
                  shingle_k: int = 5, text_col: str = "text", id_col: str = "doc_id",
                  concurrency=2, exact_prepass: bool = False) -> pd.DataFrame:
    """Full near-dedup: in-bucket-verified pairs -> keep-min-id per connected
    component, clustered by the distributed min-label/pointer-jumping pass
    (functions/graph.py) — pairs, labels and texts all stay dataset-side;
    only the final (doc_id, kept) frame (bounded by the true duplicate
    count) reaches the driver. Returns a row for every doc in a duplicate
    group.

    `exact_prepass=True` is the high-dup-rate scale path (SCALE.md
    Round-4 probes): exact duplicates collapse to one min-id
    representative per content hash BEFORE LSH, so a verbatim clique of
    size s costs O(s) mapping rows instead of O(s^2) verified pairs; the
    near-dedup then runs over representatives only and clusters expand
    back through the (doc -> representative) mapping. Output-identical
    to the direct path (identical texts have identical Jaccard to every
    other doc, so representative pairs decide exactly the same merges)."""
    from .graph import connected_components

    if exact_prepass:
        return _minhash_dedup_prepass(
            ds, threshold=threshold, num_perm=num_perm, bands=bands,
            shingle_k=shingle_k, text_col=text_col, id_col=id_col,
            concurrency=concurrency)
    pairs = minhash_verified_pairs_ds(
        ds, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, text_col=text_col, id_col=id_col,
        concurrency=concurrency).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "kept": pd.Series([], dtype=np.int64)})
    # This API returns a driver frame, and verified pairs are bounded by
    # the true duplicate count — the same magnitude as that output. So
    # below a size gate the edges come to the driver and cluster by
    # union-find (saves the label-propagation rounds' fixed exchange
    # cost); above it the distributed pointer-jumping pass runs and only
    # the final frame is collected. Dataset-consuming callers use
    # graph.connected_components directly and always stay distributed.
    if n_pairs <= 200_000:
        df = pairs.to_pandas()
        a = df["doc_a"].to_numpy(np.int64)
        b = df["doc_b"].to_numpy(np.int64)
        out = _unionfind_frame(a, b)
    else:
        comps = connected_components(pairs, a_col="doc_a", b_col="doc_b")
        out = comps.to_pandas().astype({"doc_id": np.int64,
                                        "component": np.int64})
        out = out.rename(columns={"component": "kept"})
    return out.sort_values("doc_id").reset_index(drop=True)


def _unionfind_frame(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """(doc_id, kept=min id of component) over edge arrays — path-halving
    union-by-min on the driver (edge count already dup-bounded)."""
    ids = np.unique(np.concatenate([a, b]))
    idx = {int(v): i for i, v in enumerate(ids)}
    parent = np.arange(ids.size)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(idx[int(x)]), find(idx[int(y)])
        if rx != ry:
            # union by min label so the root IS the min id's slot
            if ids[rx] < ids[ry]:
                parent[ry] = rx
            else:
                parent[rx] = ry
    kept = np.array([ids[find(i)] for i in range(ids.size)], np.int64)
    return pd.DataFrame({"doc_id": ids.astype(np.int64), "kept": kept})


def _minhash_dedup_prepass(ds, *, threshold, num_perm, bands, shingle_k,
                           text_col, id_col, concurrency) -> pd.DataFrame:
    """Exact-collapse + representative near-dedup (see minhash_dedup)."""
    import zlib

    from .graph import connected_components

    B = 64

    def hash_bucket(t: pa.Table) -> pa.Table:
        h = [hashlib.md5(s.encode()).hexdigest()
             for s in t[text_col].to_pylist()]
        hb = [zlib.crc32(x.encode()) % B for x in h]
        return pa.table({id_col: t[id_col].cast(pa.int64()),
                         text_col: t[text_col],
                         "content_hash": pa.array(h, pa.string()),
                         "hbucket": pa.array(hb, pa.int64())})

    def collapse(g: pd.DataFrame) -> pd.DataFrame:
        # per exact group: rep = min id; every member maps to it and
        # only the rep row keeps its text (the LSH input)
        g = g.sort_values(["content_hash", id_col], kind="stable")
        rep = g.groupby("content_hash")[id_col].transform("min")
        size = g.groupby("content_hash")[id_col].transform("size")
        out = pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "rep": rep.to_numpy(),
            "gsize": size.to_numpy(np.int64),
            text_col: np.where(g[id_col].to_numpy() == rep.to_numpy(),
                               g[text_col].to_numpy(), None),
        })
        return out

    mapping = (ds.map_batches(hash_bucket, batch_format="pyarrow")
               .groupby("hbucket")
               .map_groups(collapse, batch_format="pandas")
               .materialize())
    reps = mapping.filter(lambda r: r[text_col] is not None).map_batches(
        lambda t: pa.table({id_col: t["rep"].cast(pa.int64()),
                            text_col: t[text_col].cast(pa.string())}),
        batch_format="pyarrow")
    pairs = minhash_verified_pairs_ds(
        reps, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, text_col=text_col, id_col=id_col,
        concurrency=concurrency).materialize()
    comp_map: dict[int, int] = {}
    if pairs.count():
        comps = connected_components(pairs, a_col="doc_a", b_col="doc_b")
        cdf = comps.to_pandas()
        # dup-bounded by construction — safe to broadcast
        comp_map = dict(zip(cdf["doc_id"].astype(np.int64),
                            cdf["component"].astype(np.int64)))
    import ray

    cm_ref = ray.put(comp_map)

    def expand(t: pa.Table) -> pa.Table:
        cm = ray.get(cm_ref)
        rep = t["rep"].to_numpy()
        ids = t[id_col].to_numpy()
        gsize = t["gsize"].to_numpy()
        kept = np.array([cm.get(int(r), int(r)) for r in rep], np.int64)
        keep = (gsize > 1) | np.array([int(r) in cm for r in rep])
        return pa.table({id_col: pa.array(ids[keep], pa.int64()),
                         "kept": pa.array(kept[keep], pa.int64())})

    out = (mapping.map_batches(expand, batch_format="pyarrow")
           .to_pandas())
    if out.empty:
        return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                             "kept": pd.Series([], dtype=np.int64)})
    out[id_col] = out[id_col].astype(np.int64)
    out["kept"] = out["kept"].astype(np.int64)
    return out.sort_values(id_col).reset_index(drop=True)


# ---------------- exact n-gram Jaccard (prefix-filtered all-pairs) --------


class NgramPrefixStage:
    """actor-pool map_batches stage: text -> exploded PREFIX gram rows
    (gram, doc_id). Prefix-filtering lemma (Chaudhuri et al. SSJoin 2006,
    Bayardo et al. AllPairs WWW 2007 — both public): fix any global total
    order on grams (ascending 64-bit gram hash here; ascending global
    frequency is the standard production refinement, one extra distributed
    count pass) and keep each doc's first |A| - ceil(t*|A|) + 1 distinct
    grams. Any pair with J >= t has overlap >= ceil(t*max(|A|,|B|)), so the
    kept prefixes must intersect — grouping by kept grams is an EXACT
    candidate generator, no false negatives."""

    def __init__(self, threshold: float, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id",
                 hot_grams: np.ndarray | None = None):
        self.t, self.k = threshold, shingle_k
        self.text_col, self.id_col = text_col, id_col
        # global order = (gram in hot set, gram hash): frequent grams sort
        # LAST so prefixes are built from rare grams — the AllPairs
        # frequency-order refinement. ANY broadcast hot set yields a valid
        # total order (correctness is order-independent); a sampled top-M
        # estimate is enough because the order only shapes group sizes.
        self.hot = np.sort(hot_grams.astype(np.uint64)) if hot_grams is not None \
            else np.empty(0, np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].to_numpy()
        grams, out_ids = [], []
        for i, txt in enumerate(t[self.text_col].to_pylist()):
            sh = _shingles(txt, self.k)  # sorted unique uint64
            if self.hot.size:
                is_hot = np.isin(sh, self.hot, assume_unique=True)
                sh = np.concatenate([sh[~is_hot], sh[is_hot]])
            plen = sh.size - int(np.ceil(self.t * sh.size)) + 1
            grams.append(sh[:plen])
            out_ids.append(np.full(plen, ids[i], np.int64))
        if not grams:
            return pa.table({"gram": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64())})
        return pa.table({
            "gram": pa.array(np.concatenate(grams).astype(np.int64)),
            self.id_col: pa.array(np.concatenate(out_ids)),
        })


def ngram_jaccard_pairs(ds, *, threshold: float = 0.5, shingle_k: int = 5,
                        text_col: str = "text", id_col: str = "doc_id",
                        concurrency=2) -> pd.DataFrame:
    """EXACT n-gram Jaccard all-pairs self-join: every pair with
    J(k-gram sets) >= threshold, with the similarity value. A lossless
    candidate generator (prefix filtering) instead of MinHash's
    probabilistic banding, with both gram-cardinality exchanges bounded:

      prefix rows (int-only, materialized once — the DAG-diamond rule)
        -> 64-bucket exchange detects hot grams (>= 2 docs) vectorized
        -> hash semi-join keeps hot prefix rows
        -> hash join ships each text once per HOT gram membership
        -> verify SHARDED by hash(gram) (complete groups per shard, the
           group-matmul looped inside one worker call — Ray's per-group
           plumbing never scales with hot-gram count)

    The driver sees verified pairs only. The gram order is
    frequency-refined: a bounded driver-side sample (same pattern as IVF
    training) estimates the top-M most frequent grams, which sort to the
    BACK of every doc's gram order so prefixes prefer rare grams. On
    Zipfian web-corpus gram frequencies this collapses hot verify groups;
    on the synthetic test corpus (small shared vocabulary, background
    J ~ 0.25 between ALL pairs) groups stay large, so the in-group verify
    is vectorized as one indicator-matrix matmul per group rather than a
    per-pair loop. Exactness does not depend on the sample: any shared
    total order satisfies the prefix lemma."""
    _empty = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                           "doc_b": pd.Series([], dtype=np.int64),
                           "jaccard": pd.Series([], dtype=np.float64)})

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        sub = g.drop_duplicates(subset=id_col).sort_values(id_col)
        if len(sub) < 2:
            return _empty
        ids = sub[id_col].to_numpy()
        sets = [_shingles(t, shingle_k) for t in sub[text_col]]
        # one group-local vocabulary + indicator matmul gives ALL pairwise
        # intersection sizes at once (n x v @ v x n), row-tiled so the
        # float32 product never exceeds ~256 MB; above a 1 GB indicator
        # (pathological hot-gram group) fall back to a merge-count whose
        # memory tracks actual co-occurrences, not n x v.
        flat = np.concatenate(sets)
        vocab, inv = np.unique(flat, return_inverse=True)
        n = len(ids)
        row = np.repeat(np.arange(n), [s.size for s in sets])
        if n * vocab.size * 4 <= (1 << 30):
            ind = np.zeros((n, vocab.size), np.float32)
            ind[row, inv] = 1.0
            inter = np.empty((n, n), np.float32)
            tile = max(1, (256 << 20) // max(1, vocab.size * 4))
            for r0 in range(0, n, tile):
                inter[r0:r0 + tile] = ind[r0:r0 + tile] @ ind.T
        else:
            co = (pd.DataFrame({"g": inv, "i": row})
                  .merge(pd.DataFrame({"g": inv, "j": row}), on="g")
                  .groupby(["i", "j"]).size())
            inter = np.zeros((n, n), np.float32)
            idx = np.array(co.index.to_list(), np.int64).reshape(-1, 2)
            inter[idx[:, 0], idx[:, 1]] = co.to_numpy()
        sizes = np.asarray([s.size for s in sets], np.float64)
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(invalid="ignore"):
            jac = np.where(union > 0, inter / union, 1.0)
        ai, bj = np.triu_indices(n, k=1)
        keep = jac[ai, bj] >= threshold
        ai, bj = ai[keep], bj[keep]
        return pd.DataFrame({
            "doc_a": ids[ai].astype(np.int64),
            "doc_b": ids[bj].astype(np.int64),
            "jaccard": round_half_away(jac[ai, bj], 6).astype(np.float64),
        })

    # bounded-sample top-M frequent grams, estimated on the driver from a
    # FIXED-size doc sample (same bounded-training pattern as IVF): ~32 KB
    # shipped to each prefix actor, independent of corpus size
    sample_texts = [r[text_col] for r in ds.limit(2000).take(2000)]
    flat = (np.concatenate([_shingles(x, shingle_k) for x in sample_texts])
            if sample_texts else np.empty(0, np.uint64))
    uniq, cnt = np.unique(flat, return_counts=True)
    hot_grams = uniq[np.argsort(-cnt, kind="stable")[:4096]]

    prefix = ds.map_batches(
        NgramPrefixStage,
        max_restarts=0,
        fn_constructor_kwargs=dict(threshold=threshold, shingle_k=shingle_k,
                                   text_col=text_col, id_col=id_col,
                                   hot_grams=hot_grams),
        batch_format="pyarrow",
        batch_size=512,
        concurrency=concurrency,
    ).materialize()
    # hot-gram detection through the 64-bucket exchange, NOT
    # groupby(gram).count(): gram cardinality ~ corpus grams, and Ray's
    # sort-based groupby pays per-GROUP cost there (functions/exchange.py)
    def _gbucket(t: pa.Table) -> pa.Table:
        g = t["gram"].to_numpy()
        return t.append_column(
            "gbkt", pa.array((g.astype(np.uint64) % 64).astype(np.int64)))

    def _hot_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["gram"].value_counts()
        return pd.DataFrame({"gram": vc[vc >= 2].index.to_numpy(np.int64)})

    hot = (prefix.map_batches(_gbucket, batch_format="pyarrow")
           .groupby("gbkt").map_groups(_hot_in_bucket,
                                       batch_format="pandas")
           .map_batches(lambda t: pa.table(
               {"gram": t["gram"].cast(pa.int64())}),
               batch_format="pyarrow"))
    nparts = max(4, int(concurrency) * 2)
    agg_args = {"num_cpus": 0.25}
    hot_rows = prefix.join(hot, "inner", num_partitions=nparts,
                           on=("gram",), aggregator_ray_remote_args=agg_args)
    texts = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow")
    joined = hot_rows.join(texts, "inner", num_partitions=nparts,
                           on=(id_col,), aggregator_ray_remote_args=agg_args)

    # verify SHARDED by hash(gram): each shard holds complete gram groups
    # and loops them inside ONE worker call (group-matmul per gram) —
    # Ray's per-group map_groups plumbing never scales with hot-gram
    # count (the minhash emit_pairs pattern)
    def _vshard(t: pa.Table) -> pa.Table:
        g = t["gram"].to_numpy()
        s = ((g.astype(np.uint64) * np.uint64(0x9E3779B1)) % 32)
        return t.append_column("vshard", pa.array(s.astype(np.int64)))

    def verify_shard(g: pd.DataFrame) -> pd.DataFrame:
        outs = [verify(sub) for _, sub in g.groupby("gram", sort=False)]
        outs = [o for o in outs if len(o)]
        return pd.concat(outs, ignore_index=True) if outs else _empty

    verified = (joined.map_batches(_vshard, batch_format="pyarrow")
                .groupby("vshard")
                .map_groups(verify_shard, batch_format="pandas"))
    df = verified.to_pandas()
    if df.empty:
        return _empty
    return (
        df.drop_duplicates()  # a pair verifies in every shared hot prefix gram
        .astype({"doc_a": np.int64, "doc_b": np.int64})
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


# ---------------- SimHash ----------------


def simhash64(text: str, k: int = 5) -> int:
    """64-bit SimHash over character shingles (Charikar, public)."""
    sh = _shingles(text, k)
    if sh.size == 0:
        return 0
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    h = np.array([simhash64(s) for s in t[text_col].to_pylist()], dtype=np.uint64)
    return t.append_column("simhash", pa.array(h, pa.uint64()))


# byte -> set-bit-count lookup table for vectorized hamming distance
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _hamming_matrix(h: np.ndarray) -> np.ndarray:
    """Pairwise hamming distances of a uint64 vector, fully vectorized:
    XOR outer product -> uint8 view -> byte popcount LUT -> sum."""
    x = h[:, None] ^ h[None, :]
    return _POPCOUNT8[x.view(np.uint8).reshape(h.size, h.size, 8)].sum(
        axis=2, dtype=np.int64)


def simhash_pairs(ds, *, max_hamming: int = 3, text_col: str = "text",
                  id_col: str = "doc_id") -> pd.DataFrame:
    """Near-dup candidates: docs whose simhashes differ in <= max_hamming bits.

    Distributed end-to-end: the quarter explosion (pigeonhole — <=3 differing
    bits leave at least one of 4 16-bit quarters identical) runs inside
    map_batches, bucketing is a Ray groupby on (quarter, quarter_key), and the
    in-bucket hamming verification is an XOR + byte-popcount-LUT matrix (no
    per-pair Python). The driver only sees the emitted pairs (bounded by the
    duplicate count), deduplicated across quarters at the end."""
    if max_hamming > 3:
        raise ValueError(
            "simhash_pairs guarantees completeness only for max_hamming <= 3 "
            "(4-quarter pigeonhole: any <=3-bit difference leaves one "
            "quarter identical); use minhash for looser thresholds")

    def explode(t: pa.Table) -> pa.Table:
        hs = np.array([simhash64(s) for s in t[text_col].to_pylist()], dtype=np.uint64)
        ids = t[id_col].to_numpy()
        n = ids.size
        q = np.repeat(np.arange(4, dtype=np.int32), n)
        qkey = np.concatenate([
            ((hs >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.int64)
            for i in range(4)
        ])
        return pa.table({
            "q": pa.array(q), "qkey": pa.array(qkey),
            id_col: pa.array(np.tile(ids, 4)),
            "h": pa.array(np.tile(hs, 4).astype(np.int64)),  # uint64 bits as int64
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64)})
        gid = g[id_col].to_numpy()
        gh = g["h"].to_numpy().astype(np.uint64)
        ham = _hamming_matrix(gh)
        ii, jj = np.nonzero(np.triu(ham <= max_hamming, k=1))
        a = np.minimum(gid[ii], gid[jj])
        b = np.maximum(gid[ii], gid[jj])
        return pd.DataFrame({"doc_a": a.astype(np.int64), "doc_b": b.astype(np.int64)})

    pairs = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["q", "qkey"])
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    df = pairs.to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64)})
    return (
        df.drop_duplicates()  # a pair may collide in several quarters
        .astype({"doc_a": np.int64, "doc_b": np.int64})
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


# ---------------- embedding near-dup ----------------


def _norm_block(t: pa.Table, id_col: str, vec_col: str, dtype) -> pa.Table:
    """(id, unit-normalized vector matrix) block for the pairwise join."""
    ids = t[id_col].to_numpy()
    V = np.stack([np.asarray(v, dtype=dtype) for v in t[vec_col].to_pylist()])
    V = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
    return pa.table({
        id_col: pa.array(ids),
        vec_col: pa.array(list(V), pa.list_(pa.float64())),
    })


def _block_pairs(ta: pa.Table, tb: pa.Table | None, threshold: float,
                 id_col: str, vec_col: str) -> pa.Table:
    """Ray task body: exact cosine pairs between two normalized blocks
    (tb None == self-join of ta). Emits only pairs over threshold."""
    ids_a = ta[id_col].to_numpy()
    A = np.stack([np.asarray(v) for v in ta[vec_col].to_pylist()])
    if tb is None:
        S = A @ A.T
        ii, jj = np.nonzero(np.triu(S >= threshold, k=1))
        a_ids, b_ids, sims = ids_a[ii], ids_a[jj], S[ii, jj]
    else:
        ids_b = tb[id_col].to_numpy()
        B = np.stack([np.asarray(v) for v in tb[vec_col].to_pylist()])
        S = A @ B.T
        ii, jj = np.nonzero(S >= threshold)
        a_ids, b_ids, sims = ids_a[ii], ids_b[jj], S[ii, jj]
    lo = np.minimum(a_ids, b_ids)
    hi = np.maximum(a_ids, b_ids)
    return pa.table({
        "doc_a": pa.array(lo.astype(np.int64)),
        "doc_b": pa.array(hi.astype(np.int64)),
        "cosine": pa.array(round_half_away(sims.astype(np.float64), 6)),
    })


def embedding_dedup_pairs(ds, *, threshold: float = 0.95, vec_col: str = "embedding",
                          id_col: str = "vec_id", block: int = 2048,
                          dtype=np.float64) -> pd.DataFrame:
    """EXACT cosine near-dup pairs over an embedding column, as a distributed
    blocked similarity self-join: normalize per block inside map_batches, then
    one Ray task per block pair computes its matmul tile against zero-copy
    object-store blocks. The driver never materializes the vectors — it holds
    block refs and collects only the emitted pairs (bounded by the duplicate
    count). O(n^2/block^2) tasks: this is the exact path; the approximate
    scale path is LSH/IVF bucketing (similarity.py) + this kernel per bucket."""
    import ray

    normed = ds.map_batches(
        lambda t: _norm_block(t, id_col, vec_col, dtype), batch_format="pyarrow",
    ).select_columns([id_col, vec_col]).materialize()  # blocks stay in the
    # object store; the driver only ever holds refs
    n = normed.count()
    num_blocks = max(1, -(-n // block))
    normed = normed.repartition(num_blocks)
    try:
        refs = [b for bundle in normed.iter_internal_ref_bundles()
                for b in bundle.block_refs]
    except AttributeError:  # older Ray Data surface
        refs = normed.get_internal_block_refs()

    @ray.remote(num_cpus=1)
    def tile(ta, tb, thr):
        if isinstance(ta, pa.RecordBatch):
            ta = pa.Table.from_batches([ta])
        if tb is not None and isinstance(tb, pa.RecordBatch):
            tb = pa.Table.from_batches([tb])
        return _block_pairs(ta, tb, thr, id_col, vec_col)

    tasks = []
    for i in range(len(refs)):
        tasks.append(tile.remote(refs[i], None, threshold))
        for j in range(i + 1, len(refs)):
            tasks.append(tile.remote(refs[i], refs[j], threshold))
    parts = [t.to_pandas() for t in ray.get(tasks) if t.num_rows]
    if not parts:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64),
                             "cosine": pd.Series([], dtype=np.float64)})
    return (
        pd.concat(parts, ignore_index=True)
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )


def embedding_dedup_lsh(ds, *, threshold: float = 0.95, n_planes: int = 8,
                        n_rounds: int = 4, seed: int = 99,
                        vec_col: str = "embedding", id_col: str = "vec_id",
                        dim: int | None = None,
                        bits_dtype=np.float32) -> pd.DataFrame:
    """Approximate embedding near-dup — the SCALE path beside the exact
    blocked self-join (embedding_dedup_pairs): random-hyperplane LSH buckets
    vectors (`n_rounds` independent plane sets so near-neighbors split by
    one cut still collide in another), one groupby per round co-locates each
    bucket, and the exact cosine kernel runs INSIDE map_groups. The driver
    sees only over-threshold pairs, deduplicated across rounds. Work is
    sum(bucket^2) instead of n^2 — bounded by bucket balance, not corpus
    size."""
    from .similarity import LshIndexStage

    _empty = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                           "doc_b": pd.Series([], dtype=np.int64),
                           "cosine": pd.Series([], dtype=np.float64)})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty
        sub = g.drop_duplicates(subset=id_col)
        ids = sub[id_col].to_numpy()
        V = np.stack([np.asarray(v, np.float64) for v in sub[vec_col]])
        V = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
        S = V @ V.T
        ii, jj = np.nonzero(np.triu(S >= threshold, k=1))
        if ii.size == 0:
            return _empty
        a = np.minimum(ids[ii], ids[jj])
        b = np.maximum(ids[ii], ids[jj])
        return pd.DataFrame({
            "doc_a": a.astype(np.int64), "doc_b": b.astype(np.int64),
            "cosine": round_half_away(S[ii, jj].astype(np.float64), 6),
        })

    parts = []
    if dim is None:
        first = ds.take(1)[0]
        dim = len(first[vec_col])
    for r in range(n_rounds):
        stage = LshIndexStage(dim, n_planes, seed + 1000 * r, vec_col,
                              dtype=bits_dtype)
        bucketed = ds.map_batches(stage, batch_format="pyarrow")
        pairs = (bucketed.groupby("bucket")
                 .map_groups(bucket_pairs, batch_format="pandas")
                 .to_pandas())
        if len(pairs):
            parts.append(pairs)
    if not parts:
        return _empty
    return (pd.concat(parts, ignore_index=True)
            .drop_duplicates(subset=["doc_a", "doc_b"])
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))


# -- benchmark decontamination -------------------------------------------------

_WORD_RE = None


def _word_ngrams(text: str, n: int) -> set[str]:
    global _WORD_RE
    if _WORD_RE is None:
        import re

        _WORD_RE = re.compile(r"[a-z0-9]+")
    toks = _WORD_RE.findall(text.lower())
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def decontaminate(ds, benchmark_texts: list[str], *, n: int = 13,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Training-set decontamination by word-n-gram overlap (the GPT-3 /
    Llama method: any document sharing an n-gram of ~13 tokens with an
    evaluation benchmark is flagged). The benchmark side is SMALL by
    construction, so its n-gram set is broadcast once via ray.put and every
    map_batches task reads the same object-store copy — no shuffle, one
    streaming pass over the corpus. Returns flagged docs with their
    distinct overlapping-gram counts."""
    import ray

    bench: set[str] = set()
    for t in benchmark_texts:
        bench |= _word_ngrams(t, n)
    bench_ref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        b = ray.get(bench_ref)
        ids, counts = [], []
        for did, text in zip(t[id_col].to_pylist(),
                             t[text_col].to_pylist()):
            k = len(_word_ngrams(text, n) & b)
            if k:
                ids.append(did)
                counts.append(k)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "overlap_grams": pa.array(counts, pa.int64())})

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


# ---------------- paragraph-level dedup (CCNet-style) ----------------


def paragraph_dedup(ds, *, chunk_words: int = 8, text_col: str = "text",
                    id_col: str = "doc_id"):
    """CCNet-style paragraph dedup: split every document into fixed-width
    word chunks ("paragraphs" of the newline-free synthetic corpus), drop
    every occurrence of a chunk except the globally first one (ordered by
    (doc_id, chunk_index)), and reassemble the surviving text per document.

    Shape at scale: explode (one map_batches pass, rows ~= corpus words /
    chunk_words) -> groupby(chunk) keep-first flag (ONE all-to-all on the
    chunk text, the same exchange CCNet's hash-sharded paragraph table does)
    -> groupby(doc) reassemble. The driver never sees the corpus; output is
    a Dataset of (doc_id, text_dedup, n_kept, n_total).

    CCNet reference: Wenzek et al. 2020 ("CCNet: Extracting High Quality
    Monolingual Datasets from Web Crawl Data") — paragraph-hash dedup. The
    split here mirrors the oracle exactly: `text.split(' ')` (single-space,
    no normalization), chunk i = words[i*cw:(i+1)*cw].

    Both shuffles are BUCKETED (the index build's exchange pattern): rows
    route by hash(chunk) % B — so each group handed to map_groups is a whole
    bucket, processed vectorized in pandas — never one Python call per chunk
    or per document. B bounds group count independent of corpus size.
    """
    import zlib

    num_buckets = 64

    def explode(t: pa.Table) -> pa.Table:
        ids, cis, chunks, cb = [], [], [], []
        for did, s in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            ws = (s or "").split(" ")
            n = (len(ws) + chunk_words - 1) // chunk_words
            for i in range(n):
                c = " ".join(ws[i * chunk_words:(i + 1) * chunk_words])
                ids.append(did)
                cis.append(i)
                chunks.append(c)
                cb.append(zlib.crc32(c.encode()) % num_buckets)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "ci": pa.array(cis, pa.int64()),
                         "chunk": pa.array(chunks, pa.string()),
                         "cbucket": pa.array(cb, pa.int64())})

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # whole hash bucket: all occurrences of each chunk are here
        g = g.sort_values(["chunk", id_col, "ci"], kind="stable")
        g["keep"] = ~g["chunk"].duplicated(keep="first")
        g["dbucket"] = g[id_col] % num_buckets
        return g

    def reassemble_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "ci"], kind="stable")
        kept = g[g["keep"]]
        n_total = g.groupby(id_col).size()
        agg = kept.groupby(id_col)["chunk"].agg(" ".join)
        n_kept = kept.groupby(id_col).size()
        return pd.DataFrame({
            id_col: n_total.index.to_numpy(),
            "text_dedup": agg.reindex(n_total.index, fill_value="").to_numpy(),
            "n_kept": n_kept.reindex(n_total.index, fill_value=0)
                            .to_numpy().astype("int64"),
            "n_total": n_total.to_numpy().astype("int64"),
        })

    return (ds.map_batches(explode, batch_format="pyarrow")
              .groupby("cbucket").map_groups(flag_bucket, batch_format="pandas")
              .groupby("dbucket").map_groups(reassemble_bucket,
                                             batch_format="pandas"))


# ---------------- substring-span dedup (Lee et al. 2022 style) ----------------


def substring_dedup(ds, *, gram_words: int = 8, text_col: str = "text",
                    id_col: str = "doc_id", hash_grams: bool = False):
    """Exact duplicated-substring removal at word granularity ("Deduplicating
    Training Data Makes Language Models Better", Lee et al. 2022 — the
    suffix-array ExactSubstr method, re-expressed as a distributed n-gram
    exchange): every word `gram_words`-gram that occurred earlier anywhere in
    the corpus (global order by (doc_id, start)) marks its span; per doc the
    union of duplicate spans is cut out and the surviving words re-joined.

    Shape: explode overlapping grams (one pass) -> groupby(crc32(gram) % 64)
    flags duplicates vectorized per bucket and emits ONLY (doc_id, start)
    rows (tiny at real dup rates) -> union with one row per doc carrying its
    text -> groupby(doc_id % 64) rebuilds per bucket. Text crosses the wire
    once; the gram exchange carries grams, not documents.

    `hash_grams=True` is the 100-TB path: the gram exchange ships a 64-bit
    murmur3 of each gram (8 bytes/row) instead of the gram text —
    gram_words× less exchange volume; collision probability ~n²/2^64
    (≈6×10^-4 even at 10^9 distinct grams), each collision at worst drops
    one n-gram span that wasn't a true duplicate. The exact-text mode is
    the oracle twin; both are parity-tested on the synthetic corpus.

    Returns Dataset of (doc_id, text_clean, n_removed, n_words)."""
    import zlib

    B = 64
    n = gram_words

    def explode(t: pa.Table) -> pa.Table:
        from .text import murmur3_x64_128

        ids, ss, grams, gb = [], [], [], []
        for did, s in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            ws = (s or "").split(" ")
            for i in range(len(ws) - n + 1):
                g = " ".join(ws[i:i + n])
                ids.append(did)
                ss.append(i)
                if hash_grams:
                    h = murmur3_x64_128(g.encode())[0]
                    grams.append(h - (1 << 64 if h >= 1 << 63 else 0))
                    gb.append(h % B)
                else:
                    grams.append(g)
                    gb.append(zlib.crc32(g.encode()) % B)
        gram_arr = (pa.array(grams, pa.int64()) if hash_grams
                    else pa.array(grams, pa.string()))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "s": pa.array(ss, pa.int64()),
                         "gram": gram_arr,
                         "gbucket": pa.array(gb, pa.int64())})

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["gram", id_col, "s"], kind="stable")
        dup = g["gram"].duplicated(keep="first")
        out = g.loc[dup, [id_col, "s"]].copy()
        out["dbucket"] = out[id_col] % B
        out["text"] = ""
        return out[[id_col, "dbucket", "s", "text"]]

    def docrows(t: pa.Table) -> pa.Table:
        did = t[id_col].to_numpy()
        return pa.table({id_col: pa.array(did, pa.int64()),
                         "dbucket": pa.array(did % B, pa.int64()),
                         "s": pa.array(np.full(len(did), -1), pa.int64()),
                         "text": t[text_col].cast(pa.string())})

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        rows = {id_col: [], "text_clean": [], "n_removed": [], "n_words": []}
        for did, grp in g.groupby(id_col, sort=True):
            base = grp.loc[grp["s"] < 0, "text"]
            text = base.iloc[0] if len(base) else ""
            ws = (text or "").split(" ")
            cov = np.zeros(len(ws), dtype=bool)
            for st in grp.loc[grp["s"] >= 0, "s"].to_numpy():
                cov[st:st + n] = True
            rows[id_col].append(did)
            rows["text_clean"].append(" ".join(np.array(ws, dtype=object)[~cov]))
            rows["n_removed"].append(int(cov.sum()))
            rows["n_words"].append(len(ws))
        return pd.DataFrame({
            id_col: pd.array(rows[id_col], dtype="int64"),
            "text_clean": rows["text_clean"],
            "n_removed": pd.array(rows["n_removed"], dtype="int64"),
            "n_words": pd.array(rows["n_words"], dtype="int64"),
        })

    dups = (ds.map_batches(explode, batch_format="pyarrow")
              .groupby("gbucket").map_groups(flag, batch_format="pandas")
              # normalize to Arrow blocks so union with `docs` type-matches
              # (and strip pandas-conversion schema metadata — it makes the
              # schema unhashable and triggers Ray's dedup warning)
              .map_batches(lambda t: t.replace_schema_metadata(None),
                           batch_format="pyarrow"))
    docs = ds.map_batches(docrows, batch_format="pyarrow")
    return (docs.union(dups)
                .groupby("dbucket").map_groups(rebuild, batch_format="pandas"))


class BloomFilter:
    """Fixed-size Bloom filter over strings with vectorized membership
    (pandas siphash + double hashing; Kirsch-Mitzenmacher, public). The
    broadcast artifact of the scale decontamination path: bits/8 bytes
    regardless of benchmark size."""

    def __init__(self, items, *, bits_pow: int = 22, k: int = 4):
        self.m = 1 << bits_pow
        self.k = k
        self.bits = np.zeros(self.m, dtype=bool)
        if len(items):
            arr = np.asarray(list(items), dtype=object)
            h1 = pd.util.hash_array(arr, categorize=False)
            h2 = pd.util.hash_array(arr, hash_key="fedcba9876543210",
                                    categorize=False) | 1
            for j in range(k):
                self.bits[(h1 + j * h2) % self.m] = True

    def contains(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized membership test (no false negatives)."""
        if arr.dtype != object:
            arr = arr.astype(object)
        if not len(arr):
            return np.zeros(0, dtype=bool)
        h1 = pd.util.hash_array(arr, categorize=False)
        h2 = pd.util.hash_array(arr, hash_key="fedcba9876543210",
                                categorize=False) | 1
        out = np.ones(len(arr), dtype=bool)
        for j in range(self.k):
            out &= self.bits[(h1 + j * h2) % self.m]
        return out


def decontaminate_bloom(ds, benchmark_texts: list[str], *, n: int = 13,
                        text_col: str = "text", id_col: str = "doc_id",
                        bits_pow: int = 22, k: int = 4):
    """Decontamination with a broadcast Bloom prefilter — the 100-TB shape:
    the benchmark n-gram set rides as a fixed-size bit array (2^bits_pow
    bits) read from the object store by every task; only grams that pass
    the filter are verified against the exact set, so the per-doc exact
    work is proportional to the (tiny) candidate rate, not the gram count.
    At even larger benchmark sizes the verify phase becomes a join of
    candidate grams against the partitioned benchmark gram table; the flag
    output here is IDENTICAL to `decontaminate` (false positives die in
    verify), so the same SQL oracle checks both."""
    import ray

    bench: set[str] = set()
    for t in benchmark_texts:
        bench |= _word_ngrams(t, n)
    bloom = BloomFilter(bench, bits_pow=bits_pow, k=k)
    bloom_ref = ray.put(bloom)
    bench_ref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        bl = ray.get(bloom_ref)
        exact = None
        ids, counts = [], []
        for did, text in zip(t[id_col].to_pylist(),
                             t[text_col].to_pylist()):
            grams = np.asarray(list(_word_ngrams(text, n)), dtype=object)
            cand = grams[bl.contains(grams)]
            if not len(cand):
                continue
            if exact is None:
                exact = ray.get(bench_ref)
            hits = sum(1 for g in cand if g in exact)
            if hits:
                ids.append(did)
                counts.append(hits)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "overlap_grams": pa.array(counts, pa.int64())})

    out = ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)

def _hash_champions(frag, text_col: str, id_col: str, columns, B: int):
    """Per-fragment: hash, in-fragment min-id combine, route to B buckets
    (num_returns exchange — one small champion table per bucket)."""
    import zlib

    from ..sources.reader import read_fragment

    t = read_fragment(frag, columns=columns)
    h = [hashlib.md5(s.encode()).hexdigest()
         for s in t[text_col].to_pylist()]
    t = t.append_column("content_hash", pa.array(h, pa.string()))
    idx = pa.compute.sort_indices(
        t, sort_keys=[("content_hash", "ascending"), (id_col, "ascending")])
    t = t.take(idx)
    hs = t["content_hash"].to_numpy(zero_copy_only=False)
    first = np.ones(len(hs), dtype=bool)
    first[1:] = hs[1:] != hs[:-1]
    t = t.filter(pa.array(first))
    hb = np.array([zlib.crc32(x.encode()) % B
                   for x in t["content_hash"].to_pylist()], dtype=np.int64)
    return tuple(t.filter(pa.array(hb == b)) for b in range(B))


def _keep_first_bucket(id_col: str, *tables):
    """One bucket: concat champion tables, keep the global min-id row
    per hash."""
    # num_returns=1 delivers the whole 1-tuple as the single object
    tables = [x for t in tables
              for x in (t if isinstance(t, tuple) else (t,))]
    t = pa.concat_tables([x for x in tables if x.num_rows], promote_options="default") \
        if any(x.num_rows for x in tables) else tables[0]
    idx = pa.compute.sort_indices(
        t, sort_keys=[("content_hash", "ascending"), (id_col, "ascending")])
    t = t.take(idx)
    hs = t["content_hash"].to_numpy(zero_copy_only=False)
    first = np.ones(len(hs), dtype=bool)
    if len(hs):
        first[1:] = hs[1:] != hs[:-1]
    return t.filter(pa.array(first)).drop_columns(["content_hash"])


def exact_dedup_tasks(path: str, text_col: str = "text",
                      id_col: str = "doc_id",
                      columns: list[str] | None = None,
                      num_buckets: int = 16):
    """Task-exchange twin of exact_dedup (same keep-min-id semantics,
    equivalence-tested): fragment-granular hash+combine tasks emit one
    champion table per hash bucket via num_returns — the same exchange
    idiom as index/build.py, avoiding the Dataset Sort operator's
    fixed all-to-all cost. Returns a ray.data.Dataset of the surviving
    rows. Scale shape: wire volume = per-fragment champions only; each
    bucket reduce is one task reading exactly its bucket's objects."""
    import ray
    import ray.data as rd

    from ..sources.reader import plan_fragments

    frags = plan_fragments(path)
    B = num_buckets
    hash_task = ray.remote(num_returns=B, num_cpus=1)(_hash_champions)
    reduce_task = ray.remote(num_cpus=1)(_keep_first_bucket)
    cols = columns if columns is None else list(dict.fromkeys(
        [c for c in columns if c != id_col]))
    per_frag = [hash_task.remote(f, text_col, id_col, cols, B)
                for f in frags]
    if B == 1:
        per_frag = [[r] for r in per_frag]
    buckets = [reduce_task.remote(id_col, *[row[b] for row in per_frag])
               for b in range(B)]
    return rd.from_arrow_refs(buckets)


def boilerplate_strip(ds, *, chunk_words: int = 3, min_df: int = 5,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Cross-document BOILERPLATE removal (the C4/CCNet curation step:
    navigation chrome / template lines recurring across many pages are
    stripped from every document — distinct from paragraph_dedup's
    keep-first semantics, which preserves one copy). A chunk whose
    DISTINCT-document frequency reaches `min_df` is boilerplate and is
    removed wherever it occurs.

    Scale shape: chunk explode (same split convention as
    paragraph_dedup) -> bucketed distinct-doc df count (hash(chunk) % B
    exchange, vectorized in-bucket) -> the hot-chunk set is small BY
    CONSTRUCTION (bounded by corpus_chunks / min_df) and broadcasts via
    ray.put -> one stateless map_batches strips + reassembles per doc.
    This is also the prescribed pre-pass for near-dedup on
    template-heavy corpora (SCALE.md round-4 anti-pattern note).
    Returns a Dataset of (doc_id, n_total, n_removed, text_clean)."""
    import zlib

    import ray

    num_buckets = 64

    def explode(t: pa.Table) -> pa.Table:
        ids, chunks, cb = [], [], []
        for did, s in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            ws = (s or "").split(" ")
            n = (len(ws) + chunk_words - 1) // chunk_words
            for i in range(n):
                c = " ".join(ws[i * chunk_words:(i + 1) * chunk_words])
                ids.append(did)
                chunks.append(c)
                cb.append(zlib.crc32(c.encode()) % num_buckets)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "chunk": pa.array(chunks, pa.string()),
                         "cbucket": pa.array(cb, pa.int64())})

    def hot_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["chunk", id_col])
        df_ = d.groupby("chunk", as_index=False).size()
        hot = df_[df_["size"] >= min_df][["chunk"]]
        return hot

    hot_pd = (ds.map_batches(explode, batch_format="pyarrow")
              .groupby("cbucket")
              .map_groups(hot_in_bucket, batch_format="pandas")
              .to_pandas())
    hot_set = frozenset(hot_pd["chunk"].tolist())
    hot_ref = ray.put(hot_set)

    def strip(t: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref)
        ids_out, tot, rem, clean = [], [], [], []
        for did, s in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            ws = (s or "").split(" ")
            n = (len(ws) + chunk_words - 1) // chunk_words
            kept = []
            removed = 0
            for i in range(n):
                c = " ".join(ws[i * chunk_words:(i + 1) * chunk_words])
                if c in hs:
                    removed += 1
                else:
                    kept.append(c)
            ids_out.append(did)
            tot.append(n)
            rem.append(removed)
            clean.append(" ".join(kept))
        return pa.table({id_col: pa.array(ids_out, pa.int64()),
                         "n_total": pa.array(tot, pa.int64()),
                         "n_removed": pa.array(rem, pa.int64()),
                         "text_clean": pa.array(clean, pa.string())})

    return ds.map_batches(strip, batch_format="pyarrow")
