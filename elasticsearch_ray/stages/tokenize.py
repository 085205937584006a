"""Tokenize/explode stage: corpus fragments -> (term, doc_id, tf, positions)
triples + side-written docmeta (SURVEY.md §7 step 2).

Mirrors what the reference does between DocumentParser and Lucene's in-memory
segment build (index/mapper/DocumentParser.java:60, engaged at
index/engine/InternalEngine.java:1167): analyze each document's content field,
aggregate term frequencies + positions per (term, doc).

Runs inside the build's tokenize tasks (index/build.py:_tokenize_group): the
analyzer (compiled regexes, stop set) and the broadcast hot-term set are bound
once per task in __init__, each __call__ processes one batch of fragment
descriptors.

Docmeta (doc_id, repo, path, commit, lang, sha256, doc_len, norm_byte) is
side-written to `<seg_tmp>/docmeta/frag-<offset>.parquet` from inside the
task. This is safe under Ray task retries because fragment content is
deterministic and the filename is keyed by the fragment's global offset —
a retry overwrites the same file with identical bytes (idempotent).

Routing/skew (explicit, per the north rule): each triple gets a shuffle
`bucket = crc32(key) % num_buckets` where key = term for cold terms and
(term, chunk) for hot terms, chunk = doc_id // chunk_range. Hot terms are
thereby *range-salted* across buckets; each (term, chunk) sub-posting-list is
encoded independently and simply concatenated at read time (doc ranges are
disjoint and ordered), so no second merge shuffle is needed. This is the
analog of the reference's murmur3 routing + routing_partition_size skew valve
(cluster/routing/OperationRouting.java:283-305).
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analyzer import get_analyzer
from ..smallfloat import int_to_byte4
from ..sources.reader import read_fragment

TRIPLES_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("term", pa.string()),
        ("chunk", pa.int32()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("norm_len", pa.int32()),  # decoded (quantized) doc length, for block-min-norm
        ("positions", pa.list_(pa.int32())),
    ]
)


def term_bucket(term: str, chunk: int, num_buckets: int) -> int:
    key = term if chunk == 0 else f"{term}\x01{chunk}"
    return zlib.crc32(key.encode()) % num_buckets


class TokenizeFragments:
    """Tokenize stage: fragment descriptors in, posting triples out."""

    def __init__(
        self,
        analyzer: str,
        docmeta_dir: str | None,
        hot_terms: frozenset[str],
        num_buckets: int,
        chunk_range: int,
        index_positions: bool = True,
        content_column: str = "content",
        meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
        extra_content_columns: tuple[str, ...] = (),
    ):
        self.analyzer = get_analyzer(analyzer)
        self.docmeta_dir = docmeta_dir
        self.hot_terms = hot_terms
        self.num_buckets = num_buckets
        self.chunk_range = chunk_range
        self.index_positions = index_positions
        self.content_column = content_column
        self.meta_columns = meta_columns
        # additional indexed text fields: terms keyed `<field>\x1f<term>` in
        # the same unified dictionary; per-field lengths/norms side-written to
        # docmeta as len_<field> / normb_<field> (Lucene per-field norms).
        # Entries are either "column" (field name == column, main analyzer) or
        # (field_name, source_column, analyzer_name) — the subfield shape
        # (e.g. a shingle subfield of the main text column, per-field
        # analyzers like Lucene's PerFieldAnalyzerWrapper).
        self.extra_content_columns = tuple(extra_content_columns)
        self._extra_fields: list[tuple[str, str, "object"]] = []
        for entry in self.extra_content_columns:
            if isinstance(entry, str):
                self._extra_fields.append((entry, entry, self.analyzer))
            else:
                fname, col, an_name = entry
                self._extra_fields.append((fname, col, get_analyzer(an_name)))

    def __call__(self, batch: dict):
        for i in range(len(batch["path"])):
            frag = {k: batch[k][i] for k in ("path", "row_group", "offset", "num_rows")}
            cols = [c for c in self.meta_columns if c != "doc_id"] + [self.content_column]
            cols += [c for _, c, _ in self._extra_fields if c not in cols]
            t = read_fragment(frag, columns=cols)
            yield self._process(t, frag)

    def _group_field(self, token_streams: list, doc_ids: np.ndarray,
                     norm_lens: np.ndarray, *, key_prefix: str = "",
                     salt_hot: bool = False) -> pa.Table | None:
        """Vectorized (doc, term) aggregation for one field: flatten every
        doc's (term, pos) stream, factorize terms once, ONE lexsort over
        (doc, term_code) — positions stay in stream order because the sort is
        stable — then run-length boundaries give (doc, term, tf, positions)
        groups with no per-term Python dicts or per-row appends."""
        import pyarrow.compute as _pc

        nb, cr, hot = self.num_buckets, self.chunk_range, self.hot_terms
        # token_streams: per-doc (terms, positions) parallel lists
        # (Analyzer.positions_split) — flattened with C-speed list.extend,
        # no per-token Python iteration or tuple unpacking
        lens = np.fromiter((len(terms) for terms, _ in token_streams),
                           np.int64, len(token_streams))
        total = int(lens.sum())
        if total == 0:
            return None
        all_terms: list[str] = []
        all_pos: list[int] = []
        for terms, poss in token_streams:
            all_terms.extend(terms)
            all_pos.extend(poss)
        terms_flat = np.asarray(all_terms, dtype=object)
        pos_flat = np.asarray(all_pos, dtype=np.int32)
        doc_idx = np.repeat(np.arange(lens.size), lens)
        import pandas as pd

        codes, uniques = pd.factorize(terms_flat, sort=False)
        # stable sort: doc-major, term-code-minor; per-group positions keep
        # their original (ascending) stream order
        order = np.lexsort((codes, doc_idx))
        d_s, c_s, p_s = doc_idx[order], codes[order], pos_flat[order]
        change = np.empty(total, dtype=bool)
        change[0] = True
        change[1:] = (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, total))
        g_doc = d_s[starts]
        g_code = c_s[starts]

        keys = [key_prefix + str(u) for u in uniques]
        cold_buckets = np.fromiter((term_bucket(k, 0, nb) for k in keys),
                                   np.int32, len(keys))
        bucket = cold_buckets[g_code]
        chunk = np.zeros(g_code.size, dtype=np.int32)
        if salt_hot and hot:
            hot_mask_u = np.fromiter((str(u) in hot for u in uniques), bool,
                                     len(keys))
            hm = hot_mask_u[g_code]
            if hm.any():
                hchunks = (doc_ids[g_doc[hm]] // cr).astype(np.int32)
                chunk[hm] = hchunks
                # one crc32 per distinct (term, chunk) pair, not per group;
                # chunks are factorized first so the pair key cannot overflow
                u_chunks, chunk_idx = np.unique(hchunks, return_inverse=True)
                nc = len(u_chunks)
                pairs, pair_idx = np.unique(
                    g_code[hm].astype(np.int64) * nc + chunk_idx,
                    return_inverse=True)
                pair_buckets = np.fromiter(
                    (term_bucket(keys[p // nc], int(u_chunks[p % nc]), nb)
                     for p in pairs.tolist()),
                    np.int32, len(pairs))
                bucket[hm] = pair_buckets[pair_idx]

        term_col = _pc.take(pa.array(keys, pa.string()), pa.array(g_code))
        if self.index_positions:
            offsets = np.zeros(g_code.size + 1, dtype=np.int32)
            np.cumsum(counts, out=offsets[1:])
            pos_col = pa.ListArray.from_arrays(pa.array(offsets),
                                               pa.array(p_s, pa.int32()))
        else:
            pos_col = pa.ListArray.from_arrays(
                pa.array(np.zeros(g_code.size + 1, np.int32)),
                pa.array([], pa.int32()))
        return pa.table({
            "bucket": pa.array(bucket, pa.int32()),
            "term": term_col,
            "chunk": pa.array(chunk, pa.int32()),
            "doc_id": pa.array(doc_ids[g_doc].astype(np.int64)),
            "tf": pa.array(counts.astype(np.int32)),
            "norm_len": pa.array(norm_lens[g_doc].astype(np.int32)),
            "positions": pos_col,
        })

    def _process(self, t: pa.Table, frag: dict) -> pa.Table:
        an = self.analyzer
        contents = t[self.content_column].to_pylist()
        doc_ids = t["doc_id"].to_numpy()
        doc_lens = np.zeros(len(contents), dtype=np.int64)
        shas: list[str] = []

        from ..smallfloat import byte4_to_int

        streams = []
        for di, text in enumerate(contents):
            if text is None:
                text = ""  # a null source doc indexes as empty, not a crash
            pair = an.positions_split(text)
            doc_lens[di] = len(pair[0])
            shas.append(hashlib.sha256(text.encode()).hexdigest())
            streams.append(pair)
        # vectorized lossy norm round-trip (quantized decoded lengths)
        norm_lens = byte4_to_int(int_to_byte4(doc_lens))
        parts = []
        main = self._group_field(streams, doc_ids, norm_lens, salt_hot=True)
        if main is not None:
            parts.append(main)

        # extra indexed fields: field-prefixed terms, per-field norms and
        # per-field analyzers (subfield support)
        extra_meta: dict[str, tuple[list, list]] = {}
        for fld, col, f_an in self._extra_fields:
            vals = t[col].to_pylist()
            fstreams = []
            flens: list[int | None] = []
            fnormb: list[int | None] = []
            f_norm_lens = np.zeros(len(vals), dtype=np.int64)
            for di, v in enumerate(vals):
                if v is None:
                    flens.append(None)
                    fnormb.append(None)
                    fstreams.append(([], []))
                    continue
                pair = f_an.positions_split(str(v))
                ntoks = len(pair[0])
                flens.append(ntoks)
                nb_byte = int(int_to_byte4(np.array([ntoks]))[0])
                fnormb.append(nb_byte)
                f_norm_lens[di] = int(byte4_to_int(np.array([nb_byte], np.uint8))[0])
                fstreams.append(pair)
            ft = self._group_field(fstreams, doc_ids, f_norm_lens,
                                   key_prefix=f"{fld}\x1f")
            if ft is not None:
                parts.append(ft)
            extra_meta[fld] = (flens, fnormb)

        if self.docmeta_dir is not None:
            meta = pa.table(
                {
                    "doc_id": t["doc_id"],
                    **{c: t[c] for c in self.meta_columns},
                    "sha256": pa.array(shas, pa.string()),
                    "doc_len": pa.array(doc_lens, pa.int64()),
                    "norm_byte": pa.array(int_to_byte4(doc_lens).astype(np.int32), pa.int32()),
                    **{
                        k: col
                        for fld, (flens, fnormb) in extra_meta.items()
                        for k, col in (
                            (f"len_{fld}", pa.array(flens, pa.int64())),
                            (f"normb_{fld}", pa.array(fnormb, pa.int32())),
                        )
                    },
                }
            )
            os.makedirs(self.docmeta_dir, exist_ok=True)
            path = os.path.join(self.docmeta_dir, f"frag-{int(frag['offset']):012d}.parquet")
            pq.write_table(meta, path + ".tmp")
            os.replace(path + ".tmp", path)  # idempotent atomic per-fragment write

        if not parts:
            return TRIPLES_SCHEMA.empty_table()
        return pa.concat_tables(parts) if len(parts) > 1 else parts[0]


def sample_hot_terms(
    paths_or_dir,
    analyzer: str = "code",
    sample_docs: int = 512,
    hot_df_ratio: float = 0.10,
    max_hot: int = 64,
    content_column: str = "content",
) -> frozenset[str]:
    """Deterministic hot-term estimate: analyze an evenly-strided sample of
    fragments and flag the top `max_hot` terms whose sampled df ratio exceeds
    hot_df_ratio (the Zipf head that needs salting — SURVEY.md §7 step 7)."""
    from ..sources.reader import plan_fragments

    frags = plan_fragments(paths_or_dir)
    if not frags:
        return frozenset()
    stride = max(1, len(frags) // 8)
    an = get_analyzer(analyzer)
    df: dict[str, int] = {}
    seen = 0
    for f in frags[::stride]:
        t = pq.ParquetFile(f.path).read_row_group(f.row_group, columns=[content_column])
        for text in t[content_column].to_pylist()[: max(1, sample_docs // 8)]:
            seen += 1
            for term in set(an(text or "")):
                df[term] = df.get(term, 0) + 1
            if seen >= sample_docs:
                break
        if seen >= sample_docs:
            break
    cut = max(1.0, hot_df_ratio * seen)
    hot = sorted(((c, t) for t, c in df.items() if c >= cut), reverse=True)[:max_hot]
    return frozenset(t for _, t in hot)
