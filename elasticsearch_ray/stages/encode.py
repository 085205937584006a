"""The postings table: its schema, its bulk encoder and its decoder.

Every reader of the row format goes through this module: the searcher views
a table's columns with `_PostingsColumns`, and merge and split turn rows
back into triples with `decode_bucket`, the exact inverse of `encode_bucket`.
The stream formulas themselves are `codec.decode_doc_rows` and
`codec.decode_position_rows`.

`encode_bucket` turns one bucket of the build's term shuffle into encoded
rows (the reference analog: Lucene's per-segment hash->postings build inside
IndexWriter, engaged at index/engine/InternalEngine.java:1167). It is a
fully vectorized bulk encoder: ONE varbyte pass over every delta / tf /
position in the bucket, per-(term,chunk) byte ranges sliced from the shared
buffer via cumulative byte lengths, 128-doc block skip/block-max metadata via
`np.{maximum,minimum,add}.reduceat` over globally-constructed block starts,
and the output binary/list columns assembled zero-copy with
`pa.Array.from_buffers` / `ListArray.from_arrays`. No per-term Python loop —
millions of terms per bucket cost the same per-row as thousands.

A row-wise reference implementation is kept for differential testing
(tests/test_codec.py::test_bulk_encoder_matches_rowwise).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import (
    BLOCK_SIZE,
    decode_doc_rows,
    decode_position_rows,
    encode_postings,
    varbyte_decode_rows,
    varbyte_encode_with_lengths,
)
from ..smallfloat import DECODE_TABLE

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("chunk", pa.int32()),
        ("df", pa.int64()),
        ("sum_tf", pa.int64()),
        ("doc_bytes", pa.binary()),
        ("tf_bytes", pa.binary()),
        ("pos_bytes", pa.binary()),
        ("skip_last_doc", pa.list_(pa.int64())),
        ("skip_doc_off", pa.list_(pa.int32())),
        ("skip_tf_off", pa.list_(pa.int32())),
        ("skip_pos_off", pa.list_(pa.int32())),
        ("skip_max_tf", pa.list_(pa.int32())),
        ("skip_min_norm", pa.list_(pa.int32())),
    ]
)



class _PostingsColumns:
    """One postings table as flat NumPy arrays, zero-copy over its Arrow
    buffers: `df`, and per stream and skip column its row offsets
    (`offsets[name]`, rows+1 entries) and flat values (`values[name]`).
    Row i of column `name` is values[name][offsets[name][i]:offsets[name][i+1]].
    `COLUMNS` are the table columns it needs."""

    STREAMS = ("doc_bytes", "tf_bytes", "pos_bytes")
    SKIPS = ("skip_last_doc", "skip_doc_off", "skip_tf_off", "skip_max_tf",
             "skip_min_norm")
    COLUMNS = ("df",) + STREAMS + SKIPS

    __slots__ = ("df", "offsets", "values")

    def __init__(self, table: pa.Table):
        def array(name):
            col = table[name]
            return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()

        self.df = array("df").to_numpy()
        self.offsets: dict[str, np.ndarray] = {}
        self.values: dict[str, np.ndarray] = {}
        for name in self.STREAMS + self.SKIPS:
            arr = array(name)
            if name in self.STREAMS:
                _, offsets, data = arr.buffers()
                width = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
                self.offsets[name] = np.frombuffer(offsets, width)[
                    arr.offset:arr.offset + len(arr) + 1]
                self.values[name] = (np.frombuffer(data, np.uint8) if data is not None
                                     else np.empty(0, np.uint8))
            else:
                self.offsets[name] = arr.offsets.to_numpy()
                self.values[name] = arr.values.to_numpy()

    def stream(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Column `name` of every row, concatenated -> (flat values, per-row
        end offsets into them)."""
        o = self.offsets[name]
        return self.values[name][o[0]:o[-1]], o[1:] - o[0]


def decode_bucket(table: pa.Table, norm_bytes: np.ndarray,
                  base: int = 0) -> pa.Table:
    """The exact inverse of `encode_bucket`: postings rows -> the (term,
    chunk, doc_id, tf, norm_len[, positions]) triples they encode, in row
    order, with norm_len = DECODE_TABLE[norm_bytes[doc_id - base]]. Each
    stream decodes in one call, and every row is checked for a whole last
    varint and for the value count its df (or its docs' tfs) gives."""
    cols = _PostingsColumns(table)
    dfs = cols.df.astype(np.int64)
    doc_ids = decode_doc_rows(*cols.stream("doc_bytes"), dfs)
    tfs = varbyte_decode_rows(*cols.stream("tf_bytes"), dfs).astype(np.int64)
    rep = pa.array(np.repeat(np.arange(dfs.size), dfs))
    triples = {
        "term": pc.take(table["term"], rep),
        "chunk": pc.take(table["chunk"], rep),
        "doc_id": pa.array(doc_ids),
        "tf": pa.array(tfs.astype(np.int32)),
        "norm_len": pa.array(
            DECODE_TABLE[norm_bytes[doc_ids - base]].astype(np.int32)),
    }
    buf, byte_ends = cols.stream("pos_bytes")
    if buf.size:
        pos, lens = decode_position_rows(buf, byte_ends, dfs, tfs)
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        triples["positions"] = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(pos.astype(np.int32)))
    return pa.table(triples)

def _binary_column(buf: np.ndarray, byte_starts: np.ndarray, byte_ends: np.ndarray):
    """Zero-copy BinaryArray over contiguous per-row slices of one buffer.
    byte_starts/byte_ends index into buf and are contiguous per construction
    (ends[i] == starts[i+1]), so offsets = [starts, ends[-1]]."""
    n = byte_starts.size
    total = int(byte_ends[-1]) if n else 0
    if total > np.iinfo(np.int32).max:
        # 32-bit Arrow binary offsets would silently wrap past 2 GiB; use
        # 64-bit offsets (large_binary) for oversized merged buckets
        offsets64 = np.empty(n + 1, dtype=np.int64)
        offsets64[:n] = byte_starts
        offsets64[n] = total
        return pa.Array.from_buffers(
            pa.large_binary(), n,
            [None, pa.py_buffer(offsets64.tobytes()),
             pa.py_buffer(buf.tobytes())],
        )
    offsets = np.empty(n + 1, dtype=np.int32)
    offsets[:n] = byte_starts
    offsets[n] = total
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(buf.tobytes())],
    )


def _list_column(values: np.ndarray, counts: np.ndarray, typ) -> pa.Array:
    offsets = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(values, typ))


def encode_bucket(group: pa.Table) -> pa.Table:
    """Bulk-encode every (term, chunk) posting list in this bucket."""
    if len(group) == 0:
        return POSTINGS_SCHEMA.empty_table()
    order = pc.sort_indices(
        group,
        sort_keys=[("term", "ascending"), ("chunk", "ascending"), ("doc_id", "ascending")],
    )
    g = group.take(order).combine_chunks()
    n = len(g)
    terms = np.asarray(g["term"])
    chunks = g["chunk"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    tfs = g["tf"].to_numpy().astype(np.int64)
    norms = g["norm_len"].to_numpy().astype(np.int64)

    # ---- group boundaries over (term, chunk) ----
    key_change = np.empty(n, dtype=bool)
    key_change[0] = True
    if n > 1:
        key_change[1:] = (terms[1:] != terms[:-1]) | (chunks[1:] != chunks[:-1])
    starts = np.flatnonzero(key_change)
    ends = np.append(starts[1:], n)
    group_lens = ends - starts
    n_groups = starts.size

    # ---- doc deltas: continuous within a group, first is doc0 - (-1) ----
    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = doc_ids[0] + 1
    if n > 1:
        np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[starts] = doc_ids[starts] + 1
    doc_buf, doc_nb = varbyte_encode_with_lengths(deltas.astype(np.uint64))
    tf_buf, tf_nb = varbyte_encode_with_lengths(tfs.astype(np.uint64))
    doc_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(doc_nb, out=doc_cum[1:])
    tf_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tf_nb, out=tf_cum[1:])

    # ---- positions (per-doc delta restart) ----
    has_pos = "positions" in g.column_names
    pos_buf = np.empty(0, np.uint8)
    pos_cum_rows = None
    if has_pos:
        pos_col = g["positions"]
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        row_pos_offsets = pos_col.offsets.to_numpy().astype(np.int64)  # len n+1
        if flat.size:
            pd_ = np.empty(flat.size, dtype=np.int64)
            pd_[0] = flat[0]
            np.subtract(flat[1:], flat[:-1], out=pd_[1:])
            doc_start_pos = row_pos_offsets[:-1]
            valid = (doc_start_pos < flat.size) & (row_pos_offsets[1:] > doc_start_pos)
            pd_[doc_start_pos[valid]] = flat[doc_start_pos[valid]]
            pos_buf, pos_nb = varbyte_encode_with_lengths(pd_.astype(np.uint64))
            pos_byte_cum = np.zeros(flat.size + 1, dtype=np.int64)
            np.cumsum(pos_nb, out=pos_byte_cum[1:])
            # byte offset of each ROW's position run
            pos_cum_rows = pos_byte_cum[row_pos_offsets]
        else:
            has_pos = False

    # ---- per-group 128-doc blocks (global reduceat) ----
    nblocks = (group_lens + BLOCK_SIZE - 1) // BLOCK_SIZE
    total_blocks = int(nblocks.sum())
    rep_group = np.repeat(np.arange(n_groups), nblocks)
    blk_cumstart = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(nblocks, out=blk_cumstart[1:])
    within = np.arange(total_blocks) - blk_cumstart[rep_group]
    bs = starts[rep_group] + within * BLOCK_SIZE  # global block start row
    be = np.minimum(bs + BLOCK_SIZE, ends[rep_group])  # global block end row

    skip_last_doc = doc_ids[be - 1]
    skip_max_tf = np.maximum.reduceat(tfs, bs).astype(np.int32)
    skip_min_norm = np.minimum.reduceat(norms, bs).astype(np.int32)
    skip_doc_off = (doc_cum[bs] - doc_cum[starts[rep_group]]).astype(np.int32)
    skip_tf_off = (tf_cum[bs] - tf_cum[starts[rep_group]]).astype(np.int32)
    if has_pos:
        skip_pos_off = (pos_cum_rows[bs] - pos_cum_rows[starts[rep_group]]).astype(np.int32)
    else:
        skip_pos_off = np.zeros(total_blocks, dtype=np.int32)

    # ---- assemble columns ----
    df = group_lens.astype(np.int64)
    sum_tf = np.add.reduceat(tfs, starts).astype(np.int64)
    term_col = pc.take(g["term"], pa.array(starts))
    chunk_col = pa.array(chunks[starts].astype(np.int32))
    doc_col = _binary_column(doc_buf, doc_cum[starts], doc_cum[ends])
    tf_col = _binary_column(tf_buf, tf_cum[starts], tf_cum[ends])
    if has_pos:
        pos_col_out = _binary_column(pos_buf, pos_cum_rows[starts], pos_cum_rows[ends])
    else:
        pos_col_out = pa.array([b""] * n_groups, pa.binary())

    return pa.table(
        {
            "term": term_col,
            "chunk": chunk_col,
            "df": pa.array(df),
            "sum_tf": pa.array(sum_tf),
            "doc_bytes": doc_col,
            "tf_bytes": tf_col,
            "pos_bytes": pos_col_out,
            "skip_last_doc": _list_column(skip_last_doc, nblocks, pa.int64()),
            "skip_doc_off": _list_column(skip_doc_off, nblocks, pa.int32()),
            "skip_tf_off": _list_column(skip_tf_off, nblocks, pa.int32()),
            "skip_pos_off": _list_column(skip_pos_off, nblocks, pa.int32()),
            "skip_max_tf": _list_column(skip_max_tf, nblocks, pa.int32()),
            "skip_min_norm": _list_column(skip_min_norm, nblocks, pa.int32()),
        },
        schema=POSTINGS_SCHEMA,
    )


def encode_bucket_rowwise(group: pa.Table) -> pa.Table:
    """Row-wise reference encoder (differential-test twin of encode_bucket)."""
    if len(group) == 0:
        return POSTINGS_SCHEMA.empty_table()
    order = pc.sort_indices(
        group,
        sort_keys=[("term", "ascending"), ("chunk", "ascending"), ("doc_id", "ascending")],
    )
    g = group.take(order).combine_chunks()
    terms = np.asarray(g["term"])
    chunks = g["chunk"].to_numpy()
    doc_ids = g["doc_id"].to_numpy()
    tfs = g["tf"].to_numpy()
    norms = g["norm_len"].to_numpy()

    has_pos = "positions" in g.column_names
    if has_pos:
        pos_col = g["positions"]
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        pos_flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        pos_offsets = pos_col.offsets.to_numpy()

    key_change = np.empty(len(g), dtype=bool)
    key_change[0] = True
    if len(g) > 1:
        key_change[1:] = (terms[1:] != terms[:-1]) | (chunks[1:] != chunks[:-1])
    starts = np.flatnonzero(key_change)
    ends = np.append(starts[1:], len(g))

    rows: dict[str, list] = {name: [] for name in POSTINGS_SCHEMA.names}
    for s, e in zip(starts, ends):
        positions = None
        if has_pos:
            p = pos_flat[pos_offsets[s] : pos_offsets[e]]
            positions = p if p.size else None
        enc = encode_postings(
            doc_ids[s:e].astype(np.int64),
            tfs[s:e].astype(np.int64),
            norms=norms[s:e].astype(np.int64),
            positions=positions,
        )
        rows["term"].append(str(terms[s]))
        rows["chunk"].append(int(chunks[s]))
        rows["df"].append(enc.df)
        rows["sum_tf"].append(enc.sum_tf)
        rows["doc_bytes"].append(enc.doc_bytes)
        rows["tf_bytes"].append(enc.tf_bytes)
        rows["pos_bytes"].append(enc.pos_bytes)
        rows["skip_last_doc"].append(enc.skip_last_doc.tolist())
        rows["skip_doc_off"].append(enc.skip_doc_off.tolist())
        rows["skip_tf_off"].append(enc.skip_tf_off.tolist())
        rows["skip_pos_off"].append(enc.skip_pos_off.tolist())
        rows["skip_max_tf"].append(enc.skip_max_tf.tolist())
        rows["skip_min_norm"].append(enc.skip_min_norm.tolist())
    return pa.table(rows, schema=POSTINGS_SCHEMA)
