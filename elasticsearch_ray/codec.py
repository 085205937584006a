"""Posting-list codec: delta + varbyte, 128-doc blocks, skip + block-max data.

[Lucene 8.5, public knowledge] Lucene's Lucene84 postings format (chosen by the
reference at server/src/main/java/org/elasticsearch/index/codec/
CodecService.java:50) delta-encodes doc ids in blocks of 128 (FOR/bit-packed)
with a vInt tail, and stores per-block skip entries carrying *impacts*
(tf/norm pairs) that let block-max WAND skip non-competitive blocks.

This module is a from-scratch NumPy re-expression, not a binary-compatible
port: deltas are varbyte- (LEB128-with-continuation-bit-) encoded throughout,
and each 128-doc block's skip entry stores (last_doc, byte offsets, max_tf,
min_norm_length). `score(max_tf, min_norm_length)` is a valid upper bound for
every doc in the block because BM25 is monotone increasing in tf and
decreasing in doc length — a simplification of Lucene's pareto-front impact
lists, documented here as a deviation.

All encode/decode paths are vectorized (no per-value Python loops): the
varbyte kernels loop over BYTE POSITION (<=9 iterations), not over values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128

_THRESHOLDS = [1 << (7 * k) for k in range(1, 9)]


def varbyte_encode_with_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a uint64 array as concatenated varints; also return the
    per-value byte lengths (for bulk slicing by downstream callers)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    if v.size and int(v.max()) >= (1 << 63):
        raise ValueError(
            "varbyte_encode supports values < 2**63 (9-byte cap); got "
            f"{int(v.max())}")
    nbytes = np.ones(v.shape, dtype=np.int64)
    for t in _THRESHOLDS:
        nbytes += v >= np.uint64(t)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    maxb = int(nbytes.max())
    for j in range(maxb):
        mask = nbytes > j
        byte = (v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << 7
        out[starts[mask] + j] = byte.astype(np.uint8) | cont
    return out, nbytes


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode a uint64 array as concatenated varints (7 data bits/byte,
    high bit = continuation)."""
    out, _ = varbyte_encode_with_lengths(values)
    return out.tobytes()


def varbyte_decode(data: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode concatenated varints -> uint64 array."""
    buf = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    if buf.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(buf < 128)
    if ends.size == 0 or ends[-1] != buf.size - 1:
        raise ValueError("corrupt varbyte stream: trailing continuation byte")
    out = _decode_terminated(buf, ends)
    if count is not None and out.size != count:
        raise ValueError(f"decoded {out.size} values, expected {count}")
    return out


def varbyte_decode_rows(buf: np.ndarray, byte_ends: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """Decode concatenated per-row varint streams in one pass -> uint64.

    Row i is buf[byte_ends[i-1]:byte_ends[i]] (row 0 starts at 0) and must
    hold exactly counts[i] values. Each row is checked as `varbyte_decode`
    checks one stream: it may not end inside a varint, even when the next
    row's bytes would complete it, and its value count must match."""
    buf = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    byte_ends = np.asarray(byte_ends, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if byte_ends.size != counts.size:
        raise ValueError(f"{byte_ends.size} row ends for {counts.size} counts")
    if byte_ends.size == 0:
        if buf.size:
            raise ValueError(f"{buf.size} bytes outside any row")
        return np.empty(0, dtype=np.uint64)
    if int(byte_ends[-1]) != buf.size:
        raise ValueError(f"rows end at byte {int(byte_ends[-1])} of a "
                         f"{buf.size}-byte buffer")
    starts = np.concatenate([[0], byte_ends[:-1]])
    if (byte_ends < starts).any():
        raise ValueError("row byte ends are not ascending")
    filled = byte_ends > starts
    bad = np.flatnonzero(buf[byte_ends[filled] - 1] >= 128)
    if bad.size:
        row = int(np.flatnonzero(filled)[bad[0]])
        raise ValueError(
            f"corrupt varbyte stream: row {row} ends in a continuation byte")
    ends = np.flatnonzero(buf < 128)
    # values per row = terminators before its end minus those before its start
    got = np.searchsorted(ends, byte_ends)
    got[1:] -= got[:-1].copy()
    bad = np.flatnonzero(got != counts)
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"row {row}: decoded {int(got[row])} values, "
                         f"expected {int(counts[row])}")
    if ends.size == 0:
        return np.empty(0, dtype=np.uint64)
    return _decode_terminated(buf, ends)


def _decode_terminated(buf: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Values of a stream whose terminator bytes sit at `ends` (the last
    byte of buf is one of them)."""
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    out = (buf[starts] & np.uint8(0x7F)).astype(np.uint64)
    # byte j of the values that have one: the index set shrinks each round
    idx = np.flatnonzero(lengths > 1)
    j = 1
    while idx.size:
        out[idx] |= (buf[starts[idx] + j].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * j)
        j += 1
        idx = idx[lengths[idx] > j]
    return out


def segmented_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """int64 running sums of `values` that restart at every segment: the
    first counts[0] values are one segment, the next counts[1] the next, and
    so on (the delta base of a postings row or of a doc's positions)."""
    counts = np.asarray(counts, dtype=np.int64)
    tot = np.cumsum(values, dtype=np.int64)
    if counts.size > 1:
        before = np.concatenate([[0], tot])[np.cumsum(counts) - counts]
        tot -= np.repeat(before, counts)
    return tot


def delta_encode(sorted_values: np.ndarray) -> np.ndarray:
    v = np.asarray(sorted_values, dtype=np.int64)
    d = np.empty_like(v)
    if v.size:
        d[0] = v[0]
        np.subtract(v[1:], v[:-1], out=d[1:])
    return d.astype(np.uint64)


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(deltas.astype(np.int64))


@dataclass
class EncodedPostings:
    """One term's encoded posting list + skip/block-max metadata."""

    df: int
    sum_tf: int
    doc_bytes: bytes
    tf_bytes: bytes
    pos_bytes: bytes  # b"" when positions are not indexed
    skip_last_doc: np.ndarray  # int64[n_blocks] — last doc id per block
    skip_doc_off: np.ndarray  # int32[n_blocks] — byte offset of block in doc_bytes
    skip_tf_off: np.ndarray  # int32[n_blocks]
    skip_pos_off: np.ndarray  # int32[n_blocks]
    skip_max_tf: np.ndarray  # int32[n_blocks] — block-max tf
    skip_min_norm: np.ndarray  # int32[n_blocks] — block-min decoded doc length


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    norms: np.ndarray | None = None,
    positions: np.ndarray | None = None,
) -> EncodedPostings:
    """Encode one term's postings.

    doc_ids: sorted unique int64; tfs: int64 aligned; norms: decoded doc
    lengths aligned with doc_ids (for block-min-norm metadata; pass None to
    store 0); positions: concatenation of each doc's sorted position array
    (lengths given by tfs), or None.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = doc_ids.size
    if n == 0:
        raise ValueError("empty posting list")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    bounds = np.arange(1, n_blocks + 1) * BLOCK_SIZE
    bounds[-1] = n

    doc_chunks: list[bytes] = []
    doc_off = tf_off = pos_off = 0
    tf_chunks: list[bytes] = []
    pos_chunks: list[bytes] = []
    skip_doc_off = np.zeros(n_blocks, dtype=np.int32)
    skip_tf_off = np.zeros(n_blocks, dtype=np.int32)
    skip_pos_off = np.zeros(n_blocks, dtype=np.int32)
    skip_last_doc = np.zeros(n_blocks, dtype=np.int64)
    skip_max_tf = np.zeros(n_blocks, dtype=np.int32)
    skip_min_norm = np.zeros(n_blocks, dtype=np.int32)

    pos_cuts = np.concatenate([[0], np.cumsum(tfs)]) if positions is not None else None

    start = 0
    for bi, end in enumerate(bounds):
        ids = doc_ids[start:end]
        block_tfs = tfs[start:end]
        # deltas restart per block so blocks decode independently (skip support);
        # first delta in a block is relative to the previous block's last doc.
        base = doc_ids[start - 1] if start else -1
        deltas = np.empty(ids.size, dtype=np.int64)
        deltas[0] = ids[0] - base
        np.subtract(ids[1:], ids[:-1], out=deltas[1:])
        skip_doc_off[bi] = doc_off
        skip_tf_off[bi] = tf_off
        doc_chunks.append(varbyte_encode(deltas.astype(np.uint64)))
        tf_chunks.append(varbyte_encode(block_tfs.astype(np.uint64)))
        doc_off += len(doc_chunks[-1])
        tf_off += len(tf_chunks[-1])
        skip_last_doc[bi] = ids[-1]
        skip_max_tf[bi] = int(block_tfs.max())
        skip_min_norm[bi] = int(norms[start:end].min()) if norms is not None else 0
        if positions is not None:
            skip_pos_off[bi] = pos_off
            p = np.asarray(positions[pos_cuts[start] : pos_cuts[end]], dtype=np.int64)
            # per-doc delta: first position raw, then gaps — reset at doc starts
            pd = np.empty_like(p)
            if p.size:
                pd[0] = p[0]
                np.subtract(p[1:], p[:-1], out=pd[1:])
                starts_in = pos_cuts[start + 1 : end] - pos_cuts[start]
                pd[starts_in] = p[starts_in]
            pos_chunks.append(varbyte_encode(pd.astype(np.uint64)))
            pos_off += len(pos_chunks[-1])
        start = end

    return EncodedPostings(
        df=n,
        sum_tf=int(tfs.sum()),
        doc_bytes=b"".join(doc_chunks),
        tf_bytes=b"".join(tf_chunks),
        pos_bytes=b"".join(pos_chunks),
        skip_last_doc=skip_last_doc,
        skip_doc_off=skip_doc_off,
        skip_tf_off=skip_tf_off,
        skip_pos_off=skip_pos_off,
        skip_max_tf=skip_max_tf,
        skip_min_norm=skip_min_norm,
    )


def decode_postings(enc: EncodedPostings) -> tuple[np.ndarray, np.ndarray]:
    """Decode full (doc_ids, tfs)."""
    deltas = varbyte_decode(enc.doc_bytes, enc.df).astype(np.int64)
    n_blocks = enc.skip_last_doc.size
    doc_ids = np.cumsum(deltas) - 1  # first delta was doc0 - (-1)
    # fix up per-block restarts: cumsum is only valid within a block, but since
    # each block's first delta is relative to the previous block's last doc,
    # a single global cumsum IS correct; the -1 base applies once.
    tfs = varbyte_decode(enc.tf_bytes, enc.df).astype(np.int64)
    return doc_ids, tfs


def decode_block(enc: EncodedPostings, block_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a single 128-doc block (skip-pointer random access)."""
    nb = enc.skip_last_doc.size
    d0 = int(enc.skip_doc_off[block_index])
    d1 = int(enc.skip_doc_off[block_index + 1]) if block_index + 1 < nb else len(enc.doc_bytes)
    t0 = int(enc.skip_tf_off[block_index])
    t1 = int(enc.skip_tf_off[block_index + 1]) if block_index + 1 < nb else len(enc.tf_bytes)
    deltas = varbyte_decode(np.frombuffer(enc.doc_bytes, np.uint8)[d0:d1]).astype(np.int64)
    base = int(enc.skip_last_doc[block_index - 1]) if block_index else -1
    doc_ids = np.cumsum(deltas) + base
    tfs = varbyte_decode(np.frombuffer(enc.tf_bytes, np.uint8)[t0:t1]).astype(np.int64)
    return doc_ids, tfs


def decode_positions(enc: EncodedPostings, tfs: np.ndarray) -> list[np.ndarray]:
    """Decode all position arrays (one per doc, lengths = tfs)."""
    if not enc.pos_bytes:
        return []
    flat = varbyte_decode(enc.pos_bytes).astype(np.int64)
    cuts = np.concatenate([[0], np.cumsum(tfs)])
    out = []
    for i in range(tfs.size):
        out.append(np.cumsum(flat[cuts[i] : cuts[i + 1]]))
    return out
