"""Posting-list codec round-trip + property tests (SURVEY.md §5b) and
SmallFloat quantization parity checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elasticsearch_ray.codec import (
    BLOCK_SIZE,
    decode_block,
    decode_positions,
    decode_postings,
    encode_postings,
    segmented_cumsum,
    varbyte_decode,
    varbyte_decode_rows,
    varbyte_encode,
)
from elasticsearch_ray.smallfloat import DECODE_TABLE, byte4_to_int, int_to_byte4


# ---------- SmallFloat ----------

def test_smallfloat_small_values_exact():
    v = np.arange(24)
    assert np.array_equal(byte4_to_int(int_to_byte4(v)), v)


def test_smallfloat_known_lucene_values():
    # public Lucene SmallFloat semantics: intToByte4 is monotone, lossy >= 24,
    # and byte4ToInt(intToByte4(x)) <= x with the 4-bit-mantissa floor.
    enc = int_to_byte4(np.array([0, 1, 23, 24, 25, 31, 32, 100, 1000, 10**6, 2**31 - 1]))
    dec = byte4_to_int(enc)
    assert dec[0] == 0 and dec[1] == 1 and dec[2] == 23
    assert dec[3] == 24 and dec[4] == 25  # 24+0, 24+1 still exact (subnormal)
    # lossy region: decoded <= original, same bucket floor
    orig = np.array([100, 1000, 10**6, 2**31 - 1])
    d = byte4_to_int(int_to_byte4(orig))
    assert np.all(d <= orig)
    # re-encoding the decoded value must be a fixed point
    assert np.array_equal(int_to_byte4(d), int_to_byte4(orig))


def test_smallfloat_monotone_and_table():
    v = np.arange(0, 300000, 7)
    e = int_to_byte4(v)
    assert np.all(np.diff(e.astype(int)) >= 0)
    assert DECODE_TABLE.size == 256
    assert np.all(np.diff(DECODE_TABLE) > 0)  # strictly increasing decode table


@given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_smallfloat_roundtrip_fixed_point(vals):
    v = np.array(vals, dtype=np.int64)
    d = byte4_to_int(int_to_byte4(v))
    assert np.all(d <= v)
    assert np.array_equal(int_to_byte4(d), int_to_byte4(v))
    assert np.array_equal(byte4_to_int(int_to_byte4(d)), d)


# ---------- varbyte ----------

@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=60, deadline=None)
def test_varbyte_roundtrip(vals):
    v = np.array(vals, dtype=np.uint64)
    assert np.array_equal(varbyte_decode(varbyte_encode(v)), v)


def test_varbyte_sizes():
    assert varbyte_encode(np.array([0], np.uint64)) == b"\x00"
    assert varbyte_encode(np.array([127], np.uint64)) == b"\x7f"
    assert varbyte_encode(np.array([128], np.uint64)) == b"\x80\x01"
    assert len(varbyte_encode(np.array([2**63 - 1], np.uint64))) == 9



def _random_rows(rng, n_rows):
    """Per-row varint streams (some empty, values up to 9 bytes)."""
    rows = []
    for _ in range(n_rows):
        n = int(rng.integers(0, 6)) if rng.random() < 0.8 else 0
        bits = rng.integers(0, 63, size=n)
        rows.append((rng.integers(0, 2**62, size=n, dtype=np.uint64)
                     >> bits.astype(np.uint64)))
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_varbyte_decode_rows_equals_per_row(seed):
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, int(rng.integers(0, 12)))
    streams = [varbyte_encode(r) for r in rows]
    buf = np.frombuffer(b"".join(streams), np.uint8)
    ends = np.cumsum([len(s) for s in streams], dtype=np.int64)
    counts = [r.size for r in rows]
    got = varbyte_decode_rows(buf, ends, counts)
    want = [varbyte_decode(s, r.size) for s, r in zip(streams, rows)]
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(
        got, np.concatenate(want) if want else np.empty(0, np.uint64))
    # the running sums restart at every row, empty rows included
    np.testing.assert_array_equal(
        segmented_cumsum(got, counts),
        np.concatenate([np.cumsum(w.astype(np.int64)) for w in want])
        if want else np.empty(0, np.int64))


def test_varbyte_decode_rows_rejects_corrupt_rows():
    two = varbyte_encode(np.array([300], np.uint64))  # b"\xac\x02"
    assert len(two) == 2
    # row 0 ends in a continuation byte that row 1's byte would complete:
    # the whole buffer decodes as one value, the rows do not
    buf = np.frombuffer(two, np.uint8)
    assert varbyte_decode(buf).tolist() == [300]
    with pytest.raises(ValueError, match="row 0 ends in a continuation"):
        varbyte_decode_rows(buf, [1, 2], [1, 0])
    with pytest.raises(ValueError, match="row 0 ends in a continuation"):
        varbyte_decode_rows(buf, [1, 2], [0, 1])
    # the same check for a later row, after an empty one
    buf = np.frombuffer(b"\x05" + two, np.uint8)
    with pytest.raises(ValueError, match="row 2 ends in a continuation"):
        varbyte_decode_rows(buf, [1, 1, 2, 3], [1, 0, 1, 0])
    # a row holding more or fewer values than its count
    buf = np.frombuffer(b"\x01\x02\x03", np.uint8)
    assert varbyte_decode_rows(buf, [2, 3], [2, 1]).tolist() == [1, 2, 3]
    with pytest.raises(ValueError, match="row 0: decoded 2 values, expected 1"):
        varbyte_decode_rows(buf, [2, 3], [1, 2])
    with pytest.raises(ValueError, match="row 1: decoded 1 values, expected 2"):
        varbyte_decode_rows(buf, [2, 3], [2, 2])
    with pytest.raises(ValueError, match="row 1: decoded 0 values, expected 1"):
        varbyte_decode_rows(buf, [3, 3], [3, 1])
    # row ends that do not cover the buffer
    with pytest.raises(ValueError):
        varbyte_decode_rows(buf, [2], [2])

# ---------- postings ----------

def _random_postings(rng, n, max_doc=10**7):
    doc_ids = np.sort(rng.choice(max_doc, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, size=n).astype(np.int64)
    norms = rng.integers(1, 5000, size=n).astype(np.int64)
    return doc_ids, tfs, norms


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000, 5000])
def test_postings_roundtrip(n):
    rng = np.random.default_rng(n)
    doc_ids, tfs, norms = _random_postings(rng, n)
    enc = encode_postings(doc_ids, tfs, norms)
    d, t = decode_postings(enc)
    assert np.array_equal(d, doc_ids)
    assert np.array_equal(t, tfs)
    assert enc.df == n and enc.sum_tf == tfs.sum()


def test_block_random_access_and_blockmax():
    rng = np.random.default_rng(7)
    doc_ids, tfs, norms = _random_postings(rng, 1000)
    enc = encode_postings(doc_ids, tfs, norms)
    n_blocks = enc.skip_last_doc.size
    assert n_blocks == (1000 + BLOCK_SIZE - 1) // BLOCK_SIZE
    off = 0
    for bi in range(n_blocks):
        d, t = decode_block(enc, bi)
        hi = min(off + BLOCK_SIZE, 1000)
        assert np.array_equal(d, doc_ids[off:hi])
        assert np.array_equal(t, tfs[off:hi])
        # block-max invariants: bound dominates every in-block doc
        assert enc.skip_max_tf[bi] == tfs[off:hi].max()
        assert enc.skip_min_norm[bi] == norms[off:hi].min()
        assert enc.skip_last_doc[bi] == doc_ids[hi - 1]
        off = hi


def test_positions_roundtrip():
    rng = np.random.default_rng(3)
    doc_ids, tfs, _ = _random_postings(rng, 300, max_doc=10000)
    pos_lists = [np.sort(rng.choice(10000, size=int(tf), replace=False)) for tf in tfs]
    flat = np.concatenate(pos_lists)
    enc = encode_postings(doc_ids, tfs, positions=flat)
    out = decode_positions(enc, tfs)
    assert len(out) == 300
    for got, want in zip(out, pos_lists):
        assert np.array_equal(got, want)


def test_bulk_encoder_matches_rowwise():
    """The vectorized bucket encoder must produce byte-identical output to the
    row-wise reference encoder on a realistic mixed bucket."""
    import pyarrow as pa

    from elasticsearch_ray.stages.encode import encode_bucket, encode_bucket_rowwise

    rng = np.random.default_rng(11)
    rows = {"bucket": [], "term": [], "chunk": [], "doc_id": [], "tf": [],
            "norm_len": [], "positions": []}
    for term_i in range(40):
        term = f"t{term_i:03d}"
        n_chunks = 3 if term_i < 3 else 1  # a few salted "hot" terms
        for chunk in range(n_chunks):
            df = int(rng.integers(1, 400))
            ids = np.sort(rng.choice(100_000, df, replace=False)) + chunk * 1_000_000
            for d in ids:
                tf = int(rng.integers(1, 6))
                pos = np.sort(rng.choice(5000, tf, replace=False)).tolist()
                rows["bucket"].append(0)
                rows["term"].append(term)
                rows["chunk"].append(chunk)
                rows["doc_id"].append(int(d))
                rows["tf"].append(tf)
                rows["norm_len"].append(int(rng.integers(1, 3000)))
                rows["positions"].append(pos)
    t = pa.table({
        "bucket": pa.array(rows["bucket"], pa.int32()),
        "term": pa.array(rows["term"], pa.string()),
        "chunk": pa.array(rows["chunk"], pa.int32()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "tf": pa.array(rows["tf"], pa.int32()),
        "norm_len": pa.array(rows["norm_len"], pa.int32()),
        "positions": pa.array(rows["positions"], pa.list_(pa.int32())),
    })
    a = encode_bucket(t)
    b = encode_bucket_rowwise(t)
    assert a.schema.equals(b.schema)
    assert len(a) == len(b)
    for col in a.column_names:
        assert a[col].to_pylist() == b[col].to_pylist(), f"column {col} differs"
