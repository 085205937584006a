"""BPE trainer: distributed path vs the serial Sennrich twin, overlap
semantics, and the encoder stage."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from elasticsearch_ray.functions import bpe


def _docs_ds(texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))


def _local_word_freq(texts):
    from elasticsearch_ray.functions.lm import _tokens
    wf = {}
    for t in texts:
        for w in _tokens(t):
            wf[w] = wf.get(w, 0) + 1
    return wf


TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "lower lowest low lowly lowering",
    "newer newest new newly renewing",
    "aaa aaaa aa aaaaa",  # overlap runs for the a==b path
    "banana bandana cabana",
]


def test_word_counts_match_local():
    wf = _local_word_freq(TEXTS)
    got = {r["word"]: r["freq"]
           for r in bpe.word_counts(_docs_ds(TEXTS)).take_all()}
    assert got == wf


def test_train_matches_serial_twin():
    merges = bpe.train_bpe(_docs_ds(TEXTS), 12)
    ref = bpe.train_bpe_local(_local_word_freq(TEXTS), 12)
    got = list(merges.itertuples(index=False, name=None))
    assert got == ref


def test_train_matches_twin_many_partitions():
    ds = _docs_ds(TEXTS * 7).repartition(9)
    merges = bpe.train_bpe(ds, 8)
    wf = {w: f * 7 for w, f in _local_word_freq(TEXTS).items()}
    assert list(merges.itertuples(index=False, name=None)) == \
        bpe.train_bpe_local(wf, 8)


def test_overlap_run_semantics():
    # 'aaaa' + (a,a): greedy left-to-right gives [aa, aa, </w>], not 3 merges
    t = pa.table({"syms": pa.array([["a", "a", "a", "a", bpe.END]],
                                   pa.list_(pa.string())),
                  "freq": pa.array([1], pa.int64())})
    out = bpe._apply_merge(t, "a", "a")
    assert out["syms"].to_pylist() == [["aa", "aa", bpe.END]]
    out2 = bpe._apply_merge(
        pa.table({"syms": pa.array([["a", "a", "a", bpe.END]],
                                   pa.list_(pa.string())),
                  "freq": pa.array([1], pa.int64())}), "a", "a")
    assert out2["syms"].to_pylist() == [["aa", "a", bpe.END]]


def test_merge_never_crosses_word_boundary():
    t = pa.table({"syms": pa.array([["x", "y", bpe.END], ["y", "x", bpe.END]],
                                   pa.list_(pa.string())),
                  "freq": pa.array([1, 1], pa.int64())})
    # pair (END, y) exists only across the word boundary in the flat view
    out = bpe._apply_merge(t, bpe.END, "y")
    assert out["syms"].to_pylist() == [["x", "y", bpe.END],
                                       ["y", "x", bpe.END]]


def test_pair_counts_hand_vector():
    ds = _docs_ds(["ab ab b"])
    got = {(r["left_sym"], r["right_sym"]): r["c"]
           for r in bpe.pair_counts(bpe.word_counts(ds)).take_all()}
    assert got == {("a", "b"): 2, ("b", bpe.END): 3}


def test_encode_counts():
    texts = TEXTS * 3
    merges_df = bpe.train_bpe(_docs_ds(TEXTS), 10)
    merges = list(zip(merges_df["left_sym"], merges_df["right_sym"]))
    out = (bpe.encode_token_counts(_docs_ds(texts), merges, concurrency=2)
           .to_pandas().sort_values("doc_id"))
    # serial check on one doc
    stage = bpe.EncodeStage(merges)
    from elasticsearch_ray.functions.lm import _tokens
    for _, row in out.head(8).iterrows():
        want = sum(stage._segment_word(w) for w in _tokens(row["text"]))
        assert row["bpe_subwords"] == want
    # zero merges => every word costs len(word)+1 symbols
    none = (bpe.encode_token_counts(_docs_ds(["ab cd"]), [])
            .to_pandas())
    assert none["bpe_subwords"].iloc[0] == 6


def test_train_fuzz_vs_twin():
    """Randomized corpora: the distributed trainer must equal the serial
    Sennrich twin merge-for-merge (ties, overlaps, multi-partition)."""
    import numpy as np

    rng = np.random.RandomState(4242)
    vocab = ["ab", "abc", "aab", "ba", "bb", "a", "b", "cab", "abab",
             "xyz", "xy", "yz"]
    for trial in range(5):
        n_docs = int(rng.randint(3, 12))
        texts = [" ".join(rng.choice(vocab, size=rng.randint(1, 30)))
                 for _ in range(n_docs)]
        k = int(rng.randint(1, 10))
        ds = _docs_ds(texts).repartition(int(rng.randint(1, 5)))
        got = list(bpe.train_bpe(ds, k).itertuples(index=False, name=None))
        want = bpe.train_bpe_local(_local_word_freq(texts), k)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_unigram_vocab_honours_vocab_size():
    """With the default EM rounds and prune fraction, the unigram trainer
    returns at most max(vocab_size, distinct characters) pieces, and every
    character of the corpus stays a piece."""
    chars = {c for w in _local_word_freq(TEXTS) for c in w}
    ds = _docs_ds(TEXTS)
    for vocab_size in (len(chars) // 2, 40):
        logp = bpe.fit_unigram_tokenizer(ds, vocab_size=vocab_size)
        assert len(logp) <= max(vocab_size, len(chars)), (vocab_size, len(logp))
        assert chars <= set(logp)
