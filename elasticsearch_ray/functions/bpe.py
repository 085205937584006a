"""Distributed BPE tokenizer training + encoding (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units" — public).

Training a subword vocabulary is the step every LLM data pipeline runs
between corpus curation and tokenization; at 100 TB it has to be a
distributed counting problem, not a single-node dict loop.

Shape at scale (the part that must hold at 100 TB):
  - `word_counts` is ONE explode pass with per-batch pre-aggregation
    (each batch ships its distinct words, not token occurrences) into a
    `groupby("word").sum()` — the classic BPE trick of training on the
    distinct-word frequency table, which is vocabulary-bounded (~10^7-10^8
    rows for web corpora) while the corpus is not.
  - every merge iteration is two streaming passes over that word table:
    (1) pair counting: map_batches emits per-batch-distinct (left, right,
        weighted count) partials → groupby(left, right).sum — the exchange
        carries per-batch pair vocabularies;
    (2) the global argmax pair comes from per-batch partial top-1 + a tiny
        driver merge (the ANN top-k pattern; ties break on (left, right)
        ascending so runs are deterministic);
    (3) merge application is a stateless vectorized map_batches over the
        symbol lists (flattened offsets, no per-word Python loop).
    The word table is re-materialized once per iteration (k merges = k
    bounded materializations of the vocabulary table, never the corpus).
  - `encode` is an actor-pool stage: the merge ranks load once per actor
    in __init__; per batch it segments the batch-DISTINCT words only and
    joins back through an LRU word cache (web text repeats words heavily).

Reference analog: Elasticsearch has no trainer, but SURVEY.md's LLM-
pipeline section requires tokenizer preparation; the per-word greedy
lowest-rank merge loop in `_segment_word` is the same algorithm the
public GPT-2/SentencePiece BPE encoders use.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

END = "</w>"


def word_counts(ds, *, text_col: str = "text"):
    """Distinct-word frequency table as a Dataset of (word, freq)."""
    from .lm import _tokens

    def explode(t: pa.Table) -> pa.Table:
        toks = np.concatenate(
            [np.asarray(_tokens(x), dtype=object)
             for x in t[text_col].to_pylist()] or [np.empty(0, dtype=object)])
        uniq, cnt = np.unique(toks.astype(str), return_counts=True)
        return pa.table({"word": pa.array(uniq, pa.string()),
                         "freq": pa.array(cnt, pa.int64())})

    from .exchange import bucketed_sum

    return bucketed_sum(ds.map_batches(explode, batch_format="pyarrow"),
                        ["word"], "freq", out_name="freq")


def _to_symbols(t: pa.Table) -> pa.Table:
    """(word, freq) -> (syms: list<string>, freq): characters + END marker."""
    syms = [list(w) + [END] for w in t["word"].to_pylist()]
    return pa.table({"syms": pa.array(syms, pa.list_(pa.string())),
                     "freq": t["freq"]})


def _flatten(t: pa.Table):
    """Return (flat symbols object-array, word offsets int64[n+1], freq)."""
    import pyarrow.compute as pc

    col = t["syms"]
    if isinstance(col, pa.ChunkedArray):
        col = (col.combine_chunks() if col.num_chunks
               else pa.array([], pa.list_(pa.string())))
    lens = np.asarray(pc.list_value_length(col), dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    flat = np.asarray(col.flatten().to_pylist(), dtype=object)
    freq = np.asarray(t["freq"], dtype=np.int64)
    return flat, offs, freq


def _pair_partials(t: pa.Table) -> pa.Table:
    """Per-batch pre-aggregated weighted adjacent-pair counts."""
    flat, offs, freq = _flatten(t)
    if len(flat) == 0:
        return pa.table({"left_sym": pa.array([], pa.string()),
                         "right_sym": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64())})
    n = len(freq)
    # position i pairs with i+1 unless i is the last symbol of its word
    word_of = np.repeat(np.arange(n), np.diff(offs))
    valid = np.ones(len(flat), dtype=bool)
    valid[offs[1:] - 1] = False  # last symbol of each word
    li = np.flatnonzero(valid)
    key = np.char.add(np.char.add(flat[li].astype(str), "\x1f"),
                      flat[li + 1].astype(str))
    w = freq[word_of[li]]
    # in-batch aggregation: ship distinct pairs only
    uniq, inv = np.unique(key, return_inverse=True)
    csum = np.bincount(inv, weights=w).astype(np.int64)
    lr = np.char.partition(uniq, "\x1f")
    return pa.table({"left_sym": pa.array(lr[:, 0], pa.string()),
                     "right_sym": pa.array(lr[:, 2], pa.string()),
                     "c": pa.array(csum, pa.int64())})


def pair_counts(words_ds):
    """Weighted adjacent-symbol pair counts over the initial character
    vocabulary: Dataset of (left_sym, right_sym, c)."""
    from .exchange import bucketed_sum

    return bucketed_sum(
        words_ds.map_batches(_to_symbols, batch_format="pyarrow")
        .map_batches(_pair_partials, batch_format="pyarrow"),
        ["left_sym", "right_sym"], "c", out_name="c")


def _top1(t: pa.Table) -> pa.Table:
    """Partial argmax by (c desc, left asc, right asc) within a batch."""
    if t.num_rows == 0:
        return t
    df = t.to_pandas()
    df = df.sort_values(["c", "left_sym", "right_sym"],
                        ascending=[False, True, True], kind="stable")
    return pa.Table.from_pandas(df.head(1), preserve_index=False)


def _apply_merge(t: pa.Table, a: str, b: str) -> pa.Table:
    """Rewrite symbol lists merging adjacent (a, b) -> a+b, greedy
    left-to-right with non-overlap (matters only when a == b: in a run of
    equal symbols every other occurrence merges, like the serial loop)."""
    flat, offs, freq = _flatten(t)
    if len(flat) == 0:
        return t
    fs = flat.astype(str)
    m = np.flatnonzero((fs[:-1] == a) & (fs[1:] == b))
    # drop matches whose second symbol is the first symbol of the next word
    word_end = offs[1:] - 1
    m = m[~np.isin(m, word_end)]
    if len(m) == 0:
        return t
    if a == b:
        # greedy non-overlap inside runs: keep every other consecutive index
        keep = np.ones(len(m), dtype=bool)
        for i in range(1, len(m)):
            if m[i] == m[i - 1] + 1 and keep[i - 1]:
                keep[i] = False
        m = m[keep]
    out = flat.copy()
    out[m] = a + b
    out = np.delete(out, m + 1)
    # each merge removes one symbol from its word
    per_word = np.bincount(np.searchsorted(offs[1:], m, side="right"),
                           minlength=len(freq))
    new_lens = np.diff(offs) - per_word
    syms = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(new_lens)]), pa.int32()),
        pa.array(out.tolist(), pa.string()))
    return pa.table({"syms": syms, "freq": pa.array(freq, pa.int64())})


def train_bpe(ds, num_merges: int, *, text_col: str = "text") -> pd.DataFrame:
    """Learn `num_merges` BPE merges; returns DataFrame
    (rank, left_sym, right_sym, c) in merge order."""
    words = (word_counts(ds, text_col=text_col)
             .map_batches(_to_symbols, batch_format="pyarrow")
             .materialize())
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(num_merges):
        from .exchange import bucketed_sum

        partials = (bucketed_sum(
                        words.map_batches(_pair_partials,
                                          batch_format="pyarrow"),
                        ["left_sym", "right_sym"], "c", out_name="c")
                    .map_batches(_top1, batch_format="pyarrow")
                    .take_all())
        if not partials:
            break
        best = min(partials,
                   key=lambda r: (-r["c"], r["left_sym"], r["right_sym"]))
        a, b = best["left_sym"], best["right_sym"]
        merges.append((rank, a, b, int(best["c"])))
        words = words.map_batches(
            lambda t, a=a, b=b: _apply_merge(t, a, b),
            batch_format="pyarrow").materialize()
    return pd.DataFrame(merges,
                        columns=["rank", "left_sym", "right_sym", "c"])


def train_bpe_local(word_freq: dict[str, int], num_merges: int) -> list[tuple]:
    """Serial reference implementation (differential-test twin): the
    classic Sennrich dict loop. Returns [(rank, left, right, count)]."""
    vocab = {tuple(list(w) + [END]): f for w, f in word_freq.items()}
    merges = []
    for rank in range(num_merges):
        pairs: dict[tuple[str, str], int] = {}
        for syms, f in vocab.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + f
        if not pairs:
            break
        (a, b), c = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank, a, b, c))
        new_vocab = {}
        for syms, f in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + f
        vocab = new_vocab
    return merges


class EncodeStage:
    """Actor-pool BPE encoder: merge ranks load once per actor; per batch
    it segments batch-distinct words through a persistent word cache and
    emits per-doc subword token counts (the tokenize step of a training
    pipeline; swap the output for the tokens themselves as needed)."""

    def __init__(self, merges: list[tuple[str, str]], text_col: str = "text"):
        self.ranks = {(a, b): i for i, (a, b) in enumerate(merges)}
        self.text_col = text_col
        self.cache: dict[str, int] = {}

    def _segment_word(self, w: str) -> int:
        syms = list(w) + [END]
        ranks = self.ranks
        while len(syms) > 1:
            best, bi = None, -1
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best is None or r < best):
                    best, bi = r, i
            if best is None:
                break
            syms[bi:bi + 2] = [syms[bi] + syms[bi + 1]]
        return len(syms)

    def __call__(self, t: pa.Table) -> pa.Table:
        from .lm import _tokens

        counts = []
        for text in t[self.text_col].to_pylist():
            total = 0
            for w in _tokens(text):
                n = self.cache.get(w)
                if n is None:
                    n = self._segment_word(w)
                    if len(self.cache) < 2_000_000:
                        self.cache[w] = n
                total += n
            counts.append(total)
        return t.append_column("bpe_subwords", pa.array(counts, pa.int64()))


def encode_token_counts(ds, merges: list[tuple[str, str]], *,
                        text_col: str = "text", concurrency: int = 4):
    """Per-doc BPE subword counts using a trained merge list."""
    return ds.map_batches(EncodeStage, fn_constructor_args=(merges, text_col),
                          max_restarts=0,
                          batch_format="pyarrow", concurrency=concurrency)


# ---------------------------------------------------------------------------
# Unigram-LM tokenizer (Kudo 2018, "Subword Regularization" — the
# SentencePiece unigram trainer; public). The OTHER mainstream subword
# trainer next to BPE: start from an over-complete candidate vocabulary,
# EM-fit piece probabilities under Viterbi segmentation, prune to size.
#
# Scale shape (mirrors the BPE trainer above): everything runs over the
# DISTINCT-WORD frequency table (vocabulary-bounded), never the corpus.
# Each EM iteration is one map_batches over that word table with the
# current model broadcast via ray.put (per-batch Viterbi over
# batch-distinct words, piece-count partials) -> one bucketed-exchange
# sum at piece cardinality -> a vocab-sized table on the driver. The
# corpus itself is touched exactly once (word_counts).


def _viterbi_segment(word: str, logp: dict, max_len: int) -> list[str]:
    """Best segmentation of `word` under piece log-probs (standard
    Viterbi over character positions; unknown single chars get a large
    penalty so every word stays segmentable)."""
    n = len(word)
    best = [0.0] + [-1e18] * n
    back = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            piece = word[j:i]
            lp = logp.get(piece)
            if lp is None:
                if i - j > 1:
                    continue
                lp = -1e9  # unknown char fallback
            sc = best[j] + lp
            if sc > best[i]:
                best[i] = sc
                back[i] = j
    out = []
    i = n
    while i > 0:
        j = back[i]
        out.append(word[j:i])
        i = j
    return out[::-1]


def fit_unigram_tokenizer(ds, *, vocab_size: int = 200, max_piece_len: int = 6,
                          em_iters: int = 3, seed_multiple: int = 4,
                          text_col: str = "text",
                          prune_fraction: float = 0.25) -> dict:
    """Train a unigram-LM subword vocabulary; returns {piece: logprob}.

    1. seed: substring counts of the distinct-word table (one
       map_batches explode, bucketed-exchange sum at substring
       cardinality), top `seed_multiple x vocab_size` by freq x len,
       plus every single character (closure guarantee);
    2. EM x `em_iters`: E-step = per-batch Viterbi piece counts with
       the model broadcast once per iteration (ray.put); M-step =
       normalize; then prune the lowest-probability multi-char pieces
       (at most `prune_fraction` per round) toward `vocab_size`;
    3. after the last round, prune the rest of the way: the result holds
       at most max(vocab_size, number of distinct characters) pieces,
       every single character included.
    Deterministic: no sampling anywhere; ties break lexicographically.
    """
    import math

    import ray

    from .exchange import bucketed_sum

    words = word_counts(ds, text_col=text_col).materialize()

    # --- seed candidates: all substrings up to max_piece_len ---
    def explode_subs(t: pa.Table) -> pa.Table:
        ws = t["word"].to_pylist()
        fs = t["freq"].to_numpy()
        agg: dict = {}
        for w, f in zip(ws, fs):
            f = int(f)
            n = len(w)
            for i in range(n):
                for L in range(1, min(max_piece_len, n - i) + 1):
                    p = w[i:i + L]
                    agg[p] = agg.get(p, 0) + f
        if not agg:
            return pa.table({"piece": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"piece": pa.array(list(agg.keys()), pa.string()),
                         "cnt": pa.array(list(agg.values()), pa.int64())})

    subs = bucketed_sum(words.map_batches(explode_subs,
                                          batch_format="pyarrow"),
                        ["piece"], "cnt", out_name="cnt").to_pandas()
    subs["score"] = subs["cnt"] * subs["piece"].str.len()
    chars = subs[subs["piece"].str.len() == 1]
    multi = (subs[subs["piece"].str.len() > 1]
             .sort_values(["score", "piece"], ascending=[False, True])
             .head(seed_multiple * vocab_size))
    vocab = pd.concat([chars, multi])
    total = float(vocab["cnt"].sum())
    logp = {p: math.log(c / total)
            for p, c in zip(vocab["piece"], vocab["cnt"])}

    # --- EM + prune rounds over the word table ---
    for _ in range(em_iters):
        model_ref = ray.put((dict(logp), max_piece_len))

        def estep(t: pa.Table, ref=model_ref) -> pa.Table:
            lp, ml = ray.get(ref)
            agg: dict = {}
            for w, f in zip(t["word"].to_pylist(), t["freq"].to_numpy()):
                for piece in _viterbi_segment(w, lp, ml):
                    agg[piece] = agg.get(piece, 0) + int(f)
            if not agg:
                return pa.table({"piece": pa.array([], pa.string()),
                                 "cnt": pa.array([], pa.int64())})
            return pa.table({"piece": pa.array(list(agg.keys()), pa.string()),
                             "cnt": pa.array(list(agg.values()), pa.int64())})

        counts = bucketed_sum(words.map_batches(estep,
                                                batch_format="pyarrow"),
                              ["piece"], "cnt", out_name="cnt").to_pandas()
        total = float(counts["cnt"].sum())
        used = {p: math.log(c / total)
                for p, c in zip(counts["piece"], counts["cnt"])}
        # unused pieces die; chars always survive with a floor prob
        floor = math.log(0.5 / total)
        logp = {p: used.get(p, floor if len(p) == 1 else None)
                for p in logp}
        logp = {p: v for p, v in logp.items() if v is not None}
        _prune_pieces(logp, vocab_size, prune_fraction)
    # the rounds prune at most prune_fraction each: finish the cut
    _prune_pieces(logp, vocab_size, None)
    return logp


def _prune_pieces(logp: dict, vocab_size: int, fraction: float | None) -> None:
    """Drop the lowest-logprob multi-char pieces (ties: lexicographic)
    toward `vocab_size` pieces in all, at most `fraction` of them when
    given; single characters always stay."""
    multi = [p for p in logp if len(p) > 1]
    target = max(0, vocab_size - (len(logp) - len(multi)))
    drop = len(multi) - target
    if fraction is not None:
        drop = min(drop, max(1, int(len(multi) * fraction)))
    if drop > 0:
        for p in sorted(multi, key=lambda p: (logp[p], p))[:drop]:
            del logp[p]


class UnigramEncodeStage:
    """Actor-pool encode: model loads once per actor; per batch only the
    batch-DISTINCT words run Viterbi (word-level cache, like the BPE
    EncodeStage)."""

    def __init__(self, logp: dict, max_piece_len: int = 6,
                 text_col: str = "text"):
        self.logp = logp
        self.ml = max_piece_len
        self.text_col = text_col
        self.cache: dict = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        from .lm import _tokens

        counts = []
        for text in t[self.text_col].to_pylist():
            n = 0
            for w in _tokens(text):
                c = self.cache.get(w)
                if c is None:
                    c = self.cache[w] = len(
                        _viterbi_segment(w, self.logp, self.ml))
                n += c
            counts.append(n)
        return t.append_column("unigram_subwords",
                               pa.array(counts, pa.int64()))


def unigram_encode_counts(ds, logp: dict, *, max_piece_len: int = 6,
                          text_col: str = "text", concurrency: int = 4):
    """Per-doc unigram-LM subword counts with a trained vocabulary."""
    return ds.map_batches(
        UnigramEncodeStage,
        fn_constructor_args=(logp, max_piece_len, text_col),
        max_restarts=0, batch_format="pyarrow", concurrency=concurrency)
