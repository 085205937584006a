"""Unigram-LM corpus scoring for training-data curation:

- CCNet-style perplexity quality filtering (Wenzek et al. 2020, public —
  production CCNet scores with a wiki-trained KenLM 5-gram; here the model
  is an add-alpha unigram LM so the whole pipeline is deterministic and
  DuckDB-oracle-checkable. The scorer stage takes the model as plain
  arrays, so swapping in a heavier LM is a one-class change).
- DSIR importance weighting (Xie et al. 2023, public): per-document
  likelihood ratio between a target-domain LM and the raw-corpus LM,
  used to importance-resample a raw corpus toward a target domain.

Shapes at scale: LM training is one token-explode map_batches with
per-batch pre-aggregation (each batch emits (token, count) partials, so
the exchange carries per-batch vocab rows, not one row per token
occurrence) into a groupby-sum. That explode is `count_batch`, the
tokenize-and-count kernel the text gates in pipelines/ops.py and the
build's hot-term sampler share (`count_terms` is its Dataset form). The
fitted model is vocabulary-bounded and broadcast once via ray.put (the
IVF-centroid pattern); scoring is a stateless map_batches with one
np.searchsorted per batch + segment means via np.add.reduceat — no
Python loop over tokens. For unbounded web
vocabularies pass `num_hash_buckets` to hash tokens into a fixed-size
feature space (exactly DSIR's hashed n-gram trick); the gates use the
raw-token mode, which SQL can mirror."""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

_WS = re.compile(r"\s+")


class UnigramLM(NamedTuple):
    vocab: np.ndarray      # sorted token array (str or uint64 buckets)
    logp: np.ndarray       # float64, aligned with vocab
    oov_logp: float


def _tokens(text: str) -> list[str]:
    return [w for w in _WS.split(text.lower()) if w]


def _hash_tokens(tok: np.ndarray, num_buckets: int) -> np.ndarray:
    # deterministic vectorized string hash (pandas siphash, fixed key);
    # hash_object_array needs object dtype, not numpy unicode
    if tok.dtype != object:
        tok = tok.astype(object)
    return (pd.util.hash_array(tok, categorize=False) % num_buckets)


def count_batch(t: pa.Table, analyze, text_col: str = "text",
                key: str = "term", *, distinct: bool = False,
                fg=None) -> pa.Table:
    """The tokenize-and-count kernel: one batch of docs -> pre-aggregated
    (key, cnt[, fg]) partials.

    `analyze` maps one text to its token list; a null text yields no
    tokens (as SQL's regexp_split_to_array(lower(NULL)) does).
    `distinct=True` counts a key once per doc (df, not occurrences).
    `fg(batch, per_doc_tokens) -> bool[n_docs]` marks foreground docs;
    their counts also go to the `fg` column. Every doc's tokens are
    flattened once, then one pd.factorize + np.bincount: no per-token
    Python dict updates."""
    toks = [analyze(x) if x is not None else []
            for x in t[text_col].to_pylist()]
    lens = np.fromiter(map(len, toks), np.int64, len(toks))
    codes, uniq = pd.factorize(
        np.asarray(list(itertools.chain.from_iterable(toks)), dtype=object))
    doc = np.repeat(np.arange(len(toks)), lens)
    if distinct:
        doc, codes = np.divmod(np.unique(doc * len(uniq) + codes),
                               max(len(uniq), 1))
    cols = {key: pa.array(np.asarray(uniq, dtype=object), pa.string()),
            "cnt": np.bincount(codes, minlength=len(uniq))}
    if fg is not None:
        mask = np.asarray(fg(t, toks), dtype=bool)[doc]
        cols["fg"] = np.bincount(codes[mask], minlength=len(uniq))
    return pa.table(cols)


def count_terms(ds, analyze, text_col: str = "text", key: str = "term", *,
                distinct: bool = False, fg=None) -> pd.DataFrame:
    """Dataset form of count_batch: per-batch partials, then Ray Data's
    native groupby(key) Sum -> pandas (key, cnt[, fg]) int64. The text
    gates' vocabularies are small enough that the native groupby beats
    the bucketed exchange (see functions/exchange.py); unigram_counts
    keeps bucketed_sum for corpus-scale vocabularies."""
    from ray.data.aggregate import Sum

    sums = ["cnt"] + (["fg"] if fg is not None else [])
    out = (ds.map_batches(count_batch, batch_format="pyarrow",
                          fn_kwargs={"analyze": analyze, "text_col": text_col,
                                     "key": key, "distinct": distinct,
                                     "fg": fg})
           .groupby(key)
           .aggregate(*(Sum(c, alias_name=c) for c in sums))
           .to_pandas())
    return out.astype({c: np.int64 for c in sums})


def unigram_counts(ds, *, text_col: str = "text",
                   num_hash_buckets: int | None = None):
    """Distributed token counts: (token, c) Dataset. Pre-aggregates within
    each batch (count_batch) so the exchange ships per-batch vocabularies."""

    def explode(t: pa.Table) -> pa.Table:
        p = count_batch(t, _tokens, text_col, "token")
        if num_hash_buckets is None:
            return p
        key = _hash_tokens(p["token"].to_numpy(zero_copy_only=False),
                           num_hash_buckets)
        uniq, inv = np.unique(key, return_inverse=True)
        return pa.table({"token": pa.array(uniq, pa.uint64()),
                         "cnt": np.bincount(inv, weights=p["cnt"].to_numpy(),
                                            minlength=len(uniq)
                                            ).astype(np.int64)})

    # bucketed exchange, NOT groupby(token): Ray's sort-based groupby
    # pays per-GROUP overhead at vocabulary cardinality (see
    # functions/exchange.py and SCALE.md Round-4)
    from .exchange import bucketed_sum

    return bucketed_sum(ds.map_batches(explode, batch_format="pyarrow"),
                        ["token"], "cnt", out_name="c")


def fit_unigram_lm(ds, *, text_col: str = "text", alpha: float = 0.5,
                   num_hash_buckets: int | None = None) -> UnigramLM:
    """Add-alpha-smoothed unigram LM over `ds` (the model is
    vocabulary-bounded — the only thing that ever reaches the driver)."""
    counts = unigram_counts(ds, text_col=text_col,
                            num_hash_buckets=num_hash_buckets).to_pandas()
    vocab = counts["token"].to_numpy()
    order = np.argsort(vocab, kind="stable")
    vocab = vocab[order]
    c = counts["c"].to_numpy().astype(np.float64)[order]
    n = float(c.sum())
    v = float(len(vocab))
    denom = n + alpha * (v + 1.0)
    return UnigramLM(vocab=vocab, logp=np.log((c + alpha) / denom),
                     oov_logp=float(np.log(alpha / denom)))


class _ScoreStage:
    """Actor-pool scorer: the model rides the object store once per actor
    (ray.put'd refs in fn_constructor_kwargs); per batch, ONE flattened
    lookup + segment means."""

    def __init__(self, models, text_col: str, id_col: str, out_cols,
                 num_hash_buckets: int | None):
        import ray
        self.models = [ray.get(m) if not isinstance(m, UnigramLM) else m
                       for m in models]
        self.text_col = text_col
        self.id_col = id_col
        self.out_cols = out_cols
        self.num_hash_buckets = num_hash_buckets

    def _mean_logp(self, model: UnigramLM, flat: np.ndarray,
                   lens: np.ndarray) -> np.ndarray:
        if self.num_hash_buckets is not None:
            flat = _hash_tokens(flat, self.num_hash_buckets)
        pos = np.searchsorted(model.vocab, flat)
        pos_c = np.clip(pos, 0, len(model.vocab) - 1)
        hit = (pos < len(model.vocab)) & (model.vocab[pos_c] == flat)
        lp = np.where(hit, model.logp[pos_c], model.oov_logp)
        ends = np.cumsum(lens)
        starts = ends - lens
        sums = np.add.reduceat(lp, starts) if len(lp) else np.zeros(0)
        return sums / lens

    def __call__(self, t: pa.Table) -> pa.Table:
        toks = [np.asarray(_tokens(x), dtype=object)
                for x in t[self.text_col].to_pylist()]
        lens = np.array([s.size for s in toks], dtype=np.int64)
        keep = lens > 0  # token-less docs have no defined perplexity
        toks = [s for s, k in zip(toks, keep) if k]
        lens = lens[keep]
        ids = t[self.id_col].to_numpy()[keep]
        if not len(ids):
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             **{c: pa.array([], pa.float64())
                                for c in self.out_cols}})
        flat = np.concatenate(toks).astype(str)
        means = [self._mean_logp(m, flat, lens) for m in self.models]
        cols = {self.id_col: pa.array(ids.astype(np.int64))}
        for name, val in zip(self.out_cols, self._finish(means, lens)):
            cols[name] = (pa.array(val.astype(np.float64))
                          if val.dtype != object else
                          pa.array(val, pa.string()))
        return pa.table(cols)

    def _finish(self, means, lens):  # override per op
        raise NotImplementedError


class _PplStage(_ScoreStage):
    def _finish(self, means, lens):
        return [np.exp(-means[0])]


class _DsirStage(_ScoreStage):
    def _finish(self, means, lens):
        return [means[0] - means[1]]


# per-worker-process stage cache for TASK-based scoring: tasks on the
# same worker process reuse the constructed stage (model ray.get'd once
# per process — plasma gets are zero-copy local anyway), so the scorer
# runs as elastic tasks with no actor-pool spin-up latency while keeping
# the one-deserialize-per-worker amortization the actor pool gave.
_STAGE_CACHE: dict = {}


def _task_stage(cls, refs, kwargs, *, ref_param: str = "models"):
    key = (cls.__name__,
           tuple(r.hex() if hasattr(r, "hex") else str(id(r)) for r in refs),
           tuple(sorted((k, str(v)) for k, v in kwargs.items())))
    ref_kw = {ref_param: refs if ref_param == "models" else refs[0]}

    def f(t: pa.Table, _key=key) -> pa.Table:
        st = _STAGE_CACHE.get(_key)
        if st is None:
            st = _STAGE_CACHE[_key] = cls(**ref_kw, **kwargs)
        return st(t)

    return f


def perplexity(ds, model: UnigramLM, *, text_col: str = "text",
               id_col: str = "doc_id", concurrency=2,
               num_hash_buckets: int | None = None):
    """(id, ppl) Dataset: ppl = exp(-mean token log-prob) under `model`.
    Docs with no tokens are dropped (no defined perplexity).
    `concurrency` is accepted for API compatibility; the scorer runs as
    elastic TASKS with a per-worker-process model cache since round 4,
    so no actor-pool sizing applies."""
    import ray

    ref = ray.put(model)
    return ds.map_batches(
        _task_stage(_PplStage, [ref],
                    dict(text_col=text_col, id_col=id_col,
                         out_cols=["ppl"],
                         num_hash_buckets=num_hash_buckets)),
        batch_format="pyarrow", batch_size=512)


def importance_weights(ds, target: UnigramLM, source: UnigramLM, *,
                       text_col: str = "text", id_col: str = "doc_id",
                       concurrency=2, num_hash_buckets: int | None = None):
    """DSIR: (id, weight) Dataset, weight = mean_w [ln p_target(w) -
    ln p_source(w)] — the per-token log likelihood ratio. Resample the
    corpus by keeping the top-weight slice (or Gumbel-top-k for sampling
    without replacement, per the paper)."""
    import ray

    refs = [ray.put(target), ray.put(source)]
    return ds.map_batches(
        _task_stage(_DsirStage, refs,
                    dict(text_col=text_col, id_col=id_col,
                         out_cols=["weight"],
                         num_hash_buckets=num_hash_buckets)),
        batch_format="pyarrow", batch_size=512)


class BigramLM(NamedTuple):
    """Jelinek-Mercer interpolated bigram LM: p(w|prev) = lam * c(prev,w)/
    ctx(prev) + (1-lam) * p_uni(w), first token scored by the unigram.
    ctx(prev) = number of bigrams starting with prev (token occurrences
    minus doc-final positions) — NOT the unigram count."""

    vocab: np.ndarray       # sorted tokens
    uni_p: np.ndarray       # smoothed unigram probs aligned with vocab
    oov_p: float
    ctx: np.ndarray         # context counts aligned with vocab (float64)
    bigram_keys: np.ndarray  # sorted "prev\x1fw" strings
    bigram_c: np.ndarray    # counts aligned with bigram_keys
    lam: float


def _bigrams(text: str) -> list[str]:
    toks = _tokens(text)
    return [a + "\x1f" + b for a, b in zip(toks, toks[1:])]


def bigram_counts(ds, *, text_col: str = "text"):
    """Distributed (prev, w) pair counts: (key, c) Dataset with key =
    prev + "\\x1f" + w, pre-aggregated per batch (count_batch)."""
    from .exchange import bucketed_sum

    return bucketed_sum(
        ds.map_batches(count_batch, batch_format="pyarrow",
                       fn_kwargs={"analyze": _bigrams, "text_col": text_col,
                                  "key": "key"}),
        ["key"], "cnt", out_name="c")


def fit_bigram_lm(ds, *, text_col: str = "text", alpha: float = 0.5,
                  lam: float = 0.7) -> BigramLM:
    uni = fit_unigram_lm(ds, text_col=text_col, alpha=alpha)
    bg = bigram_counts(ds, text_col=text_col).to_pandas()
    keys = bg["key"].to_numpy().astype(str)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    c = bg["c"].to_numpy().astype(np.float64)[order]
    # context counts: sum of bigram counts per first token
    prev = np.asarray([k.split("\x1f", 1)[0] for k in keys], dtype=str)
    ctx = np.zeros(len(uni.vocab), np.float64)
    pos = np.searchsorted(uni.vocab.astype(str), prev)
    np.add.at(ctx, pos, c)  # every bigram's prev is in-vocab by construction
    return BigramLM(vocab=uni.vocab, uni_p=np.exp(uni.logp),
                    oov_p=float(np.exp(uni.oov_logp)), ctx=ctx,
                    bigram_keys=keys, bigram_c=c, lam=lam)


class _BigramPplStage:
    """Actor-pool scorer for the interpolated bigram LM — one flattened
    vocab lookup + one flattened bigram-key lookup per batch."""

    def __init__(self, model, text_col: str, id_col: str):
        import ray
        self.m = ray.get(model) if not isinstance(model, BigramLM) else model
        self.text_col = text_col
        self.id_col = id_col
        self._vocab = self.m.vocab.astype(str)

    def __call__(self, t: pa.Table) -> pa.Table:
        m = self.m
        toks = [np.asarray(_tokens(x), dtype=str)
                for x in t[self.text_col].to_pylist()]
        lens = np.array([s.size for s in toks], dtype=np.int64)
        keep = lens > 0
        toks = [s for s, k in zip(toks, keep) if k]
        lens = lens[keep]
        ids = t[self.id_col].to_numpy()[keep]
        if not len(ids):
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "ppl": pa.array([], pa.float64())})
        flat = np.concatenate(toks)
        ends = np.cumsum(lens)
        starts = ends - lens
        # unigram prob for every token
        pos = np.searchsorted(self._vocab, flat)
        pos_c = np.clip(pos, 0, len(self._vocab) - 1)
        hit = (pos < len(self._vocab)) & (self._vocab[pos_c] == flat)
        pu = np.where(hit, m.uni_p[pos_c], m.oov_p)
        ctx = np.where(hit, m.ctx[pos_c], 0.0)
        # bigram prob for every non-first position
        first = np.zeros(len(flat), dtype=bool)
        first[starts] = True
        prev_pu_ctx = np.empty_like(ctx)
        prev_pu_ctx[1:] = ctx[:-1]
        prev_pu_ctx[starts] = 0.0
        prev_tok = np.empty_like(flat)
        prev_tok[1:] = flat[:-1]
        prev_tok[starts] = ""
        keys = np.char.add(np.char.add(prev_tok, "\x1f"), flat)
        bpos = np.searchsorted(m.bigram_keys, keys)
        bpos_c = np.clip(bpos, 0, max(len(m.bigram_keys) - 1, 0))
        if len(m.bigram_keys):
            bhit = (bpos < len(m.bigram_keys)) & (m.bigram_keys[bpos_c] == keys)
            bc = np.where(bhit, m.bigram_c[bpos_c], 0.0)
        else:
            bc = np.zeros(len(flat))
        bg = np.where(prev_pu_ctx > 0, bc / np.maximum(prev_pu_ctx, 1.0), 0.0)
        p = np.where(first, pu, m.lam * bg + (1.0 - m.lam) * pu)
        lp = np.log(p)
        sums = np.add.reduceat(lp, starts)
        ppl = np.exp(-sums / lens)
        return pa.table({self.id_col: pa.array(ids.astype(np.int64)),
                         "ppl": pa.array(ppl.astype(np.float64))})


def bigram_perplexity(ds, model: BigramLM, *, text_col: str = "text",
                      id_col: str = "doc_id", concurrency=2):
    """(id, ppl) under the interpolated bigram LM; token-less docs drop."""
    import ray

    ref = ray.put(model)
    return ds.map_batches(
        _task_stage(_BigramPplStage, [ref],
                    dict(text_col=text_col, id_col=id_col),
                    ref_param="model"),
        batch_format="pyarrow", batch_size=512)


class _NbStage(_ScoreStage):
    """Two-class multinomial Naive Bayes: log_odds = ln(prior_a/prior_b)
    + sum_w [ln p_a(w) - ln p_b(w)]."""

    def __init__(self, models, text_col, id_col, out_cols,
                 num_hash_buckets, log_prior_diff=0.0, labels=("a", "b")):
        super().__init__(models, text_col, id_col, out_cols,
                         num_hash_buckets)
        self.log_prior_diff = float(log_prior_diff)
        self.labels = labels

    def _finish(self, means, lens):
        log_odds = self.log_prior_diff + (means[0] - means[1]) * lens
        pred = np.where(log_odds > 0, self.labels[0],
                        self.labels[1]).astype(object)
        return [log_odds, pred]


def nb_classify(ds, class_a: UnigramLM, class_b: UnigramLM, *,
                log_prior_diff: float = 0.0, labels=("a", "b"),
                text_col: str = "text", id_col: str = "doc_id",
                concurrency=2, num_hash_buckets: int | None = None):
    """Two-class multinomial Naive Bayes scoring — the deterministic,
    oracle-checkable analog of the fastText/logistic quality classifiers
    real pipelines gate on (GPT-3 WebText filter, CCNet head/middle/tail).
    Returns (id, log_odds, pred); positive log_odds = class_a."""
    import ray

    refs = [ray.put(class_a), ray.put(class_b)]
    return ds.map_batches(
        _task_stage(_NbStage, refs,
                    dict(text_col=text_col, id_col=id_col,
                         out_cols=["log_odds", "pred"],
                         num_hash_buckets=num_hash_buckets,
                         log_prior_diff=log_prior_diff, labels=labels)),
        batch_format="pyarrow", batch_size=512)


def ngram_counts(ds, *, n: int = 3, text_col: str = "text",
                 bos: str = "<s>", eos: str = "</s>", min_count: int = 1):
    """KenLM-direction n-gram counting (the lmplz counting phase, public):
    per-doc token streams get BOS/EOS markers, every order-n window is
    counted. One explode pass with per-batch pre-aggregation (each batch
    ships its distinct n-grams) into a groupby-sum over the w1..wn key;
    `min_count` pruning happens after the reduce, exactly like count-file
    pruning. Returns a Dataset of (w1..wn, c)."""
    import pyarrow.compute as pc

    cols = [f"w{i + 1}" for i in range(n)]

    def ngrams(x: str) -> list[str]:
        seq = [bos] + _tokens(x) + [eos]
        return ["\x1f".join(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    def explode(t: pa.Table) -> pa.Table:
        p = count_batch(t, ngrams, text_col, "key")
        parts = pc.split_pattern(p["key"], "\x1f")
        return pa.table({**{c: pc.list_element(parts, i)
                            for i, c in enumerate(cols)}, "c": p["cnt"]})

    from .exchange import bucketed_sum

    out = bucketed_sum(ds.map_batches(explode, batch_format="pyarrow"),
                       cols, "c", out_name="c")
    if min_count > 1:
        out = out.map_batches(
            lambda t: t.filter(pc.greater_equal(t["c"], min_count)),
            batch_format="pyarrow")
    return out


class KNBigramLM(NamedTuple):
    """Interpolated Kneser-Ney bigram LM (Chen & Goodman 1999, public —
    the smoothing KenLM implements): p(w|v) = max(c(v,w)-D, 0)/c(v)
    + D*N1+(v,.)/c(v) * p_cont(w), with the continuation distribution
    p_cont(w) = (N1+(.,w) + alpha)/(T + alpha*(Vc+1)) add-alpha smoothed
    so OOV tokens keep nonzero mass; unseen contexts back off fully to
    p_cont. Sequences carry BOS/EOS markers."""

    ctx_vocab: np.ndarray    # sorted context tokens v
    ctx_c: np.ndarray        # c(v) totals, float64
    ctx_n1f: np.ndarray      # N1+(v,.) distinct continuations, float64
    bigram_keys: np.ndarray  # sorted "v\x1fw"
    bigram_c: np.ndarray     # float64
    w_vocab: np.ndarray      # sorted continuation tokens w
    w_n1b: np.ndarray        # N1+(.,w), float64
    T: float                 # distinct bigram types
    Vc: float                # distinct continuation vocabulary size
    D: float
    alpha: float
    bos: str
    eos: str


def fit_kn_bigram(ds, *, text_col: str = "text", D: float = 0.75,
                  alpha: float = 0.5, bos: str = "<s>",
                  eos: str = "</s>") -> KNBigramLM:
    """Fit from the distributed bigram count table (ngram_counts n=2 with
    BOS/EOS); only the vocabulary-bounded count tables reach the driver."""
    bg = ngram_counts(ds, n=2, text_col=text_col, bos=bos, eos=eos).to_pandas()
    v = bg["w1"].to_numpy().astype(str)
    w = bg["w2"].to_numpy().astype(str)
    c = bg["c"].to_numpy().astype(np.float64)
    keys = np.char.add(np.char.add(v, "\x1f"), w)
    order = np.argsort(keys, kind="stable")
    keys, c_sorted = keys[order], c[order]
    ctx_vocab, ctx_inv = np.unique(v, return_inverse=True)
    ctx_c = np.bincount(ctx_inv, weights=c)
    ctx_n1f = np.bincount(ctx_inv).astype(np.float64)
    w_vocab, w_inv = np.unique(w, return_inverse=True)
    w_n1b = np.bincount(w_inv).astype(np.float64)
    return KNBigramLM(ctx_vocab=ctx_vocab, ctx_c=ctx_c, ctx_n1f=ctx_n1f,
                      bigram_keys=keys, bigram_c=c_sorted,
                      w_vocab=w_vocab, w_n1b=w_n1b,
                      T=float(len(keys)), Vc=float(len(w_vocab)),
                      D=D, alpha=alpha, bos=bos, eos=eos)


class _KNPplStage:
    """Actor-pool KN scorer: model broadcast once per actor; per batch one
    flattened searchsorted per lookup table, segment means via reduceat."""

    def __init__(self, model, text_col: str, id_col: str,
                 keep_cols: tuple = ()):
        import ray
        self.m = ray.get(model) if not isinstance(model, KNBigramLM) else model
        self.text_col = text_col
        self.id_col = id_col
        self.keep_cols = keep_cols

    def __call__(self, t: pa.Table) -> pa.Table:
        m = self.m
        seqs = [np.asarray([m.bos] + _tokens(x) + [m.eos], dtype=str)
                for x in t[self.text_col].to_pylist()]
        npos = np.array([s.size - 1 for s in seqs], dtype=np.int64)
        ids = t[self.id_col].to_numpy()
        vv = np.concatenate([s[:-1] for s in seqs])
        ww = np.concatenate([s[1:] for s in seqs])
        ends = np.cumsum(npos)
        starts = ends - npos
        # continuation prob for every w
        wp = np.searchsorted(m.w_vocab, ww)
        wp_c = np.clip(wp, 0, max(len(m.w_vocab) - 1, 0))
        whit = (wp < len(m.w_vocab)) & (m.w_vocab[wp_c] == ww)
        n1b = np.where(whit, m.w_n1b[wp_c], 0.0)
        pc_ = (n1b + m.alpha) / (m.T + m.alpha * (m.Vc + 1.0))
        # context stats for every v
        vp = np.searchsorted(m.ctx_vocab, vv)
        vp_c = np.clip(vp, 0, max(len(m.ctx_vocab) - 1, 0))
        vhit = (vp < len(m.ctx_vocab)) & (m.ctx_vocab[vp_c] == vv)
        cv = np.where(vhit, m.ctx_c[vp_c], 1.0)   # dummy 1 to avoid /0
        n1f = np.where(vhit, m.ctx_n1f[vp_c], 0.0)
        # bigram counts
        keys = np.char.add(np.char.add(vv, "\x1f"), ww)
        bp = np.searchsorted(m.bigram_keys, keys)
        bp_c = np.clip(bp, 0, max(len(m.bigram_keys) - 1, 0))
        bhit = (bp < len(m.bigram_keys)) & (m.bigram_keys[bp_c] == keys)
        bc = np.where(bhit, m.bigram_c[bp_c], 0.0)
        p = np.where(vhit,
                     np.maximum(bc - m.D, 0.0) / cv + m.D * n1f / cv * pc_,
                     pc_)
        lp = np.log(p)
        ppl = np.exp(-np.add.reduceat(lp, starts) / npos)
        out = {self.id_col: pa.array(ids.astype(np.int64)),
               "ppl": pa.array(ppl.astype(np.float64))}
        for c in self.keep_cols:
            out[c] = t[c]
        return pa.table(out)


def kn_perplexity(ds, model: KNBigramLM, *, text_col: str = "text",
                  id_col: str = "doc_id", concurrency=2, keep_cols=()):
    """(id, ppl[, keep_cols]) under the interpolated Kneser-Ney bigram
    LM; keep_cols are carried through so downstream grouping needs no
    join back against the text table."""
    import ray

    ref = ray.put(model)
    return ds.map_batches(
        _task_stage(_KNPplStage, [ref],
                    dict(text_col=text_col, id_col=id_col,
                         keep_cols=tuple(keep_cols)),
                    ref_param="model"),
        batch_format="pyarrow", batch_size=512)
