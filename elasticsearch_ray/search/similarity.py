"""BM25 similarity — the exact math to reproduce (SURVEY.md §2.14).

Defaults from the reference: k1=1.2, b=0.75, discount_overlaps=true
(index/similarity/SimilarityProviders.java:272-280), BM25 as the default
similarity (index/similarity/SimilarityService.java:77-80, backed by Lucene's
LegacyBM25Similarity which keeps the (k1+1) numerator factor).

[Lucene 8.5, public knowledge] arithmetic reproduced for rank-identity:
    idf    = ln(1 + (N - df + 0.5) / (df + 0.5))            (double -> float)
    weight = boost * idf * (k1 + 1)                          (float)
    cache[i] = k1 * ((1 - b) + b * LENGTH_TABLE[i] / avgdl)  (float[256])
    score(freq, norm_byte) = weight * (float)(freq / (freq + cache[norm_byte]))
with LENGTH_TABLE = SmallFloat.byte4ToInt decode table and
avgdl = sumTotalTermFreq / docCount over the GLOBAL stats scope (our engine
always computes global stats — equivalent to the reference in single-shard or
dfs_query_then_fetch mode; parity scope pinned per SURVEY.md §2.14).

`mode="exact64"` disables the 1-byte norm quantization and float32 rounding —
scores become plain float64 BM25 over exact doc lengths. This mode exists so
DuckDB SQL oracles (which cannot reproduce SmallFloat) can verify the engine
value-for-value.
"""

from __future__ import annotations

import numpy as np

from ..smallfloat import DECODE_TABLE

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


class BM25:
    def __init__(self, k1: float = K1_DEFAULT, b: float = B_DEFAULT, mode: str = "lucene"):
        if mode not in ("lucene", "exact64"):
            raise ValueError(f"unknown BM25 mode {mode!r}")
        self.k1, self.b, self.mode = k1, b, mode

    def idf(self, df: int, n_docs: int) -> float:
        v = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        return np.float32(v) if self.mode == "lucene" else float(v)

    def weight(self, df: int, n_docs: int, boost: float = 1.0) -> float:
        if self.mode == "lucene":
            # Lucene grouping: LegacyBM25Similarity passes boost*(k1+1) into
            # BM25Similarity.scorer, which multiplies by idf — i.e.
            # (boost*(k1+1))*idf with float32 rounding at each step.
            return (np.float32(boost) * (np.float32(self.k1) + np.float32(1.0))
                    ) * np.float32(self.idf(df, n_docs))
        return boost * self.idf(df, n_docs) * (self.k1 + 1)

    def norm_cache(self, avgdl: float) -> np.ndarray:
        """float32[256]: k1 * ((1-b) + b * decoded_len / avgdl) per norm byte.
        Each arithmetic op rounds to float32, mirroring the Java float
        expression `k1 * ((1 - b) + b * LENGTH_TABLE[i] / avgdl)`."""
        tbl = DECODE_TABLE.astype(np.float32)
        k1, b = np.float32(self.k1), np.float32(self.b)
        return k1 * ((np.float32(1.0) - b) + b * tbl / np.float32(avgdl))

    def score_tf(
        self,
        tfs: np.ndarray,
        norm_bytes: np.ndarray | None,
        doc_lens: np.ndarray | None,
        avgdl: float,
        weight: float,
        cache: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized per-doc scores for one term (or one phrase).

        lucene: weight(f32) * float32( tf / (tf + float64(cache[norm_byte])) )
        exact64: weight * tf / (tf + k1*(1-b+b*doc_len/avgdl)) all float64
        """
        if self.mode == "lucene":
            if cache is None:
                cache = self.norm_cache(avgdl)
            norm = cache[norm_bytes].astype(np.float64)
            tf64 = tfs.astype(np.float64)
            frac = (tf64 / (tf64 + norm)).astype(np.float32)
            return (np.float32(weight) * frac).astype(np.float32)
        dl = doc_lens.astype(np.float64)
        tf64 = tfs.astype(np.float64)
        denom = tf64 + self.k1 * ((1.0 - self.b) + self.b * dl / avgdl)
        return weight * tf64 / denom
