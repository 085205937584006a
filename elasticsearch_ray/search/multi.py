"""Cross-index (multi-index) search.

The reference resolves comma/wildcard index expressions on the coordinating
node (action/search/TransportSearchAction.java index-name resolution via
IndexNameExpressionResolver), fans the query out to every matching index's
shards, and merges per-shard top docs (SearchPhaseController.mergeTopDocs).
Two semantics matter for parity:

- **Stats stay per-index.** Under query_then_fetch (and even dfs mode) BM25
  N/df/avgdl are computed within each index — a cross-index search never
  pools stats across indices, so the same doc text can score differently in
  two indices of different sizes.
- **indices_boost** (SearchSourceBuilder#indexBoosts) multiplies every hit's
  score by its index's boost before the merge.

Ray mapping: each index is an IndexSearcher. At scale an index is served
by actors: `DistributedSearcher` gives each actor a partition of the
segments, and `search_dataset` sends query batches to those same actors.
A multi-node deployment gives each index its own actors, and this merge is
the coordinator reduce: k×indices rows in total.
"""

from __future__ import annotations

import fnmatch

import numpy as np
import pyarrow as pa

from .engine import IndexSearcher


class IndexClosedException(Exception):
    """Addressing a closed index concretely (indices/IndexClosedException)."""


class MultiIndexSearcher:
    def __init__(self, indices: dict[str, IndexSearcher]):
        self.indices = dict(indices)
        self._closed: set[str] = set()

    def close_index(self, name: str) -> None:
        """indices.close (TransportCloseIndexAction): the index keeps its
        data but stops serving; wildcard resolution skips it (the default
        expand_wildcards=open) and concrete addressing raises."""
        if name not in self.indices:
            raise KeyError(f"no such index: {name}")
        self._closed.add(name)

    def open_index(self, name: str) -> None:
        """indices.open (TransportOpenIndexAction)."""
        if name not in self.indices:
            raise KeyError(f"no such index: {name}")
        self._closed.discard(name)

    def resolve(self, expression: str) -> list[str]:
        """Comma-separated names/wildcards -> sorted concrete index names
        (IndexNameExpressionResolver.WildcardExpressionResolver analog).
        Closed indices: silently skipped by wildcards, raised on concrete
        names (IndicesOptions.strictExpandOpen, the search default)."""
        out: set[str] = set()
        for pat in expression.split(","):
            pat = pat.strip()
            if "*" in pat or "?" in pat:
                out.update(h for h in fnmatch.filter(self.indices, pat)
                           if h not in self._closed)
                continue
            if pat not in self.indices:
                raise KeyError(f"no such index: {pat}")
            if pat in self._closed:
                raise IndexClosedException(f"closed: {pat}")
            out.add(pat)
        return sorted(out)

    def search_all(self, expression: str, query: dict,
                   indices_boost: dict[str, float] | None = None) -> pa.Table:
        """Every match in every resolved index, per-index stats, ordered
        (index, doc_id). Scores already carry indices_boost."""
        names = self.resolve(expression)
        cols_idx, cols_id, cols_sc = [], [], []
        for name in names:
            ids, sc = self.indices[name]._eval(query)
            order = np.argsort(ids)
            b = float((indices_boost or {}).get(name, 1.0))
            cols_idx.append(np.full(ids.size, name, dtype=object))
            cols_id.append(ids[order])
            cols_sc.append(sc[order].astype(np.float64) * b)
        return pa.table({
            "index": pa.array(np.concatenate(cols_idx) if cols_idx else [],
                              pa.string()),
            "doc_id": pa.array(np.concatenate(cols_id) if cols_id
                               else np.empty(0, np.int64)),
            "score": pa.array(np.concatenate(cols_sc) if cols_sc
                              else np.empty(0, np.float64)),
        })

    def search(self, expression: str, query: dict, k: int = 10,
               indices_boost: dict[str, float] | None = None) -> pa.Table:
        """Top-k merge across indices: (score desc, index asc, doc_id asc) —
        the mergeTopDocs tie-break with index name standing in for the
        shard ordinal."""
        t = self.search_all(expression, query, indices_boost)
        idx = t["index"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy()
        sc = t["score"].to_numpy()
        order = np.lexsort((ids, idx, -sc))[:k]
        return pa.table({
            "index": pa.array(idx[order], pa.string()),
            "doc_id": pa.array(ids[order]),
            "score": pa.array(sc[order]),
        })


class RemoteClusterUnavailable(RuntimeError):
    """ConnectTransportException analog: the remote cluster cannot serve."""


class CrossClusterSearcher:
    """Cross-cluster search (TransportSearchAction CCS resolution +
    RemoteClusterService / ClusterAware index expressions): targets like
    `cluster_alias:pattern` fan the query out to remote registries, hits
    come back under cluster-qualified index names, and the `_clusters`
    response section counts total/successful/skipped. A remote marked
    unavailable is skipped (and counted) when its alias is registered
    skip_unavailable=true (RemoteClusterService#SKIP_UNAVAILABLE), else
    the whole search fails — the reference's exact semantics."""

    def __init__(self, clusters: dict[str, "MultiIndexSearcher | None"],
                 *, local: str = "(local)",
                 skip_unavailable: set[str] | frozenset[str] = frozenset()):
        self.clusters = dict(clusters)
        self.local = local
        self.skip_unavailable = set(skip_unavailable)

    def search_all(self, expression: str, query: dict):
        """Returns (hits_table, clusters_summary). Hits carry
        cluster-qualified index names for remotes, bare names for the
        local cluster, ordered (index, doc_id)."""
        targets: dict[str, list[str]] = {}
        for pat in expression.split(","):
            pat = pat.strip()
            alias, _, rest = pat.partition(":")
            if not rest:
                alias, rest = self.local, pat
            if alias not in self.clusters:
                raise KeyError(f"no such remote cluster: {alias}")
            targets.setdefault(alias, []).append(rest)
        total = len(targets)
        successful = skipped = 0
        tables = []
        for alias in sorted(targets):
            reg = self.clusters[alias]
            if reg is None:
                if alias in self.skip_unavailable:
                    skipped += 1
                    continue
                raise RemoteClusterUnavailable(alias)
            t = reg.search_all(",".join(targets[alias]), query)
            if alias != self.local:
                import pyarrow.compute as pc

                qual = pc.binary_join_element_wise(
                    pa.array([alias] * len(t)), t["index"], ":")
                t = t.set_column(t.schema.get_field_index("index"),
                                 "index", qual)
            tables.append(t)
            successful += 1
        hits = pa.concat_tables(tables) if tables else None
        summary = {"total": total, "successful": successful,
                   "skipped": skipped}
        return hits, summary
