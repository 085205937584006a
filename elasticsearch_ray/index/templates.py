"""Index templates — the _template API analog
(cluster/metadata/IndexTemplateMetaData.java +
MetadataIndexTemplateService.java): named templates carry glob index
patterns, an order, and a settings/mappings payload; creating an index
applies every matching template lowest-order-first, later orders and the
request's explicit settings overriding earlier ones.

Settings here are the engine's build/search knobs (analyzer,
index_positions, num_buckets, docs_per_partition, per-field analyzers),
the payload a plain dict like the reference's Settings/mappings JSON.
The registry is driver-process state (the reference keeps templates in
cluster state); persist_templates/load_templates serialize it next to an
index root for job-to-job reuse.
"""

from __future__ import annotations

import fnmatch
import json
import os
from typing import Any

_TEMPLATES: dict[str, dict] = {}


def put_template(name: str, patterns: list[str], settings: dict[str, Any],
                 order: int = 0) -> None:
    """Register/replace a template (PutIndexTemplateRequest). `patterns`
    are glob-style index-name patterns (`logs-*`)."""
    if not patterns:
        raise ValueError("template needs at least one index pattern")
    _TEMPLATES[name] = {"name": name, "patterns": list(patterns),
                        "settings": dict(settings), "order": int(order)}


def get_template(name: str) -> dict | None:
    return _TEMPLATES.get(name)


def delete_template(name: str) -> None:
    _TEMPLATES.pop(name, None)


def matching_templates(index_name: str) -> list[dict]:
    """All templates whose any pattern matches, sorted by order ascending
    (application order — later override earlier, like the reference)."""
    out = [t for t in _TEMPLATES.values()
           if any(fnmatch.fnmatchcase(index_name, p) for p in t["patterns"])]
    return sorted(out, key=lambda t: (t["order"], t["name"]))


def resolve_settings(index_name: str,
                     explicit: dict[str, Any] | None = None) -> dict[str, Any]:
    """Merge matching templates lowest-order-first, then the request's
    explicit settings on top (MetadataCreateIndexService application
    order). Nested dicts (e.g. per-field analyzer maps) merge per key."""
    merged: dict[str, Any] = {}

    def apply(src: dict[str, Any]) -> None:
        for k, v in src.items():
            if isinstance(v, dict) and isinstance(merged.get(k), dict):
                merged[k] = {**merged[k], **v}
            else:
                merged[k] = v

    for t in matching_templates(index_name):
        apply(t["settings"])
    if explicit:
        apply(explicit)
    return merged


def persist_templates(path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(_TEMPLATES, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def load_templates(path: str) -> int:
    with open(path) as f:
        loaded = json.load(f)
    _TEMPLATES.update(loaded)
    return len(loaded)


def create_index(input_path: str, out_dir: str, index_name: str,
                 **explicit: Any):
    """Create (build) an index under template-resolved settings — the
    MetadataCreateIndexService analog wired to the build pipelines. Returns
    (stats, applied_settings); the applied settings are recorded in the
    index dir for reproducibility."""
    settings = resolve_settings(index_name, explicit)
    build_kw = {k: v for k, v in settings.items()
                if k in ("analyzer", "index_positions", "docs_per_partition",
                         "num_buckets", "hot_terms", "hot_df_ratio",
                         "salt_chunks", "content_column", "meta_columns",
                         "extra_content_columns")}
    if "hot_terms" in build_kw and build_kw["hot_terms"] is not None:
        # JSON persistence round-trips sets as lists; the build needs a
        # hashable frozenset
        build_kw["hot_terms"] = frozenset(build_kw["hot_terms"])
    for k in ("meta_columns", "extra_content_columns"):
        if k in build_kw and build_kw[k] is not None:
            build_kw[k] = tuple(tuple(c) if isinstance(c, list) else c
                                for c in build_kw[k])
    from .build import build_index

    stats = build_index(input_path, out_dir, **build_kw)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "settings.json"), "w") as f:
        json.dump({"index": index_name, "settings": settings}, f, indent=1,
                  sort_keys=True)
    return stats, settings


# ---- composable (V2) templates: _component_template / _index_template ----
# (cluster/metadata/ComposableIndexTemplate.java +
#  MetadataIndexTemplateService.java, 7.8: component templates merge in
#  composed_of order, the index template's own payload wins last, and only
#  the single HIGHEST-priority matching index template applies)

_COMPONENTS: dict[str, dict] = {}
_INDEX_TEMPLATES: dict[str, dict] = {}


def put_component_template(name: str, settings: dict[str, Any]) -> None:
    _COMPONENTS[name] = {"name": name, "settings": dict(settings)}


def put_index_template(name: str, patterns: list[str],
                       composed_of: list[str], priority: int = 0,
                       settings: dict[str, Any] | None = None) -> None:
    _INDEX_TEMPLATES[name] = {
        "name": name, "patterns": list(patterns),
        "composed_of": list(composed_of), "priority": int(priority),
        "settings": dict(settings or {})}


def simulate_index(index_name: str) -> dict:
    """_index_template/_simulate_index analog: resolve the effective
    settings for a hypothetical index plus the overlapping (losing)
    templates the reference reports."""
    matches = [t for t in _INDEX_TEMPLATES.values()
               if any(fnmatch.fnmatch(index_name, p)
                      for p in t["patterns"])]
    if not matches:
        return {"winner": None, "template": {}, "overlapping": []}
    winner = max(matches, key=lambda t: (t["priority"], t["name"]))
    merged: dict[str, Any] = {}
    for c in winner["composed_of"]:
        if c in _COMPONENTS:
            merged.update(_COMPONENTS[c]["settings"])
    merged.update(winner["settings"])
    return {"winner": winner["name"], "template": merged,
            "overlapping": sorted(t["name"] for t in matches
                                  if t is not winner)}
