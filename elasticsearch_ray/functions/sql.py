"""Minimal _sql API translator (x-pack sql / RestSqlQueryAction analog):
parse a restricted ANSI subset and plan it onto the Ray Dataset API with
column pruning + predicate pushdown at the read, a distributed sort and a
limit. Grammar:

    SELECT col | FN(col|*) AS alias [, ...] FROM <table>
    [WHERE pred [AND ...]]                  op in = != <> < <= > >=
      pred: col <op> literal (pushed into the read), MATCH()/QUERY()
      fulltext predicates, or any scalar boolean EXPRESSION the shared
      engine compiles (OR / NOT / parentheses / IN / LIKE / functions)
      — evaluated as one vectorized row filter after pushdown
    [GROUP BY col[, ...]]                   FN in COUNT SUM AVG MIN MAX
    [HAVING alias <op> literal]
    [ORDER BY col [ASC|DESC][, ...]]
    [LIMIT n]

Aggregate plans run as per-batch partial combiners (the group-cardinality
table is all that reaches the driver); plain-projection plans stay a
pruned read + pushed predicate + distributed sort + limit.

The reference compiles SQL to QueryDSL + field extractors
(x-pack/plugin/sql); this translator compiles to a Dataset plan instead."""

from __future__ import annotations

import re


class SqlParseError(ValueError):
    pass


_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}

_AND_RX = re.compile(r"(?i)\s+AND\s+")


def _rewrite_scalar_sql(e: str, *, pred: bool) -> str:
    """SQL scalar-expression surface -> the shared engine's dialect:
    EXTRACT(u FROM x) -> DATE_EXTRACT, INTERVAL n UNIT -> a duration
    literal call, single -> double quotes; predicates additionally map
    `=`/`<>` and LIKE wildcards (x-pack sql scalar/datetime functions)."""
    e = e.strip()
    if pred:
        e = e.replace("<>", "!=")
        e = re.sub(r"(?<![<>!=])=(?!=)", "==", e)
    e = re.sub(r"(?i)\bEXTRACT\(\s*(\w+)\s+FROM\s+",
               lambda m: f'DATE_EXTRACT("{m.group(1).lower()}", ', e)
    e = re.sub(r"(?i)\bINTERVAL\s+'?(\d+)'?\s+(\w+)",
               lambda m: f'INTERVAL("{m.group(2).lower()}", {m.group(1)})',
               e)
    e = re.sub(r"'([^']*)'", r'"\1"', e)
    if pred:
        e = re.sub(
            r'(?i)(LIKE\s+)"([^"]*)"',
            lambda mm: mm.group(1) + '"'
            + mm.group(2).replace("%", "*").replace("_", "?")
            + '"', e)
    return e


def _unquoted(s: str, i: int = 0):
    """Indices j >= i of s that lie outside 'single-quoted' literals."""
    inq = False
    for j in range(i, len(s)):
        if s[j] == "'":
            inq = not inq
        elif not inq:
            yield j


def _match_paren(s: str, i: int) -> int:
    """s[i] == '(' -> index of the matching ')' (quote-aware)."""
    depth = 0
    for j in _unquoted(s, i):
        if s[j] == "(":
            depth += 1
        elif s[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    raise SqlParseError(f"unbalanced parentheses in {s!r}")


def _extract_from_subquery(s: str):
    """`SELECT ... FROM (SELECT ...) [AS] [alias] ...` ->
    (outer_sql_with___subq_placeholder, inner_sql), or None. PIVOT's
    derived table is left to its own planner."""
    s = s.strip().rstrip(";")
    outside = set(_unquoted(s))
    m = next((m for m in re.finditer(r"(?is)\bFROM\s*\(", s)
              if m.start() in outside), None)
    if not m:
        return None
    o = s.index("(", m.start())
    c = _match_paren(s, o)
    inner = s[o + 1:c].strip()
    if not re.match(r"(?is)^SELECT\b", inner):
        return None
    rest = s[c + 1:].lstrip()
    if re.match(r"(?is)^PIVOT\b", rest):
        return None
    am = re.match(r"(?is)^(?:AS\s+)?(\w+)\s*", rest)
    if am and am.group(1).upper() not in (
            "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "PIVOT"):
        rest = rest[am.end():]  # derived-table alias: single-table scope,
        # so the alias never qualifies columns here — drop it
    outer = s[:m.start()] + " FROM __subq " + rest
    return outer, inner


def _split_and(s: str) -> list[str]:
    """Split WHERE conjuncts on AND outside 'string literals' (a QUERY()
    argument may itself contain AND) and outside parentheses (a keyset
    predicate `a < x OR (a == x AND b > y)` keeps its inner AND)."""
    parts, buf, inq, depth, i = [], [], False, 0, 0
    while i < len(s):
        ch = s[i]
        if ch == "'":
            inq = not inq
        elif not inq and ch in "()":
            depth += 1 if ch == "(" else -1
        if not inq and depth == 0:
            m = _AND_RX.match(s, i)
            if m and buf:
                parts.append("".join(buf))
                buf = []
                i = m.end()
                continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


def _split_cols(s: str) -> list[str]:
    """Split the projection list on top-level commas only (a scalar
    expression like ROUND(x, 2) contains commas inside parens)."""
    out, buf, depth, inq = [], [], 0, False
    for ch in s:
        if ch == "'":
            inq = not inq
        elif not inq and ch in "()":
            depth += 1 if ch == "(" else -1
        if ch == "," and depth == 0 and not inq:
            out.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    out.append("".join(buf).strip())
    return [c for c in out if c]


def parse_sql(sql: str) -> dict:
    s = sql.strip().rstrip(";")
    m = re.match(
        r"(?is)^SELECT\s+(?P<distinct>DISTINCT\s+)?(?P<cols>.+?)\s+FROM\s+(?P<table>\w+)"
        r"(?:\s+WHERE\s+(?P<where>.+?))?"
        r"(?:\s+GROUP\s+BY\s+(?P<group>.+?))?"
        r"(?:\s+HAVING\s+(?P<having>.+?))?"
        r"(?:\s+ORDER\s+BY\s+(?P<order>.+?))?"
        r"(?:\s+LIMIT\s+(?P<limit>\d+))?$", s)
    if not m:
        raise SqlParseError(f"unsupported SQL: {sql!r}")
    cols = _split_cols(m.group("cols"))
    aggs = []  # (alias, FN, src_col)
    plain = []
    scalars = []  # (alias, expression source)
    score_alias = None
    for c in cols:
        sm = re.fullmatch(r"(?i)SCORE\(\s*\)\s+AS\s+(\w+)", c)
        if sm:
            # SCORE() projection (x-pack sql Score function): the pushed
            # full-text predicate's relevance
            score_alias = sm.group(1)
            continue
        am = re.fullmatch(
            r"(?i)(COUNT|SUM|AVG|MIN|MAX)\(\s*(\*|\w+)\s*\)\s+AS\s+(\w+)", c)
        if am:
            aggs.append((am.group(3), am.group(1).upper(), am.group(2)))
        elif c == "*":
            plain.append("*")  # expanded to the table schema in run_sql
        elif re.fullmatch(r"\w+", c):
            plain.append(c)
        else:
            # scalar-expression projection (x-pack sql scalar functions /
            # arithmetic in SELECT — processor/definition ScalarFunction):
            # `<expr> AS alias`, lowered per batch through the shared
            # ES|QL expression engine (one pyarrow kernel per node)
            em = re.match(r"(?is)^(.+?)\s+AS\s+(\w+)\s*$", c)
            if not em:
                raise SqlParseError(
                    "projections must be columns, FN(col) AS alias, or "
                    "<expr> AS alias")
            scalars.append((em.group(2),
                            _rewrite_scalar_sql(em.group(1), pred=False)))
    group = []
    if m.group("group"):
        for g in _split_cols(m.group("group")):
            if re.fullmatch(r"\w+", g):
                group.append(g)
                continue
            # GROUP BY <expr>: standard SQL requires the same expression
            # in SELECT with an alias — group on that alias (the hidden
            # EVAL column computed before the partial combiner)
            alias = next(
                (a for a, s in scalars
                 if s.strip() == _rewrite_scalar_sql(g, pred=False)), None)
            if alias is None:
                raise SqlParseError(
                    "GROUP BY expression must appear in SELECT "
                    "with an alias")
            group.append(alias)
        if set(plain) - set(group):
            raise SqlParseError("non-aggregated projection outside GROUP BY")
    elif aggs and plain:
        raise SqlParseError("mixing aggregates and columns needs GROUP BY")
    having = None
    if m.group("having"):
        hm = re.match(r"^\s*(\w+)\s*(=|!=|<>|<=|>=|<|>)\s*([-\d.]+)\s*$",
                      m.group("having"))
        if hm:
            having = (hm.group(1), hm.group(2),
                      float(hm.group(3)) if "." in hm.group(3)
                      else int(hm.group(3)))
        else:
            # boolean HAVING tree over aggregate aliases (x-pack sql
            # Having -> post-aggregation Filter): compiled through the
            # shared expression engine and evaluated on the reduced
            # group table (group-cardinality rows on the driver)
            e = _rewrite_scalar_sql(m.group("having"), pred=True)
            from .esql_expr import parse_expr

            try:
                parse_expr(e)
            except ValueError as exc:
                raise SqlParseError(
                    f"unsupported HAVING: {m.group('having')!r}") from exc
            having = ("__expr__", e, None)
    preds = []
    expr_preds = []  # expression conjuncts -> engine row filters
    ft = []  # full-text conjuncts -> engine query dicts
    if m.group("where"):
        for clause in _split_and(m.group("where")):
            fm = re.match(r"(?i)^\s*MATCH\(\s*(\w+)\s*,\s*'([^']*)'"
                          r"(?:\s*,\s*'([^']*)')?\s*\)\s*$", clause)
            if fm:
                # MATCH(field, 'query'[, 'operator=and;...']) (x-pack sql
                # fulltext MatchQueryPredicate)
                q = {"kind": "match", "field": fm.group(1),
                     "text": fm.group(2)}
                om = re.search(r"(?i)operator\s*=\s*(\w+)",
                               fm.group(3) or "")
                if om:
                    q["operator"] = om.group(1).lower()
                ft.append(q)
                continue
            qm = re.match(r"(?i)^\s*QUERY\(\s*'([^']*)'\s*\)\s*$", clause)
            if qm:
                # QUERY('lucene query string') (StringQueryPredicate)
                ft.append(("__query_string__", qm.group(1)))
                continue
            pm = re.match(
                r"^\s*(\w+)\s*(=|!=|<>|<=|>=|<|>)\s*"
                r"('(?:[^']*)'|[-\d.]+)\s*$", clause)
            if not pm:
                # expression conjunct (x-pack sql WHERE supports scalar
                # expressions): kept as a vectorized row filter evaluated
                # by the shared expression engine after the pushed-down
                # simple conjuncts prune the read. SQL `=` and single
                # quotes are rewritten to the engine's `==` / double
                # quotes.
                e = _rewrite_scalar_sql(clause, pred=True)
                from .esql_expr import parse_expr

                try:
                    parse_expr(e)
                except ValueError as exc:
                    raise SqlParseError(
                        f"unsupported predicate: {clause!r}") from exc
                expr_preds.append(e)
                continue
            col, op, lit = pm.groups()
            val = lit[1:-1] if lit.startswith("'") else (
                float(lit) if "." in lit else int(lit))
            preds.append((col, op, val))
    if score_alias is not None and not ft:
        raise SqlParseError("SCORE() needs a MATCH()/QUERY() predicate")
    order = []
    if m.group("order"):
        for part in m.group("order").split(","):
            om = re.match(r"^\s*(\w+)(?:\s+(ASC|DESC))?\s*$", part,
                          re.IGNORECASE)
            if not om:
                raise SqlParseError(f"unsupported ORDER BY: {part!r}")
            # a repeated key is a no-op after its first appearance (and
            # Ray's sort rejects duplicate key columns) — keep the first
            if any(o[0] == om.group(1) for o in order):
                continue
            order.append((om.group(1),
                          (om.group(2) or "ASC").upper() == "DESC"))
    names = []
    for c in cols:
        am = re.search(r"(?i)\s+AS\s+(\w+)\s*$", c)
        names.append(am.group(1) if am else c)
    return {"cols": cols, "names": names, "plain": plain, "aggs": aggs,
            "scalars": scalars, "expr_preds": expr_preds,
            "group": group, "having": having, "table": m.group("table"),
            "preds": preds, "ft": ft, "score_alias": score_alias,
            "order": order, "distinct": bool(m.group("distinct")),
            "limit": int(m.group("limit")) if m.group("limit") else None}


_PIVOT_RX = re.compile(
    r"(?is)^SELECT\s+\*\s+FROM\s+\(\s*(?P<inner>SELECT\s+.+?)\s*\)\s+"
    r"PIVOT\s*\(\s*(?P<fn>COUNT|SUM|AVG|MIN|MAX)\s*\(\s*(?P<val>\w+)\s*\)"
    r"\s+FOR\s+(?P<piv>\w+)\s+IN\s*\(\s*(?P<vals>[^)]*?)\s*\)\s*\)"
    r"(?:\s+ORDER\s+BY\s+(?P<order>\w+))?\s*;?\s*$")


def _run_pivot(m: re.Match, sf_dir: str, ds_factory):
    """PIVOT clause (x-pack sql 7.5, plan/logical/Pivot.java): rotate one
    grouping column's IN-listed values into output columns. Lowered to the
    ordinary distributed GROUP BY (row keys + pivot column) — per-batch
    partial combiner, group-cardinality exchange — then the rotation is a
    driver-side reshape of the already-reduced long table (never of raw
    rows). Combinations absent from the data yield NULL (0 for COUNT),
    matching the reference's QlSqlIT pivot semantics."""
    import pandas as pd

    inner = parse_sql(m.group("inner"))
    if inner["aggs"] or inner["group"]:
        raise SqlParseError("PIVOT inner query must be a plain projection")
    fn, val, piv = m.group("fn").upper(), m.group("val"), m.group("piv")
    if piv not in inner["plain"] or (val not in inner["plain"]
                                     and fn != "COUNT"):
        raise SqlParseError("PIVOT value/key must appear in the inner "
                            "projection")
    rowkeys = [c for c in inner["plain"] if c not in (piv, val)]
    if not rowkeys:
        raise SqlParseError("PIVOT needs at least one pass-through column")
    where = ""
    if inner["preds"]:
        where = " WHERE " + " AND ".join(
            f"{c} {op} {v!r}" if isinstance(v, str) else f"{c} {op} {v}"
            for c, op, v in inner["preds"])
    agg_sql = (f"SELECT {', '.join(rowkeys)}, {piv}, {fn}({val}) AS __v "
               f"FROM {inner['table']}{where} "
               f"GROUP BY {', '.join(rowkeys + [piv])}")
    long = run_sql(agg_sql, sf_dir, ds_factory=ds_factory)
    vals = [v.strip().strip("'") for v in m.group("vals").split(",")]
    long = long[long[piv].isin(vals)]
    wide = (long.pivot(index=rowkeys, columns=piv, values="__v")
            .reindex(columns=vals))
    if fn == "COUNT":
        wide = wide.fillna(0).astype("int64")
    wide = wide.reset_index()
    wide.columns.name = None
    order = m.group("order") or rowkeys[0]
    return (wide.sort_values(order).reset_index(drop=True)
            [rowkeys + vals])


# arrow type -> ES mapping name (x-pack sql SysColumns reports the ES
# field type alongside the SQL type)
def _es_type(t) -> str:
    import pyarrow as pa

    if pa.types.is_int64(t):
        return "long"
    if pa.types.is_int32(t):
        return "integer"
    if pa.types.is_floating(t):
        return "double" if pa.types.is_float64(t) else "float"
    if pa.types.is_timestamp(t):
        return "datetime"
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return "dense_vector"
    return "keyword"


def _run_sys(sql: str, sf_dir: str):
    """SHOW TABLES / SHOW COLUMNS / DESCRIBE (x-pack sql SysTables /
    SysColumns commands): catalog queries answered from the parquet
    store's metadata only — no data is read, like the reference's
    cluster-state lookups."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    s = re.sub(r"\s+", " ", sql.strip()).rstrip(";")
    if re.fullmatch(r"(?i)SHOW TABLES", s):
        names = sorted(f[:-8] for f in os.listdir(sf_dir)
                       if f.endswith(".parquet"))
        return pd.DataFrame({"name": names, "type": ["TABLE"] * len(names)})
    m = re.fullmatch(r"(?i)(?:DESCRIBE|DESC|SHOW COLUMNS (?:FROM|IN)) "
                     r"(\w+)", s)
    if m:
        table = m.group(1).lower()
        path = os.path.join(sf_dir, f"{table}.parquet")
        if not os.path.exists(path):
            raise SqlParseError(f"unknown table {table!r}")
        schema = pq.read_schema(path)
        return pd.DataFrame({
            "column": list(schema.names),
            "mapping": [_es_type(f.type) for f in schema]})
    return None


def run_sql(sql: str, sf_dir: str, *, ds_factory, _subq=None,
            _return_ds: bool = False):
    """Execute a parsed plan: ds_factory(sf_dir, table, columns, flt) must
    return a Dataset (the ops._ds reader — injected to avoid a cycle).

    `_subq`: (dataset, column_names) bound to the `__subq` placeholder
    table — how a FROM-subquery's result streams into its outer query
    without ever materializing on the driver. `_return_ds`: internal —
    return (Dataset, names) instead of pandas for non-aggregate plans,
    so a subquery's rows stay distributed."""
    import pyarrow.compute as pc

    sys_out = _run_sys(sql, sf_dir)
    if sys_out is not None:
        return sys_out
    pm = _PIVOT_RX.match(sql.strip())
    if pm:
        return _run_pivot(pm, sf_dir, ds_factory)
    if _subq is None:
        sub = _extract_from_subquery(sql)
        if sub is not None:
            # derived table (x-pack sql subquery-in-FROM, rest tests
            # SELECT-in-FROM): plan the inner query first; a plain inner
            # stays a streaming Dataset, an aggregate inner is already
            # group-cardinality-small when it reaches from_pandas
            outer_sql, inner_sql = sub
            inner = run_sql(inner_sql, sf_dir, ds_factory=ds_factory,
                            _return_ds=True)
            if isinstance(inner, tuple):
                ids_, names_ = inner
            else:
                import ray.data as rd

                ids_, names_ = rd.from_pandas(inner), list(inner.columns)
            return run_sql(outer_sql, sf_dir, ds_factory=ds_factory,
                           _subq=(ids_, names_), _return_ds=_return_ds)
    plan = parse_sql(sql)

    def _schema_names() -> list:
        if _subq is not None and plan["table"] == "__subq":
            return list(_subq[1])
        import os

        import pyarrow.parquet as pq

        return list(pq.read_schema(os.path.join(
            sf_dir, f"{plan['table']}.parquet")).names)
    score = plan["score_alias"]
    if plan["aggs"]:
        scalar_names = {a for a, _ in plan["scalars"]}
        scalar_ids: list[str] = []
        if plan["scalars"]:
            schema_names = set(_schema_names())
            for _, src_expr in plan["scalars"]:
                scalar_ids += [t for t in re.findall(r"[A-Za-z_]\w*",
                                                     src_expr)
                               if t in schema_names]
        need = list(dict.fromkeys(
            [g for g in plan["group"] if g not in scalar_names]
            + scalar_ids
            + [a[2] for a in plan["aggs"] if a[2] != "*"]
            + [p[0] for p in plan["preds"]]))
    else:
        if "*" in plan["plain"]:
            # SELECT * (x-pack sql wildcard projection): expand to the
            # table's schema order — the reference resolves it against
            # the mapping the same way
            allcols = _schema_names()
            plan["plain"] = allcols
            plan["names"] = [c if c != "*" else None
                             for c in plan["names"]]
            plan["names"] = [n for n in plan["names"] if n is not None]
            plan["names"] = allcols + plan["names"]
        scalar_ids: list[str] = []
        if plan["scalars"]:
            schema_names = set(_schema_names())
            for _, src_expr in plan["scalars"]:
                scalar_ids += [t for t in re.findall(r"[A-Za-z_]\w*",
                                                     src_expr)
                               if t in schema_names]
        scalar_names = {a for a, _ in plan["scalars"]}
        need = list(dict.fromkeys(
            plan["plain"] + scalar_ids + [p[0] for p in plan["preds"]]
            + [o[0] for o in plan["order"]
               if o[0] != score and o[0] not in scalar_names]))
    if plan.get("expr_preds"):
        snames = set(_schema_names())
        for e in plan["expr_preds"]:
            for t in re.findall(r"[A-Za-z_]\w*", e):
                if t in snames and t not in need:
                    need.append(t)
    if plan["ft"] and "doc_id" not in need:
        need = ["doc_id"] + need
    flt = None
    for col, op, val in plan["preds"]:
        f = pc.field(col)
        e = {"=": f == val, "!=": f != val, "<>": f != val, "<": f < val,
             "<=": f <= val, ">": f > val, ">=": f >= val}[op]
        flt = e if flt is None else flt & e
    if _subq is not None and plan["table"] == "__subq":
        ds = _subq[0]
        if flt is not None:
            ds = ds.map_batches(lambda t, f=flt: t.filter(f),
                                batch_format="pyarrow")
        keep = [c for c in need if c in _subq[1]]
        if keep and set(keep) != set(_subq[1]):
            ds = ds.select_columns(keep)
    else:
        ds = ds_factory(sf_dir, plan["table"], need, flt)
    if plan["ft"]:
        # full-text predicates push to ONE index query (the reference
        # compiles MATCH/QUERY to Lucene QueryDSL); the row stream is then
        # filtered by the matched doc-id set — same broadcast-small-side
        # shape as the ES|QL MATCH pushdown
        if plan["table"] != "documents":
            raise SqlParseError("MATCH()/QUERY() need the indexed "
                                "`documents` table")
        from ..pipelines.fulltext import documents_searcher
        from .esql import _matched_set_filter

        clauses = []
        for c in plan["ft"]:
            if isinstance(c, tuple):
                from ..search.engine import parse_query_string

                clauses.append(parse_query_string(c[1]))
            else:
                clauses.append(c)
        q = clauses[0] if len(clauses) == 1 else {"kind": "bool",
                                                  "must": clauses}
        ids, sc = documents_searcher(sf_dir)._eval(q)
        ds = ds.map_batches(
            _matched_set_filter(ids, sc, "doc_id", score is not None,
                                score_col=score or "_score"),
            batch_format="pyarrow")
    if plan.get("expr_preds"):
        from .esql_expr import compile_predicate

        for e in plan["expr_preds"]:
            ds = ds.map_batches(compile_predicate(e),
                                batch_format="pyarrow")
    if plan["aggs"]:
        if plan["scalars"]:
            # scalar projections in an aggregate plan are legal exactly
            # when each one is a GROUP BY key (SQL semantics): compute
            # them as hidden EVAL columns BEFORE the partial combiner
            if not {a for a, _ in plan["scalars"]} <= set(plan["group"]):
                raise SqlParseError("scalar projections in an aggregate "
                                    "query must be GROUP BY keys")
            import pyarrow as pa

            from .esql_expr import evaluate, parse_expr

            asts = [(alias, parse_expr(src_expr))
                    for alias, src_expr in plan["scalars"]]

            def add_keys(t: pa.Table) -> pa.Table:
                for alias, ast in asts:
                    v = evaluate(ast, t)
                    if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                        v = pa.array([v] * len(t))
                    t = t.append_column(alias, v)
                return t

            ds = ds.map_batches(add_keys, batch_format="pyarrow")
        return _run_agg(ds, plan)
    if plan["scalars"]:
        import pyarrow as pa

        from .esql_expr import evaluate, parse_expr

        asts = [(alias, parse_expr(src_expr))
                for alias, src_expr in plan["scalars"]]

        def add_scalars(t: pa.Table) -> pa.Table:
            for alias, ast in asts:
                v = evaluate(ast, t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    v = pa.array([v] * len(t))
                t = t.append_column(alias, v)
            return t

        ds = ds.map_batches(add_scalars, batch_format="pyarrow")
    if plan.get("distinct"):
        # SELECT DISTINCT (x-pack sql Distinct over the projection):
        # per-batch local dedup (a combiner — distinct composes), then ONE
        # projection-cardinality groupby; ORDER BY / LIMIT apply after.
        import pyarrow as pa

        cols = list(plan["names"])

        def local_distinct(t: pa.Table) -> pa.Table:
            df = t.select(cols).to_pandas().drop_duplicates(cols)
            return pa.Table.from_pandas(
                df, preserve_index=False).replace_schema_metadata(None)

        # bucketed distinct: projection cardinality can approach row
        # cardinality (functions/exchange.py; SCALE.md Round-4)
        from .exchange import bucketed_agg

        ds = bucketed_agg(
            ds.map_batches(local_distinct, batch_format="pyarrow"),
            cols, cols[0], "count", out_name="__dc")
    if plan["order"]:
        ds = ds.sort(key=[o[0] for o in plan["order"]],
                     descending=[o[1] for o in plan["order"]])
    if plan["limit"] is not None:
        ds = ds.limit(plan["limit"])
    if _return_ds:
        return ds.select_columns(plan["names"]), list(plan["names"])
    out = ds.to_pandas()
    if out.empty and not set(plan["names"]) <= set(out.columns):
        import pandas as pd

        return pd.DataFrame({c: [] for c in plan["names"]})
    return out[plan["names"]]


def _apply_having(out, having):
    """HAVING on the reduced group table: simple (col, op, lit) tuples
    inline; ('__expr__', src, None) evaluates a compiled boolean tree
    via the shared expression engine over the (small) result frame."""
    import operator as _op

    col, op, lit = having
    if col == "__expr__":
        import pyarrow as pa

        from .esql_expr import evaluate, parse_expr

        t = pa.Table.from_pandas(out, preserve_index=False)
        mask = evaluate(parse_expr(op), t)
        import numpy as np

        return out[np.asarray(mask)]
    f = {"=": _op.eq, "!=": _op.ne, "<>": _op.ne, ">": _op.gt,
         ">=": _op.ge, "<": _op.lt, "<=": _op.le}[op]
    return out[f(out[col], lit)]


def _run_agg(ds, plan: dict):
    """GROUP BY plan: per-batch partial combiner (SUM/COUNT carry sums and
    counts, MIN/MAX carry extrema), driver merge on the group-cardinality
    table, then HAVING / ORDER BY / LIMIT / projection."""
    import operator as _op

    import pandas as pd
    import pyarrow as pa

    group, aggs = plan["group"], plan["aggs"]

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        if df.empty:
            return pa.table({})
        g = df.groupby(group) if group else df.assign(__g=0).groupby("__g")
        out = {}
        for alias, fn, col in aggs:
            if fn == "COUNT":
                out[f"__c_{alias}"] = g.size()
            elif fn in ("SUM", "AVG"):
                out[f"__s_{alias}"] = g[col].sum()
                out[f"__c_{alias}"] = g[col].size()
            elif fn == "MIN":
                out[f"__mn_{alias}"] = g[col].min()
            elif fn == "MAX":
                out[f"__mx_{alias}"] = g[col].max()
        res = pd.DataFrame(out).reset_index()
        if not group:
            res = res.drop(columns="__g")
        return pa.Table.from_pandas(res, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        # zero input rows: GROUP BY yields zero groups; a global
        # aggregate still yields ONE row (COUNT = 0, other aggs NULL)
        if group:
            out = pd.DataFrame({g: pd.Series([], dtype=object)
                                for g in group})
            for alias, fn, _ in aggs:
                out[alias] = pd.Series(
                    [], dtype="int64" if fn == "COUNT" else "float64")
        else:
            out = pd.DataFrame(index=[0])
            for alias, fn, _ in aggs:
                out[alias] = 0 if fn == "COUNT" else float("nan")
        if plan["having"] and len(out):
            out = _apply_having(out, plan["having"])
        return out.reset_index(drop=True)
    if group:
        merged = parts.groupby(group, as_index=False).sum(min_count=1)
        for alias, fn, _ in aggs:
            if fn == "MIN":
                merged[f"__mn_{alias}"] = (
                    parts.groupby(group)[f"__mn_{alias}"].min().to_numpy())
            if fn == "MAX":
                merged[f"__mx_{alias}"] = (
                    parts.groupby(group)[f"__mx_{alias}"].max().to_numpy())
    else:
        spec = {c: ("min" if c.startswith("__mn") else
                    "max" if c.startswith("__mx") else "sum")
                for c in parts.columns}
        merged = pd.DataFrame([{c: parts[c].agg(f) for c, f in spec.items()}])

    out = merged[group].copy() if group else pd.DataFrame(index=[0])
    for alias, fn, _ in aggs:
        if fn == "COUNT":
            out[alias] = merged[f"__c_{alias}"].astype("int64")
        elif fn == "SUM":
            out[alias] = merged[f"__s_{alias}"]
        elif fn == "AVG":
            out[alias] = merged[f"__s_{alias}"] / merged[f"__c_{alias}"]
        elif fn == "MIN":
            out[alias] = merged[f"__mn_{alias}"]
        elif fn == "MAX":
            out[alias] = merged[f"__mx_{alias}"]

    if plan["having"]:
        out = _apply_having(out, plan["having"])
    if plan["order"]:
        out = out.sort_values([o[0] for o in plan["order"]],
                              ascending=[not o[1] for o in plan["order"]])
    if plan["limit"] is not None:
        out = out.head(plan["limit"])
    names = [c if re.fullmatch(r"\w+", c) else
             re.search(r"(?i)\s+AS\s+(\w+)\s*$", c).group(1)
             for c in plan["cols"]]
    return out[names].reset_index(drop=True)
