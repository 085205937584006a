"""Restricted numeric-expression evaluator — the Painless-sandbox analog.

The reference's `script` / `script_score` queries run Painless, which is a
real sandbox precisely because scripts arrive inside client query dicts
(modules/lang-painless/). Python ``eval`` with an empty ``__builtins__`` is
NOT a sandbox (``().__class__.__bases__[0].__subclasses__()`` escapes it), so
query-supplied expressions are parsed with ``ast`` and walked against an
explicit whitelist instead: arithmetic / comparison / boolean-bitwise
operators, numeric constants, whitelisted names, and calls to whitelisted
functions only. Attribute access, subscripts, lambdas, comprehensions and
starred/keyword call forms are rejected outright.
"""

from __future__ import annotations

import ast
from typing import Any, Mapping

__all__ = ["ScriptError", "safe_eval_expr"]


class ScriptError(ValueError):
    """A query-supplied script failed validation or evaluation."""


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
    # & and | double as vectorized and/or over boolean arrays
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitXor: lambda a, b: a ^ b,
}

_UNARY = {
    ast.USub: lambda a: -a,
    ast.UAdd: lambda a: +a,
    ast.Invert: lambda a: ~a,
    ast.Not: lambda a: ~a if hasattr(a, "dtype") else (not a),
}

_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _eval_node(node: ast.AST, env: Mapping[str, Any]) -> Any:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, bool, str)):
            return node.value
        raise ScriptError(f"constant {node.value!r} not allowed")
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ScriptError(f"unknown name '{node.id}'")
        return env[node.id]
    if isinstance(node, ast.BinOp):
        fn = _BINOPS.get(type(node.op))
        if fn is None:
            raise ScriptError(f"operator {type(node.op).__name__} not allowed")
        return fn(_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp):
        fn = _UNARY.get(type(node.op))
        if fn is None:
            raise ScriptError(f"operator {type(node.op).__name__} not allowed")
        return fn(_eval_node(node.operand, env))
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, env)
        result = None
        for op, comp in zip(node.ops, node.comparators):
            fn = _CMPOPS.get(type(op))
            if fn is None:
                raise ScriptError(
                    f"comparison {type(op).__name__} not allowed")
            right = _eval_node(comp, env)
            part = fn(left, right)
            result = part if result is None else (result & part)
            left = right
        return result
    if isinstance(node, ast.BoolOp):
        # vectorized: and -> &, or -> | (operands are boolean arrays/scalars)
        vals = [_eval_node(v, env) for v in node.values]
        out = vals[0]
        for v in vals[1:]:
            out = (out & v) if isinstance(node.op, ast.And) else (out | v)
        return out
    if isinstance(node, ast.IfExp):
        # evaluated non-lazily; fine for pure numeric expressions
        test = _eval_node(node.test, env)
        body = _eval_node(node.body, env)
        orelse = _eval_node(node.orelse, env)
        if hasattr(test, "dtype"):
            import numpy as np

            return np.where(test, body, orelse)
        return body if test else orelse
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            # Painless String/Java method calls on values — the attr name
            # must be in the explicit method whitelist; arbitrary
            # attribute access stays rejected (sandbox escape vector)
            if node.keywords:
                raise ScriptError("keyword arguments not allowed")
            attr = node.func.attr
            if (isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Math"):
                # java.lang.Math statics (Painless whitelist: Math.max /
                # abs / log / pow ...) -> numpy kernels, vectorized over
                # arrays and exact on scalars
                fn = _MATH_FNS.get(attr)
                if fn is None:
                    raise ScriptError(f"Math.{attr}() not allowed")
                return fn(*[_eval_node(a, env) for a in node.args])
            if attr in _COLLECTION_METHODS:
                # java.util List/Map methods on sandbox-created
                # collections (new ArrayList()/HashMap() — Painless
                # whitelist): dispatch by receiver type, mutation via
                # the explicit table only
                recv = _eval_node(node.func.value, env)
                if isinstance(recv, (list, dict)):
                    args = [_eval_node(a, env) for a in node.args]
                    return _collection_method(attr, recv, args)
            if attr not in _STR_METHODS:
                raise ScriptError(f"method '.{attr}()' not allowed")
            recv = _eval_node(node.func.value, env)
            args = [_eval_node(a, env) for a in node.args]
            return _str_method(attr, recv, args)
        if not isinstance(node.func, ast.Name):
            raise ScriptError("only direct calls to whitelisted functions")
        if node.keywords:
            raise ScriptError("keyword arguments not allowed")
        fn = env.get(node.func.id)
        if fn is None:
            fn = _CTORS.get(node.func.id)  # new ArrayList()/HashMap()
        if fn is None or not callable(fn):
            raise ScriptError(f"unknown function '{node.func.id}'")
        return fn(*[_eval_node(a, env) for a in node.args])
    if isinstance(node, ast.Attribute):
        # ONLY `params.<key>` map access (Painless script params) — the
        # receiver must literally be the name `params` bound to a plain
        # mapping; everything else (object attributes, dunders) rejected
        if (isinstance(node.value, ast.Name) and node.value.id == "params"
                and isinstance(env.get("params"), Mapping)):
            p = env["params"]
            if node.attr not in p:
                raise ScriptError(f"unknown param '{node.attr}'")
            return p[node.attr]
        raise ScriptError("attribute access not allowed")
    raise ScriptError(f"syntax {type(node).__name__} not allowed")


def _mk_math_fns():
    import numpy as np

    return {
        "max": np.maximum, "min": np.minimum, "abs": np.abs,
        "pow": np.power, "sqrt": np.sqrt, "log": np.log,
        "log10": np.log10, "exp": np.exp, "floor": np.floor,
        "ceil": np.ceil,
        # Java Math.round = floor(x + 0.5) (half-up), NOT banker's
        "round": lambda x: np.floor(np.asarray(x, np.float64) + 0.5)
        .astype(np.int64) if hasattr(x, "dtype") or isinstance(x, float)
        else int(np.floor(x + 0.5)),
    }


_MATH_FNS = _mk_math_fns()


# java.util collection constructors (`new ArrayList()` / `new HashMap()`
# rewrite to plain calls in compile_painless) and the List/Map method
# whitelist (PainlessLookup java.util entries). Mutation happens only
# through this table — attribute access stays rejected. Collections are
# per-SCRIPT scalar values (scripted_metric states, reduce lists); doc
# values never become per-row lists.
_CTORS = {"ArrayList": list, "HashMap": dict}

_COLLECTION_METHODS = frozenset({
    "add", "get", "size", "isEmpty", "contains", "indexOf", "remove",
    "put", "containsKey", "containsValue", "getOrDefault", "keySet",
    "values",
})


def _collection_method(attr: str, recv, args: list):
    if isinstance(recv, list):
        if attr == "add":
            recv.append(args[0])
            return True
        if attr == "get":
            i = int(args[0])
            if not 0 <= i < len(recv):
                raise ScriptError(f"list index {i} out of bounds")
            return recv[i]
        if attr == "size":
            return len(recv)
        if attr == "isEmpty":
            return len(recv) == 0
        if attr == "contains":
            return args[0] in recv
        if attr == "indexOf":
            return recv.index(args[0]) if args[0] in recv else -1
        if attr == "remove":
            i = int(args[0])
            if not 0 <= i < len(recv):
                raise ScriptError(f"list index {i} out of bounds")
            return recv.pop(i)
    else:  # dict
        if attr == "put":
            old = recv.get(args[0])
            recv[args[0]] = args[1]
            return old
        if attr == "get":
            return recv.get(args[0])
        if attr == "getOrDefault":
            return recv.get(args[0], args[1])
        if attr == "containsKey":
            return args[0] in recv
        if attr == "containsValue":
            return args[0] in recv.values()
        if attr == "size":
            return len(recv)
        if attr == "isEmpty":
            return len(recv) == 0
        if attr == "remove":
            return recv.pop(args[0], None)
        if attr == "keySet":
            return list(recv.keys())
        if attr == "values":
            return list(recv.values())
    raise ScriptError(
        f"method '.{attr}()' not allowed on "
        f"{'List' if isinstance(recv, list) else 'Map'}")


# Painless String (java.lang.String + Painless augmentation) method
# whitelist — each lowered to a vectorized pandas .str kernel when the
# receiver is an array, plain Python when scalar.
_STR_METHODS = frozenset({
    "contains", "startsWith", "endsWith", "substring", "toLowerCase",
    "toUpperCase", "trim", "length", "indexOf", "equals", "replace",
    "isEmpty",
})


def _str_method(attr: str, recv: Any, args: list) -> Any:
    import numpy as np

    vec = isinstance(recv, np.ndarray)
    if vec:
        import pandas as pd

        s = pd.Series(recv, copy=False).astype(str)
        if attr == "contains":
            return s.str.contains(args[0], regex=False).to_numpy()
        if attr == "startsWith":
            return s.str.startswith(args[0]).to_numpy()
        if attr == "endsWith":
            return s.str.endswith(args[0]).to_numpy()
        if attr == "substring":
            # Java semantics: begin inclusive, end exclusive
            end = args[1] if len(args) > 1 else None
            return s.str.slice(args[0], end).to_numpy(dtype=object)
        if attr == "toLowerCase":
            return s.str.lower().to_numpy(dtype=object)
        if attr == "toUpperCase":
            return s.str.upper().to_numpy(dtype=object)
        if attr == "trim":
            return s.str.strip().to_numpy(dtype=object)
        if attr == "length":
            return s.str.len().to_numpy(dtype=np.int64)
        if attr == "indexOf":
            return s.str.find(args[0]).to_numpy(dtype=np.int64)
        if attr == "equals":
            return (s == args[0]).to_numpy()
        if attr == "replace":
            return s.str.replace(args[0], args[1],
                                 regex=False).to_numpy(dtype=object)
        if attr == "isEmpty":
            return (s.str.len() == 0).to_numpy()
    else:
        r = str(recv)
        if attr == "contains":
            return args[0] in r
        if attr == "startsWith":
            return r.startswith(args[0])
        if attr == "endsWith":
            return r.endswith(args[0])
        if attr == "substring":
            return r[args[0]:args[1]] if len(args) > 1 else r[args[0]:]
        if attr == "toLowerCase":
            return r.lower()
        if attr == "toUpperCase":
            return r.upper()
        if attr == "trim":
            return r.strip()
        if attr == "length":
            return len(r)
        if attr == "indexOf":
            return r.find(args[0])
        if attr == "equals":
            return r == args[0]
        if attr == "replace":
            return r.replace(args[0], args[1])
        if attr == "isEmpty":
            return len(r) == 0
    raise ScriptError(f"method '.{attr}()' not allowed")


# ---------------------------------------------------------------------------
# stored scripts — the _scripts/{id} API analog (script/StoredScriptSource,
# cluster-state script metadata). The registry lives in the submitting
# process; resolve ids to sources BEFORE shipping queries to searcher actors
# (inline_stored_scripts), mirroring how the reference compiles stored
# scripts from cluster state that every node already holds.

_STORED: dict[str, str] = {}


def put_stored_script(script_id: str, source: str) -> None:
    """Store a script, validating at store time like the reference's
    compile-on-store (PutStoredScriptRequest)."""
    ast.parse(source, mode="eval")  # syntax gate now, not at first use
    _STORED[script_id] = source


def get_stored_script(script_id: str) -> str | None:
    return _STORED.get(script_id)


def delete_stored_script(script_id: str) -> None:
    _STORED.pop(script_id, None)


def resolve_script(spec: Any) -> str:
    """str | {'source': s} | {'id': i} -> expression source."""
    if isinstance(spec, str):
        return spec
    if isinstance(spec, Mapping):
        if "source" in spec:
            src = spec["source"]
            if spec.get("lang") == "expression":
                src = compile_expression(src)
            return src
        if "id" in spec:
            src = _STORED.get(spec["id"])
            if src is None:
                raise ScriptError(f"stored script [{spec['id']}] not found")
            return src
    raise ScriptError("script must be a string or a {source}/{id} object")


def inline_stored_scripts(q: Any) -> Any:
    """Recursively replace {'script': {'id': ...}} with the stored source —
    call on the driver before shipping a query tree to searcher actors
    (whose processes don't share this registry)."""
    if isinstance(q, dict):
        out = {}
        for k, v in q.items():
            if k == "script":
                out[k] = resolve_script(v)
            else:
                out[k] = inline_stored_scripts(v)
        return out
    if isinstance(q, list):
        return [inline_stored_scripts(v) for v in q]
    return q


def safe_eval_expr(expr: str, env: Mapping[str, Any]) -> Any:
    """Evaluate a numeric expression against `env` under the whitelist.

    `env` maps names to numpy arrays / scalars / whitelisted callables.
    Raises ScriptError on any disallowed construct (attribute access,
    subscripts, f-strings, comprehensions, non-numeric literals, ...).
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ScriptError(f"invalid expression: {e}") from e
    return _eval_node(tree, env)


def _find_top(s: str, ch: str, start: int = 0) -> int:
    depth = 0
    inq: str | None = None  # ' or " while inside a string literal
    for i in range(start, len(s)):
        c = s[i]
        if inq:
            if c == inq and s[i - 1] != "\\":
                inq = None
        elif c in "'\"":
            inq = c
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == ch and depth == 0:
            return i
    return -1


def _rewrite_parens(s: str) -> str:
    """Rewrite ternaries inside each top-level parenthesized group."""
    out = []
    i = 0
    while i < len(s):
        if s[i] == "(":
            depth = 1
            j = i + 1
            while j < len(s) and depth:
                if s[j] == "(":
                    depth += 1
                elif s[j] == ")":
                    depth -= 1
                j += 1
            out.append("(" + _rewrite_ternary(s[i + 1:j - 1]) + ")")
            i = j
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _rewrite_ternary(s: str) -> str:
    """Right-associative `c ? a : b` -> `where((c), (a), (b))`."""
    q = _find_top(s, "?")
    if q < 0:
        return _rewrite_parens(s) if "?" in s else s
    # matching ':' at top level, skipping nested ternaries in the
    # then-branch and ? / : inside string literals
    depth = 0
    nested = 0
    c_idx = -1
    inq: str | None = None
    for i in range(q + 1, len(s)):
        c = s[i]
        if inq:
            if c == inq and s[i - 1] != "\\":
                inq = None
        elif c in "'\"":
            inq = c
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "?" and depth == 0:
            nested += 1
        elif c == ":" and depth == 0:
            if nested == 0:
                c_idx = i
                break
            nested -= 1
    if c_idx < 0:
        raise ScriptError(f"unbalanced ternary in expression: {s!r}")
    cond = _rewrite_ternary(s[:q])
    then = _rewrite_ternary(s[q + 1:c_idx])
    other = _rewrite_ternary(s[c_idx + 1:])
    return f"where(({cond}), ({then}), ({other}))"


def compile_painless(source: str) -> str:
    """Painless expression subset (modules/lang-painless) -> the sandbox
    dialect. Covers the single-expression script bodies real users write
    in script_score / script fields / script queries:

      doc['f'].value              -> bare field name (doc-values access)
      doc['f'].value.contains(..) -> whitelisted String method call
      params.x                    -> params map access (AST-gated)
      a ? b : c                   -> where((a), (b), (c)) (vectorized)
      && || !                     -> and / or / not (vectorized BoolOp)

    Statements (`def x = ...;`, loops, returns) are NOT supported — the
    analog is expression-scoped by design; the sandbox architecture
    (AST whitelist, no attribute escape) is the contract, the surface
    grows method-by-method."""
    import re

    src = source.strip().rstrip(";")
    if src.startswith("return "):
        src = src[len("return "):]
    src = re.sub(r"doc\[\s*['\"]([A-Za-z_][\w.]*)['\"]\s*\]\.value",
                 r"\1", src)

    def rewrite(code: str) -> str:
        code = code.replace("&&", " and ").replace("||", " or ")
        # Painless `!cond` -> `not cond` (but leave `!=` alone)
        code = re.sub(r"!(?!=)", " not ", code)
        # Painless boolean literals
        code = re.sub(r"\btrue\b", "True", code)
        code = re.sub(r"\bfalse\b", "False", code)
        # `new ArrayList()` / `new HashMap()` -> plain constructor calls
        # (resolved via the _CTORS whitelist at eval time)
        return re.sub(r"\bnew\s+([A-Za-z_]\w*)\s*\(", r"\1(", code)

    # string literals keep their text: 'true' stays a string, not True
    src = "".join(run if quoted else rewrite(run)
                  for run, quoted in _literal_runs(src))
    return _rewrite_ternary(src).strip()


def _literal_runs(src: str) -> list[tuple[str, bool]]:
    """src cut into (text, quoted) runs in order: each quoted run is one
    string literal with its quotes (a backslash escapes the closing
    quote); an unterminated literal runs to the end."""
    out: list[tuple[str, bool]] = []
    start, inq = 0, None
    for i, ch in enumerate(src):
        if inq:
            if ch == inq and src[i - 1] != "\\":
                out.append((src[start:i + 1], True))
                start, inq = i + 1, None
        elif ch in "'\"":
            if i > start:
                out.append((src[start:i], False))
            start, inq = i, ch
    if start < len(src):
        out.append((src[start:], inq is not None))
    return out


def _split_statements(src: str) -> list[str]:
    """Split on top-level ';' (quote- and paren-aware)."""
    out, buf, depth = [], [], 0
    for run, quoted in _literal_runs(src):
        if quoted:
            buf.append(run)
            continue
        for ch in run:
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == ";" and depth == 0:
                out.append("".join(buf).strip())
                buf = []
                continue
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        out.append(tail)
    return [s for s in out if s]


_DECL_RX = None  # compiled lazily in _compile_simple_stmt

# Painless caps loops via its loop counter (CompilerSettings.MAX_LOOP_COUNTER
# default 1,000,000, modules/lang-painless); same bound per while-loop here.
_MAX_LOOP_ITER = 1_000_000


def _compile_expr(src: str):
    """Painless expression -> parsed sandbox AST (whitelist enforced at
    eval time by _eval_node)."""
    py = compile_painless(src)
    try:
        return ast.parse(py, mode="eval")
    except SyntaxError as e:
        raise ScriptError(f"invalid expression {src!r}: {e}") from e


def _word_at(s: str, i: int, w: str) -> bool:
    j = i + len(w)
    return (s.startswith(w, i)
            and (j >= len(s) or not (s[j].isalnum() or s[j] == "_")))


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _match_delim(s: str, i: int, open_c: str, close_c: str) -> int:
    """s[i] == open_c -> index of the matching close_c (quote-aware)."""
    depth = 0
    inq: str | None = None
    for j in range(i, len(s)):
        c = s[j]
        if inq:
            if c == inq and s[j - 1] != "\\":
                inq = None
        elif c in "'\"":
            inq = c
        elif c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return j
    raise ScriptError(f"unbalanced '{open_c}' in script")


def _find_stmt_end(s: str, i: int, end: int) -> int:
    """Index of the statement-ending top-level ';' (quote/paren/brace
    aware), or `end`."""
    depth = 0
    inq: str | None = None
    for j in range(i, end):
        c = s[j]
        if inq:
            if c == inq and s[j - 1] != "\\":
                inq = None
        elif c in "'\"":
            inq = c
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ";" and depth == 0:
            return j
    return end


def _compile_simple_stmt(st: str, in_loop: bool = False):
    """One brace-free statement -> node. Nodes are tagged tuples:
    ('decl',name,tree) ('assign',name,tree) ('return',tree) ('expr',tree)
    ('break',) ('continue',) — the loop controls only inside loop bodies."""
    import re

    global _DECL_RX
    if _DECL_RX is None:
        _DECL_RX = re.compile(
            r"^(?:def|int|long|float|double|boolean|String)\s+"
            r"([A-Za-z_]\w*)\s*(?:=\s*(.+))?$", re.S)
    st = st.strip()
    if not st:
        return None
    if _word_at(st, 0, "return"):
        return ("return", _compile_expr(st[len("return"):].strip() or "0"))
    if _word_at(st, 0, "break") or _word_at(st, 0, "continue"):
        if not in_loop:
            raise ScriptError(f"'{st.split()[0]}' outside a loop")
        if st not in ("break", "continue"):
            raise ScriptError(f"unsupported statement: {st!r}")
        return (st,)
    m = _DECL_RX.match(st)
    if m:
        return ("decl", m.group(1), _compile_expr(m.group(2) or "0"))
    m = re.match(r"^([A-Za-z_]\w*)\s*([+\-*/])=\s*(.+)$", st, re.S)
    if m:  # compound assignment: x += e  ->  x = x + (e)
        return ("assign", m.group(1),
                _compile_expr(f"{m.group(1)} {m.group(2)} ({m.group(3)})"))
    m = re.match(r"^([A-Za-z_]\w*)\s*=(?!=)\s*(.+)$", st, re.S)
    if m:
        return ("assign", m.group(1), _compile_expr(m.group(2)))
    m = (re.match(r"^([A-Za-z_]\w*)\s*(\+\+|--)$", st)
         or re.match(r"^(?:(\+\+|--)\s*)([A-Za-z_]\w*)$", st))
    if m:  # i++ / ++i / i-- / --i
        name = m.group(1) if m.group(1).isidentifier() else m.group(2)
        op = m.group(2) if m.group(1).isidentifier() else m.group(1)
        return ("assign", name, _compile_expr(f"{name} {op[0]} 1"))
    return ("expr", _compile_expr(st))


def _parse_body(s: str, i: int, end: int, in_loop: bool = False):
    """`{ ... }` block or a single statement -> (stmt_list, next_index)."""
    i = _skip_ws(s, i)
    if i < end and s[i] == "{":
        k = _match_delim(s, i, "{", "}")
        return _parse_stmt_list(s, i + 1, k, in_loop), k + 1
    node, i = _parse_stmt(s, i, end, in_loop)
    return ([node] if node else []), i


_FUNCDEF_RX = None  # compiled lazily in _parse_stmt


def _parse_stmt(s: str, i: int, end: int, in_loop: bool = False):
    """One statement (possibly compound) -> (node | None, next_index)."""
    import re

    i = _skip_ws(s, i)
    if i >= end:
        return None, i
    if s[i] == ";":
        return None, i + 1
    if s[i] == "{":  # bare block
        k = _match_delim(s, i, "{", "}")
        return ("block", _parse_stmt_list(s, i + 1, k, in_loop)), k + 1
    global _FUNCDEF_RX
    if _FUNCDEF_RX is None:
        _FUNCDEF_RX = re.compile(
            r"(?:def|int|long|float|double|boolean|String|void)\s+"
            r"([A-Za-z_]\w*)\s*\(")
    fm = _FUNCDEF_RX.match(s, i)
    if fm and fm.end() <= end:
        # user-defined function (PainlessParser.g4 `function`): typed
        # header, typed params, braced body; only params/locals in scope
        po = fm.end() - 1
        pc = _match_delim(s, po, "(", ")")
        params = [p.strip().split()[-1]
                  for p in s[po + 1:pc].split(",") if p.strip()]
        if len(set(params)) != len(params):
            raise ScriptError("duplicate function parameter")
        j = _skip_ws(s, pc + 1)
        if j >= end or s[j] != "{":
            raise ScriptError("expected '{' after function header")
        k = _match_delim(s, j, "{", "}")
        body = _parse_stmt_list(s, j + 1, k, in_loop=False)
        return ("funcdef", fm.group(1), params, body), k + 1
    if _word_at(s, i, "if"):
        j = _skip_ws(s, i + 2)
        if j >= end or s[j] != "(":
            raise ScriptError("expected '(' after if")
        k = _match_delim(s, j, "(", ")")
        cond = _compile_expr(s[j + 1:k])
        then_b, i2 = _parse_body(s, k + 1, end, in_loop)
        i3 = _skip_ws(s, i2)
        els: list = []
        if i3 < end and _word_at(s, i3, "else"):
            i4 = _skip_ws(s, i3 + 4)
            if i4 < end and _word_at(s, i4, "if"):
                node, i5 = _parse_stmt(s, i4, end, in_loop)
                els, i3 = [node], i5
            else:
                els, i3 = _parse_body(s, i4, end, in_loop)
        return ("if", cond, then_b, els), i3
    if _word_at(s, i, "while"):
        j = _skip_ws(s, i + 5)
        if j >= end or s[j] != "(":
            raise ScriptError("expected '(' after while")
        k = _match_delim(s, j, "(", ")")
        cond = _compile_expr(s[j + 1:k])
        body, i2 = _parse_body(s, k + 1, end, in_loop=True)
        return ("while", cond, body), i2
    if _word_at(s, i, "for"):
        j = _skip_ws(s, i + 3)
        if j >= end or s[j] != "(":
            raise ScriptError("expected '(' after for")
        k = _match_delim(s, j, "(", ")")
        head = s[j + 1:k]
        body, i2 = _parse_body(s, k + 1, end, in_loop=True)
        # for-each: `for (def x : iterable)` / `for (x : iterable)`
        ci = _find_stmt_end(head, 0, len(head))
        if ci == len(head) and ":" in head:
            colon = _find_top(head, ":")
            if colon < 0:
                raise ScriptError(f"bad for-each head: {head!r}")
            var = head[:colon].strip()
            for kw in ("def", "int", "long", "float", "double", "String"):
                if var.startswith(kw + " "):
                    var = var[len(kw):].strip()
            if not var.isidentifier():
                raise ScriptError(f"bad for-each variable: {var!r}")
            return ("foreach", var, _compile_expr(head[colon + 1:]), body), i2
        parts = []
        p = 0
        while p <= len(head):
            q = _find_stmt_end(head, p, len(head))
            parts.append(head[p:q])
            p = q + 1
        if len(parts) != 3:
            raise ScriptError(f"for header needs init;cond;update: {head!r}")
        init = _compile_simple_stmt(parts[0])
        cond = (_compile_expr(parts[1]) if parts[1].strip()
                else _compile_expr("True"))
        upd = _compile_simple_stmt(parts[2])
        # the update rides OUTSIDE the body so `continue` still reaches
        # it (C semantics: continue jumps to the update expression)
        loop = ("while", cond, body, [upd] if upd else [])
        return ("block", ([init] if init else []) + [loop]), i2
    j = _find_stmt_end(s, i, end)
    return (_compile_simple_stmt(s[i:j], in_loop),
            (j + 1 if j < end else end))


def _parse_stmt_list(s: str, i: int, end: int,
                     in_loop: bool = False) -> list:
    out = []
    while True:
        i = _skip_ws(s, i)
        if i >= end:
            return out
        node, i = _parse_stmt(s, i, end, in_loop)
        if node is not None:
            out.append(node)


def compile_painless_script(source: str) -> list:
    """Painless STATEMENT subset -> statement tree (tagged tuples).

    Covers the multi-statement script bodies real users write
    (modules/lang-painless statement grammar, PainlessParser.g4):

      def base = doc['f'].value / 100.0;        # local declaration
      double bonus = cond ? 0.5 : 0.0;          # typed declaration
      base = base * 2;  base += 1;  i++;        # (compound) reassignment
      if (cond) { ... } else if (c2) { ... }    # branches, early return
      while (v >= 10) { v = v / 2.0; }          # bounded loops
      for (def i = 0; i < n; i++) { ... }       # C-style for
      for (w : params.weights) { ... }          # for-each over a list
      return base + bonus;                      # final / early return

      double f(double x) { return x * 2.0; }    # user functions
      break; continue;                            # per-row loop control

    Expressions go through the same sandbox rewriting as
    compile_painless. Evaluation (safe_eval_script) is VECTORIZED with
    row masks: an `if` runs both branches and merges assignments
    per-row; a `while` iterates with a shrinking active mask until
    every row's condition is false (per-row iteration counts, one
    numpy pass per iteration), capped at the Painless loop-counter
    limit; `break`/`continue` accumulate per-row into the innermost
    loop's control masks; user functions see only their params +
    whitelisted callables (no script locals), recursion-capped."""
    stmts = _parse_stmt_list(source, 0, len(source))
    if not stmts:
        raise ScriptError("empty script")
    if stmts[-1][0] == "expr":  # trailing bare expression acts as return
        stmts[-1] = ("return", stmts[-1][1])
    return stmts


def _mand(a, b):
    """Mask conjunction; None = all-active."""
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _mnot(m):
    import numpy as np

    if m is None:
        return False
    if isinstance(m, np.ndarray):
        return ~m
    return not m


def _many(m) -> bool:
    if m is None:
        return True
    if hasattr(m, "any"):
        return bool(m.any())
    return bool(m)


def _mfull(m) -> bool:
    if m is None:
        return True
    if hasattr(m, "all"):
        return bool(m.all())
    return bool(m)


def _vmerge(mask, new, old):
    """new where mask else old (scalar- and array-mask aware)."""
    import numpy as np

    if _mfull(mask):
        return new
    if isinstance(mask, np.ndarray):
        if old is None:
            old = new  # placeholder; uncovered rows guarded by caller
        return np.where(mask, new, old)
    return new if mask else old


def _mor(a, b):
    """Mask disjunction; None = no rows."""
    if a is None:
        return b
    if b is None:
        return a
    if a is True or b is True:
        return True
    return a | b


def _mminus(act, m):
    """act & ~m, where m None = nothing masked off."""
    if m is None:
        return act
    return _mand(act, _mnot(m))


_FN_DEPTH = 0
_MAX_FN_DEPTH = 64


def _make_user_fn(name: str, params: list, body: list, defscope: dict):
    """Painless user-defined function -> a sandbox callable: only its
    params, locals, and the defining scope's CALLABLES + params map are
    visible (Painless functions cannot read script locals); early
    returns use the same per-row mask machinery; recursion capped."""

    def fn(*args):
        global _FN_DEPTH
        if len(args) != len(params):
            raise ScriptError(
                f"{name}() takes {len(params)} argument(s), got {len(args)}")
        if _FN_DEPTH >= _MAX_FN_DEPTH:
            raise ScriptError(f"recursion limit in function '{name}'")
        # callables resolve at CALL time so self- and forward references
        # between script functions work (Painless hoists functions)
        sc = {k: v for k, v in defscope.items()
              if (callable(v) and not hasattr(v, "dtype")) or k == "params"}
        sc.update(zip(params, args))
        st = {"result": None, "returned": None}
        _FN_DEPTH += 1
        try:
            _exec_block(body, sc, None, st)
        finally:
            _FN_DEPTH -= 1
        if st["returned"] is None or not _mfull(st["returned"]):
            raise ScriptError(
                f"function '{name}' did not return a value for every row")
        return st["result"]

    return fn


def _exec_block(stmts: list, scope: dict, mask, state: dict,
                loop: dict | None = None) -> None:
    """Execute a statement block under `mask`; assignments to outer
    names merge per-row, block-local declarations die at block end.
    `loop` is the innermost enclosing loop's control context — rows
    that hit `break`/`continue` accumulate into its masks and stop
    executing subsequent statements of the body."""
    import numpy as np

    local_names: list[str] = []
    try:
        for st in stmts:
            act = _mand(mask, _mnot(state["returned"])
                        if state["returned"] is not None else None)
            if loop is not None:
                act = _mminus(act, loop["broken"])
                act = _mminus(act, loop["continued"])
            if not _many(act):
                return
            tag = st[0]
            if tag == "decl":
                _, name, tree = st
                if name in scope:
                    raise ScriptError(f"variable '{name}' already declared")
                scope[name] = _eval_node(tree.body, scope)
                local_names.append(name)
            elif tag == "assign":
                _, name, tree = st
                if name not in scope:
                    raise ScriptError(f"unknown variable '{name}'")
                with np.errstate(all="ignore"):
                    new = _eval_node(tree.body, scope)
                scope[name] = _vmerge(act, new, scope[name])
            elif tag == "return":
                with np.errstate(all="ignore"):
                    val = _eval_node(st[1].body, scope)
                state["result"] = _vmerge(act, val, state["result"])
                if act is None:
                    state["returned"] = True
                elif state["returned"] is None:
                    state["returned"] = act
                else:
                    state["returned"] = state["returned"] | act
            elif tag == "expr":
                _eval_node(st[1].body, scope)
            elif tag == "break":
                loop["broken"] = _mor(loop["broken"], act)
            elif tag == "continue":
                loop["continued"] = _mor(loop["continued"], act)
            elif tag == "funcdef":
                _, name, params, body = st
                if name in scope:
                    raise ScriptError(f"'{name}' already declared")
                scope[name] = _make_user_fn(name, params, body, scope)
                local_names.append(name)
            elif tag == "if":
                _, cond, then_b, else_b = st
                with np.errstate(all="ignore"):
                    c = _eval_node(cond.body, scope)
                mt = _mand(act, c)
                if then_b and _many(mt):
                    _exec_block(then_b, scope, mt, state, loop)
                me = _mand(act, _mnot(c))
                if else_b and _many(me):
                    _exec_block(else_b, scope, me, state, loop)
            elif tag == "while":
                cond, body = st[1], st[2]
                upd = st[3] if len(st) > 3 else []
                ctx = {"broken": None, "continued": None}
                iters = 0
                base = act  # outer break/continue can't change mid-loop
                while True:
                    a = _mand(base, _mnot(state["returned"])
                              if state["returned"] is not None else None)
                    a = _mminus(a, ctx["broken"])
                    with np.errstate(all="ignore"):
                        c = _eval_node(cond.body, scope)
                    m = _mand(a, c)
                    if not _many(m):
                        break
                    ctx["continued"] = None  # continue skips ONE iteration
                    _exec_block(body, scope, m, state, ctx)
                    if upd:
                        # C for-loop update: runs for CONTINUED rows too,
                        # not for broken/returned ones
                        u = _mand(m, _mnot(state["returned"])
                                  if state["returned"] is not None else None)
                        u = _mminus(u, ctx["broken"])
                        if _many(u):
                            _exec_block(upd, scope, u, state)
                    iters += 1
                    if iters > _MAX_LOOP_ITER:
                        raise ScriptError("loop iteration limit exceeded")
            elif tag == "foreach":
                _, name, itree, body = st
                items = _eval_node(itree.body, scope)
                if not isinstance(items, (list, tuple)):
                    raise ScriptError("for-each needs a list value")
                if name in scope:
                    raise ScriptError(f"variable '{name}' already declared")
                ctx = {"broken": None, "continued": None}
                base = act
                try:  # the loop variable is scoped to the loop
                    for item in items:
                        a = _mand(base, _mnot(state["returned"])
                                  if state["returned"] is not None else None)
                        a = _mminus(a, ctx["broken"])
                        if not _many(a):
                            break
                        ctx["continued"] = None
                        scope[name] = item
                        _exec_block(body, scope, a, state, ctx)
                finally:
                    scope.pop(name, None)
            elif tag == "block":
                _exec_block(st[1], scope, act, state, loop)
            else:  # pragma: no cover
                raise ScriptError(f"unknown statement tag {tag!r}")
    finally:
        for n in local_names:
            scope.pop(n, None)


def safe_eval_script(stmts: list, env: Mapping[str, Any]) -> Any:
    """Evaluate a compile_painless_script tree: locals bind into a copy
    of env (never mutating the caller's); returns the script's value.
    Every row must reach a `return` (vectorized early returns merge
    per-row under the active mask)."""
    scope = dict(env)
    state = {"result": None, "returned": None}
    _exec_block(stmts, scope, None, state)
    if state["returned"] is None or not _mfull(state["returned"]):
        raise ScriptError("script did not return a value for every row")
    return state["result"]


def compile_expression(source: str) -> str:
    """Lucene-expression syntax (modules/lang-expression,
    ExpressionScriptEngine.java) -> the sandbox dialect: `doc['f'].value`
    becomes a bare field name, `&&`/`||` become the vectorized `&`/`|`,
    the ternary becomes a `where(...)` call."""
    import re

    src = re.sub(r"doc\[\s*['\"]([A-Za-z_][\w.]*)['\"]\s*\]\.value",
                 r"\1", source)
    # 'and'/'or', NOT '&'/'|': the bitwise forms bind tighter than
    # comparisons in the sandbox AST, mis-grouping `a > 1 && b > 2`; the
    # BoolOp handler vectorizes and/or over arrays
    src = src.replace("&&", " and ").replace("||", " or ")
    return _rewrite_ternary(src)
