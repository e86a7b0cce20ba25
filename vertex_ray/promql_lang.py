"""PromQL expression front-end over the committed tier store.

The reference's user-facing language is VTL — a compiled expression
language wired into filter/route/rewrite (/root/reference
lib/vtl/src/compiler/, 16k LoC, 74 stdlib functions). This engine's
read-side analogue is PromQL over the tier store: every PromQL
operation already exists as a distributed stage function
(stages/promql.*) or a pruned store read (vertex_ray/read). This
module is the missing TEXT front-end: a lexer + recursive-descent
parser producing a small AST, and an evaluator that LOWERS each node
onto those existing stages. The parser owns zero execution logic, so
every construct inherits the scale shape of the stage it lowers to —
pruned block reads before decode, per-batch combiner partials before
the one hash exchange, broadcast-free vector matching via hash joins.

Grammar (the subset the stage library implements):

    expr      := or_expr
    or_expr   := and_expr ("or" and_expr)*
    and_expr  := cmp_expr (("and" | "unless") cmp_expr)*
    cmp_expr  := add_expr ((">" ">=" "<" "<=" "==" "!=") ["bool"]
                           add_expr)?
    add_expr  := mul_expr (("+" | "-") mul_expr)*
    mul_expr  := unary (("*" | "/") unary)*
    unary     := "-" unary | postfix
    postfix   := atom ["[" DUR ":" DUR "]"] ("offset" DUR | "@" NUM)*
    atom      := NUMBER | "(" expr ")" | agg | call | selector
    agg       := AGGOP [grouping] "(" [NUMBER ","] expr ")" [grouping]
    grouping  := ("by" | "without") "(" label ("," label)* ")"
    call      := FUNC "(" arg ("," arg)* ")"
    selector  := NAME ["{" matcher ("," matcher)* "}"]
                 ["[" DUR "]"] ("offset" DUR | "@" NUM)*
    matcher   := LABEL ("=" | "!=" | "=~" | "!~") STRING

Binary vector matching: ``left <op> on(l1, l2) [group_left(c1, ...) |
group_right(c1, ...)] right`` or ``left <op> ignoring(l1, l2) right``
(ignoring matches on the complement label set — lowered as a strip of
the ignored pairs from the composite series key, metric name dropped).
``group_right`` mirrors ``group_left`` with the MANY side on the right
— lowered by swapping the join sides and the operands back inside the
kernel, so the carried columns come from the right vector.

The ``@`` modifier (``m[1h] @ 1767441600``) pins a selector's
evaluation at a fixed instant: the read prunes blocks to exactly the
pinned trailing frame, and the resulting vector is window-FREE in
vector matching — ``increase(m[1h]) / on(series_key)
increase(m[1h] @ T)`` joins on the labels alone and every output row
keeps the live side's window_start (the "compare now to a fixed
baseline" panel, Prometheus's @-modifier semantics in a range query).

Time model — how [range] maps onto the tier store: tiers hold
per-window DELTAS (the MetricNormalize absolute→incremental contract,
/root/reference lib/framework/src/sink/buffer/metrics.rs:110-146) at
widths 1m/5m/1h/1d. A range selector ``m[W]`` evaluates on the widest
tier whose width divides W, with a trailing frame of W/width windows
(ROWS semantics, clipped at series start — over_time's contract); so
``increase(m[1h])`` is exactly the 1h tier's stored delta, and
``increase(m[30m])`` is a 6-window moving sum over the 5m tier. A bare
selector evaluates at ``step`` (the /api/v1/query_range step → tier).
Operands of a binary/set op must share a step; mixed-resolution
expressions go through read.query_range_stitched instead.

Exactness contract (inherited from the stages): selectors read the
integer ``count`` column by default, so sums/averages/stddevs merge as
exact int64 partials and the single float evaluation at the end is
bit-identical to the DuckDB mirrors — the same convention every
structured query in __ray_entry__ follows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass
class Num:
    v: float


@dataclass
class Sel:
    name: str
    matchers: list = field(default_factory=list)  # (label, op, value)
    range_s: int | None = None
    offset_s: int = 0
    at_s: int | None = None  # @ modifier: fixed evaluation timestamp


@dataclass
class Subquery:
    expr: object
    range_s: int
    step_s: int


@dataclass
class Call:
    func: str
    args: list


@dataclass
class Agg:
    op: str
    expr: object
    param: float | str | None = None
    by: list | None = None
    without: list | None = None


@dataclass
class Bin:
    op: str
    lhs: object
    rhs: object
    on: list | None = None
    ignoring: list | None = None
    group_left: list | None = None
    group_right: list | None = None
    bool_mode: bool = False


AGG_OPS = {"sum", "min", "max", "avg", "count", "stddev", "group",
           "quantile", "topk", "bottomk", "count_values"}

RANGE_FUNCS = {
    "rate", "increase", "delta", "irate", "idelta", "resets", "changes",
    "deriv", "predict_linear", "holt_winters",
    "avg_over_time", "sum_over_time", "min_over_time", "max_over_time",
    "count_over_time", "stddev_over_time", "stdvar_over_time",
    "quantile_over_time", "last_over_time", "first_over_time",
    "mad_over_time", "histogram_quantile", "histogram_fraction",
    "absent_over_time", "present_over_time",
}
INSTANT_FUNCS = {
    "abs", "ceil", "floor", "round", "sqrt", "sgn", "timestamp",
    "clamp", "clamp_min", "clamp_max", "sort", "sort_desc",
    "label_replace", "label_join",
    "minute", "hour", "day_of_week", "day_of_month", "day_of_year",
    "month", "year", "days_in_month",
}

# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<DUR>\d+(?:[smhdw])(?:\d+(?:[smhdw]))*)(?!\w)
      | (?P<NUM>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+)
      | (?P<ID>[a-zA-Z_][a-zA-Z0-9_:]*)
      | (?P<STR>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
      | (?P<OP>=~|!~|==|!=|>=|<=|[-+*/%(){}\[\],:=<>@])
    """,
    re.X,
)

_DUR_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _parse_duration(s: str) -> int:
    total = 0
    for n, u in re.findall(r"(\d+)([smhdw])", s):
        total += int(n) * _DUR_UNITS[u]
    return total


def _lex(src: str) -> list[tuple[str, str]]:
    toks, i = [], 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise SyntaxError(f"promql: bad character {src[i]!r} at {i}")
        i = m.end()
        kind = m.lastgroup
        if kind != "WS":
            toks.append((kind, m.group()))
    toks.append(("EOF", ""))
    return toks


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0

    def peek(self, k: int = 0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val: str):
        k, v = self.next()
        if v != val:
            raise SyntaxError(f"promql: expected {val!r}, got {v!r}")
        return v

    def at(self, val: str) -> bool:
        return self.peek()[1] == val

    # ---- precedence climbing -------------------------------------------
    def parse(self):
        e = self.or_expr()
        if self.peek()[0] != "EOF":
            raise SyntaxError(f"promql: trailing input at {self.peek()[1]!r}")
        return e

    def or_expr(self):
        e = self.and_expr()
        while self.at("or"):
            self.next()
            on, ig, gl, gr = self._matching()
            e = Bin("or", e, self.and_expr(), on=on, ignoring=ig,
                    group_left=gl, group_right=gr)
        return e

    def and_expr(self):
        e = self.cmp_expr()
        while self.peek()[1] in ("and", "unless"):
            op = self.next()[1]
            on, ig, gl, gr = self._matching()
            e = Bin(op, e, self.cmp_expr(), on=on, ignoring=ig,
                    group_left=gl, group_right=gr)
        return e

    _CMP = {">": "gt", ">=": "ge", "<": "lt", "<=": "le",
            "==": "eq", "!=": "ne"}

    def cmp_expr(self):
        e = self.add_expr()
        if self.peek()[1] in self._CMP:
            op = self._CMP[self.next()[1]]
            bool_mode = False
            if self.at("bool"):
                self.next()
                bool_mode = True
            on, ig, gl, gr = self._matching()
            e = Bin(op, e, self.add_expr(), on=on, ignoring=ig,
                    group_left=gl, group_right=gr, bool_mode=bool_mode)
        return e

    def add_expr(self):
        e = self.mul_expr()
        while self.peek()[1] in ("+", "-"):
            op = {"+": "add", "-": "sub"}[self.next()[1]]
            on, ig, gl, gr = self._matching()
            e = Bin(op, e, self.mul_expr(), on=on, ignoring=ig,
                    group_left=gl, group_right=gr)
        return e

    def mul_expr(self):
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = {"*": "mul", "/": "div"}[self.next()[1]]
            on, ig, gl, gr = self._matching()
            e = Bin(op, e, self.unary(), on=on, ignoring=ig,
                    group_left=gl, group_right=gr)
        return e

    def _matching(self):
        on = ig = gl = gr = None
        if self.at("on"):
            self.next()
            on = self._label_list()
        elif self.at("ignoring"):
            self.next()
            ig = self._label_list()
        if self.at("group_left"):
            self.next()
            gl = self._label_list() if self.at("(") else []
        elif self.at("group_right"):
            self.next()
            gr = self._label_list() if self.at("(") else []
        return on, ig, gl, gr

    def unary(self):
        if self.at("-"):
            self.next()
            inner = self.unary()
            if isinstance(inner, Num):
                return Num(-inner.v)
            return Bin("mul", inner, Num(-1.0))
        return self.postfix()

    def postfix(self):
        e = self.atom()
        if self.at("["):
            self.next()
            k, v = self.next()
            if k != "DUR":
                raise SyntaxError(f"promql: expected duration, got {v!r}")
            w = _parse_duration(v)
            if self.at(":"):
                self.next()
                k2, v2 = self.next()
                if k2 != "DUR":
                    raise SyntaxError(
                        f"promql: expected subquery step, got {v2!r}")
                self.expect("]")
                e = Subquery(e, w, _parse_duration(v2))
            else:
                self.expect("]")
                if not isinstance(e, Sel) or e.range_s is not None:
                    raise SyntaxError(
                        "promql: [range] only on a selector (use [W:S] "
                        "for subqueries)")
                e.range_s = w
        while self.peek()[1] in ("offset", "@"):
            mod = self.next()[1]
            k, v = self.next()
            if not isinstance(e, Sel):
                raise SyntaxError(f"promql: {mod} only on a selector")
            if mod == "offset":
                if k != "DUR":
                    raise SyntaxError(f"promql: expected offset duration, "
                                      f"got {v!r}")
                e.offset_s = _parse_duration(v)
            else:  # @ modifier: fixed evaluation timestamp (epoch seconds)
                if k != "NUM":
                    raise SyntaxError(f"promql: expected @ timestamp, "
                                      f"got {v!r}")
                e.at_s = int(float(v))
        return e

    def atom(self):
        k, v = self.peek()
        if k == "NUM":
            self.next()
            return Num(float(v))
        if v == "(":
            self.next()
            e = self.or_expr()
            self.expect(")")
            return e
        if k != "ID":
            raise SyntaxError(f"promql: unexpected {v!r}")
        if v in AGG_OPS and self.peek(1)[1] in ("(", "by", "without"):
            return self._agg()
        if self.peek(1)[1] == "(" and v in RANGE_FUNCS | INSTANT_FUNCS:
            return self._call()
        return self._selector()

    def _label_list(self):
        self.expect("(")
        labels = []
        while not self.at(")"):
            k, v = self.next()
            if k != "ID":
                raise SyntaxError(f"promql: expected label, got {v!r}")
            labels.append(v)
            if self.at(","):
                self.next()
        self.expect(")")
        return labels

    def _agg(self):
        op = self.next()[1]
        by = without = None
        if self.at("by"):
            self.next()
            by = self._label_list()
        elif self.at("without"):
            self.next()
            without = self._label_list()
        self.expect("(")
        param = None
        if op in ("quantile", "topk", "bottomk", "count_values"):
            k, v = self.next()
            if op == "count_values":
                if k != "STR":
                    raise SyntaxError("promql: count_values needs a "
                                      "label string param")
                param = v[1:-1]
            else:
                if k != "NUM":
                    raise SyntaxError(f"promql: {op} needs a numeric param")
                param = float(v)
            self.expect(",")
        e = self.or_expr()
        self.expect(")")
        if by is None and without is None:
            if self.at("by"):
                self.next()
                by = self._label_list()
            elif self.at("without"):
                self.next()
                without = self._label_list()
        return Agg(op, e, param=param, by=by, without=without)

    def _call(self):
        func = self.next()[1]
        self.expect("(")
        args = []
        while not self.at(")"):
            if self.peek()[0] == "STR":
                args.append(self.next()[1][1:-1])
            else:
                args.append(self.or_expr())
            if self.at(","):
                self.next()
        self.expect(")")
        return Call(func, args)

    def _selector(self):
        name = self.next()[1]
        matchers = []
        if self.at("{"):
            self.next()
            while not self.at("}"):
                lk, lv = self.next()
                if lk != "ID":
                    raise SyntaxError(f"promql: expected label, got {lv!r}")
                op = self.next()[1]
                if op not in ("=", "!=", "=~", "!~"):
                    raise SyntaxError(f"promql: bad matcher op {op!r}")
                sk, sv = self.next()
                if sk != "STR":
                    raise SyntaxError(f"promql: matcher value must be a "
                                      f"string, got {sv!r}")
                matchers.append((lv, op, sv[1:-1]))
                if self.at(","):
                    self.next()
            self.expect("}")
        return Sel(name, matchers)


def parse(src: str):
    """Parse a PromQL expression into this module's AST."""
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------

_TIERS = [("1d", 86400), ("1h", 3600), ("5m", 300), ("1m", 60)]


def _pick_tier(range_s: int) -> tuple[str, int, int]:
    """Widest tier whose width divides the selector range → (tier name,
    width, trailing-frame window count)."""
    for name, w in _TIERS:
        if range_s >= w and range_s % w == 0:
            return name, w, range_s // w
    raise ValueError(f"promql: no tier divides range {range_s}s "
                     f"(tiers: {[w for _, w in _TIERS]})")


@dataclass
class _Vector:
    """An instant vector mid-evaluation: a Dataset whose schema is
    id_cols + [window_start, value]. ``pinned`` is the window_start a
    selector's ``@`` modifier fixed evaluation at — a pinned vector is
    window-FREE in vector matching (it represents one instant, so a
    binary/set op joins on the labels alone and the unpinned side's
    window_start survives)."""
    ds: object
    id_cols: list[str]
    step_s: int
    pinned: int | None = None


class _Ctx:
    def __init__(self, store: str, value_col: str, step_s: int,
                 start: int | None, end: int | None, layout: str,
                 n_buckets: int, vectors: dict | None = None):
        self.store = store
        self.value_col = value_col
        self.step_s = step_s
        self.start = start
        self.end = end
        self.layout = layout
        self.n_buckets = n_buckets
        # Prometheus rule-group chaining: name -> (rendered Dataset with
        # series_key/window_start/value, step_s). Selectors resolve here
        # FIRST, then fall back to the block store.
        self.vectors = vectors or {}
        # EXPLAIN notes appended during lowering (explain_promql) — the
        # evaluator is lazy (it only builds the Dataset graph), so these
        # describe the REAL plan, not a simulation.
        self.plan: list[str] = []


def _reshape(ds, id_cols: list[str], src: str):
    """Project to id_cols + window_start + value (renaming src→value)."""
    cols = id_cols + ["window_start"]

    def fn(t: pa.Table) -> pa.Table:
        return t.select(cols + [src]).rename_columns(cols + ["value"])

    return ds.map_batches(fn, batch_format="pyarrow")


def _qr(ctx: "_Ctx", tier: str, **kw):
    """Store read — one block store, or a FEDERATED FLEET when the
    evaluation context's store is a list of shard stores (each shard
    prunes independently; union adds no exchange —
    read.query_range_multi)."""
    from vertex_ray.read import query_range, query_range_multi

    if isinstance(ctx.store, (list, tuple)):
        return query_range_multi(list(ctx.store), tier, **kw)
    return query_range(ctx.store, tier, **kw)


def _matcher_filter(matchers):
    from vertex_ray.stages.promql import extract_label

    def fn(t: pa.Table) -> pa.Table:
        for lbl, op, val in matchers:
            col = pc.fill_null(
                extract_label(t, lbl, out_col="__m")["__m"], "")
            if op == "=":
                m = pc.equal(col, val)
            elif op == "!=":
                m = pc.not_equal(col, val)
            else:
                m = pc.match_substring_regex(col, f"^(?:{val})$")
                if op == "!~":
                    m = pc.invert(m)
            t = t.filter(m)
        return t

    return fn


def _eval_selector(sel: Sel, ctx: _Ctx, tier_w: int | None = None
                   ) -> tuple[_Vector, int]:
    """Read the selector's tier rows → (vector, trailing-frame n)."""
    # the reserved __col__ pseudo-matcher overrides the tier column this
    # selector reads (count/sum/min/max/last) — e.g. gauge metrics read
    # their last-write column: ``conv_turn_idx{__col__="last"}``. Rule
    # vectors carry a single "value" column, so it is ignored there.
    vcol = ctx.value_col
    matchers = []
    for m in sel.matchers:
        if m[0] == "__col__":
            if m[1] != "=":
                raise ValueError("promql: __col__ takes an equality "
                                 "matcher")
            vcol = m[2]
        else:
            matchers.append(m)

    if sel.name in ctx.vectors:
        ctx.plan.append(f"select rule vector {sel.name!r} (in-memory, "
                        f"no store read)")
        if sel.at_s is not None:
            raise ValueError("promql: @ modifier on a rule vector is "
                             "unsupported — pin the underlying selector")
        ds0, vstep = ctx.vectors[sel.name]
        if sel.range_s is not None:
            if sel.range_s % vstep:
                raise ValueError(
                    f"promql: range {sel.range_s}s not a multiple of "
                    f"rule vector {sel.name!r}'s step {vstep}s")
            n = sel.range_s // vstep
        else:
            n = 1
        ds = ds0
        if sel.offset_s:
            off = sel.offset_s

            def restamp(t: pa.Table) -> pa.Table:
                i = t.schema.get_field_index("window_start")
                return t.set_column(i, "window_start",
                                    pc.add(t["window_start"], off))

            ds = ds.map_batches(restamp, batch_format="pyarrow")
        if matchers:
            ds = ds.map_batches(_matcher_filter(matchers),
                                batch_format="pyarrow")
        return _Vector(ds, ["series_key"], vstep), n

    if tier_w is not None:
        tier = next(nm for nm, w in _TIERS if w == tier_w)
        w, n = tier_w, 1
    elif sel.range_s is not None:
        tier, w, n = _pick_tier(sel.range_s)
    else:
        tier, w, n = _pick_tier(ctx.step_s)
        if w != ctx.step_s:
            raise ValueError(f"promql: step {ctx.step_s}s is not a tier")
    # prune the block scan with the first equality matcher; every
    # matcher (incl. this one) is re-applied exactly post-decode.
    # A Prometheus ``label=""`` equality must also match series that
    # LACK the label, so the empty-string case cannot prune (the exact
    # post-decode filter fill_null("")-matches those series).
    push = None
    for lbl, op, val in matchers:
        if op == "=" and val != "":
            push = rf"[{{,]{re.escape(lbl)}={re.escape(val)}[,}}]"
            break
    start, end, offset, pinned = ctx.start, ctx.end, sel.offset_s, None
    if sel.at_s is not None:
        # @ modifier: pin evaluation at the window containing at_s
        # (after offset — ``m @ T offset 1h`` evaluates at T-1h). The
        # pin becomes a start/end BLOCK-PRUNED read of exactly the
        # trailing frame, so a pinned baseline costs one frame of
        # blocks no matter how wide the store is.
        pinned = ((sel.at_s - sel.offset_s) // w) * w
        start, end, offset = pinned - (n - 1) * w, pinned, 0
    note = (f"scan {tier} tier: metric={sel.name} col={vcol}"
            + (f" key-pushdown={push!r}" if push else "")
            + (f" +{len(matchers)} matcher(s) post-decode" if matchers
               else "")
            + (f" range=[{start},{end}] (block-pruned)"
               if start is not None or end is not None else "")
            + (f" offset={offset}s" if offset else "")
            + (f" PINNED@{pinned}" if pinned is not None else "")
            + f" -> decode; trailing frame n={n}")
    ctx.plan.append(note)
    ds = _qr(ctx, tier, metric=sel.name, key_regex=push,
             columns=["series_key", "window_start", vcol],
             start=start, end=end, layout=ctx.layout,
             offset=offset)
    if matchers:
        ds = ds.map_batches(_matcher_filter(matchers),
                            batch_format="pyarrow")
    ds = _reshape(ds, ["series_key"], vcol)
    return _Vector(ds, ["series_key"], w, pinned=pinned), n


def _need_vector(x, what: str) -> _Vector:
    if not isinstance(x, _Vector):
        raise ValueError(f"promql: {what} needs a vector operand")
    return x


def _range_arg(node, ctx: _Ctx, allow_pin: bool = False
               ) -> tuple[_Vector, int]:
    """Evaluate a range-function argument: a range selector (tier read)
    or a subquery (inner expr at its own step, outer frame n = W/S)."""
    if isinstance(node, Sel):
        if node.range_s is None:
            raise ValueError("promql: range function needs m[W]")
        if node.at_s is not None and not allow_pin:
            raise ValueError("promql: @ modifier is supported under "
                             "rate/increase and the *_over_time family")
        return _eval_selector(node, ctx)
    if isinstance(node, Subquery):
        inner = _need_vector(_eval(node.expr, ctx), "subquery")
        if inner.step_s != node.step_s:
            raise ValueError(
                f"promql: subquery step {node.step_s}s != inner "
                f"expression step {inner.step_s}s")
        if node.range_s % node.step_s:
            raise ValueError("promql: subquery range must be a multiple "
                             "of its step")
        return inner, node.range_s // node.step_s
    raise ValueError("promql: range function needs m[W] or (expr)[W:S]")


def _key_col(v: _Vector) -> str:
    if len(v.id_cols) != 1:
        raise ValueError(f"promql: per-series function needs a single "
                         f"identity column, got {v.id_cols}")
    return v.id_cols[0]


def _scalar_arith(v: _Vector, s: float, op: str, reverse: bool) -> _Vector:
    ops = {"add": pc.add, "sub": pc.subtract, "mul": pc.multiply,
           "div": pc.divide}
    cmps = {"gt": pc.greater, "ge": pc.greater_equal, "lt": pc.less,
            "le": pc.less_equal, "eq": pc.equal, "ne": pc.not_equal}

    def fn(t: pa.Table) -> pa.Table:
        x = pc.cast(t["value"], pa.float64())
        a, b = (s, x) if reverse else (x, s)
        i = t.schema.get_field_index("value")
        return t.set_column(i, "value", ops[op](a, b))

    def cmp_fn(bool_mode):
        def fn(t: pa.Table) -> pa.Table:
            x = pc.cast(t["value"], pa.float64())
            a, b = (s, x) if reverse else (x, s)
            m = cmps[op](a, b)
            if bool_mode:
                i = t.schema.get_field_index("value")
                return t.set_column(i, "value",
                                    pc.cast(m, pa.float64()))
            return t.filter(m)
        return fn

    if op in ops:
        return _Vector(v.ds.map_batches(fn, batch_format="pyarrow"),
                       v.id_cols, v.step_s, pinned=v.pinned)
    return op, cmp_fn  # handled by caller (needs bool_mode)


def _pin(v: _Vector, pinned: int | None) -> _Vector:
    """Restrict a range-function result to the pinned window (the @
    modifier's evaluation instant). The windowed aggregation upstream
    consumed the whole trailing frame; only the frame ENDING at the pin
    is the @-expression's value."""
    if pinned is None:
        return v
    out = v.ds.map_batches(
        lambda t: t.filter(pc.equal(t["window_start"], pinned)),
        batch_format="pyarrow")
    return _Vector(out, v.id_cols, v.step_s, pinned=pinned)


def _materialize_labels(v: _Vector, labels: list[str]) -> _Vector:
    """Ensure every label in ``labels`` exists as a column (extracted
    from series_key when missing)."""
    from vertex_ray.stages.promql import extract_label

    missing = [l for l in labels if l not in v.id_cols
               and l != "window_start"]
    if not missing:
        return v
    if "series_key" not in v.id_cols:
        raise ValueError(f"promql: labels {missing} not available on "
                         f"vector with identity {v.id_cols}")

    def fn(t: pa.Table) -> pa.Table:
        for l in missing:
            t = extract_label(t, l, out_col=l)
        return t

    return _Vector(v.ds.map_batches(fn, batch_format="pyarrow"),
                   v.id_cols + missing, v.step_s)


def _ignoring_key(v: _Vector, labels: list[str],
                  out_col: str = "series_key") -> _Vector:
    """Lower ``ignoring(labels)`` matching: the match key is the series
    key with the metric NAME dropped and every ignored ``label=value``
    pair stripped (stages/promql.strip_labels — the same vectorized RE2
    transform behind ``without(...)``), e.g.
    ``turns_total{conv_id=c1,role=user}`` ignoring(role) →
    ``{conv_id=c1}``. Prometheus matches on the complement label set
    with the name excluded; on this engine's composite keys that
    complement IS the stripped key, so the lowering adds no new
    execution shape — the join downstream is the same one exchange."""
    from vertex_ray.stages.promql import strip_labels

    if "series_key" not in v.id_cols:
        raise ValueError(
            f"promql: ignoring(...) needs a series_key identity, got "
            f"{v.id_cols}")

    def fn(t: pa.Table) -> pa.Table:
        k = pc.replace_substring_regex(
            pc.cast(t["series_key"], pa.string()), r"^[^{]*", "")
        if out_col in t.schema.names:
            t = t.set_column(t.schema.get_field_index(out_col),
                             out_col, k)
        else:
            t = t.append_column(out_col, k)
        return strip_labels(t, labels, key_col=out_col)

    ids = v.id_cols if out_col in v.id_cols else v.id_cols + [out_col]
    return _Vector(v.ds.map_batches(fn, batch_format="pyarrow"),
                   ids, v.step_s)


def _eval_bin(node: Bin, ctx: _Ctx):
    from vertex_ray.stages.promql import binary_op, set_op

    lhs = _eval(node.lhs, ctx)
    rhs = _eval(node.rhs, ctx)
    if isinstance(lhs, float) and isinstance(rhs, float):
        ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
               "mul": lambda a, b: a * b, "div": lambda a, b: a / b}
        if node.op not in ops:
            raise ValueError(f"promql: scalar {node.op} unsupported")
        return ops[node.op](lhs, rhs)

    # vector <op> scalar / scalar <op> vector
    if isinstance(lhs, float) or isinstance(rhs, float):
        ctx.plan.append(f"scalar {node.op} (batch-local)")
        v = lhs if isinstance(lhs, _Vector) else rhs
        s = rhs if isinstance(rhs, float) else lhs
        reverse = isinstance(lhs, float)
        r = _scalar_arith(v, s, node.op, reverse)
        if isinstance(r, _Vector):
            return r
        _, cmp_fn = r
        return _Vector(v.ds.map_batches(cmp_fn(node.bool_mode),
                                        batch_format="pyarrow"),
                       v.id_cols, v.step_s, pinned=v.pinned)

    l, r = lhs, rhs
    if l.step_s != r.step_s:
        raise ValueError(f"promql: binary operands at different steps "
                         f"({l.step_s}s vs {r.step_s}s) — align tiers or "
                         f"use read.query_range_stitched")
    # a pinned (@-modified) operand is window-free in matching: it is
    # one instant, so the join key drops window_start and the unpinned
    # side's window survives on every output row
    win_free = l.pinned is not None or r.pinned is not None

    if node.op in ("and", "or", "unless"):
        if node.op == "or" and win_free:
            raise ValueError("promql: 'or' with a pinned (@) operand is "
                             "unsupported — operands are not the same "
                             "vector space")
        wcols = [] if win_free else ["window_start"]
        if node.ignoring is not None:
            # match on the complement key, keep the LEFT's full labels
            # (set ops select left samples — identity must survive)
            li = _ignoring_key(l, node.ignoring, out_col="__ik")
            ri = _ignoring_key(r, node.ignoring, out_col="__ik")
            ctx.plan.append(f"set {node.op} ignoring{tuple(node.ignoring)}"
                            f" — complement-key strip + join exchange")
            out = set_op(li.ds, ri.ds, ["__ik"] + wcols,
                         op=node.op, n_buckets=ctx.n_buckets)
            out = out.map_batches(
                lambda t: t.select(
                    [c for c in t.schema.names if c != "__ik"]),
                batch_format="pyarrow")
            return _Vector(out, l.id_cols, l.step_s, pinned=l.pinned)
        on = node.on or sorted(set(l.id_cols) & set(r.id_cols))
        if not on:
            raise ValueError("promql: set op needs on(...) or shared "
                             "identity columns")
        l = _materialize_labels(l, on)
        r = _materialize_labels(r, on)
        if node.op == "or" and set(l.ds.schema().names) != \
                set(r.ds.schema().names):
            raise ValueError("promql: 'or' operands must share a schema")
        ctx.plan.append(f"set {node.op} on {on + wcols} — "
                        f"{'semi' if node.op == 'and' else 'anti' if node.op == 'unless' else 'anti+union'}"
                        f"-join exchange ({ctx.n_buckets} buckets)")
        out = set_op(l.ds, r.ds, on + wcols, op=node.op,
                     n_buckets=ctx.n_buckets)
        return _Vector(out, l.id_cols, l.step_s, pinned=l.pinned)

    on = node.on
    if node.ignoring is not None:
        # rewrite both identities to the complement key — the result
        # identity of ignoring-matched arithmetic IS that stripped key
        l = _ignoring_key(l, node.ignoring)
        r = _ignoring_key(r, node.ignoring)
        on = ["series_key"]
    if on is None:
        if l.id_cols != r.id_cols:
            raise ValueError("promql: vector match needs on(...) when "
                             "identities differ")
        on = l.id_cols
    l = _materialize_labels(l, on)
    r = _materialize_labels(r, on)
    cmp_op = node.op in ("gt", "ge", "lt", "le", "eq", "ne")
    keys = on if win_free else on + ["window_start"]
    out_pin = l.pinned if (l.pinned is not None and r.pinned is not None) \
        else None

    if node.group_right is not None or (l.pinned is not None
                                        and r.pinned is None):
        # the MANY side is the RIGHT vector (group_right), or the LEFT
        # operand is the pinned instant (unique per match key) — either
        # way binary_op's first argument must be the many side: swap
        # the datasets and have the finish kernel swap operands back
        # (same one-exchange join, operand order preserved exactly).
        if cmp_op and not node.bool_mode:
            raise ValueError("promql: comparison filter semantics keep "
                             "the left sample — use `bool` with "
                             "group_right / a pinned left operand")
        carry = node.group_right or []
        carry_all = (["window_start"] if win_free else []) + \
            [c for c in carry if c not in keys]
        lds = l.ds.map_batches(
            lambda t: t.rename_columns(
                [c if c != "value" else "__lv" for c in t.schema.names]),
            batch_format="pyarrow")
        ctx.plan.append(
            f"match {node.op} on={on} keys={keys} carry={carry} "
            f"(sides swapped: many side is RIGHT"
            + (", left pinned" if l.pinned is not None else "")
            + f") — one hash-join exchange ({ctx.n_buckets} buckets)")
        out = binary_op(r.ds, lds, keys, "value", "__lv",
                        op=node.op, out_col="__out",
                        n_buckets=ctx.n_buckets, carry_left=carry_all,
                        bool_mode=node.bool_mode, swap_operands=True)
        id_cols = on + [c for c in carry if c not in on]
        return _Vector(_reshape(out, id_cols, "__out"), id_cols,
                       r.step_s if r.pinned is None else l.step_s,
                       pinned=out_pin)

    carry = node.group_left or []
    carry_all = (["window_start"] if win_free else []) + \
        [c for c in carry if c not in keys]

    # distinct value-column names through the join
    rds = r.ds.map_batches(
        lambda t: t.rename_columns(
            [c if c != "value" else "__rv" for c in t.schema.names]),
        batch_format="pyarrow")
    ctx.plan.append(
        f"match {node.op} on={on} keys={keys} carry={carry}"
        + (" (window-free: pinned operand)" if win_free else "")
        + f" — one hash-join exchange ({ctx.n_buckets} buckets)")
    out = binary_op(l.ds, rds, keys, "value", "__rv",
                    op=node.op, out_col="__out", n_buckets=ctx.n_buckets,
                    carry_left=carry_all, bool_mode=node.bool_mode)
    id_cols = on + [c for c in carry if c not in on]
    cmp_filter = cmp_op and not node.bool_mode
    src = "value" if cmp_filter else "__out"
    return _Vector(_reshape(out, id_cols, src), id_cols,
                   l.step_s if l.pinned is None else r.step_s,
                   pinned=out_pin)


def _eval_agg(node: Agg, ctx: _Ctx) -> _Vector:
    from vertex_ray.stages.ops import topk_per_group
    from vertex_ray.stages.promql import (
        aggregate_without,
        count_values,
        label_aggregate,
    )

    v = _need_vector(_eval(node.expr, ctx), f"{node.op}()")

    if node.op in ("topk", "bottomk"):
        if node.without:
            raise ValueError("promql: topk/bottomk without() unsupported")
        ctx.plan.append(f"{node.op} k={int(node.param)}"
                        + (f" by{tuple(node.by)}" if node.by else "")
                        + " — block-local trim combiner + one exchange")
        key = _key_col(v)
        if node.by:
            # topk by (labels): rank within each (labels, window) group
            # — one composite group key, same block-local-trim combiner
            vm = _materialize_labels(v, node.by)
            labels = sorted(node.by)

            def grp(t: pa.Table) -> pa.Table:
                k = pc.cast(t["window_start"], pa.string())
                for l in labels:
                    k = pc.binary_join_element_wise(
                        k, pc.fill_null(pc.cast(t[l], pa.string()), ""),
                        "\x1f")
                return t.append_column("__grp", k)

            gds = vm.ds.map_batches(grp, batch_format="pyarrow")
            out = topk_per_group(gds, "__grp", "value", int(node.param),
                                 key,
                                 keep_cols=[key, "window_start"],
                                 ascending=node.op == "bottomk")
            return _Vector(_reshape(out, [key], "value"), [key],
                           v.step_s, pinned=v.pinned)
        out = topk_per_group(v.ds, "window_start", "value",
                             int(node.param), key, keep_cols=[key],
                             ascending=node.op == "bottomk")
        return _Vector(_reshape(out, [key], "value"), [key], v.step_s,
                       pinned=v.pinned)

    if node.op == "count_values":
        if node.by or node.without:
            raise ValueError("promql: count_values grouping unsupported")
        lbl = str(node.param)
        out = count_values(v.ds, "value", out_col="__n",
                           n_buckets=ctx.n_buckets)
        out = out.map_batches(
            lambda t: t.select(["value", "window_start", "__n"])
            .rename_columns([lbl, "window_start", "value"]),
            batch_format="pyarrow")
        return _Vector(out, [lbl], v.step_s, pinned=v.pinned)

    if node.without is not None:
        if node.op in ("quantile", "group"):
            raise ValueError(f"promql: {node.op} without() unsupported")
        ctx.plan.append(f"agg {node.op} without({node.without}) — "
                        f"key strip + combiner partials + one bucket "
                        f"exchange")
        out = aggregate_without(v.ds, node.without, "value",
                                agg=node.op, n_buckets=ctx.n_buckets)
        return _Vector(out, ["series_key"], v.step_s, pinned=v.pinned)

    by = node.by or []
    if not by:
        raise ValueError("promql: aggregation needs by(...) or "
                         "without(...)")
    if len(by) == 1:
        q = 0.5 if node.param is None else float(node.param)
        ctx.plan.append(f"agg {node.op} by({by[0]}) — combiner "
                        f"partials + one bucket exchange")
        out = label_aggregate(v.ds, by[0], "value", out_col="value",
                              agg=node.op, q=q)
        return _Vector(out, [by[0]], v.step_s, pinned=v.pinned)

    # multi-label by(a, b, ...): rewrite each sample's identity to a
    # canonical key holding ONLY the by-labels (sorted — the engine's
    # series-identity convention), then aggregate_without([]) collapses
    # the series sharing a rewritten key with the usual exact-int64
    # combiner exchange; the labels split back into columns afterwards.
    if node.op in ("quantile", "group"):
        raise ValueError(f"promql: {node.op} supports a single by(label)")
    from vertex_ray.stages.promql import extract_label

    vm = _materialize_labels(v, by)
    labels = sorted(by)

    def rebuild(t: pa.Table) -> pa.Table:
        k = pa.array(["by{"] * len(t), type=pa.string())
        for i, l in enumerate(labels):
            sep = "" if i == 0 else ","
            k = pc.binary_join_element_wise(
                k, pa.array([f"{sep}{l}="] * len(t)),
                pc.fill_null(pc.cast(t[l], pa.string()), ""), "")
        k = pc.binary_join_element_wise(k, pa.array(["}"] * len(t)), "")
        return pa.table({"series_key": k,
                         "window_start": t["window_start"],
                         "value": t["value"]})

    ctx.plan.append(f"agg {node.op} by{tuple(labels)} — identity "
                    f"rewrite to by-labels key + one bucket exchange")
    rds = vm.ds.map_batches(rebuild, batch_format="pyarrow")
    out = aggregate_without(rds, [], "value", agg=node.op,
                            n_buckets=ctx.n_buckets)

    def split(t: pa.Table) -> pa.Table:
        for l in by:
            t = extract_label(t, l, out_col=l)
        return t.select(list(by) + ["window_start", "value"])

    return _Vector(out.map_batches(split, batch_format="pyarrow"),
                   list(by), v.step_s, pinned=v.pinned)


def _to_float(v: _Vector) -> _Vector:
    def fn(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("value")
        return t.set_column(i, "value", pc.cast(t["value"], pa.float64()))

    return _Vector(v.ds.map_batches(fn, batch_format="pyarrow"),
                   v.id_cols, v.step_s, pinned=v.pinned)


def _eval_call(node: Call, ctx: _Ctx):
    from vertex_ray.stages import promql as P
    from vertex_ray.stages.windows import series_delta

    f = node.func

    if f in ("minute", "hour", "day_of_week", "day_of_month",
             "day_of_year", "month", "year", "days_in_month"):
        v = _need_vector(_eval(node.args[0], ctx), f)

        def fn(t: pa.Table) -> pa.Table:
            t = P.window_time(t, part=f, out_col="__t")
            i = t.schema.get_field_index("value")
            t = t.set_column(i, "value",
                             pc.cast(t["__t"], pa.float64()))
            return t.drop_columns(["__t"])

        return _Vector(v.ds.map_batches(fn, batch_format="pyarrow"),
                       v.id_cols, v.step_s, pinned=v.pinned)

    if f == "timestamp":
        # value := the sample's timestamp (window_start, epoch seconds)
        v = _need_vector(_eval(node.args[0], ctx), f)

        def ts_fn(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index("value")
            return t.set_column(
                i, "value", pc.cast(t["window_start"], pa.float64()))

        return _Vector(v.ds.map_batches(ts_fn, batch_format="pyarrow"),
                       v.id_cols, v.step_s, pinned=v.pinned)

    if f in ("abs", "ceil", "floor", "round", "sqrt", "sgn"):
        v = _need_vector(_eval(node.args[0], ctx), f)
        out = P.math_op(v.ds, "value", f, out_col="__v")
        return _Vector(_reshape(out, v.id_cols, "__v"), v.id_cols,
                       v.step_s, pinned=v.pinned)

    if f in ("clamp", "clamp_min", "clamp_max"):
        v = _need_vector(_eval(node.args[0], ctx), f)
        bounds = [_eval(a, ctx) for a in node.args[1:]]
        lo = hi = None
        if f == "clamp":
            lo, hi = bounds
        elif f == "clamp_min":
            lo = bounds[0]
        else:
            hi = bounds[0]
        v = _to_float(v)
        return _Vector(P.clamp(v.ds, "value", lo=lo, hi=hi),
                       v.id_cols, v.step_s, pinned=v.pinned)

    if f in ("sort", "sort_desc"):
        v = _need_vector(_eval(node.args[0], ctx), f)
        return _Vector(v.ds.sort("value", descending=f == "sort_desc"),
                       v.id_cols, v.step_s, pinned=v.pinned)

    if f == "label_replace":
        v = _need_vector(_eval(node.args[0], ctx), f)
        dst, repl, src, regex = node.args[1:5]
        return _Vector(P.label_replace(v.ds, dst, repl, src, regex),
                       v.id_cols, v.step_s, pinned=v.pinned)

    if f == "label_join":
        v = _need_vector(_eval(node.args[0], ctx), f)
        dst, sep, *srcs = node.args[1:]
        return _Vector(P.label_join(v.ds, dst, sep, list(srcs)),
                       v.id_cols, v.step_s, pinned=v.pinned)

    # ---- range functions -------------------------------------------------
    if f in ("rate", "increase"):
        v, n = _range_arg(node.args[0], ctx, allow_pin=True)
        key = _key_col(v)
        range_s = n * v.step_s
        if n > 1:
            ctx.plan.append(f"over_time sum n={n} — one bucket exchange")
            out = P.over_time(v.ds, key, "window_start", "value", n,
                              agg="sum", out_col="value",
                              n_buckets=ctx.n_buckets)
            v = _Vector(out, v.id_cols, v.step_s, pinned=v.pinned)
        if v.pinned is not None:
            ctx.plan.append(f"pin filter: keep window {v.pinned}")
        v = _pin(v, v.pinned)
        if f == "rate":
            ctx.plan.append(f"scalar div by {float(range_s)}s "
                            f"(batch-local)")
            return _scalar_arith(v, float(range_s), "div", False)
        return v

    if f == "delta":
        v, n = _range_arg(node.args[0], ctx)
        if n != 1:
            raise ValueError("promql: delta range must equal a tier width "
                             "(gauge tiers store last-per-window)")
        key = _key_col(v)
        out = series_delta(v.ds, key, "window_start", "value",
                           n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], "delta"), [key], v.step_s)

    if f in ("irate", "idelta"):
        v, _ = _range_arg(node.args[0], ctx)
        key = _key_col(v)
        out = P.irate_idelta(v.ds, key, "window_start", "value",
                             n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], f), [key], v.step_s)

    if f in ("resets", "changes"):
        v, n = _range_arg(node.args[0], ctx)
        key = _key_col(v)
        out = P.resets_changes(v.ds, key, "window_start", "value", n,
                               n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], f), [key], v.step_s)

    if f == "deriv":
        v, n = _range_arg(node.args[0], ctx)
        key = _key_col(v)
        out = P.deriv(v.ds, key, "window_start", "value", n,
                      tier_seconds=v.step_s, out_col="__v",
                      n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], "__v"), [key], v.step_s)

    if f == "predict_linear":
        v, n = _range_arg(node.args[0], ctx)
        horizon = _eval(node.args[1], ctx)
        if not isinstance(horizon, float) or horizon % v.step_s:
            raise ValueError("promql: predict_linear horizon must be a "
                             "whole number of tier windows")
        key = _key_col(v)
        out = P.predict_linear(v.ds, key, "window_start", "value", n,
                               steps_ahead=int(horizon // v.step_s),
                               tier_seconds=v.step_s, out_col="__v",
                               n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], "__v"), [key], v.step_s)

    if f == "holt_winters":
        v, _ = _range_arg(node.args[0], ctx)
        sf = _eval(node.args[1], ctx)
        tf = _eval(node.args[2], ctx)
        key = _key_col(v)
        out = P.holt_winters(v.ds, key, "window_start", "value",
                             sf=sf, tf=tf, out_col="__v",
                             n_buckets=ctx.n_buckets)
        return _Vector(_reshape(out, [key], "__v"), [key], v.step_s)

    if f == "absent_over_time":
        v, _ = _range_arg(node.args[0], ctx)
        out = P.absent_over_time(v.ds, "window_start", v.step_s,
                                 start=ctx.start, end=ctx.end,
                                 out_col="value")
        return _Vector(out, [], v.step_s)

    if f in ("histogram_quantile", "histogram_fraction"):
        from vertex_ray.schema import BUCKET_COLS
        from vertex_ray.stages.quantile import (
            histogram_fraction_batch,
            histogram_quantile_batch,
        )

        sel = node.args[-1]
        params = [_eval(a, ctx) for a in node.args[:-1]]
        if not isinstance(sel, Sel) or sel.range_s is None:
            raise ValueError(f"promql: {f} needs a histogram range "
                             "selector m[W]")
        tier, w, n = _pick_tier(sel.range_s)
        if n != 1:
            raise ValueError(f"promql: {f} range must equal a tier width "
                             "(cumulative bucket vectors live per tier "
                             "window)")
        push = None
        for lbl, op, val in sel.matchers:
            if op == "=":
                push = rf"[{{,]{re.escape(lbl)}={re.escape(val)}[,}}]"
                break
        cols = ["series_key", "window_start", "count"] + list(BUCKET_COLS)
        ds = _qr(ctx, tier, metric=sel.name, key_regex=push,
                 columns=cols, start=ctx.start, end=ctx.end,
                 layout=ctx.layout, offset=sel.offset_s)
        if sel.matchers:
            ds = ds.map_batches(_matcher_filter(sel.matchers),
                                batch_format="pyarrow")

        def shape(t: pa.Table) -> pa.Table:
            if f == "histogram_quantile":
                t = histogram_quantile_batch(t, params[0], out_col="value")
            else:
                t = histogram_fraction_batch(t, params[0], params[1],
                                             out_col="value")
            return t.select(["series_key", "window_start", "value"])

        return _Vector(ds.map_batches(shape, batch_format="pyarrow"),
                       ["series_key"], w)

    m = re.fullmatch(r"(avg|sum|min|max|count|stddev|stdvar|quantile|"
                     r"last|first|mad|present)_over_time", f)
    if m:
        agg = m.group(1)
        present = agg == "present"
        if present:
            # present_over_time: 1 for every series window whose
            # trailing frame holds ≥1 sample — under the engine's ROWS
            # frame contract that is count_over_time's support set
            agg = "count"
        arg_ix = 1 if agg == "quantile" else 0
        v, n = _range_arg(node.args[arg_ix], ctx, allow_pin=True)
        q = _eval(node.args[0], ctx) if agg == "quantile" else 0.5
        key = _key_col(v)
        ctx.plan.append(f"over_time {agg} n={n} — one bucket exchange")
        out = P.over_time(v.ds, key, "window_start", "value", n, agg=agg,
                          out_col="__v", q=q, n_buckets=ctx.n_buckets)
        res = _Vector(_reshape(out, [key], "__v"), [key], v.step_s,
                      pinned=v.pinned)
        if res.pinned is not None:
            ctx.plan.append(f"pin filter: keep window {res.pinned}")
        res = _pin(res, res.pinned)
        if present:
            def one(t: pa.Table) -> pa.Table:
                i = t.schema.get_field_index("value")
                return t.set_column(
                    i, "value",
                    pa.array(np.ones(len(t)), type=pa.float64()))
            res = _Vector(res.ds.map_batches(one, batch_format="pyarrow"),
                          res.id_cols, res.step_s, pinned=res.pinned)
        return res

    raise ValueError(f"promql: unsupported function {f!r}")


def _eval(node, ctx: _Ctx):
    if isinstance(node, Num):
        return node.v
    if isinstance(node, Sel):
        if node.range_s is not None:
            raise ValueError("promql: a bare range selector is not an "
                             "instant vector — wrap it in a range function")
        v, _ = _eval_selector(node, ctx)
        return v
    if isinstance(node, Subquery):
        raise ValueError("promql: a bare subquery is not an instant "
                         "vector — wrap it in a *_over_time function")
    if isinstance(node, Call):
        return _eval_call(node, ctx)
    if isinstance(node, Agg):
        return _eval_agg(node, ctx)
    if isinstance(node, Bin):
        return _eval_bin(node, ctx)
    raise TypeError(f"promql: unknown node {node!r}")


def render_series(ds, id_cols: list[str], name: str):
    """Render an evaluation result (id_cols + window_start + value) into
    a canonical series-keyed vector ``name{l1=v1,...}`` (labels sorted by
    name — the engine's series-identity convention, mirroring the
    reference's sorted-Tags contract, /root/reference
    lib/event/src/tags/mod.rs:36-44) with a float64 value. This is the
    shape recording rules store and downstream rules select on."""
    labels = sorted(c for c in id_cols if c != "series_key")

    def fn(t: pa.Table) -> pa.Table:
        if labels:
            k = pa.array([name + "{"] * len(t), type=pa.string())
            for i, l in enumerate(labels):
                sep = "" if i == 0 else ","
                k = pc.binary_join_element_wise(
                    k, pa.array([f"{sep}{l}="] * len(t)),
                    pc.cast(t[l], pa.string()), "")
            k = pc.binary_join_element_wise(
                k, pa.array(["}"] * len(t)), "")
        else:
            # already series-keyed: re-name the metric part only
            k = pc.replace_substring_regex(
                t["series_key"], r"^[^{]*", name)
        return pa.table({
            "series_key": k,
            "window_start": t["window_start"],
            "value": pc.cast(t["value"], pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def eval_promql(store, expr: str, value_col: str = "count",
                step: str | int = "1h", start: int | None = None,
                end: int | None = None, layout: str = "oneshot",
                n_buckets: int = 64, vectors: dict | None = None,
                _want_ids: bool = False):
    """Evaluate a PromQL expression against a committed tier store.

    Returns a ray.data.Dataset with columns ``id_cols... window_start
    value`` where id_cols is ``series_key`` (or the by()-labels /
    on()-match labels after aggregation / vector matching).

    ``value_col`` names the tier column a selector reads (``count`` —
    the exact-int64 default every structured query uses — or ``sum``/
    ``min``/``max``/``last``); ``step`` sets the evaluation tier for
    bare selectors (/api/v1/query_range's step parameter).

    ``store`` may also be a LIST of shard store dirs — selectors then
    read the federated fleet via read.query_range_multi (per-shard
    pruning, zero-exchange union).

    ``vectors``: rule-group chaining — ``{name: (Dataset, step_s)}`` of
    previously-recorded vectors (series_key/window_start/value schema);
    selectors resolve here before the store."""
    step_s = step if isinstance(step, int) else \
        dict(_TIERS)[step] if step in dict(_TIERS) else _parse_duration(step)
    ctx = _Ctx(store, value_col, step_s, start, end, layout, n_buckets,
               vectors=vectors)
    out = _eval(parse(expr), ctx)
    if not isinstance(out, _Vector):
        raise ValueError("promql: expression is a scalar, not a vector")
    if _want_ids:
        return out.ds, out.id_cols, out.step_s
    return out.ds


def explain_promql(store, expr: str, **kw) -> str:
    """EXPLAIN for a PromQL expression: run the REAL lowering (the
    evaluator is lazy — it builds the Dataset graph without executing a
    single block, except that a selector whose candidate parts are
    small is read, and its selection decoded when that is small too,
    eagerly in the driver; see ``read``) and
    render the plan notes it emitted — which tier each selector scans,
    what got pushed into the block scan (metric / key regex / start-end
    pruning / pinned frames), and every exchange
    (combiner aggregations, over_time frames, hash-join vector matches)
    with its shape. The analogue of the reference's dry-build
    diagnostics (`vertex validate`, src/validate.rs:18-21) and VTL
    compile output, on the read side. Same keyword surface as
    ``eval_promql``."""
    kw.pop("_want_ids", None)
    step = kw.pop("step", "1h")
    step_s = step if isinstance(step, int) else \
        dict(_TIERS)[step] if step in dict(_TIERS) else _parse_duration(step)
    ctx = _Ctx(store, kw.pop("value_col", "count"), step_s,
               kw.pop("start", None), kw.pop("end", None),
               kw.pop("layout", "oneshot"), kw.pop("n_buckets", 64),
               vectors=kw.pop("vectors", None))
    if kw:
        raise TypeError(f"explain_promql: unknown kwargs {sorted(kw)}")
    out = _eval(parse(expr), ctx)
    lines = [f"expr: {expr}"]
    lines += [f"  {i}. {s}" for i, s in enumerate(ctx.plan, 1)]
    if isinstance(out, _Vector):
        tail = f"output: vector identity={out.id_cols} step={out.step_s}s"
        if out.pinned is not None:
            tail += f" pinned@{out.pinned}"
    else:
        tail = f"output: scalar {out}"
    lines.append(tail)
    return "\n".join(lines)
