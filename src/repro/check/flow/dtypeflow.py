"""R3xx — abstract interpretation of numpy dtype and value-range flow.

The runtime K111 artifact check proves *one compiled artifact's*
table fits its narrowed dtype; these rules prove the same property of
the *code*, for every artifact it could ever produce.  Each function is
interpreted over the lattice of abstract values

    ``AV = (dtype, lo, hi, known)``

where ``dtype`` is a numpy dtype name (or ``"pyint"``/``"pyfloat"`` for
weak Python scalars, or ``None`` for unknown), ``[lo, hi]`` is an
interval bound on every element, and ``known`` records whether the
interval was *derived* from the program (``np.arange(n) - 1``) rather
than assumed from dtype bounds.  Promotion follows NEP 50: a weak
Python scalar adopts the array operand's dtype; concrete dtypes promote
via ``np.result_type``.  Loops converge by interval widening (see
:class:`~repro.check.flow.dataflow.Analysis`).

R301  arithmetic whose *result* dtype is a narrow integer (``uint8``,
      ``uint16``, ``int8``, ``int16``) and whose interval provably
      exceeds that dtype's bounds — the add silently wraps.  Routing
      the result into a wide ``out=`` array (``np.add(row[:, None],
      frontier, out=idx)`` with int64 ``idx``) is the sanctioned fix and
      verifies clean.
R302  ``astype``/constructor narrowing where the source interval lies
      provably outside the target dtype's range on every path.
R303  implicit int→float upcast inside a hot path (``HOT_PATHS``): a
      silent float temporary on the per-segment loop is a perf bug.
R304  a gather (``np.take`` / fancy index) whose index interval is
      provably negative, or provably ≥ the known table size; passing
      ``mode=`` acknowledges the bound and suppresses the rule.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.check.diagnostics import Diagnostic, register_code
from repro.check.flow.cfg import (
    FOR_ITER,
    TEST,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    Event,
)
from repro.check.flow.dataflow import Analysis, solve
from repro.check.flow.resources import _cfgs

__all__ = ["DtypeFlowRule", "AV"]

R301 = register_code("R301", "narrow integer arithmetic provably overflows")
R302 = register_code("R302", "narrowing cast provably out of dtype range")
R303 = register_code("R303", "implicit int->float upcast on a hot path")
R304 = register_code("R304", "gather index provably out of bounds")

INF = math.inf

_INT_RANGES: Dict[str, Tuple[float, float]] = {
    "bool": (0, 1),
    "uint8": (0, 255),
    "uint16": (0, 65535),
    "uint32": (0, 2**32 - 1),
    "uint64": (0, 2**64 - 1),
    "int8": (-128, 127),
    "int16": (-32768, 32767),
    "int32": (-(2**31), 2**31 - 1),
    "int64": (-(2**63), 2**63 - 1),
}
_FLOATS = frozenset({"float16", "float32", "float64", "pyfloat"})
_NARROW = frozenset({"uint8", "uint16", "int8", "int16"})
_INTISH = frozenset(_INT_RANGES) | {"pyint"}

#: mirrors ``repro.check.lint.HOT_PATHS`` without importing it at module
#: load (lint lazily imports this package); kept in sync by a test
HOT_PATHS = (
    "repro/kernels/",
    "repro/core/profiling.py",
    "repro/software.py",
    "repro/compilecache/artifact.py",
)


class AV:
    """Abstract value: dtype + interval.  Immutable."""

    __slots__ = ("dtype", "lo", "hi", "known")

    def __init__(self, dtype: Optional[str], lo: float, hi: float,
                 known: bool) -> None:
        self.dtype = dtype
        self.lo = lo
        self.hi = hi
        self.known = known

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AV) and (
            self.dtype, self.lo, self.hi, self.known,
        ) == (other.dtype, other.lo, other.hi, other.known)

    def __hash__(self) -> int:
        return hash((self.dtype, self.lo, self.hi, self.known))

    def __repr__(self) -> str:
        return f"AV({self.dtype}, [{self.lo}, {self.hi}], known={self.known})"


UNKNOWN = AV(None, -INF, INF, False)
Fact = Dict[str, AV]


def _dtype_range(dtype: Optional[str]) -> Tuple[float, float]:
    if dtype is None:
        return (-INF, INF)
    return _INT_RANGES.get(dtype, (-INF, INF))


def _default_av(dtype: Optional[str]) -> AV:
    lo, hi = _dtype_range(dtype)
    return AV(dtype, lo, hi, False)


def _promote(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """NEP 50 promotion of two abstract dtypes."""
    if a is None or b is None:
        return None
    weak_a = a in ("pyint", "pyfloat")
    weak_b = b in ("pyint", "pyfloat")
    if weak_a and weak_b:
        return "pyfloat" if "pyfloat" in (a, b) else "pyint"
    if weak_a:
        return "pyfloat" if a == "pyfloat" and b in _INTISH else b
    if weak_b:
        return "pyfloat" if b == "pyfloat" and a in _INTISH else a
    try:
        return np.result_type(a, b).name
    except TypeError:
        return None


def _join_av(a: AV, b: AV) -> AV:
    dtype = a.dtype if a.dtype == b.dtype else _promote(a.dtype, b.dtype)
    return AV(dtype, min(a.lo, b.lo), max(a.hi, b.hi), a.known and b.known)


def _clamp(av: AV) -> AV:
    """Intersect an interval with its dtype's representable range."""
    lo, hi = _dtype_range(av.dtype)
    return AV(av.dtype, max(av.lo, lo), min(av.hi, hi), av.known)


def _dtype_from_expr(expr: ast.expr) -> Optional[str]:
    """``np.uint8`` / ``"uint8"`` / ``np.dtype(np.uint8)`` -> ``"uint8"``."""
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        name = expr.value
    elif isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr == "dtype" and expr.args:
        return _dtype_from_expr(expr.args[0])
    else:
        return None
    try:
        return np.dtype(name).name
    except TypeError:
        return None


def _kw(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class _Finding:
    __slots__ = ("code", "line", "message", "severity")

    def __init__(self, code: str, line: int, message: str,
                 severity: str) -> None:
        self.code = code
        self.line = line
        self.message = message
        self.severity = severity

    def key(self) -> Tuple[str, int]:
        return (self.code, self.line)


class _DtypeAnalysis(Analysis[Fact]):
    direction = "forward"
    widen_after = 3

    def __init__(self, hot: bool) -> None:
        self.hot = hot
        self.findings: Dict[Tuple[str, int], _Finding] = {}

    # -- lattice -------------------------------------------------------
    def initial(self) -> Fact:
        return {}

    def bottom(self) -> Fact:
        return {}

    def join(self, a: Fact, b: Fact) -> Fact:
        out = dict(a)
        for name, av in b.items():
            out[name] = _join_av(out[name], av) if name in out else av
        return out

    def widen(self, old: Fact, new: Fact) -> Fact:
        out: Fact = {}
        for name, av in new.items():
            prev = old.get(name)
            if prev is None:
                out[name] = av
                continue
            dlo, dhi = _dtype_range(av.dtype)
            lo = av.lo if av.lo >= prev.lo else dlo
            hi = av.hi if av.hi <= prev.hi else dhi
            out[name] = AV(av.dtype if av.dtype == prev.dtype else None,
                           lo, hi, av.known and prev.known)
        return out

    # -- reporting -----------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str,
                severity: str = "error") -> None:
        finding = _Finding(code, getattr(node, "lineno", 0), message,
                           severity)
        self.findings.setdefault(finding.key(), finding)

    # -- checks --------------------------------------------------------
    def _check_overflow(self, result: AV, node: ast.AST,
                        what: str) -> AV:
        if result.dtype in _NARROW:
            lo, hi = _dtype_range(result.dtype)
            if result.hi > hi or result.lo < lo:
                self._report(
                    R301, node,
                    f"{what} produces values in [{_fmt(result.lo)}, "
                    f"{_fmt(result.hi)}] but its result dtype "
                    f"{result.dtype} holds [{_fmt(lo)}, {_fmt(hi)}]: the "
                    "result wraps silently; route it through a wide "
                    "out= array or upcast an operand first")
                return _default_av(result.dtype)
        return result

    def _check_cast(self, src: AV, dtype: str, node: ast.AST) -> AV:
        lo, hi = _dtype_range(dtype)
        if src.lo > hi or src.hi < lo:
            self._report(
                R302, node,
                f"cast to {dtype} of values provably in "
                f"[{_fmt(src.lo)}, {_fmt(src.hi)}], entirely outside "
                f"{dtype}'s range [{_fmt(lo)}, {_fmt(hi)}]")
            return _default_av(dtype)
        return _clamp(AV(dtype, src.lo, src.hi, src.known))

    def _check_upcast(self, left: AV, right: AV, result_dtype: Optional[str],
                      node: ast.AST) -> None:
        if not self.hot or result_dtype not in _FLOATS:
            return
        if (left.dtype in _INT_RANGES) != (right.dtype in _INT_RANGES):
            if left.dtype in _INT_RANGES or right.dtype in _INT_RANGES:
                self._report(
                    R303, node,
                    "integer operand silently upcast to "
                    f"{result_dtype} on a hot path: the temporary "
                    "doubles memory traffic; cast explicitly or keep "
                    "the arithmetic integral", severity="warning")

    def _check_gather(self, call: ast.Call, fact: Fact) -> None:
        if _kw(call, "mode") is not None:
            return  # mode="clip"/"wrap" acknowledges the bound
        if len(call.args) < 2:
            return
        idx = self._eval(call.args[1], fact)
        if idx.known and idx.lo < 0:
            self._report(
                R304, call,
                f"gather index provably reaches {_fmt(idx.lo)} < 0 "
                "without a mode= policy: negative indices alias the "
                "table's tail states")

    # -- expression evaluation -----------------------------------------
    def _eval(self, expr: ast.expr, fact: Fact) -> AV:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                value = int(expr.value)
                return AV("pyint", value, value, True)
            if isinstance(expr.value, int):
                return AV("pyint", expr.value, expr.value, True)
            if isinstance(expr.value, float):
                return AV("pyfloat", expr.value, expr.value, True)
            return UNKNOWN
        if isinstance(expr, ast.Name):
            return fact.get(expr.id, UNKNOWN)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, fact)
        if isinstance(expr, ast.UnaryOp):
            inner = self._eval(expr.operand, fact)
            if isinstance(expr.op, ast.USub):
                return self._check_overflow(
                    AV(inner.dtype, -inner.hi, -inner.lo, inner.known),
                    expr, "negation")
            return inner if isinstance(expr.op, ast.UAdd) else UNKNOWN
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, fact)
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, fact)
            if base.dtype not in (None, "pyint", "pyfloat"):
                self._subscript_gather(expr, base, fact)
                return base  # element of the array: same dtype/interval
            return UNKNOWN
        if isinstance(expr, ast.IfExp):
            return _join_av(self._eval(expr.body, fact),
                            self._eval(expr.orelse, fact))
        if isinstance(expr, ast.Attribute):
            if expr.attr in ("size", "nbytes", "itemsize", "ndim"):
                return AV("pyint", 0, INF, True)
            return UNKNOWN
        return UNKNOWN

    def _subscript_gather(self, expr: ast.Subscript, base: AV,
                          fact: Fact) -> None:
        idx = expr.slice
        if isinstance(idx, (ast.Slice, ast.Tuple)):
            return
        av = self._eval(idx, fact)
        # fancy/array indexing with a provably-negative derived index
        if av.known and av.lo < 0 and av.dtype in _INTISH \
                and av.dtype != "pyint":
            self._report(
                R304, expr,
                f"index array provably reaches {_fmt(av.lo)} < 0: "
                "negative fancy indices alias the table's tail states")

    def _eval_binop(self, expr: ast.BinOp, fact: Fact) -> AV:
        left = self._eval(expr.left, fact)
        right = self._eval(expr.right, fact)
        dtype = _promote(left.dtype, right.dtype)
        lo, hi = _binop_interval(expr.op, left, right)
        known = left.known and right.known
        self._check_upcast(left, right, dtype, expr)
        result = AV(dtype, lo, hi, known)
        if isinstance(expr.op, (ast.Add, ast.Sub, ast.Mult, ast.LShift,
                                ast.Pow)):
            result = self._check_overflow(result, expr, "arithmetic")
        return _clamp(result) if dtype not in _NARROW else result

    def _eval_call(self, call: ast.Call, fact: Fact) -> AV:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name == "astype" and isinstance(func, ast.Attribute) \
                and call.args:
            src = self._eval(func.value, fact)
            dtype = _dtype_from_expr(call.args[0])
            if dtype is not None:
                return self._check_cast(src, dtype, call)
            return UNKNOWN
        if name in ("take",):
            self._check_gather(call, fact)
            base = self._eval(call.args[0], fact) if call.args else UNKNOWN
            out = _kw(call, "out")
            if out is not None:
                target = self._eval(out, fact)
                if target.dtype is not None:
                    return AV(target.dtype, base.lo, base.hi, base.known)
            return base
        if name in ("add", "subtract", "multiply"):
            return self._eval_ufunc(call, fact, name)
        if name in ("zeros", "ones", "empty", "full", "arange",
                    "frombuffer", "asarray", "array", "zeros_like",
                    "empty_like", "full_like", "fromiter"):
            return self._eval_constructor(call, fact, name)
        if name in _INT_RANGES or name in ("float16", "float32", "float64"):
            # np.uint8(x) scalar construction narrows like astype
            if call.args:
                return self._check_cast(self._eval(call.args[0], fact),
                                        name, call)
            return _default_av(name)
        if name == "len":
            return AV("pyint", 0, INF, True)
        if name in ("min", "minimum"):
            avs = [self._eval(a, fact) for a in call.args] or [UNKNOWN]
            joined = avs[0]
            for av in avs[1:]:
                joined = _join_av(joined, av)
            return AV(joined.dtype, joined.lo,
                      min(av.hi for av in avs), joined.known)
        if name in ("max", "maximum"):
            avs = [self._eval(a, fact) for a in call.args] or [UNKNOWN]
            joined = avs[0]
            for av in avs[1:]:
                joined = _join_av(joined, av)
            return AV(joined.dtype, max(av.lo for av in avs),
                      joined.hi, joined.known)
        return UNKNOWN

    def _eval_ufunc(self, call: ast.Call, fact: Fact, name: str) -> AV:
        if len(call.args) < 2:
            return UNKNOWN
        left = self._eval(call.args[0], fact)
        right = self._eval(call.args[1], fact)
        op: ast.operator
        if name == "add":
            op = ast.Add()
        elif name == "subtract":
            op = ast.Sub()
        else:
            op = ast.Mult()
        lo, hi = _binop_interval(op, left, right)
        known = left.known and right.known
        out = _kw(call, "out")
        if out is not None:
            target = self._eval(out, fact)
            dtype = target.dtype
        else:
            dtype = _promote(left.dtype, right.dtype)
        self._check_upcast(left, right, dtype, call)
        result = self._check_overflow(AV(dtype, lo, hi, known), call,
                                      f"np.{name}")
        return result if result.dtype in _NARROW else _clamp(result)

    def _eval_constructor(self, call: ast.Call, fact: Fact,
                          name: str) -> AV:
        dt_expr = _kw(call, "dtype")
        dtype = _dtype_from_expr(dt_expr) if dt_expr is not None else None
        if name in ("zeros", "zeros_like"):
            return AV(dtype or "float64", 0, 0, True)
        if name in ("ones",):
            return AV(dtype or "float64", 1, 1, True)
        if name in ("full", "full_like") and len(call.args) >= 2:
            fill = self._eval(call.args[1], fact)
            target = dtype or fill.dtype
            if dtype is not None:
                return self._check_cast(fill, dtype, call)
            return AV(target, fill.lo, fill.hi, fill.known)
        if name == "arange":
            stop = self._eval(call.args[-1] if len(call.args) == 1
                              else call.args[1], fact) \
                if call.args else UNKNOWN
            start = self._eval(call.args[0], fact) \
                if len(call.args) >= 2 else AV("pyint", 0, 0, True)
            hi = stop.hi - 1 if stop.hi != INF else INF
            return AV(dtype or "int64", min(start.lo, hi), hi,
                      start.known and stop.known)
        if name in ("frombuffer", "asarray", "array", "fromiter",
                    "empty", "empty_like"):
            if dtype is not None:
                return _default_av(dtype)
            if call.args:
                src = self._eval(call.args[0], fact)
                if src.dtype not in (None, "pyint", "pyfloat"):
                    return src
            return UNKNOWN
        return UNKNOWN

    # -- transfer ------------------------------------------------------
    def transfer(self, block: Block, fact: Fact) -> Fact:
        fact = dict(fact)
        for event in block.events:
            self._transfer_event(fact, event)
        return fact

    def _transfer_event(self, fact: Fact, event: Event) -> None:
        node = event.node
        if event.kind == FOR_ITER:
            assert isinstance(node, (ast.For, ast.AsyncFor))
            self._bind_for(fact, node)
            return
        if event.kind in (TEST, WITH_ENTER, WITH_EXIT):
            return
        if isinstance(node, ast.Assign):
            value = self._eval(node.value, fact)
            for target in node.targets:
                self._bind(fact, target, value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind(fact, node.target, self._eval(node.value, fact))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                current = fact.get(node.target.id, UNKNOWN)
                rhs = self._eval(node.value, fact)
                lo, hi = _binop_interval(node.op, current, rhs)
                known = current.known and rhs.known
                # in-place: the result is forced back into the target's
                # dtype, so narrow targets wrap right here
                result = self._check_overflow(
                    AV(current.dtype, lo, hi, known), node,
                    "in-place arithmetic")
                fact[node.target.id] = _clamp(result) \
                    if result.dtype not in _NARROW else result
            else:
                self._eval(node.value, fact)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, fact)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._eval(node.value, fact)
        elif isinstance(node, ast.stmt):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, fact)

    def _bind(self, fact: Fact, target: ast.expr, value: AV) -> None:
        if isinstance(target, ast.Name):
            fact[target.id] = value
        elif isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name):
            # a[i] = v : the array now also holds v's values
            base = fact.get(target.value.id)
            if base is not None and base.dtype is not None:
                cast = AV(base.dtype, value.lo, value.hi,
                          base.known and value.known)
                fact[target.value.id] = _join_av(base, _clamp(cast))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(fact, elt, UNKNOWN)

    def _bind_for(self, fact: Fact, node: "ast.For | ast.AsyncFor") -> None:
        element = UNKNOWN
        iter_expr = node.iter
        if isinstance(iter_expr, ast.Call):
            name = iter_expr.func.id \
                if isinstance(iter_expr.func, ast.Name) else ""
            if name == "range" and iter_expr.args:
                stop = self._eval(iter_expr.args[-1 if len(iter_expr.args)
                                                 == 1 else 1], fact)
                start = self._eval(iter_expr.args[0], fact) \
                    if len(iter_expr.args) >= 2 else AV("pyint", 0, 0, True)
                hi = stop.hi - 1 if stop.hi != INF else INF
                element = AV("pyint", min(start.lo, hi), hi,
                             start.known and stop.known)
            else:
                element = self._eval(iter_expr, fact)
        else:
            element = self._eval(iter_expr, fact)
        self._bind(fact, node.target, element)


def _fmt(value: float) -> str:
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    if float(value).is_integer():
        return str(int(value))
    return str(value)


def _binop_interval(op: ast.operator, a: AV, b: AV) -> Tuple[float, float]:
    if isinstance(op, ast.Add):
        return (a.lo + b.lo, a.hi + b.hi)
    if isinstance(op, ast.Sub):
        return (a.lo - b.hi, a.hi - b.lo)
    if isinstance(op, ast.Mult):
        candidates = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        finite = [c for c in candidates if not math.isnan(c)]
        if not finite:  # 0 * inf — could be anything
            return (-INF, INF)
        return (min(finite), max(finite))
    if isinstance(op, (ast.FloorDiv, ast.Div)):
        return (-INF, INF) if (b.lo <= 0 <= b.hi) else (
            min(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi),
            max(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi))
    if isinstance(op, ast.Mod):
        if b.lo > 0:
            return (0, b.hi - 1)
        return (-INF, INF)
    if isinstance(op, ast.LShift):
        if a.lo >= 0 and 0 <= b.lo and b.hi < 64:
            return (a.lo * 2 ** b.lo, a.hi * 2 ** b.hi)
        return (-INF, INF)
    if isinstance(op, ast.RShift):
        if a.lo >= 0 and b.lo >= 0:
            return (0, a.hi)
        return (-INF, INF)
    if isinstance(op, (ast.BitAnd,)):
        if a.lo >= 0 or b.lo >= 0:
            return (0, min(a.hi if a.lo >= 0 else INF,
                           b.hi if b.lo >= 0 else INF))
        return (-INF, INF)
    if isinstance(op, (ast.BitOr, ast.BitXor)):
        return (-INF, INF)
    if isinstance(op, ast.Pow):
        if a.lo >= 0 and b.lo >= 0 and b.hi != INF:
            return (0 if a.lo == 0 else a.lo ** b.lo, a.hi ** b.hi
                    if a.hi != INF else INF)
        return (-INF, INF)
    return (-INF, INF)


class DtypeFlowRule:
    """Runs the R3xx abstract interpreter over every function."""

    code = R301  # representative; findings carry their own codes
    name = "dtype-flow"

    def check(self, ctx: "object") -> Iterator[Diagnostic]:
        path = str(getattr(ctx, "path", ""))
        hot = any(marker in path for marker in HOT_PATHS)
        for func, cfg in _cfgs(ctx):
            analysis = _DtypeAnalysis(hot=hot)
            in_facts = solve(cfg, analysis)
            # as in resources.py: keep only findings on converged facts
            analysis.findings = {}
            for block in cfg.blocks:
                if block.bid in in_facts:
                    analysis.transfer(block, in_facts[block.bid])
            for finding in analysis.findings.values():
                yield Diagnostic(
                    code=finding.code, severity=finding.severity,
                    message=finding.message,
                    location=getattr(ctx, "path", ""),
                    line=finding.line, rule=self.name,
                    function=func.name)  # type: ignore[attr-defined]
