"""R2xx — flow-sensitive resource-lifecycle verification.

PR 4's R102 could only pattern-match "a ``finally`` that mentions
``.close`` and ``.unlink``"; these rules walk the function's actual
:class:`~repro.check.flow.cfg.CFG` and prove, path by path, that every
locally-acquired resource is released before the function is left:

R201  a ``SharedMemory`` handle reaches a function exit unclosed on
      some path — a ``/dev/shm`` mapping outlives the scan.
R202  a ``SharedMemory(create=True)`` segment reaches an exit without
      ``unlink`` on some path — the *file* leaks for the machine's
      lifetime even after every process closed it.
R203  a resource is released twice along one path (``close``/``close``
      or ``unlink``/``unlink``) — the second call raises or, worse,
      releases a recycled name.
R204  a file handle / ``mmap`` / :class:`~repro.ingest.InputView`
      reaches an exit unclosed on some path.
R205  a buffer view (``np.frombuffer(m)``, ``memoryview(m)``,
      ``m.view8()``) escapes the scope that owns its backing buffer
      after — or without preventing — the buffer's release: the
      escaped array would read unmapped pages.
R206  a pool / executor / live server reaches an exit without
      teardown (``shutdown``/``stop``/``terminate``) on some path.

Leaks proven on a *normal* path (fall-through, ``return``) are errors;
leaks that exist only because an exception could fire mid-function are
warnings — they mark the spot where a ``try``/``finally`` or ``with``
belongs.  **Escape ends the obligation**: a resource that is returned,
yielded, stored into an attribute/global/container, captured by a
nested function, or passed to another call transfers ownership and is
not this function's leak (this is what keeps the worker-side cached
mmap attach in ``software.py`` clean without a suppression).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.check.diagnostics import Diagnostic, register_code
from repro.check.flow.cfg import (
    FOR_ITER,
    STMT,
    TEST,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    CFG,
    Event,
    build_cfg,
)
from repro.check.flow.dataflow import Analysis, solve

__all__ = ["ResourceFlowRule", "RESOURCE_KINDS"]

R201 = register_code("R201", "SharedMemory not closed on every path")
R202 = register_code("R202", "created SharedMemory not unlinked on every path")
R203 = register_code("R203", "resource released twice along one path")
R204 = register_code("R204", "file/mmap handle not closed on every path")
R205 = register_code("R205", "buffer view escapes its owning scope")
R206 = register_code("R206", "pool/executor/server not torn down on every path")

# resource kinds and how each is acquired / released
SHM = "shm"
FILE = "file"
POOL = "pool"
RESOURCE_KINDS = (SHM, FILE, POOL)

_LEAK_CODE = {SHM: R201, FILE: R204, POOL: R206}
_CLOSE_VERBS = {
    SHM: frozenset({"close"}),
    FILE: frozenset({"close"}),
    POOL: frozenset({"shutdown", "stop", "terminate", "close"}),
}
#: helper-call names that fully release whatever they are handed
_RELEASE_HELPER_RE = re.compile(
    r"release|cleanup|teardown|dispose|close_all|shutdown")
#: module names whose ``.open`` attribute is a file constructor
_OPEN_MODULES = frozenset({"io", "gzip", "bz2", "lzma", "codecs"})
#: calls that create a *view* of their buffer argument, not an owner
_VIEW_CALLS = frozenset({"frombuffer", "memoryview", "asarray"})
_VIEW_METHODS = frozenset({"view8"})
#: reads that never take ownership
_SAFE_CALLS = frozenset({"len", "bool", "int", "str", "repr", "print",
                         "isinstance", "id", "hash"})

# ----------------------------------------------------------------------
# abstract facts
# ----------------------------------------------------------------------
# a resource variable's possible states on the paths reaching a point:
# ``(closed, unlinked)`` bool pairs, or ESC once ownership has moved.
ESC = "esc"
RState = Union[Tuple[bool, bool], str]
# ("res", kind, must_unlink, site_line, states)
# ("view", owner_name, site_line, states)  with states in {ALIVE, DANGLING, ESC}
ALIVE = "alive"
DANGLING = "dangling"
VarFact = Tuple[object, ...]
Fact = Dict[str, VarFact]


def _res(kind: str, must_unlink: bool, line: int,
         states: FrozenSet[RState]) -> VarFact:
    return ("res", kind, must_unlink, line, states)


def _view(owner: str, line: int, states: FrozenSet[str]) -> VarFact:
    return ("view", owner, line, states)


def _join_var(a: VarFact, b: VarFact) -> VarFact:
    if a[0] != b[0] or a[1] != b[1]:
        # same name bound to different things on different paths: the
        # obligation is ambiguous — give up on this variable
        if a[0] == "res":
            return _res(str(a[1]), bool(a[2]), int(a[3]),  # type: ignore[arg-type]
                        frozenset({ESC}))
        return _view(str(a[1]), int(a[2]), frozenset({ESC}))
    if a[0] == "res":
        return _res(str(a[1]), bool(a[2]) or bool(b[2]),
                    min(int(a[3]), int(b[3])),  # type: ignore[arg-type]
                    frozenset(a[4]) | frozenset(b[4]))  # type: ignore[arg-type]
    return _view(str(a[1]), min(int(a[2]), int(b[2])),  # type: ignore[arg-type]
                 frozenset(a[3]) | frozenset(b[3]))  # type: ignore[arg-type]


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _classify_acquisition(call: ast.Call) -> Optional[Tuple[str, bool]]:
    """``(kind, must_unlink)`` when ``call`` acquires a tracked resource."""
    name = _call_name(call.func)
    if name == "SharedMemory":
        create = any(
            kw.arg == "create" and isinstance(kw.value, ast.Constant)
            and bool(kw.value.value)
            for kw in call.keywords
        )
        return (SHM, create)
    if name == "open":
        if isinstance(call.func, ast.Name):
            return (FILE, False)
        if isinstance(call.func, ast.Attribute) \
                and isinstance(call.func.value, ast.Name) \
                and call.func.value.id in _OPEN_MODULES:
            return (FILE, False)
        return None
    if name in ("fdopen", "open_input", "NamedTemporaryFile",
                "TemporaryFile"):
        return (FILE, False)
    if name == "mmap":
        # mmap.mmap(...) — a mapping is closed like a file
        return (FILE, False)
    if name in ("ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
                "segment_pool", "serve", "ObsServer",
                "ThreadingHTTPServer", "HTTPServer"):
        return (POOL, False)
    return None


def _view_owner(expr: ast.expr, tracked: Fact) -> Optional[str]:
    """The tracked resource a view-creating ``expr`` aliases, if any."""
    call = expr
    # np view of a view slice: v[a:b] keeps the owner
    while isinstance(call, ast.Subscript):
        call = call.value
    if isinstance(call, ast.Name):
        fact = tracked.get(call.id)
        if fact is not None and fact[0] == "view":
            return str(fact[1])
        return None
    if not isinstance(call, ast.Call):
        return None
    name = _call_name(call.func)
    if name in _VIEW_METHODS and isinstance(call.func, ast.Attribute):
        base = call.func.value
        if isinstance(base, ast.Name) and base.id in tracked:
            return base.id
        return None
    if name not in _VIEW_CALLS or not call.args:
        return None
    arg = call.args[0]
    # np.frombuffer(shm.buf, ...) aliases shm's segment
    while isinstance(arg, ast.Attribute):
        arg = arg.value
    if isinstance(arg, ast.Name) and arg.id in tracked:
        fact = tracked[arg.id]
        if fact[0] == "view":
            return str(fact[1])
        return arg.id
    return None


def _names_in(expr: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


class _Finding:
    """A deduplicated finding site collected during transfer."""

    __slots__ = ("code", "line", "message", "severity")

    def __init__(self, code: str, line: int, message: str,
                 severity: str = "error"):
        self.code = code
        self.line = line
        self.message = message
        self.severity = severity

    def key(self) -> Tuple[str, int]:
        # severity is deliberately not part of the key: when the same
        # leak shows on a normal and an exceptional exit, the error
        # (reported first) wins over its warning twin
        return (self.code, self.line)


class _ResourceAnalysis(Analysis[Fact]):
    """Forward resource-state machine over one function's CFG."""

    direction = "forward"

    def __init__(self) -> None:
        self.findings: Dict[Tuple[str, int], _Finding] = {}
        #: names declared ``global``/``nonlocal`` — binding one of these
        #: hands the resource to module/outer scope
        self.global_names: Set[str] = set()

    # -- lattice -------------------------------------------------------
    def initial(self) -> Fact:
        return {}

    def bottom(self) -> Fact:
        return {}

    def join(self, a: Fact, b: Fact) -> Fact:
        out = dict(a)
        for name, fact in b.items():
            out[name] = _join_var(out[name], fact) if name in out else fact
        return out

    # -- reporting -----------------------------------------------------
    def _report(self, code: str, line: int, message: str,
                severity: str = "error") -> None:
        finding = _Finding(code, line, message, severity)
        self.findings.setdefault(finding.key(), finding)

    # -- transitions ---------------------------------------------------
    @staticmethod
    def _is_open(state: RState) -> bool:
        return state != ESC and not state[0]  # type: ignore[index]

    def _escape(self, fact: Fact, name: str) -> None:
        entry = fact.get(name)
        if entry is None:
            return
        if entry[0] == "res":
            fact[name] = _res(str(entry[1]), bool(entry[2]), int(entry[3]),  # type: ignore[arg-type]
                              frozenset({ESC}))
            # ownership of the buffer moved with it: its views are no
            # longer this scope's problem either
            for vname, ventry in list(fact.items()):
                if ventry[0] == "view" and ventry[1] == name:
                    fact[vname] = _view(name, int(ventry[2]),  # type: ignore[arg-type]
                                        frozenset({ESC}))
        else:
            states = frozenset(entry[3])  # type: ignore[arg-type]
            if DANGLING in states:
                self._report(
                    R205, int(entry[2]),  # type: ignore[arg-type]
                    f"view of {entry[1]!r} escapes after its backing "
                    "buffer was released on some path: the escaped array "
                    "reads freed memory")
            fact[name] = _view(str(entry[1]), int(entry[2]),  # type: ignore[arg-type]
                               frozenset({ESC}))

    def _release(self, fact: Fact, name: str, verb: str, line: int) -> None:
        entry = fact.get(name)
        if entry is None or entry[0] != "res":
            return
        kind = str(entry[1])
        states: FrozenSet[RState] = frozenset(entry[4])  # type: ignore[arg-type]
        closing = verb in _CLOSE_VERBS[kind]
        unlinking = kind == SHM and verb == "unlink"
        if not closing and not unlinking:
            return
        concrete = [s for s in states if s != ESC]
        must = ESC not in states  # an escaped path's state is unknown
        if closing and concrete and must \
                and all(s[0] for s in concrete):  # type: ignore[index]
            self._report(
                R203, line,
                f"{name}.{verb}() but {name!r} is already closed on every "
                "path reaching this statement")
        if unlinking and concrete and must \
                and all(s[1] for s in concrete):  # type: ignore[index]
            self._report(
                R203, line,
                f"{name}.unlink() but {name!r} is already unlinked on "
                "every path reaching this statement")
        new_states: Set[RState] = set()
        for state in states:
            if state == ESC:
                new_states.add(state)
                continue
            closed, unlinked = state  # type: ignore[misc]
            new_states.add((closed or closing, unlinked or unlinking))
        fact[name] = _res(kind, bool(entry[2]), int(entry[3]),  # type: ignore[arg-type]
                          frozenset(new_states))
        if closing:
            # releasing the buffer invalidates everything aliasing it
            for vname, ventry in list(fact.items()):
                if ventry[0] != "view" or ventry[1] != name:
                    continue
                vstates = frozenset(ventry[3])  # type: ignore[arg-type]
                if ESC in vstates:
                    self._report(
                        R205, line,
                        f"closing {name!r} after a view of it escaped the "
                        "function: the escaped array now reads freed "
                        "memory")
                fact[vname] = _view(name, int(ventry[2]),  # type: ignore[arg-type]
                                    frozenset({DANGLING}))

    def _bind(self, fact: Fact, target: ast.expr, value: VarFact,
              line: int) -> None:
        if not isinstance(target, ast.Name):
            return
        self._check_rebind(fact, target.id, line)
        fact[target.id] = value
        if target.id in self.global_names:
            self._escape(fact, target.id)

    def _check_rebind(self, fact: Fact, name: str, line: int) -> None:
        entry = fact.get(name)
        if entry is None or entry[0] != "res":
            fact.pop(name, None)
            return
        states = frozenset(entry[4])  # type: ignore[arg-type]
        if any(self._is_open(s) for s in states):
            self._report(
                _LEAK_CODE[str(entry[1])], line,
                f"{name!r} rebound while the {entry[1]} acquired at line "
                f"{entry[3]} is still open on some path: the old handle "
                "becomes unreachable without a close")
        fact.pop(name, None)

    # -- expression scanning -------------------------------------------
    def _scan_escapes(self, fact: Fact, expr: ast.expr) -> None:
        """Mark tracked names that ``expr`` hands to someone else."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in _SAFE_CALLS or name in _VIEW_CALLS \
                        or name in _VIEW_METHODS:
                    continue
                full_release = bool(_RELEASE_HELPER_RE.search(name))
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    for ref in _names_in(arg):
                        if ref not in fact:
                            continue
                        if full_release and fact[ref][0] == "res":
                            line = getattr(node, "lineno", 0)
                            self._release(fact, ref, "close", line)
                            if fact[ref][1] == SHM:
                                self._release(fact, ref, "unlink", line)
                        else:
                            self._escape(fact, ref)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                # a closure capturing the handle may release it later —
                # that is beyond one function's paths, so ownership moves
                for ref in _free_names(node) & set(fact):
                    self._escape(fact, ref)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                for ref in _names_in(node) & set(fact):
                    self._escape(fact, ref)

    def _handle_call_stmt(self, fact: Fact, call: ast.Call) -> bool:
        """``x.close()`` / ``x.unlink()`` style transitions; True if so."""
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            name = func.value.id
            if name in fact and fact[name][0] == "res":
                kind = str(fact[name][1])
                if func.attr in _CLOSE_VERBS[kind] or (
                        kind == SHM and func.attr == "unlink"):
                    self._release(fact, name, func.attr, call.lineno)
                    return True
        return False

    # -- the transfer function -----------------------------------------
    def transfer(self, block: Block, fact: Fact) -> Fact:
        fact = dict(fact)
        for event in block.events:
            self._transfer_event(fact, event)
        return fact

    def exc_transfer(self, block: Block, in_fact: Fact,
                     out_fact: Fact) -> Fact:
        # if the acquiring statement itself raises, the binding never
        # happened — its exception edge must not claim an open resource
        for event in block.events:
            node = event.node
            if event.kind == WITH_ENTER:
                assert isinstance(node, ast.withitem)
                if isinstance(node.context_expr, ast.Call) \
                        and _classify_acquisition(node.context_expr):
                    return in_fact
            elif event.kind == STMT and isinstance(
                    node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if isinstance(value, ast.Call) \
                        and _classify_acquisition(value):
                    return in_fact
        return out_fact

    def _transfer_event(self, fact: Fact, event: Event) -> None:
        node = event.node
        if event.kind == WITH_ENTER:
            assert isinstance(node, ast.withitem)
            ctx = node.context_expr
            acquired: Optional[VarFact] = None
            if isinstance(ctx, ast.Call):
                spec = _classify_acquisition(ctx)
                if spec is not None:
                    acquired = _res(spec[0], spec[1], ctx.lineno,
                                    frozenset({(False, False)}))
            if acquired is None:
                self._scan_escapes(fact, ctx)
            if node.optional_vars is not None and acquired is not None:
                self._bind(fact, node.optional_vars, acquired,
                           node.context_expr.lineno)
            return
        if event.kind == WITH_EXIT:
            assert isinstance(node, ast.withitem)
            target = node.optional_vars
            if isinstance(target, ast.Name) and target.id in fact \
                    and fact[target.id][0] == "res":
                kind = str(fact[target.id][1])
                verb = "close" if "close" in _CLOSE_VERBS[kind] else \
                    next(iter(_CLOSE_VERBS[kind]))
                self._release(fact, target.id, verb,
                              getattr(target, "lineno", 0))
            return
        if event.kind == FOR_ITER:
            assert isinstance(node, (ast.For, ast.AsyncFor))
            self._scan_escapes(fact, node.iter)
            if isinstance(node.target, ast.Name):
                self._check_rebind(fact, node.target.id, node.lineno)
            return
        if event.kind == TEST:
            if isinstance(node, ast.expr):
                self._scan_escapes(fact, node)
            return
        # plain statements
        if isinstance(node, ast.Assign):
            self._transfer_assign(fact, node.targets, node.value,
                                  node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._transfer_assign(fact, [node.target], node.value,
                                  node.lineno)
        elif isinstance(node, ast.AugAssign):
            self._scan_escapes(fact, node.value)
        elif isinstance(node, ast.Expr):
            value = node.value
            if isinstance(value, ast.Call) \
                    and self._handle_call_stmt(fact, value):
                return
            if isinstance(value, (ast.Yield, ast.YieldFrom, ast.Await)):
                inner = getattr(value, "value", None)
                if isinstance(inner, ast.expr):
                    self._yield_escape(fact, inner)
                return
            self._scan_escapes(fact, value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._yield_escape(fact, node.value)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._scan_escapes(fact, node.exc)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._check_rebind(fact, target.id, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            self.global_names.update(node.names)
            for name in node.names:
                if name in fact:
                    self._escape(fact, name)
        elif isinstance(node, ast.ExceptHandler):
            pass  # the handler's name binding is not a resource
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            for ref in _free_names(node) & set(fact):
                self._escape(fact, ref)
        elif isinstance(node, ast.stmt):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_escapes(fact, child)

    def _yield_escape(self, fact: Fact, expr: ast.expr) -> None:
        """``return x`` / ``yield x``: ownership leaves the function."""
        # a returned *view* of a still-local buffer is the R205 case the
        # docstring describes; a returned resource is a clean handoff
        for ref in _names_in(expr) & set(fact):
            self._escape(fact, ref)
        self._scan_escapes(fact, expr)

    def _transfer_assign(self, fact: Fact, targets: List[ast.expr],
                         value: ast.expr, line: int) -> None:
        acquired: Optional[VarFact] = None
        if isinstance(value, ast.Call):
            spec = _classify_acquisition(value)
            if spec is not None:
                acquired = _res(spec[0], spec[1], line,
                                frozenset({(False, False)}))
        owner = None if acquired is not None else _view_owner(value, fact)
        if acquired is None and owner is None:
            # plain value: anything tracked on the right escapes into it
            self._scan_escapes(fact, value)
            # an alias (`cache = shm`) makes ownership ambiguous: the
            # obligation may be discharged through either name — give up
            if isinstance(value, ast.Name) and value.id in fact:
                self._escape(fact, value.id)
        if owner is not None:
            owner_fact = fact.get(owner)
            states = frozenset({ALIVE})
            if owner_fact is not None and owner_fact[0] == "res":
                rstates = frozenset(owner_fact[4])  # type: ignore[arg-type]
                if rstates and all(
                        s != ESC and s[0]  # type: ignore[index]
                        for s in rstates):
                    states = frozenset({DANGLING})
            acquired = _view(owner, line, states)
        for target in targets:
            if isinstance(target, ast.Name):
                if acquired is not None:
                    self._bind(fact, target, acquired, line)
                else:
                    self._check_rebind(fact, target.id, line)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                # storing into an object: the value escapes; the base
                # expression is only being indexed, not consumed
                if acquired is not None:
                    pass  # anonymous handoff (self.f = open(...)) — owned elsewhere
                for ref in _names_in(value) & set(fact):
                    self._escape(fact, ref)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # tuple unpack of an acquisition result: untrackable
                for ref in _names_in(value) & set(fact):
                    self._escape(fact, ref)


def _free_names(node: ast.AST) -> Set[str]:
    """Names referenced inside a nested scope definition."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _function_globals(func: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            out.update(node.names)
    return out


class ResourceFlowRule:
    """Runs the R2xx analysis over every function in a module."""

    code = R201  # representative; findings carry their own codes
    name = "resource-flow"

    def check(self, ctx: "object") -> Iterator[Diagnostic]:
        for func, cfg in _cfgs(ctx):
            analysis = _ResourceAnalysis()
            analysis.global_names = _function_globals(func)
            in_facts = solve(cfg, analysis)
            # findings raised mid-fixpoint can be stale (a path joined in
            # later may invalidate a "must" claim): re-run the transfer
            # once over the converged facts and keep only those findings
            analysis.findings = {}
            for block in cfg.blocks:
                if block.bid in in_facts:
                    analysis.transfer(block, in_facts[block.bid])
            self._check_exits(cfg, analysis, in_facts)
            for finding in analysis.findings.values():
                yield Diagnostic(
                    code=finding.code, severity=finding.severity,
                    message=finding.message, location=ctx.path,  # type: ignore[attr-defined]
                    line=finding.line, rule=self.name,
                    function=func.name)

    @staticmethod
    def _exit_fact(cfg: CFG, analysis: _ResourceAnalysis,
                   in_facts: Dict[int, Fact], block: Block) -> Fact:
        fact = in_facts.get(block.bid)
        if fact is None:
            return {}
        return analysis.transfer(block, fact)

    def _check_exits(self, cfg: CFG, analysis: _ResourceAnalysis,
                     in_facts: Dict[int, Fact]) -> None:
        for block, severity, where in (
            (cfg.exit, "error", "a normal exit"),
            (cfg.raise_exit, "warning", "an exceptional exit"),
        ):
            fact = self._exit_fact(cfg, analysis, in_facts, block)
            for name, entry in fact.items():
                if entry[0] != "res":
                    continue
                kind = str(entry[1])
                states = frozenset(entry[4])  # type: ignore[arg-type]
                line = int(entry[3])  # type: ignore[arg-type]
                if any(s != ESC and not s[0] for s in states):  # type: ignore[index]
                    noun = {SHM: "SharedMemory segment",
                            FILE: "file/mmap handle",
                            POOL: "pool/server"}[kind]
                    verb = "closed" if kind != POOL else "torn down"
                    self._found(
                        analysis, _LEAK_CODE[kind], line, severity,
                        f"{noun} {name!r} acquired at line {line} reaches "
                        f"{where} without being {verb} on some path")
                if kind == SHM and bool(entry[2]) and any(
                        s != ESC and s[0] and not s[1]  # type: ignore[index]
                        for s in states):
                    self._found(
                        analysis, R202, line, severity,
                        f"created SharedMemory {name!r} (line {line}) is "
                        f"closed but reaches {where} without unlink on "
                        "some path: the /dev/shm file outlives every "
                        "process")

    @staticmethod
    def _found(analysis: _ResourceAnalysis, code: str, line: int,
               severity: str, message: str) -> None:
        finding = _Finding(code, line, message, severity)
        analysis.findings.setdefault(finding.key(), finding)


def _cfgs(ctx: "object") -> Iterator[Tuple[ast.AST, CFG]]:
    """Build (and memoize on the context) one CFG per function."""
    cache = getattr(ctx, "_flow_cfgs", None)
    if cache is None:
        cache = []
        for func in ast.walk(ctx.tree):  # type: ignore[attr-defined]
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cache.append((func, build_cfg(func)))
        ctx._flow_cfgs = cache  # type: ignore[attr-defined]
    return iter(cache)
