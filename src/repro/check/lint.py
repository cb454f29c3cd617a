"""Pillar 2 — AST-based repo lint targeting this codebase's failure modes.

``repro check lint`` parses every Python file under the given paths and
runs the rule set in :data:`RULES`.  Rules are deliberately few and
specific: each one encodes an invariant this repo has been bitten by (or
designed around), not a general style opinion — style belongs to ``ruff``,
which CI runs alongside.

Rules
-----
R101  dtype-less numpy array constructor in a kernel/profiling hot path.
      Default dtypes differ across platforms (Windows int32 vs Linux
      int64) and silently change gather widths and ``tobytes()`` cache
      keys; hot-path allocations must pin their dtype.
R102  ``SharedMemory`` acquired in a function with no cleanup handler.
      A segment that is not closed *and* unlinked on every path leaks a
      ``/dev/shm`` file for the machine's lifetime.  The rule accepts a
      ``finally``/``except`` block that closes and unlinks the handle
      (or calls a ``*release*``/``*cleanup*`` helper).
R103  ``multiprocessing`` / ``ProcessPoolExecutor`` used outside
      ``repro/software.py``.  Worker lifecycle, table shipping and
      segment transport are centralized in ``segment_pool``; ad-hoc
      pools re-pickle the DFA per task and skip telemetry merge.
R104  ``Engine`` subclass machinery that would bypass the ``repro.obs``
      instrumentation wrapper: overriding ``__init_subclass__``,
      assigning ``SomeEngine.run = ...`` after class creation, or
      forging ``__obs_wrapped__`` outside ``engines/base.py``.
R105  Mutable default argument (list/dict/set literal or constructor).
R106  Bare ``except:`` or an overbroad handler (``except BaseException``
      / ``except Exception``) that does not re-raise.

The flow-sensitive families R2xx (resource lifecycle) and R3xx (dtype
and value-range abstract interpretation) live in
:mod:`repro.check.flow` and are appended by :func:`default_rules` —
the set ``repro check lint`` runs unless ``--no-flow`` is given.

Suppression: append ``# repro: noqa(R106)`` (or ``# repro: noqa`` for
all codes) to the flagged line.  Suppressions are deliberate, reviewed
exceptions — e.g. the live metrics server's handler in
``repro/obs/live/server.py``, which must catch every error to answer
500.  R107
reports suppressions that no longer suppress anything (stale after a
refactor); it only runs when the full rule set does
(``check_stale_noqa=True``) and is deliberately not suppressible
itself — a ``noqa(R107)`` would make every stale comment self-hiding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Union

from repro.check.diagnostics import Diagnostic, register_code

__all__ = ["RULES", "LintRule", "default_rules", "lint_source",
           "lint_paths"]

R100 = register_code("R100", "file does not parse")
R107 = register_code("R107", "stale noqa suppresses nothing")
R101 = register_code("R101", "dtype-less numpy constructor in a hot path")
R102 = register_code("R102", "SharedMemory without close-and-unlink cleanup")
R103 = register_code("R103", "multiprocessing outside segment_pool")
R104 = register_code("R104", "Engine instrumentation wrapper bypass")
R105 = register_code("R105", "mutable default argument")
R106 = register_code("R106", "bare or overbroad except clause")

#: modules whose numpy allocations must pin an explicit dtype (R101);
#: matched as substrings of the POSIX-style file path
HOT_PATHS = (
    "repro/kernels/",
    "repro/core/profiling.py",
    "repro/software.py",
    "repro/compilecache/artifact.py",
)

#: the one module allowed to own process pools / shared memory (R103)
POOL_MODULE = "repro/software.py"

#: where the instrumentation wrapper itself lives (R104 exempt)
ENGINE_BASE_MODULE = "repro/engines/base.py"

#: numpy array constructors that accept (and must receive) ``dtype=``
_NP_CONSTRUCTORS = frozenset({
    "zeros", "empty", "ones", "full", "arange", "asarray",
    "ascontiguousarray", "fromiter", "frombuffer",
})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\(\s*(?P<codes>[A-Z0-9,\s]+?)\s*\))?"
)


class LintContext:
    """Everything a rule needs: the tree, the source and the path."""

    def __init__(self, tree: ast.Module, source: str, path: str):
        self.tree = tree
        self.source = source
        self.path = path.replace("\\", "/")
        self.lines = source.splitlines()
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                child._repro_parent = parent  # type: ignore[attr-defined]

    def in_module(self, fragment: str) -> bool:
        return fragment in self.path

    def functions(self) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


class LintRule:
    """Base class: a code, a name, and a ``check`` generator."""

    code: str = ""
    name: str = ""

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST,
                message: str, severity: str = "error") -> Diagnostic:
        return Diagnostic(
            code=self.code, severity=severity, message=message,
            location=ctx.path, line=getattr(node, "lineno", None),
            rule=self.name,
        )


def _is_numpy_attr(node: ast.AST) -> Optional[str]:
    """``np.zeros`` / ``numpy.zeros`` -> the constructor name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in ("np", "numpy"):
        return node.attr
    return None


class NumpyDtypeRule(LintRule):
    """R101: hot-path numpy allocations must pin ``dtype=``.

    Applies to the constructors in :data:`_NP_CONSTRUCTORS` inside the
    modules listed in :data:`HOT_PATHS` only — cold-path code may let
    numpy infer.
    """

    code = R101
    name = "numpy-dtype"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not any(ctx.in_module(hot) for hot in HOT_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _is_numpy_attr(node.func)
            if attr not in _NP_CONSTRUCTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            yield self.finding(
                ctx, node,
                f"np.{attr}(...) without an explicit dtype= in a hot path; "
                "default dtypes are platform-dependent and change gather "
                "widths and cache keys")


class SharedMemoryGuardRule(LintRule):
    """R102: SharedMemory needs a reachable close-and-unlink path.

    Heuristic, by design (exact escape analysis is undecidable): the
    enclosing function must contain a ``finally`` or ``except`` block
    that references both ``.close`` and ``.unlink``, or calls a helper
    whose name contains ``release``/``cleanup``/``unlink``.  Deliberate
    exceptions (e.g. worker-side attach caching) carry a noqa.
    """

    code = R102
    name = "shm-guard"

    @staticmethod
    def _handler_cleans(handler_bodies: List[List[ast.stmt]]) -> bool:
        saw_close = saw_unlink = False
        for body in handler_bodies:
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Attribute):
                        if node.attr == "close":
                            saw_close = True
                        if node.attr == "unlink":
                            saw_unlink = True
                    if isinstance(node, ast.Call):
                        name = ""
                        if isinstance(node.func, ast.Name):
                            name = node.func.id
                        elif isinstance(node.func, ast.Attribute):
                            name = node.func.attr
                        if re.search(r"release|cleanup|unlink", name):
                            saw_close = saw_unlink = True
        return saw_close and saw_unlink

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for func in ctx.functions():
            calls = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == "SharedMemory")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "SharedMemory"))
            ]
            if not calls:
                continue
            handler_bodies: List[List[ast.stmt]] = []
            for node in ast.walk(func):
                if isinstance(node, ast.Try):
                    if node.finalbody:
                        handler_bodies.append(node.finalbody)
                    for handler in node.handlers:
                        handler_bodies.append(handler.body)
            if self._handler_cleans(handler_bodies):
                continue
            for call in calls:
                yield self.finding(
                    ctx, call,
                    "SharedMemory acquired but the enclosing function has "
                    "no finally/except path that closes and unlinks it; a "
                    "failure here leaks the /dev/shm segment")


class MultiprocessingScopeRule(LintRule):
    """R103: process pools and raw multiprocessing live in one module.

    Everything multiprocess goes through ``repro.software.segment_pool``
    so tables ship once, telemetry merges, and segments reach workers
    one way.
    """

    code = R103
    name = "mp-outside-pool"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.in_module(POOL_MODULE):
            return
        for node in ast.walk(ctx.tree):
            offending: Optional[str] = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        offending = alias.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    offending = module
                elif module == "concurrent.futures" and any(
                        alias.name == "ProcessPoolExecutor"
                        for alias in node.names):
                    offending = "concurrent.futures.ProcessPoolExecutor"
            if offending:
                yield self.finding(
                    ctx, node,
                    f"{offending} imported outside {POOL_MODULE}; route "
                    "process-level parallelism through "
                    "repro.software.segment_pool")


class EngineInstrumentationRule(LintRule):
    """R104: nothing may dodge the Engine telemetry wrapper.

    ``Engine.__init_subclass__`` wraps every concrete ``run`` with the
    span/counter recorder; a subclass overriding ``__init_subclass__``,
    code re-assigning ``SomeEngine.run``, or anything forging the
    ``__obs_wrapped__`` marker outside ``engines/base.py`` silently
    drops that telemetry.
    """

    code = R104
    name = "engine-obs-bypass"

    @staticmethod
    def _engine_base(base: ast.expr) -> bool:
        if isinstance(base, ast.Name):
            return base.id.endswith("Engine")
        if isinstance(base, ast.Attribute):
            return base.attr.endswith("Engine")
        return False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.in_module(ENGINE_BASE_MODULE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) \
                    and any(self._engine_base(b) for b in node.bases):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                            and stmt.name == "__init_subclass__":
                        yield self.finding(
                            ctx, stmt,
                            f"{node.name} overrides __init_subclass__, "
                            "which replaces the hook that wraps run() with "
                            "the obs instrumentation")
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign) else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and target.attr == "run" \
                            and self._engine_base(target.value):
                        yield self.finding(
                            ctx, node,
                            "assigning .run on an Engine class after "
                            "creation skips the obs instrumentation wrapper")
                    if isinstance(target, ast.Attribute) \
                            and target.attr == "__obs_wrapped__":
                        yield self.finding(
                            ctx, node,
                            "forging __obs_wrapped__ outside engines/base "
                            "marks an uninstrumented run() as instrumented")


class MutableDefaultRule(LintRule):
    """R105: mutable default arguments are shared across calls."""

    code = R105
    name = "mutable-default"

    @staticmethod
    def _is_mutable(node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for func in ctx.functions():
            args = func.args  # type: ignore[attr-defined]
            for default in list(args.defaults) + list(args.kw_defaults):
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in "
                        f"{func.name}(); it is evaluated once and shared "  # type: ignore[attr-defined]
                        "across every call")


class OverbroadExceptRule(LintRule):
    """R106: handlers must be narrow or re-raise.

    Bare ``except:`` and ``except BaseException:`` swallow
    KeyboardInterrupt/SystemExit; ``except Exception:`` hides real
    faults.  A handler whose body contains a bare ``raise`` is a
    cleanup-and-propagate pattern and is allowed.
    """

    code = R106
    name = "overbroad-except"

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(node, ast.Raise) and node.exc is None
            for node in ast.walk(handler)
        )

    @staticmethod
    def _broad_name(type_node: Optional[ast.expr]) -> Optional[str]:
        if type_node is None:
            return "bare"
        names: List[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for entry in names:
            name = entry.id if isinstance(entry, ast.Name) else (
                entry.attr if isinstance(entry, ast.Attribute) else "")
            if name in ("BaseException", "Exception"):
                return name
        return None

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if broad == "bare":
                yield self.finding(
                    ctx, node,
                    "bare except: catches KeyboardInterrupt and SystemExit; "
                    "name the exceptions (or catch Exception and re-raise)")
            elif not self._reraises(node):
                severity = "error" if broad == "BaseException" else "warning"
                yield self.finding(
                    ctx, node,
                    f"except {broad} without a re-raise swallows faults "
                    "this code cannot handle",
                    severity=severity)


RULES: List[LintRule] = [
    NumpyDtypeRule(),
    SharedMemoryGuardRule(),
    MultiprocessingScopeRule(),
    EngineInstrumentationRule(),
    MutableDefaultRule(),
    OverbroadExceptRule(),
]


def default_rules(flow: bool = True) -> List[LintRule]:
    """The rule set ``repro check lint`` runs: per-node + flow families.

    The flow package is imported lazily so ``repro.check.lint`` stays
    importable (and :data:`RULES` usable) without it.
    """
    rules = list(RULES)
    if flow:
        from repro.check.flow import FLOW_RULES
        rules.extend(FLOW_RULES)  # type: ignore[arg-type]
    return rules


def _noqa_codes(line: str) -> Optional[Set[str]]:
    """Codes suppressed on this line; empty set means *all* codes."""
    match = _NOQA_RE.search(line)
    if not match:
        return None
    codes = match.group("codes")
    if not codes:
        return set()
    return {c.strip() for c in codes.split(",") if c.strip()}


def _noqa_comment_lines(source: str) -> Set[int]:
    """Lines carrying an actual ``# repro: noqa`` *comment token*.

    The regex alone would also match prose quoting the marker inside a
    docstring (this module's own docstring does), which must not count
    as a suppression site for R107.
    """
    out: Set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT \
                    and _NOQA_RE.search(tok.string):
                out.add(tok.start[0])
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass  # unparseable tail: R100 reports it; no stale-noqa pass
    return out


def _suppressed(diag: Diagnostic, lines: Sequence[str]) -> bool:
    if diag.line is None or not (1 <= diag.line <= len(lines)):
        return False
    codes = _noqa_codes(lines[diag.line - 1])
    if codes is None:
        return False
    return not codes or diag.code in codes


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[LintRule]] = None,
                check_stale_noqa: bool = False) -> List[Diagnostic]:
    """Lint one source string; ``path`` drives the module-scoped rules.

    ``check_stale_noqa`` adds R107 findings for ``# repro: noqa``
    comments that suppressed nothing.  Only pass it when ``rules`` is
    the *full* set (:func:`default_rules`): with rules missing, their
    suppressions would look stale.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            code=R100, severity="error", rule="syntax",
            message=f"file does not parse: {exc.msg}",
            location=path, line=exc.lineno)]
    ctx = LintContext(tree, source, path)
    out: List[Diagnostic] = []
    used_noqa_lines: Set[int] = set()
    for rule in rules if rules is not None else RULES:
        for diag in rule.check(ctx):
            if _suppressed(diag, ctx.lines):
                if diag.line is not None:
                    used_noqa_lines.add(diag.line)
            else:
                out.append(diag)
    if check_stale_noqa:
        for lineno in sorted(_noqa_comment_lines(source)):
            if lineno not in used_noqa_lines:
                out.append(Diagnostic(
                    code=R107, severity="warning", rule="stale-noqa",
                    location=ctx.path, line=lineno,
                    message="this `# repro: noqa` suppresses nothing; "
                            "the finding it excused is gone — remove "
                            "the comment or it will hide the next one"))
    out.sort(key=lambda d: (d.location, d.line or 0, d.code))
    return out


def expand_paths(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Files/directories -> the ordered list of ``.py`` files to lint."""
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def lint_paths(paths: Sequence[Union[str, Path]],
               rules: Optional[Sequence[LintRule]] = None,
               check_stale_noqa: bool = False) -> List[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    out: List[Diagnostic] = []
    for f in expand_paths(paths):
        out.extend(lint_source(f.read_text(encoding="utf-8"),
                               path=str(f), rules=rules,
                               check_stale_noqa=check_stale_noqa))
    return out
