"""Compiled native set-flow tier: the enumeration frontier as one C call.

This module loads ``_native.c`` — a dependency-free C library (no
``Python.h``, no numpy headers) — through :mod:`ctypes` and advances
**every** segment's enumeration frontier over its **whole** symbol
buffer in a single native call (ABI 7), over the dtype-narrowed
:class:`repro.kernels.dense.DenseTables`.  Each segment is passed by
pointer, length and symbol kind and read at its own width: byte input as
uint8, anything else as int64, with no widening or concatenation here.
The frontier is a segment's *distinct live states*: each lane (a start
state) points at one of them, per position only those are gathered, and
strided collapse checks (every K positions, K adaptive from
:data:`NATIVE_STRIDE_MIN` unless pinned — stride only moves *when*
degradation is noticed, never the outcome) dedup them and merge lanes.
Once every lane shares one state the segment leaves a scalar tail from
that state, and after every frontier has run one pass walks all the
batch's tails eight at a time, round robin, so their independent loads
overlap instead of forming one chain.  The ``frontier_steps`` stat
(``kernels_native_frontier_steps_total``) counts the states gathered;
over ``native_positions`` it is the mean number of distinct live states
per position, the paper's M, measured.

Availability is best-effort and never load-bearing:

- ``REPRO_NATIVE=0`` disables the tier outright (CI pins the fallback
  path with it);
- the library is found next to this module (wheel/sdist builds via
  ``setup.py``), then in a per-user cache keyed by the source digest,
  then lazily compiled with ``cc``/``gcc``/``clang`` if a toolchain is
  present — all failures are memoized into
  :func:`native_unavailable_reason`, and every caller degrades to the
  interpreted set-flow loop (:mod:`repro.kernels.setflow`).

The same library also runs the scan's concrete walks — segment 0, global
re-execution and a matcher's report pass — through :func:`walk`: one
compiled table walk from a start state over symbols read at their own
width, collecting ``(offset, state)`` reports into a bounded buffer that
the walk pauses on and resumes from.  Without the library :func:`walk`
runs the interpreted list walk.  :func:`native_prefilter` runs the
literal prefilter (:mod:`repro.kernels.prefilter`) for a batch of
segments in one call: a backward scan to each segment's last proven
reset, then the compiled walk of the tail after it.  :func:`native_lanes`
walks independent lanes over one state-major int32 table of row
offsets, eight at a time, and pauses a lane on an entry not built yet:
the lazily grown SFA (:mod:`repro.kernels.sfa`) runs on it.  The C
range checks only guard memory reads: a refused call raises the input
contract's error (:func:`repro.ingest.admit`), never a replay.

Outcomes are bit-identical to every other backend: the C core returns
raw final frontiers, and the per-set outcomes are their ``np.unique``
over the partition's :meth:`~repro.core.partition.StatePartition.
frontier_layout`.  ``repro check`` certifies the compiled library reads
the exact table bytes the Python tier built (K114/K115), replays a
report walk against :meth:`Dfa.run_reports` (K116) and a multi-position
frontier against :meth:`Dfa.run_all_states` (K117);
``benchmarks/bench_native.py`` gates the speedup (native >= 15x the
interpreted loop on the 64-state/1 MB/16-segment acceptance config).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Dict, List, NoReturn, Optional, Sequence, Tuple,
)

import numpy as np

from repro.automata.dfa import Dfa
from repro.core.partition import StatePartition
from repro.core.transition import CsOutcome
from repro.ingest import Segments, admit
from repro.kernels.dense import DenseTables

if TYPE_CHECKING:
    from repro.kernels.prefilter import PrefilterTables

__all__ = [
    "Lanes",
    "NATIVE_ABI",
    "NATIVE_STRIDE_MIN",
    "WALK_REPORT_CAP",
    "NativeBuildError",
    "build_native",
    "load_native",
    "native_available",
    "native_build_info",
    "native_lanes",
    "native_library_path",
    "native_prefilter",
    "native_table_view",
    "native_unavailable_reason",
    "native_walk",
    "native_walks",
    "reset_native",
    "run_segments_native",
    "walk",
]

#: expected ``cse_native_abi()`` of a loadable library
NATIVE_ABI = 7
#: first gap between the frontier's strided collapse checks in adaptive
#: mode (must match NATIVE_STRIDE_MIN in _native.c)
NATIVE_STRIDE_MIN = 8
#: set to ``0``/``off``/``false`` to disable the native tier entirely
ENV_DISABLE = "REPRO_NATIVE"
#: overrides the per-user build cache directory
ENV_CACHE_DIR = "REPRO_NATIVE_CACHE"
#: compilers probed (after ``$CC``) for the lazy on-demand build
COMPILERS = ("cc", "gcc", "clang")
#: compile flags.  Loop heads start on 32-byte boundaries so a kernel's
#: speed does not depend on where unrelated code places it: on a 2-CPU
#: x86-64 Xeon guest, adding a function shifted cse_native_scan by 16
#: bytes and slowed its uint16 gather loop 1.6x (branches straddling
#: 32-byte lines)
CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-falign-loops=32")

_SOURCE = Path(__file__).with_name("_native.c")
#: table dtype -> C kind tag (must match KIND_* in _native.c)
_TABLE_KINDS: Dict[np.dtype[Any], int] = {
    np.dtype(np.uint8): 0, np.dtype(np.uint16): 1, np.dtype(np.int64): 2,
}
#: stats_out slot layout (must match STAT_* in _native.c)
_STAT_SLOTS = 5
_STAT_NATIVE_POSITIONS = 0
_STAT_STRIDE_CHECKS = 1
_STAT_DEGRADED = 2
_STAT_SCALAR_POSITIONS = 3
_STAT_FRONTIER_STEPS = 4
#: symbol dtype -> C kind tag (the table kinds' tags, uint8 and int64 only)
_SYMBOL_KINDS: Dict[np.dtype[Any], int] = {
    np.dtype(np.uint8): 0, np.dtype(np.int64): 2,
}
#: cse_native_walk return codes (must match WALK_* in _native.c)
_WALK_DONE = 0
_WALK_PAUSED = 1
_WALK_BAD_SYMBOL = -2
#: reports one cse_native_walk call buffers before it pauses for the
#: caller to drain them: a walk's report memory stays this size however
#: long the input is
WALK_REPORT_CAP = 4096

#: one report event: (offset, state reached after the symbol there)
Report = Tuple[int, int]


class NativeBuildError(RuntimeError):
    """The optional native library could not be compiled."""


# memoized load outcome: (library or None, unavailability reason, path)
_state: Optional[
    Tuple[Optional[ctypes.CDLL], Optional[str], Optional[Path]]
] = None


def _compiler() -> Optional[str]:
    """First usable C compiler: ``$CC``, then cc/gcc/clang on PATH."""
    env_cc = os.environ.get("CC", "").strip()
    for cand in (env_cc, *COMPILERS):
        if cand and shutil.which(cand.split()[0]):
            return cand
    return None


def source_digest() -> str:
    """Content digest of the C source + flags + ABI + platform (cache key)."""
    h = hashlib.sha256()
    h.update(_SOURCE.read_bytes())
    h.update(
        f"|{' '.join(CFLAGS)}|abi={NATIVE_ABI}|{platform.system()}"
        f"|{platform.machine()}".encode()
    )
    return h.hexdigest()[:16]


def _cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE_DIR, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _library_name() -> str:
    return f"_native_cse-{source_digest()}.so"


def build_native(
    output: Optional[Path] = None, compiler: Optional[str] = None
) -> Path:
    """Compile ``_native.c`` into a shared library; returns its path.

    Raises :class:`NativeBuildError` when no toolchain is available or
    the compile fails — callers that must not fail (``setup.py``, the
    lazy loader) catch it and continue pure-python.
    """
    cc = compiler or _compiler()
    if cc is None:
        raise NativeBuildError(
            f"no C compiler found ($CC, {', '.join(COMPILERS)})"
        )
    out = output or _cache_dir() / _library_name()
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="_native_cse.", dir=str(out.parent)
    )
    os.close(fd)
    tmp = Path(tmp_name)
    cmd = [*cc.split(), *CFLAGS, "-o", str(tmp), str(_SOURCE)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        tmp.unlink(missing_ok=True)
        raise NativeBuildError(f"compile invocation failed: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout or "").strip()[-400:]
        raise NativeBuildError(
            f"{cc} exited {proc.returncode}: {detail or 'no output'}"
        )
    # atomic publish: concurrent builders race benignly to the same digest
    os.replace(tmp, out)
    return out


def _configure(lib: ctypes.CDLL) -> None:
    c_i64 = ctypes.c_int64
    c_ptr = ctypes.c_void_p
    lib.cse_native_abi.restype = c_i64
    lib.cse_native_abi.argtypes = []
    lib.cse_native_scan.restype = c_i64
    lib.cse_native_scan.argtypes = [
        c_ptr, c_i64, c_i64, c_i64,   # table, kind, n_states, alphabet
        c_ptr, c_ptr, c_ptr, c_i64,   # seg_ptrs, seg_lens, seg_kinds, n_seg
        c_ptr, c_i64,                 # init, width
        c_ptr, c_ptr, c_i64, c_i64,   # cs_starts, cs_sizes, n_blocks, stride
        c_ptr, c_ptr, c_ptr,          # final_out, collapsed_out, stats_out
        c_ptr, c_ptr, c_ptr,          # active, slot, remap scratch
        c_ptr, c_ptr,                 # stamp_scratch, seen_scratch
        c_ptr, c_ptr,                 # tail_scratch, pending_scratch
    ]
    lib.cse_native_walks.restype = c_i64
    lib.cse_native_walks.argtypes = [
        c_ptr, c_i64, c_i64, c_i64,   # table, kind, n_states, alphabet
        c_ptr, c_ptr, c_ptr, c_i64,   # seg_ptrs, seg_lens, seg_kinds, n_seg
        c_ptr, c_ptr, c_ptr,          # states_io, pos_scratch, pending_scratch
    ]
    lib.cse_native_table_view.restype = c_i64
    lib.cse_native_table_view.argtypes = [c_ptr, c_i64, c_i64, c_ptr]
    c_i64_p = ctypes.POINTER(c_i64)
    lib.cse_native_walk.restype = c_i64
    lib.cse_native_walk.argtypes = [
        c_ptr, c_i64, c_i64, c_i64,   # table, kind, n_states, alphabet
        c_ptr, c_i64, c_i64,          # syms, sym_kind, len
        c_i64_p, c_i64_p,             # pos_io, state_io
        c_ptr, c_ptr, c_ptr,          # accepting, offsets_out, states_out
        c_i64, c_i64_p,               # cap, n_reports_out
    ]
    lib.cse_native_prefilter.restype = c_i64
    lib.cse_native_prefilter.argtypes = [
        c_ptr, c_i64, c_i64, c_i64,   # table, kind, n_states, alphabet
        c_ptr, c_i64, c_i64,          # anchor_lut, home, skip_width
        c_ptr, c_ptr, c_ptr, c_i64,   # seg_ptrs, seg_lens, seg_kinds, n_seg
        c_ptr, c_ptr, c_ptr,          # starts, final_out, walk_from_out
    ]
    lib.cse_native_lanes.restype = c_i64
    lib.cse_native_lanes.argtypes = [
        c_ptr, c_i64, c_i64,          # table, n_rows, alphabet
        c_ptr, c_ptr, c_ptr, c_i64,   # seg_ptrs, seg_lens, seg_kinds, n_lanes
        c_i64,                        # check
        c_ptr, c_ptr, c_ptr,          # pos_io, state_io, order_scratch
    ]


def _try_load(path: Path) -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"dlopen({path.name}) failed: {exc}"
    if not hasattr(lib, "cse_native_abi"):
        return None, f"{path.name} lacks cse_native_abi"
    lib.cse_native_abi.restype = ctypes.c_int64
    lib.cse_native_abi.argtypes = []
    abi = int(lib.cse_native_abi())
    if abi != NATIVE_ABI:
        return None, f"{path.name} has ABI {abi}, expected {NATIVE_ABI}"
    _configure(lib)
    return lib, None


def _disabled_reason() -> Optional[str]:
    raw = os.environ.get(ENV_DISABLE, "").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return f"disabled via {ENV_DISABLE}={raw}"
    return None


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str], Optional[Path]]:
    disabled = _disabled_reason()
    if disabled is not None:
        return None, disabled, None
    if not _SOURCE.is_file():
        return None, "_native.c missing from the package", None
    # prebuilt (setup.py drops the library next to the module), then the
    # per-user cache, then a lazy on-demand build
    candidates = sorted(_SOURCE.parent.glob("_native_cse*.so"))
    cached = _cache_dir() / _library_name()
    if cached.is_file():
        candidates.append(cached)
    last_err: Optional[str] = None
    for cand in candidates:
        lib, err = _try_load(cand)
        if lib is not None:
            return lib, None, cand
        last_err = err
    try:
        built = build_native()
    except NativeBuildError as exc:
        reason = str(exc) if last_err is None else f"{last_err}; {exc}"
        return None, reason, None
    lib, err = _try_load(built)
    if lib is not None:
        return lib, None, built
    return None, err, None


def load_native(refresh: bool = False) -> Optional[ctypes.CDLL]:
    """The loaded library, or ``None`` (reason memoized) when absent."""
    global _state
    if _state is None or refresh:
        _state = _load()
    return _state[0]


def reset_native() -> None:
    """Forget the memoized load outcome (tests flip env vars)."""
    global _state
    _state = None


def native_available() -> bool:
    """True when the compiled tier is loadable right now."""
    return load_native() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native tier is off (``None`` when it is available)."""
    load_native()
    assert _state is not None
    return _state[1]


def native_library_path() -> Optional[Path]:
    """Path of the loaded library (``None`` when unavailable)."""
    load_native()
    assert _state is not None
    return _state[2]


def _compiler_version(cc: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            [*cc.split(), "--version"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    first = (proc.stdout or proc.stderr or "").strip().splitlines()
    return first[0][:120] if first else None


def native_build_info() -> Dict[str, object]:
    """Provenance of the compiled tier (stamped into BENCH_*.json)."""
    lib = load_native()
    assert _state is not None
    info: Dict[str, object] = {
        "available": lib is not None,
        "abi": NATIVE_ABI,
        "source_digest": source_digest() if _SOURCE.is_file() else None,
    }
    if lib is None:
        info["reason"] = _state[1]
    else:
        info["library"] = str(_state[2])
    cc = _compiler()
    info["compiler"] = cc
    if cc is not None:
        info["compiler_version"] = _compiler_version(cc)
    return info


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _table_args(dfa: Dfa, tables: DenseTables) -> Optional[Tuple[int, int]]:
    """``(address, kind)`` of the dense table as the C entry points read it.

    Resolved once per :class:`DenseTables` (again only if its ``table``
    is replaced).  ``None`` when the table's dtype has no C kind or the
    tables do not describe ``dfa``: the caller falls back or refuses.
    """
    args = tables.native_args
    if args is None or args[0] is not tables.table:
        # the entry keeps the contiguous table its address points into
        table = np.ascontiguousarray(tables.table, dtype=tables.table.dtype)
        kind = _TABLE_KINDS.get(table.dtype, -1)
        args = (tables.table, table, table.ctypes.data, kind)
        tables.native_args = args
    n_states = dfa.num_states
    if args[3] < 0 or tables.num_states != n_states \
            or int(tables.table.size) != dfa.alphabet_size * n_states:
        return None
    return args[2], args[3]


def _lut_args(prefilter: "PrefilterTables") -> int:
    """Address of the anchor LUT as bytes, resolved once per certificate."""
    args = prefilter.native_args
    if args is None or args[0] is not prefilter.anchor_lut:
        lut = np.ascontiguousarray(prefilter.anchor_lut,
                                   dtype=np.bool_).view(np.uint8)
        args = (prefilter.anchor_lut, lut, lut.ctypes.data)
        prefilter.native_args = args
    return args[2]


def _spans(segments: Sequence[np.ndarray]
           ) -> Optional[Tuple[List[int], object]]:
    """Segments as the C entry points read them: ``(args, keep)``.

    ``args`` lists every segment's address, then every length, then
    every symbol kind: the first three rows of the int64 array a call
    passes.  ``keep`` holds the memory the addresses point into alive for
    the call.  A :class:`repro.ingest.Segments` batch takes every address
    from its buffer's base address plus the bounds; any other sequence
    is read a segment at a time, contiguous copies made where needed.
    ``None`` when a segment does not read as admitted input (uint8 or
    int64, one dimension).
    """
    if isinstance(segments, Segments):
        buf = segments.buffer
        base, width = buf.ctypes.data, buf.itemsize
        bounds = segments.bounds
        return ([base + a * width for a, _ in bounds]
                + [b - a for a, b in bounds]
                + [_SYMBOL_KINDS[buf.dtype]] * len(bounds)), buf
    # dtype deliberately inherited: an InputView reads as uint8
    segs = [np.ascontiguousarray(seg) for seg in segments]  # repro: noqa(R101)
    kinds = [_SYMBOL_KINDS.get(seg.dtype, -1) if seg.ndim == 1 else -1
             for seg in segs]
    if -1 in kinds:
        return None
    return ([seg.ctypes.data for seg in segs] + [seg.size for seg in segs]
            + kinds), segs


def _span_rows(spans: Sequence[np.ndarray], what: str
               ) -> Tuple[np.ndarray, object]:
    """:func:`_spans` as the ``(3, n)`` int64 array a call reads.

    Raises ``ValueError`` naming the first span that is not admitted
    input (``what`` says whose spans they are).
    """
    got = _spans(spans)
    if got is None:
        # dtype deliberately inherited: the message names the one read
        arrays = [np.asarray(span) for span in spans]  # repro: noqa(R101)
        bad = next(a for a in arrays
                   if a.ndim != 1 or a.dtype not in _SYMBOL_KINDS)
        raise ValueError(f"{what} spans are admitted input, not "
                         f"{bad.dtype} of {bad.ndim} dimensions")
    args, keep = got
    return np.array(args, dtype=np.int64).reshape(3, len(spans)), keep


def native_table_view(tables: DenseTables) -> np.ndarray:
    """The table exactly as the C library reads it, widened to int64.

    ``repro check`` compares this against the dense tables (K114): a
    mismatch means the compiled library and the Python tier disagree on
    the transition bytes and the native backend must not be trusted.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    kind = _TABLE_KINDS.get(tables.table.dtype)
    if kind is None:
        raise ValueError(f"unsupported table dtype {tables.table.dtype}")
    table = np.ascontiguousarray(tables.table, dtype=tables.table.dtype)
    out = np.empty(int(table.size), dtype=np.int64)
    rc = int(lib.cse_native_table_view(
        _ptr(table), kind, int(table.size), _ptr(out)
    ))
    if rc != 0:
        raise RuntimeError(f"native table view rejected kind {kind}")
    return out


def walk(
    dfa: Dfa,
    symbols: object,
    state: Optional[int] = None,
    tables: Optional[DenseTables] = None,
    rows: Optional[List[List[int]]] = None,
    reports: bool = False,
) -> Tuple[int, List[Report]]:
    """One concrete walk from ``state``; returns ``(final_state, reports)``.

    The input is admitted first (:func:`repro.ingest.admit`).  With the
    native library loaded this is ``cse_native_walk`` over ``tables``
    (the dense tables, built from ``dfa`` when not given), reading byte
    input as uint8 and anything else as int64.  With ``reports=True``
    the list holds ``(offset, state)`` for every position whose
    post-symbol state is accepting, exactly as :meth:`Dfa.run_reports`
    emits them; otherwise it is empty.  Without the library it is the
    interpreted list walk over ``rows`` (the nested-list table, built
    from ``dfa`` when not given).
    """
    start = dfa.start if state is None else int(state)
    syms = admit(symbols, dfa.alphabet_size, start, dfa.num_states)
    done = native_walk(dfa, syms, start, tables, reports)
    if done is not None:
        return done
    return _walk_list(dfa, syms, start, rows, reports)


def native_walk(
    dfa: Dfa,
    syms: np.ndarray,
    state: int,
    tables: Optional[DenseTables] = None,
    reports: bool = False,
    cap: int = WALK_REPORT_CAP,
) -> Optional[Tuple[int, List[Report]]]:
    """The compiled half of :func:`walk`, or ``None`` where it cannot run.

    ``None`` means the library is absent or the table or symbol dtype
    has no C kind: the interpreted walk is the answer there.  A symbol
    or ``state`` the C walk refuses raises the input contract's
    :class:`repro.ingest.InputError`.  ``cap`` sizes the report buffer
    each C call fills before it pauses; ``repro check`` (K116) passes a
    tiny one so that a short probe crosses many pause/resume points.
    """
    lib = load_native()
    n_states = dfa.num_states
    if lib is None or cap < 1:
        return None
    tables = tables if tables is not None else DenseTables(dfa)
    resolved = _table_args(dfa, tables)
    sym_kind = _SYMBOL_KINDS.get(syms.dtype)
    if resolved is None or sym_kind is None or syms.ndim != 1:
        return None
    table, kind = resolved
    syms = np.ascontiguousarray(syms, dtype=syms.dtype)
    pos = ctypes.c_int64(0)
    cur = ctypes.c_int64(state)
    n_out = ctypes.c_int64(0)
    accepting: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None
    if reports:
        accepting = dfa.accepting_mask.view(np.uint8)
        offsets = np.empty(cap, dtype=np.int64)
        states = np.empty(cap, dtype=np.int64)
    out: List[Report] = []
    while True:
        rc = int(lib.cse_native_walk(
            table, kind, n_states, dfa.alphabet_size,
            _ptr(syms), sym_kind, int(syms.size),
            ctypes.byref(pos), ctypes.byref(cur),
            None if accepting is None else _ptr(accepting),
            None if offsets is None else _ptr(offsets),
            None if states is None else _ptr(states),
            cap, ctypes.byref(n_out),
        ))
        n = int(n_out.value)
        if n and offsets is not None and states is not None:
            out.extend(zip(offsets[:n].tolist(), states[:n].tolist()))
        if rc == _WALK_DONE:
            return int(cur.value), out
        if rc != _WALK_PAUSED:
            _refuse(dfa, [syms], [state], rc)


def native_walks(
    dfa: Dfa,
    spans: Sequence[np.ndarray],
    states: Sequence[int],
    tables: Optional[DenseTables] = None,
) -> np.ndarray:
    """The final state of each span walked from ``states[i]``, in one C call.

    ``spans`` are admitted input (uint8 or int64, one dimension, freely
    mixed), read at their own width with no copy; ``tables`` are the
    dense tables (built from ``dfa`` when not given).  The walks are the
    tail pass's lanes, eight at a time, so their loads overlap.  Returns
    an int64 array of one final state per span (an empty span ends where
    it starts).  A symbol or start state the C call refuses raises the
    input contract's :class:`repro.ingest.InputError`.  Requires the
    native library.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    tables = tables if tables is not None else DenseTables(dfa)
    resolved = _table_args(dfa, tables)
    if resolved is None:
        raise ValueError("walks need dense tables of this machine")
    table, kind = resolved
    rows, _keep = _span_rows(spans, "walk")
    n_seg = len(spans)
    out = np.array(states, dtype=np.int64).reshape(-1)
    if out.size != n_seg:
        raise ValueError(f"{n_seg} spans but {out.size} start states")
    # the tail pass's start positions and pending span ids
    scratch = np.empty((2, max(n_seg, 1)), dtype=np.int64)
    at = rows.ctypes.data
    rc = int(lib.cse_native_walks(
        table, kind, dfa.num_states, dfa.alphabet_size,
        at, at + 8 * n_seg, at + 16 * n_seg, n_seg,
        _ptr(out), _ptr(scratch[0]), _ptr(scratch[1]),
    ))
    if rc != _WALK_DONE:
        _refuse(dfa, spans, [int(q) for q in states], rc)
    return out


def native_prefilter(
    dfa: Dfa,
    prefilter: "PrefilterTables",
    segments: Sequence[np.ndarray],
    starts: Sequence[int],
    tables: Optional[DenseTables] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The literal prefilter over a batch of segments in one C call.

    ``starts[i]`` is segment ``i``'s start state, or ``-1`` for an
    enumerative segment.  Returns ``(final, walk_from)``, two int64
    arrays: ``walk_from[i]`` is where the tail walk from ``prefilter.home``
    began after the segment's last ``skip_width`` run of non-anchor
    symbols (``-1`` when no run qualifies), and ``final[i]`` the segment's
    final state (``-1`` for an enumerative segment with no qualifying
    run, whose frontier the caller runs).  Segments are read at their own
    width, uint8 or int64, with no copy.

    ``None`` means the library is absent or a symbol or table dtype has
    no C kind: the interpreted prefilter is the answer there.  A symbol
    or start state the C call refuses raises the input contract's
    :class:`repro.ingest.InputError`.
    """
    lib = load_native()
    if lib is None:
        return None
    tables = tables if tables is not None else DenseTables(dfa)
    resolved = _table_args(dfa, tables)
    seg_args = _spans(segments)
    if (
        resolved is None or seg_args is None
        or prefilter.anchor_lut.shape != (dfa.alphabet_size,)
    ):
        return None
    table, kind = resolved
    args, _keep = seg_args
    n_seg = len(segments)
    if len(starts) != n_seg:
        return None
    # one array for the call: the spans' three rows, the start states
    # (the C side range-checks them, and home and skip_width), then the
    # final states and walk starts it writes
    io = np.array([*args, *starts, *[0] * (2 * n_seg)], dtype=np.int64)
    at, row = io.ctypes.data, 8 * n_seg
    rc = int(lib.cse_native_prefilter(
        table, kind, dfa.num_states, dfa.alphabet_size,
        _lut_args(prefilter), prefilter.home, prefilter.skip_width,
        at, at + row, at + 2 * row, n_seg,
        at + 3 * row, at + 4 * row, at + 5 * row,
    ))
    if rc != _WALK_DONE:
        _refuse(dfa, segments, [s for s in starts if s != -1], rc)
    return io[4 * n_seg:5 * n_seg], io[5 * n_seg:]


class Lanes:
    """Independent walks for :func:`native_lanes`, one per symbol span.

    ``pos[i]`` is lane ``i``'s next position and ``state[i]`` its row
    offset there (row id times the alphabet size, int64);
    :func:`native_lanes` advances both in place, so a lane paused on a
    row not built yet resumes where it stopped.  The spans must be
    admitted input (uint8 or int64, one dimension); they are kept alive
    here because the C side reads them through raw addresses, and range
    checked by the first call only (``checked``), since a growing scan
    resumes once per row it builds.
    """

    def __init__(self, spans: Sequence[np.ndarray], state: int) -> None:
        # each lane's address, length and symbol kind, as the C call
        # reads them
        self._args, self._keep = _span_rows(spans, "lane")
        self.spans = spans
        self.lens = self._args[1]
        n = len(spans)
        self.pos = np.zeros(n, dtype=np.int64)
        self.state = np.full(n, state, dtype=np.int64)
        self._order = np.empty(max(n, 1), dtype=np.int64)
        self.checked = False

    def paused(self) -> np.ndarray:
        """Ids of the lanes that have not read their whole span."""
        return np.flatnonzero(self.pos < self.lens)


def native_lanes(table: np.ndarray, lanes: Lanes) -> int:
    """One ``cse_native_lanes`` call: advance every lane over ``table``.

    ``table`` is a C-contiguous int32 ``(rows, alphabet)`` array whose
    entry ``[r, c]`` is the row offset (``r2 * alphabet``) of the row
    after symbol ``c`` from row ``r``; a negative entry is a row not built
    yet.  Row offsets keep a multiply off each lane's chain of dependent
    loads.  Lanes are walked eight at a time, round robin, and a lane
    that reads a negative entry pauses on that symbol.  Returns the
    number of paused lanes (0 when every lane read its whole span).  A
    symbol outside ``[0, alphabet)`` raises
    :class:`repro.ingest.InputError`; a row offset outside the table
    raises ``RuntimeError``.  Requires the native library.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    if table.dtype != np.int32 or table.ndim != 2 \
            or not table.flags.c_contiguous:
        raise ValueError("lane table must be a C-contiguous 2-D int32 array")
    rows, alphabet = table.shape
    at, n = lanes._args.ctypes.data, len(lanes.spans)
    rc = int(lib.cse_native_lanes(
        _ptr(table), rows, alphabet,
        at, at + 8 * n, at + 16 * n,
        n, int(not lanes.checked), _ptr(lanes.pos),
        _ptr(lanes.state), _ptr(lanes._order),
    ))
    if rc == _WALK_BAD_SYMBOL:
        for span in lanes.spans:
            admit(span, alphabet)
    if rc < 0:
        raise RuntimeError(f"native lane walk refused its table (rc {rc})")
    lanes.checked = True
    return rc


def _refuse(
    dfa: Dfa, segments: Sequence[np.ndarray], states: Sequence[int], rc: int
) -> NoReturn:
    """Raise :func:`repro.ingest.admit`'s error for a refused C call."""
    for seg in segments:
        admit(seg, dfa.alphabet_size)
    for state in states:
        admit(b"", dfa.alphabet_size, int(state), dfa.num_states)
    raise RuntimeError(f"native call refused admitted input (rc {rc})")


def _walk_list(
    dfa: Dfa,
    syms: np.ndarray,
    state: int,
    rows: Optional[List[List[int]]],
    reports: bool,
) -> Tuple[int, List[Report]]:
    """The interpreted walk (``scan_sequential``'s list loop)."""
    table = rows if rows is not None else dfa.transitions.tolist()
    seq = syms.tolist()
    if not reports:
        for sym in seq:
            state = table[sym][state]
        return int(state), []
    accepting = dfa.accepting_mask.tolist()
    out: List[Report] = []
    for i, sym in enumerate(seq):
        state = table[sym][state]
        if accepting[state]:
            out.append((i, state))
    return int(state), out


def _frontier_scratch(
    width: int, n_states: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The C core's live-frontier scratch, ``(lanes, stamp)``.

    ``lanes`` rows hold the distinct live states, each lane's slot among
    them and the collapse check's slot remap; ``stamp`` has one entry per
    state and must be all -1 (the core leaves it so after every check).
    """
    lanes = np.empty((3, max(width, 1)), dtype=np.int64)
    stamp = np.full(max(n_states, 1), -1, dtype=np.int64)
    return lanes, stamp


def run_segments_native(
    dfa: Dfa,
    partition: StatePartition,
    segments: Sequence[np.ndarray],
    tables: Optional[DenseTables] = None,
    stride: Optional[int] = None,
) -> Tuple[List[List[CsOutcome]], Dict[str, int]]:
    """Execute every segment's enumeration frontier in one compiled call.

    Returns ``(grid, stats)``: ``grid[seg][block]`` is the
    :class:`CsOutcome` of convergence set ``block`` in segment ``seg``,
    bit-identical to the interpreted set-flow loop
    (:func:`repro.kernels.setflow.setflows`), and ``stats`` carries the
    native tier's own telemetry (``native_positions``, ``frontier_steps``,
    ``stride_checks``, ``degraded_segments``, ``scalar_positions``,
    ``collapses``).  ``stride`` pins the gap between collapse checks;
    ``None`` adapts it.  Segments are admitted input, read at their own
    width as uint8 or int64 arrays (what :func:`repro.ingest.admit`
    returns; an :class:`repro.ingest.InputView` reads as uint8).
    ``tables`` not of this machine, or a segment that is not admitted
    input, raise ``ValueError``; a symbol outside ``[0, alphabet)``
    raises :class:`repro.ingest.InputError`.  Requires the native
    library.
    """
    lib = load_native()
    if lib is None:
        raise RuntimeError(
            f"native tier unavailable: {native_unavailable_reason()}"
        )
    if stride is not None and int(stride) < 1:
        raise ValueError("stride must be >= 1")
    tables = tables or DenseTables(dfa)
    resolved = _table_args(dfa, tables)
    if resolved is None:
        raise ValueError("the frontier needs dense tables of this machine")
    n_seg = len(segments)
    if n_seg == 0:
        return [], {
            "positions": 0, "native_positions": 0, "stride_checks": 0,
            "degraded_segments": 0, "scalar_positions": 0,
            "frontier_steps": 0, "collapses": 0,
        }
    table, kind = resolved
    rows, _keep = _span_rows(segments, "frontier")
    n_states = dfa.num_states
    layout = partition.frontier_layout()
    n_blocks = int(layout.sizes.size)
    width = int(layout.perm.size)

    final_out = np.empty((n_seg, max(width, 1)), dtype=np.int64)
    collapsed_out = np.empty(n_seg, dtype=np.int64)
    stats_out = np.zeros(_STAT_SLOTS, dtype=np.int64)
    lanes, stamp = _frontier_scratch(width, n_states)
    seen_scratch = np.empty(max(n_blocks, 1), dtype=np.uint8)
    # the tail pass's scratch: each collapsed segment's tail start, and
    # the pending segment ids (uint8 ones from the front, int64 from the
    # back)
    tails = np.empty((2, n_seg), dtype=np.int64)
    at = rows.ctypes.data
    rc = int(lib.cse_native_scan(
        table, kind, n_states, dfa.alphabet_size,
        at, at + 8 * n_seg, at + 16 * n_seg, n_seg,
        _ptr(layout.perm), width,
        _ptr(layout.starts), _ptr(layout.sizes),
        n_blocks, 0 if stride is None else int(stride),
        _ptr(final_out), _ptr(collapsed_out), _ptr(stats_out),
        _ptr(lanes[0]), _ptr(lanes[1]), _ptr(lanes[2]),
        _ptr(stamp), _ptr(seen_scratch), _ptr(tails[0]), _ptr(tails[1]),
    ))
    if rc == _WALK_BAD_SYMBOL:
        _refuse(dfa, segments, [], rc)
    if rc != _WALK_DONE:
        raise RuntimeError(
            f"native scan rejected the table (kind {kind}, rc {rc})"
        )

    # outcomes derive from the final frontier (or the collapsed scalar),
    # so stride placement and the C realization cannot change them
    starts = layout.starts.tolist()
    ends = layout.ends.tolist()
    multi = [size > 1 for size in layout.sizes.tolist()]
    n_collapsed = 0
    grid: List[List[CsOutcome]] = []
    for seg_i in range(n_seg):
        scalar = int(collapsed_out[seg_i])
        if scalar >= 0:
            states = np.asarray([scalar], dtype=np.int64)
            grid.append([CsOutcome(True, scalar, states)] * n_blocks)
            n_collapsed += layout.multi
            continue
        fr = final_out[seg_i]
        outcomes: List[CsOutcome] = []
        for b in range(n_blocks):
            uniq = np.unique(fr[starts[b]:ends[b]])
            if uniq.size == 1:
                outcomes.append(CsOutcome(True, int(uniq[0]), uniq))
                n_collapsed += multi[b]
            else:
                outcomes.append(CsOutcome(False, None, uniq))
        grid.append(outcomes)

    stats = {
        "positions": int(rows[1].max()),
        "native_positions": int(stats_out[_STAT_NATIVE_POSITIONS]),
        "stride_checks": int(stats_out[_STAT_STRIDE_CHECKS]),
        "degraded_segments": int(stats_out[_STAT_DEGRADED]),
        "scalar_positions": int(stats_out[_STAT_SCALAR_POSITIONS]),
        "frontier_steps": int(stats_out[_STAT_FRONTIER_STEPS]),
        "collapses": n_collapsed,
    }
    return grid, stats


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.kernels.native [--rebuild]``: build + report."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="build/inspect the optional native set-flow library"
    )
    parser.add_argument(
        "--rebuild", action="store_true",
        help="force a fresh compile into the cache directory",
    )
    args = parser.parse_args(argv)
    if args.rebuild:
        try:
            path = build_native()
            print(f"built {path}", file=sys.stderr)
            reset_native()
        except NativeBuildError as exc:
            print(f"build failed: {exc}", file=sys.stderr)
    print(json.dumps(native_build_info(), indent=2, sort_keys=True))
    return 0 if native_available() else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(_main())
