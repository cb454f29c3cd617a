"""Vectorized execution kernels for the software CSE path.

The interpreted reference path (:func:`repro.software.run_segment` with
``backend="python"``) pays Python bytecode per state transition; these
kernels pay it per *symbol position of the whole scan*:

- :mod:`repro.kernels.dense` — the dense-frontier kernel: all N states of
  every segment advance with exactly one flat gather per symbol position
  (dtype-narrowed table, strided collapse checks); the NumPy fallback
  whenever the compiled tier is not loadable.
- :mod:`repro.kernels.native` — the compiled set-flow tier: the dense
  kernel's whole frontier advanced over the whole symbol buffer in one C
  call (ctypes-loaded, zero runtime deps); strictly optional — every
  caller degrades to dense when no toolchain or prebuilt library exists.
  Its :func:`walk` runs a scan's concrete walks (segment 0,
  re-execution, stream reports) as one compiled table walk, falling back
  to the interpreted list walk with identical results.
- :mod:`repro.kernels.prefilter` — the literal-prefilter fast path:
  compile-time anchor/skip-width certification plus a scan kernel that
  finds the last proven reset run and walks only the tail after it,
  skipping the frontier entirely elsewhere — one compiled call per batch
  when the native library loads, an anchor sweep and interpreted tail
  otherwise.
- :mod:`repro.kernels.batch` — the orchestrator that runs every
  enumerative segment through one batched pass and the shared
  ``resolve_backend`` default-resolution helper.

The four backends are ``"python"`` (the interpreted oracle in
:mod:`repro.software`), ``"dense"``, ``"native"`` and ``"prefilter"``.
"""

from repro.kernels.batch import (
    BACKENDS,
    KERNEL_BACKENDS,
    resolve_backend,
    run_segments_batch,
)
from repro.kernels.dense import DenseTables, dense_state_dtype
from repro.kernels.native import (
    NativeBuildError,
    build_native,
    native_available,
    native_build_info,
    native_table_view,
    native_unavailable_reason,
    run_segments_native,
    walk,
)
from repro.kernels.prefilter import (
    PrefilterTables,
    certify_prefilter,
    derive_prefilter,
    prefilter_scan_scalar,
    prefilter_walk,
)

__all__ = [
    "BACKENDS",
    "KERNEL_BACKENDS",
    "DenseTables",
    "NativeBuildError",
    "PrefilterTables",
    "build_native",
    "certify_prefilter",
    "dense_state_dtype",
    "derive_prefilter",
    "native_available",
    "native_build_info",
    "native_table_view",
    "native_unavailable_reason",
    "prefilter_scan_scalar",
    "prefilter_walk",
    "resolve_backend",
    "run_segments_batch",
    "run_segments_native",
    "walk",
]
