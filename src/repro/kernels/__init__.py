"""Execution kernels for the software CSE path.

The interpreted reference path (:func:`repro.software.run_segment` with
``backend="python"``) pays Python bytecode per state transition; the
kernels here pay it per scan:

- :mod:`repro.kernels.setflow` — the interpreted set-flow loop, the
  ``python`` backend's body and the frontier wherever the native library
  does not load;
- :mod:`repro.kernels.dense` — the dtype-narrowed transition table
  (:class:`DenseTables`) every compiled kernel reads;
- :mod:`repro.kernels.native` — the compiled set-flow tier: every
  segment's frontier of distinct live states advanced over the whole
  symbol buffer in one C call (ctypes-loaded, zero runtime deps);
  strictly optional — every caller degrades to the interpreted loop when
  no toolchain or prebuilt library exists.  Its :func:`walk` runs a
  scan's concrete walks (segment 0, re-execution, stream reports) as one
  compiled table walk, falling back to the interpreted list walk with
  identical results.
- :mod:`repro.kernels.prefilter` — the literal-prefilter fast path:
  compile-time anchor/skip-width certification plus a scan kernel that
  finds the last proven reset run and walks only the tail after it,
  skipping the frontier entirely elsewhere — one compiled call per batch
  when the native library loads, an anchor sweep and interpreted tail
  otherwise.
- :mod:`repro.kernels.batch` — the orchestrator that runs every
  enumerative segment through one batched pass and the shared
  ``resolve_backend`` default-resolution helper.

The three backends are ``"python"`` (the interpreted oracle),
``"native"`` and ``"prefilter"``.  ``"auto"`` resolves by one rule: a
literal-certified machine takes ``prefilter``, any other ``native`` when
the library loads and ``python`` when it does not.
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
