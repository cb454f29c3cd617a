"""``repro check`` — static soundness verification for CSE artifacts.

Two pillars (see ``docs/static_analysis.md`` for every diagnostic code):

- **Artifact verification** (:mod:`repro.check.artifact`,
  :mod:`repro.check.convergence`): a :class:`Dfa`, a convergence
  partition or a whole :class:`CompiledDfa` is checked against the
  invariants the paper's correctness rests on — the transition table is
  in-bounds, convergence sets partition the state space, the three
  kernel encodings are transition-equivalent, content addresses
  re-derive — and each convergence set is *exactly* certified as
  proven-convergent / proven-divergent / unknown by closing its
  set-automaton, cross-checked against the profiled census.
- **Repo lint** (:mod:`repro.check.lint`): AST rules for this
  codebase's real failure modes (dtype-less hot-path allocations,
  unguarded shared memory, stray multiprocessing, instrumentation
  bypasses, mutable defaults, overbroad excepts) with an inline
  ``# repro: noqa(CODE)`` suppression mechanism — plus the
  flow-sensitive families in :mod:`repro.check.flow`: a per-function
  CFG + worklist dataflow engine proving resource lifecycles (R2xx:
  SharedMemory close-and-unlink on every path, file/mmap handles,
  escaping buffer views, pool teardown) and numpy dtype/value-range
  safety (R3xx: narrow-integer overflow, out-of-range casts, hot-path
  upcasts, unguarded gathers) over the repo's own source.

Findings are :class:`~repro.check.diagnostics.Diagnostic` records
(severity, code, location) rendered as text, JSON, or SARIF
(:mod:`repro.check.sarif`); error severity is the CI gate
(``make check``).  Accepted findings live in a committed baseline
(:mod:`repro.check.baseline`); repeat runs replay unchanged files from
a content-hash cache (:mod:`repro.check.cache`).
"""

from repro.check.artifact import (
    verify_artifact_file,
    verify_compiled,
    verify_dfa,
    verify_native,
    verify_partition,
    verify_prefilter,
    verify_sfa,
    verify_shard,
)
from repro.check.convergence import (
    CONVERGENT,
    DIVERGENT,
    UNKNOWN,
    CsCertificate,
    certify_partition,
    certify_set,
)
from repro.check.diagnostics import (
    CODES,
    Diagnostic,
    count_by_severity,
    has_errors,
    render_json,
    render_text,
)
from repro.check.baseline import apply_baseline, load_baseline, write_baseline
from repro.check.cache import cached_lint_paths
from repro.check.lint import (
    RULES,
    LintRule,
    default_rules,
    lint_paths,
    lint_source,
)
from repro.check.sarif import render_sarif

__all__ = [
    "CODES",
    "Diagnostic",
    "count_by_severity",
    "has_errors",
    "render_json",
    "render_text",
    "verify_dfa",
    "verify_partition",
    "verify_compiled",
    "verify_artifact_file",
    "verify_native",
    "verify_prefilter",
    "verify_sfa",
    "verify_shard",
    "CONVERGENT",
    "DIVERGENT",
    "UNKNOWN",
    "CsCertificate",
    "certify_set",
    "certify_partition",
    "RULES",
    "LintRule",
    "default_rules",
    "lint_source",
    "lint_paths",
    "cached_lint_paths",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "render_sarif",
]
