"""On-disk artifact store: atomic writes, validated loads.

One artifact per file, named by its content-addressed key.  Writes go to
a temporary sibling and ``os.replace`` into place, so a reader never sees
a torn file and concurrent writers of the same key are harmless (last one
wins with identical content).  Loads re-validate the format version, the
key and the DFA fingerprint before the artifact is trusted — a stale or
foreign file is reported as :class:`ArtifactValidationError` and treated
by the cache as a miss, never served.

The payload is a pickle of plain fields (numpy arrays, partitions,
dataclasses); the format version guards against silent drift the same way
:mod:`repro.core.store` guards its JSON formats.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.compilecache.artifact import CompiledDfa
from repro.kernels.dense import dense_state_dtype
from repro.kernels.prefilter import derive_prefilter

__all__ = [
    "FORMAT_VERSION",
    "ArtifactValidationError",
    "artifact_path",
    "save_artifact",
    "load_artifact",
]

# version 2: the envelope records ``dense_dtype`` — the state dtype the
# dense-frontier kernel narrows to for this machine — so a loader can
# cross-check any stored DenseTables against the DFA's state count
# without unpickling them first
# version 3: the envelope records ``prefilter`` — the literal-skip
# certificate summary (home state, skip width, anchor count + digest), or
# ``None`` for uncertifiable machines — cross-checked on load against a
# fresh derivation from the stored transition table, so a stale or
# tampered certificate can never steer a scan into skipping live bytes
# version 4: the artifact drops ``flat_table`` and ``_bitset``, the tables
# of two retired kernels
FORMAT_VERSION = 4
_SUFFIX = ".cdfa"


class ArtifactValidationError(ValueError):
    """A stored artifact failed version/key/fingerprint validation."""


def artifact_path(cache_dir: Union[str, Path], key: str) -> Path:
    return Path(cache_dir) / f"{key}{_SUFFIX}"


def save_artifact(compiled: CompiledDfa, cache_dir: Union[str, Path]) -> Path:
    """Persist an artifact atomically; returns the final path."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = artifact_path(cache_dir, compiled.key)
    prefilter = compiled.prefilter_tables()
    payload = {
        "format_version": FORMAT_VERSION,
        "key": compiled.key,
        "fingerprint": compiled.fingerprint,
        "dense_dtype": str(dense_state_dtype(compiled.dfa.num_states)),
        "prefilter": None if prefilter is None else prefilter.summary(),
        "artifact": compiled,
    }
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{compiled.key[:16]}.", suffix=".tmp", dir=cache_dir
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_artifact(
    cache_dir: Union[str, Path],
    key: str,
    expected_fingerprint: Optional[Tuple] = None,
) -> Optional[CompiledDfa]:
    """Load and validate an artifact; ``None`` when the file is absent.

    Raises :class:`ArtifactValidationError` when a file exists but its
    version, key or fingerprint disagree with what the caller expects.
    """
    path = artifact_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as exc:
        raise ArtifactValidationError(f"unreadable artifact {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactValidationError(f"malformed artifact {path}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactValidationError(
            f"artifact {path} has format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if payload.get("key") != key:
        raise ArtifactValidationError(f"artifact {path} stored under a foreign key")
    compiled = payload.get("artifact")
    if not isinstance(compiled, CompiledDfa):
        raise ArtifactValidationError(f"artifact {path} payload is not a CompiledDfa")
    fingerprint = payload.get("fingerprint")
    # recompute from the loaded table (drop the memoized value that rode
    # along in the pickle) so corrupted content cannot self-certify
    compiled.dfa._fingerprint = None
    if fingerprint != compiled.dfa.fingerprint or fingerprint != compiled.fingerprint:
        raise ArtifactValidationError(f"artifact {path} content does not match its header")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise ArtifactValidationError(
            f"artifact {path} fingerprint does not match the requesting DFA"
        )
    expected_dtype = str(dense_state_dtype(compiled.dfa.num_states))
    if payload.get("dense_dtype") != expected_dtype:
        raise ArtifactValidationError(
            f"artifact {path} declares dense dtype "
            f"{payload.get('dense_dtype')!r} but the stored DFA narrows to "
            f"{expected_dtype!r}"
        )
    # the prefilter certificate decides which input bytes a scan may skip;
    # re-derive from the stored table and demand envelope agreement
    fresh = derive_prefilter(compiled.dfa)
    expected_summary = None if fresh is None else fresh.summary()
    if payload.get("prefilter") != expected_summary:
        raise ArtifactValidationError(
            f"artifact {path} declares prefilter certificate "
            f"{payload.get('prefilter')!r} but the stored table derives "
            f"{expected_summary!r}"
        )
    # checksums only prove the header matches the payload; a corrupted-
    # but-self-consistent pickle (table mutated, fingerprint re-derived)
    # still needs its structural invariants re-checked
    try:
        compiled.dfa.validate()
    except ValueError as exc:
        raise ArtifactValidationError(
            f"artifact {path} holds a structurally invalid DFA: {exc}"
        ) from exc
    from repro.check import has_errors, verify_partition

    partition_diags = verify_partition(
        compiled.partition, compiled.dfa.num_states
    )
    if has_errors(partition_diags):
        raise ArtifactValidationError(
            f"artifact {path} holds an unsound convergence partition: "
            + "; ".join(f"{d.code}: {d.message}" for d in partition_diags
                        if d.severity == "error")
        )
    return compiled
