"""Zero-copy ingestion: mmap-backed views through the whole scan stack.

``repro.ingest.open_input`` maps a file once and every consumer slices
the same pages: ``as_symbols`` widens without a ``bytes()`` round-trip,
the prefilter kernel scans the uint8 view directly, and a pooled scan
ships ``(path, offset, length)`` coordinates so workers mmap the file
themselves.  The contract under test is equivalence — an mmap view and
the equivalent ``bytes`` object must produce bit-identical scans on
every backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import as_symbols
from repro.core.partition import StatePartition
from repro.ingest import InputView, byte_view, from_bytes, open_input
from repro.regex.compile import compile_ruleset
from repro.software import segment_pool, software_cse_scan
from repro.workloads import generate_ruleset, literal_payload


@pytest.fixture(scope="module")
def patterns():
    return generate_ruleset("LiteralHeavy", 5, 23)


@pytest.fixture(scope="module")
def literal_dfa(patterns):
    return compile_ruleset(patterns)


@pytest.fixture
def payload_file(tmp_path, patterns):
    data = literal_payload(patterns, 16384, match_density=0.002, seed=41)
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path, data


class TestInputView:
    def test_open_input_maps_file(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            assert len(view) == len(data)
            assert bytes(view) == data
            assert view.path == str(path)
            assert view.offset == 0
            assert view.nbytes == len(data)

    def test_view8_is_zero_copy_uint8(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            arr = view.view8()
            assert arr.dtype == np.uint8
            assert not arr.flags.writeable
            assert arr.base is not None  # a view, not a copy
            assert bytes(arr[:64]) == data[:64]

    def test_coords_roundtrip(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            coords = view.coords()
            assert coords == (str(path), 0, len(data))

    def test_from_bytes_has_no_coords(self):
        view = from_bytes(b"abcdef")
        assert view.coords() is None
        assert bytes(view) == b"abcdef"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with open_input(path) as view:
            assert len(view) == 0
            assert not view
            assert bytes(view) == b""

    def test_getitem_slices(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            assert bytes(view[10:20]) == data[10:20]

    def test_find_single_byte(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            needle = data[100:101]
            assert view.find(needle) == data.find(needle)
            assert view.find(b"\x00" * 64) == data.find(b"\x00" * 64)

    def test_numpy_protocol(self, payload_file):
        path, data = payload_file
        with open_input(path) as view:
            arr = np.asarray(view)
            assert arr.dtype == np.uint8
            assert arr.size == len(data)


class TestByteView:
    def test_accepts_byte_likes(self):
        for source in (b"abc", bytearray(b"abc"), memoryview(b"abc"),
                       from_bytes(b"abc"),
                       np.frombuffer(b"abc", dtype=np.uint8)):
            arr = byte_view(source)
            assert arr is not None
            assert arr.dtype == np.uint8
            assert bytes(arr) == b"abc"

    def test_rejects_wide_symbols(self):
        assert byte_view(np.asarray([1, 2, 300], dtype=np.int64)) is None
        assert byte_view([1, 2, 3]) is None

    def test_as_symbols_on_view(self):
        view = from_bytes(bytes(range(8)))
        syms = as_symbols(view)
        assert syms.dtype == np.int64
        assert syms.tolist() == list(range(8))


class TestScanEquivalence:
    @pytest.mark.parametrize(
        "backend", ["python", "dense", "native", "prefilter", "auto"]
    )
    def test_mmap_equals_bytes(self, payload_file, literal_dfa, backend):
        path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        want = software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend=backend
        )
        with open_input(path) as view:
            got = software_cse_scan(
                literal_dfa, view, partition, n_segments=4, backend=backend
            )
        assert got.final_state == want.final_state
        assert got.backend == want.backend
        assert got.n_symbols == want.n_symbols

    @given(st.binary(min_size=0, max_size=400), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_bytes_vs_view(self, literal_dfa, data, n_segments):
        partition = StatePartition.trivial(literal_dfa.num_states)
        for backend in ("dense", "prefilter"):
            want = software_cse_scan(
                literal_dfa, data, partition,
                n_segments=n_segments, backend=backend,
            ).final_state
            got = software_cse_scan(
                literal_dfa, from_bytes(data), partition,
                n_segments=n_segments, backend=backend,
            ).final_state
            assert got == want


class TestPooledMmapDispatch:
    def test_workers_scan_by_coordinates(self, payload_file, literal_dfa):
        from repro import obs

        path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        want = software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend="dense"
        ).final_state
        with obs.using() as registry:
            with segment_pool(literal_dfa, max_workers=2) as pool:
                with open_input(path) as view:
                    run = software_cse_scan(
                        literal_dfa, view, partition, n_segments=4,
                        backend="dense", executor=pool,
                    )
            snapshot = registry.snapshot()
        assert run.final_state == want
        names = {m["name"]: m for m in snapshot["metrics"]}
        assert names["software_mmap_scans_total"]["value"] == 1
        assert names["software_mmap_bytes_total"]["value"] >= len(data)
        # no shm segment was populated: coordinates replaced the copy
        assert "software_shm_scans_total" not in names

    def test_pooled_without_coords_uses_shm(self, payload_file, literal_dfa):
        from repro import obs

        _path, data = payload_file
        partition = StatePartition.trivial(literal_dfa.num_states)
        with obs.using() as registry:
            with segment_pool(literal_dfa, max_workers=2) as pool:
                run = software_cse_scan(
                    literal_dfa, data, partition, n_segments=4,
                    backend="dense", executor=pool,
                )
            snapshot = registry.snapshot()
        names = {m["name"]: m for m in snapshot["metrics"]}
        assert "software_mmap_scans_total" not in names
        assert run.final_state == software_cse_scan(
            literal_dfa, data, partition, n_segments=4, backend="dense"
        ).final_state
