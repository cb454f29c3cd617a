"""Zero-copy input ingestion.

The scan stack historically materialised input as ``bytes`` at every layer
(file -> ``read_bytes`` -> ``np.frombuffer`` copy -> per-segment pickled
slices).  This module provides the single entry point that removes those
copies:

- :func:`open_input` maps a file with ``mmap`` and wraps it in an
  :class:`InputView` whose ``view8()`` is a ``uint8`` ndarray aliasing the
  page cache — no read, no copy.
- :class:`InputView` implements ``__array__`` so ``as_symbols`` (and any
  ``np.asarray`` call) sees the underlying buffer without this module being
  imported from the automata layer.
- ``coords()`` exposes ``(path, offset, length)`` of a mapped file so
  pool dispatch can ship mmap coordinates to ``segment_pool`` workers
  instead of pickling the payload.

The view is read-only end to end (``ACCESS_READ`` + non-writeable ndarray);
kernels only ever index it.
"""

from __future__ import annotations

import mmap
import os
from typing import IO, Any, Optional, Tuple, Union

import numpy as np

__all__ = ["InputView", "open_input", "from_bytes", "byte_view"]

BufferLike = Union[bytes, bytearray, memoryview, mmap.mmap]


class InputView:
    """A read-only window over input bytes, zero-copy where possible.

    Wraps either an ``mmap`` (file-backed, with ``path`` coordinates for
    worker re-attachment) or an in-memory buffer.  ``len(view)``, slicing,
    ``bytes(view)`` and ``np.asarray(view)`` all behave like the underlying
    byte string, so existing call sites accept it unchanged.
    """

    __slots__ = ("_buf", "_mmap", "_file", "_path", "_offset", "_length", "_arr")

    def __init__(
        self,
        buf: BufferLike,
        *,
        path: Optional[str] = None,
        offset: int = 0,
        length: Optional[int] = None,
        _mmap: Optional[mmap.mmap] = None,
        _file: Optional[IO[bytes]] = None,
    ) -> None:
        if length is None:
            length = len(buf) - offset
        if offset < 0 or length < 0 or offset + length > len(buf):
            raise ValueError(
                f"window [{offset}, {offset + length}) outside buffer of "
                f"{len(buf)} bytes"
            )
        self._buf = buf
        self._mmap = _mmap
        self._file = _file
        self._path = path
        self._offset = int(offset)
        self._length = int(length)
        self._arr: Optional[np.ndarray] = None

    # -- buffer protocol-ish surface -------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __bytes__(self) -> bytes:
        return bytes(self.view8())

    def __getitem__(self, item: Any) -> Any:
        return self.view8()[item]

    def __array__(self, dtype: Any = None, copy: Optional[bool] = None
                  ) -> np.ndarray:
        arr = self.view8()
        if dtype is not None and np.dtype(dtype) != arr.dtype:
            return arr.astype(dtype)
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = self._path if self._path is not None else type(self._buf).__name__
        return f"InputView({src!r}, offset={self._offset}, length={self._length})"

    # -- zero-copy accessors ---------------------------------------------
    def view8(self) -> np.ndarray:
        """``uint8`` ndarray aliasing the underlying buffer (no copy)."""
        if self._arr is None:
            arr = np.frombuffer(
                self._buf, dtype=np.uint8, count=self._length, offset=self._offset
            )
            arr.flags.writeable = False
            self._arr = arr
        return self._arr

    def symbols(self) -> np.ndarray:
        """``int64`` symbol array (one widening copy, only when asked for)."""
        return self.view8().astype(np.int64)

    def find(self, needle: bytes, start: int = 0, end: Optional[int] = None) -> int:
        """``bytes.find`` over the window."""
        view = self.view8()
        if end is None:
            end = view.size
        return _find(view, needle, start, end)

    def coords(self) -> Optional[Tuple[str, int, int]]:
        """``(path, offset, length)`` for mmap re-attachment, or ``None``.

        Only a view that owns a mapping has coordinates: an empty or
        unmappable file read into memory could not be mapped by a worker
        either, so it travels as pickled slices.
        """
        if self._mmap is None or self._path is None:
            return None
        return (self._path, self._offset, self._length)

    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def nbytes(self) -> int:
        return self._length

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Release the mapping (no-op for in-memory views)."""
        self._arr = None
        self._buf = b""
        self._length = 0
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # a live ndarray still aliases the pages; dropping our
                # reference lets the mapping unwind when the last view
                # is garbage-collected
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "InputView":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _find(view: np.ndarray, needle: bytes, start: int, end: int) -> int:
    """Substring search over a uint8 ndarray window.

    Single-byte needles use the vectorised compare (memchr-speed, zero
    copy); longer needles go through one ``bytes()`` of the window, which
    the scan kernels avoid by using the anchor-LUT sweep instead.
    """
    if len(needle) == 1:
        hits = np.flatnonzero(view[start:end] == needle[0])
        return int(hits[0]) + start if hits.size else -1
    idx = bytes(memoryview(view)[start:end]).find(needle)
    return idx if idx < 0 else idx + start


def open_input(path: Union[str, "os.PathLike[str]"]) -> InputView:
    """Map ``path`` read-only and return a zero-copy :class:`InputView`.

    Empty files cannot be mmapped; they degrade to an empty in-memory view
    (same ``path``, no :meth:`InputView.coords`) so callers never
    special-case them.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size == 0:
        return InputView(b"", path=str(path), offset=0, length=0)
    f = open(path, "rb")
    try:
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (ValueError, OSError):
        # degrade to an in-memory copy; the handle must not outlive the
        # attempt even when the read itself fails
        try:
            data = f.read()
        finally:
            f.close()
        return InputView(data, path=str(path), offset=0, length=len(data))
    except BaseException:
        f.close()
        raise
    return InputView(
        mapped, path=str(path), offset=0, length=size, _mmap=mapped, _file=f
    )


def from_bytes(data: Union[bytes, bytearray, memoryview]) -> InputView:
    """Wrap an in-memory buffer (no copy) in an :class:`InputView`."""
    return InputView(data)


def byte_view(symbols: object) -> Optional[np.ndarray]:
    """Best-effort zero-copy ``uint8`` view of ``symbols``.

    Returns ``None`` when the input is not byte-like (e.g. an ``int64``
    symbol array from a non-byte alphabet), in which case callers fall back
    to ``as_symbols``.
    """
    if isinstance(symbols, InputView):
        return symbols.view8()
    if isinstance(symbols, (bytes, bytearray, memoryview, mmap.mmap)):
        return np.frombuffer(symbols, dtype=np.uint8)
    if isinstance(symbols, np.ndarray) and symbols.dtype == np.uint8 and symbols.ndim == 1:
        return symbols
    return None
