"""Zero-copy input ingestion and the one input contract.

The scan stack historically materialised input as ``bytes`` at every layer
(file -> ``read_bytes`` -> ``np.frombuffer`` copy -> per-segment pickled
slices).  This module provides the single entry point that removes those
copies:

- :func:`open_input` maps a file with ``mmap`` and wraps it in an
  :class:`InputView` whose ``view8()`` is a ``uint8`` ndarray aliasing the
  page cache — no read, no copy.
- :class:`InputView` implements ``__array__`` so :func:`as_symbols` (and
  any ``np.asarray`` call) sees the underlying buffer.
- ``coords()`` exposes ``(path, offset, length)`` of a mapped file so
  pool dispatch can ship mmap coordinates to ``segment_pool`` workers
  instead of pickling the payload.

:func:`admit` is the input contract every public scan entry point calls.

The view is read-only end to end (``ACCESS_READ`` + non-writeable ndarray);
kernels only ever index it.
"""

from __future__ import annotations

import mmap
import os
from typing import (
    IO, Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
    cast, overload,
)

import numpy as np

__all__ = [
    "InputError", "InputView", "Segments", "admit", "as_symbols",
    "from_bytes", "open_input",
]

BufferLike = Union[bytes, bytearray, memoryview, mmap.mmap]


class InputError(ValueError):
    """A symbol or start state outside the machine (see :func:`admit`)."""


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


_UINT8 = np.dtype(np.uint8)
_INT64 = np.dtype(np.int64)


def _array(data: object) -> np.ndarray:
    """Byte-like input as a zero-copy uint8 view, anything else as an array."""
    if isinstance(data, np.ndarray):
        return data
    if isinstance(data, str):
        data = data.encode("latin-1")
    if isinstance(data, InputView):
        return data.view8()
    if isinstance(data, (bytes, bytearray, memoryview, mmap.mmap)):
        return np.frombuffer(data, dtype=np.uint8)
    if hasattr(data, "__array__"):
        return np.asarray(data)
    return np.asarray(list(cast(Iterable[int], data)), dtype=np.int64)


class Segments(Sequence[np.ndarray]):
    """Admitted input cut at segment bounds: one buffer, many spans.

    ``buffer`` is what :func:`admit` returned (one dimension, uint8 or
    int64) and ``bounds`` are ``(start, stop)`` pairs inside it; item
    ``i`` is the zero-copy slice ``buffer[start:stop]``.  A scan cuts its
    admitted input this way once, and the batch it hands the kernels is
    neither re-admitted nor looked up segment by segment: the C entry
    points read every span from the buffer's base address plus the
    bounds (:mod:`repro.kernels.native`).
    """

    __slots__ = ("buffer", "bounds")

    def __init__(self, buffer: np.ndarray,
                 bounds: Sequence[Tuple[int, int]]) -> None:
        if buffer.ndim != 1 or buffer.dtype not in (_UINT8, _INT64):
            raise ValueError(f"segments cut admitted input, not "
                             f"{buffer.dtype} of {buffer.ndim} dimensions")
        self.buffer = np.ascontiguousarray(buffer, dtype=buffer.dtype)
        # a handful of pairs: plain ints check faster than arrays
        self.bounds = [(int(a), int(b)) for a, b in bounds]
        size = self.buffer.size
        if not all(0 <= a <= b <= size for a, b in self.bounds):
            raise ValueError("segment bounds outside the buffer")

    def __len__(self) -> int:
        return len(self.bounds)

    @overload
    def __getitem__(self, i: int) -> np.ndarray: ...

    @overload
    def __getitem__(self, i: slice) -> Sequence[np.ndarray]: ...

    def __getitem__(self, i: Union[int, slice]) -> Any:
        if isinstance(i, slice):
            return [self.buffer[a:b] for a, b in self.bounds[i]]
        a, b = self.bounds[i]
        return self.buffer[a:b]

    def __iter__(self) -> Iterator[np.ndarray]:
        for a, b in self.bounds:
            yield self.buffer[a:b]

    @property
    def lengths(self) -> List[int]:
        """Each segment's length."""
        return [b - a for a, b in self.bounds]


def as_symbols(data: object) -> np.ndarray:
    """Normalize an input string into a 1-D int64 symbol array, unchecked.

    Accepts ``bytes``, ``str`` (encoded latin-1), ``memoryview``/mmap-backed
    buffers, numpy arrays, array-likes implementing ``__array__`` (e.g.
    :class:`InputView`) and integer sequences; the widening to int64 is
    the only copy.
    """
    return _array(data).astype(np.int64, copy=False)


def admit(
    symbols: object,
    alphabet: int,
    state: Optional[int] = None,
    num_states: int = 0,
) -> np.ndarray:
    """The input contract: ``symbols`` as the array the kernels read.

    Byte-like input (``bytes``, ``bytearray``, ``memoryview``, ``mmap``,
    :class:`InputView`, a ``uint8`` ndarray) comes back as a zero-copy
    ``uint8`` view, anything else as ``int64``.  Raises
    :class:`InputError` naming the first symbol outside ``[0, alphabet)``
    and its position, or a given ``state`` outside ``[0, num_states)``.
    """
    syms = _array(symbols)
    byte = syms.dtype == _UINT8
    if not byte:
        syms = syms.astype(np.int64, copy=False)
    if syms.size and (not byte or alphabet < 256):
        # one pass either way: a negative int64 read as uint64 is huge
        wide = syms if byte else syms.view(np.uint64)
        if int(wide.max()) >= alphabet:
            pos = int(np.argmax(wide >= alphabet))
            sym = int(syms[pos])
            kind = "negative symbol" if sym < 0 else "symbol"
            raise InputError(
                f"{kind} {sym} at position {pos} outside [0, alphabet) "
                f"= [0, {alphabet})"
            )
    if state is not None and not 0 <= state < num_states:
        raise InputError(
            f"start state {state} outside [0, num_states) = [0, {num_states})"
        )
    return syms
