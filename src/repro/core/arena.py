"""Zero-copy mmap arena: the on-disk statistics format.

Rebuilding a full ``PiecewiseLinear`` object graph on load would be
O(store) work before the first bound can be served, duplicated in full by
every process that loads it.  The arena instead stores the statistics as
raw little-endian buffers laid out for ``np.memmap``:

* one ragged structure-of-arrays family per array kind — all piecewise
  functions of the store concatenated into a single ``(xs, ys, offsets)``
  triple (exactly the layout ``core.arraykernel.Ragged`` consumes), all
  Bloom bitsets packed into one ``(bits, offsets)`` pair, all histogram
  boundary vectors into one ``(vals, offsets)`` pair;
* a JSON manifest of integer slice indices describing the nesting
  structure (relations -> join columns -> filter families).

Loading is O(manifest): map the file, parse the header, and hand out
*views*.  :meth:`StatsArena.pl` builds a ``PiecewiseLinear`` whose
``xs``/``ys`` are read-only slices of the mapped buffers (no copy, no
re-validation — the arrays were validated when the stats were built), and
:meth:`StatsArena.gather` turns a batch of slice indices into a
``Ragged`` with one vectorized gather.  Because the mapping is opened
read-only, nothing can ever write through it: every mutation path
(``apply_insert`` padding, recompression) materializes fresh arrays —
copy-on-write at the Python level, enforced by the OS at the page level.
Opening a file checks that its header parses and that every array it
declares lies inside the file, so a truncated arena fails with a
``ValueError`` at open rather than with an index error at serving time.

File layout::

    bytes 0..7    magic  b"SBARENA1"
    bytes 8..15   header length (uint64 LE)
    bytes 16..    JSON header {"manifest": ..., "arrays": {name: spec}}
    ...padding to a 64-byte boundary...
    data section  each array at a 64-byte-aligned offset (relative to
                  the section start), raw little-endian bytes
"""

from __future__ import annotations

import json
import os

import numpy as np

from .arraykernel import Ragged, _gather_segments
from .bloom import BloomFilter
from .piecewise import PiecewiseLinear

__all__ = [
    "ARENA_MAGIC",
    "StatsArena",
    "ArenaBloomFilter",
    "pl_view",
    "write_arena",
]

ARENA_MAGIC = b"SBARENA1"
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pl_view(xs: np.ndarray, ys: np.ndarray, slice_ref=None) -> PiecewiseLinear:
    """A ``PiecewiseLinear`` over pre-validated arrays, without copying or
    re-running constructor normalisation (the arrays come straight out of
    a store that only ever holds validated functions).  ``slice_ref`` tags
    the instance with its ``(arena, index)`` origin so the array kernel
    can batch whole edge packs with one gather."""
    func = PiecewiseLinear.__new__(PiecewiseLinear)
    object.__setattr__(func, "xs", xs)
    object.__setattr__(func, "ys", ys)
    if slice_ref is not None:
        object.__setattr__(func, "_arena_slice", slice_ref)
    return func


class ArenaBloomFilter(BloomFilter):
    """A Bloom filter whose bitset stays packed in the arena until the
    first membership probe (then unpacks once, into private memory)."""

    def __init__(self, packed: np.ndarray, num_bits: int, num_hashes: int, num_items: int) -> None:
        self._packed = packed
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.num_items = num_items
        self._bits: np.ndarray | None = None

    @property
    def bits(self) -> np.ndarray:  # type: ignore[override]
        if self._bits is None:
            self._bits = np.unpackbits(self._packed)[: self.num_bits].astype(bool)
        return self._bits

    def add(self, value) -> None:
        raise TypeError("arena-backed Bloom filters are read-only")


def write_arena(path: str, manifest: dict, arrays: dict[str, np.ndarray]) -> int:
    """Write ``arrays`` plus the structural ``manifest`` in arena layout;
    returns the file size in bytes.  Arrays are written in little-endian
    byte order at 64-byte-aligned offsets so any platform can map them
    back as typed views."""
    specs: dict[str, dict] = {}
    offset = 0
    payloads: list[tuple[int, bytes]] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        le = array.astype(array.dtype.newbyteorder("<"), copy=False)
        data = le.tobytes()
        offset = _aligned(offset)
        specs[name] = {
            "offset": offset,
            "dtype": le.dtype.str,
            "count": int(array.size),
        }
        payloads.append((offset, data))
        offset += len(data)
    header = json.dumps({"manifest": manifest, "arrays": specs}).encode()
    data_start = _aligned(16 + len(header))
    total = data_start + offset
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(ARENA_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for rel_offset, data in payloads:
            fh.seek(data_start + rel_offset)
            fh.write(data)
        fh.truncate(total)
    os.replace(tmp, path)
    return total


class StatsArena:
    """A read-only mapping of one arena file.

    Holds the raw mmap plus typed views of every named array, and serves
    piecewise-function / Bloom / boundary slices by integer index.  All
    views share the single mapping — resident memory is file-backed pages
    the OS shares across every process that maps the same file.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.file_bytes = os.path.getsize(self.path)
        if self.file_bytes < 16:
            raise ValueError(f"{self.path!r} is not a stats arena (too short)")
        self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        raw = bytes(self._mm[: len(ARENA_MAGIC)])
        if raw != ARENA_MAGIC:
            raise ValueError(f"{self.path!r} is not a stats arena (bad magic)")
        header_len = int.from_bytes(bytes(self._mm[8:16]), "little")
        if header_len <= 0 or 16 + header_len > self.file_bytes:
            raise ValueError(f"{self.path!r} is truncated (header)")
        try:
            header = json.loads(bytes(self._mm[16 : 16 + header_len]).decode())
            self.manifest: dict = header["manifest"]
            specs = header["arrays"]
            data_start = _aligned(16 + header_len)
            self.arrays: dict[str, np.ndarray] = {}
            for name, spec in specs.items():
                dtype = np.dtype(spec["dtype"])
                lo = data_start + spec["offset"]
                hi = lo + spec["count"] * dtype.itemsize
                if hi > self.file_bytes:
                    raise ValueError(f"{self.path!r} is truncated ({name})")
                self.arrays[name] = self._mm[lo:hi].view(dtype)
            self._pl_ragged = Ragged(
                self.arrays["pl_xs"], self.arrays["pl_ys"], self.arrays["pl_offsets"]
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{self.path!r} has a malformed header ({exc!r})") from exc

    # ------------------------------------------------------------------
    @property
    def num_functions(self) -> int:
        return len(self.arrays["pl_offsets"]) - 1

    def pl(self, index: int) -> PiecewiseLinear:
        """Piecewise function ``index`` as a zero-copy view, tagged with
        its arena slice for batched gathers."""
        offsets = self.arrays["pl_offsets"]
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        return pl_view(
            self.arrays["pl_xs"][lo:hi],
            self.arrays["pl_ys"][lo:hi],
            (self, index),
        )

    def gather(self, indices: np.ndarray) -> Ragged:
        """A ``Ragged`` batch of the functions at ``indices`` built with
        one vectorized gather over the flat family buffers — the array
        kernel's edge packs never touch per-object fields."""
        return _gather_segments(self._pl_ragged, np.asarray(indices, dtype=np.int64))

    def bloom(self, spec: dict) -> ArenaBloomFilter:
        offsets = self.arrays["bloom_offsets"]
        index = spec["bits"]
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        return ArenaBloomFilter(
            self.arrays["bloom_bits"][lo:hi],
            spec["num_bits"],
            spec["num_hashes"],
            spec["num_items"],
        )

    def boundaries(self, index: int) -> np.ndarray:
        offsets = self.arrays["hb_offsets"]
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        return self.arrays["hb_vals"][lo:hi]
