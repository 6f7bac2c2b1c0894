"""Columnar, bytes-backed bin layout (the vectorized hot-path unit).

A :class:`PackedBin` is one Theorem-4.1 bin flattened into contiguous
per-column byte arrays: for each storage column (filter ciphertexts,
DET payload, index key) all |b| cells are concatenated into a single
``bytes`` blob at a fixed per-column width.  The enclave hot path then
runs verify→filter→decrypt→aggregate as whole-bin batched kernel calls
(``decrypt_many``, ``batch_chain_extend``, ``numpy`` tag compare) with
no per-row Python objects in the loop.

Rows inside a packed bin sit in *canonical slot order* — for each
cell-id of the bin, counters ``1..c_tuple[cid]``, then the bin's fake
ids ascending.  That is exactly the order the scalar trapdoor fetch
returns, so ``unpack()`` reproduces the fetched row list byte-for-byte
and packed answers are byte-identical to scalar answers.

Every cell in a column has the same width (the schema pads plaintexts
and fakes are sized to match), so a bin's packed size is a public
function of |b| and the column widths — shipping and caching bins in
packed form leaks nothing beyond the row count the fixed-size argument
already makes public.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.storage.table import Row

_MAGIC = b"PBIN1"
_HEADER = struct.Struct("<5sIII")


@dataclass(frozen=True)
class PackedBin:
    """One bin as contiguous per-column ciphertext arrays."""

    bin_index: int
    row_count: int
    column_widths: tuple[int, ...]
    columns: tuple[bytes, ...]
    row_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.column_widths):
            raise ValueError("column/width arity mismatch")
        if len(self.row_ids) != self.row_count:
            raise ValueError("row-id/row-count mismatch")
        for width, blob in zip(self.column_widths, self.columns):
            if len(blob) != width * self.row_count:
                raise ValueError(
                    f"column blob is {len(blob)} bytes, "
                    f"want {width}*{self.row_count}"
                )

    def __len__(self) -> int:
        return self.row_count

    @property
    def nbytes(self) -> int:
        """Actual enclave-resident size: column blobs + 8B per row id."""
        return sum(len(blob) for blob in self.columns) + 8 * self.row_count

    # --------------------------------------------------------------- packing

    @classmethod
    def pack(cls, bin_index: int, rows: Sequence[Row]) -> "PackedBin":
        """Pack storage rows (canonical slot order) into columnar form.

        Raises ``ValueError`` when the rows are ragged (unequal column
        counts or widths) — callers treat that as "this bin cannot be
        packed" and stay on the scalar path.
        """
        if not rows:
            raise ValueError("cannot pack an empty bin")
        first = rows[0].columns
        widths = tuple(len(cell) for cell in first)
        for row in rows:
            if len(row.columns) != len(widths):
                raise ValueError("ragged rows: unequal column counts")
            for cell, width in zip(row.columns, widths):
                if not isinstance(cell, (bytes, bytearray)) or len(cell) != width:
                    raise ValueError("ragged rows: unequal column widths")
        columns = tuple(
            b"".join(row.columns[position] for row in rows)
            for position in range(len(widths))
        )
        return cls(
            bin_index=bin_index,
            row_count=len(rows),
            column_widths=widths,
            columns=columns,
            row_ids=tuple(row.row_id for row in rows),
        )

    def unpack(self) -> list[Row]:
        """The rows the trapdoor fetch returns for this bin, byte-for-byte."""
        per_column = [self.column_cells(i) for i in range(len(self.columns))]
        return [
            Row(self.row_ids[j], tuple(cells[j] for cells in per_column))
            for j in range(self.row_count)
        ]

    # --------------------------------------------------------------- slicing

    def cell(self, row: int, column: int) -> bytes:
        width = self.column_widths[column]
        blob = self.columns[column]
        return blob[row * width : (row + 1) * width]

    def column_cells(self, column: int) -> list[bytes]:
        """All cells of one column as per-row ``bytes`` slices."""
        width = self.column_widths[column]
        blob = self.columns[column]
        return [blob[j * width : (j + 1) * width] for j in range(self.row_count)]

    # ----------------------------------------------------------- wire format

    def to_bytes(self) -> bytes:
        """Self-delimiting binary encoding (ships on the shard wire)."""
        parts = [
            _HEADER.pack(_MAGIC, self.bin_index, self.row_count, len(self.columns)),
            struct.pack(f"<{len(self.column_widths)}I", *self.column_widths),
            struct.pack(f"<{self.row_count}Q", *self.row_ids),
        ]
        parts.extend(self.columns)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedBin":
        try:
            magic, bin_index, row_count, column_count = _HEADER.unpack_from(blob, 0)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            offset = _HEADER.size
            widths = struct.unpack_from(f"<{column_count}I", blob, offset)
            offset += 4 * column_count
            row_ids = struct.unpack_from(f"<{row_count}Q", blob, offset)
            offset += 8 * row_count
            columns = []
            for width in widths:
                span = width * row_count
                columns.append(blob[offset : offset + span])
                offset += span
            if offset != len(blob):
                raise ValueError("trailing bytes after packed bin")
        except struct.error as error:
            raise ValueError(f"truncated packed bin: {error}") from error
        return cls(
            bin_index=bin_index,
            row_count=row_count,
            column_widths=tuple(widths),
            columns=tuple(columns),
            row_ids=tuple(row_ids),
        )

    def digest(self) -> bytes:
        """Content digest for replica anti-entropy comparison."""
        return hashlib.sha256(self.to_bytes()).digest()

    # ------------------------------------------------- fault-channel helpers
    # Used by the storage/replica tamper sites so the chaos corpora
    # exercise the packed read path with the same adversary the scalar
    # path faces.  All are length-preserving per cell (corruption) or
    # whole-row (drop/duplicate) — the shapes verification must catch.

    def with_corrupted_cell(
        self, row: int, column: int, corrupt: Callable[[bytes], bytes]
    ) -> "PackedBin":
        width = self.column_widths[column]
        blob = self.columns[column]
        start = row * width
        tampered = corrupt(blob[start : start + width])
        if len(tampered) != width:
            raise ValueError("cell corruption must preserve length")
        columns = list(self.columns)
        columns[column] = blob[:start] + tampered + blob[start + width :]
        return PackedBin(
            bin_index=self.bin_index,
            row_count=self.row_count,
            column_widths=self.column_widths,
            columns=tuple(columns),
            row_ids=self.row_ids,
        )

    def without_row(self, row: int) -> "PackedBin":
        columns = tuple(
            blob[: row * width] + blob[(row + 1) * width :]
            for width, blob in zip(self.column_widths, self.columns)
        )
        return PackedBin(
            bin_index=self.bin_index,
            row_count=self.row_count - 1,
            column_widths=self.column_widths,
            columns=columns,
            row_ids=self.row_ids[:row] + self.row_ids[row + 1 :],
        )

    def with_duplicated_row(self, row: int) -> "PackedBin":
        columns = tuple(
            blob + blob[row * width : (row + 1) * width]
            for width, blob in zip(self.column_widths, self.columns)
        )
        return PackedBin(
            bin_index=self.bin_index,
            row_count=self.row_count + 1,
            column_widths=self.column_widths,
            columns=columns,
            row_ids=self.row_ids + (self.row_ids[row],),
        )
