"""Boolean functions as packed truth tables, Walsh analysis, affinity tests.

A function on m variables is a 2^m-bit int; bit at index int(x) is f(x).
For f(x, y) on Z2^n x Z2^n the table index is int(x) + 2^n * int(y), so x
occupies the low bits and each y-slice is a contiguous 2^n-bit block.

Many functions at once are one uint8 array of packed rows, bit x of a row
at byte x // 8, bit x % 8 (np.packbits(TruthTable.to_u8(), bitorder=
"little")); hex_rows formats each row as TruthTable.to_hex does.  Walsh
spectra of many rows come from one batched transform (walsh_rows), in
int16 while 2^m <= 2^14 and int32 above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .gf2 import AffineSubspace, Gf2Matrix, dot

MAX_VARS = 16


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on 2^m points, packed into an int."""

    m: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 < self.m <= MAX_VARS:
            raise ValueError(f"m must be in 1..{MAX_VARS}")
        if not 0 <= self.bits < (1 << (1 << self.m)):
            raise ValueError("truth table bits out of range")

    @classmethod
    def from_values(cls, values: Iterable[int], m: int) -> "TruthTable":
        bits = 0
        for x, v in enumerate(values):
            if v & 1:
                bits |= 1 << x
        return cls(m, bits)

    @classmethod
    def zero(cls, m: int) -> "TruthTable":
        return cls(m, 0)

    @classmethod
    def from_hex(cls, s: str, m: int) -> "TruthTable":
        digits = (1 << m) // 4 if m >= 2 else 1
        s = s.strip().lower()
        if len(s) != digits:
            raise ValueError(f"expected {digits} hex digits for m={m}, got {len(s)}")
        return cls(m, int(s, 16))

    def to_hex(self) -> str:
        """Lowercase hex, most significant digit carries the highest indices."""
        digits = (1 << self.m) // 4 if self.m >= 2 else 1
        return format(self.bits, f"0{digits}x")

    @property
    def size(self) -> int:
        return 1 << self.m

    def value(self, x: int) -> int:
        return (self.bits >> x) & 1

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.m != other.m:
            raise ValueError("size mismatch")
        return TruthTable(self.m, self.bits ^ other.bits)

    def to_u8(self) -> np.ndarray:
        """Values as a uint8 array of length 2^m."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size]

    @classmethod
    def from_u8(cls, arr: np.ndarray, m: int) -> "TruthTable":
        packed = np.packbits(arr.astype(np.uint8) & 1, bitorder="little")
        return cls(m, int.from_bytes(packed.tobytes(), "little"))


def hex_rows(packed: np.ndarray, m: int) -> list[str]:
    """TruthTable.to_hex of every row of a (rows, bytes) array of packed
    m-variable tables, formatted in one pass over the whole array."""
    digits = (1 << m) // 4 if m >= 2 else 1
    width = 2 * packed.shape[1]
    text = np.ascontiguousarray(packed[:, ::-1]).tobytes().hex()
    return [text[i - digits : i] for i in range(width, len(text) + 1, width)]


@dataclass(frozen=True)
class AffineFit:
    """Witness that f equals <linear_part, x> xor constant on the domain."""

    linear_part: int
    constant: int
    domain: Optional[AffineSubspace] = None

    def evaluate(self, x: int) -> int:
        return dot(self.linear_part, x) ^ self.constant


def walsh_rows(values: np.ndarray) -> np.ndarray:
    """Walsh spectra of every row of a (rows, 2^m) array of 0/1 values.

    One fast Walsh-Hadamard transform over all rows at once, O(rows m 2^m);
    row r of the result is W_r(u) = sum_x (-1)^(values[r, x] xor <u,x>).
    Each butterfly pass transforms the top index bit and rotates it to the
    bottom, so after m passes every bit is done and back in place.  Every
    partial sum is bounded by 2^m, so the result is int16 up to m = 14 and
    int32 above: exact either way, at half the memory traffic for m <= 14.
    """
    rows, size = values.shape
    if size < 2 or size & (size - 1):
        raise ValueError("row length must be 2^m with m >= 1")
    w = 1 - 2 * values.astype(np.int16 if size <= 1 << 14 else np.int32)
    half = size // 2
    for _ in range(size.bit_length() - 1):
        top, bottom = w[:, :half], w[:, half:]
        w = np.stack((top + bottom, top - bottom), axis=-1).reshape(rows, size)
    return w


def bent_rows(values: np.ndarray) -> np.ndarray:
    """Per row of a (rows, 2^m) 0/1 array: every |W(u)| equals 2^(m/2)."""
    m = values.shape[1].bit_length() - 1
    if m % 2:
        raise ValueError("bentness requires an even number of variables")
    return (np.abs(walsh_rows(values)) == 1 << (m // 2)).all(axis=1)


def is_bent(f: TruthTable) -> bool:
    """True iff every Walsh coefficient has absolute value 2^(m/2)."""
    return bool(bent_rows(f.to_u8()[None, :])[0])


def is_affine_on(f: TruthTable, U: AffineSubspace) -> Optional[AffineFit]:
    """Fit an affine function to f on U and verify it on every point."""
    if U.ambient != f.m:
        raise ValueError("subspace does not live in the function domain")
    b = U.base
    fb = f.value(b)
    a = 0
    for v in U.direction.basis:
        if f.value(b ^ v) ^ fb:
            a |= v & -v  # support the fit on the pivot coordinate
    c = fb ^ dot(a, b)
    for x in U.points():
        if f.value(x) != dot(a, x) ^ c:
            return None
    return AffineFit(a, c, U)


def ea_transform(
    f: TruthTable,
    A: Gf2Matrix,
    a: int = 0,
    h: Optional[AffineFit] = None,
) -> TruthTable:
    """Extended-affine image g(x) = f(xA xor a) xor h(x)."""
    m = f.m
    if A.width != m or A.row_count != m:
        raise ValueError("matrix shape mismatch")
    if not A.is_invertible():
        raise ValueError("singular matrix")
    size = 1 << m
    imgs = np.zeros(size, dtype=np.uint32)
    for j in range(m):
        half = 1 << j
        imgs[half : 2 * half] = imgs[:half] ^ np.uint32(A.rows[j])
    idx = imgs ^ np.uint32(a)
    vals = f.to_u8()[idx]
    if h is not None:
        x = np.arange(size, dtype=np.uint32)
        hv = (np.bitwise_count(x & np.uint32(h.linear_part)) & 1).astype(np.uint8)
        vals = vals ^ hv ^ np.uint8(h.constant)
    return TruthTable.from_u8(vals, m)


def all_affine_patterns(k: int) -> frozenset[int]:
    """Truth-table patterns of every affine function on k variables."""
    full = (1 << (1 << k)) - 1
    patterns = set()
    for a in range(1 << k):
        v = 0
        for x in range(1 << k):
            if dot(a, x):
                v |= 1 << x
        patterns.add(v)
        patterns.add(v ^ full)
    return frozenset(patterns)
