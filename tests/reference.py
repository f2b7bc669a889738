"""Reference definitions the tests check the package against.

The package computes Walsh spectra and neighbours in batched form
(walsh_rows, the packed rows of mmf.near_tables and oracle.near_brute),
and the subspace U of an (L, H) pair as the points with W.x = H(y); the
one-function definitions and the paper's embed_bits form of U here are
what those are checked against.  Nothing in the package or the benchmark
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfnear.boolfun import TruthTable, walsh_rows
from mfnear.gf2 import AffineSubspace


@dataclass(frozen=True)
class WalshSpectrum:
    """Integer spectrum W(u) = sum_x (-1)^(f(x) xor <u,x>)."""

    m: int
    values: tuple[int, ...]

    def __getitem__(self, u: int) -> int:
        return self.values[u]

    def parseval_holds(self) -> bool:
        return sum(w * w for w in self.values) == 1 << (2 * self.m)


def walsh_transform(f: TruthTable) -> WalshSpectrum:
    """Walsh spectrum of one function, through walsh_rows."""
    return WalshSpectrum(f.m, tuple(walsh_rows(f.to_u8()[None, :])[0].tolist()))


def hamming_distance(f: TruthTable, g: TruthTable) -> int:
    if f.m != g.m:
        raise ValueError("size mismatch")
    return (f.bits ^ g.bits).bit_count()


def xor_indicator(f: TruthTable, U: AffineSubspace) -> TruthTable:
    """f xor the characteristic function of U."""
    if U.ambient != f.m:
        raise ValueError("subspace does not live in the function domain")
    bits = f.bits
    for p in U.points():
        bits ^= 1 << p
    return TruthTable(f.m, bits)


def embed_bits(y: int, indices: tuple[int, ...]) -> int:
    """Place y's bits at the 1-based positions `indices`, zero elsewhere: the
    paper's embedding behind U = { (embed_bits(H(y), I) xor z, y) }."""
    x = 0
    for j, i in enumerate(indices):
        x |= ((y >> j) & 1) << (i - 1)
    return x


def row_tables(packed: np.ndarray, m: int) -> set[TruthTable]:
    """The m-variable functions of a (rows, bytes) array of packed rows."""
    return {TruthTable(m, int.from_bytes(row.tobytes(), "little")) for row in packed}
