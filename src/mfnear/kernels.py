"""The subspace scan kernel: is f affine on each coset of each k-dim subspace?

Inputs, shared by both entry points:

- f: uint8 array of length 2^m, the truth table (values 0/1).
- spans: uint16 (M, 2^k), the span points of each of M subspaces, column t
  the point with coordinates t in the subspace's basis (column 0 is 0).
- reps: uint16 (M, C), one representative per coset of each subspace,
  column 0 the subspace itself (rep 0).
- lut: uint8 table over the 2^(2^k) restriction patterns, 1 iff affine.

The restriction of f to the coset reps[i, j] ^ <spans[i]> is packed into a
pattern int whose bit t is f(reps[i, j] ^ spans[i, t]); lut[pattern] flags
whether that restriction is affine.  spans and reps come from
`scan.scan_arrays(m, k)`, lut from `scan.affine_lut(k)`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"  # the one implementation: numpy; run records report it


def _patterns(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """uint16 restriction patterns (M, C), built one span column at a time.

    The index and value buffers are reused across columns: a fresh index
    array per column costs more in page faults than the gather itself.
    """
    fw = f.astype(np.uint16)
    pat = np.zeros(reps.shape, dtype=np.uint16)
    idx = np.empty(reps.shape, dtype=np.intp)
    val = np.empty(reps.shape, dtype=np.uint16)
    for t in range(spans.shape[1]):
        np.bitwise_xor(reps, spans[:, t, None], out=idx)
        pat |= np.take(fw << t, idx, out=val)
    return pat


def coset_affine_bits(
    f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray
) -> np.ndarray:
    """uint8 (M, C): for each (subspace, coset), 1 iff f restricted there is affine."""
    return lut[_patterns(f, spans, reps)]


def coset_affine_all(
    f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray
) -> np.ndarray:
    """uint8 (M,): 1 iff f is affine on every coset of the subspace.

    Filters on the first coset (the subspace itself) before checking the
    survivors in full; most rows fail there for bent inputs.
    """
    out = lut[_patterns(f, spans, reps[:, :1])].reshape(-1)
    rows = np.flatnonzero(out)
    if rows.size:
        out[rows] = lut[_patterns(f, spans[rows], reps[rows])].all(axis=1)
    return out
