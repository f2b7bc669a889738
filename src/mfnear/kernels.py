"""The coset scan: is f affine on each coset of each k-dim subspace?

`scan_arrays(m, k)` describes every k-dim linear subspace U of Z2^m, one row
per subspace in `gf2.linear_subspace_bases(m, k)` order (the order of
`gf2.enumerate_subspaces`), as two uint16 arrays:

- spans (M, 2^k), k <= 4: column t is the point sum of u_i over the bits i
  of t, for the subspace's basis u_0..u_(k-1) (column 0 is 0, column 2^i is
  u_i), so row i is `LinearSubspace(bases[i], m).points()`.
- reps (M, 2^(m-k)): the canonical coset representatives
  `gf2.coset_representatives(bases[i], m)`, column 0 the subspace itself
  (rep 0).

`coset_affine_hits(f, spans, reps)` is the one scan.  f is a uint8 array of
length 2^m, m <= 8, the truth table (values 0/1); the result is a 1-D int64
array of the flat row-major indices r * C + j, ascending, of the (subspace,
coset) cells where f restricted to the coset is affine.  `oracle.near_brute`
reads its (subspace, coset) pairs off these indices with one divmod.  At
(8, 4), about 1400 of the 3.2M cells of an MF function are hits.
`coset_affine_bits` is the dense form, uint8 (M, C) with 1 at the hits: a
zeroed grid with the hits scattered into it.  It stays because
`coset_affine_all`, its row reduction (1 iff f is affine on every coset of
the subspace, the |M(f)| scan of `oracle.m_subspaces`), and the tests read
the dense grid, and the benchmark's traced run wraps both names.  Before
any backend runs, the wrappers raise ValueError for shapes outside these
limits, f values other than 0 and 1 and points that are not integers, and
IndexError for an f whose size is not a power of two.  A point outside f
raises IndexError too: before the cast to uint16 if it has another dtype,
else in the backend.

The two backends find the same cells by two different affinity tests:

- compiled: the C source `_SOURCE` below, one entry called through ctypes
  and built at -O3, tests second derivatives.  f is affine on a k-flat
  x + U iff every ANF coefficient of degree >= 2 of t -> f(x + span point t)
  is 0.  The coefficients whose two lowest variables are i < j are, by a
  triangular change of basis, the second derivatives D_(u_i) D_(u_j) f at
  the points x + span point t for the t made of basis bits above j only:
  2^k - k - 1 of them (11 at k = 4, 4 at k = 3, 1 at k = 2, none at
  k <= 1), and none can be left out.  Once per call the kernel builds the
  translate table: row w is a 2^m-bit string whose bit x is f(x ^ w), 8 KB
  at m = 8.  Per subspace it reads the translate row T(t) of each span
  column t once and forms the first derivatives p_t = T(t) ^ T(t|1) for
  even t and q_t = T(t) ^ T(t|2) for t = 0, 4, 8, 12.  Each second
  derivative is the XOR of two of them (D_(u_0) D_(u_1) at t is
  p_t ^ p_(t|2)), or T(0) ^ T(4) ^ T(8) ^ T(12) for D_(u_2) D_(u_3), and C
  is the OR of all 11: bit x of C is 1 iff f is not affine on x + U.  The
  formula is written for 16 span columns, one body for every k <= 4: it
  reads column t mod 2^k, which is the span padded with zero directions
  u_i = 0, and every second derivative through a zero direction is
  T ^ T' ^ T ^ T' = 0, so a smaller k gets exactly its own conditions.  C
  is constant on each coset, so a coset is a hit iff C is 0 at its
  representative.  When C is 1 at every point of f the subspace has no
  affine coset, which holds for almost every row, and the row is skipped
  after its bounds check; the others append their hits in order.  A
  subspace costs 16 table reads and a few XORs instead of 2^k gathers per
  coset, and only the hits are written.  Every row, skipped or not, is
  bounds-checked by one OR of all of its span and representative points
  compared with 2^m: since the size of f is a power of two, that OR is
  below it iff every point is.  So a point outside f raises IndexError,
  also in a skipped row, as numpy would.  The hit buffer has one int64 per
  cell, so it cannot overflow, and only the pages the kernel writes become
  resident.
- python: `_numpy_bits` packs the restriction of f to each coset into a
  pattern whose bit t is f(rep ^ span point t) and looks it up in
  `affine_lut(k)`, the table of the 2^(k+1) affine patterns; the hits are
  the flat indices of its ones.  It is the fallback and the reference the
  tests compare the compiled kernel against.  It stays pattern-table based
  so that this comparison checks one affinity test against another, not
  one code path against a copy.

On import the module loads `__pycache__/_scan_kernel-<key>.so` next to this
file, where key is the sha256 of the C source and the compiler flags, so an
edit to either builds a new library.  If that file is missing it is built
with the system `cc` into a temporary file in the same directory and then
renamed into place, so concurrent builds are safe and a partial library is
never loaded.  When no `cc` is on PATH, the build fails, the directory
cannot be written or the library cannot be loaded, the module falls back to
numpy: `BACKEND` is then "python" and `FALLBACK_REASON` says why in one
line.  There is no switch; run records report both names.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from functools import lru_cache

import numpy as np

from .boolfun import _ip_blocks
from .gf2 import coset_representatives, linear_subspace_bases

MAX_LUT_K = 4  # largest k: affine_lut(4) has 2^16 entries; the C formula is written for 2^4 = 16 span columns


@lru_cache(maxsize=None)
def affine_lut(k: int) -> np.ndarray:
    """uint8 table over all 2^(2^k) restriction patterns: 1 iff affine.

    The affine patterns are the linear ones, boolfun._ip_blocks(k), and
    their complements."""
    if not 0 <= k <= MAX_LUT_K:
        raise ValueError(f"pattern table supports k <= {MAX_LUT_K}")
    lut = np.zeros(1 << (1 << k), dtype=np.uint8)
    linear = np.array(_ip_blocks(k))
    lut[linear] = lut[linear ^ (len(lut) - 1)] = 1
    return lut


@lru_cache(maxsize=None)
def scan_arrays(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(spans, reps) uint16 arrays for all k-dim linear subspaces of Z2^m,
    one row per subspace in linear_subspace_bases order."""
    bases = linear_subspace_bases(m, k)
    rows = len(bases)
    base_mat = np.array(bases, dtype=np.uint16).reshape(rows, k)
    spans = np.zeros((rows, 1 << k), dtype=np.uint16)
    for eps in range(1, 1 << k):
        low = eps & -eps
        spans[:, eps] = spans[:, eps ^ low] ^ base_mat[:, low.bit_length() - 1]

    # the representatives depend only on the pivot columns: one list per mask
    reps = np.zeros((rows, 1 << (m - k)), dtype=np.uint16)
    by_mask: dict[int, list[int]] = {}
    for i, basis in enumerate(bases):
        pm = 0
        for b in basis:
            pm |= b & -b
        by_mask.setdefault(pm, []).append(i)
    for idxs in by_mask.values():
        reps[idxs] = np.array(coset_representatives(bases[idxs[0]], m), dtype=np.uint16)
    return spans, reps


_SOURCE = r"""
#include <stdint.h>

/* Largest f: 2^8 points, so a translate row is 256 bits and a span at most
   16 points (k <= 4).  The wrapper rejects larger inputs before any call.
   A row is one GCC/Clang vector value, so each row XOR is a few SIMD
   operations: with four uint64_t words and a loop, gcc 12 -O3 on x86-64
   ran the (8, 4) scan about 1.5x slower. */
#define MAX_POINTS 256
typedef uint64_t row_t __attribute__((vector_size(32)));

/* For each row: c = OR of the 11 second derivatives D_(u_i) D_(u_j) f at
   x ^ span point t, t made of basis bits above j, so bit x of c is 1 iff f
   is not affine on x ^ <span>.  With T(t) the translate row of span column
   t, each one is the XOR of two shared first derivatives: p_t = T(t) ^
   T(t|1) for even t and q_t = T(t) ^ T(t|2) for t = 0, 4, 8, 12, so every
   span point is read once.  The formula is written for 16 columns; T reads
   column t mod s, which acts as a span padded with zero directions u_i = 0,
   and every derivative through a zero direction is 0: one body for every
   k <= 4.  A row whose c is 1 at every point of f has no affine coset and
   is skipped; otherwise hits gets r * nc + j for each coset j whose
   representative has c 0, in order.  Returns the number of hits, or -1 for
   a span or representative point outside f: every row checks all of its
   points, skipped or not, and nf is a power of two, so the OR of a row's
   points is < nf iff each of them is. */
long coset_affine_hits(const uint8_t *f, long nf, const uint16_t *spans, const uint16_t *reps,
                       long rows, long s, long nc, int64_t *hits)
{
    row_t tr[MAX_POINTS] = {{0}}; /* tr[w] bit x = f(x ^ w) */
    row_t full = {0};             /* bit x = 1 for every point x of f */
    long nh = 0;
    for (long w = 0; w < nf; w++)
        for (long x = 0; x < nf; x++)
            tr[w][x >> 6] |= (uint64_t)(f[x ^ w] & 1u) << (x & 63);
    for (long x = 0; x < nf; x++)
        full[x >> 6] |= (uint64_t)1 << (x & 63);
    for (long r = 0; r < rows; r++) {
        const uint16_t *span = spans + r * s, *rep = reps + r * nc;
        unsigned points = 0;
        for (long t = 0; t < s; t++)
            points |= span[t];
        for (long j = 0; j < nc; j++)
            points |= rep[j];
        if (points >= (unsigned long)nf)
            return -1;
#define T(t) tr[span[(t) & (s - 1)]]
        row_t t0 = T(0), t2 = T(2), t4 = T(4), t6 = T(6), t8 = T(8), t10 = T(10), t12 = T(12), t14 = T(14);
        row_t p0 = t0 ^ T(1), p2 = t2 ^ T(3), p4 = t4 ^ T(5), p6 = t6 ^ T(7);
        row_t p8 = t8 ^ T(9), p10 = t10 ^ T(11), p12 = t12 ^ T(13), p14 = t14 ^ T(15);
#undef T
        row_t q0 = t0 ^ t2, q4 = t4 ^ t6, q8 = t8 ^ t10, q12 = t12 ^ t14;
        row_t c = (p0 ^ p2) | (p4 ^ p6) | (p8 ^ p10) | (p12 ^ p14) | (p0 ^ p4) | (p8 ^ p12) | (p0 ^ p8)
                  | (q0 ^ q4) | (q8 ^ q12) | (q0 ^ q8) | (t0 ^ t4 ^ t8 ^ t12);
        row_t d = c ^ full;
        if (!(d[0] | d[1] | d[2] | d[3]))
            continue;
        for (long j = 0; j < nc; j++)
            if (!((c[rep[j] >> 6] >> (rep[j] & 63)) & 1u))
                hits[nh++] = r * nc + j;
    }
    return nh;
}
"""
_FLAGS = ("-O3", "-shared", "-fPIC")
_ARGTYPES = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
MAX_M = 8  # the C translate table holds 2^MAX_M rows of 2^MAX_M bits


def _load(cache_dir: str) -> tuple[ctypes.CDLL | None, str | None]:
    """(library, None), building it into cache_dir if needed, or (None, reason)."""
    key = hashlib.sha256("\0".join((_SOURCE, *_FLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_scan_kernel-{key}.so")
    try:
        if not os.path.exists(path):
            cc = shutil.which("cc")
            if cc is None:
                return None, "no C compiler: cc is not on PATH"
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_scan_kernel-", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run([cc, *_FLAGS, "-x", "c", "-", "-o", tmp], input=_SOURCE,
                               capture_output=True, text=True, check=True, timeout=120)
                os.chmod(tmp, 0o755)  # mkstemp's 0600 would keep other users on numpy
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(path)
    except subprocess.CalledProcessError as exc:
        err = exc.stderr.strip().splitlines()
        return None, f"cc failed with exit {exc.returncode}: {err[0] if err else 'no message'}"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"building or loading {path} failed: {type(exc).__name__}: {exc}"
    lib.coset_affine_hits.argtypes = _ARGTYPES
    lib.coset_affine_hits.restype = ctypes.c_long
    return lib, None


_LIB, FALLBACK_REASON = _load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"))
BACKEND = "python" if _LIB is None else "compiled"  # run records report it


def _points(a, n: int) -> np.ndarray:
    """a as a C-contiguous uint16 array.  Only another dtype is scanned, so
    that the cast can neither wrap nor truncate a point: uint16 points reach
    the bounds check of the backend with no extra pass."""
    a = np.asarray(a)
    if a.dtype != np.uint16 and a.size:
        if a.dtype.kind not in "iu":
            raise ValueError(f"coset points are {a.dtype}, not integers")
        if a.min() < 0 or a.max() >= n:
            raise IndexError(f"a coset point is outside f (size {n})")
    return np.ascontiguousarray(a, dtype=np.uint16)


def _checked(f, spans, reps) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The inputs as C-contiguous arrays of the kernel's dtypes (no copy when
    they already are) and k, after checking the values and shapes the C code
    relies on."""
    f = np.asarray(f)
    if f.size < 1 or f.size & (f.size - 1):
        raise IndexError(f"f has {f.size} entries, not 2^m: a coset point lies outside it")
    if f.size > 1 << MAX_M:
        raise ValueError(f"f has {f.size} entries, more than 2^{MAX_M}")
    if ((f != 0) & (f != 1)).any():
        raise ValueError("f has values other than 0 and 1")
    f = np.ascontiguousarray(f, dtype=np.uint8)
    spans, reps = _points(spans, f.size), _points(reps, f.size)
    if spans.ndim != 2 or reps.ndim != 2 or spans.shape[0] != reps.shape[0]:
        raise ValueError(f"spans {spans.shape} and reps {reps.shape} need one row per subspace")
    s = spans.shape[1]
    if s < 1 or s & (s - 1) or s > 1 << MAX_LUT_K:
        raise ValueError(f"spans have {s} columns, not 2^k with k <= {MAX_LUT_K}")
    return f, spans, reps, s.bit_length() - 1


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


def _numpy_bits(f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """The numpy coset flags, uint8 (M, C): the reference and the fallback."""
    return lut[_patterns(f, spans, reps)]


def coset_affine_hits(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """int64 flat indices r * C + j, ascending, of the (subspace, coset) cells
    where f restricted is affine."""
    f, spans, reps, k = _checked(f, spans, reps)
    if _LIB is None:
        return np.flatnonzero(_numpy_bits(f, spans, reps, affine_lut(k)))
    out = np.empty(reps.size, dtype=np.int64)  # room for every cell; unwritten pages stay unmapped
    n = _LIB.coset_affine_hits(f.ctypes.data, f.size, spans.ctypes.data, reps.ctypes.data,
                               *spans.shape, reps.shape[1], out.ctypes.data)
    if n < 0:
        raise IndexError(f"a coset point is outside f (size {f.size})")
    return out[:n]


def coset_affine_bits(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """uint8 (M, C): for each (subspace, coset), 1 iff f restricted there is affine."""
    hits = coset_affine_hits(f, spans, reps)
    out = np.zeros(np.shape(reps), dtype=np.uint8)
    out.reshape(-1)[hits] = 1
    return out


def coset_affine_all(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """uint8 (M,): 1 iff f is affine on every coset of the subspace."""
    return coset_affine_bits(f, spans, reps).view(bool).all(axis=1).view(np.uint8)
