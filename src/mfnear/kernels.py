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

`coset_affine_bits(f, spans, reps)` is the one scan.  f is a uint8 array of
length 2^m, m <= 8, the truth table (values 0/1); the result is uint8 (M, C),
1 iff f restricted to that coset is affine.  `coset_affine_all` is its row
reduction, 1 iff f is affine on every coset of the subspace; it is kept as a
name of its own because the |M(f)| scan (`oracle.m_subspaces`) and the
benchmark's traced run call it by that name.  The wrapper raises ValueError
for shapes outside these limits and IndexError for an f whose size is not a
power of two, before any backend runs.

The two backends compute the same flags by two different affinity tests:

- compiled: the C source `_SOURCE` below, called through ctypes, tests
  second derivatives.  f is affine on a k-flat x + U iff every ANF
  coefficient of degree >= 2 of t -> f(x + span point t) is 0.  The
  coefficients whose two lowest variables are i < j are, by a triangular
  change of basis, the second derivatives D_(u_i) D_(u_j) f at the points
  x + span point t for the t made of basis bits above j only.  So the
  2^k - k - 1 span-column quads (t, t|2^i, t|2^j, t|2^i|2^j) of those t
  (11 at k = 4, 4 at k = 3, 1 at k = 2, none at k <= 1) decide affinity,
  and none of them can be left out.  Once per call the kernel builds the
  translate table: row w is a 2^m-bit string whose bit x is f(x ^ w), 8 KB
  at m = 8.  Per subspace it computes C, the OR over the quads of the XOR of
  the four rows at the quad's span points; bit x of C is 1 iff f is not
  affine on x + U.  C is constant on each coset, so a coset's flag is the
  complement of C at its representative.  A subspace costs a few table XORs
  instead of 2^k gathers per coset.  Every span and representative point is
  bounds-checked; one outside f raises IndexError, as numpy would.
- python: `_numpy_bits` packs the restriction of f to each coset into a
  pattern whose bit t is f(rep ^ span point t) and looks it up in
  `affine_lut(k)`, the table of the 2^(k+1) affine patterns.  It is the
  fallback and the reference the tests compare the compiled kernel against.
  It stays pattern-table based so that this comparison checks one affinity
  test against another, not one code path against a copy.

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

MAX_LUT_K = 4  # largest k: affine_lut(4) has 2^16 entries, a C span 16 points


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

/* Largest f: 2^8 points, so a translate row is 4 words and a span at most
   16 points (k <= 4).  The wrapper rejects larger inputs before any call. */
#define WORDS 4
#define MAX_POINTS 256
#define MAX_SPAN 16
#define MAX_QUADS 11

/* The span-column quads (t, t|i, t|j, t|i|j) for basis bits i < j and t
   made of basis bits above j only: one per ANF monomial of degree >= 2. */
static long quads(long s, uint8_t q[][4])
{
    long n = 0;
    for (long j = 2; j < s; j <<= 1)
        for (long i = 1; i < j; i <<= 1)
            for (long t = 0; t < s; t += 2 * j, n++) {
                q[n][0] = (uint8_t)t;
                q[n][1] = (uint8_t)(t | i);
                q[n][2] = (uint8_t)(t | j);
                q[n][3] = (uint8_t)(t | i | j);
            }
    return n;
}

/* For each row: c = OR over the quads of the XOR of its four translate rows,
   so bit x of c is 1 iff f is not affine on x ^ <span>.  bits gets one flag
   per coset, 1 iff c is 0 at its representative.  -1 for a span or
   representative point outside f. */
int coset_affine_bits(const uint8_t *f, long nf, const uint16_t *spans, const uint16_t *reps,
                      long rows, long s, long nc, uint8_t *bits)
{
    uint64_t tr[MAX_POINTS][WORDS] = {{0}}; /* tr[w] bit x = f(x ^ w) */
    uint8_t q[MAX_QUADS][4];
    long nq = quads(s, q);
    for (long w = 0; w < nf; w++)
        for (long x = 0; x < nf; x++)
            tr[w][x >> 6] |= (uint64_t)(f[x ^ w] & 1u) << (x & 63);
    for (long r = 0; r < rows; r++) {
        const uint16_t *span = spans + r * s, *rep = reps + r * nc;
        const uint64_t *row[MAX_SPAN];
        uint64_t c[WORDS] = {0};
        for (long t = 0; t < s; t++) {
            if (span[t] >= nf)
                return -1;
            row[t] = tr[span[t]];
        }
        for (long n = 0; n < nq; n++)
            for (int w = 0; w < WORDS; w++)
                c[w] |= row[q[n][0]][w] ^ row[q[n][1]][w] ^ row[q[n][2]][w] ^ row[q[n][3]][w];
        for (long j = 0; j < nc; j++) {
            if (rep[j] >= nf)
                return -1;
            bits[r * nc + j] = (uint8_t)!((c[rep[j] >> 6] >> (rep[j] & 63)) & 1u);
        }
    }
    return 0;
}
"""
_FLAGS = ("-O2", "-shared", "-fPIC")
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
    lib.coset_affine_bits.argtypes = _ARGTYPES
    lib.coset_affine_bits.restype = ctypes.c_int
    return lib, None


_LIB, FALLBACK_REASON = _load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"))
BACKEND = "python" if _LIB is None else "compiled"  # run records report it


def _checked(f, spans, reps) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The inputs as C-contiguous arrays of the kernel's dtypes (no copy when
    they already are) and k, after checking the shapes the C code relies on."""
    f = np.ascontiguousarray(f, dtype=np.uint8)
    spans = np.ascontiguousarray(spans, dtype=np.uint16)
    reps = np.ascontiguousarray(reps, dtype=np.uint16)
    if spans.ndim != 2 or reps.ndim != 2 or spans.shape[0] != reps.shape[0]:
        raise ValueError(f"spans {spans.shape} and reps {reps.shape} need one row per subspace")
    s = spans.shape[1]
    if s < 1 or s & (s - 1) or s > 1 << MAX_LUT_K:
        raise ValueError(f"spans have {s} columns, not 2^k with k <= {MAX_LUT_K}")
    if f.size < 1 or f.size & (f.size - 1):
        raise IndexError(f"f has {f.size} entries, not 2^m: a coset point lies outside it")
    if f.size > 1 << MAX_M:
        raise ValueError(f"f has {f.size} entries, more than 2^{MAX_M}")
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
    """The numpy coset_affine_bits: the reference and the fallback."""
    return lut[_patterns(f, spans, reps)]


def coset_affine_bits(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """uint8 (M, C): for each (subspace, coset), 1 iff f restricted there is affine."""
    f, spans, reps, k = _checked(f, spans, reps)
    if _LIB is None:
        return _numpy_bits(f, spans, reps, affine_lut(k))
    out = np.empty(reps.shape, dtype=np.uint8)
    if _LIB.coset_affine_bits(f.ctypes.data, f.size, spans.ctypes.data, reps.ctypes.data,
                              *spans.shape, reps.shape[1], out.ctypes.data):
        raise IndexError(f"a coset point is outside f (size {f.size})")
    return out


def coset_affine_all(f: np.ndarray, spans: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """uint8 (M,): 1 iff f is affine on every coset of the subspace."""
    return coset_affine_bits(f, spans, reps).view(bool).all(axis=1).view(np.uint8)
