"""The subspace scan kernel: is f affine on each coset of each k-dim subspace?

Inputs, shared by both entry points:

- f: uint8 array of length 2^m, the truth table (values 0/1).
- spans: uint16 (M, 2^k), the span points of each of M subspaces, column t
  the point with coordinates t in the subspace's basis (column 0 is 0), so
  columns 0..3 and 0..7 span 2- and 3-dim sub-flats of each coset.
- reps: uint16 (M, C), one representative per coset of each subspace,
  column 0 the subspace itself (rep 0).
- lut: uint8 table over the 2^(2^k) restriction patterns, 1 iff affine.

The restriction of f to the coset reps[i, j] ^ <spans[i]> is packed into a
pattern int whose bit t is f(reps[i, j] ^ spans[i, t]); lut[pattern] flags
whether that restriction is affine.  spans and reps come from
`scan.scan_arrays(m, k)`, lut from `scan.affine_lut(k)`.

Two backends compute the same flags:

- compiled: the C source `_SOURCE` below, called through ctypes.  It stops a
  coset at its first non-affine 2- or 3-dim prefix sub-flat (tested with
  `affine_lut(2)` and `affine_lut(3)`), and `coset_affine_all` stops a row
  at its first non-affine coset.  Every index into f is bounds-checked; one
  outside f raises IndexError, as numpy would.
- python: `_numpy_bits` and `_numpy_all`, the reference the tests compare
  the compiled kernel against.

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

import numpy as np

from .scan import affine_lut

_SOURCE = r"""
#include <stdint.h>

/* lut[pattern of f on the coset rep ^ <span>], 0 as soon as the 2- or 3-dim
   prefix sub-flat is not affine, or -1 for an index outside f. */
static int coset(const uint8_t *f, long nf, const uint16_t *span, long s, unsigned rep,
                 const uint8_t *lut, const uint8_t *lut2, const uint8_t *lut3)
{
    uint32_t p = 0;
    for (long t = 0; t < s; t++) {
        unsigned x = rep ^ span[t];
        if (x >= (unsigned long)nf)
            return -1;
        p |= (uint32_t)(f[x] & 1u) << t; /* & 1 keeps p below 2^s, the size of lut */
        if ((t == 3 && s > 4 && !lut2[p]) || (t == 7 && s > 8 && !lut3[p]))
            return 0;
    }
    return lut[p];
}

int coset_affine_bits(const uint8_t *f, long nf, const uint16_t *spans, const uint16_t *reps,
                      long rows, long s, long c, const uint8_t *lut, const uint8_t *lut2,
                      const uint8_t *lut3, uint8_t *out)
{
    for (long i = 0; i < rows; i++)
        for (long j = 0; j < c; j++) {
            int r = coset(f, nf, spans + i * s, s, reps[i * c + j], lut, lut2, lut3);
            if (r < 0)
                return -1;
            out[i * c + j] = (uint8_t)r;
        }
    return 0;
}

int coset_affine_all(const uint8_t *f, long nf, const uint16_t *spans, const uint16_t *reps,
                     long rows, long s, long c, const uint8_t *lut, const uint8_t *lut2,
                     const uint8_t *lut3, uint8_t *out)
{
    for (long i = 0; i < rows; i++) {
        int r = 1;
        for (long j = 0; j < c && r == 1; j++)
            r = coset(f, nf, spans + i * s, s, reps[i * c + j], lut, lut2, lut3);
        if (r < 0)
            return -1;
        out[i] = (uint8_t)r;
    }
    return 0;
}
"""
_FLAGS = ("-O2", "-shared", "-fPIC")
_ARGTYPES = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]


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
    for fn in (lib.coset_affine_bits, lib.coset_affine_all):
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
    return lib, None


_LIB, FALLBACK_REASON = _load(os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__"))
BACKEND = "python" if _LIB is None else "compiled"  # run records report it


def _checked(f, spans, reps, lut) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The inputs as C-contiguous arrays of the kernel's dtypes (no copy when
    they already are), after checking that their shapes agree."""
    f = np.ascontiguousarray(f, dtype=np.uint8)
    spans = np.ascontiguousarray(spans, dtype=np.uint16)
    reps = np.ascontiguousarray(reps, dtype=np.uint16)
    lut = np.ascontiguousarray(lut, dtype=np.uint8)
    if spans.ndim != 2 or reps.ndim != 2 or spans.shape[0] != reps.shape[0]:
        raise ValueError(f"spans {spans.shape} and reps {reps.shape} need one row per subspace")
    if lut.size != 1 << spans.shape[1]:
        raise ValueError(f"lut has {lut.size} entries, not 2^{spans.shape[1]}")
    return f, spans, reps, lut


def _run(fn, f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """Run one C entry point on checked inputs into out and return out."""
    rc = fn(f.ctypes.data, f.size, spans.ctypes.data, reps.ctypes.data, *spans.shape, reps.shape[1],
            lut.ctypes.data, affine_lut(2).ctypes.data, affine_lut(3).ctypes.data, out.ctypes.data)
    if rc != 0:
        raise IndexError(f"a coset point is outside f (size {f.size})")
    return out


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


def _numpy_all(f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """The numpy coset_affine_all: the reference and the fallback.

    Filters on the first coset (the subspace itself) before checking the
    survivors in full; most rows fail there for bent inputs.
    """
    out = lut[_patterns(f, spans, reps[:, :1])].reshape(-1)
    rows = np.flatnonzero(out)
    if rows.size:
        out[rows] = lut[_patterns(f, spans[rows], reps[rows])].all(axis=1)
    return out


def coset_affine_bits(
    f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray
) -> np.ndarray:
    """uint8 (M, C): for each (subspace, coset), 1 iff f restricted there is affine."""
    f, spans, reps, lut = _checked(f, spans, reps, lut)
    if _LIB is None:
        return _numpy_bits(f, spans, reps, lut)
    return _run(_LIB.coset_affine_bits, f, spans, reps, lut, np.empty(reps.shape, dtype=np.uint8))


def coset_affine_all(
    f: np.ndarray, spans: np.ndarray, reps: np.ndarray, lut: np.ndarray
) -> np.ndarray:
    """uint8 (M,): 1 iff f is affine on every coset of the subspace."""
    f, spans, reps, lut = _checked(f, spans, reps, lut)
    if _LIB is None:
        return _numpy_all(f, spans, reps, lut)
    return _run(_LIB.coset_affine_all, f, spans, reps, lut, np.empty(len(spans), dtype=np.uint8))
