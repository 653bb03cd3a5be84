"""Compare the engine's float32 erf with scipy's on every float32 pattern.

`autodiff._erf` is cephes `ndtr.c`'s erf evaluated in float64 numpy passes
and rounded once to float32. This runs it and `scipy.special.erf` on all
2^32 float32 bit patterns (signed zeros, subnormals, infinities and every
NaN payload among them), a chunk at a time, and counts the patterns whose
results differ in any bit. It prints that count, and the first few such
patterns, and exits 1 if there are any:

    PYTHONPATH=src python tools/erf_bits.py

Numpy picks its SIMD kernels (its float64 exp's among them) by CPU at
import, so run it again at a lower dispatch level too; a result that holds
at both holds for either kernel:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        PYTHONPATH=src python tools/erf_bits.py

Why float64 stays on scipy: scipy's erf calls libm's exp, and numpy's
float64 exp is another implementation (on AVX-512 it differs from libm in
the last bit for about 5% of arguments in (-64, -1)), so a numpy erf's
float64 results differ from scipy's in a share of inputs past |x| = 1.
Rounded to float32 those differences vanish, which is what this checks.
The finite-difference checker's float64 graphs therefore keep
`scipy.special.erf`, and with it their digests (`tools/grad_hash.py`'s
`fd-*` lines).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.special import erf

from hrstnet import autodiff as ad

CHUNK = 1 << 22  # patterns per pass: 16 MiB per float32 array


def main() -> int:
    print(f"numpy {np.__version__}, NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES', '')!r}",
          file=sys.stderr)
    start, differ, shown = time.perf_counter(), 0, []
    out = np.empty(CHUNK, np.float32)
    with np.errstate(invalid="ignore"):  # signalling NaN patterns warn in the casts
        for lo in range(0, 1 << 32, CHUNK):
            bits = np.arange(lo, lo + CHUNK, dtype=np.uint32)
            x = bits.view(np.float32)
            bad = np.flatnonzero(ad._erf(x, out).view(np.uint32) != erf(x).view(np.uint32))
            differ += bad.size
            shown += [f"{b:#010x}" for b in bits[bad[:8 - len(shown)]]]
    print(f"{differ} of {1 << 32} float32 patterns differ from scipy.special.erf"
          f" ({time.perf_counter() - start:.0f} s)")
    if shown:
        print("first:", " ".join(shown))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
