"""Compressed Newton-type fully distributed optimization over consensus networks."""

__version__ = "0.1.0"

import ctypes
import os
# fixed thresholds map each array of 4 MiB or more on its own, so allocation timing cannot decide whether a
# freed 32 MB array leaves a heap hole or the heap grows (glibc's dynamic threshold; the environment wins)
_libc = ctypes.CDLL(None) if os.name == "posix" else None
if hasattr(_libc, "mallopt") and "MALLOC_MMAP_THRESHOLD_" not in os.environ:
    _libc.mallopt(-3, 4 << 20), _libc.mallopt(-1, 8 << 20)  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
