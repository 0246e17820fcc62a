"""voxhunt: curiosity/imitation playtesting agents for voxel navigation maps.

Train agents that explore around scripted expert routes, log every trajectory
they produce, and filter the suspicious ones (goal-reaching, exploration-heavy,
high-novelty) against planted bug regions.
"""

import ctypes
import os

__version__ = "0.1.0"


def _keep_heap() -> None:
    """Fix glibc's heap regime for the process; off glibc, do nothing.

    By default glibc serves a large block from a fresh mapping, raises its
    mmap threshold to the size of the last one freed, and trims the heap top
    once twice that is free, so the megabyte temporaries the networks free
    on every pass were faulted in again and again. Fixed thresholds keep
    blocks under 32 MiB in the heap and up to 64 MiB of free heap top.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's own dynamic ceiling
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_heap()
