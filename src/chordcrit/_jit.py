"""JIT plumbing: numba kernels when numba is installed, interpreted otherwise.

numba is the optional ``jit`` extra; only the colouring search kernel uses
it.  Setting the environment variable CHORDCRIT_NO_JIT=1 (before import)
disables numba entirely, and the kernel then runs interpreted.
"""

import os

NO_JIT_ENV = "CHORDCRIT_NO_JIT"


def _jit_requested() -> bool:
    flag = os.environ.get(NO_JIT_ENV, "").strip().lower()
    return flag not in ("1", "true", "yes", "on")


JIT_ENABLED = False

if _jit_requested():
    try:
        from numba import njit  # noqa: F401

        JIT_ENABLED = True
    except ImportError:
        JIT_ENABLED = False

if not JIT_ENABLED:
    # Passthrough decorator: the decorated function runs interpreted.
    def njit(*args, **kwargs):  # noqa: ANN001
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def jit_active() -> bool:
    """True when kernels are numba-compiled in this process."""
    return JIT_ENABLED
