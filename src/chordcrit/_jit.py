"""Leftover names of the retired numba JIT.

No chordcrit code is compiled: the colouring search runs on plain Python
lists.  This module stays only because the benchmark's ``environment`` line
(``perfbench/run.py``) still reads ``NO_JIT_ENV`` and ``jit_active()``; it
goes with the next change to the benchmark.
"""

NO_JIT_ENV = "CHORDCRIT_NO_JIT"


def jit_active() -> bool:
    """Always False: there are no compiled kernels."""
    return False
