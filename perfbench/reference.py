"""A fixed exact-arithmetic computation that measures the machine's speed.

On a shared machine the same work can take 1.5x longer for tens of seconds
at a time, and that drift, not the program, dominates the spread between
runs. The benchmark therefore reports short jobs at a reference speed: a
job's time is scaled by NOMINAL_S / (median time of the `sample()` calls
taken close to it). The reference is Gauss-Jordan inversion of a fixed
unimodular 9 x 9 integer matrix over Fractions, the same kind of work
(Fractions, integers, list traffic) that nilsplit does, and it calls no
nilsplit code, so a change to the program cannot move it.
"""

from time import perf_counter

from algebras import inverse

# Time of one sample() on the machine the bounds were tuned on (2 vCPU
# x86-64 VM, CPython 3.11) in its fast state; only the unit depends on it.
NOMINAL_S = 0.0015

# unimodular (determinant -1), from a permutation and twelve +-1 shears
_M = [
    [-1, 1, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 1, 0],
    [1, 0, 1, 0, 0, -2, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 1],
]


def sample() -> float:
    """Seconds taken by the reference computation, now."""
    t = perf_counter()
    inverse(_M)
    return perf_counter() - t
