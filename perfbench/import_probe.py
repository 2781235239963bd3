"""Time importing nilsplit into a fresh interpreter, up to its first job.

    python3 perfbench/import_probe.py SRC

Prints the seconds taken by `import nilsplit.cli` (backend selection and
catalog construction included), the median time of the reference
computation of reference.py sampled right after, and the file nilsplit was
imported from. Nothing else is imported first, so the import time is what
a user of the CLI pays.
"""

import sys
import time


def main(src: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import nilsplit.cli

    elapsed = time.perf_counter() - t0
    import statistics

    import reference

    speed = statistics.median(reference.sample() for _ in range(5))
    print(elapsed, speed, nilsplit.cli.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
