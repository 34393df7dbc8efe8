"""The ``fraclab`` command: ``python -m fraclab`` and the console script.

:func:`main` sets numpy's BLAS thread count before numpy loads, unless
its caller set one: two for a run on a grid of 512 x 512 points or more,
whose products are large enough to share, and one otherwise, where
worker threads only add start-up stalls and contention
(:func:`fraclab.config.blas_threads`).  The library's imports leave the
environment alone.
"""

import os
import sys

from .config import blas_threads


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    threads = str(blas_threads(argv))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, threads)
    from .harness import main as run  # numpy loads here

    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
