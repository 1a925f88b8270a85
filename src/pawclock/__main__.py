"""The ``pawclock`` command: ``python -m pawclock`` and the console script."""

import os

# Every matrix product pawclock makes stays within marginals._BLAS_BOUND,
# which OpenBLAS runs on the calling thread, so a pool of BLAS workers does
# no pawclock work and only spins.  Set before numpy is first imported; a
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the BLAS setting)

if __name__ == "__main__":
    raise SystemExit(main())
