"""The ``pawclock`` command: ``python -m pawclock`` and the console script."""

import os
import signal

# Every matrix product pawclock makes stays within marginals._BLAS_BOUND,
# which OpenBLAS runs on the calling thread, so a pool of BLAS workers does
# no pawclock work and only spins.  Set before numpy is first imported; a
# value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# A reader that closes the pipe early (``pawclock ... | head``) ends the
# command quietly by SIGPIPE, as it ends cat, and not with an error line.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

from .cli import main  # noqa: E402  (after the BLAS setting)

if __name__ == "__main__":
    raise SystemExit(main())
