"""The ``specgap`` command: ``python -m specgap`` and the installed script.

Before numpy loads, this sets ``OPENBLAS_THREAD_TIMEOUT`` to 4 unless the
caller has set it.  An idle OpenBLAS (pthreads build) worker otherwise
busy-polls for 2**28 cycles (about 0.1 s) after the library loads and after
each threaded call, and that spinning was 35-45 % of the CPU of a
``spectrum fd`` process.  Threaded calls still use every thread, so output
bytes do not change.  ``OPENBLAS_THREAD_TIMEOUT=28`` restores OpenBLAS's own
behaviour; OpenMP OpenBLAS, MKL and Accelerate builds ignore the variable.
Importing the library (``import specgap.operators``) leaves the environment
alone.
"""

import os
import sys

# read once, when OpenBLAS loads: log2 of the cycles an idle worker spins
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cli import main  # noqa: E402  (after the setting above)

if __name__ == "__main__":
    sys.exit(main())
