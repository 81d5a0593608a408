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

Once ``cli.main`` has returned, ``main`` flushes stdout and stderr and ends
the process with ``os._exit``, skipping the interpreter's teardown (clearing
numpy's module dicts, the final garbage collections).  That teardown writes
nothing, yet it took a median 30-45 ms of every process, against 2-4 ms
without it (README "Start-up" has the table per command).  By then every
``--out`` file is closed by its command's ``with`` block, the process pool
of ``verify abstract --workers`` is joined by its own, and the exit code is
``cli.main``'s.  If a flush fails (a closed pipe), ``main`` returns
instead, so the interpreter reports the failure and exits with 120 as
before; argparse's exits and uncaught exceptions take the normal exit too.
``atexit`` handlers do not run in the CLI process, so a tool that relies on
them there (coverage's subprocess mode) sees nothing.  ``cli.main`` called
from other code (a library user, the tests, the benchmark's tracer) returns
its code and keeps the full teardown.
"""

import os
import sys

# read once, when OpenBLAS loads: log2 of the cycles an idle worker spins
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import cli  # noqa: E402  (after the setting above)


def main() -> int:
    code = cli.main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with that descriptor closed
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
