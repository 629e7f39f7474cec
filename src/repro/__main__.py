"""``python -m repro`` — reproduce the paper's tables and figures."""

import os
import sys

from repro.cli import main


def _run() -> int:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``repro ... | head``).  Point stdout
        # at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


sys.exit(_run())
