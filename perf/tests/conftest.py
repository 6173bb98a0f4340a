"""Make ``repro`` importable from the checkout's ``src/``."""

import sys

from perf import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
