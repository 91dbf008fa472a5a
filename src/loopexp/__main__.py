"""``python -m loopexp``: the ``loopexp`` command line."""

import sys

from .cli import main

sys.exit(main())
