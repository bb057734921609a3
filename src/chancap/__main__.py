"""``python -m chancap``: the ``chancap`` command, run from a checkout or an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
