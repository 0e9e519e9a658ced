"""``python -m weylcdma``: the ``weylcdma`` command line."""

import sys

from weylcdma.cli import main

if __name__ == "__main__":
    sys.exit(main())
