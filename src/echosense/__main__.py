"""`python -m echosense`: the `echosense` command, runnable from a source
checkout without installing it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
