"""``python -m fedscore``: the same command line as the ``fedscore`` script."""

import sys

from fedscore.experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
