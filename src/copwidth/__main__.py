"""Run the copwidth command line as `python -m copwidth ...`."""

import sys

from .report_cli.cli import main

if __name__ == "__main__":
    sys.exit(main())
