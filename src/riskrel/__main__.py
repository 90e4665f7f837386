"""``python -m riskrel``: the command-line interface."""
import sys

from riskrel.cli import main

if __name__ == "__main__":
    sys.exit(main())
