"""``python -m halolab``: the command-line interface of :mod:`halolab.cli`."""
import sys

from .cli import main

sys.exit(main())
