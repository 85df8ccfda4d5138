"""`python -m rydqnd <command>`: the `rydqnd` command-line interface."""

import sys

from .cli import main

sys.exit(main())
