"""``python -m seqmeas``: the seqmeas command (see :mod:`seqmeas.cli`)."""

import sys

from .cli import main

sys.exit(main())
