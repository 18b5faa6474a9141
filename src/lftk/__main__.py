"""``python -m lftk``: the ``lftk`` command, also from a checkout without the script."""

import sys

from .cli import main

sys.exit(main())
