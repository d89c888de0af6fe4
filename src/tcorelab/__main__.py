"""Entry point for ``python -m tcorelab``; same commands as ``tcorelab``."""

import sys

from .cli import main

sys.exit(main())
