"""``python -m streamcert``: the ``streamcert`` command without installing it."""

import sys

from .cli import main

sys.exit(main())
