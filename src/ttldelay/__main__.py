"""``python -m ttldelay``: the ``ttldelay`` command."""
from ttldelay.cli import main

raise SystemExit(main())
