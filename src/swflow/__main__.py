"""`python -m swflow`: the same command line as the `swflow` console script."""

from .cli import main

raise SystemExit(main())
