"""`python -m gamebound ...` runs the same command line as the `gamebound` script."""
from .cli import main

raise SystemExit(main())
