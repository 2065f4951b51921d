"""`python -m nlsurf ...` runs the command line, as the `nlsurf` console script does."""

from .cli import main

main()
