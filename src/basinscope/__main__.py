"""`python -m basinscope`: the basinscope command line."""

from .cli import main

main()
