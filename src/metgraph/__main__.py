"""``python -m metgraph``: the command-line interface."""

from .cli import main

main()
