"""``python -m metgraph.cli``: the command-line interface."""

from . import main

main()
