"""``python -m surveil``: the command line front end of :mod:`surveil.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
