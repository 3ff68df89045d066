"""``python -m radialmax``: the command-line front end (see ``cli``)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
