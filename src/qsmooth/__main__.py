"""``python -m qsmooth``: the same command line as the ``qsmooth`` script."""

from .cli import main

if __name__ == "__main__":
    main()
