"""`python -m hypergroups`: the same command line as the `hypergroups` script."""
from .cli import main

if __name__ == "__main__":
    main()
