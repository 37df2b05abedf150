"""`python -m trajopt`: the command-line interface of `trajopt.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
