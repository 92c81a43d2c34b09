"""``python -m mpbsim``: the same command line as the ``mpbsim`` entry point."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
