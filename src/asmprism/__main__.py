"""``python -m asmprism``: the ``asmprism`` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
