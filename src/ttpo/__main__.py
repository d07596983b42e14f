"""``python -m ttpo``: the same command line as the ``ttpo`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
