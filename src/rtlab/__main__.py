"""``python -m rtlab``: the same command line as the ``rtlab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
