"""``python -m fermatmf``: the command line interface of ``fermatmf.cli``."""

from .cli import entry

if __name__ == "__main__":
    entry()
