"""``python -m fuzzint``: the command-line interface without an install."""

from .cli import entry

if __name__ == "__main__":
    entry()
