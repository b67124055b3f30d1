"""Module execution entry: python -m zetagenus."""

from .cli import main

if __name__ == "__main__":
    main("python -m zetagenus")
