"""`python -m wsnsim`: the command-line interface, runnable from a checkout."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
