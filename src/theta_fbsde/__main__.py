"""``python -m theta_fbsde``: the ``theta-fbsde`` command line without installation."""

from .cli import entry

if __name__ == "__main__":
    entry()
