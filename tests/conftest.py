"""Import every test module at session start.

Hypothesis draws from a pool of constants read from the local modules in
``sys.modules``; with every test module imported first, a file run alone
draws what it draws in the full run.
"""

import importlib
from pathlib import Path


def pytest_sessionstart(session):
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except Exception:
            pass  # pytest reports the error when it collects the module
