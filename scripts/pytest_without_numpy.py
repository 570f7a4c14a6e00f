#!/usr/bin/env python
"""Run pytest in a process where ``import numpy`` fails.

``REPRO_KERNEL=python`` selects the list-loop convolution backend but
still imports numpy; this is the numpy-free install that kernel exists
for.  (Setting
``sys.modules['numpy'] = None`` would do for the package itself, but
hypothesis reads ``sys.modules['numpy'].ndarray`` whenever the key is
there — so the import is refused by a finder instead.)

Usage:  python scripts/pytest_without_numpy.py [pytest arguments]
"""

from __future__ import annotations

import importlib.abc
import sys


class _NoNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        if fullname.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(
                "numpy is blocked for this run", name=fullname
            )
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, _NoNumpy())
    import pytest

    raise SystemExit(pytest.main(sys.argv[1:]))
