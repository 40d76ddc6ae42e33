"""Ensure the src/ layout is importable even without an installed package.

Offline environments without the `wheel` package cannot complete a PEP 660
editable install; adding src/ to sys.path keeps the test suite runnable
regardless of how (or whether) the package was installed.
"""

import os
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# Keep test-run ledger appends out of the repo's .repro/ directory; tests that
# care about the ledger location override REPRO_LEDGER_DIR themselves.
os.environ.setdefault("REPRO_LEDGER_DIR", tempfile.mkdtemp(prefix="repro-ledger-"))
