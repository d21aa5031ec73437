"""The benchmark's tracer wraps coneforge names by attribute lookup.

`perfbench/tests` runs outside this suite, so a renamed or deleted name
would pass here and break only the traced benchmark run.  This test
keeps every traced name in place.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracer  # noqa: E402


def test_every_traced_name_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.TARGETS
        if not hasattr(owner, attr)
    ]
    assert missing == []

