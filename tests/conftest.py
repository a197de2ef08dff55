import sys

import pytest
from hypothesis import settings

# One profile for every property test. No per-example deadline: on a loaded
# host a single example can stall far past the default 200 ms (the first one
# also pays hypothesis' own lazy imports), and a deadline failure there says
# nothing about the code under test.
settings.register_profile("radloop", deadline=None)
settings.load_profile("radloop")


@pytest.fixture(autouse=True)
def block_requests(monkeypatch):
    """Make ``import requests`` fail in every test here, as where it is not
    installed: radloop's judge client posts with the standard library alone.
    ``bench/tests`` keeps it, because ``bench/tracing.py`` binds it."""
    monkeypatch.setitem(sys.modules, "requests", None)
