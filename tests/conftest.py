"""Fixtures shared by every test module."""

import pytest

from bsym import quad


@pytest.fixture(autouse=True)
def forget_searched_paths():
    """Start each test with no remembered validity-search paths, so that
    work counts and values do not depend on which tests ran before."""
    quad._search_paths()
