"""Fixtures shared across test modules."""
import pytest

from gamebound import acceptance


@pytest.fixture(scope="session")
def seed0_record():
    """The seed-0 record of an acceptance criterion, each computed at most
    once per session, so the gate and the golden report share one run."""
    cache = {}

    def record(fn):
        if fn not in cache:
            cache[fn] = fn(seed=0)
        return cache[fn]

    return record
