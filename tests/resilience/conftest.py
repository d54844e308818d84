"""Shared fixtures for the resilience tests.

Fault schedules are process-global; a leaked schedule would poison
every test after it.  The autouse fixture below disarms any armed
schedule around *every* test in this package (the suite-wide
``tests/conftest.py`` gate then tears down the warm pool and checks
``/dev/shm``).
"""

import pytest

from repro.resilience.faults import clear_faults, reset


@pytest.fixture(autouse=True)
def fault_gate():
    clear_faults()
    yield
    clear_faults()
    reset()
