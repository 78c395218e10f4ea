import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def headline_scan():
    """One run of the headline scans, ``checks._stability_scan()``: their
    reports and masked CSV text, shared by the outputs gate and criterion 10."""
    from maxop import checks

    return checks._stability_scan()
