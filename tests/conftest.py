from __future__ import annotations

import pytest
from oracles import base_station

from relaysched.channel import default_radio_config
from relaysched.service import Period, QuadratureSpec


@pytest.fixture(scope="session")
def cfg():
    return default_radio_config()


@pytest.fixture(scope="session")
def bs():
    return base_station(0.0, -15.0)


@pytest.fixture(scope="session")
def period():
    return Period(5.0)


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()
