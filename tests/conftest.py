import pytest
from hypothesis import HealthCheck, settings

from bqp import Instance

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
settings.load_profile("ci")


@pytest.fixture
def e1() -> Instance:
    """2x2 worked example; optimum 3 at x=(0,1), y=(0,1)."""
    return Instance([[3, -2], [-1, 4]], [1, -1], [-2, 0])
