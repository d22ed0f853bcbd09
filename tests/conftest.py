import pytest
from hypothesis import HealthCheck, settings

import mdim.resolve

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def verdicts(monkeypatch):
    """One entry per verdict mdim.resolve runs during the test: "rank" for the rank path, "mitm" for a set of sorted keys."""
    rank, keys = mdim.resolve._rank_witness, mdim.resolve._verdict_keys
    seen = []
    monkeypatch.setattr(mdim.resolve, "_rank_witness", lambda *args: seen.append("rank") or rank(*args))
    monkeypatch.setattr(mdim.resolve, "_verdict_keys", lambda *args: seen.append("mitm") or keys(*args))
    return seen


@pytest.fixture
def mitm_only(monkeypatch):
    """Decide every verdict of a whole set or of S - j by meet in the middle, whatever the rank path would cost."""
    monkeypatch.setattr(mdim.resolve, "_witness", mdim.resolve._mitm_witness)
