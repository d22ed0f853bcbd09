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
    """One entry per verdict mdim.resolve runs during the test: "parity" for a set settled by its parity matrix,
    "rank" for the rank path on a set alone, "mitm" for a set of sorted keys, "rank-members" for the rank path's one
    pass over a set and all of its members."""
    parity, rank, keys = mdim.resolve._parity_full_rank, mdim.resolve._rank_kernel, mdim.resolve._verdict_keys
    seen = []

    def parity_spy(n, members):
        settled = parity(n, members)
        if settled:
            seen.append("parity")
        return settled

    def spy(residues, rows, pivots, transform=None):
        seen.append("rank" if transform is None else "rank-members")
        return rank(residues, rows, pivots, transform)

    monkeypatch.setattr(mdim.resolve, "_parity_full_rank", parity_spy)
    monkeypatch.setattr(mdim.resolve, "_rank_kernel", spy)
    monkeypatch.setattr(mdim.resolve, "_verdict_keys", lambda *args: seen.append("mitm") or keys(*args))
    return seen


@pytest.fixture
def mitm_only(monkeypatch):
    """Decide every verdict of a whole set or of S - j by meet in the middle, and is_minimal's members by one
    such verdict each, whatever the rank path would cost."""
    monkeypatch.setattr(mdim.resolve, "_witness", mdim.resolve._mitm_witness)
    monkeypatch.setattr(mdim.resolve, "_members_pay", lambda n, k, d: False)
