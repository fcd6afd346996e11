"""Fixtures shared by the test modules."""

import pytest

import convsup.channel


@pytest.fixture
def record_trials(monkeypatch):
    """``record_trials(module)`` makes the ``trials`` that ``module`` calls
    also record every batch its sample returns, in order, and returns the
    list that receives them: the per-draw values that ``channel.trials``
    folds and does not keep."""
    def patch(module):
        seen = []

        def spy(n, sample):
            def keep(k):
                seen.append(sample(k))
                return seen[-1]
            return convsup.channel.trials(n, keep)
        monkeypatch.setattr(module, "trials", spy)
        return seen
    return patch
