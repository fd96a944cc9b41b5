import numpy as np
import pytest


class NanRowGenerator:
    """A generator whose `normal` draws carry NaN in one sample row only."""

    def __init__(self, rng, row):
        self.rng, self.row = rng, row

    def normal(self, *args, **kwargs):
        out = self.rng.normal(*args, **kwargs)
        out[self.row] = np.nan
        return out


@pytest.fixture
def nan_row_generator():
    """Wrap a generator so that sample row `row` of each normal draw is NaN."""
    return NanRowGenerator
