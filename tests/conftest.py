import contextlib

import numpy as np
import pytest

from fraclab import fraclap, solver


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


def rfft_modes(grid, node):
    # cosine_layout's contract on the rfft layout's full-field modes, with
    # identity gather and unfold; the node does not matter to them
    k2, _, fwd, inv = fraclap.rfft_layout(grid)
    same = lambda a: a
    return k2, fwd, inv, same, same


@pytest.fixture()
def rfft_steps(monkeypatch):
    """``with rfft_steps():`` every run steps on the rfft layout's modes of
    the full fields in place of the cosine modes: the same problem, and the
    reference the cosine layout is checked against end to end."""
    @contextlib.contextmanager
    def steps():
        with monkeypatch.context() as m:
            m.setattr(solver, "cosine_layout", rfft_modes)
            yield

    return steps
