"""Fixtures shared by the test modules."""

import pytest

import fcn_ctr.verification as verification_mod


@pytest.fixture
def flip_bias_gradient(monkeypatch):
    """Call the returned function to corrupt the gradient audit's backward
    pass: from then on it flips the sign of the first cross-layer bias
    gradient, a fault the audit must catch."""
    backward = verification_mod.backward

    def flipped(*args, **kwargs):
        grads = backward(*args, **kwargs)
        (grads.ecn_layers or grads.lcn_layers)[0].b *= -1.0
        return grads

    return lambda: monkeypatch.setattr(verification_mod, "backward", flipped)
