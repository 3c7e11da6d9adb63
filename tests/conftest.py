"""Helpers shared by the test modules."""
import itertools

from scarkit.fockstate import FockState


def as_sparse(state):
    """A sparse copy of a product state: every nonzero coefficient of its cutoff box."""
    coeffs = {}
    for k in itertools.product(*(range(c + 1) for c in state.cutoff)):
        c = state.coefficient(k)
        if c != 0:
            coeffs[k] = c
    return FockState(state.hbar, state.dims, state.cutoff, state.tail_bound, coeffs)
