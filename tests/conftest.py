import numpy as np
import pytest

from qgwalk.algebra import DEFAULT_TOL, AlgebraElement, AlgebraShape
from qgwalk.idempotents import _profile_pieces
from qgwalk.sekine import CentralElement, central_to_element, element_to_central, irrep_labels, trivial_label


def random_element(shape: AlgebraShape, rng) -> AlgebraElement:
    d, m = shape.abelian_dim, shape.matrix_dim
    ab = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return AlgebraElement(shape, ab, mat)


def probe_central(x: AlgebraElement, trials: int, rng, group: str = "kpn", tol: float = DEFAULT_TOL) -> bool:
    """Monte-Carlo centrality oracle: F(x) commutes blockwise with F(y) for random y.

    An independent check of the exact ``is_central_functional``: where
    that test compares each genuine 2x2 block of x with a multiple of I,
    this one multiplies the genuine blocks of x against those of
    ``trials`` random elements.  The values on the one-dimensional
    representations commute with everything, so they are not probed.
    """
    _, bx = _profile_pieces(x, group)
    for _ in range(trials):
        _, by = _profile_pieces(random_element(x.shape, rng), group)
        scale = 1.0 + np.abs(bx).max(axis=(1, 2)) * np.abs(by).max(axis=(1, 2))
        if np.any(np.abs(bx @ by - by @ bx).max(axis=(1, 2)) > tol * scale):
            return False
    return True


def random_central(n: int, rng) -> CentralElement:
    labels = irrep_labels(n)
    coeffs = {l: complex(rng.standard_normal(), rng.standard_normal()) for l in labels}
    return CentralElement(n, coeffs)


def random_central_state(n: int, rng) -> CentralElement:
    """A random state from the positive element c* c, centrally normalized."""
    c = central_to_element(random_central(n, rng))
    y = c.adjoint() * c
    a = element_to_central(y, tol=1e-8)
    norm = a.coefficient(trivial_label()).real
    if norm < 1e-9:
        return random_central_state(n, rng)
    return CentralElement(n, {l: v / norm for l, v in a.coeffs.items()})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
