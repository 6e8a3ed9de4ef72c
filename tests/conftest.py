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

    An independent check of the exact ``is_central_functional``: it
    multiplies the Fourier pieces of x against those of ``trials`` random
    elements and needs no knowledge of which blocks are genuine.
    """
    mats_x = _profile_pieces(x, group)
    for _ in range(trials):
        y = random_element(x.shape, rng)
        for mx, my in zip(mats_x, _profile_pieces(y, group)):
            scale = 1.0 + np.abs(mx).max() * np.abs(my).max()
            if np.abs(mx @ my - my @ mx).max() > tol * scale:
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
