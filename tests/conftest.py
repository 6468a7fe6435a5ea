import numpy as np
import pytest

from bosepoly.expansion import ExpansionConfig, _expand
from bosepoly.lattice import ModelInstance, OnsiteParams, build_couplings, build_lattice


def make_chain(n, g, beta, U=1.0, mu=0.0, d_c=1, periodic=False):
    """Finite-range chain model used across the suite."""
    lat = build_lattice([n], periodic)
    coup = build_couplings(lat, "finite_range", g=g, d_c=d_c)
    onsite = OnsiteParams.uniform(n, U, mu)
    return ModelInstance(lat, coup, onsite, beta)


def make_long_range_chain(n, g, alpha, beta, U=1.0, mu=0.0):
    lat = build_lattice([n])
    coup = build_couplings(lat, "long_range", g=g, alpha=alpha)
    onsite = OnsiteParams.uniform(n, U, mu)
    return ModelInstance(lat, coup, onsite, beta)


def make_explicit(n, matrix, beta, U=1.0, mu=0.0, periodic=False):
    lat = build_lattice([n], periodic)
    coup = build_couplings(lat, "explicit", matrix=np.asarray(matrix, dtype=float))
    onsite = OnsiteParams.uniform(n, U, mu)
    return ModelInstance(lat, coup, onsite, beta)


def weights_at(model, m, q):
    """The expansion pass's weight of every polymer of size <= m, keyed by
    edge tuple in canonical order."""
    return _expand(model, ExpansionConfig(m=m, q=q), q)[0]


def weight(polymer, model, q):
    return weights_at(model, polymer.size, q)[polymer.edges]


@pytest.fixture
def two_site_model():
    """N=2 single edge, q=1 closed forms: Z = 2 + 2 cosh(beta J)."""
    return make_chain(2, g=0.3, beta=1.0, U=1.0, mu=0.0)
