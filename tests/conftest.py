import os

# One BLAS thread, set before numpy loads: beside another busy process on a
# small machine, spare BLAS threads contend for the busy core and the
# time-budgeted tests slow down.  A variable already set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

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


def weights_at(model, m, q, threshold=0.0):
    """The expansion pass's weight of every polymer of size <= m, keyed by
    edge tuple in canonical order."""
    return _expand(model, ExpansionConfig(m=m, q=q, polymer_threshold=threshold), q)[0]


def weight(polymer, model, q):
    """The weight of one polymer, given as its sorted edge tuple."""
    return weights_at(model, len(polymer), q)[polymer]


def support(polymer):
    """The sites of a polymer's edges."""
    return frozenset(s for e in polymer for s in e)


@pytest.fixture
def two_site_model():
    """N=2 single edge, q=1 closed forms: Z = 2 + 2 cosh(beta J)."""
    return make_chain(2, g=0.3, beta=1.0, U=1.0, mu=0.0)
