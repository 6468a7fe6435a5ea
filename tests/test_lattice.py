import itertools
import re
import time
import warnings

import numpy as np
import pytest
from lattice_reference import bfs_distance_matrix, loop_interaction_edges

from bosepoly.cli import build_model
from bosepoly.lattice import (
    MAX_SITES,
    CouplingError,
    ModelInstance,
    OnsiteParams,
    ResourceCapError,
    build_couplings,
    build_lattice,
    distance_matrix,
    interaction_edges,
)


def test_chain_of_four():
    lat = build_lattice([4])
    assert lat.n_sites == 4
    assert distance_matrix(lat)[0, 3] == 3


def test_lattice_past_the_site_cap_is_refused():
    assert build_lattice([MAX_SITES]).n_sites == MAX_SITES
    with pytest.raises(ResourceCapError) as info:
        build_lattice([MAX_SITES // 2 + 1, 2])
    assert (info.value.required, info.value.allowed) == (MAX_SITES + 2, MAX_SITES)


def test_grid_2x2():
    lat = build_lattice([2, 3])
    assert lat.n_sites == 6
    # row-major: site 2 = (0,2), site 3 = (1,0)
    d = distance_matrix(lat)
    assert d[0, 3] == 1
    assert d[0, 2] == 2
    assert distance_matrix(build_lattice([2, 2]))[0, 3] == 2


SWEEP = [
    (list(dims), periodic)
    for n_dims in (1, 2, 3)
    for dims in itertools.product(range(1, 6), repeat=n_dims)
    for periodic in (False, True)
]


def test_distance_matrix_equals_breadth_first_search():
    assert len(SWEEP) == 310
    for dims, periodic in SWEEP:
        lat = build_lattice(dims, periodic)
        d = distance_matrix(lat)
        ref = bfs_distance_matrix(lat)
        assert d.dtype == ref.dtype, (dims, periodic)
        assert np.array_equal(d, ref), (dims, periodic)


def test_periodic_ring_wraps():
    lat = build_lattice([3], periodic=True)
    assert distance_matrix(lat)[0, 2] == 1


def test_empty_dims_rejected():
    with pytest.raises(ValueError):
        build_lattice([])
    with pytest.raises(ValueError):
        build_lattice([0, 2])


def test_out_of_range_site():
    lat = build_lattice([3])
    with pytest.raises(ValueError):
        lat._check_site(3)
    with pytest.raises(ValueError):
        lat._check_site(-1)
    lat._check_site(2)


@pytest.mark.parametrize(
    "dims,periodic",
    [([5], False), ([5], True), ([2, 3], False), ([2, 3], True), ([2, 2, 2], False), ([16], False)],
)
def test_distance_is_a_metric(dims, periodic):
    lat = build_lattice(dims, periodic)
    n = lat.n_sites
    d = distance_matrix(lat)
    for i in range(n):
        assert d[i, i] == 0
        for j in range(n):
            assert (d[i, j] == 0) == (i == j)
            assert d[i, j] == d[j, i]
            for k in range(n):
                assert d[i, k] <= d[i, j] + d[j, k]


def test_long_range_values_chain3():
    lat = build_lattice([3])
    coup = build_couplings(lat, "long_range", g=1.0, alpha=2.0)
    assert coup[0, 1] == pytest.approx(1 / 4)
    assert coup[1, 2] == pytest.approx(1 / 4)
    assert coup[0, 2] == pytest.approx(1 / 9)


def test_long_range_envelope_saturated_exactly():
    lat = build_lattice([2, 3])
    g, alpha = 0.7, 3.5
    coup = build_couplings(lat, "long_range", g=g, alpha=alpha)
    d = distance_matrix(lat)
    n = lat.n_sites
    for i in range(n):
        for j in range(n):
            if i != j:
                assert abs(coup[i, j]) * (1 + d[i, j]) ** alpha == pytest.approx(g)
            else:
                assert coup[i, j] == 0.0


def test_finite_range_cutoff():
    lat = build_lattice([3])
    coup = build_couplings(lat, "finite_range", g=1.0, d_c=1)
    assert coup[0, 1] == 1.0
    assert coup[1, 2] == 1.0
    assert coup[0, 2] == 0.0


def test_explicit_zero_matrix_valid_for_any_kind():
    lat = build_lattice([3])
    zero = np.zeros((3, 3))
    for kind, kwargs in [
        ("explicit", {}),
        ("long_range", {"g": 1.0, "alpha": 2.0}),
        ("finite_range", {"g": 1.0, "d_c": 1}),
    ]:
        coup = build_couplings(lat, kind, matrix=zero, **kwargs)
        assert np.all(coup == 0)


def test_explicit_matrix_validated_against_declared_bound():
    lat = build_lattice([3])
    bad = np.zeros((3, 3))
    bad[0, 2] = bad[2, 0] = 0.5  # distance 2 exceeds d_c = 1
    with pytest.raises(CouplingError, match=r"0,2|\[0,2\]"):
        build_couplings(lat, "finite_range", g=1.0, d_c=1, matrix=bad)
    # the same matrix is fine as an undeclared explicit kind
    coup = build_couplings(lat, "explicit", matrix=bad)
    assert coup.tolist() == bad.tolist()
    assert coup.dtype == np.float64 and not coup.flags.writeable


def test_explicit_matrix_validated_against_long_range_envelope():
    lat = build_lattice([3])
    bad = np.zeros((3, 3))
    bad[0, 1] = bad[1, 0] = 0.25  # the envelope g/(1+d)^alpha at d = 1
    bad[0, 2] = bad[2, 0] = 0.2  # above 1/9 at d = 2
    with pytest.raises(CouplingError) as info:
        build_couplings(lat, "long_range", g=1.0, alpha=2.0, matrix=bad)
    message = str(info.value)
    assert "[0,2]" in message and "0.2" in message
    assert repr(1 / 9) in message and "d = 2" in message
    bad[0, 2] = bad[2, 0] = 1 / 9
    coup = build_couplings(lat, "long_range", g=1.0, alpha=2.0, matrix=bad)
    assert coup.tolist() == bad.tolist()
    assert coup.dtype == np.float64 and not coup.flags.writeable


def test_asymmetric_and_diagonal_rejected():
    lat = build_lattice([2])
    with pytest.raises(CouplingError):
        build_couplings(lat, "explicit", matrix=np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(CouplingError):
        build_couplings(lat, "explicit", matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_long_range_alpha_must_exceed_dimension():
    lat = build_lattice([2, 2])
    with pytest.raises(CouplingError):
        build_couplings(lat, "long_range", g=1.0, alpha=2.0)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("kind,params", [
    ("long_range", {"g": 1.0, "alpha": 3.0}),
    ("finite_range", {"g": 1.0, "d_c": 1}),
])
def test_non_finite_coupling_parameters_are_refused(kind, params, value):
    lat = build_lattice([3])
    for name in ("g", "alpha") if kind == "long_range" else ("g",):
        with pytest.raises(CouplingError, match=f"finite .* {name} >"):
            build_couplings(lat, kind, **dict(params, **{name: value}))


@pytest.mark.parametrize("value", _NON_FINITE)
def test_non_finite_matrix_entry_is_refused(value):
    matrix = np.array([[0.0, value], [value, 0.0]])
    with pytest.raises(CouplingError, match="must be finite"):
        build_couplings(build_lattice([2]), "explicit", matrix=matrix)


def test_matrix_integer_past_the_float_range_is_refused():
    # float(10**400) raises OverflowError, an ArithmeticError; as a bad
    # input it is a CouplingError
    with pytest.raises(CouplingError, match="^coupling matrix entries must be finite$"):
        build_couplings(build_lattice([2]), "explicit", matrix=[[0, 10**400], [10**400, 0]])


def test_nan_threshold_is_refused():
    coup = build_couplings(build_lattice([3]), "long_range", g=1.0, alpha=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        interaction_edges(coup, float("nan"))


def test_interaction_edges():
    lat = build_lattice([3])
    zero = build_couplings(lat, "explicit", matrix=np.zeros((3, 3)))
    assert interaction_edges(zero, 0.0) == ()

    fr = build_couplings(lat, "finite_range", g=1.0, d_c=1)
    assert interaction_edges(fr, 0.0) == ((0, 1), (1, 2))

    lr = build_couplings(lat, "long_range", g=1.0, alpha=2.0)
    assert interaction_edges(lr, 0.0) == ((0, 1), (0, 2), (1, 2))


def test_finite_range_edges_never_beyond_cutoff():
    for dims, d_c in [([6], 1), ([6], 2), ([3, 3], 1)]:
        lat = build_lattice(dims)
        coup = build_couplings(lat, "finite_range", g=0.4, d_c=d_c)
        d = distance_matrix(lat)
        for (i, j) in interaction_edges(coup, 0.0):
            assert d[i, j] <= d_c


def test_interaction_edges_threshold_drops_small_couplings():
    lat = build_lattice([4])
    coup = build_couplings(lat, "long_range", g=1.0, alpha=2.0)
    # J at distance 3 is 1/16; a threshold of 0.1 keeps only d <= 2
    edges = interaction_edges(coup, 0.1)
    assert (0, 3) not in edges
    assert (0, 1) in edges and (0, 2) in edges


def test_onsite_params_validation():
    with pytest.raises(ValueError):
        OnsiteParams.uniform(2, 0.0, 0.1)
    with pytest.raises(ValueError):
        OnsiteParams(np.array([1.0, 1.0]), np.array([0.0]))
    p = OnsiteParams(np.array([1.0, 2.0]), np.array([-0.3, 0.5]))
    assert p.U.tolist() == [1.0, 2.0] and p.mu.tolist() == [-0.3, 0.5]


def _model(n_couplings=2, n_onsite=2, beta=1.0):
    return ModelInstance(build_lattice([2]), np.zeros((n_couplings, n_couplings)),
                         OnsiteParams.uniform(n_onsite, 1.0, 0.5), beta)


# each refusal of the lattice layer, as (id, call, exception, message)
_REFUSALS = [
    ("non-finite-mu", lambda: OnsiteParams(np.array([1.0]), np.array([np.nan])),
     ValueError, "on-site parameters must be finite"),
    ("complex-matrix", lambda: build_couplings(build_lattice([2]), "explicit",
                                               matrix=np.array([[0, 1j], [-1j, 0]])),
     CouplingError, "complex couplings are not supported"),
    ("matrix-shape", lambda: build_couplings(build_lattice([2]), "explicit", matrix=[[0.0]]),
     CouplingError, "coupling matrix must be 2x2, got (1, 1)"),
    ("cutoff-below-one", lambda: build_couplings(build_lattice([2]), "finite_range", g=1.0, d_c=0),
     CouplingError, "finite_range requires integer cutoff d_c >= 1"),
    ("explicit-without-matrix", lambda: build_couplings(build_lattice([2]), "explicit"),
     CouplingError, "explicit kind requires a matrix"),
    ("unknown-kind", lambda: build_couplings(build_lattice([2]), "dipolar"),
     CouplingError, "unknown coupling kind 'dipolar'"),
    ("model-couplings-size", lambda: _model(n_couplings=3),
     ValueError, "coupling matrix size does not match lattice"),
    ("model-onsite-size", lambda: _model(n_onsite=3),
     ValueError, "on-site parameter arrays do not match lattice size"),
    ("model-beta", lambda: _model(beta=0.0),
     ValueError, "inverse temperature beta must be positive and finite"),
]


@pytest.mark.parametrize("call,exception,message", [case[1:] for case in _REFUSALS],
                         ids=[case[0] for case in _REFUSALS])
def test_lattice_refusals(call, exception, message):
    # the refusal comes first: no warning (numpy's complex cast) before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exception, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("threshold", [0.0, 0.1])
def test_interaction_edges_equal_the_pair_loop(threshold):
    rng = np.random.default_rng(3)
    lat = build_lattice([3, 4], periodic=True)
    random = rng.uniform(-0.3, 0.3, (12, 12)) * (rng.random((12, 12)) < 0.5)
    random = np.triu(random, 1) + np.triu(random, 1).T
    for coup in [
        build_couplings(lat, "long_range", g=0.9, alpha=2.5),
        build_couplings(lat, "finite_range", g=0.4, d_c=2),
        build_couplings(lat, "explicit", matrix=random),
    ]:
        edges = interaction_edges(coup, threshold)
        assert edges == loop_interaction_edges(coup, threshold)
        assert all(type(i) is int and type(j) is int for i, j in edges)


@pytest.mark.parametrize(
    "coupling",
    [{"kind": "finite_range", "g": 0.1, "d_c": 2},
     {"kind": "long_range", "g": 0.1, "alpha": 3.0}],
)
def test_build_model_of_a_2000_site_chain_is_fast(coupling):
    config = {"model": {"dims": [2000], "coupling": coupling, "U": 1.0, "mu": 0.5,
                        "beta": 1.0}}
    start = time.perf_counter()
    model = build_model(config)
    assert time.perf_counter() - start < 5.0
    envelope = {"finite_range": [0.1, 0.1, 0.0], "long_range": [0.1 / 8, 0.1 / 27, 0.1 / 64]}
    assert model.couplings[0, 1:4].tolist() == envelope[coupling["kind"]]
