import itertools
import math

import numpy as np
import pytest

from bosepoly.fock import onsite_energy, restricted_log_partition
from bosepoly.lattice import (
    ModelInstance,
    OnsiteParams,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from bosepoly.oracle import (
    DimensionCapError,
    MonomialOperator,
    annihilate,
    clustering_scan,
    create,
    expectation,
    moments,
    mutual_information,
    number_op,
    occupation_distribution,
    reduced_density_blocks,
    thermalize,
)
from bosepoly.oracle import _normalized, _rescale_beta

import fock_reference
from conftest import make_chain, make_explicit, make_long_range_chain
from fock_reference import dense_thermal_matrix


def connected(state, op_x, op_y):
    """C(O_X, O_Y) = Tr(rho O_X O_Y) - Tr(rho O_X) Tr(rho O_Y)."""
    return expectation(state, op_x * op_y) - expectation(state, op_x) * expectation(state, op_y)


def scalar_gibbs(q, beta, U, mu):
    """On-site Boltzmann weights, the independent oracle for product states."""
    w = np.array([math.exp(-beta * onsite_energy(U, mu, n)) for n in range(q + 1)])
    return w / w.sum()


def test_thermalize_single_site_closed_form():
    model = make_chain(1, g=0.1, beta=1.0, U=1.0, mu=0.0)
    state = thermalize(model, q=2)
    # W = {0, 0, 1}
    assert state.log_z == pytest.approx(math.log(2 + math.exp(-1)), rel=1e-12)


def test_thermalize_two_site_closed_form(two_site_model):
    state = thermalize(two_site_model, q=1)
    assert state.log_z == pytest.approx(math.log(2 + 2 * math.cosh(0.3)), rel=1e-12)


def test_thermalize_infinite_temperature():
    model = make_chain(3, g=0.2, beta=0.7, U=1.0, mu=0.1)
    state = thermalize(model, q=2, beta=0.0)
    assert state.log_z == pytest.approx(3 * math.log(3), abs=1e-12)


def test_thermalize_matches_restricted_log_partition():
    model = make_chain(3, g=0.3, beta=0.4, U=1.2, mu=0.3)
    q = 2
    state = thermalize(model, q)
    direct = restricted_log_partition(
        model, range(3), interaction_edges(model.couplings, 0.0), q
    )
    assert state.log_z == pytest.approx(direct, abs=1e-10)


def _disordered_models():
    # a disordered 2x3 square and a disordered 6-site alpha=3 chain
    rng = np.random.default_rng(7)
    square = build_lattice([2, 3])
    chain = make_long_range_chain(6, g=0.3, alpha=3.0, beta=0.4)
    return [
        ModelInstance(
            square,
            build_couplings(square, "finite_range", g=0.3, d_c=1),
            OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6)),
            0.5,
        ),
        ModelInstance(
            chain.lattice,
            chain.couplings,
            OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6)),
            chain.beta,
        ),
    ]


@pytest.mark.parametrize("model_index", [0, 1])
def test_thermalize_equals_ascending_order_reference(model_index):
    model = _disordered_models()[model_index]
    state = thermalize(model, q=2)
    want = fock_reference.thermalize(model, 2, model.beta)
    assert state.log_z == want.log_z
    assert [b.total for b in state.blocks] == [b.total for b in want.blocks]
    for got_lam, want_lam in zip(state.eigenvalues, want.eigenvalues, strict=True):
        assert np.array_equal(got_lam, want_lam)
    for got_w, want_w in zip(state.amplitudes, want.amplitudes, strict=True):
        assert np.array_equal(got_w, want_w)


def test_thermalize_solves_largest_sector_first(monkeypatch):
    dims = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix):
        dims.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    state = thermalize(_disordered_models()[0], q=2)
    assert sorted(dims) == sorted(b.dim for b in state.blocks)
    assert dims == sorted(dims, reverse=True)


def test_dimension_cap():
    model = make_chain(4, g=0.1, beta=0.1)
    with pytest.raises(DimensionCapError) as err:
        thermalize(model, q=9, dim_cap=100)
    assert err.value.required == 10**4
    assert err.value.allowed == 100


def test_expectation_identity_and_nonconserving(two_site_model):
    state = thermalize(two_site_model, q=1)
    assert expectation(state, MonomialOperator(())) == 1.0
    assert expectation(state, annihilate(0)) == 0.0
    assert expectation(state, create(1)) == 0.0
    assert expectation(state, create(0) * create(1)) == 0.0


def test_expectation_number_at_infinite_temperature():
    for q in (1, 3):
        model = make_chain(2, g=0.2, beta=1.0, U=1.0, mu=0.0)
        state = thermalize(model, q=q, beta=0.0)
        assert expectation(state, number_op(0)) == pytest.approx(q / 2, rel=1e-12)


def test_expectation_out_of_range_support(two_site_model):
    state = thermalize(two_site_model, q=1)
    with pytest.raises(ValueError):
        expectation(state, number_op(5))


def test_correlation_vanishes_for_product_state():
    model = make_explicit(3, np.zeros((3, 3)), beta=0.6, U=1.0, mu=0.2)
    state = thermalize(model, q=2)
    assert connected(state, number_op(0), number_op(2)) == pytest.approx(0.0, abs=1e-12)
    assert connected(state, create(0), annihilate(1)) == pytest.approx(0.0, abs=1e-12)


def test_hopping_correlation_closed_form(two_site_model):
    state = thermalize(two_site_model, q=1)
    got = connected(state, create(0), annihilate(1))
    beta_j = 0.3
    assert got == pytest.approx(math.sinh(beta_j) / (2 + 2 * math.cosh(beta_j)), rel=1e-12)


def test_correlation_against_dense_brute_force():
    # oracle-of-the-oracle: full 4x4 trace with no block machinery
    model = make_chain(2, g=0.3, beta=1.0, U=1.0, mu=0.0)
    q = 1
    basis, rho = dense_thermal_matrix(model, q)
    index = {occ: k for k, occ in enumerate(basis)}
    op = np.zeros((len(basis), len(basis)))
    for k, occ in enumerate(basis):  # a_0^dag a_1
        if occ[1] >= 1 and occ[0] + 1 <= q:
            moved = (occ[0] + 1, occ[1] - 1)
            op[index[moved], k] = math.sqrt((occ[0] + 1) * occ[1])
    dense_value = float(np.trace(rho @ op))

    state = thermalize(model, q)
    assert expectation(state, create(0) * annihilate(1)) == pytest.approx(
        dense_value, rel=1e-12
    )


@pytest.mark.parametrize("n_sites,q", [(2, 2), (3, 1), (3, 2)])
def test_block_routing_matches_dense_density_matrix(n_sites, q):
    rng = np.random.default_rng(11)
    matrix = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            matrix[i, j] = matrix[j, i] = 0.25 * rng.normal()
    model = make_explicit(n_sites, matrix, beta=0.8, U=1.0, mu=0.15)
    state = thermalize(model, q)
    basis, rho = dense_thermal_matrix(model, q)
    index = {occ: k for k, occ in enumerate(basis)}

    monomials = [
        number_op(0),
        create(0) * annihilate(n_sites - 1),
        number_op(0) * number_op(n_sites - 1),
        create(0) * annihilate(0) * create(0) * annihilate(0),
    ]
    for op in monomials:
        dense_op = np.zeros_like(rho)
        for k, occ in enumerate(basis):
            coef = 1.0
            target = list(occ)
            dead = False
            for site, kind in reversed(op.factors):
                n = target[site]
                if kind == "annihilate":
                    if n == 0:
                        dead = True
                        break
                    coef *= math.sqrt(n)
                    target[site] = n - 1
                else:
                    if n + 1 > q:
                        dead = True
                        break
                    coef *= math.sqrt(n + 1)
                    target[site] = n + 1
            if not dead:
                dense_op[index[tuple(target)], k] = coef
        want = float(np.trace(rho @ dense_op))
        assert expectation(state, op) == pytest.approx(want, abs=1e-12)


def test_moments_product_state_matches_scalar_sums():
    model = make_explicit(2, np.zeros((2, 2)), beta=0.3, U=1.0, mu=0.2)
    q = 4
    state = thermalize(model, q)
    p = scalar_gibbs(q, 0.3, 1.0, 0.2)
    ns = np.arange(q + 1)
    got = moments(state, 0, 4)
    for l in range(1, 5):
        assert got[l - 1] == pytest.approx(float((ns**l * p).sum()), rel=1e-12)


def test_moments_infinite_temperature_q1():
    model = make_chain(2, g=0.2, beta=1.0, U=1.0, mu=0.0)
    state = thermalize(model, q=1, beta=0.0)
    first, second = moments(state, 0, 2)
    assert first == pytest.approx(0.5, rel=1e-12)
    assert second == pytest.approx(0.5, rel=1e-12)


def test_occupation_distribution_product_state():
    model = make_explicit(2, np.zeros((2, 2)), beta=0.4, U=1.0, mu=0.3)
    q = 3
    state = thermalize(model, q)
    p = occupation_distribution(state, 1)
    expected = scalar_gibbs(q, 0.4, 1.0, 0.3)
    assert np.allclose(p, expected, atol=1e-12)
    assert sum(p) == pytest.approx(1.0, abs=1e-10)


def test_occupation_distribution_uniform_at_beta_zero():
    model = make_chain(2, g=0.2, beta=1.0, U=1.0, mu=0.0)
    state = thermalize(model, q=3, beta=0.0)
    assert np.allclose(occupation_distribution(state, 0), [0.25] * 4, atol=1e-12)


def test_occupation_boltzmann_ratio_squares_when_beta_doubles():
    q = 4
    p1 = scalar_gibbs(q, 0.3, 1.0, 0.0)
    p2 = scalar_gibbs(q, 0.6, 1.0, 0.0)
    model1 = make_explicit(1, [[0.0]], beta=0.3, U=1.0, mu=0.0)
    model2 = make_explicit(1, [[0.0]], beta=0.6, U=1.0, mu=0.0)
    got1 = occupation_distribution(thermalize(model1, q), 0)
    got2 = occupation_distribution(thermalize(model2, q), 0)
    for n in range(q + 1):
        assert got2[n] / got2[0] == pytest.approx((got1[n] / got1[0]) ** 2, rel=1e-9)
        assert got1[n] == pytest.approx(p1[n], rel=1e-12)
        assert got2[n] == pytest.approx(p2[n], rel=1e-12)


def test_mutual_information_product_state_is_zero():
    model = make_explicit(4, np.zeros((4, 4)), beta=0.5, U=1.0, mu=0.2)
    state = thermalize(model, q=2)
    for a in ([0], [0, 1], [0, 2]):
        b = [i for i in range(4) if i not in a]
        assert abs(mutual_information(state, (a, b))) <= 1e-10


def test_mutual_information_nonnegative_and_shrinks_with_beta():
    values = []
    for beta in (0.2, 0.1, 0.05):
        model = make_chain(4, g=0.5, beta=beta, U=1.0, mu=0.0)
        state = thermalize(model, q=2)
        value = mutual_information(state, ([0, 1], [2, 3]))
        assert value >= -1e-10
        values.append(value)
    assert values[0] > values[1] > values[2]


def test_mutual_information_partition_validation(two_site_model):
    state = thermalize(two_site_model, q=1)
    with pytest.raises(ValueError):
        mutual_information(state, ([0, 1], []))
    with pytest.raises(ValueError):
        mutual_information(state, ([0], [0, 1]))


def test_mutual_information_against_dense_entropies():
    # independent path: entropies from the dense rho and explicit kron traces
    model = make_chain(3, g=0.4, beta=0.5, U=1.0, mu=0.1)
    q = 1
    state = thermalize(model, q)
    basis, rho = dense_thermal_matrix(model, q)

    def dense_reduced(keep):
        dim_keep = (q + 1) ** len(keep)
        out = np.zeros((dim_keep, dim_keep))
        keep_index = {}
        for k, occ in enumerate(basis):
            key = tuple(occ[i] for i in keep)
            keep_index.setdefault(key, len(keep_index))
        for k1, o1 in enumerate(basis):
            for k2, o2 in enumerate(basis):
                if all(o1[i] == o2[i] for i in range(3) if i not in keep):
                    out[keep_index[tuple(o1[i] for i in keep)],
                        keep_index[tuple(o2[i] for i in keep)]] += rho[k1, k2]
        return out

    def entropy(mat):
        ev = np.linalg.eigvalsh(mat)
        ev = ev[ev > 1e-300]
        return float(-(ev * np.log(ev)).sum())

    a, b = [0], [1, 2]
    want = entropy(dense_reduced(a)) + entropy(dense_reduced(b)) - entropy(rho)
    got = mutual_information(state, (a, b))
    assert got == pytest.approx(want, abs=1e-10)


def test_one_pass_mutual_information_equals_two_pass_reference():
    # a 6-site alpha=3 chain with disordered on-site terms, q=2 (13 sectors
    # of up to 141 states); contiguous and interleaved bipartitions
    model = make_long_range_chain(6, g=0.3, alpha=3.0, beta=0.4)
    rng = np.random.default_rng(5)
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6))
    model = ModelInstance(model.lattice, model.couplings, onsite, model.beta)
    state = thermalize(model, q=2)
    for a in ([0], [0, 1, 2], [1, 4], [0, 2, 5]):
        b = [i for i in range(6) if i not in a]
        got = mutual_information(state, (a, b))
        assert got > 0.0
        assert abs(got - fock_reference.mutual_information(state, (a, b))) <= 1e-14
        for side, blocks in zip((a, b), reduced_density_blocks(state, (a, b))):
            want = fock_reference.reduced_density_blocks(state, side)
            assert list(blocks) == list(want)
            for total, mat in blocks.items():
                assert mat.shape == want[total].shape
                assert np.abs(mat - want[total]).max() <= 1e-14


def test_amplitude_factors_reproduce_dense_thermal_matrix():
    # a disordered 2x3 square at q=2: each sector's W W^T is that sector's
    # rows and columns of the dense product-basis rho
    lattice = build_lattice([2, 3])
    rng = np.random.default_rng(3)
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6))
    couplings = build_couplings(lattice, "finite_range", g=0.3, d_c=1)
    model = ModelInstance(lattice, couplings, onsite, 0.5)
    state = thermalize(model, q=2)
    _basis, rho = dense_thermal_matrix(model, q=2)
    covered = 0
    for block, W in zip(state.blocks, state.amplitudes):
        want = rho[np.ix_(block.codes, block.codes)]
        assert np.abs(W @ W.T - want).max() <= 1e-14, f"sector {block.total}"
        covered += block.dim
    assert covered == rho.shape[0]


def test_rescale_beta_matches_a_fresh_thermal_state():
    wide = make_chain(3, g=0.3, beta=1.0, U=6.0, mu=0.5)
    for model, q, start, beta in ((_disordered_models()[1], 2, 0.3, 0.8), (wide, 3, 1.0, 100.0)):
        state = _rescale_beta(thermalize(model, q, beta=start), beta)
        want = thermalize(model, q, beta=beta)
        assert state.beta == beta and state.log_z == want.log_z
        for got_w, want_w in zip(state.amplitudes, want.amplitudes, strict=True):
            assert np.abs(got_w - want_w).max() <= 1e-14


def test_rescale_beta_only_rises():
    state = thermalize(_disordered_models()[1], 2, beta=0.8)
    with pytest.raises(ValueError, match="cannot rescale"):
        _rescale_beta(state, 0.3)


def test_normalization_check_reads_the_amplitudes():
    state = thermalize(_disordered_models()[1], 2, beta=0.8)
    state.amplitudes[-1][0, 0] = np.nan
    with pytest.raises(ArithmeticError, match="normalization"):
        _normalized(state)


def test_clustering_scan_zero_couplings_has_no_fit():
    model = make_explicit(4, np.zeros((4, 4)), beta=0.2, U=1.0, mu=0.0)
    state = thermalize(model, q=1)
    scan = clustering_scan(state, "hopping", anchor=0)
    assert all(abs(r.value) <= 1e-13 for r in scan.rows)
    assert scan.fitted_exponent is None


def test_clustering_scan_phi_reference():
    model = make_long_range_chain(3, g=0.1, alpha=2.0, beta=0.04, U=1.0, mu=0.0)
    state = thermalize(model, q=1)
    scan = clustering_scan(state, "hopping", anchor=0)
    assert scan.rows[0].phi_ref == pytest.approx(0.04 ** (-0.5))
    for row in scan.rows:
        assert row.bound_ref == pytest.approx(row.phi_ref / (1 + row.distance) ** 2.0)
        assert row.ratio == pytest.approx(
            abs(row.value) * (1 + row.distance) ** 2.0 / row.phi_ref
        )
    # rows are sorted by distance
    assert [r.distance for r in scan.rows] == sorted(r.distance for r in scan.rows)


def test_clustering_scan_monotone_decay_small_chain():
    model = make_long_range_chain(6, g=0.1, alpha=3.0, beta=0.1, U=1.0, mu=0.0)
    state = thermalize(model, q=1)
    scan = clustering_scan(state, "hopping", anchor=0)
    mags = [abs(r.value) for r in scan.rows]
    assert all(a >= b - 1e-13 for a, b in zip(mags, mags[1:]))


def test_clustering_scan_density_family(two_site_model):
    state = thermalize(two_site_model, q=1)
    scan = clustering_scan(state, "density", anchor=0)
    # N(n_i) = 2 on each side: Phi = sqrt(2! * 2!) * beta^(-1) = 2 at beta = 1
    assert scan.rows[0].phi_ref == pytest.approx(2.0)
    got = scan.rows[0].value
    assert got == pytest.approx(connected(state, number_op(0), number_op(1)), rel=1e-12)

    # the anchor's mean is computed once per scan; every row is still the
    # exact correlation value
    model = make_long_range_chain(5, g=0.3, alpha=3.0, beta=0.4, U=1.0, mu=0.3)
    state = thermalize(model, q=2)
    for family, op_x, op_y in (("density", number_op, number_op),
                               ("hopping", create, annihilate)):
        scan = clustering_scan(state, family, anchor=1)
        assert len(scan.rows) == 4
        for row in scan.rows:
            assert row.value == connected(state, op_x(1), op_y(row.site_b))


def test_hopping_correlation_symmetric_for_real_couplings():
    model = make_long_range_chain(4, g=0.3, alpha=2.0, beta=0.4, U=1.0, mu=0.1)
    state = thermalize(model, q=2)
    for i, j in ((0, 1), (0, 3), (1, 2)):
        ab = connected(state, create(i), annihilate(j))
        ba = connected(state, create(j), annihilate(i))
        assert ab == pytest.approx(ba, abs=1e-10)


def test_hermitian_monomial_expectations_are_real_floats():
    model = make_chain(3, g=0.4, beta=0.5, U=1.0, mu=0.2)
    state = thermalize(model, q=2)
    for op in (number_op(0), number_op(1) * number_op(2)):
        value = expectation(state, op)
        assert isinstance(value, float)
        assert math.isfinite(value)
