import itertools
import math

import numpy as np
import pytest

from bosepoly.fock import EigensolverError, onsite_energy, restricted_log_partition
from bosepoly.lattice import (
    ModelInstance,
    OnsiteParams,
    ResourceCapError,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from bosepoly.oracle import (
    Clustering,
    Moments,
    MutualInformation,
    OccupationDistribution,
    thermalize,
)

import fock_reference
from conftest import make_chain, make_explicit, make_long_range_chain
from fock_reference import dense_thermal_matrix


def observe(model, q, *observables, beta=None):
    """The values of ``observables`` on one thermal state."""
    return thermalize(model, q, observables, beta=beta).values


def correlations(model, q, family, anchor):
    """The scan's row values keyed by the other site."""
    return {r.site_b: r.value for r in clustering_scan(model, q, family, anchor).rows}


def clustering_scan(model, q, family, anchor):
    return observe(model, q, Clustering(family, anchor))[0]


def mutual_information(model, q, partition):
    return observe(model, q, MutualInformation(partition))[0]


class Terms(Clustering):
    """The scan's summed terms [<O_x>, <O_x O_j>..., <O_j>...], in place of
    its rows."""

    def value(self, total, state):
        return total[0]


def dense_correlation(basis, rho, q, family, x, j) -> float:
    """C(a_x^dag, a_j) or C(n_x, n_j) against the product-basis rho, with
    each operator built entry by entry.  a_x^dag and a_j alone change the
    number, so their means vanish and the hopping value is Tr(rho a_x^dag a_j);
    the density value is Tr(rho (n_x - <n_x>)(n_j - <n_j>)), whose terms do
    not cancel, so its own roundoff stays well below 1e-15."""
    index = {occ: k for k, occ in enumerate(basis)}

    def trace(op):
        return float(np.einsum("ij,ji->", rho, op))

    if family == "density":
        n = np.array(basis, dtype=np.float64)
        mean_x, mean_j = (trace(np.diag(n[:, k])) for k in (x, j))
        return trace(np.diag((n[:, x] - mean_x) * (n[:, j] - mean_j)))
    hop = np.zeros_like(rho)
    for k, occ in enumerate(basis):
        if occ[j] >= 1 and occ[x] < q:
            moved = list(occ)
            moved[j] -= 1
            moved[x] += 1
            hop[index[tuple(moved)], k] = math.sqrt((occ[x] + 1) * occ[j])
    return trace(hop)


def assert_rows_match_dense(model, q):
    """Every row of every anchor's scan, both families, against the dense rho:
    within 1e-14 relative or 1e-15 absolute."""
    basis, rho = dense_thermal_matrix(model, q)
    requests = [Clustering(family, x) for family in ("hopping", "density")
                for x in range(model.n_sites)]
    for request, scan in zip(requests, observe(model, q, *requests), strict=True):
        assert len(scan.rows) == model.n_sites - 1
        for row in scan.rows:
            want = dense_correlation(basis, rho, q, request.family, request.anchor, row.site_b)
            assert abs(row.value - want) <= max(1e-14 * abs(want), 1e-15), (row, want)


def test_mutual_information_adds_its_entropies_left_to_right(monkeypatch):
    # the sum is the same on every Python: builtin sum() compensates from 3.12
    # on and would give 2.0 here; left to right, 1.0 is lost against 1e16
    import types

    import bosepoly.oracle

    entropies = [0.1] * 10 + [1e16, 1.0, -1e16]
    monkeypatch.setattr(bosepoly.oracle, "_entropy_from_probabilities", lambda p: p)
    monkeypatch.setattr(bosepoly.oracle, "_symmetric_eigenvalues", lambda mat, where: mat)
    state = types.SimpleNamespace(blocks=entropies, block_probabilities=entropies.__getitem__,
                                  q=1)
    # two one-site sides, each with two number blocks of entropy 0
    assert MutualInformation(((0,), (1,))).value([0.0] * 4, state) == 0.0


class ReducedBlocks(MutualInformation):
    """Both sides' reduced blocks, in place of the mutual information."""

    value = MutualInformation.reduced_blocks


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
    # no eigenvectors are held; what they gave agrees with the held ones
    got = observe(model, 2, Moments(1, 3), OccupationDistribution(4))
    for values, want_values in zip(got, (fock_reference.moments(want, 1, 3),
                                         fock_reference.occupation_distribution(want, 4))):
        assert np.abs(np.subtract(values, want_values)).max() <= 1e-14 * max(values)


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
    model = make_chain(5, g=0.1, beta=0.1)
    with pytest.raises(ResourceCapError) as err:
        thermalize(model, q=9)
    assert err.value.required == 10**5
    assert err.value.allowed == 20000


def test_clustering_anchor_outside_the_lattice_is_refused_before_any_solve(two_site_model,
                                                                          monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    with pytest.raises(ValueError):
        clustering_scan(two_site_model, 1, "hopping", anchor=5)


def test_correlation_vanishes_for_product_state():
    model = make_explicit(3, np.zeros((3, 3)), beta=0.6, U=1.0, mu=0.2)
    for family in ("density", "hopping"):
        for value in correlations(model, 2, family, 0).values():
            assert value == pytest.approx(0.0, abs=1e-12)


def test_hopping_correlation_closed_form(two_site_model):
    got = correlations(two_site_model, 1, "hopping", 0)[1]
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

    assert correlations(model, q, "hopping", 0)[1] == pytest.approx(dense_value, rel=1e-12)


@pytest.mark.parametrize("n_sites,q", [(2, 2), (3, 1), (3, 2)])
def test_block_routing_matches_dense_density_matrix(n_sites, q):
    # all-to-all random couplings: every hop a_x^dag a_j lands inside its sector
    rng = np.random.default_rng(11)
    matrix = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            matrix[i, j] = matrix[j, i] = 0.25 * rng.normal()
    assert_rows_match_dense(make_explicit(n_sites, matrix, beta=0.8, U=1.0, mu=0.15), q)


@pytest.mark.parametrize("model_index", [0, 1])
def test_clustering_rows_match_dense_thermal_matrix(model_index):
    # a disordered 2x3 square and a disordered alpha=3 long-range chain, q=2
    assert_rows_match_dense(_disordered_models()[model_index], 2)


def test_moments_product_state_matches_scalar_sums():
    model = make_explicit(2, np.zeros((2, 2)), beta=0.3, U=1.0, mu=0.2)
    q = 4
    p = scalar_gibbs(q, 0.3, 1.0, 0.2)
    ns = np.arange(q + 1)
    (got,) = observe(model, q, Moments(0, 4))
    for l in range(1, 5):
        assert got[l - 1] == pytest.approx(float((ns**l * p).sum()), rel=1e-12)


def test_moments_infinite_temperature_q1():
    model = make_chain(2, g=0.2, beta=1.0, U=1.0, mu=0.0)
    ((first, second),) = observe(model, 1, Moments(0, 2), beta=0.0)
    assert first == pytest.approx(0.5, rel=1e-12)
    assert second == pytest.approx(0.5, rel=1e-12)


def test_occupation_distribution_product_state():
    model = make_explicit(2, np.zeros((2, 2)), beta=0.4, U=1.0, mu=0.3)
    q = 3
    (p,) = observe(model, q, OccupationDistribution(1))
    expected = scalar_gibbs(q, 0.4, 1.0, 0.3)
    assert np.allclose(p, expected, atol=1e-12)
    assert sum(p) == pytest.approx(1.0, abs=1e-10)


def test_occupation_distribution_uniform_at_beta_zero():
    model = make_chain(2, g=0.2, beta=1.0, U=1.0, mu=0.0)
    (p,) = observe(model, 3, OccupationDistribution(0), beta=0.0)
    assert np.allclose(p, [0.25] * 4, atol=1e-12)


def test_occupation_boltzmann_ratio_squares_when_beta_doubles():
    q = 4
    p1 = scalar_gibbs(q, 0.3, 1.0, 0.0)
    p2 = scalar_gibbs(q, 0.6, 1.0, 0.0)
    model1 = make_explicit(1, [[0.0]], beta=0.3, U=1.0, mu=0.0)
    model2 = make_explicit(1, [[0.0]], beta=0.6, U=1.0, mu=0.0)
    (got1,) = observe(model1, q, OccupationDistribution(0))
    (got2,) = observe(model2, q, OccupationDistribution(0))
    for n in range(q + 1):
        assert got2[n] / got2[0] == pytest.approx((got1[n] / got1[0]) ** 2, rel=1e-9)
        assert got1[n] == pytest.approx(p1[n], rel=1e-12)
        assert got2[n] == pytest.approx(p2[n], rel=1e-12)


def test_mutual_information_product_state_is_zero():
    model = make_explicit(4, np.zeros((4, 4)), beta=0.5, U=1.0, mu=0.2)
    for a in ([0], [0, 1], [0, 2]):
        b = [i for i in range(4) if i not in a]
        assert abs(mutual_information(model, 2, (a, b))) <= 1e-10


def test_mutual_information_nonnegative_and_shrinks_with_beta():
    values = []
    for beta in (0.2, 0.1, 0.05):
        model = make_chain(4, g=0.5, beta=beta, U=1.0, mu=0.0)
        value = mutual_information(model, 2, ([0, 1], [2, 3]))
        assert value >= -1e-10
        values.append(value)
    assert values[0] > values[1] > values[2]


def test_mutual_information_partition_validation(two_site_model):
    with pytest.raises(ValueError):
        mutual_information(two_site_model, 1, ([0, 1], []))
    with pytest.raises(ValueError):
        mutual_information(two_site_model, 1, ([0], [0, 1]))


def test_mutual_information_rejects_a_repeated_site():
    with pytest.raises(ValueError, match="partition must split the lattice"):
        mutual_information(make_chain(4, g=0.3, beta=0.5), 1, ([0, 0, 1], [2, 3]))


def test_mutual_information_against_dense_entropies():
    # independent path: entropies from the dense rho and explicit kron traces
    model = make_chain(3, g=0.4, beta=0.5, U=1.0, mu=0.1)
    q = 1
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
    got = mutual_information(model, q, (a, b))
    assert got == pytest.approx(want, abs=1e-10)


def test_one_pass_mutual_information_equals_two_pass_reference():
    # a 6-site alpha=3 chain with disordered on-site terms, q=2 (13 sectors
    # of up to 141 states); contiguous and interleaved bipartitions
    model = make_long_range_chain(6, g=0.3, alpha=3.0, beta=0.4)
    rng = np.random.default_rng(5)
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6))
    model = ModelInstance(model.lattice, model.couplings, onsite, model.beta)
    held = fock_reference.thermalize(model, 2, model.beta)
    for a in ([0], [0, 1, 2], [1, 4], [0, 2, 5]):
        b = [i for i in range(6) if i not in a]
        got, reduced = observe(model, 2, MutualInformation((a, b)), ReducedBlocks((a, b)))
        assert got > 0.0
        assert abs(got - fock_reference.mutual_information(held, (a, b))) <= 1e-14
        for side, blocks in zip((a, b), reduced):
            want = fock_reference.reduced_density_blocks(held, side)
            assert list(blocks) == list(want)
            for total, mat in blocks.items():
                assert mat.shape == want[total].shape
                assert np.abs(mat - want[total]).max() <= 1e-14


class RhoBlocks:
    """Records Z_N-normalized W W^T of every sector it is handed."""

    def __init__(self):
        self.blocks = {}

    def check(self, model):
        pass

    def partial(self, block, W, diag):
        self.blocks[block.total] = W @ W.T
        return ()

    def value(self, total, state):
        return self.blocks


def test_amplitude_factors_reproduce_dense_thermal_matrix():
    # a disordered 2x3 square at q=2: each sector's W W^T, times its weight
    # Z_N / Z, is that sector's rows and columns of the dense product-basis rho
    lattice = build_lattice([2, 3])
    rng = np.random.default_rng(3)
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, 6), rng.uniform(0.0, 1.0, 6))
    couplings = build_couplings(lattice, "finite_range", g=0.3, d_c=1)
    model = ModelInstance(lattice, couplings, onsite, 0.5)
    state = thermalize(model, 2, [RhoBlocks()])
    _basis, rho = dense_thermal_matrix(model, q=2)
    covered = 0
    for b, block in enumerate(state.blocks):
        weight = state.block_probabilities(b).sum()
        want = rho[np.ix_(block.codes, block.codes)]
        assert np.abs(weight * state.values[0][block.total] - want).max() <= 1e-14, block.total
        covered += block.dim
    assert covered == rho.shape[0]


def test_normalization_check_reads_the_amplitudes(monkeypatch):
    # a NaN in one eigenvector reaches the trace through its row norms
    eigh = np.linalg.eigh

    def spoiled_eigh(matrix):
        lam, vecs = eigh(matrix)
        vecs[0, 0] = np.nan
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
    with pytest.raises(ArithmeticError, match="normalization"):
        thermalize(_disordered_models()[1], 2, beta=0.8)


def test_failed_eigensolve_is_an_eigensolver_error(monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolverError, match="eigensolve failed on the N=6 sector"):
        thermalize(_disordered_models()[0], 2)


def test_non_finite_eigenvalue_is_an_eigensolver_error(monkeypatch):
    eigh = np.linalg.eigh

    def spoiled_eigh(matrix):
        lam, vecs = eigh(matrix)
        lam[0] = np.nan
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
    with pytest.raises(EigensolverError, match="non-finite eigenvalues on the N=6 sector"):
        thermalize(_disordered_models()[0], 2)


def test_clustering_scan_zero_couplings_has_no_fit():
    model = make_explicit(4, np.zeros((4, 4)), beta=0.2, U=1.0, mu=0.0)
    scan = clustering_scan(model, 1, "hopping", anchor=0)
    assert all(abs(r.value) <= 1e-13 for r in scan.rows)
    assert scan.fitted_exponent is None and scan.fitted_exponent_stderr is None


@pytest.mark.parametrize("family", ["hopping", "density"])
def test_fitted_exponent_stderr_is_the_least_squares_slope_error(family):
    model = make_long_range_chain(6, g=0.1, alpha=3.0, beta=0.3, U=1.0, mu=0.2)
    scan = clustering_scan(model, 2, family, anchor=0)
    assert len(scan.rows) >= 4
    x = np.log([1.0 + r.distance for r in scan.rows])
    y = np.log([abs(r.value) for r in scan.rows])
    want = math.sqrt(np.polyfit(x, y, 1, cov=True)[1][0, 0])
    assert scan.fitted_exponent == float(np.polyfit(x, y, 1)[0])
    assert scan.fitted_exponent_stderr == pytest.approx(want, rel=1e-10)


def test_clustering_scan_monotone_decay_small_chain():
    model = make_long_range_chain(6, g=0.1, alpha=3.0, beta=0.1, U=1.0, mu=0.0)
    scan = clustering_scan(model, 1, "hopping", anchor=0)
    mags = [abs(r.value) for r in scan.rows]
    assert all(a >= b - 1e-13 for a, b in zip(mags, mags[1:]))


def test_clustering_scan_density_family(two_site_model):
    scan = clustering_scan(two_site_model, 1, "density", anchor=0)
    # <n_0 n_1> = 1/Z from |11> alone and <n_i> = 1/2, with Z = 2 + 2 cosh(beta J)
    assert scan.rows[0].value == pytest.approx(-math.tanh(0.3 / 2) ** 2 / 4, rel=1e-12)

    # the anchor's mean is summed once per scan; every row is still exactly
    # <O_x O_j> - <O_x> <O_j> of the scan's own terms
    model = make_long_range_chain(5, g=0.3, alpha=3.0, beta=0.4, U=1.0, mu=0.3)
    for family in ("density", "hopping"):
        scan, terms = observe(model, 2, Clustering(family, 1), Terms(family, 1))
        others = [0, 2, 3, 4]
        joint = dict(zip(others, terms[1:5]))
        mean = dict(zip(others, terms[5:]))
        assert len(scan.rows) == 4
        for row in scan.rows:
            assert row.value == float(joint[row.site_b] - terms[0] * mean[row.site_b])
        if family == "hopping":  # a_x^dag and a_j change the number
            assert terms[0] == 0.0 and not any(mean.values())


def test_hopping_correlation_symmetric_for_real_couplings():
    model = make_long_range_chain(4, g=0.3, alpha=2.0, beta=0.4, U=1.0, mu=0.1)
    for i, j in ((0, 1), (0, 3), (1, 2)):
        ab = correlations(model, 2, "hopping", i)[j]
        ba = correlations(model, 2, "hopping", j)[i]
        assert ab == pytest.approx(ba, abs=1e-10)


def dense_reduced_entropy(rho, q, n_sites, keep) -> float:
    """S of the product-basis rho traced over every site not in ``keep``."""
    d = q + 1
    rest = [i for i in range(n_sites) if i not in keep]
    t = rho.reshape((d,) * 2 * n_sites)
    t = t.transpose(keep + rest + [n_sites + i for i in keep] + [n_sites + i for i in rest])
    t = t.reshape(d ** len(keep), d ** len(rest), d ** len(keep), d ** len(rest))
    return fock_reference._entropy_from_probabilities(
        np.linalg.eigvalsh(np.einsum("ijkj->ik", t)))


@pytest.mark.parametrize("model_index", [0, 1])
def test_folded_observables_match_the_held_state_and_dense_rho(model_index):
    # every observable the oracle reports, folded one sector at a time, against
    # the state that holds every sector's amplitude factor and against the
    # dense product-basis rho
    model, q, n = _disordered_models()[model_index], 2, 6
    held = fock_reference.thermalize(model, q, model.beta)
    basis, rho = dense_thermal_matrix(model, q)
    occupations = np.array(basis, dtype=np.float64)
    a, b = [0, 2, 3], [1, 4, 5]
    moments, p, information, hopping, density = observe(
        model, q, Moments(4, 4), OccupationDistribution(1), MutualInformation((a, b)),
        Clustering("hopping", 2), Clustering("density", 2))

    def agree(got, held_value, dense_value):
        for want in (held_value, dense_value):
            assert abs(got - want) <= 1e-14 * max(abs(got), 1.0), (got, want)

    for l, value in enumerate(moments, start=1):
        agree(value, fock_reference.moments(held, 4, 4)[l - 1],
              float(occupations[:, 4] ** l @ np.diag(rho)))
    for k, value in enumerate(p):
        agree(value, fock_reference.occupation_distribution(held, 1)[k],
              float(np.diag(rho)[occupations[:, 1] == k].sum()))
    s_total = fock_reference._entropy_from_probabilities(np.linalg.eigvalsh(rho))
    agree(information, fock_reference.mutual_information(held, (a, b)),
          sum(dense_reduced_entropy(rho, q, n, side) for side in (a, b)) - s_total)
    for scan in (hopping, density):
        assert sorted(row.site_b for row in scan.rows) == [0, 1, 3, 4, 5]
        # rows are sorted by distance
        assert [r.distance for r in scan.rows] == sorted(r.distance for r in scan.rows)
        for row in scan.rows:
            agree(row.value, fock_reference.connected(held, scan.family, 2, row.site_b),
                  dense_correlation(basis, rho, q, scan.family, 2, row.site_b))
