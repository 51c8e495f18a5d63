import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import (
    ControlObjective,
    Grid,
    coupling_convolution,
    coupling_efficient,
    coupling_from_label,
    coupling_potential,
    coupling_spatial,
    coupling_xfree,
    coupling_zero,
    default_problem,
    delta_ghat,
    delta_m_fd_check,
    density_cosine,
    density_uniform,
    quadratic_hamiltonian,
    residual_field,
)
from mfglab import model
from mfglab.errors import MassConservationError, ShapeMismatchError
from mfglab.model import (
    COUPLING_LABELS,
    KERNEL_FACTORS,
    KERNELS,
    Problem,
    convention_defect,
    dense_block_rows,
    kernel_cos_prod,
    kernel_products,
)

from conftest import assert_descent_residuals, assert_matches_slices, random_density

TWO_PI = 2.0 * np.pi

ALL_LABELS = ("convolution", "efficient", "potential", "xfree")


def lopsided(x, y):
    """A kernel outside the catalog and not symmetric: phi and phi.T differ."""
    return np.cos(TWO_PI * (x - y)) + 0.3 * np.sin(TWO_PI * (x + 2.0 * y))


@pytest.fixture
def g():
    return Grid(n=64, nt=8)


class TestHamiltonian:
    def test_quadratic_values(self, g):
        ham = quadratic_hamiltonian()
        x = g.xs()
        assert np.all(ham.h0(x, np.zeros_like(x)) == 0.0)
        p = np.linspace(-2, 2, g.n)
        np.testing.assert_allclose(ham.h0(x, p), 0.5 * p**2)
        np.testing.assert_allclose(ham.dp_h0(x, p), p)

    def test_legendre_identity(self, g, rng):
        ham = quadratic_hamiltonian()
        x = g.xs()
        p = rng.standard_normal(g.n) * 3
        dp = ham.dp_h0(x, p)  # l0(x, -dp_h0) + h0 - p dp_h0 = 0
        assert np.abs(ham.l0(x, -dp) + ham.h0(x, p) - p * dp).max() < 1e-10

    def test_dp_matches_finite_difference(self, g, rng):
        ham = quadratic_hamiltonian()
        x = g.xs()
        p = rng.standard_normal(g.n)
        h = 1e-6
        fd = (ham.h0(x, p + h) - ham.h0(x, p - h)) / (2 * h)
        np.testing.assert_allclose(ham.dp_h0(x, p), fd, rtol=1e-7, atol=1e-9)


class TestConvolution:
    def test_y_independent_kernel_has_zero_derivative(self, g, rng):
        c = coupling_convolution(g, kernel=lambda x, y: np.cos(TWO_PI * x) + 0 * y)
        m = random_density(g, rng)
        assert np.abs(c.delta(m)).max() < 1e-12

    def test_zero_mean_kernel_uniform_density(self, g):
        c = coupling_convolution(g)
        assert np.abs(c.eval(density_uniform(g))).max() < 1e-14

    def test_grid_delta_density(self, g):
        lam = 0.7
        c = coupling_convolution(g, lam=lam)
        j0 = 13
        m = np.zeros(g.n)
        m[j0] = 1.0 / g.dx  # unit-mass single-cell spike
        x = g.xs()
        phi = np.cos(TWO_PI * (x[:, None] - x[None, :]))
        np.testing.assert_allclose(c.delta(m), lam * (phi - phi[:, [j0]]), atol=1e-12)
        np.testing.assert_allclose(residual_field(c, m),
                                   lam * (phi[j0] - phi[j0, j0]), atol=1e-12)


class TestEfficient:
    def test_residual_vanishes_for_all_densities(self, g, rng):
        c = coupling_efficient(g, lam=1.3)
        for _ in range(10):
            m = random_density(g, rng)
            assert np.abs(residual_field(c, m)).max() < 1e-12

    def test_cos_product_kernel_uniform(self, g):
        c = coupling_efficient(g, kernel=kernel_cos_prod)
        assert np.abs(c.eval(density_uniform(g))).max() < 1e-14

    def test_depends_on_m(self, g, rng):
        c = coupling_efficient(g)
        m1, m2 = random_density(g, rng), random_density(g, rng)
        assert np.abs(c.eval(m1) - c.eval(m2)).max() > 1e-4


class TestPotential:
    def test_averaged_functional_vanishes(self, g, rng):
        c = coupling_potential(g, lam=0.9)
        for _ in range(10):
            m = random_density(g, rng)
            assert abs(float(c.eval(m) @ m) * g.dx) < 1e-10  # int F(x, m) m(dx)

    def test_residual_equals_minus_coupling(self, g, rng):
        c = coupling_potential(g, lam=0.9)
        m = random_density(g, rng)
        np.testing.assert_allclose(residual_field(c, m), -c.eval(m), atol=1e-8)

    def test_zero_strength(self, g, rng):
        c = coupling_potential(g, lam=0.0)
        assert np.abs(c.eval(random_density(g, rng))).max() == 0.0

    # the potential symmetrizes its kernel only when k differs from k.T:
    # on a symmetric k, 0.5 * (k + k.T) is k bit for bit
    @pytest.mark.parametrize("n", (16, 64, 100, 128, 1024))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_catalog_kernels_are_bitwise_symmetric(self, kernel, n):
        k = model._kernel(Grid(n=n, nt=8), KERNELS[kernel])[0]
        assert np.array_equal(k, k.T)

    def test_nonsymmetric_callable_kernel_is_symmetrized(self):
        g = Grid(n=32, nt=8)
        x = g.xs()
        phi = lopsided(x[:, None], x[None, :])
        assert not np.array_equal(phi, phi.T)
        k = 0.5 * (phi + phi.T)
        c = coupling_potential(g, lopsided, lam=0.7)
        for m in TestFusedTerms.densities(g, 6):
            km = (k @ m) * g.dx
            q = float(m @ km) * g.dx
            assert np.array_equal(c.eval(m), 0.7 * (km - q))
            assert np.array_equal(c.delta(m),
                                  0.7 * (k - 2.0 * km[None, :] - km[:, None] + 2.0 * q))


class TestXfree:
    def test_residual_independent_of_base_point(self, g, rng):
        c = coupling_xfree(g, lam=0.8)
        m = random_density(g, rng)
        d = c.delta(m)
        assert np.abs(d - d[0]).max() == 0.0

    def test_linear_profile(self, g, rng):
        lam = 0.6
        c = coupling_xfree(g, profile=lambda s: s, profile_prime=lambda s: 1.0, lam=lam)
        m = random_density(g, rng)
        cvals = np.cos(TWO_PI * g.xs())
        s = float(cvals @ m) * g.dx
        np.testing.assert_allclose(residual_field(c, m), lam * (cvals - s), atol=1e-12)

    def test_constant_weight_degenerates(self, g, rng):
        c = coupling_xfree(g, weight=lambda z: np.ones_like(z))
        m = random_density(g, rng)
        assert np.abs(c.delta(m)).max() < 1e-14
        assert np.ptp(c.eval(m)) == 0.0


class TestConvention:
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_delta_takes_one_slice(self, g, rng, label):
        c = coupling_from_label(g, label)
        m = random_density(g, rng)
        assert c.delta(m).shape == (g.n, g.n)
        for bad in (np.stack([m, m]), m[:-1]):  # a stack; a wrong length
            with pytest.raises(ShapeMismatchError, match="does not match grid"):
                c.delta(bad)

    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_eval_and_path_terms_check_the_last_axis(self, g, rng, label):
        c = coupling_from_label(g, label)
        m = random_density(g, rng)
        assert c.eval(np.stack([m, m])).shape == c._path_terms(np.stack([m, m]))[1].shape
        for bad in (m[:-1], np.stack([m[:-1], m[:-1]])):  # a (63,) slice; a (2, 63) stack
            for call in (c.eval, lambda x: c.eval(x, exact=True), c._path_terms):
                with pytest.raises(ShapeMismatchError, match="does not match grid"):
                    call(bad)

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_zero_mean_derivative(self, g, rng, label):
        c = coupling_from_label(g, label, lam=1.1)
        for _ in range(25):
            assert convention_defect(c, random_density(g, rng)) < 1e-8

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_strength_linearity(self, g, rng, label):
        m = random_density(g, rng)
        c1 = coupling_from_label(g, label, lam=0.7)
        c2 = coupling_from_label(g, label, lam=1.4)
        np.testing.assert_allclose(c2.eval(m), 2.0 * c1.eval(m), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(c2.delta(m), 2.0 * c1.delta(m), rtol=1e-13, atol=1e-15)


class TestFdCheck:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_catalog_accuracy(self, g, rng, label):
        c = coupling_from_label(g, label, lam=1.0)
        for _ in range(10):
            m = random_density(g, rng)
            i, j = rng.integers(0, g.n, size=2)
            assert delta_m_fd_check(c, m, int(i), int(j), s=1e-7) < 1e-5

    def test_linear_coupling_exact_in_s(self, g, rng):
        # convolution is linear in m, so even the largest admissible s is fine
        c = coupling_convolution(g, lam=1.0)
        m = random_density(g, rng)
        assert delta_m_fd_check(c, m, 5, 40, s=1e-3) < 1e-10

    def test_constant_coupling_both_sides_zero(self, g, rng):
        c = coupling_spatial(g, lambda x: np.cos(TWO_PI * x))
        m = random_density(g, rng)
        assert delta_m_fd_check(c, m, 3, 7, s=1e-5) == 0.0

    def test_degenerate_density_rejected(self, g):
        c = coupling_convolution(g)
        m = np.zeros(g.n)
        m[0] = 1.0 / g.dx
        with pytest.raises(MassConservationError):
            delta_m_fd_check(c, m, 0, 1, s=1e-5)

    def test_s_range(self, g, rng):
        c = coupling_convolution(g)
        m = random_density(g, rng)
        with pytest.raises(ValueError):
            delta_m_fd_check(c, m, 0, 1, s=1e-2)
        with pytest.raises(ValueError):
            delta_m_fd_check(c, m, 0, 1, s=0.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), lam=st.floats(0.1, 2.0))
    def test_fd_property(self, seed, lam):
        g = Grid(n=32, nt=8)
        r = np.random.default_rng(seed)
        c = coupling_potential(g, lam=lam)
        m = random_density(g, r)
        i, j = r.integers(0, g.n, size=2)
        assert delta_m_fd_check(c, m, int(i), int(j), s=1e-7) < 1e-5


FUSED_CASES = [(label, kernel, n) for label in COUPLING_LABELS for kernel in KERNELS
               for n in (16, 128)]


class TestFusedTerms:
    """The fused per-slice terms against the dense reference.

    eval and delta are the catalog's one-expression forms, bit for bit.
    The descent's terms, the exact stacked call
    Coupling._path_terms(m, exact=True), reproduce eval(m) bit for bit
    (the potential's, priced through its factor, within round-off:
    assert_matches_slices), and (m @ delta(m)) dx bit for bit for the
    convolution, whose dense contraction keeps the rounding the
    benchmark's pinned iteration counts follow, and within 1e-12 for the
    closed-form labels.
    """

    @staticmethod
    def densities(grid, seed, count=3):
        r = np.random.default_rng(seed)
        return np.stack([random_density(grid, r, roughness=1.0) for _ in range(count)])

    @staticmethod
    def reference_terms(label, grid, kernel, lam, m):
        """(F, delta(m)) in the catalog's one-expression form.

        The convolution's dense residual writes its delta(m) rows in this
        operation order: bench/reference.json pins L-BFGS iteration counts
        that move with any change of rounding.
        """
        x, dx, n = grid.xs(), grid.dx, grid.n
        phi = np.asarray(KERNELS[kernel](x[:, None], x[None, :]), dtype=float)
        if label == "convolution":
            a1 = (phi @ m) * dx
            return lam * (phi @ m) * dx, lam * (phi - a1[:, None])
        if label == "efficient":
            a1, a2 = (phi @ m) * dx, (phi.T @ m) * dx
            q = float(m @ a1) * dx
            s = a1 + a2
            return lam * (a1 + a2 - q), lam * (phi + phi.T - s[None, :] - s[:, None] + 2.0 * q)
        if label == "potential":
            k = 0.5 * (phi + phi.T)
            km = (k @ m) * dx
            q = float(m @ km) * dx
            return lam * (km - q), lam * (k - 2.0 * km[None, :] - km[:, None] + 2.0 * q)
        if label == "xfree":  # quadratic profile g(s) = s^2 / 2, weight cos(2 pi x)
            c = np.cos(TWO_PI * x)
            s = float(c @ m) * dx
            return lam * (0.5 * s**2) * np.ones(n), np.tile(lam * s * (c - s), (n, 1))
        field = lam * np.cos(TWO_PI * x) if label == "spatial_cos" else np.zeros(n)
        return field, np.zeros((n, n))

    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_fill_keeps_the_reference_operation_order(self, label, kernel, n):
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        for m in self.densities(g, n + 3):
            field, dmat = self.reference_terms(label, g, kernel, 0.7, m)
            assert np.array_equal(c.eval(m), field)
            assert np.array_equal(c.delta(m), dmat)

    @pytest.mark.parametrize("lam", (1.0, 2.5))
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_delta_at_unit_and_other_strengths(self, label, kernel, lam):
        g = Grid(n=64, nt=8)
        c = coupling_from_label(g, label, lam=lam, kernel=kernel)
        for m in self.densities(g, 11):
            assert np.array_equal(c.delta(m), self.reference_terms(label, g, kernel, lam, m)[1])

    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_slice_terms_equal_eval_and_dense_residual(self, label, kernel, n):
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        for m in self.densities(g, n):
            (field,), (res,) = c._path_terms(m[None], exact=True)
            assert_matches_slices(label, field, c.eval(m))
            assert_descent_residuals(label, res, (m @ c.delta(m)) * g.dx)

    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_descent_residuals_agree_with_dense_residual(self, label, kernel, n):
        # the objective's terms of a path, the coupling's and the terminal's,
        # within 1e-13 of their scale lam (1 + max m)^2
        g = Grid(n=n, nt=4)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        obj = ControlObjective(default_problem(g, c, c))
        r = np.random.default_rng(n + 13)
        path = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                         for _ in range(g.nt + 1)])
        _, _, residuals, _, g_residual = obj._path_terms(path)
        for m, res in zip(path[1:], (*residuals, g_residual)):
            dense = (m @ c.delta(m)) * g.dx
            assert np.all(np.abs(res - dense) <= 1e-13 * 0.7 * (1.0 + m.max()) ** 2)

    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_residual_never_overwrites_a_delta(self, label, kernel, n):
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        m1, m2 = self.densities(g, n + 1, count=2)
        d1 = c.delta(m1)
        kept = d1.copy()
        c._path_terms(m2[None], exact=True)
        c._path_terms(m2[None])
        residual_field(c, m2)
        assert np.array_equal(d1, kept)
        assert c.delta(m2) is not c.delta(m2)

    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_path_equals_per_slice_stack(self, label, kernel, n):
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        path = self.densities(g, n + 2, count=4)
        fields, residuals = c._path_terms(path, exact=True)
        assert fields.shape == residuals.shape == path.shape
        assert_matches_slices(label, fields, np.stack([c.eval(m) for m in path]))
        assert_descent_residuals(label, residuals,
                                 np.stack([(m @ c.delta(m)) * g.dx for m in path]))

    @pytest.mark.parametrize("count", (1, 5))
    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_stacked_eval_matches_per_row_eval(self, label, kernel, n, count):
        # one kernel product for the whole stack sums in another order than
        # the per-row products, so rows agree on the scale of the field
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        stack = self.densities(g, n + 5, count=count)
        fields = c.eval(stack)
        assert fields.shape == (count, n)
        rows = np.stack([c.eval(m) for m in stack])
        assert np.all(np.abs(fields - rows) <= 1e-13 * (1.0 + np.abs(rows).max()))


# DENSE_BLOCK lowered so that small grids run several kernel blocks: n=64 in
# 8-row blocks, n=100 in 32-row blocks with a 4-row tail, and n=66, not a
# multiple of 4, in one block
BLOCK_CASES = [(64, 512, 8), (100, 3200, 32), (66, 512, 66)]


class TestExactStackedProduct:
    """The exact stacked product and the fields of an exact stack.

    Every row of kernel_products(K, m, exact=True) must be the one-slice
    gemv K @ m[k] bit for bit, whatever the row blocks; this rests on the
    BLAS gemv taking each output in the same order in any 4-row-aligned
    block (see kernel_products).  The equilibrium's fields, the reported
    costs and the descent's terms take it, and the benchmark's reference
    rows pin the iteration counts that follow their rounding.  The
    potential's stacks take its factor even with exact, so its fields
    match the per-slice ones within round-off (assert_matches_slices).
    """

    @pytest.mark.parametrize("n,entries,rows", BLOCK_CASES)
    def test_rows_equal_one_slice_products(self, monkeypatch, n, entries, rows):
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        assert dense_block_rows(n) == rows
        r = np.random.default_rng(n)
        kernel = r.standard_normal((n, n))  # not symmetric: K and K.T differ
        m = r.uniform(0.1, 2.0, (5, n))
        for k in (kernel, kernel.T):  # row blocks; one block for a transpose
            expect = np.stack([k @ m_k for m_k in m])
            assert np.array_equal(kernel_products(k, m, exact=True), expect)
            assert np.array_equal(kernel_products(k, m[2], exact=True), expect[2])

    @pytest.mark.parametrize("n,entries,rows", BLOCK_CASES)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_fields_equal_per_slice_eval(self, monkeypatch, label, kernel, n, entries, rows):
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        stack = TestFusedTerms.densities(g, n + 7, count=5)
        fields = c.eval(stack, exact=True)
        assert fields.shape == stack.shape
        for m, field in zip(stack, fields):
            assert_matches_slices(label, field, c.eval(m))

    @pytest.mark.parametrize("lam", (1.0, 2.5))  # the skipped and the applied strength pass
    @pytest.mark.parametrize("n,entries,rows", BLOCK_CASES)
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_level_terms_equal_reference_forms(self, monkeypatch, label, kernel, n, entries,
                                               rows, lam):
        # every level of an exact stack, its kernel built and its residual contracted
        # block by block, gives the reference field, delta(m) and (m @ delta(m)) dx
        monkeypatch.setattr(model, "DENSE_BLOCK", entries)
        assert dense_block_rows(n) == rows
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=lam, kernel=kernel)
        stack = TestFusedTerms.densities(g, n + 11, count=3)
        fields, residuals = c._path_terms(stack, exact=True)
        for m, field, residual in zip(stack, fields, residuals):
            ref_field, dmat = TestFusedTerms.reference_terms(label, g, kernel, lam, m)
            assert_matches_slices(label, field, ref_field)
            assert np.array_equal(c.delta(m), dmat)
            assert_descent_residuals(label, residual, (m @ dmat) * g.dx)


# the kernel-based constructors, to rebuild a catalog coupling on a callable kernel
KERNEL_COUPLINGS = {"convolution": coupling_convolution, "efficient": coupling_efficient,
                    "potential": coupling_potential}


class TestKernelFactors:
    """Products priced through the catalog kernels' factors, phi = u u^T.

    A stack without exact takes (m @ u) @ u.T; a Python-API callable
    kernel has no factor and takes one dense gemm; an exact product and a
    1-D slice keep the dense gemv bit for bit.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_factor_rebuilds_the_kernel(self, kernel):
        x = Grid(n=64, nt=8).xs()
        u = KERNEL_FACTORS[KERNELS[kernel]](x)
        assert u.shape == (64, 2 if kernel == "cos_diff" else 1)
        dense = KERNELS[kernel](x[:, None], x[None, :])
        assert np.all(np.abs(u @ u.T - dense) <= 1e-15)

    @pytest.mark.parametrize("count", (1, 5, 32))
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("label", COUPLING_LABELS)
    def test_stack_agrees_with_the_dense_gemm(self, label, kernel, count):
        # the same coupling on a callable outside the catalog takes the dense gemm
        g = Grid(n=64, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        r = np.random.default_rng(count)
        stack = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                          for _ in range(count)])
        if label in KERNEL_COUPLINGS:
            catalog = KERNELS[kernel]
            dense = KERNEL_COUPLINGS[label](g, lambda x, y: catalog(x, y), lam=0.7)
            fields, residuals = dense._path_terms(stack)
        else:
            fields = np.stack([c.eval(m) for m in stack])
            residuals = np.stack([(m @ c.delta(m)) * g.dx for m in stack])
        got_fields, got_residuals = c._path_terms(stack)
        assert np.array_equal(c.eval(stack), got_fields)
        for got, ref in ((got_fields, fields), (got_residuals, residuals)):
            assert got.shape == (count, g.n)
            assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref).max()))

    @pytest.mark.parametrize("label", KERNEL_COUPLINGS)
    def test_callable_kernel_takes_the_dense_gemm(self, label):
        # not symmetric, so no symmetric factor could stand in for it
        g = Grid(n=32, nt=8)
        c = KERNEL_COUPLINGS[label](g, lopsided, lam=0.7)
        stack = TestFusedTerms.densities(g, 5, count=4)
        x = g.xs()
        phi = lopsided(x[:, None], x[None, :])
        if label == "potential":
            phi = 0.5 * (phi + phi.T)
        pm = kernel_products(phi, stack)
        assert np.array_equal(pm, (phi @ stack.T).T)
        if label == "convolution":
            assert np.array_equal(c.eval(stack), 0.7 * pm * g.dx)
        fields = c.eval(stack)
        rows = np.stack([c.eval(m) for m in stack])
        assert np.all(np.abs(fields - rows) <= 1e-13 * (1.0 + np.abs(rows).max()))
        residuals = c._path_terms(stack)[1]
        dense = np.stack([(m @ c.delta(m)) * g.dx for m in stack])
        assert np.all(np.abs(residuals - dense) <= 1e-13 * (1.0 + np.abs(dense).max()))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_slice_is_the_dense_gemv(self, kernel):
        g = Grid(n=128, nt=8)
        x = g.xs()
        phi = KERNELS[kernel](x[:, None], x[None, :])
        u = KERNEL_FACTORS[KERNELS[kernel]](x)
        for m in TestFusedTerms.densities(g, 9):
            assert np.array_equal(kernel_products(phi, m, factor=u), phi @ m)
            assert np.array_equal(kernel_products(phi, m[None], exact=True, factor=u)[0],
                                  phi @ m)
            for label in KERNEL_COUPLINGS:
                c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
                field = TestFusedTerms.reference_terms(label, g, kernel, 0.7, m)[0]
                assert np.array_equal(c.eval(m), field)


class TestClosedFormResiduals:
    """Coupling._path_terms: closed-form residual fields, no n x n matrix.

    Each residual field agrees with the dense (m @ delta(m)) dx within
    1e-14 of its scale lam (1 + max m)^2 (the catalog kernels and the
    x-free weight are bounded by 1), for one slice and for a stack.  The
    densities are not normalized, so every mass-dependent term of the
    closed forms counts.
    """

    @pytest.mark.parametrize("count", (1, 5))
    @pytest.mark.parametrize("label,kernel,n", FUSED_CASES)
    def test_agrees_with_dense_residual(self, label, kernel, n, count):
        g = Grid(n=n, nt=8)
        c = coupling_from_label(g, label, lam=0.7, kernel=kernel)
        r = np.random.default_rng(n + count)
        stack = np.stack([random_density(g, r, roughness=1.0) * r.uniform(0.5, 1.5)
                          for _ in range(count)])
        fields, residuals = c._path_terms(stack)
        assert fields.shape == residuals.shape == (count, n)
        for m, field, res in zip(stack, fields, residuals):
            dense = (m @ c.delta(m)) * g.dx
            assert np.all(np.abs(res - dense) <= 1e-14 * 0.7 * (1.0 + m.max()) ** 2)
            assert np.all(np.abs(field - c.eval(m)) <= 1e-13 * (1.0 + np.abs(field).max()))
        if count == 1:
            assert np.array_equal(residual_field(c, stack[0]), residuals[0])
        if label in ("zero", "spatial_cos"):  # a vanishing derivative: an exact zero
            assert not residuals.any()


class TestDeltaGhat:
    def test_zero(self, g, rng):
        t = coupling_zero(g)
        assert np.abs(delta_ghat(t, random_density(g, rng))).max() == 0.0

    def test_m_independent_cost(self, g, rng):
        t = coupling_spatial(g, lambda x: np.sin(TWO_PI * x), lam=2.0)
        m = random_density(g, rng)
        field = t.eval(m)
        expect = field - float(field @ m) * g.dx
        np.testing.assert_allclose(delta_ghat(t, m), expect, atol=1e-14)

    def test_convolution_against_quadrature_oracle(self, g, rng):
        # independent evaluation straight from the kernel matrix
        lam = 0.8
        t = coupling_convolution(g, lam=lam)
        m = random_density(g, rng)
        x = g.xs()
        phi = np.cos(TWO_PI * (x[:, None] - x[None, :]))
        f = lam * phi @ m * g.dx
        dmat = lam * (phi - (phi @ m * g.dx)[:, None])
        oracle = m @ dmat * g.dx + f - float(f @ m) * g.dx
        np.testing.assert_allclose(delta_ghat(t, m), oracle, atol=1e-8)


class TestProblem:
    def test_m0_validated(self, g):
        with pytest.raises(MassConservationError):
            Problem(quadratic_hamiltonian(), coupling_zero(g), coupling_zero(g),
                    np.ones(g.n) * 2.0, g)

    def test_grid_mismatch(self, g):
        other = Grid(n=32, nt=8)
        with pytest.raises(ValueError):
            Problem(quadratic_hamiltonian(), coupling_zero(other), coupling_zero(g),
                    density_uniform(g), g)

    def test_density_cosine_amplitude(self, g):
        with pytest.raises(ValueError):
            density_cosine(g, 1.0)

    def test_unknown_label(self, g):
        with pytest.raises(ValueError):
            coupling_from_label(g, "nope")
