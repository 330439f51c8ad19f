"""Spectral calculus on periodic grids: derivatives, transfer, evaluation."""

import itertools

import numpy as np
import pytest
import scipy.fft

from kahlerbench.errors import DimensionMismatch
from kahlerbench.grids import ChartGeometry, TorusGrid


def cosine_mode(grid, k, axis):
    t = grid._axis_view(grid.axis_coords, axis)
    return np.broadcast_to(np.cos(2.0 * np.pi * k * t), grid.shape).copy()


# -- construction --------------------------------------------------------------


def test_grid_validates_resolution_and_dimension():
    with pytest.raises(ValueError):
        TorusGrid(1, 9)  # odd
    with pytest.raises(ValueError):
        TorusGrid(1, 4)  # too small
    with pytest.raises(DimensionMismatch):
        TorusGrid(4, 16)
    g = TorusGrid(2, 10)
    assert g.shape == (10, 10, 10, 10)
    assert g.num_points == 10**4


def test_coords_returns_lattice_point():
    grid = TorusGrid(2, 8)
    assert np.allclose(grid.coords((1, 2, 3, 4)), [0.125, 0.25, 0.375, 0.5])
    with pytest.raises(DimensionMismatch):
        grid.coords((1, 2))


# -- derivatives ---------------------------------------------------------------


def test_jets_of_single_cosine_match_analytic():
    grid = TorusGrid(1, 32)
    f = cosine_mode(grid, 1, axis=0)  # cos(2 pi x), independent of y
    T, Q = grid.hessian_jets(f)
    # d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2, so
    # H = -pi^2 cos(2 pi x), T = pi^3 sin(2 pi x) and Q = pi^4 cos(2 pi x).
    # The ulp noise of the sampled cosine is amplified by up to (pi N / 2)^order.
    x = np.broadcast_to(grid._axis_view(grid.axis_coords, 0), grid.shape)
    amp = np.pi * grid.N / 2
    assert np.max(np.abs(T[..., 0, 0, 0] - np.pi**3 * np.sin(2.0 * np.pi * x))) < 1e-15 * amp**3
    assert np.max(np.abs(Q[..., 0, 0, 0, 0] - np.pi**4 * np.cos(2.0 * np.pi * x))) < 1e-15 * amp**4
    assert np.max(np.abs(T.imag)) < 1e-13


def test_complex_hessian_of_cosine_matches_analytic():
    grid = TorusGrid(1, 32)
    a = 0.25
    f = a * cosine_mode(grid, 1, axis=0)
    H = grid.complex_hessian(f)
    x = grid._axis_view(grid.axis_coords, 0)
    want = -np.pi**2 * a * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape)
    assert np.max(np.abs(H[..., 0, 0] - want)) < 5e-13


def test_complex_hessian_is_hermitian_with_real_diagonal():
    rng = np.random.default_rng(2)
    grid = TorusGrid(2, 8)
    F = np.zeros(grid.shape, dtype=complex)
    F[1, 0, 2, 1] = rng.standard_normal() + 1j * rng.standard_normal()
    f = (np.fft.ifftn(F) + np.conj(np.fft.ifftn(F))).real
    H = grid.complex_hessian(f)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2)))) < 1e-14
    assert np.max(np.abs(H[..., 0, 0].imag)) == 0.0


def complex_fft_hessian(f):
    """Oracle: complex fftn, the multipliers d/dz^i * d/dzbar^j, one ifftn per entry."""
    N, n = f.shape[0], f.ndim // 2
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    ks = np.meshgrid(*([k] * (2 * n)), indexing="ij", sparse=True)
    F = np.fft.fftn(f - f.mean())
    H = np.empty(f.shape + (n, n), dtype=complex)
    for i in range(n):
        dz = np.pi * (ks[2 * i + 1] + 1j * ks[2 * i])
        for j in range(n):
            dzbar = np.pi * (1j * ks[2 * j] - ks[2 * j + 1])
            H[..., i, j] = np.fft.ifftn(F * dz * dzbar)
    return H


@pytest.mark.parametrize("n,N", [(1, 16), (1, 256), (2, 12), (2, 16), (3, 8)])
def test_complex_hessian_matches_complex_fft_oracle(n, N):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N)
    nyquist = cosine_mode(grid, N // 2, axis=0) + cosine_mode(grid, N // 2, axis=2 * n - 1)
    fields = {
        "random": rng.standard_normal(grid.shape),
        "on a 1e6 constant": 1e6 + rng.standard_normal(grid.shape),
        "with Nyquist content": rng.standard_normal(grid.shape) + 5.0 * nyquist,
    }
    for name, f in fields.items():
        H, oracle = grid.complex_hessian(f), complex_fft_hessian(f)
        err = np.max(np.abs(H - oracle)) / np.max(np.abs(oracle))
        assert err < 1e-13, (name, err)
        assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))


@pytest.mark.parametrize("n,N", [(1, 16), (2, 12), (3, 8)])
def test_complex_hessian_is_the_per_component_transform_bit_for_bit(n, N):
    """The batched inverse transform against one irfftn per real component."""
    grid = TorusGrid(n, N)
    f = 7.0 + np.random.default_rng(N).standard_normal(grid.shape)
    F = grid.rfft(f - np.mean(f))
    mult = grid.hessian_multipliers
    want = np.empty(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        want[..., i, i] = grid.irfft(F * mult[i * n + i])
        for j in range(i + 1, n):
            re, im = grid.irfft(F * mult[i * n + j]), grid.irfft(F * mult[j * n + i])
            want[..., i, j] = re + 1j * im
            want[..., j, i] = re - 1j * im
    assert np.array_equal(grid.complex_hessian(f), want)


@pytest.mark.parametrize("n,N", [(1, 16), (1, 256), (2, 12), (2, 16), (3, 8)])
def test_hessian_rows_are_the_batched_transform_bit_for_bit(n, N):
    """The row stream against one batched irfftn of F times every multiplier row."""
    grid = TorusGrid(n, N)
    f = 7.0 + np.random.default_rng(N + n).standard_normal(grid.shape)
    F = grid.rfft(f - np.mean(f))
    want = scipy.fft.irfftn(F * grid.hessian_multipliers, s=grid.shape,
                            axes=tuple(range(-2 * n, 0)))
    got = grid.hessian_of_spectrum(F)
    assert got.shape == want.shape == (n * n,) + grid.shape
    assert got.tobytes() == want.tobytes()
    assert grid.hessian_components(f).tobytes() == want.tobytes()
    rows = list(grid.hessian_rows(F))
    assert len(rows) == n * n
    assert all(row.tobytes() == w.tobytes() for row, w in zip(rows, want))


def test_laplacian_multiplier_matches_hessian_trace():
    grid = TorusGrid(2, 8)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid.shape)
    H = grid.complex_hessian(f)
    lap_via_trace = np.trace(H, axis1=-2, axis2=-1).real
    lap_via_mult = grid.irfft(grid.rfft(f) * grid.flat_laplacian_multiplier)
    assert np.max(np.abs(lap_via_trace - lap_via_mult)) < 1e-11


def test_nyquist_mode_has_zero_derivative():
    grid = TorusGrid(1, 16)
    f = cosine_mode(grid, grid.N // 2, axis=0)
    T, Q = grid.hessian_jets(f)
    assert np.max(np.abs(T)) < 1e-13
    assert np.max(np.abs(Q)) < 1e-13


def jet_orbit_representatives(n):
    """One index per orbit of the jet symmetries: T[i, j, k] with i <= k, and
    Q[i, j, k, l] with i <= k, j <= l and (i, k) <= (j, l), the orbits of
    the (i, k) and (j, l) swaps and of Q[i, j, k, l] = conj Q[j, i, l, k]."""
    pairs = [(i, k) for i in range(n) for k in range(i, n)]
    T = [(i, j, k) for i, k in pairs for j in range(n)]
    Q = [(i, j, k, l) for s, (i, k) in enumerate(pairs) for j, l in pairs[s:]]
    return T, Q


def complex_fft_jets(f):
    """Oracle: complex fftn, the multipliers of d/dz^i d/dzbar^j d/dz^k (and
    d/dzbar^l), one ifftn per entry, no symmetrization.  Yields (index,
    entry) for the orbit representatives of T and of Q."""
    N, n = f.shape[0], f.ndim // 2
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    ks = np.meshgrid(*([k] * (2 * n)), indexing="ij", sparse=True)
    dz = [np.pi * (ks[2 * i + 1] + 1j * ks[2 * i]) for i in range(n)]
    dzbar = [np.pi * (1j * ks[2 * j] - ks[2 * j + 1]) for j in range(n)]
    F = np.fft.fftn(f - f.mean())
    T, Q = jet_orbit_representatives(n)
    for i, j, k in T:
        yield (i, j, k), np.fft.ifftn(F * dz[i] * dzbar[j] * dz[k])
    for i, j, k, l in Q:
        yield (i, j, k, l), np.fft.ifftn(F * dz[i] * dzbar[j] * dz[k] * dzbar[l])


def test_jet_orbit_representatives_cover_every_entry():
    for n in (1, 2, 3):
        T, Q = jet_orbit_representatives(n)
        assert {e for i, j, k in T for e in ((i, j, k), (k, j, i))} == set(
            itertools.product(range(n), repeat=3))
        orbits = set()
        for i, j, k, l in Q:
            same = {(a, b, c, d) for a, c in ((i, k), (k, i)) for b, d in ((j, l), (l, j))}
            orbits |= same | {(b, a, d, c) for a, b, c, d in same}
        assert orbits == set(itertools.product(range(n), repeat=4))
    assert [len(r) for r in jet_orbit_representatives(3)] == [18, 21]


def assert_jets_match_oracle(grid, f, stride=1):
    """hessian_jets (on the stride's sublattice) against the oracle (1e-13
    relative) and its symmetries (bit for bit); the symmetries carry the
    oracle's check of each orbit representative to every entry of its orbit."""
    n = grid.n
    T, Q = grid.hessian_jets(f, stride)
    assert T.shape[:2 * n] == Q.shape[:2 * n] == (grid.N // stride,) * (2 * n)
    sublattice = (slice(None, None, stride),) * (2 * n)
    err, scale = {3: 0.0, 4: 0.0}, {3: 0.0, 4: 0.0}  # by derivative order
    for idx, want in complex_fft_jets(f):
        want = want[sublattice]
        got = (T if len(idx) == 3 else Q)[(...,) + idx]
        err[len(idx)] = max(err[len(idx)], np.max(np.abs(got - want)))
        scale[len(idx)] = max(scale[len(idx)], np.max(np.abs(want)))
    assert err[3] < 1e-13 * scale[3] and err[4] < 1e-13 * scale[4], (err, scale)
    for i, j, k in itertools.product(range(n), repeat=3):
        assert np.array_equal(T[..., i, j, k], T[..., k, j, i])
        for l in range(n):
            q = Q[..., i, j, k, l]
            assert np.array_equal(q, Q[..., k, j, i, l])
            assert np.array_equal(q, Q[..., i, l, k, j])
            assert np.array_equal(q, np.conj(Q[..., j, i, l, k]))


@pytest.mark.parametrize("n,N", [(1, 16), (1, 256), (2, 12), (2, 16), (3, 8)])
def test_hessian_jets_match_complex_fft_oracle(n, N):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N)
    nyquist = cosine_mode(grid, N // 2, axis=0) + cosine_mode(grid, N // 2, axis=2 * n - 1)
    assert_jets_match_oracle(grid, rng.standard_normal(grid.shape))
    # on a 1e6 constant, plus Nyquist content
    assert_jets_match_oracle(grid, 1e6 + rng.standard_normal(grid.shape) + 5.0 * nyquist)


@pytest.mark.parametrize("n,N,stride", [(1, 64, 4), (2, 12, 3), (2, 12, 4), (3, 8, 4)])
def test_strided_hessian_jets_match_complex_fft_oracle(n, N, stride):
    # the folded spectra give the jets at the sublattice points as the full
    # transforms do
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N + stride)
    nyquist = cosine_mode(grid, N // 2, axis=0) + cosine_mode(grid, N // 2, axis=2 * n - 1)
    assert_jets_match_oracle(grid, rng.standard_normal(grid.shape), stride)
    assert_jets_match_oracle(grid, 1e6 + rng.standard_normal(grid.shape) + 5.0 * nyquist, stride)


def test_hessian_jets_take_a_stride_dividing_the_resolution():
    grid = TorusGrid(2, 12)
    f = np.random.default_rng(3).standard_normal(grid.shape)
    for stride in (0, 5, 24):
        with pytest.raises(ValueError, match="does not divide"):
            grid.hessian_jets(f, stride)
    T, Q = grid.hessian_jets(f, 12)  # the origin alone
    assert T.shape == (1,) * 4 + (2,) * 3 and Q.shape == (1,) * 4 + (2,) * 4
    full = grid.hessian_jets(f)
    assert np.max(np.abs(Q[0, 0, 0, 0] - full[1][0, 0, 0, 0])) < 1e-13 * np.max(np.abs(full[1]))


def test_mean_is_exact_for_periodic_data():
    grid = TorusGrid(1, 16)
    f = 3.5 + cosine_mode(grid, 2, axis=1)
    assert grid.mean(f) == pytest.approx(3.5, abs=1e-14)


# -- prolongation / restriction -------------------------------------------------


def test_prolong_is_exact_on_band_limited_fields():
    coarse = TorusGrid(1, 16)
    fine = TorusGrid(1, 32)
    f = 2.0 + 0.3 * cosine_mode(coarse, 3, axis=0) + 0.1 * cosine_mode(coarse, 5, axis=1)
    fp = coarse.prolong(f, fine)
    # fine-grid samples at shared lattice points equal the coarse samples
    assert np.max(np.abs(fp[::2, ::2] - f)) < 1e-13
    # analytic values at the new points
    x = fine._axis_view(fine.axis_coords, 0)
    y = fine._axis_view(fine.axis_coords, 1)
    want = 2.0 + 0.3 * np.cos(6.0 * np.pi * x) + 0.1 * np.cos(10.0 * np.pi * y)
    assert np.max(np.abs(fp - np.broadcast_to(want, fine.shape))) < 1e-13


def fft_prolong(f, N_fine):
    """Oracle: zero-pad the centred complex spectrum, keep the real part."""
    N, d = f.shape[0], f.ndim
    F = np.fft.fftshift(np.fft.fftn(f - f.mean()))
    F = np.pad(F, (N_fine - N) // 2)
    return np.fft.ifftn(np.fft.ifftshift(F)).real * (N_fine / N) ** d + f.mean()


def fft_restrict(f, N):
    """Oracle: crop the centred complex spectrum, keep the real part."""
    N_fine, d = f.shape[0], f.ndim
    F = np.fft.fftshift(np.fft.fftn(f - f.mean()))
    crop = (N_fine - N) // 2
    F = F[(slice(crop, crop + N),) * d]
    return np.fft.ifftn(np.fft.ifftshift(F)).real * (N / N_fine) ** d + f.mean()


TRANSFER_CASES = [(1, 10, 2), (1, 12, 2), (1, 16, 2), (1, 10, 3), (1, 12, 3), (1, 16, 3),
                  (2, 10, 2), (2, 12, 2), (2, 16, 2), (2, 10, 3)]


def with_nyquist(grid, rng):
    """A random field plus strong Nyquist modes in the first and last axes."""
    n, N = grid.n, grid.N
    nyquist = cosine_mode(grid, N // 2, axis=0) + cosine_mode(grid, N // 2, axis=2 * n - 1)
    return rng.standard_normal(grid.shape) + 5.0 * nyquist - 3.0


def below_nyquist(grid, rng):
    """A random field with its Nyquist band dropped, on a constant 4."""
    F = np.fft.fftn(rng.standard_normal(grid.shape))
    for axis in range(2 * grid.n):
        sl = [slice(None)] * (2 * grid.n)
        sl[axis] = grid.N // 2
        F[tuple(sl)] = 0.0
    return np.fft.ifftn(F).real + 4.0


@pytest.mark.parametrize("n,N,pad", TRANSFER_CASES)
def test_half_spectrum_transfer_matches_complex_fft_oracle(n, N, pad):
    coarse, fine = TorusGrid(n, N), TorusGrid(n, pad * N)
    rng = np.random.default_rng(100 * n + 10 * pad + N)
    f = with_nyquist(coarse, rng)
    want = fft_prolong(f, fine.N)
    assert np.max(np.abs(coarse.prolong(f, fine) - want)) <= 1e-14 * np.max(np.abs(want))
    g = with_nyquist(fine, rng)
    want = fft_restrict(g, coarse.N)
    assert np.max(np.abs(fine.restrict(g, coarse) - want)) <= 1e-14 * np.max(np.abs(want))
    h = below_nyquist(coarse, rng)  # where restrict o prolong is the identity
    assert np.max(np.abs(fine.restrict(coarse.prolong(h, fine), coarse) - h)) < 1e-13


def test_restrict_inverts_prolong_below_nyquist():
    rng = np.random.default_rng(21)
    coarse = TorusGrid(2, 8)
    fine = TorusGrid(2, 16)
    f = below_nyquist(coarse, rng)
    back = fine.restrict(coarse.prolong(f, fine), coarse)
    assert np.max(np.abs(back - f)) < 1e-13


def test_prolong_reproduces_coarse_samples_even_at_nyquist():
    coarse = TorusGrid(1, 16)
    fine = TorusGrid(1, 32)
    f = cosine_mode(coarse, coarse.N // 2, axis=0)
    fp = coarse.prolong(f, fine)
    assert np.max(np.abs(fp[::2, ::2] - f)) == 0.0


def test_restrict_projects_high_modes_away():
    coarse = TorusGrid(1, 16)
    fine = TorusGrid(1, 64)
    smooth = 0.7 * cosine_mode(fine, 2, axis=0)
    rough = 0.4 * cosine_mode(fine, 25, axis=1)
    r = fine.restrict(smooth + rough, coarse)
    assert np.max(np.abs(r - 0.7 * cosine_mode(coarse, 2, axis=0))) < 1e-13


def test_transfer_preserves_mean_exactly():
    rng = np.random.default_rng(31)
    coarse = TorusGrid(1, 16)
    fine = TorusGrid(1, 48)
    f = rng.standard_normal(coarse.shape) - 7.25
    assert coarse.prolong(f, fine).mean() == pytest.approx(f.mean(), abs=1e-13)


def test_transfer_rejects_incompatible_grids():
    g16 = TorusGrid(1, 16)
    g24 = TorusGrid(1, 24)
    g2 = TorusGrid(2, 32)
    f = np.zeros(g16.shape)
    with pytest.raises(DimensionMismatch):
        g16.prolong(f, g24)  # 24 not a multiple of 16
    with pytest.raises(DimensionMismatch):
        g16.prolong(f, g2)
    with pytest.raises(DimensionMismatch):
        g16.restrict(f, TorusGrid(1, 12))


def test_equal_resolution_transfer_copies():
    grid = TorusGrid(1, 16)
    f = cosine_mode(grid, 1, axis=0)
    fp = grid.prolong(f, grid)
    assert np.array_equal(fp, f)
    fp[0, 0] = 99.0
    assert f[0, 0] != 99.0


# -- interpolation ---------------------------------------------------------------


def test_eval_at_reproduces_grid_samples_and_analytic_values():
    grid = TorusGrid(1, 16)
    f = 0.5 * cosine_mode(grid, 3, axis=0)
    pts = np.array([[0.125, 0.0], [0.3141, 0.77]])
    vals = grid.eval_spectral(np.fft.fftn(f), pts)
    want = 0.5 * np.cos(6.0 * np.pi * pts[:, 0])
    assert np.max(np.abs(vals - want)) < 1e-12


def test_eval_at_validates_point_shape():
    grid = TorusGrid(1, 8)
    with pytest.raises(DimensionMismatch):
        grid.eval_spectral(np.fft.fftn(np.zeros(grid.shape)), np.zeros((3, 5)))


# -- chart geometry ---------------------------------------------------------------


def test_chart_geometry_trusted_region():
    geo = ChartGeometry(n=2, radii=(1.0, 2.0), margin=0.25)
    assert geo.trusted([0.5, 1.0])
    assert not geo.trusted([0.9, 0.0])
    with pytest.raises(DimensionMismatch):
        geo.trusted([0.1])


def test_chart_geometry_validates_parameters():
    with pytest.raises(ValueError):
        ChartGeometry(n=1, radii=(1.0,), margin=0.0)
    with pytest.raises(ValueError):
        ChartGeometry(n=1, radii=(0.1,), margin=0.25)
    with pytest.raises(DimensionMismatch):
        ChartGeometry(n=2, radii=(1.0, 1.0, 1.0), margin=0.1)


def test_sample_points_stay_trusted_and_deterministic():
    geo = ChartGeometry(n=2, radii=(1.0, 1.0), margin=0.1)
    pts = geo.sample_points(per_axis=2, radius_fraction=0.5)
    assert pts.shape == ((2 * 2) ** 2, 2)
    assert all(geo.trusted(p) for p in pts)
    again = geo.sample_points(per_axis=2, radius_fraction=0.5)
    assert np.array_equal(pts, again)
