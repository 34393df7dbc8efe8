import math
import tracemalloc

import numpy as np
import pytest

from fraclab import fraclap
from fraclab.errors import ParameterError
from fraclab.fraclap import (
    Field,
    SpaceGrid,
    apply_singular_integral,
    apply_spectral,
    cosine_layout,
    lemma_kk_check,
    normalization_constant,
)
from fraclab.solver import bump_profile


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpaceGrid(3, 1.0, 64)
    with pytest.raises(ParameterError):
        SpaceGrid(1, 0.0, 64)
    with pytest.raises(ParameterError):
        SpaceGrid(1, 1.0, 6)
    with pytest.raises(ParameterError):
        SpaceGrid(1, 1.0, 100)
    # finite, but 2 * half_length overflows
    with pytest.raises(ParameterError, match="overflows the grid spacing"):
        SpaceGrid(1, 1e308, 256)
    # the largest squared wavenumber, dim (pi / spacing)^2, overflows: at 256
    # points it is ~1.6e305 at half-length 1e-150, and ~1.2e308 at 3.67e-152,
    # which a 2-D grid doubles past the largest float
    assert np.isfinite(fraclap.rfft_layout(SpaceGrid(1, 1e-150, 256))[0].max())
    assert np.isfinite(fraclap.rfft_layout(SpaceGrid(1, 3.67e-152, 256))[0].max())
    for dim, half_length in ((2, 3.67e-152), (1, 2e-159), (2, 2e-159), (1, 5e-324)):
        with pytest.raises(ParameterError, match=f"half_length {half_length} is too small"):
            SpaceGrid(dim, half_length, 256)


def test_grid_geometry():
    g = SpaceGrid(1, 4.0, 16)
    assert g.spacing == 0.5
    assert g.cell_volume == 0.5
    a = g.axis()
    assert a[0] == -4.0 and np.isclose(a[-1], 3.5)
    g2 = SpaceGrid(2, 4.0, 16)
    assert g2.cell_volume == 0.25
    r = g2.radius()
    assert r.shape == (16, 16)
    assert np.isclose(r[0, 0], 4.0 * math.sqrt(2.0))


def test_grid_radius_about_a_center():
    g = SpaceGrid(1, 4.0, 16)
    x = g.axis()
    assert np.array_equal(g.radius(), np.abs(x))
    assert np.array_equal(g.radius(0.75), np.abs(x - 0.75))
    g2 = SpaceGrid(2, 4.0, 16)
    a = g2.axis()
    assert np.array_equal(g2.radius(), np.hypot(a[:, None], a[None, :]))
    # a scalar centre in 2-D is the same centre on both axes
    assert np.array_equal(g2.radius(1.5), np.hypot(a[:, None] - 1.5, a[None, :] - 1.5))
    assert np.array_equal(g2.radius(1.5), g2.radius((1.5, 1.5)))
    r = g2.radius((1.0, -2.5))
    assert np.array_equal(r, np.hypot(a[:, None] - 1.0, a[None, :] + 2.5))
    i, j = np.unravel_index(np.argmin(r), r.shape)
    assert (a[i], a[j]) == (1.0, -2.5) and r[i, j] == 0.0
    # a tuple centre has one coordinate per axis
    assert np.array_equal(g.radius((0.75,)), g.radius(0.75))
    for grid, center in ((g, (1.0, 2.0)), (g2, (1.0,)), (g2, (1.0, 2.0, 3.0))):
        with pytest.raises(ParameterError, match=f"does not fit a {grid.dim}-D grid"):
            grid.radius(center)


def test_field_validation():
    g = SpaceGrid(1, 1.0, 8)
    with pytest.raises(ParameterError):
        Field(g, np.zeros(9))
    with pytest.raises(ParameterError):
        Field(g, np.full(8, np.nan))
    # apply_spectral keeps its own check for values made non-finite in place
    f = Field(g, np.zeros(8))
    f.values[0] = np.inf
    with pytest.raises(ParameterError):
        apply_spectral(f, 0.5)


def test_field_integral_and_sup():
    g = SpaceGrid(1, 3.0, 32)
    f = Field(g, np.ones(32))
    assert np.isclose(f.integral(), 6.0)
    f2 = Field(g, -2.0 * np.ones(32))
    assert f2.sup_norm() == 2.0


def test_spectral_eigenfunction():
    # cos(kx) is an exact eigenfunction with eigenvalue |k|^{2s}
    g = SpaceGrid(1, math.pi, 64)
    x = g.axis()
    f = Field(g, np.cos(3.0 * x))
    for s in (0.4, 0.8, 1.0):
        out = apply_spectral(f, s)
        assert np.allclose(out.values, 9.0**s * f.values, atol=1e-12)


def test_spectral_order_one_is_classical():
    g = SpaceGrid(1, math.pi, 64)
    x = g.axis()
    f = Field(g, np.cos(2.0 * x) + 0.5 * np.sin(5.0 * x))
    out = apply_spectral(f, 1.0)
    exact = 4.0 * np.cos(2.0 * x) + 12.5 * np.sin(5.0 * x)
    assert np.allclose(out.values, exact, atol=1e-11)


def test_spectral_zero_mean_and_nonnegative_form(rng):
    g = SpaceGrid(1, 4.0, 128)
    x = g.axis()
    vals = np.zeros(128)
    for k in range(1, 6):
        vals += rng.normal() * np.cos(k * math.pi * x / 4.0)
        vals += rng.normal() * np.sin(k * math.pi * x / 4.0)
    f = Field(g, vals + rng.normal())
    out = apply_spectral(f, 0.6)
    assert abs(np.mean(out.values)) < 1e-12 * f.sup_norm()
    # quadratic form <f, (-Delta)^s f> is nonnegative
    assert np.sum(f.values * out.values) * g.cell_volume > -1e-10


def test_spectral_order_bounds():
    g = SpaceGrid(1, 1.0, 8)
    f = Field(g, np.ones(8))
    for bad in (0.0, 1.2, -0.5):
        with pytest.raises(ParameterError, match=r"Laplacian order must lie in \(0,1\]"):
            apply_spectral(f, bad)


def test_spectral_2d_eigenfunction():
    g = SpaceGrid(2, math.pi, 16)
    a = g.axis()
    vals = np.cos(2.0 * a)[:, None] * np.cos(3.0 * a)[None, :]
    out = apply_spectral(Field(g, vals), 0.5)
    assert np.allclose(out.values, math.sqrt(13.0) * vals, atol=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.75, 1.0])
def test_spectral_oblique_and_nyquist_modes(s):
    # an oblique mode tells the axes and the signs of the fft-of-rfft layout
    # apart, which a product of cosines on a square grid cannot; cos(8x) is
    # (-1)^j on these grids, the highest mode on its axis
    g1 = SpaceGrid(1, math.pi, 16)
    x1 = g1.axis()
    g = SpaceGrid(2, math.pi, 16)
    x, y = g.axis()[:, None], g.axis()[None, :]
    nyquist = np.cos(8.0 * x)
    one = np.ones((16, 16))
    for grid, vals, k2 in ((g1, np.cos(8.0 * x1), 64.0),
                           (g, np.sin(2.0 * x - 3.0 * y), 13.0),
                           (g, np.cos(x + 4.0 * y), 17.0), (g, np.sin(y - 5.0 * x), 26.0),
                           (g, nyquist * one, 64.0), (g, nyquist.T * one, 64.0),
                           (g, nyquist * nyquist.T, 128.0),
                           (g, nyquist * np.cos(3.0 * y), 73.0)):
        out = apply_spectral(Field(grid, vals), s)
        assert np.allclose(out.values, k2**s * vals, rtol=0.0, atol=1e-12), k2


def full_fft_reference(grid, values, s):
    # (-Delta)^s through the full complex transform, every axis in fft order
    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    k2 = k**2 if grid.dim == 1 else k[:, None] ** 2 + k[None, :] ** 2
    return np.fft.ifftn(np.fft.fftn(values) * k2**s).real


@pytest.mark.parametrize("dim,half_length,points", [(1, 3.7, 64), (1, 20.0, 512),
                                                    (2, 3.7, 32), (2, 11.0, 64)])
def test_spectral_matches_full_fft_on_random_fields(rng, dim, half_length, points):
    g = SpaceGrid(dim, half_length, points)
    for s in (0.2, 0.5, 0.9, 1.0):
        vals = rng.normal(size=g.shape())
        ref = full_fft_reference(g, vals, s)
        out = apply_spectral(Field(g, vals), s).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), s



@pytest.mark.parametrize("dim", [1, 2])
def test_both_layouts_hand_out_real_columns_with_one_k2_each(rng, dim):
    # the stepper's one mode contract: fwd maps fields to float64 rows of
    # k2.size columns, batched over leading axes, and inv maps them back;
    # the rfft layout's columns are the rfft modes' (real, imaginary) pairs
    g = SpaceGrid(dim, 7.3, 32)
    node = (5,) * dim
    q, vals = even_about(rng, g.points, node)
    k2, shape, fwd, inv = fraclap.rfft_layout(g)
    assert shape == k2.shape  # the rfft layout also hands out its flat shape
    rfft = k2, fwd, inv
    for (k2, fwd, inv), field in ((rfft, vals), (cosine_layout(g, node)[:3], q)):
        assert k2.dtype == np.float64 and k2.ndim == 1
        modes = fwd(np.stack([field, 2.0 * field]))
        assert modes.dtype == np.float64 and modes.shape == (2, k2.size)
        assert np.max(np.abs(inv(modes)[1] - 2.0 * field)) <= 1e-14 * np.max(np.abs(field))
    fwd = rfft[1]
    assert np.array_equal(fwd(vals).view(np.complex128),
                          np.fft.rfft(vals) if dim == 1 else np.fft.rfftn(vals).ravel())


def even_about(rng, points, node):
    # a random field even about the grid node `node` on each axis, and in 2-D
    # under the swap of the axes too, and its fundamental domain: offset o
    # from the node reads the sample at min(o, M - o)
    half = rng.normal(size=(points // 2 + 1,) * len(node))
    if len(node) == 2:
        half = half + half.T
    fold = np.ix_(*(np.minimum((np.arange(points) - n) % points, (n - np.arange(points)) % points)
                    for n in node))
    return half, half[fold]


@pytest.mark.parametrize("points", [16, 64, 1024, 2048])
def test_cosine_layout_is_the_rfft_layout_of_even_fields(rng, points):
    # above fraclap.DENSE_POINTS the 1-D transforms are FFTs
    m = points
    for dim in (1, 2) if points <= 64 else (1,):
        g = SpaceGrid(dim, 7.3, points)
        for node in ((0,) * dim, (m // 2,) * dim, tuple(rng.integers(1, m // 2, dim)),
                     tuple(rng.integers(m // 2 + 1, m, dim))):
            check_cosine_layout(rng, g, node)


def check_cosine_layout(rng, g, node):
    dim, k = g.dim, g.points // 2 + 1
    q, vals = even_about(rng, g.points, node)
    k2, fwd, inv, gather, unfold = cosine_layout(g, node)
    # 2-D modes are the triangle i <= j of the symmetric (k, k) mode matrix
    tri = (lambda a: a) if dim == 1 else (lambda a: a[np.triu_indices(k)])
    assert k2.shape == ((k,) if dim == 1 else (k * (k + 1) // 2,))
    assert np.array_equal(gather(vals), q) and np.array_equal(unfold(q), vals), node
    modes = fwd(q)
    # the rfft modes measured from the node, Nyquist rows included
    ref = np.fft.rfftn(np.roll(vals, [-n for n in node], axis=tuple(range(dim))))
    ref = ref[(slice(k),) * dim]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-13 * scale, node
    assert np.max(np.abs(modes - tri(ref.real))) <= 1e-13 * scale, node
    # one rfft k2 per (real, imaginary) pair of columns, the rfft modes flat
    ref_k2 = fraclap.rfft_layout(g)[0].reshape(*g.shape()[:-1], -1)
    assert np.array_equal(k2, tri(ref_k2[..., ::2][:k]))
    assert np.max(np.abs(inv(modes) - q)) <= 1e-14 * np.max(np.abs(q)), node
    for s in (0.2, 0.5, 1.0):
        want = apply_spectral(Field(g, vals), s).values
        got = unfold(inv(modes * k2**s))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (node, s)
    # leading axes batch, and a row's result does not depend on the others
    # when each comes as a (1, ...) stack, as the stepper holds them: in 1-D
    # a (2, k) block is one product, which rounds unlike two rows
    batch = fwd(np.stack([q, 2.0 * q])[:, None])
    assert np.max(np.abs(batch[1, 0] - 2.0 * modes)) <= 1e-15 * scale
    assert np.array_equal(batch[0], fwd(q[None, None])[0])
    assert np.array_equal(inv(batch)[0], inv(batch[:1])[0])
    assert np.array_equal(gather(np.stack([vals, vals]))[1], q)
    assert np.array_equal(unfold(np.stack([q, q]))[1], vals)


def test_cosine_layout_builds_no_dense_matrix_above_the_crossover():
    # one (M/2+1)^2 matrix of floats would take 134 MB at M = 8192
    g = SpaceGrid(1, 20.0, 8192)
    tracemalloc.start()
    try:
        k2, fwd, inv, *_ = cosine_layout(g, (4096,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.points > fraclap.DENSE_POINTS and peak < 2**20, peak
    q = np.ones((1, k2.size))
    assert np.allclose(inv(fwd(q)), q, rtol=0.0, atol=1e-14)


def test_normalization_constant():
    assert np.isclose(normalization_constant(1, 0.5), 1.0 / math.pi, atol=1e-15)
    with pytest.raises(ParameterError):
        normalization_constant(0, 0.5)
    with pytest.raises(ParameterError, match=r"Laplacian order must lie in \(0,1\)"):
        normalization_constant(1, 1.0)


def test_singular_cosine_eigenvalue():
    # (-Delta)^s cos = cos for every s: the symbol at |xi| = 1 is 1
    for s in (0.3, 0.5, 0.7):
        for x in (0.0, 1.1):
            val = apply_singular_integral(np.cos, x, s)
            assert np.isclose(val, math.cos(x), atol=5e-3)


def test_singular_order_bounds():
    with pytest.raises(ParameterError, match=r"Laplacian order must lie in \(0,1\)"):
        apply_singular_integral(np.cos, 0.0, 1.0)


def test_spectral_matches_singular_on_bump():
    g = SpaceGrid(1, 8.0, 256)
    f = Field(g, bump_profile(g.axis()))
    out = apply_spectral(f, 0.5)
    x = g.axis()
    ref = np.array([apply_singular_integral(bump_profile, r, 0.5) for r in (0.0, 0.5, 1.0, 1.5)])
    got = np.array([out.values[np.argmin(np.abs(x - r))] for r in (0.0, 0.5, 1.0, 1.5)])
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 0.02


def test_lemma_kk_report_shape():
    rep = lemma_kk_check(bump_profile, 0.5, 2.0)
    assert rep.c1_estimate > 0.0 and np.isfinite(rep.c1_estimate)
    assert rep.c2_estimate > 0.0 and np.isfinite(rep.c2_estimate)


def test_lemma_kk_refinement_stable():
    a = lemma_kk_check(bump_profile, 0.5, 2.0)
    b = lemma_kk_check(bump_profile, 0.5, 2.0, refined=True)
    assert abs(a.c1_estimate - b.c1_estimate) <= 0.10 * b.c1_estimate
    assert abs(a.c2_estimate - b.c2_estimate) <= 0.10 * b.c2_estimate


def test_lemma_kk_constants_frozen():
    # the bump constants of the canonical profile at s = 1/2, p = 2, on the
    # default and the refined quadrature; a change to either rule moves them
    for refined, c1, c2 in ((False, 2.728215628164312, 20.81136171358171),
                            (True, 2.728221328251853, 20.811448676434868)):
        rep = lemma_kk_check(bump_profile, 0.5, 2.0, refined=refined)
        assert rep.c1_estimate == pytest.approx(c1, rel=1e-13)
        assert rep.c2_estimate == pytest.approx(c2, rel=1e-13)


def test_lemma_kk_hypothesis_rejections():
    with pytest.raises(ParameterError):
        lemma_kk_check(bump_profile, 0.5, 1.0)
    with pytest.raises(ParameterError, match="positive at the origin"):
        # vanishes at the origin
        lemma_kk_check(lambda r: bump_profile(r - 3.0), 0.5, 2.0)
    with pytest.raises(ParameterError, match="profile must be nonnegative"):
        # negative dip
        lemma_kk_check(lambda r: bump_profile(r) - 0.5 * bump_profile(r - 1.0), 0.5, 2.0)
    with pytest.raises(ParameterError, match="vanish identically beyond radius 8"):
        # positive tail everywhere
        lemma_kk_check(lambda r: np.exp(-np.asarray(r) ** 2), 0.5, 2.0)
    with pytest.raises(ParameterError, match="nonincreasing beyond radius 1"):
        # secondary hump: increasing on [1, 4]
        lemma_kk_check(lambda r: bump_profile(r) + bump_profile(r - 4.0), 0.5, 2.0)


def test_lemma_kk_bulk_probe_outside_support():
    # support radius 1, inside the bulk radius: the probe at r = 1 finds zero
    assert fraclap.BULK_RADIUS > 1.0
    with pytest.raises(ParameterError, match="r=1.0 lies outside the support"):
        lemma_kk_check(lambda r: bump_profile(2.0 * np.asarray(r)), 0.5, 2.0)
