import numpy as np
import pytest
from scipy import ndimage

from mfgcoef.phantoms import (
    LETTERS,
    Metrics,
    Phantom,
    letter_phantom,
    make_k,
    raster_letter,
    score,
)

from test_objective import grid


def components(mask):
    # scipy's default 2D structure is the 4-neighbor cross
    _, count = ndimage.label(mask)
    return count


def enclosed_holes(mask):
    """Complement components that never touch the array border."""
    labels, count = ndimage.label(~mask)
    border = np.concatenate(
        [labels[0], labels[-1], labels[:, 0], labels[:, -1]]
    )
    touching = set(border[border > 0])
    return sum(1 for i in range(1, count + 1) if i not in touching)


@pytest.mark.parametrize("which", LETTERS)
@pytest.mark.parametrize("n", [21, 81])
def test_masks_have_sane_area_at_both_working_resolutions(which, n):
    mask = raster_letter(which, grid(n, n, 5))
    assert 0.02 < mask.mean() < 0.4


@pytest.mark.parametrize("n", [21, 81])
def test_two_letter_phantom_has_exactly_two_components(n):
    mask = raster_letter("SZ", grid(n, n, 5))
    assert components(mask) == 2


@pytest.mark.parametrize("which", ["A", "Omega"])
@pytest.mark.parametrize("n", [21, 81])
def test_single_letters_are_connected_and_enclose_a_hole(which, n):
    mask = raster_letter(which, grid(n, n, 5))
    assert components(mask) == 1
    assert enclosed_holes(mask) >= 1


def test_raster_reproduces_the_stencil_at_native_resolution():
    from mfgcoef.phantoms import _stencil

    g = grid(24, 24, 5)
    mask = raster_letter("A", g)
    # node (i1, i2) sits exactly on stencil cell (rows-1-i2, i1)
    assert np.array_equal(mask, _stencil("A")[::-1].T)


def test_raster_rejects_bad_input():
    with pytest.raises(ValueError, match="letter"):
        raster_letter("B", grid(21, 21, 5))
    with pytest.raises(ValueError, match="coarse"):
        raster_letter("A", grid(21, 19, 5))


def test_make_k_two_values_and_range():
    g = grid(21, 21, 5)
    k = make_k(letter_phantom("Omega", g, c_a=8.0))
    assert set(np.unique(k.values)) == {1.0, 8.0}
    assert k.values.max() - k.values.min() == 8.0 - 1.0
    flat = make_k(letter_phantom("Omega", g, c_a=1.0))
    assert np.all(flat.values == 1.0)


def test_phantom_validation():
    g = grid(21, 21, 5)
    mask = raster_letter("A", g)
    with pytest.raises(ValueError, match="positive"):
        Phantom(grid=g, mask=mask, c_a=0.0)
    with pytest.raises(ValueError, match="nonempty"):
        Phantom(grid=g, mask=np.zeros(g.spatial_shape(), dtype=bool), c_a=2.0)
    with pytest.raises(ValueError, match="nonempty"):
        Phantom(grid=g, mask=np.ones(g.spatial_shape(), dtype=bool), c_a=2.0)
    with pytest.raises(ValueError, match="shape"):
        Phantom(grid=g, mask=mask[:-1], c_a=2.0)


def test_score_of_the_truth_is_exact():
    g = grid(21, 21, 5)
    ph = letter_phantom("A", g, c_a=2.0)
    k = make_k(ph)
    m = score(k, k, ph.mask)
    assert isinstance(m, Metrics)
    assert m.rel_l2 == 0.0
    assert m.mask_rel_l2 == 0.0
    assert m.contrast == ph.c_a


def test_score_flat_reconstruction_matches_hand_count():
    g = grid(21, 21, 5)
    ph = letter_phantom("A", g, c_a=2.0)
    k_true = make_k(ph)
    n_in = int(ph.mask.sum())
    n_out = ph.mask.size - n_in
    m = score(np.ones(g.spatial_shape()), k_true, ph.mask)
    assert m.rel_l2 == pytest.approx(np.sqrt(n_in / (4.0 * n_in + n_out)), rel=1e-14)
    assert m.mask_rel_l2 == pytest.approx(0.5, rel=1e-14)
    assert m.contrast == 1.0


def test_score_uniform_offset_shifts_the_contrast():
    g = grid(21, 21, 5)
    for c_a in (2.0, 4.0, 8.0):
        ph = letter_phantom("SZ", g, c_a=c_a)
        k_true = make_k(ph)
        m = score(k_true.values + 0.1, k_true, ph.mask)
        assert m.contrast == pytest.approx((c_a + 0.1) / 1.1, rel=1e-14)


def test_score_is_permutation_invariant_within_classes():
    g = grid(21, 21, 5)
    ph = letter_phantom("Omega", g, c_a=4.0)
    k_true = make_k(ph)
    rng = np.random.default_rng(3)
    comp = k_true.values + 0.05 * rng.standard_normal(g.spatial_shape())
    shuffled = comp.copy()
    inside = np.flatnonzero(ph.mask)
    outside = np.flatnonzero(~ph.mask)
    flat = shuffled.ravel()
    flat[inside] = flat[rng.permutation(inside)]
    flat[outside] = flat[rng.permutation(outside)]
    a = score(comp, k_true, ph.mask)
    b = score(shuffled, k_true, ph.mask)
    # the truth is constant within each class, so every metric survives
    assert b.contrast == pytest.approx(a.contrast, rel=1e-14)
    assert b.rel_l2 == pytest.approx(a.rel_l2, rel=1e-14)
    assert b.mask_rel_l2 == pytest.approx(a.mask_rel_l2, rel=1e-14)


@pytest.mark.parametrize("inside", [12, 13], ids=["even-inside", "odd-inside"])
def test_contrast_is_the_ratio_of_numpy_medians_bit_for_bit(inside):
    # 25 nodes, so one class has an odd count and the other an even one
    rng = np.random.default_rng(inside)
    comp = rng.lognormal(size=(5, 5))
    mask = np.zeros(25, dtype=bool)
    mask[rng.permutation(25)[:inside]] = True
    mask = mask.reshape(5, 5)
    contrast = score(comp, np.ones((5, 5)), mask).contrast
    assert contrast == float(np.median(comp[mask]) / np.median(comp[~mask]))
    # a NaN sorts last, away from the middle, but still makes the median NaN
    comp[mask & (comp == comp[mask].max())] = np.nan
    assert np.isnan(score(comp, np.ones((5, 5)), mask).contrast)


def test_score_shape_mismatch_raises():
    g = grid(21, 21, 5)
    ph = letter_phantom("A", g, c_a=2.0)
    with pytest.raises(ValueError, match="shapes"):
        score(np.ones((5, 5)), make_k(ph), ph.mask)
