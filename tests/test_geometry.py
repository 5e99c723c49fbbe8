import numpy as np
import pytest

from octfield.geometry import (
    chordal_distance,
    gamma,
    gamma_inverse,
    in_quarter_disc,
    relocate,
    relocate_inverse,
    relocation_coefficients,
    sector_centroid,
    sector_of,
    stereographic,
    stereographic_inverse,
)


def test_stereographic_vertex_values():
    assert stereographic((0.0, 0.0, 1.0)) == 0
    assert stereographic((1.0, 0.0, 0.0)) == 1
    assert stereographic((0.0, 1.0, 0.0)) == 1j


def test_south_pole_projects_to_infinity():
    assert np.isinf(stereographic((0.0, 0.0, -1.0)))


def test_roundtrip_random_unit_vectors():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(1000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    z = stereographic(v)
    back = stereographic_inverse(z)
    assert np.max(np.linalg.norm(back - v, axis=1)) < 1e-12


def test_gamma_permutes_vertices():
    assert gamma(1.0) == pytest.approx(1j)
    assert gamma(1j) == pytest.approx(0)
    assert gamma(0.0) == pytest.approx(1)


def test_gamma_cubed_is_identity():
    rng = np.random.default_rng(3)
    r = np.sqrt(rng.uniform(0, 1, 100))
    phi = rng.uniform(0, np.pi / 2, 100)
    w = r * np.exp(1j * phi)
    out = gamma(gamma(gamma(w)))
    assert np.max(np.abs(out - w)) < 1e-12


def test_gamma_preserves_quarter_disc_boundary():
    t = np.linspace(0.01, 0.99, 30)
    for seg in (t + 0j, 1j * t, np.exp(1j * np.pi / 2 * t)):
        image = gamma(seg)
        assert in_quarter_disc(image, tol=1e-9).all()


def test_relocate_inverse_consistency():
    rng = np.random.default_rng(5)
    w = np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, np.pi / 2, 50))
    for axis in "xyz":
        assert np.max(np.abs(relocate_inverse(axis, relocate(axis, w)) - w)) < 1e-12


def test_relocate_vertex_targets():
    # gamma_j carries the z vertex chart to vertex j
    assert relocate("x", 0.0) == pytest.approx(1.0)
    assert relocate("y", 0.0) == pytest.approx(1j)
    assert relocate("z", 0.0) == pytest.approx(0.0)


def test_gamma_inverse_is_square():
    w = 0.3 + 0.4j
    assert gamma_inverse(w) == pytest.approx(gamma(gamma(w)))


def test_sector_of_centroids():
    for sector in [(1, 1, 1), (-1, 1, -1), (-1, -1, -1)]:
        z = stereographic(sector_centroid(sector))
        assert sector_of(z) == sector


def test_chordal_distance_properties():
    assert chordal_distance(0, 0) == 0
    assert chordal_distance(0, np.inf) == pytest.approx(2.0)
    assert chordal_distance(np.inf, np.inf) == 0
    assert chordal_distance(1, -1) == pytest.approx(2.0)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_relocation_coefficients_are_the_relocation(axis):
    a, b, c, d = relocation_coefficients(axis)
    u = np.array([0.0, 0.03 + 0.02j, 0.2j, 0.7 * np.exp(0.4j)])
    assert np.allclose((a * u + b) / (c * u + d), relocate(axis, u), rtol=1e-14, atol=1e-15)
