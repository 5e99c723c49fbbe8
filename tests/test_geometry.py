import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octfield.geometry import (
    chordal_distance,
    relocate,
    relocate_inverse,
    relocation_coefficients,
    sector_centroid,
    stereographic,
    stereographic_inverse,
)


def sector_of(z):
    """Sign triple of the sector containing the projected point."""
    s = stereographic_inverse(z)
    return tuple(1 if v > 0 else -1 for v in np.atleast_2d(s)[0])


def in_quarter_disc(w, tol: float = 1e-12) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    return (np.abs(w) <= 1 + tol) & (w.real >= -tol) & (w.imag >= -tol)


def gamma(w):
    """The order-3 rotation (i - w)/(i + w) of Q, 1 -> i -> 0 -> 1: the
    relocation to the x vertex."""
    return relocate("x", w)


def test_stereographic_vertex_values():
    assert stereographic((0.0, 0.0, 1.0)) == 0
    assert stereographic((1.0, 0.0, 0.0)) == 1
    assert stereographic((0.0, 1.0, 0.0)) == 1j


def test_south_pole_projects_to_infinity():
    assert np.isinf(stereographic((0.0, 0.0, -1.0)))


def test_a_vector_beside_the_south_pole_projects_to_its_finite_value():
    # |z| = sqrt((2 - delta) / delta): sqrt(399999) at delta = 5e-6, a vector
    # that a relative tolerance of 1e-5 on z = -1 would send to infinity
    delta = 5e-6
    near = (math.sqrt(delta * (2 - delta)), 0.0, -1 + delta)
    value = stereographic(near)
    assert value == pytest.approx(math.sqrt(399999), rel=1e-9)
    assert value == pytest.approx(632.4547, abs=1e-4)
    batch = stereographic(np.array([near, (0.0, 0.0, -1.0)]))
    assert batch[0] == value
    assert np.isinf(batch[1]) and np.isinf(stereographic((0.0, 0.0, -1.0)))


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


def test_relocation_to_y_is_gamma_squared():
    w = 0.3 + 0.4j
    assert relocate("y", w) == gamma(gamma(w))
    assert relocate_inverse("x", w) == relocate("y", w)


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


# the pole -i of gamma, within 1e-8, infinity in every direction, and plain
# finite points
_NEAR_POLE = st.builds(complex, st.floats(-1e-8, 1e-8), st.floats(-1 - 1e-8, -1 + 1e-8))
_INFINITE = st.sampled_from([complex(math.inf, 0), complex(-math.inf, 1.0),
                             complex(0.5, math.inf), complex(math.inf, -math.inf)])
_PLAIN = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_NEAR_POLE, _INFINITE, _PLAIN), min_size=1, max_size=8),
       st.sampled_from(["x", "y", "z"]))
@example([-1j + 3e-9, complex(math.inf, 0)], "x")
@example([-1j, 3e-9 - 1j, complex(math.inf, 0), 1j], "y")
def test_each_element_is_relocated_as_if_alone(points, axis):
    """An element's relocated value does not depend on the rest of its
    array, so the integrals may relocate any batch of points at once."""
    for move in (relocate, relocate_inverse):
        batch = move(axis, np.array(points))
        alone = np.array([move(axis, p) for p in points])
        assert np.array_equal(batch, alone, equal_nan=True), (move.__name__, batch, alone)


_NEAR_SOUTH = st.builds(
    lambda delta, theta: (math.sqrt(delta * (2 - delta)) * math.cos(theta),
                          math.sqrt(delta * (2 - delta)) * math.sin(theta), -1 + delta),
    st.floats(0.0, 1e-9), st.floats(0.0, 2 * math.pi))
_RANDOM_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.fsum(x * x for x in v) > 1e-2).map(
    lambda v: tuple(np.array(v) / np.linalg.norm(v)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_RANDOM_DIRECTION, _NEAR_SOUTH, st.just((0.0, 0.0, -1.0))),
                min_size=1, max_size=12))
def test_projecting_rows_at_once_equals_projecting_each(rows):
    """``stereographic`` of an (n, 3) array is its scalar path row by row,
    the south pole and points within 1e-9 of it included: a degree count
    projects a round's samples in one call."""
    batch = stereographic(np.array(rows))
    assert batch.shape == (len(rows),)
    for row, value in zip(rows, batch):
        alone = stereographic(row)
        assert isinstance(alone, complex)
        assert alone == value, (row, alone, value)
