import math

import numpy as np
import pytest

from octfield.geometry import relocate, relocate_inverse
from octfield.numerics import CENTROID_VALUES, Region
from octfield.patchwork import SampledMap
from octfield.stacks import QuarterSphereStack, alternating, stack_degree_table
from octfield.topology import SECTORS, sector_name


def table_by_name(stack, axis):
    return {sector_name(s): v for s, v in stack_degree_table(stack, axis).items() if v}


def stack_map(stack):
    """The stack alone, on its chart disc, as a map of its pieces."""
    return SampledMap([Region(f"{kind}({index})", formula, r_lo, r_hi, "log")
                       for kind, index, r_lo, r_hi, formula in stack.pieces()])


def test_radii_are_geometric():
    st = QuarterSphereStack(alternating(3), 0.05)
    assert st.radius(0) == 0
    assert st.radius(3) == pytest.approx(0.05)
    assert st.radius(2) / st.radius(1) == pytest.approx(1 / 0.05)


def test_odd_layer_real_ray_stays_real_and_negative():
    st = QuarterSphereStack(alternating(1), 0.05)
    vals = st.layer_value(1, np.linspace(0.001, 0.05, 9) + 0j)
    assert np.max(np.abs(vals.imag)) == 0
    assert np.all(vals.real < 0)


def test_layer_modulus_at_outer_seam():
    st = QuarterSphereStack(alternating(2), 0.05)
    for m in (1, 2):
        val = st.layer_value(m, st.radius(m) * np.exp(0.3j))
        expected = 1 / math.sqrt(0.05) if m % 2 else st.radius(m - 1) / (
            math.sqrt(0.05) * st.radius(m)
        )
        assert abs(complex(val)) == pytest.approx(expected)


def test_interpolant_matches_neighbors_at_annulus_edges():
    st = QuarterSphereStack(alternating(3), 0.05)
    for n in (1, 2):
        u_in = st.radius(n) * np.exp(1j * np.linspace(0.05, 1.5, 7))
        u_out = 2 * st.radius(n) * np.exp(1j * np.linspace(0.05, 1.5, 7))
        np.testing.assert_allclose(
            st.interpolant_value(n, u_in), st.layer_value(n, u_in), rtol=1e-12
        )
        np.testing.assert_allclose(
            st.interpolant_value(n, u_out), st.layer_value(n + 1, u_out), rtol=1e-12
        )


def test_interpolant_real_on_real_axis():
    st = QuarterSphereStack(alternating(2), 0.05)
    u = np.linspace(st.radius(1) * 1.01, st.radius(1) * 1.99, 11) + 0j
    vals = st.interpolant_value(1, u)
    assert np.max(np.abs(vals.imag)) < 1e-14


def test_stack_axes_reality():
    st = QuarterSphereStack(alternating(3), 0.06)
    t = np.linspace(1e-7, 0.06, 40)
    real_vals = stack_map(st).evaluate(t + 0j)
    imag_vals = stack_map(st).evaluate(1j * t)
    assert np.max(np.abs(real_vals.imag)) < 1e-13
    assert np.max(np.abs(imag_vals.real)) < 1e-13


def test_z_stack_table_single_layer():
    st = QuarterSphereStack(alternating(1), 0.05)
    assert table_by_name(st, "z") == {"--+": -1, "---": -1}


def test_z_stack_table_counts():
    st = QuarterSphereStack(alternating(4), 0.05)
    assert table_by_name(st, "z") == {"--+": -2, "---": -2, "+++": 2, "++-": 2}


def test_x_stack_table_single_layer():
    st = QuarterSphereStack(alternating(1), 0.05)
    assert table_by_name(st, "x") == {"+--": -1, "---": -1}


def test_y_stack_table_single_layer():
    st = QuarterSphereStack(alternating(1), 0.05)
    assert table_by_name(st, "y") == {"-+-": -1, "---": -1}


def test_x_stack_table_matches_measured_degrees():
    # numerical pin of the relocation convention: a single conformal layer
    # moved to the x vertex covers (+--) and (---) once, negatively
    eps = 0.05
    st = QuarterSphereStack(alternating(1), eps)

    from octfield.numerics import degree_differences_by_winding
    from octfield.rational import boundary_points

    params = np.linspace(0, 3, 2400, endpoint=False)

    def curve(p):
        u = eps * boundary_points(p)  # boundary of the quarter-disc chart
        return relocate("x", stack_map(st).evaluate(u))

    targets = list(CENTROID_VALUES)
    ref = CENTROID_VALUES[SECTORS.index((1, 1, 1))]
    diffs = degree_differences_by_winding(curve, params, targets, ref, 3.0)
    # conformal single covering of one sector pair: signed degrees sum to +2
    anchor = (2 - sum(diffs)) // 8
    degrees = {sector_name(s): d + anchor for s, d in zip(SECTORS, diffs)}
    measured_w = {name: -d for name, d in degrees.items() if d}
    assert measured_w == {"+--": -1, "---": -1}


def test_alternating_covers():
    assert alternating(3) == ((-1, -1), (1, 1), (-1, -1))
    assert alternating(2, flip=-1) == ((1, 1), (-1, -1))
    assert QuarterSphereStack(alternating(3), 0.05).layers == 3


def test_case2c_x_variant_table():
    # k = (1,1,3), n = 1: M_x = 2 k_y + 2(k_z - n - 1) = 4, and the even
    # layers up to 2(k_z - n - 1) = 2 cover (1, -1) by a conformal inversion
    st = QuarterSphereStack(((-1, -1), (1, -1), (-1, -1), (1, 1)), 0.05)
    # table form: (pm,-,-) -> -k_y + (n-k_z+1); (pm,+,-) -> n-k_z+1; (pm,+,+) -> k_y
    table = table_by_name(st, "x")
    assert table == {
        "+--": -2, "---": -2,
        "++-": -1, "-+-": -1,
        "+++": 1, "-++": 1,
    }


def test_case2c_y_variant_table():
    # k = (1,1,3), n = 1: M_y = 2(n - k_y) + 1 = 1, and no odd layer up to
    # 2(n - k_x - k_y + 1) = 0 covers (1, -1)
    st = QuarterSphereStack(alternating(1), 0.05)
    assert table_by_name(st, "y") == {"-+-": -1, "---": -1}


def test_case2c_y_special_layers_cover_positively():
    # synthetic instance of the 2c y-stack table with kx = 1 and one
    # antidiagonal odd layer: (+,pm,+) and (-,pm,+) gain one positive
    # covering, the standard tail covers (-,pm,-) negatively
    st = QuarterSphereStack(((1, -1), (1, 1), (-1, -1)), 0.05)
    table = table_by_name(st, "y")
    assert table == {"+++": 1, "+-+": 1, "-++": 1, "--+": 1, "-+-": -1, "---": -1}


def test_antidiagonal_layer_formulas():
    # conj(u) at odd layers (large moduli, anticonformal), 1/u at even layers
    # (small moduli, conformal)
    st = QuarterSphereStack(((1, -1), (1, -1)), 0.05)
    root = math.sqrt(0.05)
    u1 = st.radius(1) * np.exp(0.4j)
    u2 = st.radius(2) * np.exp(0.4j)
    assert st.layer_value(1, u1) == np.conj(u1) / (root * st.radius(1))
    assert st.layer_value(2, u2) == st.radius(1) / (root * u2)
    # an anticonformal and a conformal covering of (+-pm) cancel
    assert table_by_name(st, "z") == {}


def test_general_sign_flips_move_covered_pairs():
    st = QuarterSphereStack(alternating(1, flip=-1), 0.05)
    assert table_by_name(st, "z") == {"+++": -1, "++-": -1}


def test_tags_and_values_share_the_annulus_split():
    # on every piece boundary, a rounding error to either side of it, and
    # inside each interpolant, a point's tag names the piece whose formula
    # gives its value; a point on a boundary belongs to the inner piece
    st = QuarterSphereStack(alternating(3), 0.05, delta=1e-3)
    sm = stack_map(st)
    formulas = {f"{kind}({index})": formula
                for kind, index, _, _, formula in st.pieces()}
    turn = np.exp(0.7j)
    probes = []
    for m in (1, 2, 3):
        probes += [(complex(st.radius(m)), f"annulus({m})"),
                   (st.radius(m) * (1 - 1e-10) * turn, f"annulus({m})")]
    for n in (1, 2):
        probes += [(st.radius(n) * (1 + 1e-10) * turn, f"interp({n})"),
                   (1.5 * st.radius(n) * turn, f"interp({n})"),
                   (complex(2 * st.radius(n)), f"interp({n})"),
                   (2 * st.radius(n) * (1 + 1e-10) * turn, f"annulus({n + 1})")]
    for u, name in probes:
        assert list(sm.subdomain_tags(u)) == [name], (name, u)
        assert sm.evaluate(u) == complex(formulas[name](u)), (name, u)


def test_invalid_stack_parameters():
    with pytest.raises(ValueError):
        QuarterSphereStack(alternating(0), 0.05)
    with pytest.raises(ValueError):
        QuarterSphereStack(alternating(2), 0.2)


@pytest.mark.parametrize("cover", [(-1, 1), (1, 0), (2, 2), (1,)])
def test_cover_outside_the_three_quadrants_is_refused(cover):
    with pytest.raises(ValueError, match="quadrants"):
        QuarterSphereStack(((-1, -1), cover), 0.05)


def test_layer_ratio_decoupled_from_chart_radius():
    # rho_m = epsilon * delta^(L-m): the top layer ends at epsilon, the layer
    # formulas scale with sqrt(delta)
    st = QuarterSphereStack(alternating(3), 0.05, delta=1e-3)
    assert st.radius(3) == pytest.approx(0.05)
    assert st.radius(2) == pytest.approx(0.05 * 1e-3)
    assert st.radius(1) == pytest.approx(0.05 * 1e-6)
    top = st.layer_value(3, st.radius(3) * np.exp(0.3j))
    assert abs(complex(top)) == pytest.approx(1 / math.sqrt(1e-3))
    assert QuarterSphereStack(alternating(3), 0.05).delta == 0.05


def test_layer_closed_form_with_decoupled_ratio():
    # criterion 2's closed form with epsilon replaced by the layer ratio
    from octfield.numerics import dirichlet_energy

    for delta in (1e-3, 1e-4):
        st = QuarterSphereStack(alternating(2), 0.05, delta=delta)
        region = Region(
            "layer2", lambda u, s=st: s.layer_value(2, u),
            2 * st.radius(1), st.radius(2), "log",
        )
        sm = SampledMap([region])
        exact = 2 * math.pi * (1 - 4 * delta**2) / ((1 + delta) * (1 + 4 * delta))
        assert dirichlet_energy(sm, level=3) == pytest.approx(exact, rel=0.005)


def test_interpolant_matches_neighbors_with_decoupled_ratio():
    st = QuarterSphereStack(alternating(3), 0.05, delta=1e-3)
    for n in (1, 2):
        u_in = st.radius(n) * np.exp(1j * np.linspace(0.05, 1.5, 7))
        u_out = 2 * st.radius(n) * np.exp(1j * np.linspace(0.05, 1.5, 7))
        np.testing.assert_allclose(
            st.interpolant_value(n, u_in), st.layer_value(n, u_in), rtol=1e-12
        )
        np.testing.assert_allclose(
            st.interpolant_value(n, u_out), st.layer_value(n + 1, u_out), rtol=1e-12
        )


def test_invalid_layer_ratio():
    with pytest.raises(ValueError):
        QuarterSphereStack(alternating(2), 0.05, delta=0.2)
    with pytest.raises(ValueError):
        QuarterSphereStack(alternating(2), 0.05, delta=0.0)
