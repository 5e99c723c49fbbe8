"""Serialization of classes, reports, field grids, and domain pictures.

JSON output is deterministic: sorted keys, plain floats, no timestamps.
The class and report functions need no NumPy; ``field_grid_csv`` and
``domain_svg`` import it, and ``geometry``, when first called.
Class JSON accepts either the invariant triple form
{"e": [1,1,1], "k": [1,1,1], "omega_units": 3} or the wrapping form
{"w": {"+++": 1, ...}}.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .topology import (
    SECTORS,
    OctantTopology,
    WrappingNumbers,
    classify,
    delta_invariant,
    infimum_energy,
    invariants_from_wrapping,
    sector_name,
    wrapping_from_invariants,
)

__all__ = [
    "class_to_dict",
    "class_from_dict",
    "classification_report",
    "dump_json",
    "field_grid_csv",
    "domain_svg",
]


def class_to_dict(t: OctantTopology, w: WrappingNumbers | None = None) -> dict:
    if w is None:
        w = wrapping_from_invariants(t)
    return {
        "e": list(t.e),
        "k": list(t.k),
        "omega_units": t.omega_units,
        "w": w.as_dict(),
    }


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _field(data: dict, field: str):
    if field not in data:
        raise ValueError(f"missing field {field!r}")
    return data[field]


def _integer_triple(value, field: str) -> tuple:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{field} must be a triple of integers, got {value!r}")
    return tuple(_integer(v, field) for v in value)


def _wrapping(data: dict) -> WrappingNumbers:
    names = [sector_name(s) for s in SECTORS]
    w_in = data["w"]
    if not isinstance(w_in, dict) or sorted(w_in) != sorted(names):
        raise ValueError(f"w must give exactly the eight sectors {' '.join(names)}")
    return WrappingNumbers(tuple(_integer(w_in[name], f"w[{name!r}]") for name in names))


def class_from_dict(data) -> tuple:
    """Parse a class from JSON; returns (topology, wrapping).  Every number
    must be a JSON integer: nothing is rounded or truncated.  A class given by
    ``w`` alone is read from it; once any of ``e``, ``k`` or ``omega_units``
    is given, all three are required."""
    if not isinstance(data, dict):
        raise ValueError(f"a class must be a JSON object, got {type(data).__name__}")
    if "w" in data and not data.keys() & {"e", "k", "omega_units"}:
        w = _wrapping(data)
        return invariants_from_wrapping(w), w
    t = OctantTopology(_integer_triple(_field(data, "e"), "e"),
                       _integer_triple(_field(data, "k"), "k"),
                       _integer(_field(data, "omega_units"), "omega_units"))
    w = wrapping_from_invariants(t)
    if "w" in data and _wrapping(data) != w:
        raise ValueError("wrapping numbers inconsistent with (e, k, omega)")
    return t, w


def classification_report(t: OctantTopology) -> dict:
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    delta = delta_invariant(w, c)
    energy = infimum_energy(w, c)
    report = {
        "class": class_to_dict(t, w),
        "kind": c.kind,
        "chi": c.chi,
        "delta": delta,
        "energy_pi_units": energy,
        "energy_text": f"{energy} pi",
        "abelian_pi_units": w.total_absolute(),
    }
    if c.kind == "nonconformal":
        report["sigma_plus"] = sector_name(c.sigma_plus)
        report["sigma_minus"] = sector_name(c.sigma_minus)
    return report


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _fmt(x: float) -> str:
    return "%.12g" % x


def field_grid_csv(sampled_map) -> str:
    """Grid dump on Q at the centers of a 64 x 64 grid on the unit square:
    u, v, Re K, Im K, nu_x, nu_y, nu_z, subdomain_tag.  Tags that hold a
    comma, such as annulus(x,1), are quoted."""
    import numpy as np

    from .geometry import stereographic_inverse

    axis = (np.arange(64) + 0.5) / 64
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    w = (uu + 1j * vv).ravel()
    inside = np.abs(w) <= 1.0
    w = w[inside]
    values = np.asarray(sampled_map.evaluate(w), dtype=complex)
    nu = stereographic_inverse(values)
    tags = sampled_map.subdomain_tags(w)
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["u", "v", "re_k", "im_k", "nu_x", "nu_y", "nu_z", "subdomain_tag"])
    finite = np.where(np.isfinite(values), values, 0.0)
    for i in range(len(w)):
        re_k = _fmt(finite[i].real) if np.isfinite(values[i]) else "inf"
        im_k = _fmt(finite[i].imag) if np.isfinite(values[i]) else "inf"
        rows.writerow([_fmt(w[i].real), _fmt(w[i].imag), re_k, im_k,
                       _fmt(nu[i, 0]), _fmt(nu[i, 1]), _fmt(nu[i, 2]), tags[i]])
    return out.getvalue()


_SECTOR_COLORS = {
    "+++": "#1f77b4", "++-": "#aec7e8", "+-+": "#ff7f0e", "+--": "#ffbb78",
    "-++": "#2ca02c", "-+-": "#98df8a", "--+": "#d62728", "---": "#ff9896",
}


def domain_svg(sampled_map) -> str:
    """Static 480-pixel picture of Q colored by the image sector on a 96 x 96
    grid, with seam circles."""
    import numpy as np

    from .geometry import relocate, stereographic_inverse

    resolution, size = 96, 480
    cell = size / resolution
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    axis = (np.arange(resolution) + 0.5) / resolution
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    w = (uu + 1j * vv).ravel()
    inside = np.abs(w) <= 1.0
    values = np.full(w.shape, np.nan, dtype=complex)
    values[inside] = sampled_map.evaluate(w[inside])
    nu = stereographic_inverse(np.where(np.isfinite(values), values, 0.0))
    for i in range(len(w)):
        if not inside[i]:
            continue
        if np.isfinite(values[i]):
            sec = tuple(1 if v > 0 else -1 for v in nu[i])
        else:
            sec = (-1, -1, -1)
        color = _SECTOR_COLORS[sector_name(sec)]
        x = w[i].real * size - cell / 2
        y = size - w[i].imag * size - cell / 2
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" height="{cell:.2f}" '
            f'fill="{color}"/>'
        )
    # domain outline
    arc = ", ".join(
        f"{math.cos(p) * size:.1f} {size - math.sin(p) * size:.1f}"
        for p in np.linspace(0, math.pi / 2, 40)
    )
    parts.append(
        f'<path d="M 0 {size} L {size} {size} L ' + arc.replace(",", " L") +
        f' L 0 {size} Z" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    # seam circles of the vertex charts: each piece's outer rim
    for ax, (pieces, _) in sampled_map.seams().items():
        for piece in pieces:
            pts = relocate(ax, piece.r_hi * np.exp(1j * np.linspace(0, math.pi / 2, 60)))
            path = " L ".join(
                f"{p.real * size:.2f} {size - p.imag * size:.2f}" for p in pts
            )
            parts.append(
                f'<path d="M {path}" fill="none" stroke="black" '
                f'stroke-width="0.4" opacity="0.6"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
