"""Batch command line front end: the numeric commands, and the reference
for every subcommand and exit code.

The argument parser and ``main`` live in ``octfield.console``, the console
script's entry point, which runs ``classify`` and ``spelling`` itself
without NumPy and imports this module for ``construct``, ``verify`` and
``sweep``.  ``main`` here is the same function.  This module imports the
numeric layer (and NumPy) at load time, so ``import octfield.cli`` loads
every module a traced benchmark pass wraps.

Subcommands:

- ``classify``: invariants, classification, Delta, infimum energy, prism bounds
- ``spelling``: spelling length of a word, or the free-group energy bound of a class
- ``construct``: build a representative, verify it, write reports and grids
- ``sweep``: run construct over a family of kink triples
- ``verify``: the construct pipeline without artifacts, exit code only

Exit codes: 0 success, 2 invalid input (a class that is not valid JSON of a
valid class, JSON nested too deep to parse included, an unreadable class
file, prism lengths not in the order Lx >= Ly >= Lz > 0 or with non-finite
lengths, prism bounds that overflow the doubles, an unknown
``--format`` name, a ``--grid-level`` outside 1-5, a ``sweep --kmax``
outside 1-8 (8 sweeps 1,380 classes), an ``--out`` that is neither a
directory nor one ``mkdir`` can make, refused before any work, or a bad
word; a word may have at most ``words.MAX_WORD_LETTERS`` letters and its
alphabet as many generators), 3
unsupported kink sign pattern (for ``spelling``, kinks of mixed sign or
zero once the class is reflected to edge signs (+,+,+)), 4 unsupported
class for construction (including a general-sign class for which no stack
counts satisfy the coverage identity, a class whose bulk has no factor
shape that ``rational.realize`` can fit, and an ``--epsilon`` so small that
a stack's innermost layer falls below double precision), 5 invariant
failure (a failed check, energy below the infimum included, a spelling
bound above the energy formula, degree counts of a built map that stay
low-confidence after their retries, or a verification integral that does
not converge, such as an energy density that stays non-finite, a boundary
contour past ``numerics.MAX_CONTOUR_PANELS`` panels, or a bulk above
``rational.MAX_PREIMAGE_DEGREE``, refused before its fit because its
preimages are not solved for), 141 stdout closed before all output was
written, as by ``head`` (128 + SIGPIPE, as the shell reports a process that
a closed pipe ended; the unread output is dropped, without a traceback).
"""

from __future__ import annotations

import itertools
import math
import sys

from . import numerics, reports
from .console import (
    EXIT_INVALID_INPUT,
    EXIT_INVARIANT_FAILURE,
    EXIT_UNSUPPORTED_CLASS,
    FORMATS,
    emit,
    load_class,
    main,  # noqa: F401  (octfield.cli.main is the console script's main)
)
from .patchwork import (
    NotApplicableError,
    UnsupportedClassError,
    assemble_patchwork,
    measure_map_wrapping,
    rational_map,
    select_case,
)
from .rational import ConstructionError, realize
from .topology import (
    OctantTopology,
    classify,
    infimum_energy,
    normalize_edge_signs,
    wrapping_from_invariants,
)

# (sum|w| + Delta) pi is a proven lower bound for the energy; the quadrature
# may fall below it by at most this share
ENERGY_QUADRATURE_SLACK = 0.01


def _max_seam_jump(sm) -> float:
    """Chordal discontinuity across the seams of every vertex chart
    (``SampledMap.seams``): the two region formulas that meet at each seam
    radius, evaluated at the same 333 chart points, the outermost piece
    against the cut disc, which is the bulk in the chart.  Each region is
    evaluated once, at every rim point it is compared at, and the distances
    of all seams are taken in one call."""
    import numpy as np

    from .geometry import chordal_distance

    seams = [(inner, outer) for pieces, cut in sm.seams().values()
             for inner, outer in zip(pieces, pieces[1:] + [cut])]
    if not seams:
        return 0.0
    rims = {}  # each region's chart points on its rims, in the order of its seams
    for inner, outer in seams:
        phis = np.linspace(inner.phi_lo + 0.01, inner.phi_hi - 0.01, 333)
        u = inner.r_hi * np.exp(1j * phis)
        for region in (inner, outer):
            rims.setdefault(region, []).append(u)
    # each region's values on its rims, one row per rim, handed out in the
    # order of the seams
    values = {region: iter(np.asarray(region.evaluate(np.concatenate(us))).reshape(len(us), -1))
              for region, us in rims.items()}
    sides = [(next(values[inner]), next(values[outer])) for inner, outer in seams]
    inner, outer = (np.concatenate(side) for side in zip(*sides))
    return float(np.max(chordal_distance(inner, outer)))


def _construct_and_verify(t, epsilon: float, grid_level: int):
    """Build a representative of the class t, run the invariant battery,
    return a report."""
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    energy_units = infimum_energy(w, c)
    report = {
        "class": reports.class_to_dict(t, w),
        "kind": c.kind,
        "energy_pi_units": energy_units,
        "epsilon": epsilon,
        "grid_level": grid_level,
    }
    checks = {}
    if c.kind == "nonconformal":
        t_norm, flips = normalize_edge_signs(t)
        if t_norm != t:
            report["normalized_class"] = reports.class_to_dict(t_norm)
            report["reflections"] = list(flips)
        spec = select_case(t_norm, epsilon=epsilon)
        report["patchwork"] = spec.as_dict()
        sm = assemble_patchwork(spec)
        w_check = wrapping_from_invariants(t_norm)
        checks["lemma2_identity"] = spec.coverage == energy_units
    else:
        spec = realize(t)
        report["rational"] = {
            "sign": spec.sign,
            "power": 2 * spec.m + 1,
            "real_factors": [[r, e] for r, e in spec.real_factors],
            "imaginary_factors": [[s, e] for s, e in spec.imag_factors],
            "complex_factors": [[[tt.real, tt.imag], e] for tt, e in spec.complex_factors],
            "orientation": spec.orientation,
        }
        sm = rational_map(spec)
        t_norm, w_check = t, w
        checks["lemma2_identity"] = True

    # the energy first: the grids it builds at the verification level are
    # the ones the trapped area and the degree counts then read
    energy = numerics.dirichlet_energy(sm, level=grid_level)
    level = min(grid_level, 3)
    area = numerics.trapped_area(sm, level=level)
    try:
        degree_report = degrees = numerics.degree_count(sm, level=level)
    except numerics.MeshUnavailableError:
        # the same count, left out of the report (ROADMAP item 9)
        degree_report, degrees = None, numerics.region_degrees(sm, level=level)
    try:
        # the wrapping numbers are the negated signed counts of the regions
        w_meas = measure_map_wrapping(degrees)
    except ConstructionError as e:
        # the map is built: counts not to be trusted fail its degree check
        w_meas = None
        report["wrapping_error"] = str(e)
    checks["degrees_match"] = w_meas is not None and w_meas.values == w_check.values
    residual = numerics.boundary_residual(sm)
    checks["boundary_conditions"] = residual < 1e-9
    report["boundary_residual"] = residual
    seam_jump = _max_seam_jump(sm)
    checks["seam_continuity"] = seam_jump < 1e-6
    report["seam_jump"] = seam_jump
    report["energy_quadrature"] = energy
    checks["energy_not_below_infimum"] = (
        energy >= (1 - ENERGY_QUADRATURE_SLACK) * energy_units * math.pi
    )
    report["energy_gap"] = gap = energy - energy_units * math.pi
    report["energy_gap_relative"] = gap / (energy_units * math.pi) if energy_units else 0.0
    omega, omega_res = area
    checks["trapped_area"] = (
        round(omega / (math.pi / 2)) == t_norm.omega_units and omega_res < 0.25
    )
    report["trapped_area"] = omega
    report["trapped_area_residual"] = omega_res
    report["measured_wrapping"] = None if w_meas is None else w_meas.as_dict()
    if degree_report is None:
        report["degree_report"] = None
    else:
        report["degree_report"] = degree_report.as_dict()
        report["lemma1_lower_bound"] = numerics.lemma1_lower_bound(degree_report)
    report["checks"] = checks
    return report, sm, checks


def cmd_construct(args, verify_only: bool = False) -> int:
    formats = [] if verify_only else (args.format.split(",") if args.format else ["json"])
    unknown = [name for name in formats if name not in FORMATS]
    if unknown:
        print(f"invalid format: {', '.join(map(repr, unknown))}; choose from "
              f"{', '.join(FORMATS)}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    loaded = load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, _ = loaded
    try:
        report, sm, checks = _construct_and_verify(t, args.epsilon, args.grid_level)
    except (UnsupportedClassError, NotApplicableError, ConstructionError) as e:
        print(f"unsupported class: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED_CLASS
    except numerics.IntegrationError as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    ok = all(checks.values())
    gap_pct = 100 * report["energy_gap_relative"]
    print(
        f"energy {report['energy_quadrature'] / math.pi:.4f} pi "
        f"(formula {report['energy_pi_units']} pi, gap {gap_pct:+.2f}%), "
        f"checks: {'pass' if ok else 'FAIL'}"
    )
    if "json" in formats:
        emit(args, "construct.json", reports.dump_json(report))
    if "csv" in formats:
        emit(args, "field.csv", reports.field_grid_csv(sm))
    if "svg" in formats:
        emit(args, "domain.svg", reports.domain_svg(sm))
    if not ok:
        failing = [k for k, v in checks.items() if not v]
        reason = f" ({report['wrapping_error']})" if "wrapping_error" in report else ""
        print(f"invariant failure: {failing}{reason}", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    return 0


def cmd_sweep(args) -> int:
    results = []
    unsupported = []
    failed = []
    triples = list(
        itertools.combinations_with_replacement(range(1, args.kmax + 1), 3)
    )
    for k in triples:
        s = sum(k)
        for n in range(1, s - 1):
            t = OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)
            try:
                report, _, checks = _construct_and_verify(t, args.epsilon, args.grid_level)
                row = {
                    "k": list(k),
                    "n": n,
                    "case": report.get("patchwork", {}).get("case_id"),
                    "energy_pi_units": report["energy_pi_units"],
                    "energy_gap_relative": report["energy_gap_relative"],
                    "checks": checks,
                }
                results.append(row)
                failing = [name for name, ok in checks.items() if not ok]
                if failing:
                    failed.append({"k": list(k), "n": n,
                                   "reason": f"failed checks: {', '.join(failing)}"})
                print(
                    f"k={k} n={n} case={row['case']}: gap "
                    f"{100 * row['energy_gap_relative']:+.2f}% "
                    f"{'FAIL' if failing else 'pass'}"
                )
            except (UnsupportedClassError, NotApplicableError, ConstructionError) as e:
                unsupported.append({"k": list(k), "n": n, "reason": str(e)})
                print(f"k={k} n={n}: unsupported ({e})")
            except numerics.IntegrationError as e:
                failed.append({"k": list(k), "n": n, "reason": str(e)})
                print(f"k={k} n={n}: invariant failure ({e})")
    emit(args, "sweep.json", reports.dump_json(
        {"results": results, "unsupported": unsupported, "failed": failed}
    ))
    return EXIT_INVARIANT_FAILURE if failed else 0


if __name__ == "__main__":
    sys.exit(main())
