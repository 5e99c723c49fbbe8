"""Batch command line front end.

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
outside 1-8 (8 sweeps 1,380 classes), or a bad word; a word may have at
most ``words.MAX_WORD_LETTERS`` letters and its alphabet as many
generators), 3
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
preimages are not solved for).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import numerics, reports
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
    UnsupportedSignPatternError,
    classify,
    infimum_energy,
    normalize_edge_signs,
    prism_bounds,
    spelling_lower_bound_check,
    wrapping_from_invariants,
)
from .words import (
    MAX_WORD_LETTERS,
    format_word,
    generator_degrees,
    optimal_pairing,
    parse_word,
    spelling_length,
)

EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED_SIGNS = 3
EXIT_UNSUPPORTED_CLASS = 4
EXIT_INVARIANT_FAILURE = 5

FORMATS = ("json", "csv", "svg")  # construct's artifacts

# (sum|w| + Delta) pi is a proven lower bound for the energy; the quadrature
# may fall below it by at most this share
ENERGY_QUADRATURE_SLACK = 0.01


def _load_class(args):
    """(topology, wrapping) of the class given by ``--json`` or a class file,
    or None after reporting why the input is not a valid class."""
    try:
        if args.json:
            data = json.loads(args.json)
        elif args.path:
            data = json.loads(Path(args.path).read_text())
        else:
            raise ValueError("provide a class via --json or a file path")
        return reports.class_from_dict(data)
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as e:
        print(f"invalid class: {e}", file=sys.stderr)
        return None


def _emit(args, name: str, text: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    loaded = _load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, w = loaded
    report = reports.classification_report(t)
    if args.prism:
        lx, ly, lz = args.prism
        try:
            lo, hi = prism_bounds(w, classify(w, t), lx, ly, lz)
        except ValueError as e:
            print(f"invalid prism: {e}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        report["prism_bounds"] = {"lower": lo, "upper": hi,
                                  "lengths": [lx, ly, lz]}
    print(f"{report['kind']}, Delta={report['delta']}, energy={report['energy_text']}")
    _emit(args, "classify.json", reports.dump_json(report))
    return 0


def cmd_spelling(args) -> int:
    if args.word is not None:
        try:
            u = parse_word(args.word, alphabet_size=args.alphabet)
        except ValueError as e:
            print(f"invalid word: {e}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        for size, what in ((len(u.letters), "letters"), (u.alphabet_size, "generators")):
            if size > MAX_WORD_LETTERS:
                print(f"invalid word: {size} {what}, at most {MAX_WORD_LETTERS}",
                      file=sys.stderr)
                return EXIT_INVALID_INPUT
        lam = spelling_length(u)
        pairing = sorted(tuple(sorted(p)) for p in optimal_pairing(u))
        degs = generator_degrees(u)
        report = {
            "word": format_word(u),
            "spelling_length": lam,
            "optimal_pairing": [list(p) for p in pairing],
            "generator_degrees": list(degs),
        }
        print(f"lambda={lam}, pairing={pairing}, degrees={list(degs)}")
        _emit(args, "spelling.json", reports.dump_json(report))
        return 0
    loaded = _load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, w = loaded
    try:
        bound = spelling_lower_bound_check(t)
    except UnsupportedSignPatternError as e:
        print(f"unsupported kink sign pattern: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SIGNS
    c = classify(w, t)
    energy = infimum_energy(w, c)
    if bound > energy:
        print(f"invariant failure: spelling bound {bound} pi exceeds the energy "
              f"formula {energy} pi", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    report = {
        "class": reports.class_to_dict(t, w),
        "spelling_bound_pi_units": bound,
        "energy_pi_units": energy,
        "tight": bound == energy,
    }
    print(f"spelling bound = {bound} pi (energy formula {energy} pi)")
    _emit(args, "spelling.json", reports.dump_json(report))
    return 0


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


def _construct_and_verify(t, w, args):
    """Build a representative, run the invariant battery, return a report."""
    c = classify(w, t)
    energy_units = infimum_energy(w, c)
    report = {
        "class": reports.class_to_dict(t, w),
        "kind": c.kind,
        "energy_pi_units": energy_units,
        "epsilon": args.epsilon,
        "grid_level": args.grid_level,
    }
    checks = {}
    if c.kind == "nonconformal":
        t_norm, flips = normalize_edge_signs(t)
        if t_norm != t:
            report["normalized_class"] = reports.class_to_dict(t_norm)
            report["reflections"] = list(flips)
        spec = select_case(t_norm, epsilon=args.epsilon)
        report["patchwork"] = spec.as_dict()
        sm = assemble_patchwork(spec)
        w_check = wrapping_from_invariants(t_norm)
        coverage = (
            wrapping_from_invariants(spec.H0).total_absolute() + 2 * sum(spec.M)
        )
        checks["lemma2_identity"] = coverage == energy_units
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
    # the ones the trapped area and the degree counts then read.  Its
    # failure is raised where the energy check stands, so a failure of the
    # area or the degree counts is still the one reported.
    try:
        energy = numerics.dirichlet_energy(sm, level=args.grid_level)
    except numerics.IntegrationError as e:
        energy = e
    level = min(args.grid_level, 3)
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
    if isinstance(energy, numerics.IntegrationError):
        raise energy
    report["energy_quadrature"] = energy
    checks["energy_not_below_infimum"] = (
        energy >= (1 - ENERGY_QUADRATURE_SLACK) * energy_units * math.pi
    )
    report["energy_gap"] = energy - energy_units * math.pi
    report["energy_gap_relative"] = (
        (energy - energy_units * math.pi) / (energy_units * math.pi)
        if energy_units
        else 0.0
    )
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
    loaded = _load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, w = loaded
    try:
        report, sm, checks = _construct_and_verify(t, w, args)
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
        _emit(args, "construct.json", reports.dump_json(report))
    if "csv" in formats:
        _emit(args, "field.csv", reports.field_grid_csv(sm))
    if "svg" in formats:
        _emit(args, "domain.svg", reports.domain_svg(sm))
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
            w = wrapping_from_invariants(t)
            row_args = argparse.Namespace(
                epsilon=args.epsilon, grid_level=args.grid_level
            )
            try:
                report, _, checks = _construct_and_verify(t, w, row_args)
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
    _emit(args, "sweep.json", reports.dump_json(
        {"results": results, "unsupported": unsupported, "failed": failed}
    ))
    return EXIT_INVARIANT_FAILURE if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="octfield",
        description="Energies and homotopy invariants of tangent fields on the octant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_io(p):
        p.add_argument("path", nargs="?", help="class JSON file")
        p.add_argument("--json", help="inline class JSON")
        p.add_argument("--out", help="output directory")

    p_cls = sub.add_parser("classify", help="invariants, Delta, infimum energy")
    add_class_io(p_cls)
    p_cls.add_argument("--prism", nargs=3, type=float, metavar=("LX", "LY", "LZ"),
                       help="prism edge lengths Lx >= Ly >= Lz")
    p_cls.set_defaults(func=cmd_classify)

    p_sp = sub.add_parser("spelling", help="spelling length or class bound")
    add_class_io(p_sp)
    p_sp.add_argument("--word", help="word text, e.g. \"a b a' b'\"")
    p_sp.add_argument("--alphabet", type=int, default=None)
    p_sp.set_defaults(func=cmd_spelling)

    def add_numeric_opts(p):
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--grid-level", type=int, default=3, choices=range(1, 6),
                       dest="grid_level")

    p_con = sub.add_parser("construct", help="build and verify a representative")
    add_class_io(p_con)
    add_numeric_opts(p_con)
    p_con.add_argument("--format", default="json", help=",".join(FORMATS))
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="construct without artifacts")
    add_class_io(p_ver)
    add_numeric_opts(p_ver)
    p_ver.set_defaults(func=lambda a: cmd_construct(a, verify_only=True))

    p_sw = sub.add_parser("sweep", help="construct a family of classes")
    p_sw.add_argument("--kmax", type=int, default=2, choices=range(1, 9))
    p_sw.add_argument("--out", help="output directory")
    add_numeric_opts(p_sw)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if hasattr(args, "epsilon") and not 0 < args.epsilon < 0.125:
        parser.error("epsilon must lie in (0, 1/8)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
