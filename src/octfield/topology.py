"""Invariant algebra of homotopy classes of tangent maps on the octant.

A class is described either by the triple (edge signs e, kink numbers k,
trapped area Omega) or by the eight wrapping numbers w_sigma indexed by
sign triples.  Omega is stored as an integer count of pi/2 units, which
makes integrality of the wrapping numbers a checkable invariant.  The two
descriptions are related by

    w_sigma = Omega/(4 pi) + (1/2) sum_j sigma_j k_j
              + e_x e_y e_z (1/8 - delta_{sigma,e})

and the infimum Dirichlet energy of the class is
(sum_sigma |w_sigma| + Delta) * pi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .words import Word, certified_lower_bound, word

__all__ = [
    "Sector",
    "SECTORS",
    "OctantTopology",
    "WrappingNumbers",
    "Classification",
    "InvalidTopologyError",
    "InvalidWrappingError",
    "UnsupportedSignPatternError",
    "sector_name",
    "parse_sector",
    "adjacent",
    "wrapping_from_invariants",
    "invariants_from_wrapping",
    "classify",
    "delta_invariant",
    "infimum_energy",
    "prism_bounds",
    "boundary_word",
    "spelling_lower_bound_check",
    "normalize_edge_signs",
    "reflect_wrapping",
]

Sector = tuple  # sign triple (sx, sy, sz), each +1 or -1

# Lexicographic with +1 before -1, x-major; this order fixes all tie-breaking.
SECTORS: tuple[Sector, ...] = tuple(itertools.product((1, -1), repeat=3))


class InvalidTopologyError(ValueError):
    pass


class InvalidWrappingError(ValueError):
    pass


class UnsupportedSignPatternError(ValueError):
    pass


def sector_name(sector: Sector) -> str:
    return "".join("+" if s > 0 else "-" for s in sector)


def parse_sector(name: str) -> Sector:
    if len(name) != 3 or any(ch not in "+-" for ch in name):
        raise ValueError(f"bad sector name {name!r}")
    return tuple(1 if ch == "+" else -1 for ch in name)


def adjacent(a: Sector, b: Sector) -> bool:
    """Sectors are adjacent iff exactly two sign components agree."""
    return sum(x == y for x, y in zip(a, b)) == 2


def _integral(value, what: str, error) -> int:
    """``value`` as an int.  NumPy integers and integral floats convert; any
    other value raises ``error``, so nothing is truncated."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be integral, got {value!r}")


def _check_signs(triple, what: str):
    t = tuple(_integral(v, what, InvalidTopologyError) for v in triple)
    if len(t) != 3 or any(v not in (1, -1) for v in t):
        raise InvalidTopologyError(f"{what} must be a triple of +1/-1, got {triple}")
    return t


@dataclass(frozen=True)
class OctantTopology:
    """Classifying triple: edge signs, kink numbers, trapped area in pi/2 units."""

    e: tuple
    k: tuple
    omega_units: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", _check_signs(self.e, "edge signs"))
        object.__setattr__(self, "k", tuple(_integral(v, "kink numbers", InvalidTopologyError)
                                            for v in self.k))
        object.__setattr__(self, "omega_units",
                           _integral(self.omega_units, "omega_units", InvalidTopologyError))
        if len(self.k) != 3:
            raise InvalidTopologyError("kink numbers must be a triple")

    @property
    def omega(self) -> float:
        return self.omega_units * math.pi / 2


@dataclass(frozen=True)
class WrappingNumbers:
    """The eight wrapping numbers, aligned with SECTORS order."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(_integral(v, "wrapping numbers", InvalidWrappingError) for v in self.values)
        if len(vals) != 8:
            raise InvalidWrappingError("need exactly eight wrapping numbers")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, sector: Sector) -> int:
        return self.values[SECTORS.index(tuple(sector))]

    def as_dict(self) -> dict:
        return {sector_name(s): v for s, v in zip(SECTORS, self.values)}

    def total_absolute(self) -> int:
        return sum(abs(v) for v in self.values)


@dataclass(frozen=True)
class Classification:
    kind: str  # conformal | anticonformal | nonconformal
    sigma_plus: Sector | None
    sigma_minus: Sector | None
    chi: int


def wrapping_from_invariants(t: OctantTopology) -> WrappingNumbers:
    """Wrapping numbers from (e, k, Omega); errors if any is non-integral.

    Non-integrality means omega_units violates the constraint
    omega_units = 4*(k_x+k_y+k_z) - e_x e_y e_z (mod 8).
    """
    sign_product = t.e[0] * t.e[1] * t.e[2]
    values = []
    for sector in SECTORS:
        w8 = (
            t.omega_units
            + 4 * sum(s * kk for s, kk in zip(sector, t.k))
            + sign_product * (1 - (8 if sector == t.e else 0))
        )
        if w8 % 8:
            raise InvalidTopologyError(
                f"non-integer wrapping number at sector {sector_name(sector)}: "
                f"omega_units={t.omega_units} incompatible with e={t.e}, k={t.k} "
                f"(need omega_units = 4*sum(k) - e_x*e_y*e_z mod 8)"
            )
        values.append(w8 // 8)
    return WrappingNumbers(tuple(values))


def invariants_from_wrapping(w: WrappingNumbers) -> OctantTopology:
    """Invert the wrapping formula by enumerating edge signs and solving
    the exact linear system; errors unless exactly one candidate reproduces w."""
    u = sum(w.values)
    matches = []
    for e in SECTORS:
        sign_product = e[0] * e[1] * e[2]
        ks = []
        ok = True
        for axis in range(3):
            s = sum(sector[axis] * value for sector, value in zip(SECTORS, w.values))
            num = s + sign_product * e[axis]
            if num % 4:
                ok = False
                break
            ks.append(num // 4)
        if not ok:
            continue
        candidate = OctantTopology(e, tuple(ks), u)
        try:
            if wrapping_from_invariants(candidate).values == w.values:
                matches.append(candidate)
        except InvalidTopologyError:
            continue
    if not matches:
        raise InvalidWrappingError(f"no (e, k, Omega) reproduces wrapping numbers {w.values}")
    if len(matches) > 1:
        raise InvalidWrappingError(f"ambiguous wrapping numbers {w.values}")
    return matches[0]


def classify(w: WrappingNumbers, t: OctantTopology) -> Classification:
    """Conformal if all w <= 0, anticonformal if all >= 0, else nonconformal
    with the (lexicographically first) extremal sectors and the kink-sign flag."""
    chi = 1 if t.k[0] * t.k[1] * t.k[2] < 0 else 0
    if all(v <= 0 for v in w.values):
        return Classification("conformal", None, None, chi)
    if all(v >= 0 for v in w.values):
        return Classification("anticonformal", None, None, chi)
    w_max = max(w.values)
    w_min = min(w.values)
    sigma_plus = next(s for s, v in zip(SECTORS, w.values) if v == w_max)
    sigma_minus = next(s for s, v in zip(SECTORS, w.values) if v == w_min)
    return Classification("nonconformal", sigma_plus, sigma_minus, chi)


def _positive_part(x: int) -> int:
    return (x + abs(x)) // 2


def _delta_for_choice(w: WrappingNumbers, plus: Sector, minus: Sector, chi: int) -> int:
    up = w[plus] - sum(_positive_part(w[s]) for s in SECTORS if adjacent(s, plus)) - chi
    down = abs(w[minus]) - sum(_positive_part(-w[s]) for s in SECTORS if adjacent(s, minus)) - chi
    return 2 * max(0, up, down)


def delta_invariant(w: WrappingNumbers, c: Classification) -> int:
    """The nonabelian energy correction; zero for one-signed classes.

    The value is independent of which tied maximal/minimal sector is chosen;
    this is asserted by evaluating every tied choice.
    """
    if c.kind != "nonconformal":
        return 0
    w_max = max(w.values)
    w_min = min(w.values)
    pluses = [s for s, v in zip(SECTORS, w.values) if v == w_max]
    minuses = [s for s, v in zip(SECTORS, w.values) if v == w_min]
    values = {
        _delta_for_choice(w, plus, minus, c.chi)
        for plus in pluses
        for minus in minuses
    }
    if len(values) != 1:
        raise AssertionError(f"Delta depends on tied extremal-sector choice: {sorted(values)}")
    return values.pop()


def infimum_energy(w: WrappingNumbers, c: Classification) -> int:
    """Infimum Dirichlet energy of the class, in units of pi."""
    return w.total_absolute() + delta_invariant(w, c)


def prism_bounds(w: WrappingNumbers, c: Classification, lx: float, ly: float, lz: float):
    """Two-sided bounds for the energy of reflection-symmetric fields on the
    prism with edges lz <= ly <= lx: (4 lz E(H), 4 diag E(H)).  Raises
    ``ValueError`` for lengths out of that order or not finite, and for
    bounds that overflow to infinity."""
    if not (0 < lz <= ly <= lx < math.inf):
        raise ValueError("edge lengths must be finite and satisfy 0 < L_z <= L_y <= L_x")
    try:
        energy = infimum_energy(w, c) * math.pi
    except OverflowError:  # an integer energy beyond the doubles
        energy = math.inf
    diag = math.sqrt(lx * lx + ly * ly + lz * lz)
    bounds = 4 * lz * energy, 4 * diag * energy
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"bounds for lengths ({lx}, {ly}, {lz}) are not finite")
    return bounds


# ---------------------------------------------------------------------------
# Boundary words and the free-group lower-bound check
# ---------------------------------------------------------------------------

def _power(g: int, n: int) -> tuple:
    return tuple([g] * n if n >= 0 else [-g] * (-n))


def _family_words(k, family: str) -> tuple[Word, Word]:
    """Boundary word and c0 for the loop family around (+++) ("plus") or
    around (---) ("minus"), valid for any kink signs.

    plus family:  [boundary] = c3^{kz-1} c1^{kx-1} c2^{ky-1},  c0 = (c2 c1 c3)^-1
    minus family: [boundary] = c3^{-kz} c1^{-kx} c2^{-ky},     c0 = c2^-1 c1^-1 c3^-1
    """
    kx, ky, kz = k
    if family == "plus":
        boundary = word(3, _power(3, kz - 1) + _power(1, kx - 1) + _power(2, ky - 1))
        c0 = word(3, (-3, -1, -2))
    elif family == "minus":
        boundary = word(3, _power(3, -kz) + _power(1, -kx) + _power(2, -ky))
        c0 = word(3, (-2, -1, -3))
    else:
        raise ValueError("family must be 'plus' or 'minus'")
    return boundary, c0


def boundary_word(k, case: str) -> tuple[Word, Word]:
    """Boundary word of the punctured-sphere loop calculus and the puncture
    word c0, over F(c1, c2, c3).

    ``case='positive'`` requires all kinks positive and uses the loops around
    the (+++) sector; ``case='negative'`` requires all kinks negative and uses
    the loops around the (---) sector.  Other sign patterns are not covered.
    """
    kx, ky, kz = k
    if case == "positive":
        if not (kx > 0 and ky > 0 and kz > 0):
            raise UnsupportedSignPatternError("positive case needs all kinks > 0")
        return _family_words(k, "plus")
    if case == "negative":
        if not (kx < 0 and ky < 0 and kz < 0):
            raise UnsupportedSignPatternError("negative case needs all kinks < 0")
        return _family_words(k, "minus")
    raise ValueError("case must be 'positive' or 'negative'")


def _route_bound(w: WrappingNumbers, k, family: str) -> int:
    """Certified lower bound for sum_sigma D(s_sigma) using one loop family.

    The family's boundary word (``_family_words``) and its d(s0) copies of
    c0 or c0^-1 form the set product <A^i B^j C^k> <F>^p <F^-1>^n of
    ``words.certified_lower_bound``, once the generators (c3, c1, c2) are
    relabeled (A, B, C) and, for negative exponents, inverted: free-group
    automorphisms, which keep spelling lengths.  With a = (d0 + d)/2 copies
    of c0^-1 and b = (d0 - d)/2 of c0, d = d(s0) and d0 = |d|:

        family  kinks  variant  (i, j, k)                (p, n)
        plus    > 0    P        (kz-1, kx-1, ky-1)       (a, b)
        plus    < 0    Q        (1-kz, 1-kx, 1-ky)       (b, a)
        minus   < 0    Q        (-kz, -kx, -ky)          (a, b)
        minus   > 0    P        (kz, kx, ky)             (b, a)

    so the bound takes constant time and memory, whatever the kinks.
    """
    s0 = (1, 1, 1) if family == "plus" else (-1, -1, -1)
    in_family = [s0] + [s for s in SECTORS if adjacent(s, s0)]
    outside = sum(abs(w[s]) for s in SECTORS if s not in in_family)

    kx, ky, kz = k
    d_s0 = -w[s0]
    # The bound must hold for every admissible preimage count D0 = |d| + 2j
    # at s0, so it is the least D0 + lower(D0).  One more preimage pair adds
    # one factor of each class, which lowers the certified value by at most
    # 2 (its shape term by 2; the crude and abelian terms and the parity
    # stay) while D0 rises by 2, so the least is at D0 = |d|.  The certified
    # value does not depend on the conjugators, so no product is searched.
    d0 = abs(d_s0)
    a, b = (d0 + d_s0) // 2, (d0 - d_s0) // 2
    positive = kx > 0
    shift = 1 if family == "plus" else 0
    exponents = (abs(v - shift) for v in (kz, kx, ky))
    p, n = (a, b) if positive == (family == "plus") else (b, a)
    return outside + d0 + certified_lower_bound(*exponents, p, n, "P" if positive else "Q")


def spelling_lower_bound_check(t: OctantTopology) -> int:
    """Certified lower bound on the energy (in pi units) from the spelling
    machinery: the better of the two loop-family bounds, floored by the
    abelian bound sum |w_sigma|.

    The loop families' boundary words hold for edge signs (+,+,+), so the
    bound is read on the class reflected to them (``normalize_edge_signs``;
    reflections keep the energy).  Requires the reflected class's kink
    numbers nonzero with a uniform sign.
    """
    t, _ = normalize_edge_signs(t)
    if not (all(v > 0 for v in t.k) or all(v < 0 for v in t.k)):
        raise UnsupportedSignPatternError(
            f"kink signs {t.k} of the class reflected to edge signs (+,+,+) "
            "not uniformly positive or negative"
        )
    w = wrapping_from_invariants(t)
    bounds = [w.total_absolute()]
    for family in ("plus", "minus"):
        bounds.append(_route_bound(w, t.k, family))
    return max(bounds)


# ---------------------------------------------------------------------------
# Reflections
# ---------------------------------------------------------------------------

def reflect_wrapping(w: WrappingNumbers, flips) -> WrappingNumbers:
    """Wrapping numbers after reflecting the target in the coordinate planes
    selected by ``flips`` (a sign triple; -1 entries flip that axis).

    Each single reflection sends w_sigma to -w_{flip(sigma)}.
    """
    flips = _check_signs(flips, "flips")
    n_flips = sum(1 for f in flips if f < 0)
    sign = (-1) ** n_flips
    values = []
    for sector in SECTORS:
        source = tuple(s * f for s, f in zip(sector, flips))
        values.append(sign * w[source])
    return WrappingNumbers(tuple(values))


def normalize_edge_signs(t: OctantTopology):
    """Reflect the class so all edge signs are +1; returns (normalized, flips).

    Reflections leave the Dirichlet energy invariant, so the normalized class
    has the same infimum energy.
    """
    w = wrapping_from_invariants(t)
    flips = t.e
    w_norm = reflect_wrapping(w, flips)
    t_norm = invariants_from_wrapping(w_norm)
    if t_norm.e != (1, 1, 1):
        raise AssertionError(f"normalization failed: {t_norm.e}")
    return t_norm, flips
