"""Shared test utilities: census signatures and independent oracles.

The Euler characteristic and Euler number oracles add one Fraction per
term.  The orbit oracles count pairs and search tuples directly, from the
twist formulas alone.  The brute-force search of the covering relations
lives in ``orbispin.verification.check_existence``, which both
``orbispin verify`` and the acceptance criteria run.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

from orbispin import OrbifoldSignature, is_hyperbolic


def chi_by_fraction_sum(sig):
    """2 - 2g - n + sum(1/alpha_j), one Fraction term at a time."""
    value = Fraction(2 - 2 * sig.genus - len(sig.cone_multiplicities))
    for a in sig.cone_multiplicities:
        value += Fraction(1, a)
    return value


def euler_by_fraction_sum(inv):
    """-(b + sum(beta_j/alpha_j)), one Fraction term at a time."""
    value = Fraction(inv.obstruction)
    for a, b in inv.multiple_fibres:
        value += Fraction(b, a)
    return -value


# hyperbolic signatures admitting the listed order, for orbit census checks
CENSUS_SIGNATURES = {
    (2, 2): OrbifoldSignature(2),
    (2, 3): OrbifoldSignature(2, (2, 2)),
    (2, 4): OrbifoldSignature(2, (3,)),
    (2, 5): OrbifoldSignature(2, (2,)),
    (2, 6): OrbifoldSignature(2, (5, 5)),
    (3, 2): OrbifoldSignature(3),
    (3, 3): OrbifoldSignature(3, (2,)),
    (3, 4): OrbifoldSignature(3),
}


def genus_one_signature(r):
    """A single cone of multiplicity r + 1 always admits order r."""
    return OrbifoldSignature(1, (r + 1,))


def genus_one_pair_count(r, d):
    """Pairs (s, t) in Z_r^2 with gcd(s, t, r) = d, counted one by one."""
    return sum(1 for s in range(r) for t in range(r) if gcd(s, t, r) == d)


def _twist(coords, r, family, i, m):
    c = list(coords)
    if family == "U":
        c[2 * i + 1] = (c[2 * i + 1] - m * c[2 * i]) % r
    elif family == "V":
        c[2 * i] = (c[2 * i] + m * c[2 * i + 1]) % r
    else:
        omega = c[2 * i] - c[2 * i + 2] + 1
        c[2 * i + 1] = (c[2 * i + 1] - m * omega) % r
        c[2 * i + 3] = (c[2 * i + 3] + m * omega) % r
    return tuple(c)


def _moves(gens, r):
    """The distinct (family, 0-based index, power mod r) moves of the twist
    generators ``gens``, the form the orbit engines act by; a power divisible
    by r acts trivially and is dropped."""
    return tuple(dict.fromkeys((g.family, g.index - 1, g.power % r) for g in gens if g.power % r))


def bfs_orbit(start, r, generators):
    """The orbit of the tuple ``start`` under (family, index, power) twists
    and their inverses, by breadth-first search over plain tuples."""
    moves = [(f, i - 1, sign * m) for f, i, m in generators for sign in (1, -1)]
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for move in moves:
            image = _twist(state, r, *move)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def bfs_partition(r, genus, generators):
    """Orbits of Z_r^{2g} by :func:`bfs_orbit`: (least member, size) per
    orbit, in ascending order of the least member."""
    seen = set()
    orbits = []
    for start in product(range(r), repeat=2 * genus):
        if start not in seen:
            orbit = bfs_orbit(start, r, generators)
            seen |= orbit
            orbits.append((start, len(orbit)))
    return orbits


def context_for(genus, r):
    """Some solved context of genus ``genus`` at order r, searching up to
    three cone points of multiplicity at most 2r + 3.  Only multiplicities
    prime to r can admit order r, so the others are skipped."""
    from orbispin import root_order_admissible, solve_raymond_vasquez

    coprime = [a for a in range(2, 2 * r + 4) if gcd(a, r) == 1]
    for n in range(4):
        for alphas in combinations_with_replacement(coprime, n):
            sig = OrbifoldSignature(genus, alphas)
            if is_hyperbolic(sig) and root_order_admissible(sig, r):
                return solve_raymond_vasquez(sig, r)
    raise LookupError(f"no signature of genus {genus} with at most 3 cones admits order {r}")
