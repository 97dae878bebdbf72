"""Shared test utilities: signature grids and independent oracles.

The brute-force solvability oracle below deliberately avoids the library's
modular-inverse shortcut: it searches the normalised beta ranges directly
and checks divisibility, so it can act as an independent referee for the
admissibility test and the relation solver.  The Euler characteristic and
Euler number oracles add one Fraction per term.  The orbit oracles count
pairs and search tuples directly, from the twist formulas alone.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

from orbispin import OrbifoldSignature, is_hyperbolic


def hyperbolic_grid(max_genus=3, max_cones=3, max_multiplicity=9):
    sigs = []
    for g in range(max_genus + 1):
        for n in range(max_cones + 1):
            for alphas in combinations_with_replacement(range(2, max_multiplicity + 1), n):
                sig = OrbifoldSignature(g, alphas)
                if is_hyperbolic(sig):
                    sigs.append(sig)
    return sigs


def rv_solvable_bruteforce(sig, r):
    """Search integers b, k_j and beta_j in [1, alpha_j - 1] with
    r*beta_j = alpha_j - 1 + k_j*alpha_j and r*b = 2g - 2 - sum(k_j)."""
    per_cone_ks = []
    for a in sig.cone_multiplicities:
        choices = []
        for beta in range(1, a):
            numerator = r * beta - a + 1
            if numerator % a == 0:
                choices.append(numerator // a)
        if not choices:
            return False
        per_cone_ks.append(choices)
    for ks in product(*per_cone_ks):
        if (2 * sig.genus - 2 - sum(ks)) % r == 0:
            return True
    return False


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
    three cone points of multiplicity at most 2r + 3."""
    from orbispin import root_order_admissible, solve_raymond_vasquez

    for n in range(4):
        for alphas in combinations_with_replacement(range(2, 2 * r + 4), n):
            sig = OrbifoldSignature(genus, alphas)
            if is_hyperbolic(sig) and root_order_admissible(sig, r):
                return solve_raymond_vasquez(sig, r)
    raise LookupError(f"no signature of genus {genus} with at most 3 cones admits order {r}")
