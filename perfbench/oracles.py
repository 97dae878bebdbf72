"""Reference computations for the benchmark, written apart from the library.

Nothing here imports ``orbispin``.  Each oracle follows the paper's
statements directly:

* chi = 2 - 2g - n + sum 1/alpha_j, with ``Fraction``;
* existence and covering data by searching beta_j over [1, alpha_j - 1]
  for r*beta_j = alpha_j - 1 + k_j*alpha_j, then r*b = 2g - 2 - sum k_j
  (no modular inverse);
* sheet counts: J_2(r/d) from this module's own factorisation for genus 1,
  r^{2g} for odd r and r^{2g}(2^g +- 1)/2^{g+1} for even r at genus >= 2;
* a replayer for twist words taken from the three twist formulas.

Candidate orders come from the fact that alpha_1*...*alpha_n*e is an
integer for any Seifert invariants, so r*e = chi forces r to divide
alpha_1*...*alpha_n*chi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd


def chi(genus: int, alphas: tuple[int, ...]) -> Fraction:
    return 2 - 2 * genus - len(alphas) + sum((Fraction(1, a) for a in alphas), Fraction(0))


def factorise(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending, built from the factorisation."""
    divs = [1]
    for p, e in factorise(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def jordan_totient_2(m: int) -> int:
    """J_2(m) = m^2 * prod_{p | m} (1 - 1/p^2)."""
    result = m * m
    for p in factorise(m):
        result = result // (p * p) * (p * p - 1)
    return result


def covering_data(genus: int, alphas: tuple[int, ...], r: int) -> dict | None:
    """Covering data of the order-r root found by search, or None.

    Returns the JSON form the command line prints for ``solve``.  The
    search runs over every beta_j in [1, alpha_j - 1] and keeps the choice
    whose k_j make 2g - 2 - sum k_j divisible by r.
    """
    if chi(genus, alphas) >= 0:
        raise ValueError("covering data is defined for hyperbolic signatures only")
    per_cone = []
    for a in alphas:
        choices = [(beta, (r * beta - a + 1) // a) for beta in range(1, a) if (r * beta - a + 1) % a == 0]
        if not choices:
            return None
        per_cone.append(choices)
    for combo in product(*per_cone):
        ks = [k for _, k in combo]
        rest = 2 * genus - 2 - sum(ks)
        if rest % r == 0:
            b = rest // r
            e = -(b + sum((Fraction(beta, a) for a, (beta, _) in zip(alphas, combo)), Fraction(0)))
            if r * e != chi(genus, alphas):
                raise AssertionError("r*e = chi fails for a searched solution")
            return {
                "signature": {"genus": genus, "cone_points": list(alphas)},
                "r": r,
                "b": b,
                "pairs": [[a, beta] for a, (beta, _) in zip(alphas, combo)],
                "k": ks,
                "euler_number": str(e),
            }
    return None


def admissible_orders(genus: int, alphas: tuple[int, ...]) -> list[int]:
    """Every order r for which the search finds covering data."""
    bound = chi(genus, alphas)
    for a in alphas:
        bound *= a
    if bound.denominator != 1 or bound >= 0:
        raise AssertionError("alpha_1*...*alpha_n*chi must be a negative integer")
    return [r for r in divisors(-bound.numerator) if covering_data(genus, alphas, r) is not None]


def sheet_counts(genus: int, r: int) -> dict[tuple, int]:
    """Orbit label -> orbit size for the twist action on Z_r^{2g}.

    Labels are ("genus0",), ("genus1", d), ("all_zero",) and ("last_one",).
    For even r the all-zero tuple has parity g mod 2, and the parity-0 class
    holds (2^g + 1)/2^{g+1} of all tuples.
    """
    total = r ** (2 * genus)
    if genus == 0:
        return {("genus0",): 1}
    if genus == 1:
        return {("genus1", d): jordan_totient_2(r // d) for d in divisors(r)}
    if r % 2 == 1:
        return {("all_zero",): total}
    even = total * (2**genus + 1) // 2 ** (genus + 1)
    odd = total * (2**genus - 1) // 2 ** (genus + 1)
    if genus % 2 == 0:
        return {("all_zero",): even, ("last_one",): odd}
    return {("all_zero",): odd, ("last_one",): even}


def orbit_label(coords: tuple[int, ...], r: int) -> tuple:
    """The orbit invariant of a tuple: gcd for genus 1, parity for even r."""
    genus = len(coords) // 2
    if genus == 0:
        return ("genus0",)
    if genus == 1:
        return ("genus1", gcd(coords[0], coords[1], r))
    if r % 2 == 1:
        return ("all_zero",)
    parity = sum((coords[2 * i] + 1) * (coords[2 * i + 1] + 1) for i in range(genus)) % 2
    return ("all_zero",) if parity == genus % 2 else ("last_one",)


def canonical_coords(label: tuple, r: int, genus: int) -> tuple[int, ...]:
    if label[0] == "genus0":
        return ()
    if label[0] == "genus1":
        return (0, label[1] % r)
    coords = [0] * (2 * genus)
    if label[0] == "last_one":
        coords[-1] = 1
    return tuple(coords)


def replay(coords: tuple[int, ...], r: int, word) -> tuple[int, ...]:
    """Apply (family, index, power) letters left to right.

    u_i: t_i -= m*s_i;  v_i: s_i += m*t_i;  w_i: with x = s_i - s_{i+1} + 1,
    t_i -= m*x and t_{i+1} += m*x.  Indices are 1-based.
    """
    c = list(coords)
    genus = len(c) // 2
    for family, index, power in word:
        i = index - 1
        if family == "U" and 0 <= i < genus:
            c[2 * i + 1] = (c[2 * i + 1] - power * c[2 * i]) % r
        elif family == "V" and 0 <= i < genus:
            c[2 * i] = (c[2 * i] + power * c[2 * i + 1]) % r
        elif family == "W" and 0 <= i < genus - 1:
            x = c[2 * i] - c[2 * i + 2] + 1
            c[2 * i + 1] = (c[2 * i + 1] - power * x) % r
            c[2 * i + 3] = (c[2 * i + 3] + power * x) % r
        else:
            raise ValueError(f"letter {(family, index, power)} is invalid at genus {genus}")
    return tuple(x % r for x in c)


def unit_letters(genus: int) -> list[tuple[str, int, int]]:
    """The unit twists and their inverses."""
    letters = []
    for i in range(1, genus + 1):
        letters += [("U", i, 1), ("V", i, 1), ("U", i, -1), ("V", i, -1)]
    for i in range(1, genus):
        letters += [("W", i, 1), ("W", i, -1)]
    return letters


def exhaustive_orbits(genus: int, r: int) -> list[set[tuple[int, ...]]]:
    """Orbits of Z_r^{2g} under the unit twists, by search over tuples."""
    letters = unit_letters(genus)
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for start in product(range(r), repeat=2 * genus):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                for letter in letters:
                    image = replay(c, r, (letter,))
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        seen |= orbit
        orbits.append(orbit)
    return orbits


def presentations(data: dict, coords: tuple[int, ...]) -> list[dict]:
    """The three presentations ``present --mode all`` prints, from covering
    data in the form :func:`covering_data` returns."""
    genus = data["signature"]["genus"]
    alphas = data["signature"]["cone_points"]
    r, b = data["r"], data["b"]
    handles = [n for i in range(1, genus + 1) for n in (f"u{i}", f"v{i}")]
    qs = [f"q{j}" for j in range(1, len(alphas) + 1)]
    surface = [[n, e] for i in range(1, genus + 1) for n, e in ((f"u{i}", 1), (f"v{i}", 1), (f"u{i}", -1), (f"v{i}", -1))]
    surface += [[q, 1] for q in qs]

    def rel(lhs, rhs=()):
        return {"lhs": [list(f) for f in lhs], "rhs": [list(f) for f in rhs]}

    def gen(name, shift=None):
        return {"name": name, "shift": shift}

    orbifold = {
        "kind": "orbifold",
        "generators": [gen(n) for n in handles + qs],
        "relations": [rel(surface)] + [rel([[q, a]]) for q, a in zip(qs, alphas)],
        "central": [],
    }
    tangent = {
        "kind": "unit_tangent",
        "generators": [gen(n) for n in handles + qs + ["h"]],
        "relations": [rel(surface, [["h", 2 * genus - 2]] if genus != 1 else [])]
        + [rel([[q, a], ["h", a - 1]]) for q, a in zip(qs, alphas)],
        "central": ["h"],
    }
    root = {
        "kind": "root",
        "generators": [gen(n, c) for n, c in zip(handles, coords)]
        + [gen(q, k % r) for q, k in zip(qs, data["k"])]
        + [gen("h", r)],
        "relations": [rel(surface, [["h", b]] if b else [])]
        + [rel([[q, a], ["h", beta]]) for q, (a, beta) in zip(qs, data["pairs"])],
        "central": ["h"],
    }
    return [orbifold, tangent, root]
