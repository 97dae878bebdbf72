"""Cross-checks behind ``orbispin verify``, each job done once.

``run_suite`` walks the signature grid once and solves each (signature,
order) pair once; the existence and round-trip rows read those contexts.
It runs one ``moduli_report`` per distinct (g, r) that a row covers: the
report's comparison of the closed forms with the brute-force partition is
the only such check, and the three census rows read its outcome; the
a-invariance row reads only the orbit search's check that no orbit mixes
labels.  The witness row tests the twist layer on seeded random roots.
The acceptance criteria call the existence, round-trip and witness checks
at their own grid, sample count and seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import gcd

from .errors import InadmissibleOrder, MixedOrbit
from .moduli import moduli_report
from .orbifold import (
    OrbifoldSignature, _as_int, admissible_root_orders, is_hyperbolic, root_order_admissible,
)
from .orbits import standard_generators
from .roots import DEFAULT_STATE_CAP, RootTuple, _state_cap, _within_cap
from .seifert import RootContext, recognize_fibre_index, solve_raymond_vasquez
from .twists import apply_word, canonical_form, reduce_with_witness

# the census covers only (g, r) with r^{2g} at most this and the state cap
CENSUS_STATES = 1 << 16
SMALL_CENSUS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4))
# random roots per (g, r) in the witness row
WITNESS_SAMPLES = 200

Solved = dict[tuple[OrbifoldSignature, int], RootContext | None]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GridBounds:
    max_genus: int = 2
    max_cones: int = 2
    max_multiplicity: int = 6
    max_order: int = 24

    def __post_init__(self) -> None:
        minimums = {"max_genus": 0, "max_cones": 0, "max_multiplicity": 2, "max_order": 1}
        for name, minimum in minimums.items():
            object.__setattr__(self, name, _as_int(getattr(self, name), name, minimum))


def hyperbolic_signatures(bounds: GridBounds) -> list[OrbifoldSignature]:
    sigs = []
    for g in range(bounds.max_genus + 1):
        for n in range(bounds.max_cones + 1):
            for alphas in combinations_with_replacement(range(2, bounds.max_multiplicity + 1), n):
                sig = OrbifoldSignature(g, alphas)
                if is_hyperbolic(sig):
                    sigs.append(sig)
    return sigs


def _solve_grid(bounds: GridBounds, cap: int) -> Solved:
    """Each grid signature at every order up to max_order (None where the
    solver refuses it), then at the admissible orders beyond it that the
    census covers; every pair is solved once."""
    solved: Solved = {}
    for sig in hyperbolic_signatures(bounds):
        orders = admissible_root_orders(sig)
        beyond = [r for r in orders if r > bounds.max_order and _within_cap(r, sig.genus, cap)]
        for r in [*range(1, bounds.max_order + 1), *beyond]:
            try:
                solved[sig, r] = solve_raymond_vasquez(sig, r)
            except InadmissibleOrder:
                solved[sig, r] = None
    return solved


def check_existence(solved: Solved, bounds: GridBounds) -> CheckResult:
    """Admissibility test and relation solver vs a direct search for beta_j in
    [1, alpha_j - 1] with r*beta_j = alpha_j - 1 + k_j*alpha_j and r*b = 2g - 2 - sum(k_j)."""
    pairs = 0
    for (sig, r), ctx in solved.items():
        if r > bounds.max_order:
            continue
        pairs += 1
        ks = [
            [(r * beta - a + 1) // a for beta in range(1, a) if (r * beta - a + 1) % a == 0]
            for a in sig.cone_multiplicities
        ]
        solvable = any((2 * sig.genus - 2 - sum(k)) % r == 0 for k in product(*ks))
        if root_order_admissible(sig, r) != solvable or (ctx is not None) != solvable:
            return CheckResult("existence", False, f"solver disagrees at {sig.to_json()}, r={r}")
    return CheckResult("existence", True, f"{pairs} (signature, order) pairs")


def check_round_trip(solved: Solved, bounds: GridBounds) -> CheckResult:
    """recognize_fibre_index inverts solve_raymond_vasquez on the grid."""
    count = 0
    for (sig, r), ctx in solved.items():
        if ctx is None or r > bounds.max_order:
            continue
        if recognize_fibre_index(ctx.invariants) != ctx:
            return CheckResult("round-trip", False, f"recovery differs at {sig.to_json()}, r={r}")
        count += 1
    return CheckResult("round-trip", True, f"{count} solved contexts")


def _covering(genus: int, r: int) -> RootContext:
    """An order-r covering over a genus >= 1 base: with cones prime to r, r
    divides alpha_1*...*alpha_n*chi iff sum(1/alpha_j - 1) = 2g - 2 mod r; a
    cone r + 1 adds 0 (and keeps genus 1 hyperbolic), each cone r - 1 adds -2."""
    k = (1 - genus) % (r // gcd(2, r))
    return solve_raymond_vasquez(OrbifoldSignature(genus, (r + 1,) + (r - 1,) * k), r)


def check_censuses(solved: Solved, bounds: GridBounds, cap: int) -> Iterator[CheckResult]:
    """The a-invariance (genus 2 and 3 at r = 2, 4), orbit-census (SMALL_CENSUS,
    genus 3 only if max_genus allows), genus-1-census (r <= 24) and
    moduli-census (the grid) rows, from one self-checked moduli report per
    distinct (g, r) they cover, each with r^{2g} <= cap.  The a-invariance
    row fails on a mixed orbit alone, the census rows on any failed check,
    and orbit-census also on a failure that no row covering its (g, r) reports."""
    grid = [c for c in solved.values() if c is not None and _within_cap(c.order, c.genus, cap)]
    parity = [(g, r) for g in (2, 3) for r in (2, 4) if _within_cap(r, g, cap)]
    small = [
        (g, r) for g, r in SMALL_CENSUS
        if r <= bounds.max_order and g <= max(bounds.max_genus, 2) and _within_cap(r, g, cap)
    ]
    genus_one = [(1, r) for r in range(1, min(bounds.max_order, 24) + 1) if _within_cap(r, 1, cap)]
    census = (RuntimeError, ValueError)
    rows = [
        ("a-invariance", parity, MixedOrbit, f"labels constant on every orbit of {parity}"),
        ("orbit-census", small, census, f"checked {small}"),
        ("genus-1-census", genus_one, census, f"orders 1..{len(genus_one)}"),
        ("moduli-census", [(ctx.genus, ctx.order) for ctx in grid], census, f"{len(grid)} reports"),
    ]
    contexts = {(ctx.genus, ctx.order): ctx for ctx in reversed(grid)}  # the first of each
    failures = {}
    for g, r in dict.fromkeys(key for _, keys, _, _ in rows for key in keys):
        try:  # the sheet total (ValueError), the partition (RuntimeError), its labels (MixedOrbit)
            moduli_report(contexts.get((g, r)) or _covering(g, r), state_cap=cap)
        except census as err:
            failures[g, r] = err
    failed = {name: [key for key in keys if isinstance(failures.get(key), caught)]
              for name, keys, caught, _ in rows}
    # a failure no row reports, as a census failure at genus 3 that only a-invariance covers, fails orbit-census
    reported = {key for keys in failed.values() for key in keys}
    failed["orbit-census"] += [key for key in failures if key not in reported]
    for name, _, _, detail in rows:
        first = next((f"(g={g}, r={r}): {failures[g, r]}" for g, r in failed[name]), None)
        yield CheckResult(name, first is None, first or detail)


def check_witnesses(genera: Sequence[int], orders: Sequence[int], samples: int, seed: int) -> CheckResult:
    """Witness replay and canonical-form invariance on ``samples`` random
    roots per (g, r); genus 0 has no twist to scramble by."""
    rng = random.Random(_as_int(seed, "seed"))
    checked = 0
    for g in genera:
        letters = list(standard_generators(g))
        letters += [gen.inverse() for gen in letters]
        for r in orders:
            for _ in range(samples):
                root = RootTuple(r, tuple(rng.randrange(r) for _ in range(2 * g)))
                form, witness = reduce_with_witness(root)
                if apply_word(root, witness) != form.canonical_root():
                    return CheckResult(
                        "witness-replay", False, f"replay failed for {root.coords}, r={r}"
                    )
                if g and canonical_form(apply_word(root, rng.choices(letters, k=32))) != form:
                    return CheckResult(
                        "witness-replay", False, f"canonical form moved for {root.coords}, r={r}"
                    )
                checked += 1
    return CheckResult("witness-replay", True, f"{checked} random roots")


def run_suite(
    bounds: GridBounds | None = None, seed: int = 0, state_cap: int = DEFAULT_STATE_CAP
) -> list[CheckResult]:
    bounds = bounds or GridBounds()
    cap = min(_state_cap(state_cap), CENSUS_STATES)
    # first, so that a bad seed raises before any other row's work
    witnesses = check_witnesses(
        range(1, max(bounds.max_genus, 1) + 1), range(1, min(bounds.max_order, 6) + 1),
        WITNESS_SAMPLES, seed,
    )
    solved = _solve_grid(bounds, cap)
    a_invariance, orbit_census, genus_one, moduli = check_censuses(solved, bounds, cap)
    return [
        check_existence(solved, bounds), check_round_trip(solved, bounds), a_invariance,
        orbit_census, genus_one, witnesses, moduli,
    ]
