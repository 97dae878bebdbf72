"""Cross-checks between closed forms and brute force, for the verify command.

Each check pits two independent routes inside the library against each
other: the admissibility test against the relation solver, the recovered
fibre index against the solved one, the closed-form orbit counts against
breadth-first enumeration, and witness words against replay.  The checks
return structured results so the command line can print a pass/fail table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .errors import InadmissibleOrder
from .moduli import moduli_report
from .orbifold import (
    OrbifoldSignature,
    admissible_root_orders,
    chi_orb,
    divisors,
    is_hyperbolic,
    root_order_admissible,
)
from .orbits import (
    genus_one_orbit_size,
    orbit_count_closed_form,
    partition_orbits,
    standard_generators,
)
from .roots import DEFAULT_STATE_CAP, RootTuple
from .seifert import recognize_fibre_index, solve_raymond_vasquez
from .twists import (
    a_invariant,
    apply_generator,
    apply_word,
    canonical_form,
    reduce_with_witness,
)


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


def hyperbolic_signatures(bounds: GridBounds) -> list[OrbifoldSignature]:
    sigs = []
    for g in range(bounds.max_genus + 1):
        for n in range(bounds.max_cones + 1):
            for alphas in combinations_with_replacement(
                range(2, bounds.max_multiplicity + 1), n
            ):
                sig = OrbifoldSignature(g, alphas)
                if is_hyperbolic(sig):
                    sigs.append(sig)
    return sigs


def _census_context(genus: int, r: int, bounds: GridBounds):
    """Some hyperbolic signature of the given genus admitting order r."""
    for n in range(bounds.max_cones + 1):
        for alphas in combinations_with_replacement(range(2, bounds.max_multiplicity + 1), n):
            sig = OrbifoldSignature(genus, alphas)
            if is_hyperbolic(sig) and root_order_admissible(sig, r):
                return solve_raymond_vasquez(sig, r)
    return None


def check_existence(bounds: GridBounds) -> CheckResult:
    """Admissibility test vs relation solver, plus the exact identity r*e = chi."""
    pairs = 0
    for sig in hyperbolic_signatures(bounds):
        for r in range(1, bounds.max_order + 1):
            pairs += 1
            admissible = root_order_admissible(sig, r)
            try:
                ctx = solve_raymond_vasquez(sig, r)
            except InadmissibleOrder:
                ctx = None
            if admissible != (ctx is not None):
                return CheckResult(
                    "existence", False, f"solver disagrees at {sig.to_json()}, r={r}"
                )
            if ctx is not None and r * ctx.euler_number != chi_orb(sig):
                return CheckResult(
                    "existence", False, f"identity r*e = chi fails at {sig.to_json()}, r={r}"
                )
    return CheckResult("existence", True, f"{pairs} (signature, order) pairs")


def check_round_trip(bounds: GridBounds) -> CheckResult:
    """recognize_fibre_index inverts solve_raymond_vasquez on the grid."""
    solved = 0
    for sig in hyperbolic_signatures(bounds):
        for r in admissible_root_orders(sig):
            if r > bounds.max_order:
                continue
            ctx = solve_raymond_vasquez(sig, r)
            back = recognize_fibre_index(ctx.invariants)
            if back != ctx:
                return CheckResult(
                    "round-trip", False, f"recovery differs at {sig.to_json()}, r={r}"
                )
            solved += 1
    return CheckResult("round-trip", True, f"{solved} solved contexts")


def check_a_invariance() -> CheckResult:
    """Exhaustive parity invariance for genus 2, 3 and orders 2, 4."""
    checked = 0
    for g in (2, 3):
        gens = list(standard_generators(g))
        gens += [gen.inverse() for gen in gens]
        for r in (2, 4):
            for coords in product(range(r), repeat=2 * g):
                root = RootTuple(r, coords)
                parity = a_invariant(root)
                for gen in gens:
                    checked += 1
                    if a_invariant(apply_generator(root, gen)) != parity:
                        return CheckResult(
                            "a-invariance", False, f"violated at {coords}, r={r}, {gen}"
                        )
    return CheckResult("a-invariance", True, f"{checked} generator applications")


def check_census(bounds: GridBounds, state_cap: int) -> CheckResult:
    """Closed-form orbit counts vs brute-force partitions, genus >= 2."""
    cases = []
    for genus, r in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4)]:
        if r > bounds.max_order or genus > max(bounds.max_genus, 2) or r ** (2 * genus) > state_cap:
            continue
        ctx = _census_context(genus, r, GridBounds(max_cones=2, max_multiplicity=9))
        if ctx is None:
            continue
        partition = partition_orbits(ctx, cap=state_cap)
        expected = orbit_count_closed_form(genus, r)
        sizes = sorted(partition.sizes())
        want = sorted(expected) if isinstance(expected, tuple) else [expected]
        if sizes != want:
            return CheckResult(
                "orbit-census", False, f"(g={genus}, r={r}) gave {sizes}, expected {want}"
            )
        cases.append((genus, r))
    return CheckResult("orbit-census", True, f"checked {cases}")


def check_genus_one(bounds: GridBounds) -> CheckResult:
    """Genus-1 orbits match divisors of r with ideal-counting sizes."""
    top = min(bounds.max_order, 24)
    for r in range(1, top + 1):
        # one cone of multiplicity r+1 always admits order r
        ctx = solve_raymond_vasquez(OrbifoldSignature(1, (r + 1,)), r)
        partition = partition_orbits(ctx)
        divs = divisors(r)
        labels = sorted(rec.label.d for rec in partition.orbits)
        if labels != list(divs):
            return CheckResult("genus-1-census", False, f"r={r}: labels {labels}")
        for rec in partition.orbits:
            if rec.size != genus_one_orbit_size(r, rec.label.d):
                return CheckResult(
                    "genus-1-census", False, f"r={r}, d={rec.label.d}: size {rec.size}"
                )
        if sum(partition.sizes()) != r * r:
            return CheckResult("genus-1-census", False, f"r={r}: sizes do not sum to r^2")
    return CheckResult("genus-1-census", True, f"orders 1..{top}")


def check_witnesses(bounds: GridBounds, seed: int, samples: int = 200) -> CheckResult:
    """Witness replay and canonical-form invariance on random data."""
    rng = random.Random(seed)
    checked = 0
    for g in range(1, max(bounds.max_genus, 1) + 1):
        letters = list(standard_generators(g))
        letters += [gen.inverse() for gen in letters]
        for r in range(1, min(bounds.max_order, 6) + 1):
            for _ in range(samples):
                root = RootTuple(r, tuple(rng.randrange(r) for _ in range(2 * g)))
                form, witness = reduce_with_witness(root)
                if apply_word(root, witness) != form.canonical_root():
                    return CheckResult(
                        "witness-replay", False, f"replay failed for {root.coords}, r={r}"
                    )
                scrambled = apply_word(root, rng.choices(letters, k=32))
                if canonical_form(scrambled) != form:
                    return CheckResult(
                        "witness-replay", False, f"canonical form moved for {root.coords}, r={r}"
                    )
                checked += 1
    return CheckResult("witness-replay", True, f"{checked} random roots")


def check_moduli(bounds: GridBounds, census_cap: int) -> CheckResult:
    """Census reports agree with brute-force partitions across the grid."""
    reports = 0
    for sig in hyperbolic_signatures(bounds):
        for r in admissible_root_orders(sig):
            if r ** (2 * sig.genus) > census_cap:
                continue
            try:  # the report compares itself with the partition below the cap
                moduli_report(solve_raymond_vasquez(sig, r), state_cap=census_cap)
            except RuntimeError:
                return CheckResult("moduli-census", False, f"mismatch at {sig.to_json()}, r={r}")
            reports += 1
    return CheckResult("moduli-census", True, f"{reports} reports")


def run_suite(
    bounds: GridBounds | None = None,
    seed: int = 0,
    state_cap: int = DEFAULT_STATE_CAP,
    census_cap: int = 1 << 16,
) -> list[CheckResult]:
    bounds = bounds or GridBounds()
    return [
        check_existence(bounds),
        check_round_trip(bounds),
        check_a_invariance(),
        check_census(bounds, state_cap),
        check_genus_one(bounds),
        check_witnesses(bounds, seed),
        check_moduli(bounds, min(census_cap, state_cap)),
    ]
