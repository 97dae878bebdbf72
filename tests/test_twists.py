import json
import random
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from orbispin import (
    OddOrder,
    OrbifoldSignature,
    RootTuple,
    StandardForm,
    TwistGenerator,
    TwistWord,
    a_invariant,
    admissible_root_orders,
    apply_generator,
    apply_word,
    canonical_form,
    moduli_report,
    partition_orbits,
    reduce_with_witness,
    solve_raymond_vasquez,
    standard_generators,
    w_value,
)
from orbispin.verification import GridBounds, hyperbolic_signatures


def _all_unit_generators(genus):
    gens = list(standard_generators(genus))
    return gens + [g.inverse() for g in gens]


@pytest.mark.parametrize(
    "r,coords,gen,expected",
    [
        (5, (2, 3), TwistGenerator("U", 1), (2, 1)),
        (5, (2, 3), TwistGenerator("V", 1), (0, 3)),
        (4, (0, 0, 0, 0), TwistGenerator("W", 1), (0, 3, 0, 1)),
        (5, (1, 0, 2, 0), TwistGenerator("W", 1), (1, 0, 2, 0)),  # shift vanishes
        (5, (2, 3), TwistGenerator("U", 1, -1), (2, 0)),
        (5, (2, 3), TwistGenerator("V", 1, 2), (3, 3)),
    ],
)
def test_apply_generator_formulas(r, coords, gen, expected):
    assert apply_generator(RootTuple(r, coords), gen).coords == expected


def test_powers_iterate_the_unit_twist():
    for r, genus in [(5, 1), (4, 2), (3, 2)]:
        for coords in product(range(r), repeat=2 * genus):
            root = RootTuple(r, coords)
            for gen in standard_generators(genus):
                for m in (2, 3, -2):
                    stepped = root
                    unit = TwistGenerator(gen.family, gen.index, 1 if m > 0 else -1)
                    for _ in range(abs(m)):
                        stepped = apply_generator(stepped, unit)
                    assert stepped == apply_generator(
                        root, TwistGenerator(gen.family, gen.index, m)
                    )


def test_generator_inverse_cancels_exhaustively():
    for r, genus in [(2, 1), (5, 1), (2, 2), (4, 2), (3, 3)]:
        for coords in product(range(r), repeat=2 * genus):
            root = RootTuple(r, coords)
            for gen in _all_unit_generators(genus):
                assert apply_generator(apply_generator(root, gen), gen.inverse()) == root


def test_apply_word_identity_and_inverse():
    root = RootTuple(4, (0, 0, 0, 0))
    assert apply_word(root, TwistWord()) == root
    w12 = TwistGenerator("W", 1)
    assert apply_word(root, TwistWord((w12, w12.inverse()))) == root

    rng = random.Random(7)
    gens = _all_unit_generators(2)
    for _ in range(50):
        root = RootTuple(6, tuple(rng.randrange(6) for _ in range(4)))
        word = TwistWord(tuple(rng.choices(gens, k=12)))
        assert apply_word(apply_word(root, word), word.inverse()) == root


def test_index_range_errors():
    with pytest.raises(ValueError):
        apply_generator(RootTuple(3, (0, 0)), TwistGenerator("U", 2))
    with pytest.raises(ValueError):
        apply_generator(RootTuple(3, (0, 0)), TwistGenerator("W", 1))  # needs genus >= 2
    with pytest.raises(ValueError):
        TwistGenerator("X", 1)
    with pytest.raises(ValueError):
        TwistGenerator("U", 1, 0)


def test_w_value():
    for r in (2, 3, 5, 8):
        for d1 in range(r):
            for d2 in range(r):
                assert w_value(RootTuple(r, (0, d1, 0, d2)), 1) == 1 % r
    assert w_value(RootTuple(5, (1, 0, 2, 0)), 1) == 0
    assert w_value(RootTuple(2, (1, 1, 0, 0)), 1) == 0
    with pytest.raises(ValueError):
        w_value(RootTuple(5, (1, 0)), 1)
    for index in (True, 1.0, "1"):  # no coercion: a bool or float index is refused too
        with pytest.raises(ValueError, match="separating-curve index must be an integer"):
            w_value(RootTuple(5, (1, 0, 2, 0)), index)


def test_a_invariant_values():
    assert a_invariant(RootTuple(2, (0, 0, 0, 0))) == 0
    assert a_invariant(RootTuple(2, (0, 0, 0, 1))) == 1
    assert a_invariant(RootTuple(2, (0, 0, 0, 0, 0, 0))) == 1
    assert a_invariant(RootTuple(4, (1, 1, 1, 1))) == 0
    with pytest.raises(OddOrder):
        a_invariant(RootTuple(3, (0, 0)))


@pytest.mark.parametrize(
    "r,coords,kind,d",
    [
        (6, (4, 2), "genus1", 2),
        (6, (0, 0), "genus1", 6),
        (5, (0, 0), "genus1", 5),
        (6, (1, 4), "genus1", 1),
        (3, (1, 2, 2, 1), "all_zero", None),
        (4, (1, 1, 1, 1), "all_zero", None),
        (2, (0, 0, 0, 1), "last_one", None),
        (2, (0, 0, 0, 0, 0, 0), "all_zero", None),
        (7, (), "genus0", None),
    ],
)
def test_canonical_form_cases(r, coords, kind, d):
    form = canonical_form(RootTuple(r, coords))
    assert form.kind == kind
    assert form.d == d


def test_canonical_form_is_idempotent():
    for r, genus in [(6, 1), (4, 2), (3, 2), (2, 3)]:
        for coords in product(range(r), repeat=2 * genus):
            form = canonical_form(RootTuple(r, coords))
            assert canonical_form(form.canonical_root()) == form


def test_reduce_with_witness_examples():
    root = RootTuple(6, (4, 2))
    form, witness = reduce_with_witness(root)
    assert (form.kind, form.d) == ("genus1", 2)
    assert apply_word(root, witness).coords == (0, 2)

    root = RootTuple(3, (0, 1, 0, 1))
    form, witness = reduce_with_witness(root)
    assert form.kind == "all_zero"
    assert apply_word(root, witness).coords == (0, 0, 0, 0)


def test_reduce_already_canonical_gives_identity_witness():
    for root in [
        RootTuple(6, (0, 2)),
        RootTuple(4, (0, 0, 0, 0)),
        RootTuple(4, (0, 0, 0, 1)),
        RootTuple(5, ()),
    ]:
        form, witness = reduce_with_witness(root)
        assert len(witness) == 0
        assert form.canonical_root() == root


def test_reduce_with_witness_exhaustive_small():
    for r, genus in [(1, 2), (2, 1), (3, 1), (6, 1), (2, 2), (3, 2), (4, 2)]:
        for coords in product(range(r), repeat=2 * genus):
            root = RootTuple(r, coords)
            form, witness = reduce_with_witness(root)
            assert apply_word(root, witness) == form.canonical_root()
            assert canonical_form(root) == form


def test_canonical_form_is_orbit_invariant_under_random_words():
    rng = random.Random(2024)
    for r, genus in [(4, 2), (5, 2), (6, 3)]:
        gens = _all_unit_generators(genus)
        for _ in range(300):
            root = RootTuple(r, tuple(rng.randrange(r) for _ in range(2 * genus)))
            word = TwistWord(tuple(rng.choices(gens, k=32)))
            assert canonical_form(apply_word(root, word)) == canonical_form(root)


def test_standard_form_validation_and_json():
    form = StandardForm("genus1", 6, 1, 3)
    assert form.to_json() == {"kind": "genus1", "d": 3}
    assert StandardForm.from_json(form.to_json(), 6, 1) == form
    assert StandardForm("all_zero", 3, 2).to_json() == {"kind": "all_zero"}
    assert StandardForm("last_one", 4, 2).canonical_coords() == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        StandardForm("genus1", 6, 1, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        StandardForm("genus1", 6, 2, 2)
    with pytest.raises(ValueError):
        StandardForm("last_one", 3, 2)  # odd order has a single class
    with pytest.raises(ValueError):
        StandardForm("all_zero", 4, 1)


def test_twist_word_json_round_trip():
    word = TwistWord((TwistGenerator("U", 1, -2), TwistGenerator("W", 1, 3)))
    assert TwistWord.from_json(word.to_json()) == word
    assert word.to_json()[0] == {"family": "U", "index": 1, "power": -2}
    with pytest.raises(ValueError):
        TwistWord.from_json({"family": "U"})


@pytest.mark.parametrize("letters", [(1, 2), (("U", 1, 1),), [TwistGenerator("V", 1), "U"]])
def test_twist_word_refuses_other_letters(letters):
    with pytest.raises(ValueError):
        TwistWord(letters)
    with pytest.raises(ValueError):
        apply_word(RootTuple(3, (1, 2)), letters)


def _assert_short_replaying_witness(root):
    # adjacent powers of one twist are folded into one letter (or dropped
    # when they cancel), so no two neighbouring letters twist along one curve
    form, witness = reduce_with_witness(root)
    assert apply_word(root, witness) == form.canonical_root()
    assert len(witness) <= 8 * root.genus * root.order.bit_length(), (root, len(witness))
    keys = [(gen.family, gen.index) for gen in witness.word]
    assert all(a != b for a, b in zip(keys, keys[1:])), (root, keys)


def test_witness_length_is_logarithmic_exhaustive_small():
    # every root with r^{2g} <= 4096 (genus 0 up to r = 64)
    for genus in range(7):
        for r in range(1, 65):
            if genus and r ** (2 * genus) > 4096:
                break
            for coords in product(range(r), repeat=2 * genus):
                _assert_short_replaying_witness(RootTuple(r, coords))


def test_witness_length_is_logarithmic_on_large_orders():
    rng = random.Random(4)
    for genus in range(1, 7):
        for r in (101, 9999, 10000, 600001, 10**6 + 1):
            for _ in range(50):
                coords = tuple(rng.randrange(r) for _ in range(2 * genus))
                _assert_short_replaying_witness(RootTuple(r, coords))


def test_witness_length_on_long_stepping_roots():
    # roots whose final block exponent m is near its largest possible value:
    # about r/2 for odd r and r/4 for even r
    _assert_short_replaying_witness(RootTuple(6001, (1,) * 6))
    for r in (10**3, 10**5, 10**6 + 1):
        _assert_short_replaying_witness(RootTuple(r, (0, 0, 0, r // 2)))


def test_witness_letters_never_repeat_a_twist():
    # the witness checks above find no repeated twist; here U U^-1 pairs
    # cancel and W^2 W^2999 becomes one letter: 16 letters -> 9
    root = RootTuple(6001, (1,) * 6)
    form, witness = reduce_with_witness(root)
    assert len(witness) == 9
    assert apply_word(root, witness) == form.canonical_root()


def test_standard_form_refuses_non_integers():
    with pytest.raises(ValueError):
        StandardForm.from_json({"kind": "genus1", "d": 2.0}, 4, 1)
    with pytest.raises(ValueError):
        StandardForm("all_zero", 4.0, 2)
    with pytest.raises(ValueError):
        StandardForm("all_zero", 4, 2.0)
    with pytest.raises(ValueError):
        StandardForm("genus0", True, 0)


def test_an_unknown_form_kind_is_quoted_short():
    with pytest.raises(ValueError, match=r"^unknown standard form kind 'x+\.\.\.x+'$"):
        StandardForm("x" * 10**5, 4, 2)


def test_witness_letters_equal_validated_generators():
    rng = random.Random(11)
    for _ in range(200):
        g, r = rng.randint(1, 4), rng.choice((2, 3, 6, 101, 10000))
        _, witness = reduce_with_witness(RootTuple(r, tuple(rng.randrange(r) for _ in range(2 * g))))
        for gen in witness.word:
            validated = TwistGenerator(gen.family, gen.index, gen.power)
            assert gen == validated and hash(gen) == hash(validated)
            assert type(gen.index) is int and type(gen.power) is int


def test_library_made_roots_equal_validated_ones():
    rng = random.Random(7)
    for _ in range(300):
        g, r = rng.randint(0, 4), rng.choice((1, 2, 3, 6, 101, 10000))
        root = RootTuple(r, tuple(rng.randrange(-2 * r, 2 * r) for _ in range(2 * g)))
        letters = rng.choices(_all_unit_generators(g), k=rng.randint(1, 8) if g else 0)
        word = [TwistGenerator(x.family, x.index, x.power * rng.randint(1, 2 * r)) for x in letters]
        moved = apply_word(root, word)
        validated = RootTuple(r, moved.coords)
        assert moved == validated and hash(moved) == hash(validated)
        assert type(moved.coords) is tuple
        assert all(type(c) is int and 0 <= c < r for c in moved.coords)
    with pytest.raises(ValueError):
        RootTuple(2, (2.0, 1))
    # the trusted result needs integer powers, which only a TwistGenerator guarantees
    with pytest.raises(ValueError):
        apply_word(RootTuple(4, (1, 1)), [SimpleNamespace(family="U", index=1, power=0.5)])


def _library_forms(ctx, search):
    """The forms moduli_report and canonical_form build at ctx's (g, r): the
    closed-form labels, the forms of their canonical roots and, with
    ``search``, the labels of the orbit partition."""
    labels = [label for label, _ in moduli_report(ctx, state_cap=None).components]
    forms = labels + [canonical_form(label.canonical_root()) for label in labels]
    return forms + [rec.label for rec in partition_orbits(ctx).orbits] if search else forms


def test_library_made_forms_equal_validated_ones():
    contexts = {}  # one per (g, r): on the census grid, then at the partition goldens' pairs
    for sig in hyperbolic_signatures(GridBounds(max_genus=3, max_cones=3, max_multiplicity=9)):
        for r in admissible_root_orders(sig):
            if r ** (2 * sig.genus) <= 1 << 14:
                contexts.setdefault((sig.genus, r, True), solve_raymond_vasquez(sig, r))
    golden = json.loads(Path(__file__).with_name("partition_golden.json").read_text(encoding="utf-8"))
    for pair, entry in golden["pairs"].items():
        g, r = map(int, pair.split(","))
        contexts[g, r, False] = solve_raymond_vasquez(OrbifoldSignature(g, tuple(entry["cones"])), r)
    assert len(contexts) == 135 + 362
    for (_, _, search), ctx in contexts.items():
        for form in _library_forms(ctx, search):
            validated = StandardForm(form.kind, form.order, form.genus, form.d)
            assert form == validated and hash(form) == hash(validated) and repr(form) == repr(validated)
            assert form.to_json() == validated.to_json() and form.invariant == validated.invariant
            root = RootTuple(form.order, form.canonical_coords())
            assert form.canonical_root() == root and repr(form.canonical_root()) == repr(root)
