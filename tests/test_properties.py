"""Property tests: the algebraic laws of the twist action, the witness
replay, the JSON loaders (which refuse unknown keys), and solve/recognize as inverse maps.

Examples are derandomised, so every run checks the same cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbispin import (
    OrbifoldSignature,
    RootContext,
    RootTuple,
    SeifertInvariants,
    StandardForm,
    TwistGenerator,
    TwistWord,
    admissible_root_orders,
    apply_word,
    canonical_form,
    is_hyperbolic,
    recognize_fibre_index,
    reduce_with_witness,
    solve_raymond_vasquez,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

orders = st.one_of(st.integers(1, 12), st.integers(13, 10**6 + 1))


@st.composite
def roots(draw, max_genus=5):
    r = draw(orders)
    genus = draw(st.integers(0, max_genus))
    coords = draw(st.lists(st.integers(0, r - 1), min_size=2 * genus, max_size=2 * genus))
    return RootTuple(r, tuple(coords))


@st.composite
def words(draw, genus, max_size=16):
    families = ["U", "V"] + (["W"] if genus >= 2 else [])
    if genus == 0:
        return TwistWord()
    letters = []
    for _ in range(draw(st.integers(0, max_size))):
        family = draw(st.sampled_from(families))
        index = draw(st.integers(1, genus - 1 if family == "W" else genus))
        power = draw(st.integers(-50, 50).filter(bool))
        letters.append(TwistGenerator(family, index, power))
    return TwistWord(tuple(letters))


@st.composite
def roots_and_words(draw):
    root = draw(roots())
    return root, draw(words(root.genus))


@st.composite
def contexts(draw):
    sig = draw(
        st.builds(
            OrbifoldSignature,
            st.integers(0, 3),
            st.lists(st.integers(2, 12), max_size=4).map(tuple),
        ).filter(is_hyperbolic)
    )
    return solve_raymond_vasquez(sig, draw(st.sampled_from(admissible_root_orders(sig))))


@SETTINGS
@given(roots_and_words())
def test_a_word_then_its_inverse_is_the_identity(case):
    root, word = case
    assert apply_word(apply_word(root, word), word.inverse()) == root


@SETTINGS
@given(roots_and_words())
def test_canonical_form_is_constant_along_words(case):
    root, word = case
    assert canonical_form(apply_word(root, word)) == canonical_form(root)


@SETTINGS
@given(roots())
def test_witness_replays_to_the_canonical_root(root):
    form, witness = reduce_with_witness(root)
    assert form == canonical_form(root)
    assert apply_word(root, witness) == form.canonical_root()


@SETTINGS
@given(roots_and_words())
def test_json_round_trips(case):
    root, word = case
    form = canonical_form(root)
    assert RootTuple.from_json(root.to_json()) == root
    assert TwistWord.from_json(word.to_json()) == word
    assert StandardForm.from_json(form.to_json(), root.order, root.genus) == form


def test_json_loaders_refuse_unknown_keys():
    sig = OrbifoldSignature(2, (3,))
    ctx = solve_raymond_vasquez(sig, 2)
    root = RootTuple(6, (1, 2))
    loaders = [
        (OrbifoldSignature.from_json, sig.to_json()),
        (SeifertInvariants.from_json, ctx.invariants.to_json()),
        (RootContext.from_json, ctx.to_json()),
        (RootTuple.from_json, root.to_json()),
        (TwistGenerator.from_json, TwistGenerator("W", 1, 2).to_json()),
        (lambda data: StandardForm.from_json(data, 6, 1), canonical_form(root).to_json()),
        (lambda data: StandardForm.from_json(data, 2, 2), canonical_form(RootTuple(2, (0, 0, 0, 1))).to_json()),
    ]
    for load, data in loaders:
        load(data)  # what to_json writes is accepted
        with pytest.raises(ValueError, match=r"unknown keys: 'extra', 'junk'$"):
            load({**data, "junk": 1, "extra": None})


@SETTINGS
@given(contexts())
def test_recognize_inverts_solve(ctx):
    assert recognize_fibre_index(ctx.invariants) == ctx
    assert RootContext.from_json(ctx.to_json()) == ctx
