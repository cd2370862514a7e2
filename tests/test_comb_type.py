"""Tests for combinatorial types: involutions, labelings, boundary words.

Counts of interior types are checked against an independent brute-force
enumeration of fixed-point-free non-crossing involutions built from
itertools, not against the Catalan recursion used by the library.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from nodalkit import comb_type
from nodalkit.cli import main
from nodalkit.comb_type import (ARROW_TOKENS, BoundaryType, DomainLabeling,
                                InteriorType, Word, boundary_words,
                                canonical_word, catalan, compare_patterns,
                                enumerate_boundary, enumerate_interior,
                                first_repeat, format_tau_text,
                                labeling_from_type, parse_tau_text, rotate_type,
                                rotating_limit_check, shift_invariant_types,
                                type_from_labeling)
from nodalkit.errors import CapExceeded, InconsistentLabeling, InvalidType, NoRepeat


# the worked 2p=16 example: three blocks (nested, nested, mixed)
TAU16 = (3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 15, 12, 11, 14, 13, 10)
DELTA16 = (1, 2, 1, 3, 4, 5, 6, 5, 4, 3, 7, 8, 7, 9, 7, 3)


def brute_force_interior(p):
    """All fixed-point-free non-crossing odd-difference involutions on
    {0..2p-1}, via raw search over perfect matchings."""
    items = list(range(2 * p))

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            remainder = rest[1:i] + rest[i + 1:]
            for m in matchings(remainder):
                yield [(a, b)] + m

    out = []
    for m in matchings(items):
        if any((b - a) % 2 == 0 for a, b in m):
            continue
        crossing = False
        for (a, b), (c, d) in itertools.combinations(m, 2):
            if a < c < b < d or c < a < d < b:
                crossing = True
                break
        if not crossing:
            tau = [0] * (2 * p)
            for a, b in m:
                tau[a], tau[b] = b, a
            out.append(tuple(tau))
    return sorted(out)


def test_interior_counts_match_brute_force():
    start = time.perf_counter()
    for p in range(1, 9):
        enum = enumerate_interior(p)
        assert len(enum) == catalan(p)
        if p <= 5:  # brute force is exponential; compare sets where feasible
            assert sorted(t.tau for t in enum) == brute_force_interior(p)
    assert [catalan(p) for p in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]
    assert time.perf_counter() - start < 10


def test_enumeration_sorted_and_capped():
    for p in (3, 4):
        taus = [t.tau for t in enumerate_interior(p)]
        assert taus == sorted(taus)
    with pytest.raises(CapExceeded):
        enumerate_interior(11)


def test_validate_interior_rejections():
    for p, tau in ((2, (0, 1, 3, 2)),         # fixed point
                   (2, (2, 3, 0, 1)),         # even difference, crossing
                   (3, (3, 4, 5, 0, 1, 2)),   # crossing, all differences odd
                   (2, (1, 0, 3))):           # wrong length
        with pytest.raises(InvalidType):
            InteriorType(p, tau)


@pytest.mark.parametrize("make, message", [
    (lambda: InteriorType("x", (1, 0)), "p must be >= 1 and an integer, "
                                         "got 'x'"),
    (lambda: enumerate_interior("x"), "p must be >= 1 and an integer"),
    (lambda: InteriorType(1, None), "tau must be a tuple of 2 rays for p=1, "
                                    "got None"),
    (lambda: BoundaryType(3.0, (1, 0, 3, 2)), "k must be >= 3 and an "
                                              "integer, got 3.0"),
    (lambda: InteriorType(1, [1, 0]), "tau must be a tuple"),
    (lambda: shift_invariant_types(True), "p must be >= 1 and an integer"),
    (lambda: enumerate_boundary(4.0), "k must be >= 3 and an integer"),
], ids=["str-p", "str-enumerate", "none-tau", "float-k", "list-tau",
        "bool-shift-census", "float-enumerate-boundary"])
def test_type_counts_follow_the_integer_rule(make, message):
    # the first three once raised a bare TypeError, and a float k was stored
    with pytest.raises(InvalidType, match=message):
        make()


def test_type_counts_are_stored_as_ints():
    t = BoundaryType(np.int64(3), (1, 0, 3, 2))
    assert type(t.k) is int and t == BoundaryType(3, (1, 0, 3, 2))
    assert type(InteriorType(np.int64(1), (1, 0)).p) is int
    assert enumerate_interior(np.int64(2)) == enumerate_interior(2)


@pytest.mark.parametrize("entry", ["x", 1.0, True, None],
                         ids=["str", "float", "bool", "none"])
def test_tau_entries_follow_the_integer_rule(entry):
    # a string or a float once raised a bare TypeError, and a bool was kept
    message = "tau entry must be >= 0 and an integer, got %r" % (entry,)
    with pytest.raises(InvalidType, match=message):
        InteriorType(1, (entry, 0))
    with pytest.raises(InvalidType, match=message):
        BoundaryType(3, (1, entry, 3, 2))


def test_tau_entries_are_stored_as_ints():
    t = InteriorType(1, (np.int64(1), np.int64(0)))
    assert t.tau == (1, 0) and list(map(type, t.tau)) == [int, int]
    b = BoundaryType(3, tuple(np.array([1, 0, 3, 2])))
    assert b == BoundaryType(3, (1, 0, 3, 2))
    assert set(map(type, b.tau)) == {int}


def test_matching_table_is_kept(monkeypatch):
    kept = comb_type._matching_taus(10)
    assert comb_type._matching_taus(10) is kept
    assert type(kept) is tuple and set(map(type, kept)) == {tuple}
    three = comb_type._matching_taus(3)
    # a fresh table, asked for p = 3 only, builds the same row
    monkeypatch.setattr(comb_type, "_MATCHINGS", [((),)])
    assert comb_type._matching_taus(3) == three
    assert len(comb_type._MATCHINGS) == 4


def test_enumerations_return_new_lists():
    first = enumerate_interior(3)
    first.clear()
    assert len(enumerate_interior(3)) == catalan(3)
    boundary = enumerate_boundary(4)
    boundary.append(None)
    assert enumerate_boundary(4) == boundary[:-1]


def _constructs(cls, n, tau):
    try:
        cls(n, tau)
    except InvalidType:
        return False
    return True


def test_constructors_accept_exactly_the_reference():
    for p in range(5):
        for tau in itertools.permutations(range(2 * p)):
            assert _constructs(InteriorType, p, tau) == \
                (helpers.reference_validate_interior(p, tau) == []), tau
    for k in range(3, 6):
        for tau in itertools.permutations(range(2 * k - 2)):
            assert _constructs(BoundaryType, k, tau) == \
                (helpers.reference_validate_boundary(k, tau) == []), tau


@given(st.integers(min_value=-1, max_value=7), st.data())
@settings(max_examples=300, deadline=None)
def test_constructors_match_reference_on_random_tuples(n, data):
    rays = st.integers(min_value=-1, max_value=2 * max(n, 1))
    tau = tuple(data.draw(st.one_of(
        st.lists(rays, max_size=2 * max(n, 1) + 1),
        st.permutations(range(2 * max(n, 0))),
        st.permutations(range(max(2 * n - 2, 0))))))
    assert _constructs(InteriorType, n, tau) == \
        (helpers.reference_validate_interior(n, tau) == [])
    assert _constructs(BoundaryType, n, tau) == \
        (helpers.reference_validate_boundary(n, tau) == [])


def test_worked_example_round_trip():
    t = InteriorType(8, TAU16)
    start = time.perf_counter()
    lab = labeling_from_type(t)
    back = type_from_labeling(lab)
    elapsed = time.perf_counter() - start
    assert lab.delta == DELTA16
    assert back.tau == TAU16
    assert elapsed < 0.010


def test_labeling_invariants():
    lab = labeling_from_type(InteriorType(8, TAU16))
    assert set(lab.delta) == set(range(1, 10))  # labels 1..p+1
    n = len(lab.delta)
    for j in range(n):
        assert lab.delta[j] != lab.delta[(j + 1) % n]


@given(st.integers(min_value=1, max_value=6), st.randoms())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(p, rnd):
    ts = enumerate_interior(p)
    t = rnd.choice(ts)
    assert type_from_labeling(labeling_from_type(t)).tau == t.tau


@given(st.integers(min_value=1, max_value=6), st.integers(), st.integers(),
       st.randoms())
@settings(max_examples=60, deadline=None)
def test_rotation_group_action(p, r1, r2, rnd):
    t = rnd.choice(enumerate_interior(p))
    a = rotate_type(rotate_type(t, r1), r2)
    b = rotate_type(t, r1 + r2)
    assert a.tau == b.tau
    assert rotate_type(t, 0).tau == t.tau


def test_shift_invariant_types():
    start = time.perf_counter()
    only = shift_invariant_types(1)
    assert len(only) == 1 and only[0].tau == (1, 0)
    for p in range(2, 9):
        assert shift_invariant_types(p) == []
    assert time.perf_counter() - start < 10


def test_shift_census_matches_rotate_type():
    for p in range(1, 11):
        want = [t for t in enumerate_interior(p) if rotate_type(t, 1) == t]
        assert shift_invariant_types(p) == want, p


def test_interior_enumeration_matches_reference():
    for p in range(1, 11):
        assert ([t.tau for t in enumerate_interior(p)]
                == helpers.reference_interior_taus(p)), p


def test_boundary_enumeration_matches_reference():
    for k in range(3, 11):
        assert ([t.tau for t in enumerate_boundary(k)]
                == helpers.reference_boundary_taus(k)), k


def test_shift_census_matches_reference():
    for p in range(1, 11):
        assert ([t.tau for t in shift_invariant_types(p)]
                == helpers.reference_shift_invariant_taus(p)), p


def test_shift_census_builds_no_type(monkeypatch):
    built = []
    validate = InteriorType.__post_init__

    def counting(self):
        built.append(self.tau)
        validate(self)
    monkeypatch.setattr(InteriorType, "__post_init__", counting)
    for p in range(2, 9):
        assert shift_invariant_types(p) == []
    assert built == []
    # the counter sees every construction: one per hit, one per enumerated type
    assert [t.tau for t in shift_invariant_types(1)] == built == [(1, 0)]
    assert len(enumerate_interior(4)) == len(built) - 1 == catalan(4)


def test_boundary_enumeration_and_validation():
    # k=3: a in {1, 3}; each side has a unique matching -> 2 types
    ts = enumerate_boundary(3)
    assert len(ts) == 2
    # k=4: a=1 -> C2=2 on minus side, a=3 -> 1*1? plus has 2 rays, minus 2 rays
    ts4 = enumerate_boundary(4)
    counts = {}
    for t in ts4:
        counts[t.a] = counts.get(t.a, 0) + 1
    assert counts == {1: 2, 3: 1, 5: 2}
    # arrow at an even position is invalid
    with pytest.raises(InvalidType):
        BoundaryType(3, (2, 3, 1, 0))


def test_boundary_word_shapes():
    for k in range(3, 8):
        for t in enumerate_boundary(k):
            m_theta, m_zero, m_pi = boundary_words(t)
            a = t.a
            c = (a - 1) // 2 + 2
            assert len(m_theta.letters) == 2 * k - 2
            assert m_theta.letters[0] == 1
            assert m_theta.letters[a - 1] == 1  # p_+ block ends back at 1
            assert m_zero.letters == (c,) + m_theta.letters
            assert m_pi.letters == m_theta.letters + (1,)
            # no two equal adjacent letters
            for w in (m_theta, m_zero, m_pi):
                for x, y in zip(w.letters, w.letters[1:]):
                    assert x != y


def test_m_theta_matches_span_oracle():
    # m_theta is the one labeling sweep over the matching, the arrow as ray
    # 0; the oracle finds each interval's loop by comparing spans instead
    count = 0
    for k in range(3, 11):
        for t in enumerate_boundary(k):
            assert boundary_words(t)[0].letters \
                == helpers.reference_m_theta(t.tau), t.tau
            count += 1
    assert count == sum(catalan(k - 1) for k in range(3, 11)) == 6916


def test_known_words():
    t69 = BoundaryType(4, (3, 2, 1, 0, 5, 4))
    mt, m0, mpi = boundary_words(t69)
    assert mt.letters == (1, 2, 1, 3, 4, 3)
    assert m0.letters == (3, 1, 2, 1, 3, 4, 3)
    assert mpi.letters == (1, 2, 1, 3, 4, 3, 1)
    # the distinguished pair with identical word lengths
    left = BoundaryType(4, (5, 2, 1, 4, 3, 0))
    right = BoundaryType(4, (1, 0, 3, 2, 5, 4))
    assert boundary_words(left)[0].letters == (1, 2, 1, 3, 1, 4)
    assert boundary_words(right)[0].letters == (1, 2, 3, 2, 4, 2)
    assert boundary_words(BoundaryType(3, (1, 0, 3, 2)))[0].letters == (1, 2, 3, 2)


def test_first_repeat():
    assert first_repeat(Word((1, 2, 1, 3))) == 3
    assert first_repeat(Word((2, 1, 2, 3))) == 3
    assert first_repeat(Word((1, 2, 1, 3, 1, 4, 1))) == 3
    with pytest.raises(NoRepeat):
        first_repeat(Word((1, 2, 3, 4)))


def test_rotating_limit_all_small_k():
    start = time.perf_counter()
    for k in range(3, 8):
        for t in enumerate_boundary(k):
            rep = rotating_limit_check(t)
            assert rep.passed
            assert rep.pos_zero - rep.pos_pi == 2
            assert rep.scan_zero == rep.pos_zero  # structural position is exact
            assert rep.scan_zero != rep.scan_pi
    assert time.perf_counter() - start < 1


def test_compare_patterns():
    a = Word((1, 2, 1, 3, 1, 4))
    b = Word((1, 2, 3, 2, 4, 2))
    verdict, witness = compare_patterns(a, b)
    assert verdict == "distinct" and witness is not None
    # label bijection: same pattern under renaming
    c = Word((2, 3, 2, 1, 2, 4))
    verdict, witness = compare_patterns(a, c)
    assert verdict == "equal" and witness is None
    assert canonical_word(c).letters == a.letters
    # different lengths
    assert compare_patterns(a, Word((1, 2)))[0] == "distinct"


def test_tau_text_round_trip(tmp_path, capsys):
    t = InteriorType(8, TAU16)
    text = format_tau_text(t)
    assert parse_tau_text(text).tau == TAU16
    bt = BoundaryType(4, (3, 2, 1, 0, 5, 4))
    text = format_tau_text(bt)
    parsed = parse_tau_text(text)
    assert isinstance(parsed, BoundaryType)
    assert parsed.tau == bt.tau and parsed.k == 4
    types = [t for p in range(1, 5) for t in enumerate_interior(p)]
    types += [t for k in range(3, 6) for t in enumerate_boundary(k)]
    for t in types:
        assert parse_tau_text(format_tau_text(t)) == t
    # every spelling of the arrow, in either case, reads as ray 0
    for token in ARROW_TOKENS:
        for spelling in (token, token.upper()):
            assert parse_tau_text("%s 1 2 3 4 5\n3 2 1 %s 5 4\n"
                                  % (spelling, spelling)) == bt
    bad = {"0 1 1 3\n1 0 3 2\n": InvalidType,        # first row repeats ray 1
           "v 1 1 3\n1 v 3 2\n": InvalidType,
           "0 1 2\n1 0 2\n": InvalidType,            # odd interior row
           # non-integer tokens, named in the message
           "0 1 x 3\n1 0 3 2\n": (InvalidType, "ray token 'x'"),
           "v 1 2 3\n1 v 3 2.0\n": (InvalidType, "ray token '2.0'")}
    for i, (text, error) in enumerate(bad.items()):
        error, match = error if isinstance(error, tuple) else (error, None)
        with pytest.raises(error, match=match):
            parse_tau_text(text)
        path = tmp_path / ("bad%d.tau" % i)
        path.write_text(text)
        for command in ("label", "words"):
            assert main(["types", command, str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: %s: " % path)


def test_type_from_labeling_matches_reference():
    # every labeling that passes validate_labeling for p <= 3: the sweep
    # gives the tau of the recursive parser, or both raise
    def inverse(invert, d):
        try:
            return invert(d).tau
        except InconsistentLabeling:
            return None

    count = 0
    for p in range(1, 4):
        for delta in itertools.product(range(1, p + 2), repeat=2 * p):
            try:
                d = DomainLabeling(delta)
            except InconsistentLabeling:
                continue
            count += 1
            assert inverse(type_from_labeling, d) == \
                inverse(helpers.reference_type_from_labeling, d), delta
    assert count == 494
    for p in range(1, 8):
        for t in enumerate_interior(p):
            assert type_from_labeling(labeling_from_type(t)) == t


def test_type_from_labeling_rejects_garbage():
    with pytest.raises(InconsistentLabeling):
        type_from_labeling(labeling_from_type(InteriorType(2, (1, 0, 3, 2)))
                           .__class__((1, 1, 2, 1)))


@pytest.mark.parametrize("text", ["0 +1\n1 0", "0 1\n0_1 0", "0 1\n01 00",
                                  "0 1\n1 -0", "0 1\n 1\t٠\n", "0 1\n1 ０"])
def test_ray_tokens_are_spelled_as_str_writes_them(text):
    # int() read each as tau = (1, 0); a token must be str(n) of its ray
    with pytest.raises(InvalidType, match="is neither an integer nor an arrow"):
        parse_tau_text(text)
    assert parse_tau_text("0 1\n1 0").tau == (1, 0)
