import pytest

from naive import naive_members
from ballotkit import bijections
from ballotkit.bijections import (
    DESCENT_WORD_FAMILIES,
    behead_231_321,
    excluded_element_213_321,
    from_dyck_prefix,
    generate_312_321,
    generate_fib,
    insert_132_321,
    perm_from_word,
    prepend_231_321,
    remove_132_321,
    to_dyck_prefix,
    unique_members,
    wilf_transport,
)
from ballotkit.enumeration import enumerate_oracle, enumerate_pruned
from ballotkit.errors import (
    InvalidInputError,
    UnrealizableWordError,
    UnsupportedClassError,
)
from ballotkit.patterns import parse_pattern_set
from ballotkit.perms import descent_set, descent_word, identity, parse_perm
from ballotkit.verification import suite_bijections


def _class(text):
    return parse_pattern_set(text)


def test_perm_from_word_goldens():
    assert perm_from_word(_class("132,213"), "UUDUUD") == parse_perm("5672341")
    assert perm_from_word(_class("132,213"), "") == (1,)
    # the unique member of this class with word UUDD (the two descents sit
    # at the end, forcing the 12543 shape)
    assert perm_from_word(_class("213,231,312"), "UUDD") == parse_perm("12543")
    assert perm_from_word(_class("213,231,312"), "UUUD") == parse_perm("12354")


def test_perm_from_word_inverts_descent_word():
    for family in DESCENT_WORD_FAMILIES:
        for name in family.members:
            pset = _class(name)
            for n in range(1, 9):
                for p in enumerate_oracle(n, pset):
                    assert perm_from_word(pset, descent_word(p)) == p, (name, p)


def test_perm_from_word_rejections():
    with pytest.raises(UnsupportedClassError):
        perm_from_word(_class("321"), "UU")
    with pytest.raises(UnrealizableWordError):
        perm_from_word(_class("132,213"), "DU")
    with pytest.raises(UnrealizableWordError):
        perm_from_word(_class("213,231,312"), "UDUU")  # descents must be a suffix
    with pytest.raises(UnrealizableWordError):
        perm_from_word(_class("132,213,321"), "UDUD")  # at most one descent
    with pytest.raises(InvalidInputError):
        perm_from_word(_class("132,213"), "UX")


def test_wilf_transport_families():
    for family in DESCENT_WORD_FAMILIES:
        classes = {name: _class(name) for name in family.members}
        for n in range(1, 9):
            listings = {name: enumerate_oracle(n, pset) for name, pset in classes.items()}
            for src, src_pset in classes.items():
                for dst, dst_pset in classes.items():
                    image = [wilf_transport(p, src_pset, dst_pset) for p in listings[src]]
                    assert sorted(image) == listings[dst], (src, dst, n)
                    for p, q in zip(listings[src], image):
                        assert descent_set(p) == descent_set(q)
                    back = [wilf_transport(q, dst_pset, src_pset) for q in image]
                    assert back == listings[src]


def _fails_only(row, failure):
    """At n = 8 the suite fails ``row`` with ``failure`` and passes every other row."""
    rows = {r["check"]: r for r in suite_bijections(8)}
    assert rows[row]["status"] == "fail"
    assert rows[row]["failure"] == failure
    assert all(r["status"] == "pass" for check, r in rows.items() if check != row)


@pytest.mark.parametrize("name, wrong, row", [
    ("132,312", "_from_word_213_231", "transport-132,213"),
    ("213,231,312", "_from_word_132_213", "transport-132,213,312"),
    ("132,312,321", "_from_word_213_231", "transport-132,213,321"),
])
def test_transport_check_catches_a_wrong_builder(monkeypatch, name, wrong, row):
    monkeypatch.setitem(bijections._family_of(name).members, name, getattr(bijections, wrong))
    _fails_only(row, f"{name} builder at n=3")


@pytest.mark.parametrize("name, wrong, row, failure", [
    ("from_dyck_prefix", lambda w: perm_from_word(_class("132,213"), w)[::-1],
     "dyck-roundtrip", "roundtrip of (1, 2)"),
    ("insert_132_321", lambda s: (1,) + tuple(v + 1 for v in s),
     "insertion-maps", "132,321 image at n=2"),
    ("behead_231_321", lambda p: tuple(v - 1 for v in reversed(p[1:])),
     "insertion-maps", "231,321 inverse at n=2"),
    ("generate_312_321", generate_fib, "generators", "312,321 generation at n=3"),
    ("unique_members", lambda pset, n: [identity(n)], "unique-members", "123,132 at n=3"),
    ("excluded_element_213_321", lambda n: tuple(range(n, 0, -1)),
     "excluded-213-321", "213,321 excluded element at n=3"),
], ids=["dyck", "insert", "behead", "generator", "unique", "excluded"])
def test_each_bijection_row_catches_a_wrong_map(monkeypatch, name, wrong, row, failure):
    # each wrong map returns permutations, so the row fails by assertion
    monkeypatch.setattr(bijections, name, wrong)
    _fails_only(row, failure)


def test_wilf_transport_figure_pairing():
    word = "UUDUUD"
    a = perm_from_word(_class("132,213"), word)
    b = wilf_transport(a, _class("132,213"), _class("213,231"))
    assert b == parse_perm("1273465")
    assert descent_word(b) == word
    c = wilf_transport(a, _class("132,213"), _class("132,312"))
    assert c == parse_perm("3452671")


def test_wilf_transport_zero_descents_gives_identity():
    for name in ("213,231,312", "132,213,312"):
        p = identity(5)
        assert wilf_transport(p, _class("132,213,312"), _class(name)) in (
            identity(5),
            perm_from_word(_class(name), "UUUU"),
        )


def test_wilf_transport_keeps_the_empty_permutation():
    # () is the one member of length 0 of every class; no word stands for it
    for family in DESCENT_WORD_FAMILIES:
        for src in family.members:
            for dst in family.members:
                assert wilf_transport((), _class(src), _class(dst)) == ()


def test_wilf_transport_rejections():
    with pytest.raises(UnsupportedClassError):
        wilf_transport((1, 2), _class("132,213"), _class("132,213,312"))
    with pytest.raises(UnsupportedClassError):
        wilf_transport((1, 2), _class("321"), _class("132,213"))
    with pytest.raises(InvalidInputError):
        wilf_transport(parse_perm("2134"), _class("132,213"), _class("213,231"))
    with pytest.raises(InvalidInputError):
        # ballot but contains 132
        wilf_transport(parse_perm("132"), _class("132,213"), _class("213,231"))


def test_dyck_prefix_goldens():
    assert to_dyck_prefix(parse_perm("456312")) == "UUDDU"
    assert from_dyck_prefix("UUDDU") == parse_perm("456312")
    assert from_dyck_prefix("") == (1,)


def test_dyck_prefix_covers_all_nonnegative_words():
    def ballot_words(m):
        if m == 0:
            return [""]
        out = []
        for w in ballot_words(m - 1):
            out.append(w + "U")
            if w.count("U") > w.count("D"):
                out.append(w + "D")
        return out

    for n in range(1, 10):
        words = ballot_words(n - 1)
        members = enumerate_pruned(n, _class("132,213"))
        assert sorted(to_dyck_prefix(p) for p in members) == sorted(words)
        for w in words:
            assert to_dyck_prefix(from_dyck_prefix(w)) == w


def test_dyck_prefix_rejects_the_empty_permutation():
    # a word of length n - 1 stands for a member of length n >= 1
    with pytest.raises(InvalidInputError, match="empty permutation"):
        to_dyck_prefix(())


def test_dyck_prefix_rejections():
    with pytest.raises(InvalidInputError):
        to_dyck_prefix(parse_perm("132"))  # contains a forbidden pattern
    with pytest.raises(InvalidInputError):
        to_dyck_prefix(parse_perm("21"))  # not ballot
    with pytest.raises(UnrealizableWordError):
        from_dyck_prefix("UDD")


def test_insertion_map_132_321():
    assert insert_132_321(parse_perm("312")) == parse_perm("3412")
    assert insert_132_321((1,)) == (1, 2)
    assert insert_132_321(()) == (1,)
    assert remove_132_321((1,)) == ()
    with pytest.raises(InvalidInputError):
        insert_132_321(parse_perm("132"))
    with pytest.raises(InvalidInputError):
        remove_132_321(parse_perm("2134"))  # ballot is required of the image


def test_insertion_map_231_321():
    assert prepend_231_321(parse_perm("213")) == parse_perm("1324")
    assert prepend_231_321(identity(4)) == identity(5)
    with pytest.raises(InvalidInputError):
        prepend_231_321(parse_perm("231"))
    with pytest.raises(InvalidInputError):
        behead_231_321(parse_perm("2134"))


def test_excluded_element():
    assert excluded_element_213_321(4) == parse_perm("4123")
    assert excluded_element_213_321(2) == (2, 1)
    with pytest.raises(InvalidInputError):
        excluded_element_213_321(1)


def test_generate_312_321():
    assert len(generate_312_321(4)) == 6
    assert generate_312_321(1) == [(1,)]
    assert sorted(generate_312_321(3)) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    for n in range(1, 12):
        built = generate_312_321(n)
        assert sorted(built) == enumerate_pruned(n, _class("312,321"))
        if n >= 4:
            assert len(built) == 2 * len(generate_312_321(n - 1))
    with pytest.raises(InvalidInputError):
        generate_312_321(0)


def test_generate_fib():
    assert len(generate_fib(5)) == 5
    assert generate_fib(2) == [(1, 2)]
    for n in range(1, 13):
        built = generate_fib(n)
        assert sorted(built) == enumerate_pruned(n, _class("231,312,321"))
    sizes = [len(generate_fib(n)) for n in range(1, 13)]
    assert all(
        sizes[i] == sizes[i - 1] + sizes[i - 2] for i in range(2, len(sizes))
    )
    with pytest.raises(InvalidInputError):
        generate_fib(0)


def test_unique_members_constructions():
    assert unique_members(_class("123,132"), 4) == [parse_perm("3412")]
    assert unique_members(_class("132,231"), 5) == [identity(5)]
    assert len(unique_members(_class("123,213"), 5)) == 2
    with pytest.raises(UnsupportedClassError):
        unique_members(_class("321"), 4)


def test_unique_members_against_naive():
    for name in ("123,132", "123,213"):
        pset = _class(name)
        for n in range(1, 8):
            assert unique_members(pset, n) == naive_members(n, pset)
