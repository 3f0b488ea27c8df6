from recap_engine.identifiers import (
    Identifier,
    extract_references,
    is_bare_name,
    parse_identifier,
)


def test_render_forms():
    assert Identifier("gp", "", "one_route").render() == "gp:one_route"
    assert Identifier("parent", "P", "m1").render() == "parent:P:m1"
    assert Identifier("child", "C1", "S1").render() == "child:C1:S1"


def test_parse_roundtrip():
    for text in ("gp:A", "parent:P:m2", "child:C1:R2"):
        ident = parse_identifier(text)
        assert ident is not None
        assert ident.render() == text


def test_parse_rejects_malformed():
    assert parse_identifier("gp:") is None
    assert parse_identifier("parent:m1") is None  # parent needs an owner
    assert parse_identifier("child:C1:") is None
    assert parse_identifier("other:C1:x") is None
    assert parse_identifier("S1") is None


def test_a_trailing_newline_makes_no_canonical_id():
    # "$" also matches before a final "\n"; the whole text must be the id.
    for text in ("child:C1:S1\n", "gp:A\n", "parent:P:m2\n"):
        assert parse_identifier(text) is None
    assert not is_bare_name("S1\n")


def test_case_sensitivity():
    assert parse_identifier("gp:A") != parse_identifier("gp:a")


def test_extract_references_in_order():
    text = "uses child:C1:m1 and later parent:P:B, but not bare m1"
    refs = extract_references(text)
    assert [r.render() for r in refs] == ["child:C1:m1", "parent:P:B"]


def test_extract_preserves_duplicates():
    refs = extract_references("gp:A then gp:A again")
    assert len(refs) == 2


def test_is_bare_name():
    assert is_bare_name("S1")
    assert not is_bare_name("child:C1:S1")
    assert not is_bare_name("two words")
