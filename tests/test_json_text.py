"""The CLI's JSON writer gives the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` on random documents and on every document the CLI builds."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toriclg import catalog, cli
from toriclg.cli import json_text, main


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e16, 0.1]
)
_text = st.text(
    st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀'),
    max_size=8,
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _floats
    | _text
)
# term-shaped dicts: the writer's one-string path takes only str/float/float
# with finite floats; every other value falls back to the generic path
_terms = st.fixed_dictionaries(
    {"exp": _text | _scalars, "im": _floats | _scalars, "re": _floats | _scalars}
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    )


_documents = st.recursive(_scalars | _terms, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example({"exp": "1/2", "im": 0.0, "re": -0.0})
@example({"exp": "1/2", "im": float("nan"), "re": float("inf")})
@example({"exp": "1/2", "im": 1, "re": 2.0})
@example({"exp": "1/2", "im": True, "re": 2.0})
@example({"exp": 3, "im": 1.0, "re": 2.0})
@example([[], {}, (), [()], {"": {}}])
def test_matches_stdlib(doc):
    assert json_text(doc) == stdlib_text(doc)


class _Str(str):
    def __str__(self):
        return "other"


class _Int(int):
    def __repr__(self):
        return "other"


class _Float(float):
    def __repr__(self):
        return "other"


def test_subclasses_come_out_as_the_stdlib_writes_them():
    doc = {
        "s": _Str("x"),
        "i": _Int(7),
        "f": _Float(0.5),
        "t": {"exp": _Str("1"), "im": _Float(1.5), "re": _Float(-2.0)},
    }
    assert json_text(doc) == stdlib_text(doc)


@pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, complex(1, 2), object()])
def test_non_json_value_raises_type_error(value):
    with pytest.raises(TypeError):
        stdlib_text({"a": [value]})
    with pytest.raises(TypeError):
        json_text({"a": [value]})


def test_non_str_key_raises_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        json_text({1: "a"})


# one entry of every family, the series-heavy ones among them
ENTRIES = [
    "simplex:1",
    "simplex:2",
    "simplex:3",
    "blowup1:1/3",
    "blowup1:1/5",
    "blowup2:1/2,1/5",
    "blowup2:1/3,1/3",
    "hirzebruch:1,2/5",
    "hirzebruch:2,1/2",
]


def _barycentre(spec: str) -> str:
    name, _, rest = spec.partition(":")
    params = [Fraction(x) for x in rest.split(",")]
    vertices = catalog(name, *params).polytope.vertices()
    return ",".join(
        str(sum(v.point[i] for v in vertices) / len(vertices))
        for i in range(len(vertices[0].point))
    )


def _commands(spec: str) -> list[list[str]]:
    u = _barycentre(spec)
    source = ["--catalog", spec]
    return [
        ["analyze", *source],
        ["critical-points", *source],
        ["residue-check", *source],
        ["potential", *source],
        ["potential", *source, "--u", u],
        ["lte", *source, "--u", u],
        ["lte", *source, "--grid", "6"],
        ["betti", *source],
    ]


@pytest.mark.parametrize(
    "argv",
    [["catalog-list"]] + [argv for spec in ENTRIES for argv in _commands(spec)],
    ids=" ".join,
)
def test_cli_documents_match_stdlib(argv, capsys, monkeypatch):
    docs = []
    emit = cli._emit

    def keep(args, doc, text):
        docs.append(doc)
        return emit(args, doc, text)

    monkeypatch.setattr(cli, "_emit", keep)
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(docs) == 1
    assert out == stdlib_text(docs[0]) + "\n"
