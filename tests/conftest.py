"""Shared fixtures: the documented three-player instance and small scales,
plus the problem-document strategies that fuzz the input boundary."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from symsug import Capacity, Profile, levels_scale, unit_scale
from symsug.capacity import subset_text
from symsug.verify import worked_example


@pytest.fixture(scope="session")
def unit():
    return unit_scale()


@pytest.fixture(scope="session")
def l3():
    return levels_scale(3)


@pytest.fixture(scope="session")
def worked():
    """The documented capacity/profile pair on the unit scale."""
    return worked_example()


WORKED_DOCUMENT = {
    "scale": {"kind": "unit"},
    "players": ["cost", "quality", "delivery"],
    "capacity": {
        "{}": "0",
        "{1}": "0.3",
        "{2}": "0.25",
        "{3}": "0.2",
        "{1,2}": "0.4",
        "{1,3}": "0.3",
        "{2,3}": "0.6",
        "{1,2,3}": "1",
    },
    "profile": ["-1", "0.3", "1"],
}


@pytest.fixture()
def worked_file(tmp_path):
    """The same instance serialized as a problem document on disk."""
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED_DOCUMENT), encoding="utf-8")
    return path


def make_capacity(scale, grades):
    """Capacity from a mask-ordered tuple of raw grades."""
    return Capacity(
        (len(grades)).bit_length() - 1,
        scale,
        tuple(scale.value(g) for g in grades),
    )


def make_profile(scale, grades):
    return Profile(scale, tuple(scale.value(g) for g in grades))


def count_calls(monkeypatch, module, name):
    """Count the calls to ``module.name`` made through every symsug module
    that holds it, including those that imported it by name."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        holder = getattr(loaded, "__name__", "")
        if holder.split(".")[0] == "symsug" and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


# -- problem documents for fuzzing ------------------------------------------------

DOCUMENT_KEYS = (
    "scale", "kind", "levels", "labels", "players", "capacity", "profile",
    "options", "mobius", "outputs",
)
# text close to the grammar: grades, subsets, names and the text bounds
NEAR_MISSES = (
    "", " ", "0", "-0", "1", "-1", "2", "01", "+1", "1/2", "-1/3", "1/0", "0.5",
    "1e-1000", "1e-1001", "{}", "{1}", "{1,2}", "{2,1}", "{1,1}", "{5}", "{0}",
    "g0", "-g1", "unit", "levels", "lower", "upper", "choquet", "v1",
)
json_keys = st.sampled_from(DOCUMENT_KEYS + NEAR_MISSES) | st.text(max_size=6)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(NEAR_MISSES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=10,
)


@st.composite
def documents(draw):
    """A valid problem document with one to four players, on either scale."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        scale, top, text = {"kind": "unit"}, Fraction(1), str
        magnitudes = st.fractions(0, 1, max_denominator=8)
    else:
        top = draw(st.integers(1, 4))
        scale = {"kind": "levels", "levels": top}
        magnitudes = st.integers(0, top)
        if draw(st.booleans()):
            scale["labels"] = [f"g{grade}" for grade in range(top + 1)]
            text = lambda grade: "-" * (grade < 0) + scale["labels"][abs(grade)]
        else:
            text = draw(st.sampled_from((int, str)))
    full = (1 << n) - 1
    # monotone: each subset is at least every subset one player smaller
    table = [0] * (full + 1)
    for mask in range(1, full + 1):
        drawn = top if mask == full else draw(magnitudes)
        below = [table[mask & ~(1 << i)] for i in range(n) if mask >> i & 1]
        table[mask] = max([drawn, *below])
    first = 0 if draw(st.booleans()) else 1
    document = {
        "scale": scale,
        "capacity": {subset_text(m): text(table[m]) for m in range(first, full + 1)},
        "profile": [
            text(draw(magnitudes) * draw(st.sampled_from((1, -1)))) for _ in range(n)
        ],
    }
    if draw(st.booleans()):
        document["players"] = [f"p{i + 1}" for i in range(n)]
    if draw(st.booleans()):
        document["options"] = {"mobius": draw(st.sampled_from(("lower", "upper")))}
    return document


def _locations(node):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _locations(child)


@st.composite
def mutated_documents(draw):
    """A valid document with one key renamed or dropped, or one value replaced."""
    document = draw(documents())
    container, key = draw(st.sampled_from(list(_locations(document))))
    how = draw(st.sampled_from(("value", "key", "drop")))
    if how == "drop":
        del container[key]
    elif how == "key" and isinstance(container, dict):
        container[draw(json_keys)] = container.pop(key)
    else:
        container[key] = draw(json_values)
    return document
