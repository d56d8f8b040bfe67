"""Problem-file parsing: strict validation, exact text values, record shape."""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symsug import (
    CapacityError,
    OffScaleError,
    ParseError,
    Rule,
    ScaleError,
    canonical_ordinal_mobius,
    levels_scale,
    load_problem,
    ordinal_mobius_interval,
    read_problem,
    sugeno,
    sugeno_symmetric,
    sugeno_variant1,
    sugeno_variant2,
    sugeno_variant3,
)
from symsug.capacity import (
    MAX_PLAYERS,
    _subset_keys,
    capacity_problems,
    subset_text,
    subsets,
)
from symsug.integrals import ranked_terms
from symsug.io import (
    Problem,
    ProblemOptions,
    fraction_text,
    record_line,
    set_function_record,
)
from conftest import (
    WORKED_DOCUMENT,
    count_calls,
    documents,
    json_values,
    mutated_documents,
)


def dumps(**overrides):
    document = dict(WORKED_DOCUMENT)
    document.update(overrides)
    return json.dumps(document)


# -- well-formed documents --------------------------------------------------------


def test_documented_instance_round_trips(worked):
    problem = load_problem(json.dumps(WORKED_DOCUMENT))
    v, f = worked
    assert isinstance(problem, Problem)
    assert problem.players == ("cost", "quality", "delivery")
    assert problem.n == 3
    assert problem.capacity == v
    assert problem.profile == f
    assert problem.options.mobius is None
    assert problem.options.outputs is None


def test_levels_documents_accept_integer_grades():
    document = {
        "scale": {"kind": "levels", "levels": 2},
        "capacity": {"{1}": 0, "{2}": 1, "{1,2}": 2},
        "profile": [-2, 1],
    }
    problem = load_problem(json.dumps(document))
    assert problem.scale.levels == 2
    assert [x.signed for x in problem.profile.scores] == [-2, 1]
    # the empty set may be omitted; it is pinned at 0
    assert problem.capacity(0) == problem.scale.zero


def test_options_parse_and_validate():
    text = dumps(options={"mobius": "lower", "outputs": ["v1", "sugeno_sym"]})
    options = load_problem(text).options
    assert options.mobius == "lower"
    assert options.outputs == ("v1", "sugeno_sym")
    # each defined output fixes its own fold rule; there is no rule option
    with pytest.raises(ParseError, match="unknown options: rule"):
        load_problem(dumps(options={"rule": "floor", "mobius": "lower"}))


def test_labelled_levels_scale():
    document = {
        "scale": {"kind": "levels", "levels": 2, "labels": ["bad", "ok", "good"]},
        "capacity": {"{1}": "ok", "{2}": "ok", "{1,2}": "good"},
        "profile": ["-ok", "good"],
    }
    problem = load_problem(json.dumps(document))
    assert str(problem.profile.scores[1]) == "good"
    assert problem.profile.scores[0].signed == -1


# -- malformed documents exit with a parse error ------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        dumps(extra=1),
        json.dumps({"scale": {"kind": "unit"}, "profile": ["0"]}),
        dumps(profile=[]),
    ],
)
def test_structural_problems_are_parse_errors(text):
    with pytest.raises(ParseError):
        load_problem(text)


def test_binary_floats_are_rejected_with_a_hint():
    with pytest.raises(ParseError, match="write the value as a string"):
        load_problem(dumps(profile=[0.3, "0.3", "1"]))
    with pytest.raises(ParseError, match="booleans"):
        load_problem(dumps(profile=[True, "0.3", "1"]))
    with pytest.raises(ParseError, match="expected a string or integer"):
        load_problem(dumps(profile=[["0.3"], "0.3", "1"]))


def test_capacity_table_must_cover_every_nonempty_subset():
    table = {k: w for k, w in WORKED_DOCUMENT["capacity"].items() if k != "{1,3}"}
    with pytest.raises(ParseError, match=r"missing \{1,3\}"):
        load_problem(dumps(capacity=table))


def test_player_count_is_bounded_before_the_capacity_is_read():
    def peak_bytes(n, capacity):
        text = json.dumps(
            {"scale": {"kind": "unit"}, "capacity": capacity, "profile": ["0"] * n}
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as caught:
                load_problem(text)
            return caught.value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # listing all 2**20 missing subsets to report four peaked at about 42 MB
    error, peak = peak_bytes(20, {})
    assert str(error) == "capacity is missing {1}, {2}, {1,2}, {3}, ..."
    assert peak < 1_000_000
    error, peak = peak_bytes(MAX_PLAYERS + 1, {"{1}": "0"})
    assert not isinstance(error, ParseError)
    assert str(error) == f"player count must be in 1..{MAX_PLAYERS}"
    assert peak < 1_000_000

    table = {k: w for k, w in WORKED_DOCUMENT["capacity"].items() if k != "{1,2,3}"}
    with pytest.raises(ParseError) as caught:
        load_problem(dumps(capacity=table))
    assert str(caught.value) == "capacity is missing {1,2,3}"


def test_capacity_table_rejects_duplicates_and_garbage_keys():
    table = dict(WORKED_DOCUMENT["capacity"])
    table["{3,1}"] = "0.3"  # same subset as {1,3}
    with pytest.raises(ParseError, match="repeats"):
        load_problem(dumps(capacity=table))
    table = dict(WORKED_DOCUMENT["capacity"])
    table["{1,4}"] = "0"
    with pytest.raises(ParseError, match="capacity key"):
        load_problem(dumps(capacity=table))


def test_capacity_keys_are_written_in_ascii_digits():
    # ١ is ARABIC-INDIC DIGIT ONE, which int() reads as 1
    document = {
        "scale": {"kind": "levels", "levels": 2},
        "capacity": {"{١}": 2},
        "profile": [1],
    }
    with pytest.raises(ParseError, match=r"capacity key '\{١\}': bad subset member"):
        load_problem(json.dumps(document))


def test_repeated_json_keys_are_parse_errors():
    # json.loads alone keeps the last value of a repeated key
    text = dumps().replace('"{1}": "0.3"', '"{1}": "0.9", "{1}": "0.3"')
    with pytest.raises(ParseError, match=r"repeated key '\{1\}'"):
        load_problem(text)
    text = '{"scale": {"kind": "levels", "levels": 3}, ' + dumps()[1:]
    with pytest.raises(ParseError, match="repeated key 'scale'"):
        load_problem(text)


def test_a_repeated_key_at_the_end_of_a_large_capacity_is_found_quickly():
    # naming the repeated key once took time quadratic in the key count
    n = 15
    entries = [f'"{subset_text(mask)}": "0"' for mask in range(1 << n)]
    entries.append(f'"{subset_text((1 << n) - 1)}": "1"')
    text = (
        '{"scale": {"kind": "unit"}, "profile": ' + json.dumps(["0"] * n)
        + ', "capacity": {' + ", ".join(entries) + "}}"
    )
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        load_problem(text)
    assert time.perf_counter() - start < 2
    assert str(caught.value) == f"repeated key {subset_text((1 << n) - 1)!r}"


def test_the_first_key_repeated_in_document_order_is_named():
    text = dumps().replace(
        '"{1}": "0.3"', '"{1}": "0.3", "{2}": "0.25", "{1}": "0.3"'
    )
    with pytest.raises(ParseError, match=r"repeated key '\{1\}'"):
        load_problem(text)


def test_capacity_values_parsed_from_one_text_are_one_value():
    problem = load_problem(dumps())
    table = problem.capacity.table
    assert table[0b001] is table[0b101]  # both "0.3"
    # a bad text is reported at its first key every time it is read
    capacity = dict(WORKED_DOCUMENT["capacity"], **{"{2}": "x", "{3}": "x"})
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            load_problem(dumps(capacity=capacity))
        assert str(caught.value) == "capacity['{2}']: bad unit-scale value: 'x'"


def test_the_profile_and_the_capacity_share_parsed_values():
    problem = load_problem(dumps())
    assert problem.profile.scores[1] is problem.capacity.table[0b001]  # "0.3"
    assert problem.profile.scores[2] is problem.capacity.table[0b111]  # "1"
    grades = {"scale": {"kind": "levels", "levels": 2}, "profile": [2, 1]}
    problem = load_problem(
        json.dumps(dict(grades, capacity={"{1}": 1, "{2}": 1, "{1,2}": 2}))
    )
    assert problem.profile.scores[1] is problem.capacity.table[0b01]


@pytest.mark.parametrize(
    "profile,capacity,message",
    [
        ([1, True], {"{1}": 1, "{2}": 1, "{1,2}": 2}, r"profile\[1\]: booleans"),
        ([1, 2], {"{1}": 1, "{2}": True, "{1,2}": 2}, r"capacity\['\{2\}'\]: booleans"),
        ([1, 2], {"{1}": 1, "{2}": 1.0, "{1,2}": 2}, r"capacity\['\{2\}'\]: binary"),
        ([2, 1], {"{1}": 0, "{2}": False, "{1,2}": 2}, r"capacity\['\{2\}'\]: booleans"),
    ],
)
def test_a_value_equal_to_a_parsed_int_keeps_its_own_error(profile, capacity, message):
    # True == 1, False == 0 and 1.0 == 1 hash alike: a memo keyed by value
    # alone would hand each the value parsed from the int before it
    document = {"scale": {"kind": "levels", "levels": 2}, "profile": profile}
    with pytest.raises(ParseError, match=message):
        load_problem(json.dumps(dict(document, capacity=capacity)))


def test_player_list_validation():
    with pytest.raises(ParseError, match="3 scores"):
        load_problem(dumps(players=["a", "b"]))
    with pytest.raises(ParseError, match="distinct"):
        load_problem(dumps(players=["a", "a", "b"]))
    with pytest.raises(ParseError, match="list of names"):
        load_problem(dumps(players="a,b,c"))


def test_a_capacity_that_is_not_an_object_is_a_parse_error():
    # a table in mask order is the library's form, not the document's
    for capacity in (["0", "0.3", "0.25", "0.4", "0.2", "0.3", "0.6", "1"], "1"):
        with pytest.raises(ParseError, match="'capacity' must map subset strings"):
            load_problem(dumps(capacity=capacity))


def test_scale_descriptor_validation():
    with pytest.raises(ParseError, match="'unit' or 'levels'"):
        load_problem(dumps(scale={"kind": "interval"}))
    with pytest.raises(ParseError, match="only has 'kind'"):
        load_problem(dumps(scale={"kind": "unit", "levels": 3}))
    with pytest.raises(ParseError, match="integer grade count"):
        load_problem(dumps(scale={"kind": "levels", "levels": "3"}))
    with pytest.raises(ParseError):
        load_problem(dumps(scale={"kind": "levels", "levels": 2, "labels": ["a"]}))
    with pytest.raises(ParseError, match="optionally 'labels'"):
        load_problem(dumps(scale={"kind": "levels", "levels": 2, "grades": 3}))
    with pytest.raises(ParseError, match="list of strings"):
        load_problem(dumps(scale={"kind": "levels", "levels": 1, "labels": ["lo", 1]}))


def test_option_validation():
    for options in (
        {"rule": "round"},
        {"mobius": "middle"},
        {"outputs": []},
        {"outputs": ["v1", "v1"]},
        {"outputs": ["v9"]},
        {"seed": 1},
        [],
    ):
        with pytest.raises(ParseError):
            load_problem(dumps(options=options))


# -- documents that parse but describe an invalid instance --------------------------


def test_off_scale_values_keep_their_own_error():
    document = {
        "scale": {"kind": "levels", "levels": 2},
        "capacity": {"{1}": 0, "{2}": 1, "{1,2}": 2},
        "profile": [3, 1],
    }
    with pytest.raises(OffScaleError):
        load_problem(json.dumps(document))
    with pytest.raises(OffScaleError):
        load_problem(dumps(profile=["-1", "0.3", "1.5"]))


def test_invalid_capacities_keep_their_own_error():
    table = dict(WORKED_DOCUMENT["capacity"])
    table["{1,2}"] = "0.1"  # below v({1}) = 0.3
    with pytest.raises(CapacityError):
        load_problem(dumps(capacity=table))
    table = dict(WORKED_DOCUMENT["capacity"])
    table["{1,2,3}"] = "0.9"
    with pytest.raises(CapacityError):
        load_problem(dumps(capacity=table))


# -- files ---------------------------------------------------------------------


def test_read_problem_from_disk(worked_file, worked):
    problem = read_problem(str(worked_file))
    assert problem.capacity == worked[0]


def test_unreadable_paths_are_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        read_problem(str(tmp_path / "absent.json"))


# -- record rendering ------------------------------------------------------------


def test_fraction_text_prefers_terminating_decimals():
    assert fraction_text(Fraction(1, 4)) == "0.25"
    assert fraction_text(Fraction(3, 10)) == "0.3"
    assert fraction_text(Fraction(-1, 2)) == "-0.5"
    assert fraction_text(Fraction(0)) == "0"
    assert fraction_text(Fraction(2)) == "2"
    assert fraction_text(Fraction(1, 3)) == "1/3"
    assert fraction_text(Fraction(-5, 6)) == "-5/6"


def test_set_function_record_is_mask_ordered(worked):
    record = set_function_record(worked[0])
    assert list(record) == [
        "{}",
        "{1}",
        "{2}",
        "{1,2}",
        "{3}",
        "{1,3}",
        "{2,3}",
        "{1,2,3}",
    ]
    assert record["{2,3}"] == "0.6"


@pytest.mark.parametrize("n", range(1, 13))
def test_subset_keys_match_the_subset_text_of_each_mask(n):
    assert _subset_keys(n) == tuple(map(subset_text, subsets(n)))


# -- keys read by position ----------------------------------------------------------


def _respelled(key):
    """Another spelling of a subset key: its members in reverse, or, with
    fewer than two members, a leading space."""
    members = key[1:-1].split(",")
    if len(members) > 1:
        return "{" + ",".join(reversed(members)) + "}"
    return " " + key


@st.composite
def rekeyed_documents(draw):
    """A generated document, whose keys are in mask order, and the same
    document with its capacity keys shuffled and some of them respelled.
    Maybe one capacity value, the same in both and under the same key,
    is replaced by any JSON value."""
    document = draw(documents())
    capacity = document["capacity"]
    spoiled = draw(st.none() | st.sampled_from(sorted(capacity)))
    if spoiled is not None:
        capacity[spoiled] = draw(json_values)
    order = draw(st.permutations(list(capacity)))
    spelling = {
        key: _respelled(key) if key != spoiled and draw(st.booleans()) else key
        for key in order
    }
    rekeyed = {spelling[key]: capacity[key] for key in order}
    return document, dict(document, capacity=rekeyed)


def _outcome(document):
    """What ``load_problem`` makes of a document: the problem's tables and
    ranked pair with the text of every ranked value, or the error raised."""
    try:
        problem = load_problem(json.dumps(document))
    except LOAD_ERRORS as exc:
        return type(exc), str(exc)
    v, f = problem.ranked()
    texts = [str(x) for x in (*v.table, *f.scores)]
    return problem.capacity.table, problem.profile.scores, (v, f), texts


@settings(max_examples=300, deadline=None)
@given(rekeyed_documents())
def test_keys_read_by_position_and_by_parsing_agree(pair):
    in_mask_order, rekeyed = pair
    assert _outcome(rekeyed) == _outcome(in_mask_order)


def test_only_keys_in_mask_order_are_read_by_position(monkeypatch):
    import symsug.capacity

    calls = count_calls(monkeypatch, symsug.capacity, "parse_subset_text")
    by_size = WORKED_DOCUMENT["capacity"]  # {3} comes before {1,2}
    expected = load_problem(dumps()).capacity
    assert len(calls) == len(by_size)
    in_mask_order = {key: by_size[key] for key in _subset_keys(3)}
    without_empty = dict(list(in_mask_order.items())[1:])
    for capacity in (in_mask_order, without_empty):
        calls.clear()
        assert load_problem(dumps(capacity=capacity)).capacity == expected
        assert calls == []


def test_a_problem_built_by_hand_is_ranked_like_a_loaded_one(worked):
    loaded = load_problem(dumps())
    v, f = worked
    built = Problem(loaded.scale, None, v, f, ProblemOptions())
    assert built.ranked() == loaded.ranked()
    assert [str(x) for x in built.ranked()[0].table] == [
        str(x) for x in loaded.ranked()[0].table
    ]


def test_a_replaced_capacity_is_ranked_afresh():
    loaded = load_problem(dumps())
    capacity = dict.fromkeys(_subset_keys(3)[1:], "0.5")
    capacity["{1,2,3}"] = "1"
    other = load_problem(dumps(capacity=capacity))
    replaced = Problem(
        loaded.scale, loaded.players, other.capacity, loaded.profile, loaded.options
    )
    assert replaced.ranked() == other.ranked()
    assert replaced.ranked() != loaded.ranked()


def test_record_line_is_deterministic_json():
    record = {"b": "1", "a": {"x": "2"}}
    line = record_line(record)
    assert line == '{"b": "1", "a": {"x": "2"}}'
    assert record_line(record) == line
    assert json.loads(line) == record


# -- fuzzed input -----------------------------------------------------------------

# everything load_problem may raise; the command line maps each to exit 1 or 2
LOAD_ERRORS = (ParseError, ScaleError, CapacityError, ValueError)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_generated_documents_load(document):
    problem = load_problem(json.dumps(document))
    assert problem.n == len(document["profile"])


@settings(max_examples=200, deadline=None)
@given(json_values | mutated_documents())
def test_any_json_raises_only_the_documented_errors(document):
    try:
        load_problem(json.dumps(document))
    except LOAD_ERRORS:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=2, max_size=6, unique=True))
@example(["0", "\r"])  # parse strips whitespace, so such labels are refused
def test_every_signed_label_round_trips(labels):
    try:
        scale = levels_scale(len(labels) - 1, labels)
    except ScaleError:
        return  # a label set the scale refuses is never printed
    for grade in range(-scale.levels, scale.levels + 1):
        value = scale.value(grade)
        assert scale.parse(scale.format(value)) == value


# -- the ranked scale of compute and mobius ------------------------------------------


@st.composite
def irregular_unit_documents(draw):
    """A unit-scale document with one to five players whose values come from
    2 to 40 irregularly spaced magnitudes, 0 and 1 included, and whose
    signed profile has ties and opposite pairs on purpose."""
    n = draw(st.integers(1, 5))
    inner = draw(
        st.lists(
            st.fractions(0, 1, max_denominator=997).filter(lambda q: 0 < q < 1),
            max_size=38,
            unique=True,
        )
    )
    pool = sorted({Fraction(0), Fraction(1), *inner})
    full = (1 << n) - 1
    table = [Fraction(0)] * (full + 1)
    for mask in range(1, full + 1):
        drawn = Fraction(1) if mask == full else draw(st.sampled_from(pool))
        below = [table[mask & ~(1 << i)] for i in range(n) if mask >> i & 1]
        table[mask] = max([drawn, *below])
    scores = []
    for _ in range(n):
        how = draw(st.sampled_from(("fresh", "tie", "opposite")))
        if how == "fresh" or not scores:
            scores.append(draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -1))))
        else:
            earlier = draw(st.sampled_from(scores))
            scores.append(earlier if how == "tie" else -earlier)
    return {
        "scale": {"kind": "unit"},
        "capacity": {subset_text(m): str(table[m]) for m in range(full + 1)},
        "profile": [str(x) for x in scores],
    }


def _sugeno_side(v, f):
    """The text of every Sugeno-side value compute and mobius print."""
    interval = ordinal_mobius_interval(v)
    order, p, terms = ranked_terms(v, f)
    texts = {
        "sugeno_sym": str(sugeno_symmetric(v, f)),
        "v1_lower": str(sugeno_variant1(interval.lower, f)),
        "v1_upper": str(sugeno_variant1(interval.upper, f)),
        "v2": str(sugeno_variant2(v, f)),
        "v3": str(sugeno_variant3(v, f)),
        "order": (order, p),
        "terms": [str(t) for t in terms],
        "lower": set_function_record(interval.lower),
        "upper": set_function_record(interval.upper),
        "floor": set_function_record(canonical_ordinal_mobius(v, Rule.FLOOR)),
        "angle": set_function_record(canonical_ordinal_mobius(v, Rule.ANGLE)),
    }
    if f.is_nonnegative:
        texts["sugeno"] = str(sugeno(v, f))
    return texts


@settings(max_examples=200, deadline=None)
@given(irregular_unit_documents())
def test_the_ranked_scale_prints_what_the_unit_scale_computes(document):
    problem = load_problem(json.dumps(document))
    v, f = problem.ranked()
    assert v.scale.kind == "levels" and f.scale is v.scale
    # every grade is the ranked scale's interned object
    assert all(x is v.scale.value(x.signed) for x in (*v.table, *f.scores))
    # the ranked capacity is built unchecked, so check it here
    assert capacity_problems(v.n, v.scale, v.table) == []
    assert [str(x) for x in v.table] == [str(x) for x in problem.capacity.table]
    assert [str(x) for x in f.scores] == [str(x) for x in problem.profile.scores]
    assert _sugeno_side(v, f) == _sugeno_side(problem.capacity, problem.profile)


def test_levels_problems_are_not_ranked_again():
    for scale in (
        {"kind": "levels", "levels": 2},
        {"kind": "levels", "levels": 2, "labels": ["bad", "ok", "good"]},
    ):
        document = {
            "scale": scale,
            "capacity": {"{1}": 1, "{2}": 1, "{1,2}": 2},
            "profile": [-1, 2],
        }
        problem = load_problem(json.dumps(document))
        v, f = problem.ranked()
        assert v is problem.capacity and f is problem.profile
