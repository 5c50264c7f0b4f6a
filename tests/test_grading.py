import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinker.backend import _filler, wrong_answer
from thinker.grading import (
    ExtractedAnswer,
    Verdict,
    answers_equal,
    extract_boxed,
    extract_verdict,
    normalize,
    parse_numeric,
)


# answers built from the pieces the spelling rules rewrite
LATEX = st.lists(st.sampled_from([
    "\\frac", "\\dfrac", "\\tfrac", "\\text", "{", "}", "1", "2", "000", "-", ",", ", ",
    "(", ")", "[", "]", " ", "$", ".", "\\left(", "\\right)", "x",
]), max_size=14).map("".join)


_SMALL = st.integers(-6, 6)
# spellings of a few small values, so that equal answers are drawn often
SPELLINGS = st.one_of(
    _SMALL.map(str),
    st.tuples(_SMALL, st.integers(0, 9)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.tuples(_SMALL, _SMALL).map(lambda t: f"{t[0]}/{t[1]}"),  # zero denominators too
    st.tuples(_SMALL, _SMALL).map(lambda t: f"\\frac{{{t[0]}}}{{{t[1]}}}"),
    st.tuples(_SMALL, _SMALL).map(lambda t: f" ${t[0]} /  {t[1]}$. "),
    st.sampled_from(["x", "X", "\\text{x}", " x. ", "(1, 2)", "(1,2)", "1,000", "Yes", "\\sqrt{2}"]),
    st.text(alphabet="0123456789/.-xX ", max_size=6),
)


# numeric spellings of one small value each, signed and not in lowest terms
# included, beside answers that are not numbers
_RATIO = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
NUMERIC_OR_NOT = st.one_of(
    st.integers(-12, 12).map(str),
    st.tuples(st.integers(-3, 3), st.sampled_from(["0", "25", "5", "50", "125", "333"]))
    .map(lambda t: f"{t[0]}.{t[1]}"),
    _RATIO.map(lambda t: f"{t[0]}/{t[1]}"),
    _RATIO.map(lambda t: f"{t[0]} / {t[1]}"),
    st.tuples(st.sampled_from(["", "-", "+"]), st.sampled_from(["\\frac", "\\dfrac", "\\tfrac"]),
              st.integers(-12, 12), st.integers(-12, 12))
    .map(lambda t: f"{t[0]}{t[1]}{{{t[2]}}}{{{t[3]}}}"),
    st.tuples(st.sampled_from(["", "-"]), st.integers(0, 9), st.integers(0, 9))
    .map(lambda t: f"{t[0]}\\frac{t[1]}{t[2]}"),
    st.sampled_from(["x", "1,000", "(1, 2)", "\\sqrt{2}", "Yes", "1/x", "0.5.5", ""]),
    st.none(),
)


def _extract_boxed_finditer(text):
    """extract_boxed as it was before it scanned from the end: list every
    box start with re.finditer, then try them last first."""
    if not text:
        return None
    starts = [m.start() for m in re.finditer(re.escape("\\boxed"), text)]
    for start in reversed(starts):
        i = start + len("\\boxed")
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text) or text[i] != "{":
            continue
        depth = 1
        i += 1
        content_start = i
        while i < len(text):
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return ExtractedAnswer.from_raw(text[content_start:i])
            i += 1
    return None


class _CountingStr(str):
    """A str that counts the indexing reads made on it (one per character
    extract_boxed looks at, one per slice)."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return str.__getitem__(self, key)


class TestExtractBoxed:
    @given(st.lists(st.sampled_from(["\\boxed", "\\boxed ", "{", "}", "7", "x", " ", "\\box", "ed"]),
                    max_size=30).map("".join))
    @settings(max_examples=1000)
    def test_matches_finditer_reference(self, text):
        assert extract_boxed(text) == _extract_boxed_finditer(text)

    @given(st.lists(st.sampled_from(["\\boxed{", "\\boxed {", "\\boxed", "{", "}", "7", " "]),
                    max_size=60).map("".join))
    @settings(max_examples=1000)
    def test_unclosed_boxes_match_reference(self, text):
        # _extract_boxed_finditer scans each unclosed box to the end of the text
        assert extract_boxed(text) == _extract_boxed_finditer(text)

    @pytest.mark.parametrize("prefix, expected", [("", None), ("\\boxed{5} ", "5")])
    def test_unclosed_boxes_are_read_in_linear_work(self, prefix, expected):
        text = _CountingStr(prefix + "\\boxed{" * 300)
        got = extract_boxed(text)
        assert (got.raw if got else None) == expected
        # scanning every unclosed box to the end would read about 300 x 2,100 / 2 characters
        assert text.reads <= 2 * len(text)

    def test_plain_box(self):
        got = extract_boxed("The perimeter of the pool is \\boxed{18 - 4\\sqrt{3}} meters.")
        assert got is not None
        assert got.raw == "18 - 4\\sqrt{3}"

    def test_nested_braces_preserved(self):
        assert extract_boxed("\\boxed{\\frac{1}{2}}").raw == "\\frac{1}{2}"

    def test_absent(self):
        assert extract_boxed("no box here") is None
        assert extract_boxed("") is None

    def test_last_box_wins(self):
        text = "First guess \\boxed{3}, but actually \\boxed{5}."
        assert extract_boxed(text).raw == "5"

    def test_unbalanced_final_falls_back(self):
        assert extract_boxed("\\boxed{3} and then \\boxed{oops").raw == "3"

    def test_whitespace_before_brace(self):
        assert extract_boxed("\\boxed {42}").raw == "42"

    def test_boxed_without_brace_ignored(self):
        assert extract_boxed("\\boxed 42") is None

    def test_box_inside_dollars(self):
        assert extract_boxed("therefore $\\boxed{No}$").raw == "No"

    def test_deeply_nested(self):
        assert extract_boxed("\\boxed{a{b{c}}d}").raw == "a{b{c}}d"

    @given(st.text(alphabet="\\boxed{}$ ", max_size=80))
    @settings(max_examples=300)
    def test_total_on_brace_soup(self, text):
        result = extract_boxed(text)
        if result is not None:
            assert isinstance(result.raw, str)

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_total_on_arbitrary_text(self, text):
        extract_boxed(text)


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        (" $18-4\\sqrt{3}$ ", "18-4\\sqrt{3}"),
        ("\\left(3, 4\\right)", "(3,4)"),
        ("0.50.", "0.50"),
        ("  spaced   out  ", "spaced out"),
        ("\\,x\\;y\\!", "xy"),
        ("a b", "a b"),
        ("x \\rightarrow y", "x \\rightarrow y"),
        ("$$double$$", "double"),
        ("answer..", "answer"),
        ("", ""),
        ("$", "$"),
        ("\\tfrac{1}{3}", "\\frac{1}{3}"),
        ("\\dfrac{\\pi}{2}", "\\frac{\\pi}{2}"),
        ("\\dfracx", "\\dfracx"),  # not the \dfrac macro
        ("\\text{ cm}", "cm"),
        ("5\\text{ cm}", "5 cm"),
        ("\\textbf{5}", "\\textbf{5}"),
        ("12,345,678.5", "12345678.5"),
        ("-1,000", "-1000"),
        ("1,0000", "1,0000"),
        ("10,00", "10,00"),
        ("1, 000", "1, 000"),
        ("[0, \\infty)", "[0,\\infty)"),
        ("\\left( 1 , 2 \\right]", "( 1 ,2 ]"),
        ("1, 2", "1, 2"),  # a bare list is not a tuple
    ])
    def test_pipeline(self, raw, expected):
        assert normalize(raw) == expected

    @given(st.one_of(st.text(max_size=60), LATEX))
    @settings(max_examples=300)
    def test_idempotent(self, s):
        once = normalize(s)
        assert normalize(once) == once

    def test_from_raw_canonical_is_idempotent(self):
        ans = ExtractedAnswer.from_raw(" $0.5.$ ")
        assert normalize(ans.canonical) == ans.canonical


class TestParseNumeric:
    @pytest.mark.parametrize("text,expected", [
        ("1/2", Fraction(1, 2)),
        ("0.5", Fraction(1, 2)),
        ("-3", Fraction(-3)),
        ("+7", Fraction(7)),
        ("-2/4", Fraction(-1, 2)),
        ("10", Fraction(10)),
        (".25", Fraction(1, 4)),
        ("1 / 2", Fraction(1, 2)),
        ("\\frac{1}{2}", Fraction(1, 2)),
        ("\\frac 12", Fraction(1, 2)),
        ("\\frac1{12}", Fraction(1, 12)),
        ("\\frac{-3}{4}", Fraction(-3, 4)),
        ("-\\frac{3}{-4}", Fraction(3, 4)),
        ("+\\frac{10}{4}", Fraction(5, 2)),
    ])
    def test_numeric(self, text, expected):
        assert parse_numeric(text) == expected

    @pytest.mark.parametrize("text", [
        "1/0", "x", "2+3", "1.2.3", "", "sqrt(2)", "1e3",
        "\\frac{1}{0}", "\\frac123", "\\frac{1.5}{2}", "\\frac{x}{2}", "\\frac{1}{2}3", "\\frac{1}",
        # more digits than int() converts (4300 by default)
        pytest.param("7" * 5000, id="5000-digit-integer"),
        pytest.param("-" + "7" * 5000, id="5000-digit-negative"),
        pytest.param("1/" + "2" * 5000, id="5000-digit-ratio"),
        pytest.param("0." + "5" * 5000, id="5000-digit-decimal"),
    ])
    def test_non_numeric(self, text):
        assert parse_numeric(text) is None

    def test_too_many_digits_compares_as_string(self):
        long = "1" * 5000
        assert extract_boxed("\\boxed{" + long + "}").canonical == long
        assert not answers_equal(long, "2")
        assert answers_equal(long, long)


class TestAnswersEqual:
    def test_rational_vs_decimal(self):
        assert answers_equal("1/2", "0.5")

    def test_surd_forms_not_equal(self):
        assert not answers_equal("6\\sqrt{3}-12", "18 - 4\\sqrt{3}")

    def test_identity(self):
        assert answers_equal("x", "x")

    def test_case_sensitive_strings(self):
        assert not answers_equal("X", "x")

    def test_none_never_equal(self):
        assert not answers_equal(None, "x")
        assert not answers_equal("x", None)
        assert not answers_equal(None, None)

    def test_dollar_wrapped_number(self):
        assert answers_equal("$1/2$", "0.5")

    def test_extracted_answer_objects(self):
        a = ExtractedAnswer.from_raw("2/4")
        assert answers_equal(a, "0.5")

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_reflexive(self, s):
        assert answers_equal(s, s)

    @given(st.one_of(st.text(max_size=40), LATEX), st.one_of(st.text(max_size=40), LATEX))
    @settings(max_examples=200)
    def test_symmetric(self, a, b):
        assert answers_equal(a, b) == answers_equal(b, a)

    @given(st.data())
    @settings(max_examples=500)
    def test_follows_documented_rule(self, data):
        a = data.draw(SPELLINGS)
        # another spelling, or a near variant of a, so that close pairs come up often
        b = data.draw(SPELLINGS | st.sampled_from([a.upper(), f" ${a}$. ", a + "0", "-" + a]))
        canonical_a, canonical_b = normalize(a), normalize(b)
        value_a, value_b = parse_numeric(canonical_a), parse_numeric(canonical_b)
        if value_a is not None and value_b is not None:
            expected = value_a == value_b
        else:
            expected = canonical_a == canonical_b
        assert answers_equal(a, b) == answers_equal(b, a) == expected
        assert answers_equal(a, a) and answers_equal(b, b)

    @given(NUMERIC_OR_NOT, NUMERIC_OR_NOT)
    @settings(max_examples=1000)
    @example("2/4", "0.5")
    @example("-2/4", "1/-2")
    @example("\\dfrac{6}{-8}", "-0.75")
    @example("-\\frac12", "2/-4")
    @example("0/5", "-0/3")
    @example("1/0", "1/0")
    @example(None, "0.5")
    def test_numeric_pairs_agree_with_fraction_equality(self, a, b):
        # answers_equal compares Fractions by their integer ratios; it must
        # agree with Fraction.__eq__ wherever both sides parse
        left = None if a is None else ExtractedAnswer.from_raw(a)
        right = None if b is None else ExtractedAnswer.from_raw(b)
        if left is None or right is None:
            expected = False
        elif left.numeric is not None and right.numeric is not None:
            expected = Fraction.__eq__(left.numeric, right.numeric)
        else:
            expected = left.canonical == right.canonical
        assert answers_equal(a, b) == answers_equal(b, a) == expected

    @given(st.integers(-100, 100), st.integers(1, 40), st.integers(-100, 100), st.integers(1, 40))
    @settings(max_examples=200)
    def test_numeric_agrees_with_string_path(self, n1, d1, n2, d2):
        # identical canonical strings must also be numerically equal
        a, b = f"{n1}/{d1}", f"{n2}/{d2}"
        if normalize(a) == normalize(b):
            assert answers_equal(a, b)


class TestNamedRules:
    """The spelling rules of the MATH (is_equiv) and Minerva answer
    normalizers that grading adopts, and the pairs they must leave apart."""

    @pytest.mark.parametrize("a,b", [
        ("\\dfrac{1}{2}", "\\frac{1}{2}"),
        ("\\frac{1}{2}", "1/2"),
        ("\\frac12", "\\frac{1}{2}"),
        ("-\\frac{3}{4}", "-3/4"),
        ("1,000", "1000"),
        ("\\text{5}", "5"),
        ("(1, 2)", "(1,2)"),
    ])
    def test_spellings_of_one_answer_grade_equal(self, a, b):
        assert answers_equal(a, b) and answers_equal(b, a)

    @pytest.mark.parametrize("a,b", [
        ("6\\sqrt{3}-12", "18 - 4\\sqrt{3}"),
        ("(1, 2)", "(2, 1)"),
        ("1,2", "12"),
    ])
    def test_different_answers_stay_unequal(self, a, b):
        assert not answers_equal(a, b) and not answers_equal(b, a)


class TestParseMemo:
    """from_raw and wrong_answer are memoized (and the scripted filler, tested
    with the backends); the memo must change nothing."""

    answers = st.one_of(
        st.text(max_size=40),
        st.integers(-10**6, 10**6).map(str),
        st.tuples(st.integers(-99, 99), st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.sampled_from(["Yes", "No", " $0.5.$ ", "\\left(3, 4\\right)", "7" * 5000]),
    )

    @given(answers)
    @settings(max_examples=300)
    def test_cached_equals_uncached(self, s):
        uncached = ExtractedAnswer.from_raw.__func__.__wrapped__(ExtractedAnswer, s)
        for _ in range(2):  # a miss, then a hit
            cached = ExtractedAnswer.from_raw(s)
            assert dataclasses.astuple(cached) == dataclasses.astuple(uncached)
            assert type(cached.numeric) is type(uncached.numeric)
            assert wrong_answer(s) == wrong_answer.__wrapped__(s)

    def test_caches_are_bounded(self):
        for memo in (ExtractedAnswer.from_raw, wrong_answer, _filler):
            maxsize = memo.cache_info().maxsize
            assert isinstance(maxsize, int) and maxsize > 0


class TestExtractVerdict:
    def test_dollar_no(self):
        assert extract_verdict("Thus our initial approach is wrong. $\\boxed{No}$") is Verdict.NO

    def test_case_insensitive_yes(self):
        assert extract_verdict("\\boxed{YES}") is Verdict.YES

    def test_unboxed_is_malformed(self):
        assert extract_verdict("I think yes.") is Verdict.MALFORMED

    def test_other_content_malformed(self):
        assert extract_verdict("\\boxed{maybe}") is Verdict.MALFORMED

    def test_last_box_decides(self):
        assert extract_verdict("\\boxed{Yes} ... wait \\boxed{No}") is Verdict.NO

    def test_trailing_period_inside_box(self):
        assert extract_verdict("\\boxed{Yes.}") is Verdict.YES

    def test_text_wrapped(self):
        assert extract_verdict("\\boxed{\\text{Yes}}") is Verdict.YES
        assert extract_verdict("$\\boxed{\\text{No}}$") is Verdict.NO


def test_brace_soup_fuzz_never_raises():
    # random-byte soup heavy on braces and backslashes, seeded for reproducibility
    rng = random.Random(20240901)
    alphabet = "\\boxed{}{}}}{{$ \n\tYesNo123"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        extract_boxed(text)
        extract_verdict(text)
        normalize(text)
