"""Answer extraction and correctness checking.

Responses carry their final answer inside the last balanced ``\\boxed{...}``
of the text. Grading normalizes the boxed content to a canonical string,
parses an exact rational value when the content is numeric, and compares
answers by exact rational equality when possible, falling back to canonical
string equality. The spelling rules are a named subset of the MATH
``is_equiv`` and Minerva answer normalizers (Hendrycks et al. 2021,
Lewkowycz et al. 2022); no computer-algebra equivalence is attempted, and
`answers_equal` is the single extension point for stricter or looser checkers.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

# Entries kept by each parse memo; see ExtractedAnswer.from_raw for the sizing.
PARSE_CACHE_SIZE = 1024


class Verdict(Enum):
    """Outcome of a verification response: a boxed Yes/No, or neither."""

    YES = "yes"
    NO = "no"
    MALFORMED = "malformed"


YES, NO, MALFORMED = Verdict  # bound once; see task.py
_VERDICT_OF = {"yes": YES, "no": NO}


@dataclass(frozen=True)
class ExtractedAnswer:
    """A boxed answer: the raw capture, its canonical form, and an exact
    rational value when the canonical form is a plain number or a/b fraction."""

    raw: str
    canonical: str
    numeric: Fraction | None

    @classmethod
    @functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
    def from_raw(cls, raw: str) -> "ExtractedAnswer":
        """Parse a raw capture, memoized.

        The instance is frozen and its Fraction immutable, so one is shared
        by every caller and thread. run_batch and evaluate visit episodes
        item by item and monte_carlo cycles through its dataset (128 items
        by default), so the live set is a few strings per item (the truth,
        its wrong variant, Yes and No) and PARSE_CACHE_SIZE (1024) entries
        hold a whole batch or simulation cycle. An entry keeps the raw
        string, its canonical form (never longer) and one Fraction: about
        0.35 kB for a short answer, under 0.5 MB for a full memo, and at
        worst 1024 x (2 x L + 0.35 kB) when every cached answer is L bytes.
        """
        canonical = normalize(raw)
        return cls(raw=raw, canonical=canonical, numeric=parse_numeric(canonical))


_BOXED = "\\boxed"

# Delete \left / \right only when they are full macro tokens, so \rightarrow
# and friends survive.
_LEFT_RIGHT = re.compile(r"\\(?:left|right)(?![a-zA-Z])")
_THIN_SPACE = re.compile(r"\\[,;!]")
_WS_RUN = re.compile(r"\s+")
_STYLED_FRAC = re.compile(r"\\[dt]frac(?![a-zA-Z])")  # \dfrac and \tfrac are \frac
_TEXT = re.compile(r"\\text\s*\{([^{}]*)\}")  # \text{...} without nested braces
_THOUSANDS = re.compile(r"[+-]?\d{1,3}(?:,\d{3})+(?:\.\d+)?")  # a whole number, grouped
_COMMA_SPACE = re.compile(r", +")

_DECIMAL = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)")
_RATIONAL = re.compile(r"([+-]?\d+)\s*/\s*([+-]?\d+)")
# \frac{a}{b}, or \frac ab with one digit each, under an optional sign
_FRAC_ARG = r"\s*(?:\{\s*([+-]?\d+)\s*\}|(\d))"
_FRAC = re.compile(rf"([+-]?)\s*\\frac{_FRAC_ARG}{_FRAC_ARG}")


def extract_boxed(text: str) -> ExtractedAnswer | None:
    """Return the content of the last balanced ``\\boxed{...}`` in *text*.

    Braces nest; an unbalanced final box falls back to the previous balanced
    one. Returns None when no balanced box exists. Total on arbitrary input.
    """
    start = end = len(text)
    # last box first; \boxed cannot overlap itself, so no search skips a box
    while (start := text.rfind(_BOXED, 0, start)) >= 0:
        i = start + len(_BOXED)
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text) or text[i] != "{":
            continue
        depth = 1
        i += 1
        content_start = i
        while i < end:
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return ExtractedAnswer.from_raw(text[content_start:i])
            i += 1
        # ran off the end without closing: try an earlier box, scanning it only up
        # to this box's "{", since a box still open there never closes
        end = content_start - 1
    return None


def _normalize_once(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s.startswith("$") and s.endswith("$"):
        s = s[1:-1]
    s = _LEFT_RIGHT.sub("", s)
    s = _THIN_SPACE.sub("", s)
    s = _STYLED_FRAC.sub(r"\\frac", s)
    s = _TEXT.sub(r"\1", s)
    s = _WS_RUN.sub(" ", s).strip()
    if s.endswith("."):
        s = s[:-1]
    if s[:1] in ("(", "[") and s[-1:] in (")", "]"):  # a tuple or an interval
        s = _COMMA_SPACE.sub(",", s)
    if _THOUSANDS.fullmatch(s):
        s = s.replace(",", "")
    return s


def normalize(raw: str) -> str:
    """Canonicalize an answer string.

    One pass trims, strips one outer $...$ pair, deletes \\left/\\right and
    thin-space macros, spells \\dfrac and \\tfrac as \\frac, unwraps
    \\text{...}, collapses whitespace runs, and strips one trailing period.
    Inside a tuple or interval it drops the spaces after commas, and a whole
    number grouped by threes ("12,345.5") loses its separators; "1,2"
    keeps its comma. Passes repeat until a fixed point so the result is
    idempotent ("$$x$$", "x.." and similar need more than one pass).
    """
    current = raw
    for _ in range(len(raw) + 1):
        nxt = _normalize_once(current)
        if nxt == current:
            return current
        current = nxt
    return current


def parse_numeric(canonical: str) -> Fraction | None:
    """Exact rational value of a canonical answer, or None.

    Accepts plain decimals ("0.5", "-3"), integer ratios ("1/2") and
    \\frac of signed integers ("-\\frac{3}{4}", "\\frac12"); anything
    else, including a zero denominator, is non-numeric. So is a number with
    more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    s = canonical.strip()
    try:
        if m := _RATIONAL.fullmatch(s):
            num, den = int(m.group(1)), int(m.group(2))
        elif m := _FRAC.fullmatch(s):
            sign, num_braced, num_digit, den_braced, den_digit = m.groups()
            num, den = int(num_braced or num_digit), int(den_braced or den_digit)
            num = -num if sign == "-" else num
        else:
            return Fraction(s) if _DECIMAL.fullmatch(s) else None
        return Fraction(num, den) if den else None
    except ValueError:  # more digits than int() converts
        return None


def _coerce(value: "ExtractedAnswer | str | None") -> ExtractedAnswer | None:
    if value is None:
        return None
    if isinstance(value, ExtractedAnswer):
        return value
    return ExtractedAnswer.from_raw(value)


def answers_equal(a: "ExtractedAnswer | str | None", b: "ExtractedAnswer | str | None") -> bool:
    """Decide whether two answers agree.

    Exact rational equality when both sides are numeric ("1/2" == "0.5"),
    otherwise case-sensitive canonical string equality. A missing answer is
    never equal to anything.
    """
    left, right = _coerce(a), _coerce(b)
    if left is None or right is None:
        return False
    if left.canonical == right.canonical:  # one canonical form parses to one value
        return True
    value, other = left.numeric, right.numeric
    # a Fraction is in lowest terms with a positive denominator, so equal values
    # have equal ratios; Fraction.__eq__ would first run an ABC isinstance check
    return value is not None and other is not None and value.as_integer_ratio() == other.as_integer_ratio()


def extract_verdict(text: str) -> Verdict:
    """Read a boxed Yes/No judgment from a verification response.

    The last balanced box decides, case-insensitively; a missing box or any
    other content is MALFORMED (which downstream routes like No and never
    earns a positive verification reward).
    """
    boxed = extract_boxed(text)
    if boxed is None:
        return MALFORMED
    return _VERDICT_OF.get(boxed.canonical.lower(), MALFORMED)
