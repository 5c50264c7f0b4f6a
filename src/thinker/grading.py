"""Answer extraction and correctness checking.

Responses carry their final answer inside the last balanced ``\\boxed{...}``
of the text. Grading normalizes the boxed content to a canonical string,
parses an exact rational value when the content is numeric, and compares
answers by exact rational equality when possible, falling back to canonical
string equality. No computer-algebra equivalence is attempted; `answers_equal`
is the single extension point for stricter or looser checkers.
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

_DECIMAL = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)")
_RATIONAL = re.compile(r"([+-]?\d+)\s*/\s*([+-]?\d+)")


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
    s = _WS_RUN.sub(" ", s).strip()
    if s.endswith("."):
        s = s[:-1]
    return s


def normalize(raw: str) -> str:
    """Canonicalize an answer string.

    One pass trims, strips one outer $...$ pair, deletes \\left/\\right and
    thin-space macros, collapses whitespace runs, and strips one trailing
    period. Passes repeat until a fixed point so the result is idempotent
    ("$$x$$", "x.." and similar need more than one pass).
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

    Accepts plain decimals ("0.5", "-3") and integer ratios ("1/2");
    anything else, including a zero denominator, is non-numeric. So is a
    number with more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``, 4300 by default).
    """
    s = canonical.strip()
    m = _RATIONAL.fullmatch(s)
    try:
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            return Fraction(num, den) if den else None
        return Fraction(s) if _DECIMAL.fullmatch(s) else None
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
    if left.numeric is not None and right.numeric is not None:
        return left.numeric == right.numeric
    return left.canonical == right.canonical


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
