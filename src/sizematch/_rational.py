"""Exact-number plumbing shared across the package.

All internal arithmetic runs on :class:`fractions.Fraction`.  Floats are
promoted to their exact binary value, so a value that came in as a float
compares equal to the Fraction it became and survives a JSON round trip
bit-exactly.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Tuple

# an int of at most this many bits has fewer than 640 digits, the least limit
# sys.set_int_max_str_digits accepts, so it can always be written as text
_SAFE_BITS = 3 * 640
_TOO_LONG = ("an exact number holds an integer of more than {0} digits, more than this "
             "interpreter {1} text (sys.get_int_max_str_digits() is {0})")
# quoted input of more characters than this is named by its length and first _HEAD_CHARS
_ECHO_CHARS, _HEAD_CHARS = 64, 20
# the text int() reads as a base 10 int at any length; its white space leaves out \x1c-\x1f
_INT_LITERAL = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")


def _digit_limit() -> int:
    """The most digits the interpreter reads or writes as an int's text; 0 (no limit) if absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(limit: int, reads_or_writes: str) -> ValueError:
    """The error for an int of more than ``limit`` digits, too long to read or write as text."""
    return ValueError(_TOO_LONG.format(limit, reads_or_writes))


def as_fraction(value) -> Fraction:
    """Return ``value`` as an exact :class:`Fraction`.

    Accepts int, Fraction, and finite float (promoted to its exact binary
    value).  Anything else, including NaN and infinities, is rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a real number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return Fraction(value)
    raise TypeError(f"expected a real number, got {type(value).__name__}")


def _ratio(value) -> Tuple[int, int]:
    """``value`` as (numerator, denominator) in lowest terms, with the errors of as_fraction."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is Fraction or kind is float and math.isfinite(value):
        return value.as_integer_ratio()
    return as_fraction(value).as_integer_ratio()


def common_denominator(values) -> int:
    """The lcm of the denominators of the Fractions ``values`` (1 for none).

    Each value times any multiple ``scale`` of this lcm is an int
    (:func:`on_scale`), so exact comparisons and differences of a whole
    set of rationals can run on Python ints.
    """
    return math.lcm(*(v.denominator for v in values))


def on_scale(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int; ``scale`` is a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def number_to_json(value):
    """Encode an exact number for JSON output.

    Values that a 64-bit float represents exactly are emitted as floats
    (ints as ints); anything else, including rationals beyond the float
    range, becomes the string ``"p/q"`` so that parsing the output
    reproduces the value bit-exactly.
    """
    return ratio_to_json(*_ratio(value))


def ratio_to_json(num: int, den: int):
    """Encode the exact number num/den (``den`` > 0, any common factor) as
    :func:`number_to_json` does.  A num or den of more decimal digits than the
    interpreter writes as text raises ValueError."""
    common = math.gcd(num, den)
    if common != 1:
        num, den = num // common, den // common
    if num.bit_length() > _SAFE_BITS or den.bit_length() > _SAFE_BITS:
        limit = _digit_limit()
        if limit and max(abs(num), den) >= 10**limit:
            raise _too_long(limit, "writes as")
    if den == 1:
        return num
    # a finite float is dyadic, so no float equals p/q unless q = 2^k; then p
    # is odd, and p/q is a float exactly when p fits the 53-bit significand
    # and 2^-k is not below the least subnormal, 2^-1074
    if not den & (den - 1) and num.bit_length() <= 53 and den.bit_length() <= 1075:
        return num / den  # int true division rounds correctly, here exactly
    return f"{num}/{den}"


def int_from_text(text: str) -> int:
    """``int(text)`` of a base 10 int literal, which only its length can make ``int`` refuse."""
    try:
        return int(text)
    except ValueError:
        raise _too_long(_digit_limit(), "reads from") from None


def quoted(value) -> str:
    """``value`` as an error message shows it, kept to one short line.

    A str shows as its repr, anything else as its str (a Fraction as p/q).
    A str, or the str of anything else, of more than 64 characters is named
    by its length and its first 20 characters.
    """
    is_text = isinstance(value, str)
    text = value if is_text else str(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value) if is_text else text
    return f"of {len(text)} characters, starting {text[:_HEAD_CHARS]!r}"


def _malformed(literal: str) -> ValueError:
    """The error for a malformed ``"p/q"`` literal."""
    return ValueError(f"malformed rational literal {quoted(literal)}")


def number_from_json(value) -> Fraction:
    """Decode a number written by :func:`number_to_json`."""
    if isinstance(value, str):
        num, sep, den = value.partition("/")
        if not (sep and _INT_LITERAL.fullmatch(num) and _INT_LITERAL.fullmatch(den)):
            raise _malformed(value)
        try:
            return Fraction(int_from_text(num), int_from_text(den))
        except ZeroDivisionError:
            raise _malformed(value) from None
    return as_fraction(value)
