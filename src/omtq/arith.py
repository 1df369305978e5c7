"""Exact rational and delta-rational arithmetic.

Rationals are plain ``fractions.Fraction`` values; everything downstream
assumes exact arithmetic, never floats.  Delta-rationals are pairs
(real, eps) denoting real + eps * delta for a positive infinitesimal
delta, which is how strict inequalities are represented inside the
simplex core: (t < c) becomes an upper bound (c, -1) and (t > c) a lower
bound (c, +1).

A delta-rational keeps each field in one normal form: an ``int`` when
the value is integral, otherwise a ``Fraction`` with denominator > 1.
``int`` and ``Fraction`` mix exactly and their order and hashes agree,
so the form changes no result, only the cost: on integral values the
simplex adds machine-word ints instead of building Fractions.  The
canonical atoms' coefficients and constants share the form, from the
reader to the simplex; the boundary is the search's outcome, whose
values, models and epsilons are ``Fraction`` again.  Every division of
a value in this form is a ``Fraction`` division (``quotient``), never
``int / int``, which would make a float.
"""

from __future__ import annotations

import re
from fractions import Fraction

LE = "<="
LT = "<"
EQ = "="


_ZERO = 0


class DeltaRational:
    """real + eps * delta, ordered lexicographically on (real, eps).

    Each field is an ``int`` when its value is integral, else a
    ``Fraction`` with denominator > 1; a zero eps is the int ``_ZERO``.
    The simplex hot loop builds and compares these by the million, so
    results are made by ``_make``, which normalizes the real part only,
    operations skip eps arithmetic when an operand's eps is ``_ZERO``,
    and comparisons look at ``eps`` only when the reals tie.
    """

    __slots__ = ("real", "eps")

    def __init__(self, real, eps=0):
        # an int or a Fraction is taken as it is: Fraction(q) on a Fraction
        # would pay for the numbers.Rational check and a copy
        if type(real) is not int:
            real = integral_or_fraction(real if type(real) is Fraction else Fraction(real))
        self.real = real
        if type(eps) is not int and type(eps) is not Fraction:
            eps = Fraction(eps)
        self.eps = _nonzero_or_shared(eps)

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        e, f = self.eps, other.eps
        if f is _ZERO:
            return _make(self.real + other.real, e)
        if e is _ZERO:
            return _make(self.real + other.real, f)
        return _make(self.real + other.real, _nonzero_or_shared(e + f))

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        e, f = self.eps, other.eps
        if f is _ZERO:
            return _make(self.real - other.real, e)
        if e is _ZERO:
            return _make(self.real - other.real, -f)
        return _make(self.real - other.real, _nonzero_or_shared(e - f))

    def __neg__(self) -> "DeltaRational":
        e = self.eps
        return _make(-self.real, e if e is _ZERO else -e)

    def scaled(self, k) -> "DeltaRational":
        """The value times the rational ``k`` (an int or a Fraction)."""
        if type(k) is not int:
            k = integral_or_fraction(k if type(k) is Fraction else Fraction(k))
        e = self.eps
        return _make(self.real * k, e if e is _ZERO else _nonzero_or_shared(e * k))

    def __eq__(self, other):
        return (
            isinstance(other, DeltaRational)
            and self.real == other.real
            and self.eps == other.eps
        )

    def __hash__(self):
        return hash((self.real, self.eps))

    def __lt__(self, other):
        a, b = self.real, other.real
        if a == b:
            return self.eps < other.eps
        return a < b

    def __le__(self, other):
        a, b = self.real, other.real
        if a == b:
            return self.eps <= other.eps
        return a < b

    def __gt__(self, other):
        a, b = self.real, other.real
        if a == b:
            return self.eps > other.eps
        return a > b

    def __ge__(self, other):
        a, b = self.real, other.real
        if a == b:
            return self.eps >= other.eps
        return a > b

    def substitute(self, epsilon) -> Fraction:
        """Concrete value, a Fraction, once delta is fixed to a positive
        rational."""
        return self.real + self.eps * Fraction(epsilon)

    def __repr__(self):
        if self.eps == 0:
            return f"{self.real}"
        return f"({self.real} + {self.eps}d)"


_new_delta = object.__new__


def _make(real, eps) -> DeltaRational:
    """DeltaRational from a real part in either form and a normal eps."""
    d = _new_delta(DeltaRational)
    d.real = real if type(real) is int or real.denominator != 1 else real.numerator
    d.eps = eps
    return d


def integral_or_fraction(q):
    """``q`` (an int or a Fraction) in normal form."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def quotient(a, b):
    """``a / b`` in normal form, for ints or Fractions and ``b != 0``;
    two ints divide exactly instead of into a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return integral_or_fraction(a / b)


def _nonzero_or_shared(eps):
    """``eps`` in normal form, with a zero as ``_ZERO``."""
    if type(eps) is not int:
        if eps.denominator != 1:
            return eps
        eps = eps.numerator
    return eps if eps else _ZERO


def materialize_epsilon(valuation, literals) -> Fraction:
    """Largest eps0 in (0, 1] such that substituting any eps in (0, eps0]
    for delta keeps every literal satisfied.

    ``valuation`` maps variables to DeltaRational, ``literals`` is an
    iterable of (atom, polarity) pairs where atoms expose delta_value()
    and rel.  Raises ValueError if some literal is already violated
    symbolically; strict constraints contribute half their critical
    slack so the returned bound is always usable inclusively.
    """
    bound = Fraction(1)
    for atom, polarity in literals:
        val = atom.delta_value(valuation)
        if polarity:
            rel = atom.rel
            r, k = val.real, val.eps
        else:
            if atom.rel == EQ:
                raise ValueError("negated equality cannot be materialized")
            # not (t <= 0) is (-t < 0); not (t < 0) is (-t <= 0)
            rel = LT if atom.rel == LE else LE
            r, k = -val.real, -val.eps
        if rel == EQ:
            if r != 0 or k != 0:
                raise ValueError(f"equality violated symbolically: {atom}")
            continue
        strict = rel == LT
        # need r + k*eps (rel) 0 for all eps in (0, eps0]
        if k > 0:
            if r >= 0:
                raise ValueError(f"literal violated symbolically: {atom}")
            limit = Fraction(-r) / k
            if strict:
                limit = limit / 2
            bound = min(bound, limit)
        else:
            ok = r < 0 or (r == 0 and (not strict or k < 0))
            if not ok:
                raise ValueError(f"literal violated symbolically: {atom}")
    return bound


def format_rat(q: Fraction) -> str:
    """p/q form, denominator omitted when 1."""
    return str(q)


# SMT-LIB numerals and decimals, plus the signed p/q that format_rat prints
_NUMERAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+|/[0-9]+)?")


def parse_rat(text: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal 'p.d', with optional sign; nothing
    else (no exponents, digit separators or bare '.5').  Surrounding
    SMT-LIB whitespace (space, tab, CR, LF) is ignored; other blank
    characters, such as a vertical tab, are not whitespace there."""
    text = text.strip(" \t\r\n")
    if _NUMERAL.fullmatch(text) is None:
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
