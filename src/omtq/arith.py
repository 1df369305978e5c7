"""Exact rational and delta-rational arithmetic.

Rationals are plain ``fractions.Fraction`` values; everything downstream
assumes exact arithmetic, never floats.  Delta-rationals denote
real + eps * delta for a positive infinitesimal delta, which is how
strict inequalities are represented inside the simplex core: (t < c)
becomes an upper bound c - delta and (t > c) a lower bound c + delta.

A number is kept in one normal form: an ``int`` when the value is
integral, otherwise a ``Fraction`` with denominator > 1.  ``int`` and
``Fraction`` mix exactly and their order and hashes agree, so the form
changes no result, only the cost: on integral values the simplex adds
machine-word ints instead of building Fractions.  A simplex value whose
delta part is zero is such a plain number; only a value with a nonzero
delta part is a ``DeltaRational``, so ``DeltaRational(1) == 1``.  The
operators of a ``DeltaRational`` take a plain number on either side,
and ``real_part``/``eps_part`` read both parts of any value.  The
canonical atoms' coefficients and constants share the form, from the
reader to the simplex; the boundary is the search's outcome, whose
values, models and epsilons are ``Fraction`` again.  Every division of
a value in this form is a ``Fraction`` division (``quotient``), never
``int / int``, which would make a float.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isfinite
from typing import TypeAlias

LE = "<="
LT = "<"
EQ = "="


_ZERO = 0


class DeltaRational:
    """real + eps * delta with eps != 0, ordered lexicographically on
    (real, eps).

    ``DeltaRational(real, eps)`` returns the value in normal form: the
    plain number ``real`` when eps is zero.  Each field of an instance
    is an ``int`` when its value is integral, else a ``Fraction`` with
    denominator > 1.  The simplex hot loop builds and compares values by
    the million, so results are made by ``_make``, which normalizes the
    real part only, and each operator tests ``type(other) is
    DeltaRational`` inline: a plain number on the other side has eps 0,
    and a ``DeltaRational`` never equals one.
    """

    __slots__ = ("real", "eps")

    def __new__(cls, real, eps=0):
        # an int or a Fraction is taken as it is: Fraction(q) on a Fraction
        # would pay for the numbers.Rational check and a copy
        if type(real) is not int and type(real) is not Fraction:
            real = Fraction(real)
        if type(eps) is not int and type(eps) is not Fraction:
            eps = Fraction(eps)
        return _make(real, _nonzero_or_shared(eps))

    def __add__(self, other) -> Value:
        if type(other) is DeltaRational:
            return _make(self.real + other.real, _nonzero_or_shared(self.eps + other.eps))
        return _make(self.real + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other) -> Value:
        if type(other) is DeltaRational:
            return _make(self.real - other.real, _nonzero_or_shared(self.eps - other.eps))
        return _make(self.real - other, self.eps)

    def __rsub__(self, other) -> Value:
        return _make(other - self.real, -self.eps)

    def __neg__(self) -> DeltaRational:
        return _make(-self.real, -self.eps)

    def __mul__(self, k) -> Value:
        """The value times the plain number ``k``."""
        return _make(self.real * k, _nonzero_or_shared(self.eps * k))

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is DeltaRational and self.real == other.real and self.eps == other.eps

    def __hash__(self):
        return hash((self.real, self.eps))

    def __lt__(self, other):
        a = self.real
        if type(other) is DeltaRational:
            b = other.real
            if a == b:
                return self.eps < other.eps
            return a < b
        if a == other:
            return self.eps < 0
        return a < other

    def __le__(self, other):
        a = self.real
        if type(other) is DeltaRational:
            b = other.real
            if a == b:
                return self.eps <= other.eps
            return a < b
        if a == other:
            return self.eps < 0
        return a < other

    def __gt__(self, other):
        a = self.real
        if type(other) is DeltaRational:
            b = other.real
            if a == b:
                return self.eps > other.eps
            return a > b
        if a == other:
            return self.eps > 0
        return a > other

    def __ge__(self, other):
        a = self.real
        if type(other) is DeltaRational:
            b = other.real
            if a == b:
                return self.eps >= other.eps
            return a > b
        if a == other:
            return self.eps > 0
        return a > other

    def __reduce__(self):
        return DeltaRational, (self.real, self.eps)

    def __repr__(self):
        return f"({self.real} + {self.eps}d)"


# a simplex value, for annotations only: a string, since a typing.Union
# would keep each imported copy of this module's class in typing's cache
Value: TypeAlias = "int | Fraction | DeltaRational"

_new_delta = object.__new__


def _make(real, eps) -> Value:
    """The value real + eps * delta in normal form, from a real part in
    either form and an eps in normal form (a zero as ``_ZERO``)."""
    if type(real) is not int and real.denominator == 1:
        real = real.numerator
    if eps is _ZERO:
        return real
    d = _new_delta(DeltaRational)
    d.real = real
    d.eps = eps
    return d


def real_part(v: Value):
    """The real part of a value, a plain number."""
    return v.real if type(v) is DeltaRational else v


def eps_part(v: Value):
    """The coefficient of delta in a value; 0 for a plain number."""
    return v.eps if type(v) is DeltaRational else _ZERO


def exact(q):
    """``q``, a number given to a library entry point, made exact: an
    ``int`` or a ``Fraction`` as it is, a finite float as its exact
    ``Fraction``.  Anything else raises ValueError, a ``bool`` and a
    ``str`` too: text becomes a number only through ``parse_rat``."""
    if type(q) is int or type(q) is Fraction:
        return q
    if type(q) is float and isfinite(q):
        return Fraction(q)
    raise ValueError(f"{q!r} is not a finite number")


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


def materialize_epsilon(valuation, literals, scale=1) -> Fraction:
    """Largest eps0 in (0, 1] such that substituting any eps in (0, eps0]
    for delta keeps every literal satisfied.

    ``valuation`` maps variables to values, ``literals`` is an
    iterable of (atom, polarity) pairs where atoms expose delta_value()
    and rel.  Values kept times a positive ``scale`` give the eps0 of
    the unscaled ones: each literal's value is then ``scale`` times its
    unscaled one, with the same signs and the same ratio -r/k.  Raises
    ValueError if some literal is already violated symbolically; strict
    constraints contribute half their critical slack so the returned
    bound is always usable inclusively.
    """
    bound = Fraction(1)
    for atom, polarity in literals:
        val = atom.delta_value(valuation, scale)
        if polarity:
            rel = atom.rel
            r, k = real_part(val), eps_part(val)
        else:
            if atom.rel == EQ:
                raise ValueError("negated equality cannot be materialized")
            # not (t <= 0) is (-t < 0); not (t < 0) is (-t <= 0)
            rel = LT if atom.rel == LE else LE
            r, k = -real_part(val), -eps_part(val)
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
