"""Sparse exact Puiseux series in mixed exponentiated/formal variables.

An exponentiated variable (q- or y-type) may carry rational exponents
with a fixed per-variable denominator bound and may appear with negative
exponents. A formal variable (tau-type) only ever appears with
nonnegative integer exponents; it is never exponentiated or inverted.

Truncation is by total weighted degree: every variable weighs its
exponent, and a series of order N keeps the terms of weight at most N.
Weights are computed in integers. A roster with denominators d_i has
L = lcm(d_i), and a stored (scaled) exponent vector e, which stands for
the exponents e_i/d_i, has the integer weight W(e) = sum e_i * (L/d_i),
that is L times its true weight. A term is kept when W(e) <= floor(N*L),
which is exact because W(e) is an integer. Coefficients are integer
numerators over one positive denominator, as in FLINT's `fmpq_poly`,
kept canonical: the gcd of the denominator and the numerators is 1.
Every operation runs in integers and reduces once; `Fraction`s appear
only at the boundaries (`terms`, `coefficient`, JSON). All operations
are exact up to the declared truncation order.

The kernel writes each step once. exp, log, rational powers and
composition are one power sum a_0 + a_1 u + a_2 u^2 + ... of a series u,
with the coefficients of exp, of log(1 + u), the binomial ones, or
those of the outer series (`_power_sum`). Multiplying by a monomial
moves every term and the truncation order by its weight (`_shift`).
A rational power of a monomial scales its stored exponent vector and
must stay integral (`_power_of`).

Substitution reads each scaled exponent x of a variable as the rung
x // g of an integer step g, the gcd of those exponents, and takes that
power of its image from a `PowerLadder`, which builds each power once
and can be shared by several substitutions at the same images. The
inverse of a mirror-shaped map (`multivar_invert`, and `lagrange_invert`
through it) is found by Newton iteration in log coordinates, doubling
the order at each step, and is returned only once the residual vanishes
exactly at the requested order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, count, takewhile
from typing import Iterable, Mapping, Optional, Sequence


class RosterMismatch(ValueError):
    pass


class BadConstantTerm(ValueError):
    pass


class NonzeroConstantInner(ValueError):
    pass


class ZeroLinearTerm(ValueError):
    pass


class NotMirrorShaped(ValueError):
    pass


class InversionNotConverged(ValueError):
    pass


class Roster:
    """Variable roster: names, exponent denominators, formal flags.

    `lcm` and `scale` are derived from `denoms` (L = lcm of the
    denominators, scale_i = L/d_i) and take no part in equality or
    hashing, which read `names`, `denoms` and `formal`. The fields are
    slots, since `weight` reads `scale` in the kernel's inner loops.
    """

    __slots__ = ("names", "denoms", "formal", "lcm", "scale")

    def __init__(self, names: tuple[str, ...], denoms: tuple[int, ...],
                 formal: tuple[bool, ...]):
        if not (len(names) == len(denoms) == len(formal)):
            raise ValueError("roster fields must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for d, f in zip(denoms, formal):
            if d < 1 or (f and d != 1):
                raise ValueError("formal variables must have denominator 1")
        self.names, self.denoms, self.formal = names, denoms, formal
        self.lcm = lcm = math.lcm(*denoms)
        self.scale = tuple(lcm // d for d in denoms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.denoms, self.formal) == \
            (other.names, other.denoms, other.formal)

    def __hash__(self) -> int:
        return hash((self.names, self.denoms, self.formal))

    def __repr__(self) -> str:
        return (f"Roster(names={self.names!r}, denoms={self.denoms!r}, "
                f"formal={self.formal!r})")

    def index(self, name: str) -> int:
        if name not in self.names:
            raise ValueError(f"variable {name!r} is not in the roster {self.names}")
        return self.names.index(name)

    def weight(self, e: tuple[int, ...]) -> int:
        """Integer weight of a scaled exponent vector: lcm * true weight."""
        return sum(map(operator.mul, e, self.scale))

    def cap(self, order: Fraction) -> int:
        """Largest integer weight kept by truncation at `order`."""
        return order.numerator * self.lcm // order.denominator

    def scaled(self, exponents: Mapping[str, Fraction]) -> tuple[int, ...]:
        """Scaled exponent vector of the monomial with these exponents."""
        e = [0] * len(self.names)
        for name, p in exponents.items():
            i = self.index(name)
            p = Fraction(p)
            scaled = p * self.denoms[i]
            if scaled.denominator != 1:
                raise ValueError(
                    f"exponent {p} of {name} exceeds denominator bound {self.denoms[i]}")
            e[i] = int(scaled)
        return tuple(e)


def make_roster(names: Sequence[str], denoms: Sequence[int] | None = None,
                formal: Sequence[bool] | None = None) -> Roster:
    n = len(names)
    return Roster(tuple(names),
                  tuple(denoms) if denoms is not None else (1,) * n,
                  tuple(formal) if formal is not None else (False,) * n)


class PuiseuxSeries:
    """Truncated sparse Puiseux series with exact rational coefficients.

    Exponents are stored as integers scaled by the per-variable
    denominator; the public API speaks in Fractions. The coefficient at
    the scaled exponent vector e is num[e]/den, in canonical form.
    """

    __slots__ = ("roster", "order", "num", "den")

    def __init__(self, roster: Roster, order, terms: Mapping[tuple[int, ...], Fraction],
                 den: Optional[int] = None):
        """`terms` maps scaled exponent vectors to rationals or, when
        `den` is given, to integer numerators over den > 0; the terms of
        weight above `order` are dropped."""
        if den is None:
            terms = {e: c if isinstance(c, Fraction) else Fraction(c)
                     for e, c in terms.items()}
            den = math.lcm(*(c.denominator for c in terms.values()))
            terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        order = order if isinstance(order, Fraction) else Fraction(order)
        cap, weight = roster.cap(order), roster.weight
        formal = [i for i, f in enumerate(roster.formal) if f]
        num = {}
        for e, n in terms.items():
            if n and weight(e) <= cap:
                for i in formal:
                    if e[i] < 0:
                        raise ValueError("negative exponent on formal variable")
                num[tuple(e)] = n
        self._reduce(roster, order, num, den)

    def _reduce(self, roster: Roster, order: Fraction, num: dict, den: int) -> None:
        """Set the fields to num/den with the zeros dropped and the gcd of
        den and the numerators divided out."""
        g = math.gcd(den, *num.values())
        if g != 1 or 0 in num.values():
            num = {e: n // g for e, n in num.items() if n}
        self.roster, self.order, self.num, self.den = roster, order, num, den // g

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, roster: Roster, order) -> "PuiseuxSeries":
        return cls(roster, order, {})

    @classmethod
    def constant(cls, roster: Roster, order, value) -> "PuiseuxSeries":
        return cls(roster, order, {(0,) * len(roster.names): Fraction(value)})

    @classmethod
    def monomial(cls, roster: Roster, order, exponents: Mapping[str, Fraction],
                 coef=1) -> "PuiseuxSeries":
        return cls(roster, order, {roster.scaled(exponents): Fraction(coef)})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as reduced Fractions, keyed by scaled exponents."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    def _coef(self, e: tuple[int, ...]) -> Fraction:
        return Fraction(self.num.get(e, 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> Fraction:
        return self._coef((0,) * len(self.roster.names))

    def valuation(self) -> Optional[Fraction]:
        if not self.num:
            return None
        return Fraction(min(map(self.roster.weight, self.num)), self.roster.lcm)

    def _lowest_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        weight = self.roster.weight
        weights = {e: weight(e) for e in self.num}
        vw = min(weights.values(), default=None)
        return [(e, self._coef(e)) for e in self.num if weights[e] == vw]

    def coefficient(self, exponents: Mapping[str, Fraction]) -> Fraction:
        e = [0] * len(self.roster.names)
        for name, p in exponents.items():
            i = self.roster.index(name)
            scaled = Fraction(p) * self.roster.denoms[i]
            if scaled.denominator != 1:
                return Fraction(0)
            e[i] = int(scaled)
        return self._coef(tuple(e))

    def sorted_terms(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        weight, denoms = self.roster.weight, self.roster.denoms
        keyed = [(weight(e), tuple(Fraction(x, d) for x, d in zip(e, denoms)), c)
                 for e, c in self.terms.items()]
        keyed.sort(key=lambda t: t[:2])
        return [(x, c) for _, x, c in keyed]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.roster == other.roster and self.order == other.order
                and self.den == other.den and self.num == other.num)

    def __repr__(self) -> str:
        parts = []
        for e, c in self.sorted_terms()[:8]:
            mono = "*".join(f"{v}^{p}" for v, p in zip(self.roster.names, e) if p)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        tail = " + ..." if len(self.num) > 8 else ""
        return f"<series O({self.order}): {' + '.join(parts) or '0'}{tail}>"

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "PuiseuxSeries") -> Fraction:
        if self.roster != other.roster:
            raise RosterMismatch("incompatible variable rosters")
        return min(self.order, other.order)

    def truncate(self, order) -> "PuiseuxSeries":
        return PuiseuxSeries(self.roster, order, self.num, self.den)

    def _plus(self, other, sign: int) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(self.roster, self.order, other)
        order = self._check(other)
        return _collect(self.roster, order, ((self.num, self.den, 1),
                                             (other.num, other.den, sign)))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.roster, self.order, {e: -n for e, n in self.num.items()},
                     self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, k) -> "PuiseuxSeries":
        k = Fraction(k)
        a = k.numerator
        return _make(self.roster, self.order, {e: n * a for e, n in self.num.items()},
                     self.den * k.denominator)

    def _weighed(self) -> list[tuple[int, tuple[int, ...], int]]:
        """(integer weight, scaled exponents, numerator) of each term."""
        weight = self.roster.weight
        return [(weight(e), e, n) for e, n in self.num.items()]

    def _product(self, other: "PuiseuxSeries", order,
                 left=None, right=None) -> "PuiseuxSeries":
        """self * other kept up to weight `order`, which the caller
        vouches the product is known to. `left` and `right` are
        self._weighed() and other._weighed() if the caller has them."""
        if left is None:
            left, right = self._weighed(), other._weighed()
        right.sort(key=operator.itemgetter(0))
        cap = self.roster.cap(order)
        add = operator.add
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for w1, e1, n1 in left:
            room = cap - w1
            for w2, e2, n2 in right:
                if w2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        return _make(self.roster, order, out, self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._check(other)
        # (a + O(o1)) (b + O(o2)) is known to min(o1 + v(b), o2 + v(a)),
        # so a factor of negative valuation lowers the order
        left, right = self._weighed(), other._weighed()
        for s, t in ((self, right), (other, left)):
            v = min((w for w, _, _ in t), default=0)
            if v < 0:
                order = min(order, s.order + Fraction(v, self.roster.lcm))
        return self._product(other, order, left, right)

    __rmul__ = __mul__

    def shift(self, exponents: Mapping[str, Fraction]) -> "PuiseuxSeries":
        """Multiply by a monomial (exponent shift).

        A monomial of weight w moves every term, and the truncation
        order, by w: O(o) becomes O(o + w).
        """
        return _shift(self, self.roster.scaled(exponents))


def _make(roster: Roster, order: Fraction, num: dict, den: int) -> PuiseuxSeries:
    """num/den at `order`, for num within the order and admissible on the
    formal variables."""
    s = object.__new__(PuiseuxSeries)
    s._reduce(roster, order, num, den)
    return s


def _collect(roster: Roster, order: Fraction,
             parts: Iterable[tuple[Mapping[tuple[int, ...], int], int, int]]
             ) -> PuiseuxSeries:
    """The sum of k*num/den over the (num, den, k) in `parts`, kept to
    `order`: one pass in integers over the lcm of the denominators."""
    parts = list(parts)
    den = math.lcm(*(d for _, d, _ in parts))
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for num, d, k in parts:
        k *= den // d
        for e, n in num.items():
            out[e] = get(e, 0) + n * k
    return PuiseuxSeries(roster, order, out, den)


def linear_combination(roster: Roster, order,
                       pairs: Iterable[tuple[Fraction, PuiseuxSeries]]) -> PuiseuxSeries:
    """sum c*s over the (c, s) in `pairs`, kept to `order`."""
    return _collect(roster, Fraction(order),
                    ((s.num, s.den * c.denominator, c.numerator) for c, s in pairs))


def _shift(s: PuiseuxSeries, me: tuple[int, ...], factor=1) -> PuiseuxSeries:
    """factor * y^me * s for a scaled exponent vector me of weight w:
    every term moves by me, and O(o) becomes O(o + w)."""
    roster, add = s.roster, operator.add
    order = s.order + Fraction(roster.weight(me), roster.lcm)
    factor = Fraction(factor)
    a = factor.numerator
    return PuiseuxSeries(roster, order,
                         {tuple(map(add, e, me)): n * a for e, n in s.num.items()},
                         s.den * factor.denominator)


def _unit_tail(s: PuiseuxSeries, le: tuple[int, ...]) -> PuiseuxSeries:
    """u with s = lc*y^le*(1 + u), for lc*y^le the unique lowest term of
    s: u has positive valuation and is known to the order of s less the
    weight of le. Its numerators are those of s, over the numerator of
    the lowest term."""
    lead = s.num[le]
    sign = 1 if lead > 0 else -1
    order = s.order - Fraction(s.roster.weight(le), s.roster.lcm)
    return PuiseuxSeries(s.roster, order,
                         {tuple(x - y for x, y in zip(e, le)): n * sign
                          for e, n in s.num.items() if e != le}, abs(lead))


def _power_of(e: tuple[int, ...], p: Fraction) -> tuple[int, ...]:
    """The scaled exponent vector of (y^e)^p, that is e*p, which must be
    integral: the power may not pass the roster's denominators."""
    out = []
    for x in e:
        x, rem = divmod(x * p.numerator, p.denominator)
        if rem:
            raise ValueError("power pushes exponent beyond denominator bound")
        out.append(x)
    return tuple(out)


# -- transcendental operations ----------------------------------------


def _power_sum(coefs: Iterable[Fraction], u: PuiseuxSeries) -> PuiseuxSeries:
    """a_0 + a_1*u + a_2*u^2 + ... to the order of u, for the a_k in `coefs`.

    The sum stops when the coefficients run out or when u^k vanishes.
    The lowest-weight part of u^k is that of u to the k-th power, which
    is not 0, so u^k vanishes just when u = 0 or k*v(u) passes the order;
    the next coefficient is drawn only after that test. u^1 is u and
    u^k = u^(k-1)*u, so a u of negative valuation lowers the order of
    each higher power as `__mul__` does.
    """
    roster, order = u.roster, u.order
    coefs = iter(coefs)
    a = Fraction(next(coefs, 0))
    parts = [({(0,) * len(roster.names): a.numerator}, a.denominator, 1)]
    if u.num:
        vw, cap = min(map(roster.weight, u.num)), roster.cap(order)
        p, k = None, 1
        while k * vw <= cap and (a := next(coefs, None)) is not None:
            p = u if p is None else p * u
            if a:
                a = Fraction(a)
                order = min(order, p.order)
                parts.append((p.num, p.den * a.denominator, a.numerator))
            k += 1
    return _collect(roster, order, parts)


def series_exp(s: PuiseuxSeries) -> PuiseuxSeries:
    if s.constant_term():
        raise BadConstantTerm("exp requires zero constant term")
    v = s.valuation()
    if v is not None and v <= 0:
        raise BadConstantTerm("exp requires positive valuation")
    return _power_sum((Fraction(1, math.factorial(k)) for k in count()), s)


def series_log(s: PuiseuxSeries) -> PuiseuxSeries:
    if s.constant_term() != 1:
        raise BadConstantTerm("log requires constant term 1")
    u = s - 1
    v = u.valuation()
    if v is not None and v <= 0:
        raise BadConstantTerm("log requires 1 + positive-valuation tail")
    return _power_sum((Fraction((-1) ** (k + 1), k) if k else 0 for k in count()), u)


def _rational_root(c: Fraction, e: Fraction) -> Fraction:
    """c**e as an exact Fraction, or raise ValueError."""
    if e.denominator == 1:
        return c ** int(e)
    if c <= 0:
        raise ValueError("cannot take fractional power of nonpositive constant")

    def iroot(m: int, k: int) -> int:
        # floor of the k-th root by integer Newton from above
        r = math.isqrt(m) if k == 2 else 1 << -(-m.bit_length() // k)
        while k > 2:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r ** k != m:
            raise ValueError(f"{m} has no integer {k}-th root")
        return r

    k = e.denominator
    base = Fraction(iroot(c.numerator, k), iroot(c.denominator, k))
    return base ** e.numerator


def series_pow(s: PuiseuxSeries, e) -> PuiseuxSeries:
    """s**e for rational e; the lowest-weight term of s must be unique.

    The leading monomial is exponentiated directly (its new exponents
    must respect the per-variable denominators) and the tail via the
    binomial series.
    """
    e = Fraction(e)
    if s.is_zero():
        if e > 0:
            return s
        raise ZeroDivisionError("0 to a nonpositive power")
    lead = s._lowest_terms()
    if len(lead) != 1:
        raise ValueError("leading term not unique; cannot take rational power")
    (le, lc) = lead[0]
    c0 = _rational_root(lc, e)
    me = _power_of(le, e)
    if any(f and x < 0 for f, x in zip(s.roster.formal, me)):
        raise ValueError("power not admissible on a formal variable")
    # s**e = c0*y^me*(1 + u)**e; (1 + u)**e is known to the order of u,
    # s.order - v, so the result is known to v*e + (s.order - v), which
    # for e > 1 exceeds s.order: every product of e terms of s with one
    # factor in the unknown tail lands above that bound. A monomial s
    # has u = 0 + O(s.order - v) and takes the same bound. The binomial
    # coefficients stop at the first zero, so an integer e stops early.
    binomials = takewhile(bool, accumulate(
        count(), lambda c, k: c * (e - k) / (k + 1), initial=Fraction(1)))
    return _shift(_power_sum(binomials, _unit_tail(s, le)), me, c0)


def series_compose(outer: PuiseuxSeries, inner: PuiseuxSeries) -> PuiseuxSeries:
    """Substitute `inner` for the single variable of `outer`."""
    if len(outer.roster.names) != 1:
        raise ValueError("outer series must be univariate")
    if inner.constant_term():
        raise NonzeroConstantInner("inner series must have zero constant term")
    d = outer.roster.denoms[0]
    coefs = {}
    for (e,), c in outer.terms.items():
        if e % d:
            raise ValueError("composition requires integer outer exponents")
        if e < 0:
            raise ValueError("composition requires nonnegative outer exponents")
        coefs[e // d] = c
    return _power_sum((coefs.get(k, 0) for k in range(max(coefs, default=-1) + 1)),
                      inner)


def lagrange_invert(s: PuiseuxSeries, order: int,
                    out_name: Optional[str] = None) -> PuiseuxSeries:
    """Compositional inverse f of a univariate series s = c1*z + O(z^2).

    tau = s(z)/c1 is a tau relation of `multivar_invert` with no Kahler
    variable, and its inverse Z(tau) gives f(t) = Z(t/c1). Raises
    InversionNotConverged unless s(f(t)) = t holds exactly to `order`.
    """
    if len(s.roster.names) != 1 or s.roster.denoms[0] != 1:
        raise ValueError("inversion requires a univariate integer-exponent series")
    if s.constant_term():
        raise ZeroLinearTerm("series must vanish at 0")
    c1 = s.coefficient({s.roster.names[0]: 1})
    if not c1:
        raise ZeroLinearTerm("linear coefficient is zero")
    name = out_name or s.roster.names[0]
    (Z,) = multivar_invert([], [s.scale(1 / c1)], [], [name], [], order)
    roster = make_roster([name], [1], [s.roster.formal[0]])
    f = PuiseuxSeries(roster, order,
                      {e: c / c1 ** e[0] for e, c in Z.terms.items()})
    t = PuiseuxSeries.monomial(roster, order, {name: 1})
    if series_compose(s, f).terms != t.terms:
        raise InversionNotConverged(f"s(f(t)) differs from t at order {f.order}")
    return f


class PowerLadder:
    """Rational powers of the images of a substitution, each built once
    and shared by every substitution at those images.

    The powers of an image Y are the multiples k*g of a step g, the gcd
    of the exponents asked for. Rung k of a monomial c*y^e is the
    numerator, denominator and exponent of c**(k*g) y^(e*k*g). Otherwise
    the rungs k = +-1 are series_pow(Y, +-g), and every further rung is
    the rung before it times that one. Rung k keeps the order
    series_pow(Y, k*g) has, N + (k*g - 1)v for Y of order N and valuation
    v, which is the order such a product is known to, and so it has the
    same terms. A request off the step rebuilds that image's rungs on the
    gcd of the two steps.
    """

    def __init__(self, images: Mapping[str, PuiseuxSeries]):
        self.images = dict(images)
        self._steps: dict[str, Fraction] = {}
        self._rungs: dict[str, dict[int, object]] = {}

    def align(self, name: str, step: Fraction) -> int:
        """Set the step of images[name] to a divisor g of `step`; step/g."""
        g = self._steps.get(name)
        if g is None or (step / g).denominator != 1:
            if g is not None:
                g = Fraction(math.gcd(step.numerator, g.numerator),
                             math.lcm(step.denominator, g.denominator))
            g = self._steps[name] = g or step
            self._rungs[name] = {}
        return int(step / g)

    def rung(self, name: str, k: int):
        """Rung k of images[name] on its current step."""
        rungs = self._rungs[name]
        if k in rungs:
            return rungs[k]
        img, g = self.images[name], self._steps[name]
        if len(img.num) == 1:
            ((ie, ic),) = img.num.items()
            c = _rational_root(Fraction(ic, img.den), k * g)
            rungs[k] = (c.numerator, c.denominator, _power_of(ie, k * g))
        elif img.is_zero():
            return series_pow(img, k * g)
        else:
            sign = 1 if k > 0 else -1
            if sign not in rungs:
                rungs[sign] = series_pow(img, sign * g)
            base = rungs[sign]
            v = base.valuation()
            j = max(i * sign for i in rungs)
            while j < abs(k):
                prev = rungs[sign * j]
                j += 1
                rungs[sign * j] = prev._product(base, prev.order + v)
        return rungs[k]


def substitute(s: PuiseuxSeries,
               images: Mapping[str, PuiseuxSeries] | PowerLadder,
               order=None) -> PuiseuxSeries:
    """Substitute a series for every variable of s.

    `images` maps every variable of s to a series, all in one roster. A
    PowerLadder over such a mapping may be passed instead, so that
    substitutions at the same images build each power once. Rational
    powers of an image are those of series_pow (its leading term must
    be unique); an image of one term is an exact monomial. The step of
    y_i is the gcd of its scaled exponents x in s, and x // step names
    the rung; coefficients stay integer numerators and denominators.
    """
    ladder = images if isinstance(images, PowerLadder) else PowerLadder(images)
    names, denoms = s.roster.names, s.roster.denoms
    imgs = [ladder.images[n] for n in names]
    tgt = imgs[0].roster
    order = Fraction(order) if order is not None else min(i.order for i in imgs)
    nt = len(tgt.names)
    add = operator.add
    parts = []
    res_order = order
    steps = [math.gcd(*(e[i] for e in s.num)) for i in range(len(names))]
    ratios = [ladder.align(name, Fraction(g, d)) if g else 0
              for name, g, d in zip(names, steps, denoms)]

    for e, n in s.num.items():
        # Monomial images are exact; collect them into a single exponent
        # shift applied after the series factors are multiplied out, so
        # that a negative-weight monomial cannot push otherwise-retained
        # terms past the truncation bound mid-product.
        shift_e = (0,) * nt
        cn, cd = n, s.den
        factors: list[PuiseuxSeries] = []
        for i, x in enumerate(e):
            if not x:
                continue
            power = ladder.rung(names[i], x // steps[i] * ratios[i])
            if isinstance(power, tuple):     # a monomial image
                a, b, pe = power
                cn, cd = cn * a, cd * b
                shift_e = tuple(map(add, shift_e, pe))
            else:
                factors.append(power)
        if factors:
            term = factors[0]
            for f in factors[1:]:
                term = term * f
            num, term_order = term.num, term.order
            if any(shift_e):
                # the shift's weight is linear in its exponents, so it is
                # the weight of the summed exponent vector
                term_order += Fraction(tgt.weight(shift_e), tgt.lcm)
                num = {tuple(map(add, te, shift_e)): tn for te, tn in num.items()}
            res_order = min(res_order, term_order)
            parts.append((num, term.den * cd, cn))
        else:
            parts.append(({shift_e: cn}, cd, 1))
    return _collect(tgt, res_order, parts)


def _euler(s: PuiseuxSeries, i: int) -> PuiseuxSeries:
    """y_i d/dy_i of s: every term times its exponent of y_i."""
    return _make(s.roster, s.order, {e: n * e[i] for e, n in s.num.items() if e[i]},
                 s.den * s.roster.denoms[i])


def multivar_invert(log_corrections: Sequence[PuiseuxSeries],
                    tau_series: Sequence[PuiseuxSeries],
                    q_names: Sequence[str], tau_names: Sequence[str],
                    q_denoms: Sequence[int], order) -> list[PuiseuxSeries]:
    """Invert a mirror-shaped map by Newton iteration.

    Input (all series in a common y-roster of length r' = r + s):
      log q_a = log y_a + A_a(y),  A_a with no constant term (a = 1..r)
      tau_b   = B_b(y),            B_b with zero constant term (b = 1..s)
    where B_b = y^{v_b} * (1 + C_b(y)) and v_b has exponent exactly 1 on
    y_{r+b} and no other extended variable. A_a and B_b are read as
    polynomials. Returns [Y_1..Y_{r'}] as series in (q_1..q_r,
    tau_1..tau_s) with q(Y(q,tau)) = q and tau(Y(q,tau)) = tau to the
    truncation order.

    Method. Write Y_i = Y0_i exp(U_i) about the starting monomials
    Y0_a = q_a and Y0_{r+b} = tau_b q^{-v_b}. The relations become

      F(U) = L U + H(Y(U)) = 0,   H = (A_a, log(1 + C_b)),

    with L unipotent: (L U)_a = U_a, (L U)_{r+b} = U_{r+b} + sum_a
    v_{b,a} U_a. The Jacobian is L + D with D_ic = (y_c d/dy_c H_i)(Y),
    and D has positive valuation, so each Newton step solves
    (L + D) delta = -F by a Neumann series in L^{-1} D. Each step works
    to twice the order of the one before (Brent & Kung, "Fast algorithms
    for manipulating formal power series", JACM 1978), and the Jacobian
    to that order less the valuation of F. The residual and every entry
    of D are substitutions at the same images and share one PowerLadder.

    The iteration stops when F vanishes exactly to the order at which
    every Y_i reaches `order`. When a substitution returns less than the
    working order (a negative power of an image that is not a monomial
    loses order), the working order rises once by the shortfall.

    Raises InversionNotConverged if F or D has a term of weight <= 0, if
    a step does not raise the valuation of F, or if the residual still
    falls short of `order` after the rise.
    """
    r = len(log_corrections)
    sdim = len(tau_series)
    if r + sdim == 0:
        return []
    src = (list(log_corrections) + list(tau_series))[0].roster
    rp = len(src.names)
    if rp != r + sdim:
        raise NotMirrorShaped("roster length must match number of relations")
    order = Fraction(order)
    tgt = make_roster(list(q_names) + list(tau_names),
                      list(q_denoms) + [1] * sdim,
                      [False] * r + [True] * sdim)
    for A in log_corrections:
        if A.constant_term():
            raise NotMirrorShaped("log-correction has a constant term")
    leads, corrections = [], []
    for b, B in enumerate(tau_series):
        if B.constant_term():
            raise NotMirrorShaped("tau relation has a constant term")
        lead = B._lowest_terms()
        if len(lead) != 1:
            raise NotMirrorShaped("tau relation leading term not unique")
        (le, lc) = lead[0]
        if lc != 1:
            raise NotMirrorShaped("tau relation leading coefficient must be 1")
        vexp = [Fraction(x, d) for x, d in zip(le, src.denoms)]
        if vexp[r + b] != 1 or any(vexp[r + c] for c in range(sdim) if c != b):
            raise NotMirrorShaped("tau relation not triangular in extended variables")
        leads.append(vexp[:r])
        corrections.append(_unit_tail(B, le))

    start = [tgt.scaled({q_names[a]: 1}) for a in range(r)]
    for b in range(sdim):
        exps = {tau_names[b]: 1}
        exps.update((q_names[a], -v) for a, v in enumerate(leads[b]) if v)
        start.append(tgt.scaled(exps))
    w0 = min(Fraction(tgt.weight(e), tgt.lcm) for e in start)
    need = order - w0               # U_i to this order gives Y_i to `order`
    H = list(log_corrections) + corrections
    euler = [[(c, _euler(h, c)) for c in range(rp) if any(e[c] for e in h.num)]
             for h in H]

    def ladder_at(U) -> PowerLadder:
        return PowerLadder({name: _shift(series_exp(u), e0)
                            for name, e0, u in zip(src.names, start, U)})

    def times_L(x, sign):
        # L x for sign 1, L^{-1} x for sign -1
        out = list(x)
        for b, vb in enumerate(leads):
            for a, v in enumerate(vb):
                if v:
                    out[r + b] = out[r + b] + x[a].scale(sign * v)
        return out

    def residual(ladder, U, p):
        """F(U) to order p, and the series 1 + C_b(Y)."""
        F, units = times_L(U, 1), []
        for i, h in enumerate(H):
            hy = substitute(h, ladder, p)
            if i >= r:
                v = hy.valuation()
                if v is not None and v <= 0:
                    raise InversionNotConverged(
                        f"tau relation {i - r + 1} has a term of weight {v} <= 0")
                units.append(hy + 1)
                hy = series_log(units[-1])
            F[i] = F[i] + hy
        return F, units

    def newton_step(ladder, F, units, p, mu):
        """delta with (L + D) delta = -F to order p, F of valuation mu."""
        D = []
        for i, entries in enumerate(euler):
            if i >= r and entries:
                inv = series_pow(units[i - r].truncate(p - mu), -1)
            for c, dh in entries:
                d = substitute(dh, ladder, p - mu)
                if i >= r:
                    d = d * inv
                if d.num:
                    if d.valuation() <= 0:
                        raise InversionNotConverged(
                            f"Jacobian has a term of weight {d.valuation()} <= 0")
                    D.append((i, c, d))
        # every pass raises the valuation of t by at least that of D, so
        # t vanishes at order p after finitely many passes
        t = times_L([-f.truncate(p) for f in F], -1)
        delta = t
        while True:
            Dt = [PuiseuxSeries.zero(tgt, p)] * rp
            for i, c, d in D:
                if t[c].num:
                    Dt[i] = Dt[i] + d._product(t[c], p)
            t = times_L([-x for x in Dt], -1)
            if not any(x.num for x in t):
                return delta
            delta = [a + b for a, b in zip(delta, t)]

    U = [PuiseuxSeries.zero(tgt, need)] * rp
    work = p = need
    last_mu = None
    while True:
        # U is read as a polynomial, known to any order
        U = [u.truncate(p) for u in U]
        ladder = ladder_at(U)
        F, units = residual(ladder, U, p)
        reached = min(f.order for f in F)
        F = [f.truncate(reached) for f in F]
        if not any(f.num for f in F):
            if reached >= need:
                return [ladder.images[n].truncate(order) for n in src.names]
            if p < work:
                p = min(work, 2 * p)
                continue
            if work > need:
                raise InversionNotConverged(
                    f"inverse reaches order {reached + w0}, below the "
                    f"requested {order}")
            work = p = work + need - reached
            continue
        mu = min(f.valuation() for f in F if f.num)
        if mu <= 0:
            raise InversionNotConverged(f"residual has a term of weight {mu} <= 0")
        if last_mu is not None and mu <= last_mu:
            raise InversionNotConverged(
                f"a Newton step left the residual at weight {mu}")
        last_mu = mu
        s = min(2 * mu, reached)
        delta = newton_step(ladder, F, units, s, mu)
        U = [u + d for u, d in zip(U, delta)]
        p = min(work, 2 * s)


# -- JSON output -------------------------------------------------------


def _frac_str(f: Fraction | int) -> str:
    """A Fraction or an int as "p/q", or as "p" when it is integral."""
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def series_to_json(s: PuiseuxSeries) -> dict:
    terms = []
    for e, c in s.sorted_terms():
        terms.append({"exp": [_frac_str(x) for x in e], "coef": _frac_str(c)})
    return {
        "vars": list(s.roster.names),
        "denoms": list(s.roster.denoms),
        "formal": list(s.roster.formal),
        "order": _frac_str(s.order),
        "terms": terms,
    }
