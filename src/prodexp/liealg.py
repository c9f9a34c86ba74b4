"""Coefficient-level arithmetic for circle vector fields and sl2
loop-algebra elements.

Both are finite mode sums sum_n c_n e^{in theta}, stored as {n: c_n}
with the zero coefficients dropped.  Their arithmetic (sums, scalar
multiples, mode derivative, equality) is written once, in `_ModeSum`;
the two kinds differ only in their coefficient:

* a vector field X = sum_n a_n e_n, e_n = e^{i n theta} d/dtheta, has
  complex amplitudes a_n.  The basis of the (centrally extended) Witt
  algebra used elsewhere is L_n = -i e_n, so that e_n = i L_n;
* a loop element sum_n x_n e^{in theta} has coefficient vectors x_n in
  the Chevalley basis (e, h, f) of sl2, the one finite Lie algebra here;
  its bracket, invariant form and Hermitian norm are closed forms
  (`sl2_bracket`, `sl2_inner`, `sl2_norm`).

Coefficients may be ordinary complex numbers or exact Gaussian rationals
(`QC`), which the algebraic identity tests rely on.
"""

from __future__ import annotations

from fractions import Fraction
import numbers
import operator


# ---------------------------------------------------------------------------
# exact complex rationals


class QC:
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x)
        return NotImplemented

    def __add__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def conjugate(self):
        return QC(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, numbers.Complex):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


QC_I = QC(0, 1)


def _is_zero(x):
    if isinstance(x, QC):
        return not bool(x)
    return x == 0


def _mul_i(x):
    """i * x without forcing exact coefficients to float."""
    if isinstance(x, QC):
        return QC_I * x
    if isinstance(x, (int, Fraction)):
        return QC(0, x)
    return 1j * x


# ---------------------------------------------------------------------------
# mode sums and vector fields on the circle


class _ModeSum:
    """Finite mode sum sum_n c_n e^{in theta}; zero coefficients are
    dropped.  A subclass names its coefficient's zero test `_zero`, sum
    `_sum`, scalar multiple `_scale(scalar, c)` and norm `_norm`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            zero = self._zero
            for n, c in coeffs.items():
                if not zero(c):
                    self.coeffs[int(n)] = c

    def _sum_terms(self, out, terms):
        """The element of this kind that adds the (mode, coefficient) pairs
        `terms` to the modes `out`."""
        add = self._sum
        for n, c in terms:
            out[n] = add(out[n], c) if n in out else c
        return type(self)(out)

    def mode_derivative(self):
        """Element with mode data n*c_n (the bracket with L_0, up to i)."""
        return type(self)(
            {n: self._scale(n, c) for n, c in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._sum_terms(dict(self.coeffs), other.coeffs.items())

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scale = self._scale
        return type(self)({n: scale(scalar, c) for n, c in self.coeffs.items()})

    __mul__ = __rmul__

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).coeffs == {}

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class FourierVectorField(_ModeSum):
    """Trigonometric-polynomial vector field sum_n a_n e^{in theta} d/dtheta."""

    __slots__ = ()

    _zero = staticmethod(_is_zero)
    _sum = staticmethod(operator.add)
    _scale = staticmethod(operator.mul)
    _norm = staticmethod(abs)

    @classmethod
    def basis(cls, n, amplitude=1):
        return cls({n: amplitude})


def vect_cocycle_integral(f, g):
    """The Gelfand-Fuks integral (1/12) int_0^{2pi} (f''+f) g' dtheta/2pi.

    Mode sum: (i/12) sum_m a_m b_{-m} (m^3 - m).  Real-valued on pairs of
    real fields; this raw normalisation is the projective defect cocycle
    (up to the module's central charge).  Exact coefficients give an
    exact value; for a float or complex a_m the weight is the float
    (m^3 - m)/12, which multiplies a_m exactly as the Fraction would.
    """
    total = 0
    for m, a in f.coeffs.items():
        b = g.coeffs.get(-m)
        if b is not None:
            w = ((m ** 3 - m) / 12 if isinstance(a, (float, complex))
                 else Fraction(m ** 3 - m, 12))
            total = total + _mul_i(w * a * b)
    return total


def seminorm(x, s):
    """Goodman-Wallach weight sum_n (1+|n|)^s |c_n| (vect or loop element)."""
    norm = x._norm
    return sum((1 + abs(n)) ** s * norm(c) for n, c in x.coeffs.items())


# ---------------------------------------------------------------------------
# sl2 and its loop elements


# sl2 in the Chevalley basis (e, h, f): the index of each coefficient
E, H, F = 0, 1, 2
DIM_G = 3
H_VEE = 2              # dual Coxeter number


def sl2_bracket(x, y):
    """Bracket of coefficient vectors: [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    e1, h1, f1 = x
    e2, h2, f2 = y
    return (2 * (h1 * e2 - e1 * h2), e1 * f2 - f1 * e2, 2 * (f1 * h2 - h1 * f2))


def sl2_inner(x, y):
    """The basic inner product, the trace form of the defining
    representation: <h,h> = 2, <e,f> = 1, so the highest root has squared
    length 2."""
    return x[E] * y[F] + 2 * x[H] * y[H] + x[F] * y[E]


def sl2_norm(x):
    """Hermitian norm tr(x x^dagger) ** 1/2 in the defining representation,
    where e^dagger = f and h^dagger = h."""
    total = 0.0
    for a, w in zip(x, (1.0, 2.0, 1.0)):
        a = complex(a)
        total += (a.conjugate() * w * a).real
    return total ** 0.5


class LoopAlgebraElement(_ModeSum):
    """Element sum_n x_n otimes e^{in theta} of the polynomial loop algebra
    of sl2, x_n a coefficient vector (e, h, f)."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        coeffs = {n: tuple(v) for n, v in (coeffs or {}).items()}
        for n, v in coeffs.items():
            if len(v) != DIM_G:
                raise ValueError(f"mode {n}: coefficient vector of "
                                 f"length {len(v)}, not {DIM_G}")
        super().__init__(coeffs)

    _zero = staticmethod(lambda v: all(_is_zero(a) for a in v))
    _sum = staticmethod(lambda v, w: tuple(a + b for a, b in zip(v, w)))
    _scale = staticmethod(lambda scalar, v: tuple(scalar * a for a in v))
    _norm = staticmethod(sl2_norm)

    @classmethod
    def single(cls, index, n, amplitude=1):
        """x_index(n): basis element index at mode n."""
        v = [0] * DIM_G
        v[index] = amplitude
        return cls({n: tuple(v)})


def bracket(x, y):
    """Lie bracket of two vector fields or two loop elements, without
    the central term.

    Vector fields: [f d/dtheta, g d/dtheta] = (f'g - fg') d/dtheta.
    Loop elements: [x(m), y(n)] = [x,y](m+n).
    """
    if type(x) is not type(y):
        raise TypeError(f"no bracket of {type(x).__name__} with "
                        f"{type(y).__name__}")
    vect = isinstance(x, FourierVectorField)
    # (e^{im})' e^{in} - e^{im} (e^{in})' = i(m-n) e^{i(m+n)}
    return x._sum_terms({}, (
        (m + n, _mul_i((m - n) * a * b) if vect else sl2_bracket(a, b))
        for m, a in x.coeffs.items() for n, b in y.coeffs.items()))


def loop_cocycle(x, y):
    """int_0^{2pi} <X, Y'> dtheta/2pi = -i sum_m m <x_m, y_{-m}>."""
    total = 0
    for m, v in x.coeffs.items():
        w = y.coeffs.get(-m)
        if w is not None:
            total = total + _mul_i(-m * sl2_inner(v, w))
    return total
