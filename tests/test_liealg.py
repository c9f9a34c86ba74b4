import unittest
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np

from prodexp.liealg import (
    E, F, H, QC, QC_I, FourierVectorField, LoopAlgebraElement, bracket,
    vect_cocycle_integral, loop_cocycle, seminorm, sl2_bracket, sl2_inner,
)

# exact Gaussian-rational coefficients, fields and sl2 loops with few modes
_RAT = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_QC = st.builds(QC, _RAT, _RAT)
_FIELD = st.dictionaries(st.integers(-4, 4), _QC, max_size=3).map(
    FourierVectorField)
_SL2_VECTOR = st.tuples(_QC, _QC, _QC)
_LOOP = st.dictionaries(st.integers(-3, 3), _SL2_VECTOR, max_size=3).map(
    LoopAlgebraElement)


def random_field(rng, max_mode=4, nterms=4):
    """Random field with Gaussian-rational coefficients (exact arithmetic)."""
    coeffs = {}
    for _ in range(nterms):
        n = int(rng.integers(-max_mode, max_mode + 1))
        coeffs[n] = QC(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                       Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
    return FourierVectorField(coeffs)


class TestQC(unittest.TestCase):

    def test_field_axioms(self):
        a = QC(Fraction(1, 2), Fraction(-3, 4))
        b = QC(2, Fraction(1, 3))
        self.assertEqual(a * b - b * a, QC(0))
        self.assertEqual((a / b) * b, a)
        self.assertEqual(a * a.conjugate(),
                         QC(Fraction(1, 4) + Fraction(9, 16)))

    def test_complex_conversion(self):
        self.assertEqual(complex(QC(1, -2)), 1 - 2j)
        self.assertAlmostEqual(abs(QC(3, 4)), 5.0)


class TestBracket(unittest.TestCase):

    def test_e1_em1(self):
        # [e_1, e_-1] = 2i e_0
        f = FourierVectorField.basis(1, QC(1))
        g = FourierVectorField.basis(-1, QC(1))
        self.assertEqual(bracket(f, g), FourierVectorField({0: QC(0, 2)}))

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f, g = random_field(rng), random_field(rng)
            self.assertEqual(bracket(f, g) + bracket(g, f),
                             FourierVectorField())
            self.assertEqual(bracket(f, f), FourierVectorField())

    def test_l_basis_commutator(self):
        # [L_2, L_-1] = 3 L_1 with L_n = -i e_n
        L = {n: FourierVectorField.basis(n, QC(0, -1)) for n in (2, 1, -1)}
        self.assertEqual(bracket(L[2], L[-1]), 3 * L[1])

    def test_jacobi(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f, g, h = (random_field(rng, nterms=3) for _ in range(3))
            total = (bracket(bracket(f, g), h)
                     + bracket(bracket(g, h), f)
                     + bracket(bracket(h, f), g))
            self.assertEqual(total, FourierVectorField())

    def test_against_symbolic_differentiation(self):
        # independent oracle: expand (f'g - fg') with sympy
        import sympy
        theta = sympy.symbols("theta", real=True)
        rng = np.random.default_rng(23)
        for _ in range(5):
            f = random_field(rng, max_mode=3, nterms=3)
            g = random_field(rng, max_mode=3, nterms=3)
            fs = sum(complex(a) * sympy.exp(sympy.I * n * theta)
                     for n, a in f.coeffs.items())
            gs = sum(complex(a) * sympy.exp(sympy.I * n * theta)
                     for n, a in g.coeffs.items())
            hs = sympy.diff(fs, theta) * gs - fs * sympy.diff(gs, theta)
            got = bracket(f, g)
            for th in np.linspace(0.1, 6.0, 7):
                want = complex(hs.subs(theta, th).evalf())
                val = sum(complex(a) * np.exp(1j * n * th)
                          for n, a in got.coeffs.items())
                self.assertAlmostEqual(val, want, places=9)

    def test_mixed_pair_names_both_types(self):
        f = FourierVectorField({1: 0.5, -1: 0.5})
        x = LoopAlgebraElement({1: (1.0, 0, 0)})
        for a, b in ((f, x), (x, f)):
            with self.assertRaisesRegex(
                    TypeError, "FourierVectorField.*LoopAlgebraElement|"
                    "LoopAlgebraElement.*FourierVectorField"):
                bracket(a, b)


class TestCocycles(unittest.TestCase):

    def test_virasoro_values(self):
        # i B(L_m, L_{-m}) = (m^3 - m)/12 with L_n = -i e_n
        L = {n: FourierVectorField.basis(n, QC(0, -1)) for n in (-2, -1, 1, 2)}
        self.assertEqual(QC_I * vect_cocycle_integral(L[2], L[-2]),
                         QC(Fraction(1, 2)))
        self.assertEqual(QC_I * vect_cocycle_integral(L[1], L[-1]), QC(0))

    def test_antisymmetry_and_reality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, g = random_field(rng), random_field(rng)
            self.assertEqual(vect_cocycle_integral(f, g)
                             + vect_cocycle_integral(g, f), QC(0))
            self.assertEqual(vect_cocycle_integral(f, f), QC(0))
        # real on real fields (raw integral normalisation)
        u = FourierVectorField({2: QC(1), -2: QC(1)})
        v = FourierVectorField({2: QC(0, 1), -2: QC(0, -1)})
        w = vect_cocycle_integral(u, v)
        self.assertEqual(w.im, 0)
        self.assertNotEqual(w.re, 0)

    def test_two_cocycle_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y, z = (random_field(rng, nterms=3) for _ in range(3))
            total = (vect_cocycle_integral(bracket(x, y), z)
                     + vect_cocycle_integral(bracket(y, z), x)
                     + vect_cocycle_integral(bracket(z, x), y))
            self.assertEqual(total, QC(0))

    def test_float_weights_match_fraction_weights(self):
        # float and complex fields take the float weight (m^3 - m)/12,
        # which gives the Fraction-weight mode sum bit for bit (signed
        # zeros included); exact fields stay exact
        def fraction_weighted(f, g):
            total = 0
            for m, a in f.coeffs.items():
                b = g.coeffs.get(-m)
                if b is not None:
                    total = total + 1j * (Fraction(m ** 3 - m, 12) * a * b)
            return total

        rng = np.random.default_rng(11)
        modes = np.arange(-6, 7)
        for _ in range(40):
            re, im = rng.normal(size=(2, 2, len(modes)))
            for amp in (re, re + 1j * im, re.tolist(), (re + 1j * im).tolist()):
                f, g = (FourierVectorField(dict(zip(modes.tolist(), row)))
                        for row in amp)
                self.assertEqual(repr(vect_cocycle_integral(f, g)),
                                 repr(fraction_weighted(f, g)))
        f = FourierVectorField({3: Fraction(1, 3), -2: 1})
        g = FourierVectorField({-3: QC(2, 1), 2: QC(0, 1)})
        self.assertEqual(vect_cocycle_integral(f, g),
                         QC(Fraction(-1, 6), Fraction(4, 3)))

    def test_loop_cocycle_central_term(self):
        # i * B_raw(x(m), y(-m)) = m <x,y> for all |m| <= 8 and basis pairs
        for m in range(-8, 9):
            for i in range(3):
                for j in range(3):
                    x = LoopAlgebraElement.single(i, m, QC(1))
                    y = LoopAlgebraElement.single(j, -m, QC(1))
                    ei = [0, 0, 0]; ei[i] = 1
                    ej = [0, 0, 0]; ej[j] = 1
                    want = m * sl2_inner(ei, ej)
                    self.assertEqual(QC_I * loop_cocycle(x, y), QC(want))

    def test_loop_cocycle_zero_cases(self):
        x0 = LoopAlgebraElement.single(H, 0, QC(1))  # h(0), real constant loop
        self.assertEqual(loop_cocycle(x0, x0), QC(0))
        x = LoopAlgebraElement.single(E, 1, QC(1))
        y = LoopAlgebraElement.single(F, 2, QC(1))
        self.assertEqual(loop_cocycle(x, y), QC(0))


class TestCentralBracket(unittest.TestCase):
    """[X + tc, Y + sc] = [X, Y] + B(X, Y) c, checked on its two parts: the
    bracket of the base algebra and the cocycle B."""

    def test_virasoro_example(self):
        # [L_2, L_-2] = 4 L_0 + c/2 with L_n = -i e_n
        L2, L0, Lm2 = (FourierVectorField.basis(n, QC(0, -1))
                       for n in (2, 0, -2))
        self.assertEqual(bracket(L2, Lm2), 4 * L0)
        self.assertEqual(QC_I * vect_cocycle_integral(L2, Lm2),
                         QC(Fraction(1, 2)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_FIELD, _FIELD, _FIELD)
    def test_jacobi_with_center(self, x, y, z):
        # Jacobi of the bracket; antisymmetry and 2-cocycle identity of B
        self.assertEqual(bracket(bracket(x, y), z)
                         + bracket(bracket(y, z), x)
                         + bracket(bracket(z, x), y),
                         FourierVectorField())
        self.assertEqual(vect_cocycle_integral(x, y)
                         + vect_cocycle_integral(y, x), QC(0))
        self.assertEqual(vect_cocycle_integral(bracket(x, y), z)
                         + vect_cocycle_integral(bracket(y, z), x)
                         + vect_cocycle_integral(bracket(z, x), y),
                         QC(0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_LOOP, _LOOP, _LOOP)
    def test_affine_jacobi(self, x, y, z):
        # the same three identities for sl2 loops and the loop cocycle
        total = (bracket(bracket(x, y), z)
                 + bracket(bracket(y, z), x)
                 + bracket(bracket(z, x), y))
        self.assertEqual(total.coeffs, {})
        self.assertEqual(loop_cocycle(x, y) + loop_cocycle(y, x), QC(0))
        self.assertEqual(loop_cocycle(bracket(x, y), z)
                         + loop_cocycle(bracket(y, z), x)
                         + loop_cocycle(bracket(z, x), y), QC(0))


class TestSeminorms(unittest.TestCase):

    def test_spec_values(self):
        x = FourierVectorField({1: 1.0, -1: 1.0})
        self.assertAlmostEqual(seminorm(x, 0), 2.0)
        self.assertAlmostEqual(seminorm(x, 1), 4.0)
        self.assertEqual(seminorm(FourierVectorField(), 3), 0)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = FourierVectorField(
                {int(rng.integers(-6, 7)): complex(*rng.normal(size=2))
                 for _ in range(5)})
            vals = [seminorm(x, s) for s in np.arange(0, 6.5, 0.5)]
            self.assertTrue(all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])))

    def test_subadditive_homogeneous(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            x = FourierVectorField({int(rng.integers(-5, 6)): complex(*rng.normal(size=2))
                                    for _ in range(4)})
            y = FourierVectorField({int(rng.integers(-5, 6)): complex(*rng.normal(size=2))
                                    for _ in range(4)})
            s = float(rng.uniform(0, 3))
            self.assertLessEqual(seminorm(x + y, s),
                                 seminorm(x, s) + seminorm(y, s) + 1e-12)
            self.assertAlmostEqual(seminorm(2.5 * x, s), 2.5 * seminorm(x, s))

    def test_dtheta_bracket_norm(self):
        # the |[L_0, X]| weight is the seminorm of the mode derivative
        def dtheta_bracket_norm(x, s):
            return seminorm(x.mode_derivative(), s)

        self.assertEqual(dtheta_bracket_norm(FourierVectorField.basis(0, 1.0), 2), 0)
        x = FourierVectorField.basis(1, 1.0)
        # derivative scales the single mode by n=1
        self.assertAlmostEqual(dtheta_bracket_norm(x, 2), seminorm(x, 2))
        y = FourierVectorField({3: 0.5, -2: 1.0})
        self.assertAlmostEqual(dtheta_bracket_norm(y, 1),
                               seminorm(FourierVectorField({3: 1.5, -2: -2.0}), 1))

    def test_loop_seminorm(self):
        # h(1): coefficient norm sqrt(tr(h h^dagger)) = sqrt(2)
        x = LoopAlgebraElement.single(H, 1, 1.0)
        self.assertAlmostEqual(seminorm(x, 1), 2 * np.sqrt(2))


class TestSl2(unittest.TestCase):

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_SL2_VECTOR, _SL2_VECTOR, _SL2_VECTOR)
    def test_sl2_validates(self, x, y, z):
        # antisymmetry, Jacobi and invariance of the inner product
        br, ip = sl2_bracket, sl2_inner
        self.assertTrue(all(a + b == 0 for a, b in zip(br(x, y), br(y, x))))
        jac = [a + b + c for a, b, c in zip(br(br(x, y), z), br(br(y, z), x),
                                            br(br(z, x), y))]
        self.assertTrue(all(a == 0 for a in jac))
        self.assertEqual(ip(br(z, x), y) + ip(x, br(z, y)), 0)
        # <h,h> = 2, <e,f> = 1
        self.assertEqual(sl2_inner((0, 1, 0), (0, 1, 0)), 2)
        self.assertEqual(sl2_inner((1, 0, 0), (0, 0, 1)), 1)

    def test_brackets(self):
        e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        self.assertEqual(sl2_bracket(h, e), (2, 0, 0))
        self.assertEqual(sl2_bracket(h, f), (0, 0, -2))
        self.assertEqual(sl2_bracket(e, f), (0, 1, 0))

    def test_bracket_adds_loop_modes(self):
        x = LoopAlgebraElement.single(E, 2, QC(1))   # e(2)
        y = LoopAlgebraElement.single(F, -1, QC(1))  # f(-1)
        out = bracket(x, y)
        self.assertEqual(out.coeffs, {1: (QC(0), QC(1), QC(0))})  # h(1)

    def test_elements_are_plain_values(self):
        # elements built apart combine: no shared algebra object is needed
        x = LoopAlgebraElement.single(E, 1, QC(1))          # e(1)
        y = LoopAlgebraElement({-1: (0, 0, QC(1))})        # f(-1)
        self.assertEqual((x + y).coeffs, {1: (QC(1), 0, 0),
                                          -1: (0, 0, QC(1))})
        self.assertEqual(bracket(x, y).coeffs,
                         {0: (0, QC(1), 0)})                # h(0)
        self.assertEqual(loop_cocycle(x, y), QC(0, -1))     # -i <e, f>
        with self.assertRaisesRegex(ValueError, "mode 2"):
            LoopAlgebraElement({2: (1, 0)})

    def test_elements_compare_by_value(self):
        x = LoopAlgebraElement({1: (1, 0, 0), -1: (0, 0, QC(1))})
        self.assertEqual(x, LoopAlgebraElement({-1: (0, 0, 1), 1: (1, 0, 0)}))
        self.assertEqual(x + x - x, x)
        self.assertNotEqual(x, LoopAlgebraElement({1: (1, 0, 0)}))
        self.assertNotEqual(x, LoopAlgebraElement({2: (1, 0, 0),
                                                   -1: (0, 0, 1)}))
        self.assertIs(x.__eq__(FourierVectorField({1: 1})), NotImplemented)


if __name__ == "__main__":
    unittest.main()
