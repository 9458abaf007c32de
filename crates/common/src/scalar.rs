//! Generic scalar abstraction over real and complex floating point types.
//!
//! The reproduced paper solves two kinds of systems: real symmetric ones
//! (the academic *pipe* test case, factored with LDLᵀ) and complex
//! non-symmetric ones (the industrial aircraft case, factored with LU).
//! Every kernel in this workspace is therefore generic over [`Scalar`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real number trait: the type of norms, singular values and tolerances.
pub trait RealScalar:
    Copy
    + Send
    + Sync
    + 'static
    + fmt::Debug
    + fmt::Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    const RZERO: Self;
    const RONE: Self;
    /// Machine epsilon of the underlying precision.
    const EPSILON: Self;

    fn rsqrt_val(self) -> Self;
    fn rabs(self) -> Self;
    fn rmax(self, other: Self) -> Self;
    fn rmin(self, other: Self) -> Self;
    fn to_f64(self) -> f64;
    fn from_f64_real(v: f64) -> Self;
    fn is_finite_real(self) -> bool;
}

macro_rules! impl_real {
    ($t:ty) => {
        impl RealScalar for $t {
            const RZERO: Self = 0.0;
            const RONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline]
            fn rsqrt_val(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn rabs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn rmax(self, other: Self) -> Self {
                if self > other {
                    self
                } else {
                    other
                }
            }
            #[inline]
            fn rmin(self, other: Self) -> Self {
                if self < other {
                    self
                } else {
                    other
                }
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64_real(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn is_finite_real(self) -> bool {
                self.is_finite()
            }
        }
    };
}

impl_real!(f64);

/// Field scalar used throughout the solver stack.
///
/// Implemented for `f64` and [`C64`]. The `conj`/`herm` distinction
/// matters: the paper's LDLᵀ factorizations of *complex symmetric* matrices
/// use the plain (non-conjugated) transpose, whereas norms and stability
/// checks use moduli.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + 'static
    + fmt::Debug
    + fmt::Display
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    type Real: RealScalar;

    const ZERO: Self;
    const ONE: Self;
    /// `true` when the type carries an imaginary part.
    const IS_COMPLEX: bool;

    fn from_real(r: Self::Real) -> Self;
    fn from_f64(v: f64) -> Self;
    /// Build a scalar from real and imaginary parts (imaginary part ignored
    /// for real types).
    fn from_parts(re: Self::Real, im: Self::Real) -> Self;
    fn real(self) -> Self::Real;
    fn imag(self) -> Self::Real;
    fn conj(self) -> Self;
    /// Modulus |x|.
    fn abs(self) -> Self::Real;
    /// Squared modulus |x|².
    fn abs2(self) -> Self::Real;
    /// Principal square root.
    fn sqrt(self) -> Self;
    fn recip(self) -> Self;
    fn is_finite(self) -> bool;
    /// Uniform random value with entries in (-1, 1), used by tests and the
    /// randomized workload generators.
    fn rand_unit<R: rand::Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_scalar_real {
    ($t:ty) => {
        impl Scalar for $t {
            type Real = $t;

            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const IS_COMPLEX: bool = false;

            #[inline]
            fn from_real(r: Self::Real) -> Self {
                r
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn from_parts(re: Self::Real, _im: Self::Real) -> Self {
                re
            }
            #[inline]
            fn real(self) -> Self::Real {
                self
            }
            #[inline]
            fn imag(self) -> Self::Real {
                0.0
            }
            #[inline]
            fn conj(self) -> Self {
                self
            }
            #[inline]
            fn abs(self) -> Self::Real {
                <$t>::abs(self)
            }
            #[inline]
            fn abs2(self) -> Self::Real {
                self * self
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn recip(self) -> Self {
                1.0 / self
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn rand_unit<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
                rng.random_range(-1.0..1.0) as $t
            }
        }
    };
}

impl_scalar_real!(f64);

/// Minimal complex number type (we implement it ourselves rather than pull in
/// `num-complex`; the operation set required by the solvers is small).
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    pub re: T,
    pub im: T,
}

pub type C64 = Complex<f64>;

impl<T: RealScalar> Complex<T> {
    #[inline]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }
}

impl<T: fmt::Debug> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}+{:?}i)", self.re, self.im)
    }
}

impl<T: fmt::Display> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}+{}i)", self.re, self.im)
    }
}

impl<T: RealScalar> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }
}

impl<T: RealScalar> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}

impl<T: RealScalar> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl<T: RealScalar> Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        // Smith's algorithm: avoids overflow for widely scaled operands.
        if o.re.rabs() >= o.im.rabs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            Self::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            Self::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl<T: RealScalar> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: RealScalar> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl<T: RealScalar> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl<T: RealScalar> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, o: Self) {
        *self = *self * o;
    }
}

impl<T: RealScalar> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Complex::new(T::RZERO, T::RZERO), |a, b| a + b)
    }
}

macro_rules! impl_scalar_complex {
    ($re:ty) => {
        impl Scalar for Complex<$re> {
            type Real = $re;

            const ZERO: Self = Complex { re: 0.0, im: 0.0 };
            const ONE: Self = Complex { re: 1.0, im: 0.0 };
            const IS_COMPLEX: bool = true;

            #[inline]
            fn from_real(r: Self::Real) -> Self {
                Complex::new(r, 0.0)
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                Complex::new(v as $re, 0.0)
            }
            #[inline]
            fn from_parts(re: Self::Real, im: Self::Real) -> Self {
                Complex::new(re, im)
            }
            #[inline]
            fn real(self) -> Self::Real {
                self.re
            }
            #[inline]
            fn imag(self) -> Self::Real {
                self.im
            }
            #[inline]
            fn conj(self) -> Self {
                Complex::new(self.re, -self.im)
            }
            #[inline]
            fn abs(self) -> Self::Real {
                // hypot avoids overflow/underflow for extreme magnitudes.
                self.re.hypot(self.im)
            }
            #[inline]
            fn abs2(self) -> Self::Real {
                self.re * self.re + self.im * self.im
            }
            #[inline]
            fn sqrt(self) -> Self {
                // Principal branch via the half-angle formulas.
                let m = self.abs();
                if m == 0.0 {
                    return Complex::new(0.0, 0.0);
                }
                let re = ((m + self.re) / 2.0).sqrt();
                let im_mag = ((m - self.re) / 2.0).sqrt();
                let im = if self.im >= 0.0 { im_mag } else { -im_mag };
                Complex::new(re, im)
            }
            #[inline]
            fn recip(self) -> Self {
                Self::ONE / self
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.re.is_finite() && self.im.is_finite()
            }
            #[inline]
            fn rand_unit<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
                Complex::new(
                    rng.random_range(-1.0..1.0) as $re,
                    rng.random_range(-1.0..1.0) as $re,
                )
            }
        }
    };
}

impl_scalar_complex!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs() + b.abs())
    }

    #[test]
    fn complex_field_axioms() {
        let a = C64::new(1.5, -2.25);
        let b = C64::new(-0.75, 4.0);
        let ab = a * b;
        assert!(close(ab.re, 1.5 * -0.75 - -2.25 * 4.0));
        assert!(close(ab.im, 1.5 * 4.0 + -2.25 * -0.75));
        let q = ab / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
    }

    #[test]
    fn complex_division_smith_stability() {
        // Naive division would overflow here; Smith's algorithm must not.
        let big = 1e300;
        let a = C64::new(big, big);
        let b = C64::new(big, big * 0.5);
        let q = a / b;
        assert!(q.re.is_finite() && q.im.is_finite());
        let back = q * b;
        assert!((back.re - a.re).abs() / big < 1e-10);
    }

    #[test]
    fn complex_sqrt_principal_branch() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (3.0, 4.0),
            (0.0, -2.0),
            (-1.0, -1.0),
        ] {
            let z = C64::new(re, im);
            let s = z.sqrt();
            let sq = s * s;
            assert!(close(sq.re, re), "sq.re for {z:?}");
            assert!(close(sq.im, im), "sq.im for {z:?}");
            assert!(s.re >= 0.0, "principal branch for {z:?}");
        }
    }

    #[test]
    fn conj_and_abs2_agree() {
        let z = C64::new(3.0, -4.0);
        let zz = z * z.conj();
        assert!(close(zz.re, z.abs2()));
        assert!(close(zz.im, 0.0));
        assert!(close(z.abs(), 5.0));
    }

    #[test]
    fn real_scalar_is_its_own_conjugate() {
        let x: f64 = -7.5;
        assert_eq!(x.conj(), x);
        assert_eq!(Scalar::abs(x), 7.5);
        assert_eq!(x.abs2(), 56.25);
        assert_eq!(x.imag(), 0.0);
    }

    #[test]
    fn from_parts_roundtrip() {
        let z = C64::from_parts(2.0, -3.0);
        assert_eq!(z.real(), 2.0);
        assert_eq!(z.imag(), -3.0);
        let r = f64::from_parts(2.0, -3.0);
        assert_eq!(r, 2.0);
    }

    #[test]
    fn rand_unit_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let z = C64::rand_unit(&mut rng);
            assert!(z.re.abs() < 1.0 && z.im.abs() < 1.0);
            let x = f64::rand_unit(&mut rng);
            assert!(x.abs() < 1.0);
        }
    }

    #[test]
    fn recip_is_inverse() {
        let z = C64::new(0.5, -1.25);
        let w = z * z.recip();
        assert!(close(w.re, 1.0) && close(w.im, 0.0));
    }
}
