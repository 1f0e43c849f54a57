//! Exact numeric foundations for the hourglass-iolb workspace.
//!
//! I/O lower-bound derivation manipulates *exact* quantities: Brascamp–Lieb
//! exponents are rational numbers produced by a linear program, Faulhaber
//! summation needs Bernoulli-style rational coefficients, and the subgroup
//! rank conditions of the Brascamp–Lieb theorem need exact linear algebra.
//! Floating point would silently destroy tightness proofs, so this crate
//! provides:
//!
//! * [`Rational`] — exact rationals over `i128` with overflow-checked
//!   arithmetic (the derivations in this workspace stay far below the
//!   overflow range; overflow panics loudly instead of corrupting a bound),
//! * [`QMatrix`] — dense matrices over `Rational` with Gaussian elimination,
//!   rank and solving (used for the subgroup rank checks),
//! * [`simplex`] — an exact two-phase simplex solver with Bland's rule,
//!   used to optimize Brascamp–Lieb exponents.

pub mod matrix;
pub mod rational;
pub mod simplex;

pub use matrix::QMatrix;
pub use rational::Rational;
pub use simplex::{LinearProgram, LpOutcome, Objective};

/// Greatest common divisor of two `i128`s (absolute values).
///
/// `gcd(0, 0) == 0` by convention.
pub fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Exact binomial coefficient `C(n, k)` as `i128`.
///
/// Panics on overflow; the Faulhaber machinery only needs small `n`.
pub fn binomial(n: u32, k: u32) -> i128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: i128 = 1;
    for i in 0..k {
        num = num.checked_mul((n - i) as i128).expect("binomial overflow");
        num /= (i + 1) as i128; // exact: product of j consecutive ints divisible by j!
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(0, 7), 7);
        assert_eq!(gcd_i128(12, 18), 6);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(gcd_i128(17, 5), 1);
    }

    #[test]
    fn binomial_small() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(10, 11), 0);
        assert_eq!(binomial(20, 10), 184_756);
    }

    #[test]
    fn binomial_row_sums() {
        for n in 0..30u32 {
            let sum: i128 = (0..=n).map(|k| binomial(n, k)).sum();
            assert_eq!(sum, 1i128 << n);
        }
    }
}
