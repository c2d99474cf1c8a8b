//! Arithmetic in the secp256k1 base field
//! `F_p`, `p = 2^256 − 2^32 − 977`.
//!
//! [`FieldElement`] values are always fully reduced. The implementation
//! uses 4×64-bit limbs with post-multiplication folding (see the
//! crate's private `arith` module).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

use crate::arith;

/// `p = 2^256 - 2^32 - 977`, little-endian limbs.
pub(crate) const P: [u64; 4] = [
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// `c = 2^256 - p = 2^32 + 977`.
const C: [u64; 4] = [0x1_0000_03D1, 0, 0, 0];

/// An element of the secp256k1 base field.
///
/// # Example
///
/// ```
/// use fides_crypto::field::FieldElement;
///
/// let a = FieldElement::from_u64(3);
/// let inv = a.invert().unwrap();
/// assert_eq!(a * inv, FieldElement::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FieldElement([u64; 4]);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);
    /// The curve constant `b = 7` of `y² = x³ + 7`.
    pub const SEVEN: FieldElement = FieldElement([7, 0, 0, 0]);

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Self {
        FieldElement([v, 0, 0, 0])
    }

    /// Constructs from raw little-endian limbs, reducing mod `p`.
    pub fn from_limbs(limbs: [u64; 4]) -> Self {
        let mut l = limbs;
        while arith::cmp4(&l, &P) != Ordering::Less {
            l = arith::sub4(&l, &P).0;
        }
        FieldElement(l)
    }

    /// Parses 32 big-endian bytes; returns `None` if the value is ≥ `p`
    /// (canonical encodings only).
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = arith::limbs_from_be_bytes(bytes);
        if arith::cmp4(&limbs, &P) == Ordering::Less {
            Some(FieldElement(limbs))
        } else {
            None
        }
    }

    /// Serializes as 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        arith::limbs_to_be_bytes(&self.0)
    }

    /// Returns `true` for the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        arith::is_zero4(&self.0)
    }

    /// Returns `true` if the canonical integer representative is odd.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self) -> Self {
        FieldElement(arith::reduce_wide(arith::sqr4(&self.0), &P, &C))
    }

    /// Raises to an arbitrary 256-bit power (little-endian limbs).
    pub fn pow(&self, exp: &[u64; 4]) -> Self {
        FieldElement(arith::pow_mod(&self.0, exp, &P, &C))
    }

    /// Multiplicative inverse via the safegcd (Bernstein–Yang) divstep
    /// algorithm (the private `safegcd` module); ~7× faster than the
    /// Fermat ladder. Returns `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        Some(FieldElement(crate::safegcd::modinv(&self.0, &P)))
    }

    /// Multiplicative inverse via Fermat's little theorem
    /// (`a^(p-2) mod p`) — the pre-safegcd reference path, kept for
    /// differential testing. Returns `None` for zero.
    #[doc(hidden)]
    pub fn invert_fermat(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let p_minus_2 = arith::sub4(&P, &[2, 0, 0, 0]).0;
        Some(self.pow(&p_minus_2))
    }

    /// Square root, if one exists. `p ≡ 3 (mod 4)`, so
    /// `sqrt(a) = a^((p+1)/4)` when `a` is a quadratic residue.
    pub fn sqrt(&self) -> Option<Self> {
        let (p_plus_1, carry) = arith::add4(&P, &[1, 0, 0, 0]);
        debug_assert_eq!(carry, 0);
        let exp = arith::shr4(&p_plus_1, 2);
        let candidate = self.pow(&exp);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Raw little-endian limbs (test support and debugging).
    #[doc(hidden)]
    pub fn limbs(&self) -> &[u64; 4] {
        &self.0
    }

    /// Inverts every non-zero element in place with a **single** field
    /// inversion (Montgomery's trick); zero elements are left as zero.
    ///
    /// This backs batch point normalization and batched affine
    /// addition: `N` inversions cost `3N` multiplications plus one real
    /// inversion.
    pub fn batch_invert(values: &mut [FieldElement]) {
        // Forward pass: prefix products of the non-zero entries.
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = FieldElement::ONE;
        for v in values.iter() {
            prefix.push(acc);
            if !v.is_zero() {
                acc = acc * *v;
            }
        }
        let Some(mut inv) = acc.invert() else {
            // Every entry was zero.
            return;
        };
        // Backward pass: peel one inverse off per entry.
        for (v, p) in values.iter_mut().zip(prefix.iter()).rev() {
            if v.is_zero() {
                continue;
            }
            let v_inv = inv * *p;
            inv = inv * *v;
            *v = v_inv;
        }
    }
}

impl Add for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn add(self, rhs: FieldElement) -> FieldElement {
        FieldElement(arith::add_mod(&self.0, &rhs.0, &P))
    }
}

impl Sub for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn sub(self, rhs: FieldElement) -> FieldElement {
        FieldElement(arith::sub_mod(&self.0, &rhs.0, &P))
    }
}

impl Mul for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn mul(self, rhs: FieldElement) -> FieldElement {
        FieldElement(arith::mul_mod(&self.0, &rhs.0, &P, &C))
    }
}

impl Neg for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn neg(self) -> FieldElement {
        FieldElement(arith::sub_mod(&[0, 0, 0, 0], &self.0, &P))
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldElement(0x{self})")
    }
}

impl fmt::Display for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn additive_identity() {
        let a = fe(12345);
        assert_eq!(a + FieldElement::ZERO, a);
        assert_eq!(a - a, FieldElement::ZERO);
    }

    #[test]
    fn multiplicative_identity() {
        let a = fe(98765);
        assert_eq!(a * FieldElement::ONE, a);
    }

    #[test]
    fn negation() {
        let a = fe(7);
        assert_eq!(a + (-a), FieldElement::ZERO);
        assert_eq!(-FieldElement::ZERO, FieldElement::ZERO);
    }

    #[test]
    fn wraparound_addition() {
        // (p - 1) + 2 = 1 mod p
        let p_minus_1 = FieldElement::from_limbs(arith::sub4(&P, &[1, 0, 0, 0]).0);
        assert_eq!(p_minus_1 + fe(2), FieldElement::ONE);
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6) * fe(7), fe(42));
    }

    #[test]
    fn square_matches_mul() {
        let a = FieldElement::from_limbs([u64::MAX, 123, u64::MAX, 0x7FFF_FFFF_FFFF_FFFF]);
        assert_eq!(a.square(), a * a);
    }

    #[test]
    fn inversion() {
        let a = fe(2);
        let inv = a.invert().unwrap();
        assert_eq!(a * inv, FieldElement::ONE);
        assert!(FieldElement::ZERO.invert().is_none());
    }

    #[test]
    fn inversion_large_value() {
        let a = FieldElement::from_limbs([0xDEAD_BEEF, 0xCAFE_BABE, 0x1234_5678, 0x0FED_CBA9]);
        assert_eq!(a * a.invert().unwrap(), FieldElement::ONE);
    }

    #[test]
    fn sqrt_of_square() {
        let a = fe(1234567);
        let sq = a.square();
        let root = sq.sqrt().unwrap();
        assert!(root == a || root == -a);
    }

    #[test]
    fn sqrt_of_non_residue() {
        // 5 is a quadratic non-residue mod the secp256k1 prime? Check by
        // construction: take a known residue r = x^2 and a generator-like
        // non-residue. We find one by trial: if sqrt fails, it is a
        // non-residue; assert at least one of small values is.
        let mut found_nonresidue = false;
        for v in 2u64..20 {
            if fe(v).sqrt().is_none() {
                found_nonresidue = true;
                break;
            }
        }
        assert!(found_nonresidue);
    }

    #[test]
    fn byte_encoding_roundtrip() {
        let a = FieldElement::from_limbs([1, 2, 3, 4]);
        let bytes = a.to_be_bytes();
        assert_eq!(FieldElement::from_be_bytes(&bytes), Some(a));
    }

    #[test]
    fn non_canonical_bytes_rejected() {
        let bytes = [0xFFu8; 32]; // 2^256 - 1 > p
        assert_eq!(FieldElement::from_be_bytes(&bytes), None);
    }

    #[test]
    fn parity() {
        assert!(fe(3).is_odd());
        assert!(!fe(4).is_odd());
    }

    #[test]
    fn from_limbs_reduces() {
        assert_eq!(FieldElement::from_limbs(P), FieldElement::ZERO);
    }

    #[test]
    fn distributive_law_spot_check() {
        let a = fe(0xABCD);
        let b = FieldElement::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let c = fe(0x4242_4242);
        assert_eq!(a * (b + c), a * b + a * c);
    }
}
