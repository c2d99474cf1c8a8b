//! Arithmetic modulo the secp256k1 group order
//! `n = 0xFFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141`.
//!
//! [`Scalar`] values are secret keys, nonces, Schnorr challenges and
//! Schnorr responses. They are always fully reduced.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

use crate::arith;
use crate::hash::Digest;

/// The group order `n`, little-endian limbs.
pub(crate) const N: [u64; 4] = [
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
];

/// `c = 2^256 - n`.
const C: [u64; 4] = [0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 0x1, 0];

/// The GLV endomorphism eigenvalue `λ`: a primitive cube root of unity
/// mod `n`, satisfying `λ·(x, y) = (β·x, y)` on the curve. Splitting
/// `k = k1 + λ·k2` with half-width `k1, k2` halves the doubling count
/// of every scalar-multiplication ladder (see [`crate::point`]).
pub(crate) const LAMBDA: [u64; 4] = [
    0xDF02_967C_1B23_BD72,
    0x122E_22EA_2081_6678,
    0xA526_1C02_8812_645A,
    0x5363_AD4C_C05C_30E0,
];

/// GLV lattice basis: `(a1, b1)` and `(a2, b2)` with
/// `a_i + b_i·λ ≡ 0 (mod n)` and all entries ≈ `√n`. `b1` is negative;
/// `MINUS_B1` stores its absolute value, and `b2 = a1`.
const MINUS_B1: [u64; 4] = [0x6F54_7FA9_0ABF_E4C3, 0xE443_7ED6_010E_8828, 0, 0];
const B2: [u64; 4] = [0xE86C_90E4_9284_EB15, 0x3086_D221_A7D4_6BCD, 0, 0];

/// The precomputed rounding multipliers `g1 = round(2^384·b2/n)` and
/// `g2 = round(2^384·(−b1)/n)`, derived once by exact long division so
/// each split costs two widening multiplies and a shift.
fn glv_multipliers() -> &'static ([u64; 4], [u64; 4]) {
    use std::sync::OnceLock;
    static G: OnceLock<([u64; 4], [u64; 4])> = OnceLock::new();
    G.get_or_init(|| {
        let wide = |v: &[u64; 4]| {
            // v · 2^384 (v has two significant limbs).
            let mut w = [0u64; 8];
            w[6] = v[0];
            w[7] = v[1];
            w
        };
        (
            arith::div_rounded_wide(&wide(&B2), &N),
            arith::div_rounded_wide(&wide(&MINUS_B1), &N),
        )
    })
}

/// An integer modulo the secp256k1 group order.
///
/// # Example
///
/// ```
/// use fides_crypto::scalar::Scalar;
///
/// let a = Scalar::from_u64(5);
/// let b = Scalar::from_u64(7);
/// assert_eq!(a * b, Scalar::from_u64(35));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar([v, 0, 0, 0])
    }

    /// Parses 32 big-endian bytes; returns `None` if the value is ≥ `n`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = arith::limbs_from_be_bytes(bytes);
        if arith::cmp4(&limbs, &N) == Ordering::Less {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Parses 32 big-endian bytes, reducing modulo `n`. Never fails; used
    /// for turning hash outputs into challenges.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        let limbs = arith::limbs_from_be_bytes(bytes);
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&limbs);
        Scalar(arith::reduce_wide(wide, &N, &C))
    }

    /// Interprets a digest as a scalar (mod `n`).
    pub fn from_digest(d: &Digest) -> Self {
        Scalar::from_be_bytes_reduced(d.as_bytes())
    }

    /// Serializes as 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        arith::limbs_to_be_bytes(&self.0)
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        arith::is_zero4(&self.0)
    }

    /// Multiplicative inverse via the safegcd divstep algorithm
    /// (the private `safegcd` module); `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        Some(Scalar(crate::safegcd::modinv(&self.0, &N)))
    }

    /// Multiplicative inverse via Fermat (`a^(n-2) mod n`) — the
    /// pre-safegcd reference path, kept for differential testing.
    #[doc(hidden)]
    pub fn invert_fermat(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let n_minus_2 = arith::sub4(&N, &[2, 0, 0, 0]).0;
        Some(Scalar(arith::pow_mod(&self.0, &n_minus_2, &N, &C)))
    }

    /// Bit `i` (little-endian) of the canonical representative.
    pub(crate) fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The 4-bit window `[4*i, 4*i+4)` of the canonical representative.
    pub(crate) fn nibble(&self, i: usize) -> u8 {
        ((self.0[i / 16] >> ((i % 16) * 4)) & 0xF) as u8
    }

    /// The width-`w` non-adjacent form: little-endian digits
    /// `d_i ∈ {0, ±1, ±3, …, ±(2^(w-1) − 1)}` with `Σ d_i·2^i = self`
    /// and no two adjacent non-zero digits.
    ///
    /// wNAF is the standard scalar recoding for variable-base
    /// multiplication: only one digit in `w+1` is non-zero on average,
    /// so a double-and-add ladder needs `~256/(w+1)` point additions
    /// instead of `~256·(2^w−1)/2^w` for plain windows — the backbone of
    /// the Strauss–Shamir verification path in [`crate::point`].
    ///
    /// Requires `2 ≤ w ≤ 8` (digits must fit `i8`).
    ///
    /// The recoding is a single left-to-right carry scan over the limb
    /// array (no 256 iterations of multi-limb shift/subtract), so it
    /// costs ~`256/w` window extractions per scalar — cheap enough to
    /// run once per term of a large batch verification.
    pub(crate) fn wnaf(&self, w: u32) -> Vec<i8> {
        debug_assert!((2..=8).contains(&w), "wNAF width out of range");
        let mut digits = Vec::with_capacity(257);
        let half = 1u64 << (w - 1);
        let mut carry = 0u64;
        let mut pos = 0usize;
        while pos < 256 || carry != 0 {
            let bit = if pos < 256 {
                (self.0[pos / 64] >> (pos % 64)) & 1
            } else {
                0
            };
            if bit == carry {
                // Effective bit (bit + carry) is even: zero digit, the
                // carry propagates unchanged.
                digits.push(0);
                pos += 1;
                continue;
            }
            // Effective window value: odd, in [1, 2^w - 1].
            let word = self.extract_bits(pos, w) + carry;
            let digit = if word >= half {
                carry = 1;
                word as i64 - (1i64 << w)
            } else {
                carry = 0;
                word as i64
            };
            digits.push(digit as i8);
            digits.resize(digits.len() + (w as usize - 1), 0);
            pos += w as usize;
        }
        while digits.last() == Some(&0) {
            digits.pop();
        }
        digits
    }

    /// Bits `[pos, pos + w)` of the canonical representative
    /// (zero-padded past bit 255); `w < 64`.
    fn extract_bits(&self, pos: usize, w: u32) -> u64 {
        let limb = pos / 64;
        let shift = pos % 64;
        let mut v = if limb < 4 { self.0[limb] >> shift } else { 0 };
        if shift + w as usize > 64 && limb + 1 < 4 {
            v |= self.0[limb + 1] << (64 - shift);
        }
        v & ((1u64 << w) - 1)
    }

    /// GLV decomposition: returns `((|k1|, neg1), (|k2|, neg2))` with
    /// `±|k1| + λ·±|k2| ≡ self (mod n)` and both magnitudes below
    /// ~`2^129` — about half the bits of a full scalar, so a ladder
    /// over the split halves needs half the doublings.
    ///
    /// Uses the classic lattice rounding: `c_i = round(g_i·k / 2^384)`
    /// approximates the closest lattice vector, `k2 = c1·(−b1) − c2·b2`
    /// and `k1 = k − λ·k2` (mod n). The recomposition identity holds by
    /// construction for *any* `c_i`; the constants only govern how
    /// small the halves come out, and the differential proptests pin
    /// both properties.
    #[doc(hidden)] // pub for the differential proptests
    pub fn split_glv(&self) -> ((Scalar, bool), (Scalar, bool)) {
        let (g1, g2) = glv_multipliers();
        let c1 = self.mul_shift_384(g1);
        let c2 = self.mul_shift_384(g2);
        let k2 = c1 * Scalar(MINUS_B1) - c2 * Scalar(B2);
        let k1 = *self - k2 * Scalar(LAMBDA);
        (Self::abs_small(k1), Self::abs_small(k2))
    }

    /// The GLV endomorphism eigenvalue `λ` as a scalar (test support).
    #[doc(hidden)]
    pub fn glv_lambda() -> Scalar {
        Scalar(LAMBDA)
    }

    /// `round(self · g / 2^384)` — the split's lattice-rounding kernel.
    fn mul_shift_384(&self, g: &[u64; 4]) -> Scalar {
        let wide = arith::mul4(&self.0, g);
        let round_up = wide[5] >> 63;
        let (r, carry) = arith::add4(&[wide[6], wide[7], 0, 0], &[round_up, 0, 0, 0]);
        debug_assert_eq!(carry, 0);
        Scalar(r)
    }

    /// Canonicalizes a known-small (±~2^129) residue to its magnitude
    /// and sign: representatives near `n` are negative small values.
    fn abs_small(k: Scalar) -> (Scalar, bool) {
        if k.bits() > 140 {
            (-k, true)
        } else {
            (k, false)
        }
    }

    /// The number of significant bits of the canonical representative.
    pub(crate) fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }
}

impl Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        Scalar(arith::add_mod(&self.0, &rhs.0, &N))
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        Scalar(arith::sub_mod(&self.0, &rhs.0, &N))
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(arith::mul_mod(&self.0, &rhs.0, &N, &C))
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        Scalar(arith::sub_mod(&[0, 0, 0, 0], &self.0, &N))
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Do not print full scalars: they may be secret keys.
        let bytes = self.to_be_bytes();
        write!(f, "Scalar({:02x}{:02x}…)", bytes[0], bytes[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    #[test]
    fn identities() {
        let a = sc(777);
        assert_eq!(a + Scalar::ZERO, a);
        assert_eq!(a * Scalar::ONE, a);
        assert_eq!(a - a, Scalar::ZERO);
        assert_eq!(a + (-a), Scalar::ZERO);
    }

    #[test]
    fn wraparound() {
        let n_minus_1 = Scalar(arith::sub4(&N, &[1, 0, 0, 0]).0);
        assert_eq!(n_minus_1 + sc(1), Scalar::ZERO);
        assert_eq!(n_minus_1 + sc(2), Scalar::ONE);
    }

    #[test]
    fn inverse() {
        let a = sc(123_456_789);
        assert_eq!(a * a.invert().unwrap(), Scalar::ONE);
        assert!(Scalar::ZERO.invert().is_none());
    }

    #[test]
    fn reduction_of_large_bytes() {
        // 2^256 - 1 reduced mod n must equal c - 1 (since 2^256 ≡ c).
        let s = Scalar::from_be_bytes_reduced(&[0xFF; 32]);
        let expect = Scalar(arith::sub4(&C, &[1, 0, 0, 0]).0);
        assert_eq!(s, expect);
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let a = Scalar::from_be_bytes_reduced(Digest::new([9u8; 32]).as_bytes());
        assert_eq!(Scalar::from_be_bytes(&a.to_be_bytes()), Some(a));
    }

    #[test]
    fn non_canonical_rejected() {
        assert_eq!(Scalar::from_be_bytes(&[0xFF; 32]), None);
        // n itself is non-canonical.
        let n_bytes = arith::limbs_to_be_bytes(&N);
        assert_eq!(Scalar::from_be_bytes(&n_bytes), None);
    }

    #[test]
    fn bits_and_nibbles() {
        let a = sc(0b1011);
        assert!(a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert_eq!(a.nibble(0), 0b1011);
        assert_eq!(a.nibble(1), 0);
        let b = Scalar([0, 0, 0, 0xF000_0000_0000_0000]);
        assert_eq!(b.nibble(63), 0xF);
    }

    #[test]
    fn debug_does_not_leak_full_value() {
        let s = format!("{:?}", sc(42));
        assert!(s.len() < 20);
        assert!(s.contains('…'));
    }

    #[test]
    fn associativity_spot_check() {
        let a = Scalar::from_be_bytes_reduced(&[0xAB; 32]);
        let b = Scalar::from_be_bytes_reduced(&[0xCD; 32]);
        let c = Scalar::from_be_bytes_reduced(&[0xEF; 32]);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!((a + b) + c, a + (b + c));
    }

    /// Evaluates a wNAF digit string back to a scalar: Σ dᵢ·2ⁱ mod n.
    fn eval_wnaf(digits: &[i8]) -> Scalar {
        let two = Scalar::from_u64(2);
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            acc = acc * two;
            if d >= 0 {
                acc = acc + Scalar::from_u64(d as u64);
            } else {
                acc = acc - Scalar::from_u64((-(d as i64)) as u64);
            }
        }
        acc
    }

    #[test]
    fn wnaf_reconstructs_value() {
        let cases = [
            Scalar::ZERO,
            Scalar::ONE,
            sc(2),
            sc(0xFFFF_FFFF_FFFF_FFFF),
            -Scalar::ONE,
            Scalar::from_be_bytes_reduced(&[0xA7; 32]),
            Scalar::from_be_bytes_reduced(&[0x01; 32]),
            Scalar::from_be_bytes_reduced(&[0xFE; 32]),
        ];
        for w in 2..=8u32 {
            for k in cases {
                assert_eq!(eval_wnaf(&k.wnaf(w)), k, "w={w} k={k:?}");
            }
        }
    }

    #[test]
    fn wnaf_digits_are_odd_and_bounded() {
        let k = Scalar::from_be_bytes_reduced(&[0xB3; 32]);
        for w in 2..=8u32 {
            let bound = 1i16 << (w - 1);
            for &d in &k.wnaf(w) {
                if d != 0 {
                    assert_eq!(d.rem_euclid(2), 1, "digit {d} must be odd");
                    assert!(
                        (i16::from(d)).abs() < bound,
                        "digit {d} out of range for w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn wnaf_nonzero_digits_are_spaced() {
        // After a non-zero digit, the next w-1 digits must be zero.
        let k = Scalar::from_be_bytes_reduced(&[0x6D; 32]);
        for w in 2..=8u32 {
            let naf = k.wnaf(w);
            let mut i = 0;
            while i < naf.len() {
                if naf[i] != 0 {
                    for j in 1..w as usize {
                        if i + j < naf.len() {
                            assert_eq!(naf[i + j], 0, "w={w} digits adjacent at {i}");
                        }
                    }
                    i += w as usize;
                } else {
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn wnaf_length_bounded() {
        // wNAF of a reduced scalar has at most 257 digits.
        let k = -Scalar::ONE;
        for w in 2..=8u32 {
            assert!(k.wnaf(w).len() <= 257);
        }
    }

    #[test]
    fn lambda_is_cube_root_of_unity() {
        let lambda = Scalar(LAMBDA);
        assert_ne!(lambda, Scalar::ONE);
        assert_eq!(lambda * lambda * lambda, Scalar::ONE);
    }

    #[test]
    fn glv_basis_vectors_annihilate() {
        // a1 + b1·λ ≡ 0 with b1 = −MINUS_B1 and a1 = B2.
        let lambda = Scalar(LAMBDA);
        assert_eq!(Scalar(B2), Scalar(MINUS_B1) * lambda);
    }

    #[test]
    fn glv_split_recomposes_and_is_short() {
        let lambda = Scalar(LAMBDA);
        let cases = [
            Scalar::ONE,
            sc(2),
            -Scalar::ONE,
            lambda,
            -lambda,
            Scalar::from_be_bytes_reduced(&[0xA7; 32]),
            Scalar::from_be_bytes_reduced(&[0x01; 32]),
            Scalar::from_be_bytes_reduced(&[0xFE; 32]),
            Scalar::from_be_bytes_reduced(&[0x5A; 32]),
        ];
        for k in cases {
            let ((k1, s1), (k2, s2)) = k.split_glv();
            let v1 = if s1 { -k1 } else { k1 };
            let v2 = if s2 { -k2 } else { k2 };
            assert_eq!(v1 + lambda * v2, k, "recomposition failed for {k:?}");
            assert!(k1.bits() <= 129, "k1 too wide: {} bits", k1.bits());
            assert!(k2.bits() <= 129, "k2 too wide: {} bits", k2.bits());
        }
    }

    #[test]
    fn glv_split_of_zero() {
        let ((k1, _), (k2, _)) = Scalar::ZERO.split_glv();
        assert!(k1.is_zero());
        assert!(k2.is_zero());
    }

    #[test]
    fn bits_counts_significant_bits() {
        assert_eq!(Scalar::ZERO.bits(), 0);
        assert_eq!(Scalar::ONE.bits(), 1);
        assert_eq!(sc(0xFF).bits(), 8);
        assert_eq!(Scalar([0, 1, 0, 0]).bits(), 65);
        assert_eq!((-Scalar::ONE).bits(), 256);
    }
}
