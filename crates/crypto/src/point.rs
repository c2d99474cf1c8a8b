//! secp256k1 group arithmetic: `y² = x³ + 7` over `F_p`.
//!
//! Points are kept in Jacobian projective coordinates `(X, Y, Z)` with
//! affine `x = X/Z²`, `y = Y/Z³`; `Z = 0` encodes the point at infinity
//! (the group identity).
//!
//! Besides the classic windowed [`Point::mul_scalar`], the module
//! provides the **verification engine** the upper layers build on:
//!
//! * [`AffinePoint`] and [`Point::add_affine`] — mixed Jacobian+affine
//!   addition (`7M + 4S` instead of `11M + 5S`),
//! * [`Point::batch_normalize`] — Montgomery's trick: `N` points are
//!   converted to affine with a **single** field inversion,
//! * [`Point::mul_shamir_generator`] — the Strauss–Shamir double-scalar
//!   multiplication `a·G + b·P` with interleaved wNAF digits, sharing
//!   one doubling ladder between both scalars (the shape of every
//!   Schnorr/CoSi verification),
//! * [`Point::multi_mul`] — `Σ aᵢ·Pᵢ` over an arbitrary term list with
//!   batch-normalized per-point odd-multiple tables (the shape of batch
//!   signature verification),
//! * [`FixedBaseTable`] and [`Point::mul_generator_and_table`] — an
//!   8-bit-window table of one point's multiples, so `a·G + b·P`
//!   against a key verified again and again is two table walks and no
//!   doublings.

use core::fmt;
use core::ops::{Add, Neg};

use crate::encoding::DecodeError;
use crate::field::FieldElement;
use crate::scalar::Scalar;

/// A point on secp256k1 (including the identity).
///
/// # Example
///
/// ```
/// use fides_crypto::point::Point;
/// use fides_crypto::scalar::Scalar;
///
/// let g = Point::generator();
/// let two_g = g * Scalar::from_u64(2);
/// assert_eq!(g + g, two_g);
/// ```
#[derive(Clone, Copy)]
pub struct Point {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// Generator x-coordinate.
const GX: [u64; 4] = [
    0x59F2_815B_16F8_1798,
    0x029B_FCDB_2DCE_28D9,
    0x55A0_6295_CE87_0B07,
    0x79BE_667E_F9DC_BBAC,
];

/// Generator y-coordinate.
const GY: [u64; 4] = [
    0x9C47_D08F_FB10_D4B8,
    0xFD17_B448_A685_5419,
    0x5DA4_FBFC_0E11_08A8,
    0x483A_DA77_26A3_C465,
];

/// The GLV endomorphism constant `β`: a primitive cube root of unity in
/// the base field, with `λ·(x, y) = (β·x, y)` for `λ` =
/// [`crate::scalar::LAMBDA`]. Applying the endomorphism is one field
/// multiplication — that asymmetry is what makes the GLV split pay.
const BETA: [u64; 4] = [
    0xC139_6C28_7195_01EE,
    0x9CF0_4975_12F5_8995,
    0x6E64_479E_AC34_34E9,
    0x7AE9_6A2B_657C_0710,
];

#[inline]
fn beta() -> FieldElement {
    FieldElement::from_limbs(BETA)
}

impl Point {
    /// The group identity (point at infinity).
    pub const IDENTITY: Point = Point {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    /// The standard secp256k1 base point `G`.
    pub fn generator() -> Point {
        Point {
            x: FieldElement::from_limbs(GX),
            y: FieldElement::from_limbs(GY),
            z: FieldElement::ONE,
        }
    }

    /// Constructs a point from affine coordinates, checking the curve
    /// equation.
    pub fn from_affine(x: FieldElement, y: FieldElement) -> Option<Point> {
        let lhs = y.square();
        let rhs = x.square() * x + FieldElement::SEVEN;
        if lhs == rhs {
            Some(Point {
                x,
                y,
                z: FieldElement::ONE,
            })
        } else {
            None
        }
    }

    /// Returns `true` for the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates; `None` for the identity.
    pub fn to_affine(&self) -> Option<(FieldElement, FieldElement)> {
        if self.is_identity() {
            return None;
        }
        if self.z == FieldElement::ONE {
            // Already normalized (e.g. freshly decoded): skip the
            // field inversion entirely.
            return Some((self.x, self.y));
        }
        let z_inv = self.z.invert().expect("non-identity point has z != 0");
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2 * z_inv;
        Some((self.x * z_inv2, self.y * z_inv3))
    }

    /// Returns the same point with `Z = 1` (or the identity unchanged).
    ///
    /// Normalizing once at a trust boundary (key construction, fresh
    /// signatures) makes every later encoding/equality/mixed-addition
    /// of the point cheap.
    pub fn normalize(&self) -> Point {
        match self.to_affine() {
            None => Point::IDENTITY,
            Some((x, y)) => Point {
                x,
                y,
                z: FieldElement::ONE,
            },
        }
    }

    /// Point doubling (Jacobian, a = 0 formulas).
    #[inline]
    pub fn double(&self) -> Point {
        if self.is_identity() || self.y.is_zero() {
            return Point::IDENTITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2*((X+B)^2 - A - C)
        let d = {
            let t = (self.x + b).square() - a - c;
            t + t
        };
        let e = a + a + a; // 3*X^2  (a = 0 curve)
        let f = e.square();
        let x3 = f - (d + d);
        let c8 = {
            let c2 = c + c;
            let c4 = c2 + c2;
            c4 + c4
        };
        let y3 = e * (d - x3) - c8;
        let z3 = {
            let t = self.y * self.z;
            t + t
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Fast fixed-base multiplication `k·G` using a lazily built
    /// 8-bit-window table (32 windows × 256 entries): at most 31 point
    /// additions and no doublings. The table is stored **batch-affine**
    /// (normalized with a single field inversion at build time), so
    /// every table hit is a mixed addition. Signing and nonce
    /// commitments go through this path.
    pub fn mul_generator(k: &Scalar) -> Point {
        generator_table().mul(k)
    }

    /// `a·G + b·P` for a `P` with a precomputed [`FixedBaseTable`]: the
    /// generator's and `P`'s tables walked side by side, at most 64
    /// mixed additions into one accumulator and no doublings — the
    /// shape of a Schnorr/CoSi check `s·G − e·P = R` against a prepared
    /// key. Equal to [`Point::mul_shamir_generator`] on `P` itself,
    /// which stays the path for keys without a table.
    pub fn mul_generator_and_table(a: &Scalar, b: &Scalar, table: &FixedBaseTable) -> Point {
        let generator = generator_table();
        // Big-endian: byte 31 is window 0.
        let (a, b) = (a.to_be_bytes(), b.to_be_bytes());
        let mut acc = Point::IDENTITY;
        for w in 0..WINDOWS {
            acc = generator.add_digit(acc, w, a[31 - w]);
            acc = table.add_digit(acc, w, b[31 - w]);
        }
        acc
    }

    /// Multiplies by a scalar with a 4-bit window.
    pub fn mul_scalar(&self, k: &Scalar) -> Point {
        if k.is_zero() || self.is_identity() {
            return Point::IDENTITY;
        }
        // Precompute 1P..15P.
        let mut table = [Point::IDENTITY; 16];
        table[1] = *self;
        for i in 2..16 {
            table[i] = table[i - 1] + *self;
        }
        let mut acc = Point::IDENTITY;
        for w in (0..64).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            let nib = k.nibble(w) as usize;
            if nib != 0 {
                acc = acc + table[nib];
            }
        }
        acc
    }

    /// Compressed SEC1-style encoding: 33 bytes, prefix `0x02`/`0x03` by
    /// y-parity; the identity encodes as 33 zero bytes.
    pub fn to_compressed_bytes(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        match self.to_affine() {
            None => out, // identity: all zeros
            Some((x, y)) => {
                out[0] = if y.is_odd() { 0x03 } else { 0x02 };
                out[1..].copy_from_slice(&x.to_be_bytes());
                out
            }
        }
    }

    /// Decodes a compressed point; validates the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidValue`] if the prefix byte is
    /// unknown, the x-coordinate is non-canonical, or x³+7 has no square
    /// root.
    pub fn from_compressed_bytes(bytes: &[u8; 33]) -> Result<Point, DecodeError> {
        if bytes.iter().all(|&b| b == 0) {
            return Ok(Point::IDENTITY);
        }
        let parity_odd = match bytes[0] {
            0x02 => false,
            0x03 => true,
            _ => return Err(DecodeError::InvalidValue("point prefix byte")),
        };
        let mut xb = [0u8; 32];
        xb.copy_from_slice(&bytes[1..]);
        let x = FieldElement::from_be_bytes(&xb)
            .ok_or(DecodeError::InvalidValue("x coordinate not canonical"))?;
        let y2 = x.square() * x + FieldElement::SEVEN;
        let mut y = y2
            .sqrt()
            .ok_or(DecodeError::InvalidValue("x not on curve"))?;
        if y.is_odd() != parity_odd {
            y = -y;
        }
        Ok(Point {
            x,
            y,
            z: FieldElement::ONE,
        })
    }

    /// Binary double-and-add multiplication — used in tests as an
    /// independent check on the windowed implementation.
    #[doc(hidden)]
    pub fn mul_scalar_binary(&self, k: &Scalar) -> Point {
        let mut acc = Point::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc + *self;
            }
        }
        acc
    }

    /// The curve endomorphism `φ(x, y) = (β·x, y)`, which equals
    /// multiplication by `λ` (`scalar::LAMBDA`) at the cost of
    /// a single field multiplication. In Jacobian coordinates scaling
    /// `X` scales the affine `x = X/Z²` identically.
    pub fn endomorphism(&self) -> Point {
        Point {
            x: self.x * beta(),
            y: self.y,
            z: self.z,
        }
    }

    /// Mixed addition `self + rhs` where `rhs` is affine (`Z₂ = 1`):
    /// 7M + 4S versus 11M + 5S for the general Jacobian formula
    /// (madd-2007-bl), with the usual identity/doubling fallbacks.
    #[inline]
    pub fn add_affine(&self, rhs: &AffinePoint) -> Point {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return Point {
                x: rhs.x,
                y: rhs.y,
                z: FieldElement::ONE,
            };
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Point::IDENTITY; // P + (-P)
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = {
            let hh4 = hh + hh;
            hh4 + hh4
        };
        let j = h * i;
        let r = {
            let t = s2 - self.y;
            t + t
        };
        let v = self.x * i;
        let x3 = r.square() - j - (v + v);
        let y3 = {
            let yj = self.y * j;
            r * (v - x3) - (yj + yj)
        };
        let z3 = (self.z + h).square() - z1z1 - hh;
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Converts a batch of points to affine with a **single** field
    /// inversion (Montgomery's trick): multiply a running prefix of the
    /// `Z` coordinates, invert the total once, then walk backwards
    /// emitting each `Z⁻¹`. Identity points map to the affine point at
    /// infinity.
    pub fn batch_normalize(points: &[Point]) -> Vec<AffinePoint> {
        // Prefix products over the non-identity zs.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = FieldElement::ONE;
        for p in points {
            if !p.is_identity() {
                acc = acc * p.z;
            }
            prefix.push(acc);
        }
        let mut inv = match acc.invert() {
            Some(inv) => inv,
            // All inputs are the identity.
            None => FieldElement::ONE,
        };
        let mut out = vec![AffinePoint::IDENTITY; points.len()];
        for idx in (0..points.len()).rev() {
            let p = &points[idx];
            if p.is_identity() {
                continue;
            }
            // prefix[idx] = z_0 ⋯ z_idx, so inv * prefix[idx-1] = z_idx⁻¹.
            let prev = if idx == 0 {
                FieldElement::ONE
            } else {
                prefix[idx - 1]
            };
            let z_inv = inv * prev;
            inv = inv * p.z;
            let z_inv2 = z_inv.square();
            out[idx] = AffinePoint {
                x: p.x * z_inv2,
                y: p.y * z_inv2 * z_inv,
                infinity: false,
            };
        }
        out
    }

    /// Strauss–Shamir double-scalar multiplication `a·G + b·P` with GLV
    /// splitting.
    ///
    /// Both scalars are decomposed as `k = ±k1 + λ·(±k2)` with
    /// half-width halves ([`Scalar::split_glv`]), turning the sum into
    /// four half-width terms — `a1·G + a2·φ(G) + b1·P + b2·φ(P)` —
    /// recoded to wNAF and walked over one **shared** doubling ladder
    /// of ~130 doublings (half the pre-GLV count). The generator halves
    /// resolve against static affine tables of odd multiples of `G` and
    /// `φ(G)`; `P`'s halves against a per-call batch-normalized table
    /// (one shared field inversion for all 16 entries, so every ladder
    /// addition is a mixed addition).
    ///
    /// This is the shape of every Schnorr/CoSi verification:
    /// `s·G − e·P = R`.
    pub fn mul_shamir_generator(a: &Scalar, b: &Scalar, p: &Point) -> Point {
        if b.is_zero() || p.is_identity() {
            return Point::mul_generator(a);
        }
        if a.is_zero() {
            return p.mul_scalar(b);
        }
        let ((a1, sa1), (a2, sa2)) = a.split_glv();
        let ((b1, sb1), (b2, sb2)) = b.split_glv();
        let na1 = a1.wnaf(GEN_WNAF_WIDTH);
        let na2 = a2.wnaf(GEN_WNAF_WIDTH);
        let nb1 = b1.wnaf(5);
        let nb2 = b2.wnaf(5);
        // Odd multiples P, 3P, …, 15P and their endomorphism images,
        // batch-normalized together: one field inversion for 16 mixed-
        // addition-ready table entries.
        let jacobian = odd_multiples::<8>(p);
        let mut both = Vec::with_capacity(16);
        both.extend_from_slice(&jacobian);
        both.extend(jacobian.iter().map(Point::endomorphism));
        let table = Point::batch_normalize(&both);
        let (table_p, table_pe) = table.split_at(8);
        let signed = |d: i8, negate: bool| if negate { -d } else { d };
        let table_digit = |acc: Point, d: i8, table: &[AffinePoint]| {
            let entry = table[(d.unsigned_abs() as usize - 1) / 2];
            acc.add_affine(&if d < 0 { entry.neg() } else { entry })
        };
        let len = na1.len().max(na2.len()).max(nb1.len()).max(nb2.len());
        let mut acc = Point::IDENTITY;
        for i in (0..len).rev() {
            acc = acc.double();
            if let Some(&d) = na1.get(i) {
                if d != 0 {
                    acc = acc.add_affine(&generator_wnaf_entry(signed(d, sa1)));
                }
            }
            if let Some(&d) = na2.get(i) {
                if d != 0 {
                    acc = acc.add_affine(&generator_endo_wnaf_entry(signed(d, sa2)));
                }
            }
            if let Some(&d) = nb1.get(i) {
                if d != 0 {
                    acc = table_digit(acc, signed(d, sb1), table_p);
                }
            }
            if let Some(&d) = nb2.get(i) {
                if d != 0 {
                    acc = table_digit(acc, signed(d, sb2), table_pe);
                }
            }
        }
        acc
    }

    /// The pre-GLV Strauss–Shamir ladder (full-width wNAF over ~256
    /// doublings). Kept as a differential-test oracle and the "before"
    /// side of the GLV speedup microbenchmark — not a production path.
    #[doc(hidden)]
    pub fn mul_shamir_generator_wnaf(a: &Scalar, b: &Scalar, p: &Point) -> Point {
        if b.is_zero() || p.is_identity() {
            return Point::mul_generator(a);
        }
        if a.is_zero() {
            return p.mul_scalar(b);
        }
        let na = a.wnaf(GEN_WNAF_WIDTH);
        let nb = b.wnaf(5);
        let table_p = odd_multiples::<8>(p);
        let len = na.len().max(nb.len());
        let mut acc = Point::IDENTITY;
        for i in (0..len).rev() {
            acc = acc.double();
            if let Some(&d) = na.get(i) {
                if d != 0 {
                    acc = acc.add_affine(&generator_wnaf_entry(d));
                }
            }
            if let Some(&d) = nb.get(i) {
                if d > 0 {
                    acc = acc + table_p[(d as usize - 1) / 2];
                } else if d < 0 {
                    acc = acc + (-table_p[((-d) as usize - 1) / 2]);
                }
            }
        }
        acc
    }

    /// Multi-scalar multiplication `Σ aᵢ·Pᵢ` (Strauss' interleaved wNAF
    /// with batch-affine tables).
    ///
    /// All per-point odd-multiple tables are normalized to affine with
    /// **one** field inversion (Montgomery's trick), so every ladder
    /// addition is a cheap mixed addition. The ladder length adapts to
    /// the largest scalar, so short (e.g. 128-bit randomizer) scalars
    /// cost proportionally less — the property batch verification's
    /// random linear combination relies on.
    ///
    /// Terms with a zero scalar or identity point are skipped.
    ///
    /// Wide scalars are first GLV-split ([`Scalar::split_glv`]) into
    /// two half-width terms against `P` and `φ(P)` (one field
    /// multiplication per split), so the shared ladder shrinks to
    /// ~130 doublings even when full-width scalars are present — batch
    /// verification's 128-bit randomizer terms and the split halves
    /// then all have comparable length.
    pub fn multi_mul(terms: &[(Scalar, Point)]) -> Point {
        let mut live: Vec<(Scalar, Point)> = Vec::with_capacity(terms.len());
        for (a, p) in terms {
            if a.is_zero() || p.is_identity() {
                continue;
            }
            if a.bits() > 160 {
                let ((k1, s1), (k2, s2)) = a.split_glv();
                if !k1.is_zero() {
                    live.push((k1, if s1 { -*p } else { *p }));
                }
                if !k2.is_zero() {
                    let pe = p.endomorphism();
                    live.push((k2, if s2 { -pe } else { pe }));
                }
            } else {
                live.push((*a, *p));
            }
        }
        if live.is_empty() {
            return Point::IDENTITY;
        }
        // Pick a wNAF width per term by scalar size and batch size. A
        // table of `2^(w-2)` odd multiples costs real work to build, so
        // short scalars (batch-verification randomizers are 128-bit)
        // get narrower windows. Large batches amortize table building
        // across terms (column-batched affine additions below), which
        // shifts the optimum toward wider windows.
        let column_batched = live.len() >= 16;
        let widths: Vec<u32> = live
            .iter()
            .map(|(a, _)| match (column_batched, a.bits()) {
                (_, 0..=40) => 3,
                (_, 41..=160) => 4,
                (false, _) => 5,
                (true, _) => 6,
            })
            .collect();
        let table_sizes: Vec<usize> = widths.iter().map(|&w| 1usize << (w - 2)).collect();
        let mut offsets = Vec::with_capacity(live.len());
        let mut total = 0u32;
        for &size in &table_sizes {
            offsets.push(total);
            total += size as u32;
        }

        let affine: Vec<AffinePoint> = if column_batched {
            // Odd-multiple tables built **in affine form** with batched
            // additions: each table column `(2j+1)·P` across all points
            // is one batch of independent affine additions sharing a
            // single field inversion. Replaces per-point Jacobian table
            // chains plus a final normalization pass; the per-column
            // inversion amortizes once enough points share it.
            let base_points: Vec<Point> = live.iter().map(|(_, p)| *p).collect();
            let base = Point::batch_normalize(&base_points);
            let doubled = batch_double_affine(&base);
            let mut affine = vec![AffinePoint::IDENTITY; total as usize];
            for (t, b) in base.iter().enumerate() {
                affine[offsets[t] as usize] = *b;
            }
            let max_size = table_sizes.iter().copied().max().unwrap_or(1);
            for j in 1..max_size {
                let idx: Vec<usize> = (0..live.len()).filter(|&t| table_sizes[t] > j).collect();
                let lhs: Vec<AffinePoint> = idx
                    .iter()
                    .map(|&t| affine[offsets[t] as usize + j - 1])
                    .collect();
                let rhs: Vec<AffinePoint> = idx.iter().map(|&t| doubled[t]).collect();
                let sums = batch_add_affine(&lhs, &rhs);
                for (&t, s) in idx.iter().zip(sums) {
                    affine[offsets[t] as usize + j] = s;
                }
            }
            affine
        } else {
            // Few terms: Jacobian chains plus one batch normalization.
            let mut jacobian = Vec::with_capacity(total as usize);
            for ((_, p), &size) in live.iter().zip(&table_sizes) {
                match size {
                    2 => jacobian.extend_from_slice(&odd_multiples::<2>(p)),
                    4 => jacobian.extend_from_slice(&odd_multiples::<4>(p)),
                    _ => jacobian.extend_from_slice(&odd_multiples::<8>(p)),
                }
            }
            Point::batch_normalize(&jacobian)
        };

        // Bucket the (sparse) wNAF digit contributions by bit position.
        let mut len = 0usize;
        let nafs: Vec<Vec<i8>> = live
            .iter()
            .zip(&widths)
            .map(|((a, _), &w)| {
                let naf = a.wnaf(w);
                len = len.max(naf.len());
                naf
            })
            .collect();
        let mut buckets: Vec<Vec<AffinePoint>> = vec![Vec::new(); len];
        for (t, naf) in nafs.iter().enumerate() {
            for (i, &d) in naf.iter().enumerate() {
                if d != 0 {
                    let entry = affine[(offsets[t] + (d.unsigned_abs() as u32 - 1) / 2) as usize];
                    buckets[i].push(if d < 0 { entry.neg() } else { entry });
                }
            }
        }

        // Tree-reduce every bucket to at most one point. All pairwise
        // additions of one tree level — across every bit position — are
        // independent, so each level is a single batched affine-addition
        // pass (3 field muls per addition plus one shared inversion),
        // instead of a serial chain of 11-mul mixed additions into the
        // accumulator. This is where batch verification's arithmetic
        // advantage over sequential verification comes from.
        loop {
            let mut lhs = Vec::new();
            let mut rhs = Vec::new();
            for bucket in &buckets {
                let mut j = 0;
                while j + 1 < bucket.len() {
                    lhs.push(bucket[j]);
                    rhs.push(bucket[j + 1]);
                    j += 2;
                }
            }
            if lhs.is_empty() {
                break;
            }
            let sums = batch_add_affine(&lhs, &rhs);
            let mut consumed = 0usize;
            for bucket in buckets.iter_mut() {
                let pairs = bucket.len() / 2;
                let leftover = if bucket.len() % 2 == 1 {
                    bucket.pop()
                } else {
                    None
                };
                bucket.clear();
                bucket.extend_from_slice(&sums[consumed..consumed + pairs]);
                consumed += pairs;
                if let Some(l) = leftover {
                    bucket.push(l);
                }
            }
        }

        // Final ladder: one doubling per bit, at most one mixed
        // addition per bit position.
        let mut acc = Point::IDENTITY;
        for i in (0..len).rev() {
            acc = acc.double();
            if let Some(point) = buckets[i].first() {
                acc = acc.add_affine(point);
            }
        }
        acc
    }
}

/// Computes the odd multiples `P, 3P, 5P, …, (2N−1)P` in Jacobian form.
fn odd_multiples<const N: usize>(p: &Point) -> [Point; N] {
    let twice = p.double();
    let mut table = [*p; N];
    for i in 1..N {
        table[i] = table[i - 1] + twice;
    }
    table
}

/// Element-wise affine doubling `out[i] = 2·a[i]` with one shared field
/// inversion (`λ = 3x²/2y`). Identity inputs double to the identity.
fn batch_double_affine(points: &[AffinePoint]) -> Vec<AffinePoint> {
    let mut denominators: Vec<FieldElement> = points
        .iter()
        .map(|p| {
            if p.infinity {
                FieldElement::ZERO
            } else {
                p.y + p.y
            }
        })
        .collect();
    FieldElement::batch_invert(&mut denominators);
    points
        .iter()
        .zip(&denominators)
        .map(|(p, inv)| {
            if p.infinity || inv.is_zero() {
                // Identity, or y = 0 (no such secp256k1 point, but stay
                // total): tangent is vertical, result is the identity.
                return AffinePoint::IDENTITY;
            }
            let x2 = p.x.square();
            let lambda = (x2 + x2 + x2) * *inv;
            let x3 = lambda.square() - p.x - p.x;
            let y3 = lambda * (p.x - x3) - p.y;
            AffinePoint {
                x: x3,
                y: y3,
                infinity: false,
            }
        })
        .collect()
}

/// Element-wise affine addition `out[i] = a[i] + b[i]` with one shared
/// field inversion (`λ = (y₂−y₁)/(x₂−x₁)`). Degenerate pairs (an
/// identity operand, or equal x-coordinates) fall back to the generic
/// Jacobian path.
fn batch_add_affine(a: &[AffinePoint], b: &[AffinePoint]) -> Vec<AffinePoint> {
    debug_assert_eq!(a.len(), b.len());
    let mut denominators: Vec<FieldElement> = a
        .iter()
        .zip(b)
        .map(|(p, q)| {
            if p.infinity || q.infinity || p.x == q.x {
                FieldElement::ZERO
            } else {
                q.x - p.x
            }
        })
        .collect();
    FieldElement::batch_invert(&mut denominators);
    a.iter()
        .zip(b)
        .zip(&denominators)
        .map(|((p, q), inv)| {
            if inv.is_zero() {
                // Rare: identity operand, doubling, or cancellation.
                let sum = p.to_point().add_affine(q);
                return Point::batch_normalize(&[sum])[0];
            }
            let lambda = (q.y - p.y) * *inv;
            let x3 = lambda.square() - p.x - q.x;
            let y3 = lambda * (p.x - x3) - p.y;
            AffinePoint {
                x: x3,
                y: y3,
                infinity: false,
            }
        })
        .collect()
}

/// A point in affine coordinates (plus an explicit infinity flag) —
/// the representation used by precomputed tables, where mixed addition
/// makes every table hit cheaper than a general Jacobian addition.
#[derive(Clone, Copy, Debug)]
pub struct AffinePoint {
    x: FieldElement,
    y: FieldElement,
    infinity: bool,
}

impl AffinePoint {
    /// The affine encoding of the group identity.
    pub const IDENTITY: AffinePoint = AffinePoint {
        x: FieldElement::ZERO,
        y: FieldElement::ZERO,
        infinity: true,
    };

    /// The negation (mirror over the x-axis).
    pub fn neg(&self) -> AffinePoint {
        AffinePoint {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Converts back to Jacobian form.
    pub fn to_point(&self) -> Point {
        if self.infinity {
            Point::IDENTITY
        } else {
            Point {
                x: self.x,
                y: self.y,
                z: FieldElement::ONE,
            }
        }
    }
}

impl Add for Point {
    type Output = Point;

    /// General Jacobian addition with doubling fallback.
    #[inline]
    fn add(self, rhs: Point) -> Point {
        if self.is_identity() {
            return rhs;
        }
        if rhs.is_identity() {
            return self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * z2z2 * rhs.z;
        let s2 = rhs.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Point::IDENTITY; // P + (-P)
        }
        let h = u2 - u1;
        let i = {
            let t = h + h;
            t.square()
        };
        let j = h * i;
        let r = {
            let t = s2 - s1;
            t + t
        };
        let v = u1 * i;
        let x3 = r.square() - j - (v + v);
        let y3 = {
            let s1j = s1 * j;
            r * (v - x3) - (s1j + s1j)
        };
        let z3 = {
            let t = (self.z + rhs.z).square() - z1z1 - z2z2;
            t * h
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        if self.is_identity() {
            self
        } else {
            Point {
                x: self.x,
                y: -self.y,
                z: self.z,
            }
        }
    }
}

impl core::ops::Mul<Scalar> for Point {
    type Output = Point;
    fn mul(self, k: Scalar) -> Point {
        self.mul_scalar(&k)
    }
}

/// Number of 8-bit windows in a 256-bit scalar.
const WINDOWS: usize = 32;

/// A fixed-base window table of one point `P`, flat-indexed as
/// `[w * 256 + d]` = `d · 256^w · P` and stored as batch-normalized
/// **affine** points, so `k·P` is one mixed addition per non-zero byte
/// of `k` — at most 32 and no doublings.
///
/// The generator's table backs [`Point::mul_generator`] (signing,
/// nonce commitments); a key verified again and again gets its own,
/// so a check `s·G − e·P = R` is two table walks
/// ([`Point::mul_generator_and_table`]). A table is
/// [`FixedBaseTable::BYTES`] (576 KiB) and costs about 8k point
/// additions plus one shared field inversion to build.
pub struct FixedBaseTable {
    entries: Box<[AffinePoint]>,
}

impl FixedBaseTable {
    /// Bytes one table holds: 32 windows × 256 affine points.
    pub const BYTES: usize = WINDOWS * 256 * core::mem::size_of::<AffinePoint>();

    /// Builds `P`'s table: per window, 255 Jacobian additions, then one
    /// batch normalization (a single field inversion) for all 8192
    /// entries.
    pub fn new(p: &Point) -> FixedBaseTable {
        let mut jacobian = Vec::with_capacity(WINDOWS * 256);
        let mut base = *p; // 256^w · P
        for _ in 0..WINDOWS {
            let window_start = jacobian.len();
            jacobian.push(Point::IDENTITY);
            for d in 1..256 {
                let prev = jacobian[window_start + d - 1];
                jacobian.push(prev + base);
            }
            // base <<= 8 bits.
            base = jacobian[window_start + 255] + base;
        }
        FixedBaseTable {
            entries: Point::batch_normalize(&jacobian).into_boxed_slice(),
        }
    }

    /// `k·P`.
    pub fn mul(&self, k: &Scalar) -> Point {
        let bytes = k.to_be_bytes(); // big-endian: bytes[31] is window 0
        (0..WINDOWS).fold(Point::IDENTITY, |acc, w| {
            self.add_digit(acc, w, bytes[31 - w])
        })
    }

    /// `acc + digit · 256^window · P`.
    #[inline]
    fn add_digit(&self, acc: Point, window: usize, digit: u8) -> Point {
        if digit == 0 {
            acc
        } else {
            acc.add_affine(&self.entries[window * 256 + digit as usize])
        }
    }
}

impl fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedBaseTable({:?})", self.entries[1].to_point())
    }
}

/// The generator's [`FixedBaseTable`], built once on first use.
fn generator_table() -> &'static FixedBaseTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(&Point::generator()))
}

/// Width of the generator wNAF digits used by the Strauss–Shamir path.
const GEN_WNAF_WIDTH: u32 = 8;

/// Static affine table of odd generator multiples `(2i+1)·G` for
/// `i < 64`, backing the `a·G` half of [`Point::mul_shamir_generator`].
fn generator_wnaf_table() -> &'static [AffinePoint] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[AffinePoint]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let jacobian = odd_multiples::<{ 1 << (GEN_WNAF_WIDTH - 2) }>(&Point::generator());
        Point::batch_normalize(&jacobian).into_boxed_slice()
    })
}

/// The affine table entry for a (non-zero, odd) generator wNAF digit.
fn generator_wnaf_entry(d: i8) -> AffinePoint {
    debug_assert!(d != 0 && d % 2 != 0);
    let entry = generator_wnaf_table()[(d.unsigned_abs() as usize - 1) / 2];
    if d > 0 {
        entry
    } else {
        entry.neg()
    }
}

/// Static affine table of odd multiples of `φ(G) = λ·G` — the
/// generator-half partner of the GLV split. Since
/// `φ((2i+1)·G) = (2i+1)·φ(G)`, this is just the `G` table with every
/// x-coordinate scaled by `β`.
fn generator_endo_wnaf_table() -> &'static [AffinePoint] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[AffinePoint]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let b = beta();
        generator_wnaf_table()
            .iter()
            .map(|p| AffinePoint {
                x: p.x * b,
                y: p.y,
                infinity: p.infinity,
            })
            .collect()
    })
}

/// The affine table entry for a (non-zero, odd) `φ(G)` wNAF digit.
fn generator_endo_wnaf_entry(d: i8) -> AffinePoint {
    debug_assert!(d != 0 && d % 2 != 0);
    let entry = generator_endo_wnaf_table()[(d.unsigned_abs() as usize - 1) / 2];
    if d > 0 {
        entry
    } else {
        entry.neg()
    }
}

impl PartialEq for Point {
    /// Projective equality: compares affine coordinates without division.
    fn eq(&self, other: &Point) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            _ => {}
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}

impl Eq for Point {}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_affine() {
            None => write!(f, "Point(identity)"),
            Some((x, _)) => {
                let bytes = x.to_be_bytes();
                write!(f, "Point(x={:02x}{:02x}…)", bytes[0], bytes[1])
            }
        }
    }
}

/// Sums an iterator of points (used for CoSi aggregation).
impl core::iter::Sum for Point {
    fn sum<I: Iterator<Item = Point>>(iter: I) -> Point {
        iter.fold(Point::IDENTITY, |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Point {
        Point::generator()
    }

    #[test]
    fn generator_is_on_curve() {
        let (x, y) = g().to_affine().unwrap();
        assert!(Point::from_affine(x, y).is_some());
    }

    #[test]
    fn identity_laws() {
        assert_eq!(g() + Point::IDENTITY, g());
        assert_eq!(Point::IDENTITY + g(), g());
        assert!((g() + (-g())).is_identity());
        assert!(Point::IDENTITY.double().is_identity());
    }

    #[test]
    fn doubling_matches_addition() {
        assert_eq!(g().double(), g() + g());
        let p = g() * Scalar::from_u64(12345);
        assert_eq!(p.double(), p + p);
    }

    #[test]
    fn order_of_generator() {
        // n * G = identity; (n-1) * G = -G.
        let n_minus_1 = -Scalar::ONE; // n - 1 mod n
        let p = g() * n_minus_1;
        assert_eq!(p, -g());
        assert!((p + g()).is_identity());
    }

    #[test]
    fn known_multiples() {
        // 2G affine x from standard test vectors.
        let two_g = g() * Scalar::from_u64(2);
        let (x, _) = two_g.to_affine().unwrap();
        let mut expect = [0u8; 32];
        // x(2G) = C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
        let hex = "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5";
        for i in 0..32 {
            expect[i] = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).unwrap();
        }
        assert_eq!(x.to_be_bytes(), expect);
    }

    #[test]
    fn scalar_mul_is_additive_homomorphism() {
        let a = Scalar::from_u64(1234);
        let b = Scalar::from_u64(5678);
        assert_eq!(g() * a + g() * b, g() * (a + b));
    }

    #[test]
    fn windowed_matches_binary() {
        let k = Scalar::from_be_bytes_reduced(&[0x5Au8; 32]);
        assert_eq!(g().mul_scalar(&k), g().mul_scalar_binary(&k));
    }

    #[test]
    fn fixed_base_matches_general_mul() {
        let cases = [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            Scalar::from_u64(255),
            Scalar::from_u64(256),
            -Scalar::ONE, // n - 1
            Scalar::from_be_bytes_reduced(&[0xA7u8; 32]),
            Scalar::from_be_bytes_reduced(&[0x01u8; 32]),
        ];
        for k in cases {
            assert_eq!(Point::mul_generator(&k), g().mul_scalar(&k), "k={k:?}");
        }
    }

    #[test]
    fn zero_scalar_gives_identity() {
        assert!((g() * Scalar::ZERO).is_identity());
    }

    #[test]
    fn compressed_roundtrip() {
        for v in [1u64, 2, 3, 7, 1000, 123_456_789] {
            let p = g() * Scalar::from_u64(v);
            let enc = p.to_compressed_bytes();
            let dec = Point::from_compressed_bytes(&enc).unwrap();
            assert_eq!(dec, p, "v={v}");
        }
    }

    #[test]
    fn identity_roundtrip() {
        let enc = Point::IDENTITY.to_compressed_bytes();
        assert_eq!(enc, [0u8; 33]);
        assert!(Point::from_compressed_bytes(&enc).unwrap().is_identity());
    }

    #[test]
    fn bad_prefix_rejected() {
        let mut enc = g().to_compressed_bytes();
        enc[0] = 0x05;
        assert!(Point::from_compressed_bytes(&enc).is_err());
    }

    #[test]
    fn off_curve_x_rejected() {
        // Find an x with no curve point (about half of all x).
        let mut bytes = [0u8; 33];
        bytes[0] = 0x02;
        let mut rejected = false;
        for v in 1u8..30 {
            bytes[32] = v;
            if Point::from_compressed_bytes(&bytes).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "expected some x to be off-curve");
    }

    #[test]
    fn negation_roundtrip() {
        let p = g() * Scalar::from_u64(99);
        assert_eq!(-(-p), p);
        assert!((p + (-p)).is_identity());
    }

    #[test]
    fn associativity_spot_check() {
        let p = g() * Scalar::from_u64(11);
        let q = g() * Scalar::from_u64(22);
        let r = g() * Scalar::from_u64(33);
        assert_eq!((p + q) + r, p + (q + r));
    }

    #[test]
    fn commutativity_spot_check() {
        let p = g() * Scalar::from_u64(44);
        let q = g() * Scalar::from_u64(55);
        assert_eq!(p + q, q + p);
    }

    #[test]
    fn sum_iterator() {
        let pts = [g(), g().double(), g() * Scalar::from_u64(3)];
        let total: Point = pts.into_iter().sum();
        assert_eq!(total, g() * Scalar::from_u64(6));
    }

    #[test]
    fn tangent_doubling_with_y_zero_is_identity() {
        // No secp256k1 point has y = 0 (x^3 + 7 = 0 has no root), but the
        // guard must still behave: identity doubling.
        assert!(Point::IDENTITY.double().is_identity());
    }

    #[test]
    fn add_affine_matches_general_addition() {
        let p = g() * Scalar::from_u64(1234);
        let q = g() * Scalar::from_u64(5678);
        let q_affine = Point::batch_normalize(&[q])[0];
        assert_eq!(p.add_affine(&q_affine), p + q);
        // Identity left operand.
        assert_eq!(Point::IDENTITY.add_affine(&q_affine), q);
        // Identity right operand.
        assert_eq!(p.add_affine(&AffinePoint::IDENTITY), p);
        // Doubling fallback.
        let p_affine = Point::batch_normalize(&[p])[0];
        assert_eq!(p.add_affine(&p_affine), p.double());
        // Cancellation.
        assert!(p.add_affine(&p_affine.neg()).is_identity());
    }

    #[test]
    fn batch_normalize_matches_to_affine() {
        let points: Vec<Point> = (1u64..20).map(|v| g() * Scalar::from_u64(v)).collect();
        let affine = Point::batch_normalize(&points);
        for (p, a) in points.iter().zip(&affine) {
            let (x, y) = p.to_affine().unwrap();
            assert!(!a.is_identity());
            assert_eq!(a.to_point(), *p);
            let (ax, ay) = a.to_point().to_affine().unwrap();
            assert_eq!((ax, ay), (x, y));
        }
    }

    #[test]
    fn batch_normalize_handles_identities() {
        let p = g() * Scalar::from_u64(7);
        let batch = [
            Point::IDENTITY,
            p,
            Point::IDENTITY,
            p.double(),
            Point::IDENTITY,
        ];
        let affine = Point::batch_normalize(&batch);
        assert!(affine[0].is_identity());
        assert!(affine[2].is_identity());
        assert!(affine[4].is_identity());
        assert_eq!(affine[1].to_point(), p);
        assert_eq!(affine[3].to_point(), p.double());
        // All identities.
        let all_id = Point::batch_normalize(&[Point::IDENTITY; 3]);
        assert!(all_id.iter().all(|a| a.is_identity()));
    }

    #[test]
    fn shamir_matches_composed_muls() {
        let cases = [
            (Scalar::from_u64(1), Scalar::from_u64(1), 2u64),
            (Scalar::from_u64(12345), Scalar::from_u64(99999), 3),
            (
                Scalar::from_be_bytes_reduced(&[0xA7; 32]),
                Scalar::from_be_bytes_reduced(&[0x3C; 32]),
                77,
            ),
            (-Scalar::ONE, Scalar::from_be_bytes_reduced(&[0xF1; 32]), 5),
        ];
        for (a, b, pv) in cases {
            let p = g() * Scalar::from_u64(pv);
            let expect = Point::mul_generator(&a) + p.mul_scalar(&b);
            assert_eq!(Point::mul_shamir_generator(&a, &b, &p), expect);
        }
    }

    #[test]
    fn shamir_degenerate_inputs() {
        let p = g() * Scalar::from_u64(42);
        let a = Scalar::from_be_bytes_reduced(&[0x55; 32]);
        let b = Scalar::from_be_bytes_reduced(&[0x66; 32]);
        assert_eq!(
            Point::mul_shamir_generator(&a, &Scalar::ZERO, &p),
            Point::mul_generator(&a)
        );
        assert_eq!(
            Point::mul_shamir_generator(&Scalar::ZERO, &b, &p),
            p.mul_scalar(&b)
        );
        assert_eq!(
            Point::mul_shamir_generator(&a, &b, &Point::IDENTITY),
            Point::mul_generator(&a)
        );
        assert!(Point::mul_shamir_generator(&Scalar::ZERO, &Scalar::ZERO, &p).is_identity());
    }

    #[test]
    fn multi_mul_matches_naive_sum() {
        let terms: Vec<(Scalar, Point)> = [(3u64, 2u64), (1, 9), (0xFFFF_FFFF, 31), (7919, 104729)]
            .iter()
            .map(|&(a, pv)| (Scalar::from_u64(a), g() * Scalar::from_u64(pv)))
            .collect();
        let expect = terms
            .iter()
            .fold(Point::IDENTITY, |acc, (a, p)| acc + p.mul_scalar(a));
        assert_eq!(Point::multi_mul(&terms), expect);
    }

    #[test]
    fn multi_mul_with_large_scalars() {
        let a = Scalar::from_be_bytes_reduced(&[0xAB; 32]);
        let b = -Scalar::from_u64(12345); // close to n
        let p = g() * Scalar::from_u64(17);
        let q = g() * Scalar::from_u64(23);
        let expect = p.mul_scalar(&a) + q.mul_scalar(&b);
        assert_eq!(Point::multi_mul(&[(a, p), (b, q)]), expect);
    }

    #[test]
    fn multi_mul_skips_degenerate_terms() {
        let p = g() * Scalar::from_u64(5);
        assert!(Point::multi_mul(&[]).is_identity());
        assert!(Point::multi_mul(&[(Scalar::ZERO, p)]).is_identity());
        assert!(Point::multi_mul(&[(Scalar::ONE, Point::IDENTITY)]).is_identity());
        let terms = [
            (Scalar::ZERO, p),
            (Scalar::from_u64(2), p),
            (Scalar::ONE, Point::IDENTITY),
        ];
        assert_eq!(Point::multi_mul(&terms), p.double());
    }

    #[test]
    fn endomorphism_is_lambda_multiplication() {
        use crate::scalar::LAMBDA;
        let lambda = Scalar::from_be_bytes_reduced(&arith_be(&LAMBDA));
        for v in [1u64, 2, 7, 123_456_789] {
            let p = g() * Scalar::from_u64(v);
            assert_eq!(p.endomorphism(), p.mul_scalar(&lambda), "v={v}");
        }
        assert!(Point::IDENTITY.endomorphism().is_identity());
    }

    fn arith_be(limbs: &[u64; 4]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in limbs.iter().enumerate() {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    #[test]
    fn shamir_matches_for_full_width_scalars() {
        // Exercise the GLV four-stream ladder with scalars spanning the
        // whole range, including negatives of small values (bits = 256).
        let p = g() * Scalar::from_u64(987_654_321);
        let cases = [
            (-Scalar::ONE, -Scalar::from_u64(2)),
            (
                Scalar::from_be_bytes_reduced(&[0xFF; 32]),
                -Scalar::from_be_bytes_reduced(&[0x80; 32]),
            ),
        ];
        for (a, b) in cases {
            let expect = Point::mul_generator(&a) + p.mul_scalar(&b);
            assert_eq!(Point::mul_shamir_generator(&a, &b, &p), expect);
        }
    }

    #[test]
    fn table_walks_match_shamir() {
        let p = g() * Scalar::from_u64(4_242_424_242);
        let table = FixedBaseTable::new(&p);
        let cases = [
            (Scalar::ZERO, Scalar::ZERO),
            (Scalar::ONE, Scalar::ZERO),
            (Scalar::ZERO, Scalar::ONE),
            (Scalar::from_u64(256), Scalar::from_u64(255)),
            (-Scalar::ONE, -Scalar::ONE),
            (
                Scalar::from_be_bytes_reduced(&[0xA7; 32]),
                -Scalar::from_be_bytes_reduced(&[0x3C; 32]),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(table.mul(&b), p.mul_scalar(&b), "b={b:?}");
            assert_eq!(
                Point::mul_generator_and_table(&a, &b, &table),
                Point::mul_generator(&a) + p.mul_scalar(&b),
                "a={a:?} b={b:?}"
            );
        }
        // Adding P to a multiple that cancels it, and doubling through
        // a table hit, both go through the mixed-addition fallbacks.
        let table_g = FixedBaseTable::new(&g());
        assert!(
            Point::mul_generator_and_table(&Scalar::ONE, &-Scalar::ONE, &table_g).is_identity()
        );
        assert_eq!(
            Point::mul_generator_and_table(&Scalar::ONE, &Scalar::ONE, &table_g),
            g().double()
        );
        // The size docs/crypto.md states: 8192 entries of 72 bytes.
        assert_eq!(FixedBaseTable::BYTES, 589_824);
    }

    #[test]
    fn multi_mul_cancelling_terms_give_identity() {
        let a = Scalar::from_be_bytes_reduced(&[0x42; 32]);
        let p = g() * Scalar::from_u64(1000);
        assert!(Point::multi_mul(&[(a, p), (-a, p)]).is_identity());
    }
}
