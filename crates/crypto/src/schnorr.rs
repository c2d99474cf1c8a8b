//! Schnorr digital signatures over secp256k1 (paper §2.1).
//!
//! Every message exchanged in Fides — client requests, protocol messages,
//! votes — is signed by its sender and verified by the receiver (§3.1 of
//! the paper). The scheme is the classic Schnorr construction that CoSi
//! (§2.2, [`crate::cosi`]) aggregates:
//!
//! ```text
//! sign(x, m):   k = nonce(x, m);  R = k·G;  e = H(enc(R) ‖ enc(P) ‖ m)
//!               s = k + e·x;      signature = (R, s)
//! verify:       s·G == R + e·P
//! ```
//!
//! Nonces are derived deterministically with HMAC-SHA256 (RFC 6979
//! spirit), so signing never needs an RNG and is reproducible in tests.
//!
//! # Prepared keys
//!
//! A key the process verifies again and again — a directory entry —
//! can be [prepared](PublicKey::prepared): on its first check a
//! [`FixedBaseTable`] of its multiples is built and kept for the life
//! of the process, and every check against it walks that table instead
//! of running the Strauss–Shamir ladder. A table depends only on its
//! key, so one process-wide registry serves every cluster the process
//! starts; keys nobody prepared never get one. `cosi` prepares the
//! aggregate key of a witness set whose members are all prepared.

use core::fmt;
use std::collections::HashMap;
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::hash::Digest;
use crate::point::{FixedBaseTable, Point};
use crate::scalar::Scalar;
use crate::sha256::{hmac_sha256, Sha256};

/// A secret signing key (a non-zero scalar).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(Scalar);

/// A public verification key (a non-identity curve point).
///
/// Equality compares the point only: a [prepared](PublicKey::prepared)
/// copy equals the plain key.
#[derive(Clone, Copy)]
pub struct PublicKey {
    point: Point,
    /// The process-wide verification table of a prepared key; `None`
    /// for every other key.
    signer: Option<&'static SignerTable>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &PublicKey) -> bool {
        self.point == other.point
    }
}

impl Eq for PublicKey {}

/// A prepared key's [`FixedBaseTable`], built on the key's first check
/// and kept for the life of the process.
struct SignerTable {
    point: Point,
    table: OnceLock<FixedBaseTable>,
}

impl SignerTable {
    /// The table, built on first use (once: other threads checking
    /// against the key meanwhile wait for it).
    fn table(&self) -> &FixedBaseTable {
        self.table.get_or_init(|| FixedBaseTable::new(&self.point))
    }
}

/// Every prepared key of this process, by compressed encoding. Entries
/// are leaked and never removed, one per distinct prepared key.
fn prepared_keys() -> &'static RwLock<HashMap<[u8; 33], &'static SignerTable>> {
    static KEYS: OnceLock<RwLock<HashMap<[u8; 33], &'static SignerTable>>> = OnceLock::new();
    KEYS.get_or_init(Default::default)
}

/// A Schnorr signature `(R, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The public nonce commitment `R = k·G`.
    pub r: Point,
    /// The response `s = k + e·x`.
    pub s: Scalar,
}

/// A secret/public key pair.
///
/// # Example
///
/// ```
/// use fides_crypto::schnorr::KeyPair;
///
/// let kp = KeyPair::from_seed(b"coordinator");
/// let sig = kp.sign(b"challenge message");
/// assert!(kp.public_key().verify(b"challenge message", &sig));
/// assert!(!kp.public_key().verify(b"another message", &sig));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    sk: SecretKey,
    pk: PublicKey,
}

impl SecretKey {
    /// Derives a secret key deterministically from a seed.
    ///
    /// The seed is hashed and reduced modulo the group order; the
    /// astronomically unlikely zero result is bumped to one so that the
    /// key is always valid.
    pub fn from_seed(seed: &[u8]) -> Self {
        let digest = Sha256::digest_parts(&[b"fides.keygen.v1", seed]);
        let mut s = Scalar::from_digest(&digest);
        if s.is_zero() {
            s = Scalar::ONE;
        }
        SecretKey(s)
    }

    /// Constructs from an existing scalar; `None` if zero.
    pub fn from_scalar(s: Scalar) -> Option<Self> {
        if s.is_zero() {
            None
        } else {
            Some(SecretKey(s))
        }
    }

    /// The corresponding public key `x·G`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey::from_point(Point::mul_generator(&self.0)).expect("x != 0, so x·G != O")
    }

    /// Exposes the underlying scalar (needed by CoSi responses).
    pub fn scalar(&self) -> Scalar {
        self.0
    }
}

impl PublicKey {
    /// Wraps a point; `None` for the identity (invalid key).
    ///
    /// The point is normalized to `Z = 1` once here, so the frequent
    /// downstream operations (challenge hashing, encoding, mixed
    /// addition) never pay a field inversion for it again.
    pub fn from_point(p: Point) -> Option<Self> {
        if p.is_identity() {
            None
        } else {
            Some(PublicKey {
                point: p.normalize(),
                signer: None,
            })
        }
    }

    /// The underlying curve point.
    pub fn point(&self) -> Point {
        self.point
    }

    /// Compressed 33-byte encoding.
    pub fn to_bytes(self) -> [u8; 33] {
        self.point.to_compressed_bytes()
    }

    /// This key, marked as one the process verifies again and again
    /// (a directory entry): on its first check a [`FixedBaseTable`] of
    /// its multiples is built ([`FixedBaseTable::BYTES`], a few
    /// milliseconds), and every later check — through this copy or any
    /// other prepared copy of the same key, in any cluster of the
    /// process — walks it instead of the Strauss–Shamir ladder.
    /// Preparing costs one registry lookup; a key never checked never
    /// builds its table.
    pub fn prepared(self) -> PublicKey {
        let bytes = self.to_bytes();
        let registry = prepared_keys();
        // Every update is one insert of a leaked entry, so a map whose
        // lock was poisoned is still whole.
        let known = registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&bytes)
            .copied();
        let signer = known.unwrap_or_else(|| {
            *registry
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(bytes)
                .or_insert_with(|| {
                    Box::leak(Box::new(SignerTable {
                        point: self.point,
                        table: OnceLock::new(),
                    }))
                })
        });
        PublicKey {
            point: self.point,
            signer: Some(signer),
        }
    }

    /// Whether this copy is [prepared](PublicKey::prepared).
    pub(crate) fn is_prepared(&self) -> bool {
        self.signer.is_some()
    }

    /// Whether this prepared key's table has been built.
    #[cfg(test)]
    pub(crate) fn table_is_built(&self) -> bool {
        self.signer
            .is_some_and(|signer| signer.table.get().is_some())
    }

    /// `a·G + b·P` for this key's point `P`: two table walks
    /// ([`Point::mul_generator_and_table`]) for a prepared key, one
    /// Strauss–Shamir ladder ([`Point::mul_shamir_generator`]) for any
    /// other.
    pub(crate) fn mul_with_generator(&self, a: &Scalar, b: &Scalar) -> Point {
        match self.signer {
            Some(signer) => Point::mul_generator_and_table(a, b, signer.table()),
            None => Point::mul_shamir_generator(a, b, &self.point),
        }
    }

    /// Decodes and validates a compressed public key.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed encodings or the identity point.
    pub fn from_bytes(bytes: &[u8; 33]) -> Result<Self, DecodeError> {
        let p = Point::from_compressed_bytes(bytes)?;
        PublicKey::from_point(p).ok_or(DecodeError::InvalidValue("identity public key"))
    }

    /// Verifies a signature over `message`.
    ///
    /// The check `s·G == R + e·P` is evaluated as the double-scalar
    /// multiplication `s·G + (−e)·P == R`. A
    /// [prepared](PublicKey::prepared) key walks its own table; any
    /// other key runs [`Point::mul_shamir_generator`], sharing a single
    /// doubling ladder between both scalars instead of performing two
    /// independent full-width multiplications.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.r.is_identity() {
            return false;
        }
        let e = challenge_scalar(&sig.r, self, message);
        self.mul_with_generator(&sig.s, &(-e)) == sig.r
    }

    /// [`PublicKey::verify`] evaluated over the pre-GLV wNAF ladder
    /// ([`Point::mul_shamir_generator_wnaf`]) — the "before" side of
    /// the GLV microbenchmark and a differential-test oracle. Not a
    /// production path.
    #[doc(hidden)]
    pub fn verify_wnaf(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.r.is_identity() {
            return false;
        }
        let e = challenge_scalar(&sig.r, self, message);
        Point::mul_shamir_generator_wnaf(&sig.s, &(-e), &self.point) == sig.r
    }

    /// A short identifier (first hex bytes of the key) for diagnostics.
    pub fn short_id(&self) -> String {
        let b = self.to_bytes();
        format!("{:02x}{:02x}{:02x}{:02x}", b[1], b[2], b[3], b[4])
    }
}

impl KeyPair {
    /// Deterministic key pair from a seed (see [`SecretKey::from_seed`]).
    pub fn from_seed(seed: &[u8]) -> Self {
        let sk = SecretKey::from_seed(seed);
        KeyPair {
            pk: sk.public_key(),
            sk,
        }
    }

    /// The secret half.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// The public half.
    pub fn public_key(&self) -> PublicKey {
        self.pk
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let k = derive_nonce(&self.sk, message, b"fides.schnorr.nonce.v1");
        // Normalize the nonce commitment once: the challenge hash here,
        // the wire encoding, and the verifier's final comparison all
        // want the affine form.
        let r = Point::mul_generator(&k).normalize();
        let e = challenge_scalar(&r, &self.pk, message);
        let s = k + e * self.sk.scalar();
        Signature { r, s }
    }
}

/// One `(public key, message, signature)` triple of a batch
/// verification (see [`verify_batch`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// The signer's public key.
    pub public_key: PublicKey,
    /// The signed message.
    pub message: &'a [u8],
    /// The signature to check.
    pub signature: Signature,
}

/// Verifies `N` signatures with **one** multi-scalar multiplication
/// instead of `N` double-scalar multiplications.
///
/// Uses the standard random-linear-combination check: with per-item
/// randomizers `zᵢ` (128-bit, derived deterministically from a hash of
/// the whole batch — a cheating prover cannot predict them while
/// choosing signatures), the batch is valid iff
///
/// ```text
/// Σ zᵢ·(Rᵢ + eᵢ·Pᵢ)  ==  (Σ zᵢ·sᵢ)·G
/// ```
///
/// If every signature is individually valid the equation always holds;
/// if any is invalid it fails except with probability ~2⁻¹²⁸ over the
/// randomizers. A `true` result is therefore a batch-soundness
/// statement, not a per-item proof — callers that need to *attribute*
/// a failure fall back to [`find_invalid`].
///
/// The empty batch is vacuously valid.
pub fn verify_batch(items: &[BatchItem<'_>]) -> bool {
    match items {
        [] => return true,
        [single] => return single.public_key.verify(single.message, &single.signature),
        _ => {}
    }
    if items.iter().any(|item| item.signature.r.is_identity()) {
        return false;
    }
    let challenges = challenge_scalars(items);
    let zs = batch_randomizers(items, &challenges);
    let mut s_combined = Scalar::ZERO;
    let mut terms = Vec::with_capacity(2 * items.len());
    for ((item, e), z) in items.iter().zip(&challenges).zip(&zs) {
        s_combined = s_combined + *z * item.signature.s;
        terms.push((*z, item.signature.r));
        terms.push((*z * *e, item.public_key.point()));
    }
    Point::multi_mul(&terms) == Point::mul_generator(&s_combined)
}

/// Verifies each item individually, returning the indices of invalid
/// signatures — the attribution fallback after a failed
/// [`verify_batch`].
pub fn find_invalid(items: &[BatchItem<'_>]) -> Vec<usize> {
    items
        .iter()
        .enumerate()
        .filter(|(_, item)| !item.public_key.verify(item.message, &item.signature))
        .map(|(i, _)| i)
        .collect()
}

/// Derives the per-item batch randomizers: `z₀ = 1` (sound for a
/// linear-combination check) and `zᵢ` = 128 bits of
/// `H(transcript ‖ i)`.
///
/// The transcript commits to every signature `(R, s)` and its
/// Fiat–Shamir challenge `e`; since `e = H(enc(R) ‖ enc(P) ‖ m)`, this
/// transitively commits to the key and message under collision
/// resistance without re-hashing them.
fn batch_randomizers(items: &[BatchItem<'_>], challenges: &[Scalar]) -> Vec<Scalar> {
    let mut transcript = Sha256::new();
    transcript.update(b"fides.schnorr.batch.v1");
    for (item, e) in items.iter().zip(challenges) {
        transcript.update(&item.signature.r.to_compressed_bytes());
        transcript.update(&item.signature.s.to_be_bytes());
        transcript.update(&e.to_be_bytes());
    }
    let seed = transcript.finalize();
    // The per-item derivation messages are fixed-width and independent:
    // hash them all through the multi-lane batch API.
    const Z_DOMAIN: &[u8; 24] = b"fides.schnorr.batch.z.v1";
    let messages: Vec<[u8; 64]> = (1..items.len())
        .map(|i| {
            let mut m = [0u8; 64];
            m[..24].copy_from_slice(Z_DOMAIN);
            m[24..56].copy_from_slice(seed.as_bytes());
            m[56..].copy_from_slice(&(i as u64).to_be_bytes());
            m
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    let mut zs = Vec::with_capacity(items.len());
    zs.push(Scalar::ONE);
    for digest in Sha256::digest_many(&refs) {
        // Keep only the low 128 bits: short randomizers preserve
        // soundness (~2^-128) and halve the ladder work per term.
        let mut bytes = [0u8; 32];
        bytes[16..].copy_from_slice(&digest.as_bytes()[16..]);
        let z = Scalar::from_be_bytes(&bytes).expect("128-bit value is canonical");
        zs.push(if z.is_zero() { Scalar::ONE } else { z });
    }
    zs
}

/// Domain-separation prefix of the Fiat–Shamir challenge hash.
const CHALLENGE_DOMAIN: &[u8] = b"fides.schnorr.challenge.v1";

/// Computes the Fiat–Shamir challenge `e = H(enc(R) ‖ enc(P) ‖ m)`.
fn challenge_scalar(r: &Point, pk: &PublicKey, message: &[u8]) -> Scalar {
    let digest = Sha256::digest_parts(&[
        CHALLENGE_DOMAIN,
        &r.to_compressed_bytes(),
        &pk.to_bytes(),
        message,
    ]);
    Scalar::from_digest(&digest)
}

/// Batch form of [`challenge_scalar`]: builds every item's challenge
/// preimage and hashes them with the multi-lane
/// [`Sha256::digest_many`] — the per-message hashing that dominates
/// envelope batch verification once the point arithmetic is shared.
fn challenge_scalars(items: &[BatchItem<'_>]) -> Vec<Scalar> {
    let messages: Vec<Vec<u8>> = items
        .iter()
        .map(|item| {
            let mut m = Vec::with_capacity(CHALLENGE_DOMAIN.len() + 66 + item.message.len());
            m.extend_from_slice(CHALLENGE_DOMAIN);
            m.extend_from_slice(&item.signature.r.to_compressed_bytes());
            m.extend_from_slice(&item.public_key.to_bytes());
            m.extend_from_slice(item.message);
            m
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    Sha256::digest_many(&refs)
        .iter()
        .map(Scalar::from_digest)
        .collect()
}

/// Deterministic nonce derivation: HMAC keyed by the secret key over the
/// message, domain-separated by `label`. Retries with a counter in the
/// (astronomically unlikely) zero case.
pub(crate) fn derive_nonce(sk: &SecretKey, message: &[u8], label: &[u8]) -> Scalar {
    let key = sk.scalar().to_be_bytes();
    let mut counter = 0u8;
    loop {
        let mut data = Vec::with_capacity(label.len() + message.len() + 1);
        data.extend_from_slice(label);
        data.extend_from_slice(message);
        data.push(counter);
        let mac = hmac_sha256(&key, &data);
        let k = Scalar::from_digest(&mac);
        if !k.is_zero() {
            return k;
        }
        counter = counter.wrapping_add(1);
    }
}

impl Encodable for Signature {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_fixed(&self.r.to_compressed_bytes());
        enc.put_fixed(&self.s.to_be_bytes());
    }
}

impl Decodable for Signature {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut rb = [0u8; 33];
        rb.copy_from_slice(dec.take_fixed(33)?);
        let r = Point::from_compressed_bytes(&rb)?;
        let mut sb = [0u8; 32];
        sb.copy_from_slice(dec.take_fixed(32)?);
        let s = Scalar::from_be_bytes(&sb).ok_or(DecodeError::InvalidValue("signature scalar"))?;
        Ok(Signature { r, s })
    }
}

impl Encodable for PublicKey {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_fixed(&self.to_bytes());
    }
}

impl Decodable for PublicKey {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut b = [0u8; 33];
        b.copy_from_slice(dec.take_fixed(33)?);
        PublicKey::from_bytes(&b)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(redacted)")
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", self.short_id())
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair(pk={}…)", self.pk.short_id())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.to_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Convenience: hash of a public key, used as a stable node identifier.
impl PublicKey {
    /// SHA-256 of the compressed encoding.
    pub fn fingerprint(&self) -> Digest {
        Sha256::digest(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"hello fides");
        assert!(kp.public_key().verify(b"hello fides", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"msg-1");
        assert!(!kp.public_key().verify(b"msg-2", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let sig = alice.sign(b"msg");
        assert!(!bob.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = KeyPair::from_seed(b"alice");
        let mut sig = kp.sign(b"msg");
        sig.s = sig.s + Scalar::ONE;
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = KeyPair::from_seed(b"carol");
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn different_messages_different_nonces() {
        let kp = KeyPair::from_seed(b"carol");
        let s1 = kp.sign(b"m1");
        let s2 = kp.sign(b"m2");
        assert_ne!(s1.r, s2.r, "nonce reuse across messages would leak the key");
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        assert_ne!(
            KeyPair::from_seed(b"s1").public_key(),
            KeyPair::from_seed(b"s2").public_key()
        );
    }

    #[test]
    fn pubkey_encoding_roundtrip() {
        let pk = KeyPair::from_seed(b"dave").public_key();
        let decoded = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(decoded, pk);
    }

    #[test]
    fn signature_encoding_roundtrip() {
        let kp = KeyPair::from_seed(b"erin");
        let sig = kp.sign(b"payload");
        let bytes = sig.encode();
        let decoded = Signature::decode(&bytes).unwrap();
        assert_eq!(decoded, sig);
        assert!(kp.public_key().verify(b"payload", &decoded));
    }

    #[test]
    fn identity_pubkey_rejected() {
        assert!(PublicKey::from_bytes(&[0u8; 33]).is_err());
        assert!(PublicKey::from_point(Point::IDENTITY).is_none());
    }

    #[test]
    fn empty_message_signs() {
        let kp = KeyPair::from_seed(b"frank");
        let sig = kp.sign(b"");
        assert!(kp.public_key().verify(b"", &sig));
    }

    #[test]
    fn large_message_signs() {
        let kp = KeyPair::from_seed(b"grace");
        let msg = vec![0x42u8; 100_000];
        let sig = kp.sign(&msg);
        assert!(kp.public_key().verify(&msg, &sig));
    }

    #[test]
    fn secret_key_debug_redacted() {
        let kp = KeyPair::from_seed(b"secret");
        assert_eq!(format!("{:?}", kp.secret_key()), "SecretKey(redacted)");
    }

    #[test]
    fn prepared_key_builds_its_table_once() {
        let kp = KeyPair::from_seed(b"prepared-once");
        let plain = kp.public_key();
        let first = plain.prepared();
        // A second preparation — say, by another cluster — and a copy
        // decoded from the wire share the one registry entry, so the
        // one table.
        let second = PublicKey::from_bytes(&plain.to_bytes()).unwrap().prepared();
        let (a, b) = (first.signer.unwrap(), second.signer.unwrap());
        assert!(core::ptr::eq(a, b));
        assert_eq!(first, plain);
        assert!(!first.table_is_built(), "preparing builds nothing");
        for i in 0..4u8 {
            let msg = [i; 9];
            let sig = kp.sign(&msg);
            assert!(first.verify(&msg, &sig));
            assert!(second.verify(&msg, &sig));
            assert!(!second.verify(b"other", &sig));
        }
        assert!(first.table_is_built());
        assert!(core::ptr::eq(a.table(), b.table()));
    }

    #[test]
    fn unprepared_key_never_gets_a_table() {
        let kp = KeyPair::from_seed(b"never-prepared");
        let pk = kp.public_key();
        let sig = kp.sign(b"m");
        for _ in 0..3 {
            assert!(pk.verify(b"m", &sig));
        }
        assert!(!pk.is_prepared());
        assert!(!PublicKey::from_bytes(&pk.to_bytes()).unwrap().is_prepared());
        let registry = prepared_keys().read().unwrap();
        assert!(!registry.contains_key(&pk.to_bytes()));
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let a = KeyPair::from_seed(b"x").public_key();
        let b = KeyPair::from_seed(b"y").public_key();
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Builds a batch of `n` valid (key, message, signature) items.
    fn valid_batch(n: usize, messages: &mut Vec<Vec<u8>>) -> Vec<(PublicKey, Signature)> {
        messages.clear();
        let mut sigs = Vec::with_capacity(n);
        for i in 0..n {
            let kp = KeyPair::from_seed(&[i as u8, 0xB4]);
            let msg = format!("batch message {i}").into_bytes();
            let sig = kp.sign(&msg);
            sigs.push((kp.public_key(), sig));
            messages.push(msg);
        }
        sigs
    }

    fn items<'a>(sigs: &[(PublicKey, Signature)], messages: &'a [Vec<u8>]) -> Vec<BatchItem<'a>> {
        sigs.iter()
            .zip(messages)
            .map(|(&(public_key, signature), message)| BatchItem {
                public_key,
                message,
                signature,
            })
            .collect()
    }

    #[test]
    fn batch_accepts_all_valid() {
        let mut messages = Vec::new();
        for n in [0usize, 1, 2, 3, 8, 33] {
            let sigs = valid_batch(n, &mut messages);
            assert!(verify_batch(&items(&sigs, &messages)), "n={n}");
        }
    }

    #[test]
    fn batch_rejects_single_corruption() {
        let mut messages = Vec::new();
        for corrupt in [0usize, 3, 7] {
            let mut sigs = valid_batch(8, &mut messages);
            sigs[corrupt].1.s = sigs[corrupt].1.s + Scalar::ONE;
            let batch = items(&sigs, &messages);
            assert!(!verify_batch(&batch), "corrupt={corrupt}");
            assert_eq!(find_invalid(&batch), vec![corrupt]);
        }
    }

    #[test]
    fn batch_rejects_wrong_message() {
        let mut messages = Vec::new();
        let sigs = valid_batch(5, &mut messages);
        messages[2] = b"tampered".to_vec();
        let batch = items(&sigs, &messages);
        assert!(!verify_batch(&batch));
        assert_eq!(find_invalid(&batch), vec![2]);
    }

    #[test]
    fn batch_rejects_identity_nonce() {
        let mut messages = Vec::new();
        let mut sigs = valid_batch(4, &mut messages);
        sigs[1].1.r = Point::IDENTITY;
        assert!(!verify_batch(&items(&sigs, &messages)));
    }

    #[test]
    fn batch_localizes_multiple_corruptions() {
        let mut messages = Vec::new();
        let mut sigs = valid_batch(9, &mut messages);
        sigs[2].1.s = sigs[2].1.s + Scalar::ONE;
        sigs[6].1.s = sigs[6].1.s + Scalar::ONE;
        let batch = items(&sigs, &messages);
        assert!(!verify_batch(&batch));
        assert_eq!(find_invalid(&batch), vec![2, 6]);
    }

    #[test]
    fn batch_agrees_with_individual_verifies() {
        // The invariant the ledger relies on: batch-true iff every
        // individual verify is true.
        let mut messages = Vec::new();
        let mut sigs = valid_batch(6, &mut messages);
        let all_individual = |sigs: &[(PublicKey, Signature)], msgs: &[Vec<u8>]| {
            sigs.iter()
                .zip(msgs)
                .all(|((pk, sig), m)| pk.verify(m, sig))
        };
        assert_eq!(
            verify_batch(&items(&sigs, &messages)),
            all_individual(&sigs, &messages)
        );
        sigs[4].1.s = sigs[4].1.s + Scalar::ONE;
        assert_eq!(
            verify_batch(&items(&sigs, &messages)),
            all_individual(&sigs, &messages)
        );
    }
}
