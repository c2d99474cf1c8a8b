//! CoSi — collective signing (paper §2.2).
//!
//! CoSi lets a leader produce a record that a group of witnesses validates
//! and collectively signs, yielding a signature with the size and
//! verification cost of a *single* Schnorr signature. TFCommit (paper
//! §4.3) runs one CoSi round per block: the coordinator is the leader and
//! every database server (including the coordinator itself) is a witness.
//!
//! The four phases, mapped to this module's API:
//!
//! 1. **Announcement** — the leader distributes the round id and record;
//!    no cryptography here (plain message in `fides-core`).
//! 2. **Commitment** — each witness calls [`Witness::commit`], producing
//!    a Schnorr commitment `X_i = v_i·G`.
//! 3. **Challenge** — the leader aggregates `X = Σ X_i` and computes
//!    `c = H(enc(X) ‖ record)` via [`challenge`].
//! 4. **Response** — each witness validates the record and calls
//!    [`Witness::respond`], producing `r_i = v_i + c·sk_i`; the leader
//!    aggregates `s = Σ r_i` into a [`CollectiveSignature`].
//!
//! Verification ([`CollectiveSignature::verify`]) checks
//! `s·G == X + c·ΣP_i` — anyone holding the witnesses' public keys can
//! verify at the cost of one signature check (§2.2).
//!
//! [`identify_invalid_responses`] implements the culprit identification of
//! Lemma 4: each partial response is individually checkable against the
//! witness's commitment and public key, so a leader holding all parts can
//! name exactly which witness lied.
//!
//! # Example
//!
//! ```
//! use fides_crypto::cosi::{self, Witness};
//! use fides_crypto::schnorr::KeyPair;
//!
//! let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i])).collect();
//! let record = b"block #7";
//!
//! // Commitment phase.
//! let witnesses: Vec<Witness> = keys
//!     .iter()
//!     .map(|kp| Witness::commit(kp, b"round-7", record))
//!     .collect();
//! let commitments: Vec<_> = witnesses.iter().map(|w| w.commitment()).collect();
//!
//! // Challenge phase (leader).
//! let agg = cosi::aggregate_commitments(commitments.iter().copied());
//! let c = cosi::challenge(&agg, record);
//!
//! // Response phase.
//! let responses: Vec<_> = witnesses.iter().map(|w| w.respond(&c)).collect();
//! let sig = cosi::CollectiveSignature::assemble(agg, responses.iter().copied());
//!
//! let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
//! assert!(sig.verify(record, &pks));
//! ```

use core::fmt;

use crate::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::point::Point;
use crate::scalar::Scalar;
use crate::schnorr::{derive_nonce, KeyPair, PublicKey};
use crate::sha256::Sha256;

/// A witness's Schnorr commitment `X_i = v_i·G` (phase 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Commitment(pub Point);

/// A witness's Schnorr response `r_i = v_i + c·sk_i` (phase 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Response(pub Scalar);

/// Per-round witness state: the secret nonce and its public commitment.
///
/// Dropping a `Witness` without responding is safe (the nonce is never
/// reused because it is derived from the round id and record).
pub struct Witness {
    secret: Scalar,
    commitment: Commitment,
    key: KeyPair,
}

impl fmt::Debug for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The per-round secret is never printed.
        write!(f, "Witness(commitment={:?})", self.commitment)
    }
}

impl Witness {
    /// Phase 2: derive the per-round secret and commitment.
    ///
    /// The secret nonce is derived deterministically from the secret key,
    /// the round id and the record, so a witness never reuses a nonce as
    /// long as round ids are unique — TFCommit uses the block height and
    /// previous-block hash.
    pub fn commit(key: &KeyPair, round_id: &[u8], record_hint: &[u8]) -> Witness {
        let mut material = Vec::with_capacity(round_id.len() + record_hint.len() + 1);
        material.extend_from_slice(round_id);
        material.push(0x1F); // separator between round id and record hint
        material.extend_from_slice(record_hint);
        let v = derive_nonce(key.secret_key(), &material, b"fides.cosi.nonce.v1");
        Witness {
            secret: v,
            commitment: Commitment(Point::mul_generator(&v).normalize()),
            key: *key,
        }
    }

    /// The public commitment to send to the leader.
    pub fn commitment(&self) -> Commitment {
        self.commitment
    }

    /// Phase 4: compute the response for challenge `c`.
    pub fn respond(&self, c: &Scalar) -> Response {
        Response(self.secret + *c * self.key.secret_key().scalar())
    }

    /// A deliberately wrong response — used by fault-injection tests to
    /// model the malicious behaviour of Lemma 4.
    #[doc(hidden)]
    pub fn respond_corrupt(&self, c: &Scalar) -> Response {
        Response(self.secret + *c * self.key.secret_key().scalar() + Scalar::ONE)
    }
}

/// Aggregates witness commitments: `X = Σ X_i` (phase 3, leader side).
///
/// The sum is normalized to `Z = 1` once, so the challenge hash, the
/// wire encoding and the verifier's final comparison all avoid a field
/// inversion.
pub fn aggregate_commitments<I: IntoIterator<Item = Commitment>>(commitments: I) -> Point {
    commitments
        .into_iter()
        .map(|c| c.0)
        .sum::<Point>()
        .normalize()
}

/// Computes the collective challenge `c = H(enc(X) ‖ record)` (§2.2:
/// `ch = hash(X | R)`).
pub fn challenge(aggregate_commitment: &Point, record: &[u8]) -> Scalar {
    let digest = Sha256::digest_parts(&[
        b"fides.cosi.challenge.v1",
        &aggregate_commitment.to_compressed_bytes(),
        record,
    ]);
    Scalar::from_digest(&digest)
}

/// Aggregates the group's public keys: `P = Σ P_i`.
pub fn aggregate_public_keys<'a, I: IntoIterator<Item = &'a PublicKey>>(keys: I) -> Point {
    keys.into_iter().map(|k| k.point()).sum()
}

/// The final collective signature `(X, s)`: same size as one Schnorr
/// signature regardless of group size.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSignature {
    /// Aggregated commitment `X = Σ X_i`.
    pub aggregate_commitment: Point,
    /// Aggregated response `s = Σ r_i`.
    pub aggregate_response: Scalar,
}

impl CollectiveSignature {
    /// Phase 5 (leader): sum the responses into the final signature.
    pub fn assemble<I: IntoIterator<Item = Response>>(
        aggregate_commitment: Point,
        responses: I,
    ) -> CollectiveSignature {
        let s = responses.into_iter().fold(Scalar::ZERO, |acc, r| acc + r.0);
        CollectiveSignature {
            aggregate_commitment,
            aggregate_response: s,
        }
    }

    /// Verifies the co-sign over `record` for the given witness set.
    ///
    /// Cost is independent of the group size modulo the key aggregation
    /// (`ΣP_i`), exactly the CoSi property the paper relies on: "anyone
    /// with the public keys of all the involved servers can verify the
    /// co-sign and the verification cost is the same as verifying a
    /// single signature."
    ///
    /// Like [`PublicKey::verify`](crate::schnorr::PublicKey::verify),
    /// the check `s·G == X + c·ΣPᵢ` runs as one double-scalar
    /// multiplication `s·G + (−c)·ΣPᵢ == X`. When every key is
    /// [prepared](PublicKey::prepared) — a cluster's witness set — the
    /// aggregate `ΣPᵢ` is prepared too, so it gets its own process-wide
    /// table on the set's first check and the check is two table walks;
    /// otherwise it is one Strauss–Shamir ladder.
    pub fn verify(&self, record: &[u8], public_keys: &[PublicKey]) -> bool {
        if public_keys.is_empty() {
            return false;
        }
        let c = challenge(&self.aggregate_commitment, record);
        let (s, minus_c) = (&self.aggregate_response, &(-c));
        let agg_pk = aggregate_public_keys(public_keys.iter());
        let lhs = match PublicKey::from_point(agg_pk) {
            Some(aggregate) if public_keys.iter().all(PublicKey::is_prepared) => {
                aggregate.prepared().mul_with_generator(s, minus_c)
            }
            _ => Point::mul_shamir_generator(s, minus_c, &agg_pk),
        };
        lhs == self.aggregate_commitment
    }

    /// A placeholder (all-zero) signature for blocks still under
    /// construction. Never verifies.
    pub fn placeholder() -> CollectiveSignature {
        CollectiveSignature {
            aggregate_commitment: Point::IDENTITY,
            aggregate_response: Scalar::ZERO,
        }
    }
}

/// Verifies `N` collective signatures for the **same witness set**
/// with one multi-scalar multiplication — the whole-log fast path used
/// by chain validation and audit catch-up.
///
/// Per item `i` the single check is `sᵢ·G == Xᵢ + cᵢ·P` with the shared
/// aggregate key `P = ΣPⱼ`. The random linear combination (128-bit
/// `zᵢ`, `z₀ = 1`) folds all of them into
///
/// ```text
/// Σ zᵢ·Xᵢ + (Σ zᵢ·cᵢ)·P  ==  (Σ zᵢ·sᵢ)·G
/// ```
///
/// — note the `P` terms collapse into a *single* point term, so the
/// marginal cost per additional block is one short-scalar ladder
/// contribution, far below a full verification. A `false` result does
/// not attribute blame; callers fall back to per-signature
/// [`CollectiveSignature::verify`] to pinpoint the offending item
/// (audit semantics preserved).
///
/// The empty batch is vacuously valid; an empty key set is invalid
/// (matching the single-verify contract).
pub fn verify_batch(items: &[(&[u8], CollectiveSignature)], public_keys: &[PublicKey]) -> bool {
    if items.is_empty() {
        return true;
    }
    if public_keys.is_empty() {
        return false;
    }
    if let [(record, sig)] = items {
        return sig.verify(record, public_keys);
    }
    let agg_pk = aggregate_public_keys(public_keys.iter());
    let challenges: Vec<Scalar> = items
        .iter()
        .map(|(record, sig)| challenge(&sig.aggregate_commitment, record))
        .collect();
    let zs = batch_randomizers(items, &challenges, public_keys);
    let mut s_combined = Scalar::ZERO;
    let mut c_combined = Scalar::ZERO;
    let mut terms = Vec::with_capacity(items.len() + 1);
    for ((_, sig), (c, z)) in items.iter().zip(challenges.iter().zip(&zs)) {
        s_combined = s_combined + *z * sig.aggregate_response;
        c_combined = c_combined + *z * *c;
        terms.push((*z, sig.aggregate_commitment));
    }
    terms.push((c_combined, agg_pk));
    Point::multi_mul(&terms) == Point::mul_generator(&s_combined)
}

/// Derives deterministic 128-bit batch randomizers (`z₀ = 1`).
///
/// The transcript commits to the witness set, every signature `(X, s)`
/// and its challenge `c = H(enc(X) ‖ record)` — the latter transitively
/// commits to the record under collision resistance.
fn batch_randomizers(
    items: &[(&[u8], CollectiveSignature)],
    challenges: &[Scalar],
    public_keys: &[PublicKey],
) -> Vec<Scalar> {
    let mut transcript = Sha256::new();
    transcript.update(b"fides.cosi.batch.v1");
    for pk in public_keys {
        transcript.update(&pk.to_bytes());
    }
    for ((_, sig), c) in items.iter().zip(challenges) {
        transcript.update(&sig.aggregate_commitment.to_compressed_bytes());
        transcript.update(&sig.aggregate_response.to_be_bytes());
        transcript.update(&c.to_be_bytes());
    }
    let seed = transcript.finalize();
    (0..items.len())
        .map(|i| {
            if i == 0 {
                return Scalar::ONE;
            }
            let digest = Sha256::digest_parts(&[
                b"fides.cosi.batch.z.v1",
                seed.as_bytes(),
                &(i as u64).to_be_bytes(),
            ]);
            let mut bytes = [0u8; 32];
            bytes[16..].copy_from_slice(&digest.as_bytes()[16..]);
            let z = Scalar::from_be_bytes(&bytes).expect("128-bit value is canonical");
            if z.is_zero() {
                Scalar::ONE
            } else {
                z
            }
        })
        .collect()
}

/// Checks each witness's partial response against its commitment:
/// `r_i·G == X_i + c·P_i`. Returns the indices of invalid responses.
///
/// This is the leader-side check behind Lemma 4 ("the coordinator … can
/// check partial signatures produced by excluding one server at a time
/// and detect the precise server without which the signature is valid") —
/// checking partials directly is equivalent and linear instead of
/// quadratic.
pub fn identify_invalid_responses(
    challenge: &Scalar,
    commitments: &[Commitment],
    responses: &[Response],
    public_keys: &[PublicKey],
) -> Vec<usize> {
    debug_assert_eq!(commitments.len(), responses.len());
    debug_assert_eq!(commitments.len(), public_keys.len());
    let mut bad = Vec::new();
    for (i, ((cm, resp), pk)) in commitments
        .iter()
        .zip(responses.iter())
        .zip(public_keys.iter())
        .enumerate()
    {
        let lhs = Point::mul_generator(&resp.0);
        let rhs = cm.0 + pk.point() * *challenge;
        if lhs != rhs {
            bad.push(i);
        }
    }
    bad
}

impl Encodable for CollectiveSignature {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_fixed(&self.aggregate_commitment.to_compressed_bytes());
        enc.put_fixed(&self.aggregate_response.to_be_bytes());
    }
}

impl Decodable for CollectiveSignature {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut xb = [0u8; 33];
        xb.copy_from_slice(dec.take_fixed(33)?);
        let x = Point::from_compressed_bytes(&xb)?;
        let mut sb = [0u8; 32];
        sb.copy_from_slice(dec.take_fixed(32)?);
        let s =
            Scalar::from_be_bytes(&sb).ok_or(DecodeError::InvalidValue("cosi response scalar"))?;
        Ok(CollectiveSignature {
            aggregate_commitment: x,
            aggregate_response: s,
        })
    }
}

impl Encodable for Commitment {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_fixed(&self.0.to_compressed_bytes());
    }
}

impl Decodable for Commitment {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut b = [0u8; 33];
        b.copy_from_slice(dec.take_fixed(33)?);
        Ok(Commitment(Point::from_compressed_bytes(&b)?))
    }
}

impl Encodable for Response {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_fixed(&self.0.to_be_bytes());
    }
}

impl Decodable for Response {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut b = [0u8; 32];
        b.copy_from_slice(dec.take_fixed(32)?);
        let s = Scalar::from_be_bytes(&b).ok_or(DecodeError::InvalidValue("response scalar"))?;
        Ok(Response(s))
    }
}

impl fmt::Debug for CollectiveSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CollectiveSignature(X={:?}, s={:?})",
            self.aggregate_commitment, self.aggregate_response
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_round(n: u8, record: &[u8]) -> (Vec<KeyPair>, CollectiveSignature) {
        let keys: Vec<KeyPair> = (0..n).map(|i| KeyPair::from_seed(&[i, n])).collect();
        let witnesses: Vec<Witness> = keys
            .iter()
            .map(|kp| Witness::commit(kp, b"round", record))
            .collect();
        let agg = aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
        let c = challenge(&agg, record);
        let sig = CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
        (keys, sig)
    }

    #[test]
    fn full_round_verifies() {
        for n in [1u8, 2, 3, 5, 9] {
            let (keys, sig) = run_round(n, b"record");
            let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
            assert!(sig.verify(b"record", &pks), "n={n}");
        }
    }

    #[test]
    fn wrong_record_fails() {
        let (keys, sig) = run_round(4, b"record-a");
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        assert!(!sig.verify(b"record-b", &pks));
    }

    #[test]
    fn missing_witness_key_fails() {
        let (keys, sig) = run_round(4, b"record");
        let pks: Vec<_> = keys.iter().skip(1).map(|k| k.public_key()).collect();
        assert!(!sig.verify(b"record", &pks));
    }

    #[test]
    fn extra_key_fails() {
        let (keys, sig) = run_round(3, b"record");
        let mut pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        pks.push(KeyPair::from_seed(b"outsider").public_key());
        assert!(!sig.verify(b"record", &pks));
    }

    #[test]
    fn corrupt_response_invalidates_signature() {
        let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i])).collect();
        let record = b"block";
        let witnesses: Vec<Witness> = keys
            .iter()
            .map(|kp| Witness::commit(kp, b"r", record))
            .collect();
        let agg = aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
        let c = challenge(&agg, record);
        let mut responses: Vec<Response> = witnesses.iter().map(|w| w.respond(&c)).collect();
        responses[2] = witnesses[2].respond_corrupt(&c);
        let sig = CollectiveSignature::assemble(agg, responses.iter().copied());
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        assert!(!sig.verify(record, &pks));
    }

    #[test]
    fn culprit_identification_lemma4() {
        let keys: Vec<KeyPair> = (0..5).map(|i| KeyPair::from_seed(&[i, 99])).collect();
        let record = b"block";
        let witnesses: Vec<Witness> = keys
            .iter()
            .map(|kp| Witness::commit(kp, b"r", record))
            .collect();
        let commitments: Vec<_> = witnesses.iter().map(|w| w.commitment()).collect();
        let agg = aggregate_commitments(commitments.iter().copied());
        let c = challenge(&agg, record);
        let mut responses: Vec<Response> = witnesses.iter().map(|w| w.respond(&c)).collect();
        // Witnesses 1 and 3 lie.
        responses[1] = witnesses[1].respond_corrupt(&c);
        responses[3] = witnesses[3].respond_corrupt(&c);
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let culprits = identify_invalid_responses(&c, &commitments, &responses, &pks);
        assert_eq!(culprits, vec![1, 3]);
    }

    #[test]
    fn no_culprits_when_honest() {
        let keys: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(&[i, 7])).collect();
        let witnesses: Vec<Witness> = keys
            .iter()
            .map(|kp| Witness::commit(kp, b"r", b"rec"))
            .collect();
        let commitments: Vec<_> = witnesses.iter().map(|w| w.commitment()).collect();
        let agg = aggregate_commitments(commitments.iter().copied());
        let c = challenge(&agg, b"rec");
        let responses: Vec<Response> = witnesses.iter().map(|w| w.respond(&c)).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        assert!(identify_invalid_responses(&c, &commitments, &responses, &pks).is_empty());
    }

    #[test]
    fn signature_encoding_roundtrip() {
        let (_, sig) = run_round(3, b"enc");
        let decoded = CollectiveSignature::decode(&sig.encode()).unwrap();
        assert_eq!(decoded, sig);
    }

    #[test]
    fn placeholder_never_verifies() {
        let keys: Vec<_> = (0..2)
            .map(|i| KeyPair::from_seed(&[i]).public_key())
            .collect();
        assert!(!CollectiveSignature::placeholder().verify(b"anything", &keys));
    }

    #[test]
    fn distinct_rounds_distinct_commitments() {
        let kp = KeyPair::from_seed(b"w");
        let w1 = Witness::commit(&kp, b"round-1", b"rec");
        let w2 = Witness::commit(&kp, b"round-2", b"rec");
        assert_ne!(w1.commitment(), w2.commitment());
    }

    #[test]
    fn empty_key_set_rejected() {
        let (_, sig) = run_round(2, b"x");
        assert!(!sig.verify(b"x", &[]));
    }

    #[test]
    fn prepared_witness_set_verifies_through_its_aggregate_table() {
        // Keys no other test prepares: the registry is process-wide.
        let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i, 0xD0])).collect();
        let (records, sigs) = signed_batch(1, &keys);
        let (record, sig) = (records[0].as_slice(), sigs[0]);
        let plain: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let prepared: Vec<_> = plain.iter().map(|pk| pk.prepared()).collect();
        let aggregate = PublicKey::from_point(aggregate_public_keys(&plain))
            .unwrap()
            .prepared();
        // Plain members take the ladder and build nothing.
        assert!(sig.verify(record, &plain));
        assert!(!aggregate.table_is_built());
        assert!(sig.verify(record, &prepared));
        assert!(!sig.verify(b"another record", &prepared));
        // A subset is a different witness set with a different aggregate.
        assert!(!sig.verify(record, &prepared[1..]));
        // The aggregate gets a table; the members, never checked alone,
        // do not.
        assert!(aggregate.table_is_built());
        assert!(prepared.iter().all(|pk| !pk.table_is_built()));
    }

    #[test]
    fn challenge_binds_commitment_and_record() {
        let p1 = Point::generator();
        let p2 = Point::generator().double();
        assert_ne!(challenge(&p1, b"r"), challenge(&p2, b"r"));
        assert_ne!(challenge(&p1, b"r1"), challenge(&p1, b"r2"));
    }

    /// `n` rounds signed by the same witness set, distinct records.
    fn signed_batch(rounds: usize, keys: &[KeyPair]) -> (Vec<Vec<u8>>, Vec<CollectiveSignature>) {
        let mut records = Vec::with_capacity(rounds);
        let mut sigs = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let record = format!("block #{r}").into_bytes();
            let witnesses: Vec<Witness> = keys
                .iter()
                .map(|k| Witness::commit(k, &(r as u64).to_be_bytes(), &record))
                .collect();
            let agg = aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
            let c = challenge(&agg, &record);
            sigs.push(CollectiveSignature::assemble(
                agg,
                witnesses.iter().map(|w| w.respond(&c)),
            ));
            records.push(record);
        }
        (records, sigs)
    }

    fn batch_items<'a>(
        records: &'a [Vec<u8>],
        sigs: &[CollectiveSignature],
    ) -> Vec<(&'a [u8], CollectiveSignature)> {
        records
            .iter()
            .map(Vec::as_slice)
            .zip(sigs.iter().copied())
            .collect()
    }

    #[test]
    fn batch_accepts_valid_log() {
        let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i, 0xC1])).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        for rounds in [0usize, 1, 2, 5, 16] {
            let (records, sigs) = signed_batch(rounds, &keys);
            assert!(
                verify_batch(&batch_items(&records, &sigs), &pks),
                "rounds={rounds}"
            );
        }
    }

    #[test]
    fn batch_rejects_one_bad_block() {
        let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i, 0xC2])).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let (records, mut sigs) = signed_batch(7, &keys);
        sigs[3].aggregate_response = sigs[3].aggregate_response + Scalar::ONE;
        let items = batch_items(&records, &sigs);
        assert!(!verify_batch(&items, &pks));
        // The per-signature fallback pinpoints block 3.
        let bad: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, (rec, sig))| !sig.verify(rec, &pks))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, vec![3]);
    }

    #[test]
    fn batch_rejects_placeholder_in_log() {
        let keys: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(&[i, 0xC3])).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let (records, mut sigs) = signed_batch(4, &keys);
        sigs[2] = CollectiveSignature::placeholder();
        assert!(!verify_batch(&batch_items(&records, &sigs), &pks));
    }

    #[test]
    fn batch_rejects_wrong_witness_set() {
        let keys: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(&[i, 0xC4])).collect();
        let (records, sigs) = signed_batch(3, &keys);
        let other: Vec<_> = (0..3u8)
            .map(|i| KeyPair::from_seed(&[i, 0xC5]).public_key())
            .collect();
        assert!(!verify_batch(&batch_items(&records, &sigs), &other));
    }

    #[test]
    fn batch_rejects_empty_key_set() {
        let keys: Vec<KeyPair> = (0..2).map(|i| KeyPair::from_seed(&[i, 0xC6])).collect();
        let (records, sigs) = signed_batch(2, &keys);
        assert!(!verify_batch(&batch_items(&records, &sigs), &[]));
    }

    #[test]
    fn batch_agrees_with_individual_verifies() {
        let keys: Vec<KeyPair> = (0..3).map(|i| KeyPair::from_seed(&[i, 0xC7])).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let (records, mut sigs) = signed_batch(5, &keys);
        let agree = |records: &[Vec<u8>], sigs: &[CollectiveSignature], pks: &[PublicKey]| {
            let batch = verify_batch(&batch_items(records, sigs), pks);
            let individual = records.iter().zip(sigs).all(|(r, s)| s.verify(r, pks));
            batch == individual
        };
        assert!(agree(&records, &sigs, &pks));
        sigs[0].aggregate_response = sigs[0].aggregate_response + Scalar::ONE;
        assert!(agree(&records, &sigs, &pks));
    }
}
