//! Property-based tests for the cryptographic substrate.

use fides_crypto::cosi::{self, Witness};
use fides_crypto::field::FieldElement;
use fides_crypto::merkle::{hash_leaf, MerkleTree};
use fides_crypto::point::Point;
use fides_crypto::scalar::Scalar;
use fides_crypto::schnorr::{self, BatchItem, KeyPair, PublicKey, Signature};
use fides_crypto::sha256::{self, Sha256};
use proptest::prelude::*;

fn arb_fe() -> impl Strategy<Value = FieldElement> {
    any::<[u8; 32]>().prop_map(|b| {
        // Clear the top byte so the value is always canonical.
        let mut b = b;
        b[0] = 0;
        FieldElement::from_be_bytes(&b).expect("top byte cleared; below p")
    })
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_add_commutes(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn field_mul_commutes(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn field_add_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn field_mul_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn field_distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn field_sub_is_add_neg(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn field_inverse_law(a in arb_fe()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.invert().unwrap(), FieldElement::ONE);
        }
    }

    #[test]
    fn field_square_matches_mul(a in arb_fe()) {
        prop_assert_eq!(a.square(), a * a);
    }

    #[test]
    fn field_bytes_roundtrip(a in arb_fe()) {
        prop_assert_eq!(FieldElement::from_be_bytes(&a.to_be_bytes()), Some(a));
    }

    #[test]
    fn scalar_ring_laws(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + (-a), Scalar::ZERO);
    }

    #[test]
    fn scalar_inverse_law(a in arb_scalar()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.invert().unwrap(), Scalar::ONE);
        }
    }
}

proptest! {
    // Group operations are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scalar_mul_homomorphism(a in arb_scalar(), b in arb_scalar()) {
        let g = Point::generator();
        prop_assert_eq!(g * a + g * b, g * (a + b));
    }

    #[test]
    fn windowed_mul_matches_binary(k in arb_scalar()) {
        let g = Point::generator();
        prop_assert_eq!(g.mul_scalar(&k), g.mul_scalar_binary(&k));
    }

    #[test]
    fn point_compression_roundtrip(k in arb_scalar()) {
        let p = Point::generator() * k;
        let enc = p.to_compressed_bytes();
        prop_assert_eq!(Point::from_compressed_bytes(&enc).unwrap(), p);
    }

    #[test]
    fn schnorr_roundtrip(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let kp = KeyPair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public_key().verify(&msg, &sig));
    }

    #[test]
    fn schnorr_rejects_bitflip(seed in any::<[u8; 8]>(), msg in proptest::collection::vec(any::<u8>(), 1..64), flip in 0usize..64) {
        let kp = KeyPair::from_seed(&seed);
        let sig = kp.sign(&msg);
        let mut tampered = msg.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 1;
        prop_assert!(!kp.public_key().verify(&tampered, &sig));
    }

    #[test]
    fn cosi_round_verifies(n in 1usize..6, record in proptest::collection::vec(any::<u8>(), 1..64)) {
        let keys: Vec<KeyPair> = (0..n).map(|i| KeyPair::from_seed(&[i as u8, 0xAA])).collect();
        let witnesses: Vec<Witness> =
            keys.iter().map(|k| Witness::commit(k, b"prop-round", &record)).collect();
        let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
        let c = cosi::challenge(&agg, &record);
        let sig = cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        prop_assert!(sig.verify(&record, &pks));
        // And rejects a different record.
        let mut other = record.clone();
        other[0] ^= 0xFF;
        prop_assert!(!sig.verify(&other, &pks));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merkle_proofs_sound(
        n in 1usize..64,
        updates in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..16),
    ) {
        let mut data: Vec<Vec<u8>> = (0..n).map(|i| format!("item-{i}").into_bytes()).collect();
        let mut tree = MerkleTree::from_leaves(data.iter().map(|d| hash_leaf(d)).collect());
        for (idx, val) in updates {
            let i = (idx as usize) % n;
            data[i] = val.to_be_bytes().to_vec();
            tree.update_leaf(i, hash_leaf(&data[i]));
        }
        let root = tree.root();
        for (i, d) in data.iter().enumerate() {
            prop_assert!(tree.proof(i).verify(hash_leaf(d), &root));
        }
        // Rebuilding from scratch gives the same root.
        let rebuilt = MerkleTree::from_leaves(data.iter().map(|d| hash_leaf(d)).collect());
        prop_assert_eq!(rebuilt.root(), root);
    }

    #[test]
    fn merkle_rejects_cross_proofs(n in 2usize..64, i in any::<u16>(), j in any::<u16>()) {
        let i = (i as usize) % n;
        let j = (j as usize) % n;
        prop_assume!(i != j);
        let leaves: Vec<_> = (0..n).map(|k| hash_leaf(&(k as u64).to_be_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        // Proof for i never validates leaf j's data.
        prop_assert!(!tree.proof(i).verify(leaves[j], &tree.root()));
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<u16>()) {
        let cut = (split as usize) % (data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn merkle_batch_update_matches_from_leaves(
        n in 1usize..96,
        updates in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..24),
    ) {
        // The batch update must agree with a from-scratch rebuild on
        // arbitrary (possibly duplicate-index) update sets.
        let mut data: Vec<_> = (0..n).map(|i| hash_leaf(&(i as u64).to_be_bytes())).collect();
        let mut tree = MerkleTree::from_leaves(data.clone());
        let updates: Vec<(usize, _)> = updates
            .into_iter()
            .map(|(idx, val)| ((idx as usize) % n, hash_leaf(&val.to_be_bytes())))
            .collect();
        for &(i, d) in &updates {
            data[i] = d;
        }
        tree.update_leaves(&updates);
        let rebuilt = MerkleTree::from_leaves(data.clone());
        prop_assert_eq!(tree.root(), rebuilt.root());
        // Proofs generated after the batch update still verify.
        for (i, d) in data.iter().enumerate() {
            prop_assert!(tree.proof(i).verify(*d, &tree.root()));
        }
    }
}

/// Builds `n` (key, message, signature) batch items from a seed.
fn build_batch(n: usize, seed: u8) -> (Vec<Vec<u8>>, Vec<(PublicKey, Signature)>) {
    let mut messages = Vec::with_capacity(n);
    let mut signed = Vec::with_capacity(n);
    for i in 0..n {
        let kp = KeyPair::from_seed(&[i as u8, seed, 0x51]);
        let msg = format!("prop batch {seed} message {i}").into_bytes();
        let sig = kp.sign(&msg);
        signed.push((kp.public_key(), sig));
        messages.push(msg);
    }
    (messages, signed)
}

fn as_items<'a>(messages: &'a [Vec<u8>], signed: &[(PublicKey, Signature)]) -> Vec<BatchItem<'a>> {
    signed
        .iter()
        .zip(messages)
        .map(|(&(public_key, signature), message)| BatchItem {
            public_key,
            message,
            signature,
        })
        .collect()
}

proptest! {
    // The verification fast path: batch/Shamir/multi-scalar agreement
    // with the definitional implementations. Group operations are
    // slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `verify_batch` accepts iff every individual `verify` accepts —
    /// honest batches of any size, plus batches with a random subset of
    /// corruptions.
    #[test]
    fn batch_accepts_iff_individuals_accept(
        n in 1usize..20,
        seed in any::<u8>(),
        corrupt_mask in any::<u32>(),
    ) {
        let (messages, mut signed) = build_batch(n, seed);
        for (i, entry) in signed.iter_mut().enumerate() {
            if (corrupt_mask >> (i % 32)) & 1 == 1 {
                entry.1.s = entry.1.s + Scalar::ONE;
            }
        }
        let items = as_items(&messages, &signed);
        let individual = items
            .iter()
            .all(|it| it.public_key.verify(it.message, &it.signature));
        prop_assert_eq!(schnorr::verify_batch(&items), individual);
    }

    /// A single corrupted signature in a batch is localized exactly.
    #[test]
    fn corrupted_batch_member_is_localized(
        n in 2usize..24,
        seed in any::<u8>(),
        victim in any::<u16>(),
    ) {
        let (messages, mut signed) = build_batch(n, seed);
        let victim = (victim as usize) % n;
        signed[victim].1.s = signed[victim].1.s + Scalar::ONE;
        let items = as_items(&messages, &signed);
        prop_assert!(!schnorr::verify_batch(&items));
        prop_assert_eq!(schnorr::find_invalid(&items), vec![victim]);
    }

    /// The Strauss–Shamir double-scalar path agrees with composed
    /// single multiplications for arbitrary scalars.
    #[test]
    fn shamir_matches_composed(a in arb_scalar(), b in arb_scalar(), pv in any::<u64>()) {
        prop_assume!(pv != 0);
        let p = Point::generator() * Scalar::from_u64(pv);
        let expect = Point::mul_generator(&a) + p.mul_scalar(&b);
        prop_assert_eq!(Point::mul_shamir_generator(&a, &b, &p), expect);
    }

    /// `multi_mul` agrees with the naive sum of single multiplications,
    /// across the small-batch and column-batched regimes.
    #[test]
    fn multi_mul_matches_naive(
        scalars in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..20),
    ) {
        let terms: Vec<(Scalar, Point)> = scalars
            .iter()
            .map(|&(a, pv)| {
                // Mix widths: even terms get full-width scalars.
                let s = if a % 2 == 0 {
                    Scalar::from_be_bytes_reduced(&[(a % 251) as u8 + 1; 32])
                } else {
                    Scalar::from_u64(a)
                };
                (s, Point::generator() * Scalar::from_u64(pv % 997 + 1))
            })
            .collect();
        let expect = terms
            .iter()
            .fold(Point::IDENTITY, |acc, (s, p)| acc + p.mul_scalar(s));
        prop_assert_eq!(Point::multi_mul(&terms), expect);
    }

    /// CoSi batch verification agrees with per-signature verification
    /// under arbitrary corruption patterns.
    #[test]
    fn cosi_batch_accepts_iff_individuals_accept(
        rounds in 1usize..12,
        n_keys in 1usize..5,
        corrupt_mask in any::<u16>(),
    ) {
        let keys: Vec<KeyPair> = (0..n_keys)
            .map(|i| KeyPair::from_seed(&[i as u8, 0x77, 0x19]))
            .collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let mut records = Vec::new();
        let mut sigs = Vec::new();
        for r in 0..rounds {
            let record = format!("cosi batch round {r}").into_bytes();
            let witnesses: Vec<Witness> = keys
                .iter()
                .map(|k| Witness::commit(k, &(r as u64).to_be_bytes(), &record))
                .collect();
            let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
            let c = cosi::challenge(&agg, &record);
            let mut sig =
                cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
            if (corrupt_mask >> (r % 16)) & 1 == 1 {
                sig.aggregate_response = sig.aggregate_response + Scalar::ONE;
            }
            records.push(record);
            sigs.push(sig);
        }
        let items: Vec<(&[u8], cosi::CollectiveSignature)> = records
            .iter()
            .map(Vec::as_slice)
            .zip(sigs.iter().copied())
            .collect();
        let individual = items.iter().all(|(rec, sig)| sig.verify(rec, &pks));
        prop_assert_eq!(cosi::verify_batch(&items, &pks), individual);
        // A prepared witness set: a single signature is checked over the
        // aggregate key's table, a batch by the same combined check.
        let prepared: Vec<_> = pks.iter().map(|pk| pk.prepared()).collect();
        prop_assert_eq!(cosi::verify_batch(&items, &prepared), individual);
    }
}

/// True iff the 256-bit big-endian value fits in `bits` bits.
fn fits_in_bits(bytes: &[u8; 32], bits: usize) -> bool {
    let full_zero_bytes = 32 - bits.div_ceil(8);
    let top_mask = if bits.is_multiple_of(8) {
        0xFF
    } else {
        (1u16 << (bits % 8)) as u8 - 1
    };
    bytes[..full_zero_bytes].iter().all(|&b| b == 0) && bytes[full_zero_bytes] & !top_mask == 0
}

/// Message lengths biased toward SHA-256 padding boundaries (55/56 is
/// the one-vs-two padding-block cliff; 64 the block size), with a
/// uniform tail covering multi-block messages.
fn arb_msg_len() -> impl Strategy<Value = usize> {
    (any::<u8>(), any::<u16>()).prop_map(|(pick, raw)| {
        const BOUNDARIES: [usize; 14] = [0, 1, 54, 55, 56, 57, 63, 64, 65, 118, 119, 120, 127, 128];
        if pick < 180 {
            BOUNDARIES[(pick as usize) % BOUNDARIES.len()]
        } else {
            raw as usize % 300
        }
    })
}

proptest! {
    // Differential tests: the raw-speed paths (safegcd inversion, the
    // GLV-split ladders, multi-lane SHA-256) against their slow
    // reference implementations.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// safegcd field inversion agrees with the Fermat ladder.
    #[test]
    fn field_invert_safegcd_matches_fermat(a in arb_fe()) {
        prop_assert_eq!(a.invert(), a.invert_fermat());
    }

    /// safegcd scalar inversion agrees with the Fermat ladder.
    #[test]
    fn scalar_invert_safegcd_matches_fermat(a in arb_scalar()) {
        prop_assert_eq!(a.invert(), a.invert_fermat());
    }

    /// The GLV decomposition recomposes (`k = k1 + λ·k2` with signs
    /// applied) and both halves stay within the half-width bound that
    /// the four-stream ladder's window tables assume.
    #[test]
    fn glv_split_recomposes_within_bounds(k in arb_scalar()) {
        let ((k1, neg1), (k2, neg2)) = k.split_glv();
        let v1 = if neg1 { -k1 } else { k1 };
        let v2 = if neg2 { -k2 } else { k2 };
        prop_assert_eq!(v1 + Scalar::glv_lambda() * v2, k);
        prop_assert!(fits_in_bits(&k1.to_be_bytes(), 129));
        prop_assert!(fits_in_bits(&k2.to_be_bytes(), 129));
    }

    /// Batched `digest_many` — this CPU's backend, and the 8- and
    /// 4-lane portable paths whatever the CPU — agrees with per-message
    /// scalar SHA-256 on mixed-length batches straddling block
    /// boundaries (so lanes mask in and out at different block indices).
    #[test]
    fn digest_many_matches_scalar_at_boundaries(
        lens in proptest::collection::vec(arb_msg_len(), 1..24),
        seed in any::<u8>(),
    ) {
        let msgs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (j as u8) ^ (i as u8) ^ seed).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let scalar: Vec<_> = refs.iter().map(|m| Sha256::digest(m)).collect();
        prop_assert_eq!(Sha256::digest_many(&refs), scalar.clone());
        prop_assert_eq!(sha256::digest_many_lanes::<8>(&refs), scalar.clone());
        prop_assert_eq!(sha256::digest_many_lanes::<4>(&refs), scalar);
    }
}

proptest! {
    // Ladder equivalence needs group operations; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The GLV four-stream Strauss–Shamir ladder agrees with the
    /// pre-GLV full-width wNAF ladder on arbitrary scalar pairs.
    #[test]
    fn glv_ladder_matches_pre_glv_ladder(a in arb_scalar(), b in arb_scalar(), s in arb_scalar()) {
        prop_assume!(!s.is_zero());
        let p = Point::generator() * s;
        prop_assert_eq!(
            Point::mul_shamir_generator(&a, &b, &p),
            Point::mul_shamir_generator_wnaf(&a, &b, &p)
        );
    }
}

/// Message lengths up to 4 KiB, mostly on the 55/56/64-byte padding
/// edges of some block (55 is the longest tail padded in its own block,
/// 56 the shortest that needs another).
fn arb_long_msg_len() -> impl Strategy<Value = usize> {
    (any::<u8>(), 0usize..64, any::<u16>()).prop_map(|(pick, blocks, raw)| {
        const EDGES: [usize; 7] = [0, 1, 55, 56, 57, 63, 64];
        if pick < 160 {
            blocks * 64 + EDGES[pick as usize % EDGES.len()]
        } else {
            raw as usize % 4097
        }
    })
}

proptest! {
    // The hardware hash against the portable one. On a CPU with SHA-NI
    // the streaming hasher runs the hardware compression and the
    // reference runs the portable one; elsewhere both are portable.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A message fed through random `update` splits hashes to the
    /// digest the portable compression gives it.
    #[test]
    fn hardware_sha256_matches_portable(
        len in arb_long_msg_len(),
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let msg: Vec<u8> = (0..len as u64)
            .map(|i| (seed.wrapping_mul(i + 1).rotate_left(17) >> 13) as u8)
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([len]) {
            hasher.update(&msg[at..cut]);
            at = cut;
        }
        prop_assert_eq!(hasher.finalize(), sha256::digest_portable(&msg));
    }

    /// One compression from an arbitrary state agrees block by block.
    #[test]
    fn hardware_compression_matches_portable(state in any::<[u32; 8]>(), block in any::<[u8; 64]>()) {
        let (mut hardware, mut portable) = (state, state);
        sha256::compress(&mut hardware, &block);
        sha256::compress_portable(&mut portable, &block);
        prop_assert_eq!(hardware, portable);
    }
}

proptest! {
    // Per-signer tables against the ladders they replace. Each case
    // prepares keys whose 8k-entry tables the process-wide registry
    // keeps until the test process exits; few cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two table walks accept exactly what the pre-GLV ladder accepts:
    /// a valid signature, and not a tampered message, a swapped `R`, a
    /// swapped `s` or a wrong key.
    #[test]
    fn table_verify_matches_wnaf(
        seed in any::<[u8; 16]>(),
        other_seed in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<usize>(),
    ) {
        prop_assume!(seed != other_seed);
        let kp = KeyPair::from_seed(&seed);
        let pk = kp.public_key();
        let wrong = KeyPair::from_seed(&other_seed).public_key();
        let sig = kp.sign(&msg);
        let other = kp.sign(b"another message");
        let mut tampered = msg.clone();
        tampered[flip % msg.len()] ^= 1;
        let cases = [
            (pk, msg.as_slice(), sig, true),
            (pk, tampered.as_slice(), sig, false),
            (pk, msg.as_slice(), Signature { r: other.r, s: sig.s }, false),
            (pk, msg.as_slice(), Signature { r: sig.r, s: other.s }, false),
            (wrong, msg.as_slice(), sig, false),
        ];
        for (i, (key, message, signature, valid)) in cases.into_iter().enumerate() {
            let walked = key.prepared().verify(message, &signature);
            prop_assert_eq!(walked, key.verify_wnaf(message, &signature), "case {}", i);
            prop_assert_eq!(walked, valid, "case {}", i);
        }
    }

    /// A CoSi check over the aggregate key's table agrees with the
    /// Strauss–Shamir check, for the witness set that signed, for a
    /// tampered record and for a wrong witness set (one member swapped
    /// for an outsider).
    #[test]
    fn cosi_table_verify_matches_shamir(
        n in 1usize..6,
        seed in any::<u8>(),
        record in proptest::collection::vec(any::<u8>(), 1..64),
        swap in any::<usize>(),
    ) {
        let keys: Vec<KeyPair> = (0..n).map(|i| KeyPair::from_seed(&[i as u8, seed, 0x3A])).collect();
        let witnesses: Vec<Witness> =
            keys.iter().map(|k| Witness::commit(k, b"table-round", &record)).collect();
        let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
        let c = cosi::challenge(&agg, &record);
        let sig = cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let mut wrong = pks.clone();
        wrong[swap % n] = KeyPair::from_seed(&[seed, 0x3B]).public_key();
        let mut tampered = record.clone();
        tampered[0] ^= 0x40;
        for (set, message, valid) in [
            (&pks, record.as_slice(), true),
            (&pks, tampered.as_slice(), false),
            (&wrong, record.as_slice(), false),
        ] {
            let prepared: Vec<PublicKey> = set.iter().map(|pk| pk.prepared()).collect();
            let walked = sig.verify(message, &prepared);
            prop_assert_eq!(walked, sig.verify(message, set));
            prop_assert_eq!(walked, valid);
        }
    }
}

/// The deterministic inversion edge cases both algorithms must agree
/// on: 0 (no inverse), 1 (self-inverse), and `modulus − 1`
/// (self-inverse, and the largest canonical value).
#[test]
fn inversion_edge_cases_agree() {
    assert_eq!(FieldElement::ZERO.invert(), None);
    assert_eq!(FieldElement::ZERO.invert_fermat(), None);
    assert_eq!(FieldElement::ONE.invert(), Some(FieldElement::ONE));
    let p_minus_one = -FieldElement::ONE;
    assert_eq!(p_minus_one.invert(), Some(p_minus_one));
    assert_eq!(p_minus_one.invert(), p_minus_one.invert_fermat());

    assert_eq!(Scalar::ZERO.invert(), None);
    assert_eq!(Scalar::ZERO.invert_fermat(), None);
    assert_eq!(Scalar::ONE.invert(), Some(Scalar::ONE));
    let n_minus_one = -Scalar::ONE;
    assert_eq!(n_minus_one.invert(), Some(n_minus_one));
    assert_eq!(n_minus_one.invert(), n_minus_one.invert_fermat());
}
