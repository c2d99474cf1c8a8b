//! Cryptographic substrate for the Fides auditable data management system.
//!
//! Everything in this crate is implemented from scratch — no external
//! cryptography dependencies — because digital signatures, collective
//! signing and Merkle hash trees are the subject matter of the paper this
//! repository reproduces (*Fides: Managing Data on Untrusted
//! Infrastructure*, Maiyya et al., ICDCS 2020).
//!
//! The crate provides:
//!
//! * [`sha256`] — the SHA-256 hash function and HMAC-SHA256,
//! * [`field`] / [`scalar`] / [`point`] — secp256k1 arithmetic,
//! * [`schnorr`] — Schnorr digital signatures (§2.1 of the paper),
//! * [`cosi`] — CoSi collective signing (§2.2),
//! * [`merkle`] — Merkle hash trees with verification objects (§2.3),
//! * [`encoding`] — a canonical binary encoding used for everything that
//!   is hashed or signed.
//!
//! # The verification engine
//!
//! The paper attributes TFCommit's entire overhead over 2PC to its
//! "additional computations" — collective signing and Merkle hashing
//! (§6.1) — so signature *verification* is this crate's hot path and is
//! built as a layered fast path:
//!
//! * **Scalar recoding** — [`scalar`] produces width-`w` non-adjacent
//!   forms (wNAF) by a single carry scan, so a 256-bit scalar costs
//!   `~256/(w+1)` point additions in a ladder.
//! * **Double-scalar multiplication** —
//!   [`point::Point::mul_shamir_generator`] evaluates `a·G + b·P`
//!   (the shape of every Schnorr/CoSi check, `s·G − e·P = R`) with one
//!   Strauss–Shamir shared doubling ladder, a static batch-affine table
//!   of odd generator multiples, and mixed Jacobian+affine additions.
//! * **Per-signer tables** — a key the process checks again and again
//!   (a directory entry, [`schnorr::PublicKey::prepared`]) and the
//!   aggregate key of a witness set of such keys (prepared in turn by
//!   [`cosi`]) get a [`point::FixedBaseTable`] on their first check,
//!   kept for the life of the process, so a check is two table walks
//!   ([`point::Point::mul_generator_and_table`]) and no doublings.
//! * **Batch verification** — [`schnorr::verify_batch`] and
//!   [`cosi::verify_batch`] fold `N` signatures into one
//!   random-linear-combination check evaluated by
//!   [`point::Point::multi_mul`], whose per-point odd-multiple tables
//!   and per-bit digit reductions both run as *batched affine*
//!   additions: Montgomery's trick shares one field inversion across
//!   each batch of independent additions. A failing batch falls back to
//!   per-signature verification ([`schnorr::find_invalid`]), so audit
//!   attribution is unaffected. A receiver's inbox is checked one
//!   envelope at a time: its senders are directory keys, and two table
//!   walks cost less than a share of a batch.
//! * **Hardware hashing** — [`sha256`] compresses with the SHA-NI
//!   instructions when the CPU has them, with the portable compression
//!   as the fallback and the differential reference.
//!
//! Measured on the reference dev machine (release build, medians):
//! `schnorr/verify` 162.8 µs → 51.9 µs (3.1×) versus the seed's two
//! independent full-width multiplications; `schnorr/verify_batch` of 64
//! signatures 1.70 ms versus 5.54 ms for 64 sequential verifies (3.3×);
//! `cosi/verify_batch` of 64 same-witness-set blocks — the
//! whole-log-validation shape — 0.92 ms versus 5.73 ms (6.2×). On a
//! 2-vCPU Xeon with SHA-NI, a prepared key's check takes 25.7 µs
//! against 76.2 µs on the ladder, and SHA-256 runs at 1.08 GiB/s
//! against 134 MiB/s portable (`docs/crypto.md`).
//!
//! # Example
//!
//! ```
//! use fides_crypto::schnorr::KeyPair;
//!
//! let kp = KeyPair::from_seed(b"server-1");
//! let sig = kp.sign(b"end transaction");
//! assert!(kp.public_key().verify(b"end transaction", &sig));
//! ```
//!
//! # Security note
//!
//! The implementation favours clarity over side-channel resistance: scalar
//! multiplication is not constant-time. That is adequate for a research
//! reproduction whose threat model (the paper's §3.2) is about *detecting*
//! misbehaving servers, not about hiding keys from co-located attackers.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cosi;
pub mod encoding;
pub mod hash;
pub mod merkle;
pub mod point;
pub mod schnorr;
pub mod sha256;

pub mod field;
pub mod scalar;

mod arith;
mod safegcd;

pub use hash::Digest;
pub use merkle::{MerkleTree, MultiProof, VerificationObject};
pub use point::Point;
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
pub use sha256::Sha256;
