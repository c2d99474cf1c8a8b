//! Signed message envelopes.
//!
//! Paper §3.1: "all message exchanges (client-server or server-server)
//! are digitally signed by the sender and verified by the receiver."
//! An [`Envelope`] carries an opaque payload plus a Schnorr signature
//! over the canonical encoding of `(from, to, payload)`, so a signature
//! cannot be replayed for a different receiver or payload.

use fides_crypto::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use fides_crypto::schnorr::{KeyPair, PublicKey, Signature};
use fides_telemetry::TraceContext;

use crate::node::NodeId;

/// A signed, addressed message.
///
/// # Example
///
/// ```
/// use fides_crypto::schnorr::KeyPair;
/// use fides_net::{Envelope, NodeId};
///
/// let kp = KeyPair::from_seed(b"server-0");
/// let env = Envelope::sign(&kp, NodeId::new(0), NodeId::new(1), b"vote".to_vec());
/// assert!(env.verify(&kp.public_key()));
/// assert!(!env.verify(&KeyPair::from_seed(b"other").public_key()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sender address.
    pub from: NodeId,
    /// Receiver address.
    pub to: NodeId,
    /// Opaque payload (a canonically encoded protocol message).
    pub payload: Vec<u8>,
    /// Schnorr signature by the sender over `(from, to, payload)` —
    /// plus the trace context when one rides along.
    pub signature: Signature,
    /// Causal trace context for a **sampled** transaction (fides-trace,
    /// `docs/tracing.md`). `None` for unsampled traffic, whose signed
    /// bytes are byte-identical to the pre-tracing wire shape; when
    /// present it is covered by the signature, so a relay can neither
    /// forge nor strip it undetected.
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// Creates and signs an envelope with the sender's key pair.
    pub fn sign(kp: &KeyPair, from: NodeId, to: NodeId, payload: Vec<u8>) -> Envelope {
        Envelope::sign_traced(kp, from, to, payload, None)
    }

    /// [`Envelope::sign`] with a causal trace context attached.
    pub fn sign_traced(
        kp: &KeyPair,
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
        trace: Option<TraceContext>,
    ) -> Envelope {
        let signature = kp.sign(&signing_bytes(from, to, &payload, trace));
        Envelope {
            from,
            to,
            payload,
            signature,
            trace,
        }
    }

    /// Verifies the envelope against the claimed sender's public key.
    pub fn verify(&self, sender_pk: &PublicKey) -> bool {
        sender_pk.verify(&self.signed_bytes(), &self.signature)
    }

    /// The payload size in bytes (for transport statistics).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The exact bytes this envelope's signature covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        signing_bytes(self.from, self.to, &self.payload, self.trace)
    }
}

fn signing_bytes(from: NodeId, to: NodeId, payload: &[u8], trace: Option<TraceContext>) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(payload.len() + 32);
    enc.put_fixed(b"fides.envelope.v1");
    from.encode_into(&mut enc);
    to.encode_into(&mut enc);
    enc.put_bytes(payload);
    // Domain-separated tail, appended **only** for sampled traffic:
    // an unsampled envelope signs exactly the v1 bytes, so enabling
    // tracing never changes what the fleet signs for 1−1/N of load.
    if let Some(ctx) = trace {
        enc.put_fixed(b"fides.trace.v1");
        enc.put_u64(ctx.trace_id);
        enc.put_u64(ctx.parent_span);
    }
    enc.into_bytes()
}

impl Encodable for Envelope {
    fn encode_into(&self, enc: &mut Encoder) {
        self.from.encode_into(enc);
        self.to.encode_into(enc);
        enc.put_bytes(&self.payload);
        self.signature.encode_into(enc);
        enc.put_option(&self.trace, |enc, ctx| {
            enc.put_u64(ctx.trace_id);
            enc.put_u64(ctx.parent_span);
        });
    }
}

impl Decodable for Envelope {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Envelope {
            from: NodeId::decode_from(dec)?,
            to: NodeId::decode_from(dec)?,
            payload: dec.take_bytes()?.to_vec(),
            signature: Signature::decode_from(dec)?,
            trace: dec.take_option(|dec| {
                Ok(TraceContext {
                    trace_id: dec.take_u64()?,
                    parent_span: dec.take_u64()?,
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"a");
        let env = Envelope::sign(&kp, NodeId::new(1), NodeId::new(2), b"hello".to_vec());
        assert!(env.verify(&kp.public_key()));
    }

    #[test]
    fn tampered_payload_rejected() {
        let kp = KeyPair::from_seed(b"a");
        let mut env = Envelope::sign(&kp, NodeId::new(1), NodeId::new(2), b"hello".to_vec());
        env.payload[0] ^= 1;
        assert!(!env.verify(&kp.public_key()));
    }

    #[test]
    fn redirected_envelope_rejected() {
        // A signature for receiver 2 must not verify when re-addressed.
        let kp = KeyPair::from_seed(b"a");
        let mut env = Envelope::sign(&kp, NodeId::new(1), NodeId::new(2), b"m".to_vec());
        env.to = NodeId::new(3);
        assert!(!env.verify(&kp.public_key()));
    }

    #[test]
    fn spoofed_sender_rejected() {
        let kp = KeyPair::from_seed(b"a");
        let mut env = Envelope::sign(&kp, NodeId::new(1), NodeId::new(2), b"m".to_vec());
        env.from = NodeId::new(9);
        assert!(!env.verify(&kp.public_key()));
    }

    #[test]
    fn encoding_roundtrip() {
        let kp = KeyPair::from_seed(b"b");
        let env = Envelope::sign(&kp, NodeId::new(4), NodeId::new(5), vec![1, 2, 3]);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded, env);
        assert!(decoded.verify(&kp.public_key()));
    }

    #[test]
    fn traced_envelope_roundtrip_and_integrity() {
        let kp = KeyPair::from_seed(b"t");
        let ctx = TraceContext {
            trace_id: 0xabcd,
            parent_span: 7,
        };
        let env = Envelope::sign_traced(&kp, NodeId::new(1), NodeId::new(2), vec![9], Some(ctx));
        assert!(env.verify(&kp.public_key()));
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded.trace, Some(ctx));
        assert!(decoded.verify(&kp.public_key()));

        // Stripping or forging the context breaks the signature.
        let mut stripped = env.clone();
        stripped.trace = None;
        assert!(!stripped.verify(&kp.public_key()));
        let mut forged = env.clone();
        forged.trace = Some(TraceContext {
            trace_id: 0xabce,
            parent_span: 7,
        });
        assert!(!forged.verify(&kp.public_key()));

        // Unsampled envelopes sign the exact v1 bytes.
        let plain = Envelope::sign(&kp, NodeId::new(1), NodeId::new(2), vec![9]);
        assert_eq!(
            plain.signed_bytes(),
            signing_bytes(NodeId::new(1), NodeId::new(2), &[9], None)
        );
        assert!(!plain.signed_bytes().windows(5).any(|w| w == b"trace"));
    }

    #[test]
    fn empty_payload_supported() {
        let kp = KeyPair::from_seed(b"c");
        let env = Envelope::sign(&kp, NodeId::new(0), NodeId::new(0), Vec::new());
        assert!(env.verify(&kp.public_key()));
        assert_eq!(env.payload_len(), 0);
    }
}
