//! Network substrate for Fides (paper §3.1).
//!
//! The paper deploys database servers inside one AWS datacenter and has
//! every message digitally signed by its sender and verified by the
//! receiver. This crate substitutes the datacenter network with an
//! in-process transport while keeping everything else real:
//!
//! * [`node`] — node identifiers,
//! * [`message`] — signed [`Envelope`]s (Schnorr over the canonical
//!   encoding of sender, receiver and payload),
//! * [`transport`] — a threaded [`Network`] of crossbeam channels with a
//!   delivery scheduler that injects configurable per-message latency,
//!   random drops and partitions.
//!
//! The latency model is the reproduction's substitute for the paper's
//! EC2 testbed: protocol *computation* (signatures, Merkle updates) runs
//! for real; only the wire is simulated.

pub mod message;
pub mod node;
pub mod transport;

pub use message::{verify_envelopes, Envelope};
pub use node::NodeId;
pub use transport::{Endpoint, EndpointSender, Network, NetworkConfig, NetworkStats, RecvError};
