//! Threaded in-memory transport with latency and fault injection.
//!
//! A [`Network`] owns one crossbeam channel per registered node plus a
//! delivery-scheduler thread. Every [`Endpoint::send`] either delivers
//! immediately (zero-latency fast path, used by tests) or enqueues the
//! envelope with a delivery deadline `now + latency + U(0, jitter)`,
//! modelling the paper's intra-datacenter links. The scheduler can also
//! drop messages randomly or along partitioned links, which the
//! fault-injection tests use to exercise crash/partition behaviour.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::Envelope;
use crate::node::NodeId;

/// Transport configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Fixed one-way delay added to every message.
    pub latency: Duration,
    /// Additional uniformly random delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Seed for the drop/jitter randomness (deterministic runs).
    pub seed: u64,
}

impl Default for NetworkConfig {
    /// Zero-latency, lossless transport (the test default).
    fn default() -> Self {
        NetworkConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_probability: 0.0,
            seed: 0,
        }
    }
}

impl NetworkConfig {
    /// A lossless network with a fixed per-message latency — the bench
    /// harness default modelling intra-datacenter links (the paper's
    /// EC2 placement, §6).
    pub fn with_latency(latency: Duration) -> Self {
        NetworkConfig {
            latency,
            ..NetworkConfig::default()
        }
    }

    fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.jitter.is_zero()
    }
}

/// Cumulative transport statistics.
#[derive(Debug, Default)]
pub struct NetworkStats {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    messages_dropped: AtomicU64,
}

impl NetworkStats {
    /// Messages accepted for delivery (including later-dropped ones).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages dropped by loss injection or partitions.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped.load(Ordering::Relaxed)
    }
}

/// Errors from the receiving side of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// The network has shut down.
    Disconnected,
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "network disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

struct Scheduled {
    deliver_at: Instant,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct Shared {
    config: NetworkConfig,
    inboxes: Mutex<HashMap<NodeId, Sender<Envelope>>>,
    /// Ordered pairs `(from, to)` whose link is cut.
    partitions: Mutex<HashSet<(NodeId, NodeId)>>,
    rng: Mutex<StdRng>,
    stats: NetworkStats,
    seq: AtomicU64,
}

impl Shared {
    /// Routes an envelope to its destination inbox (if registered).
    fn deliver(&self, envelope: Envelope) {
        let inboxes = self.inboxes.lock();
        if let Some(tx) = inboxes.get(&envelope.to) {
            // A dropped receiver just loses the message, like a crashed
            // node would.
            let _ = tx.send(envelope);
        }
    }
}

/// An in-memory network connecting registered [`Endpoint`]s.
///
/// # Example
///
/// ```
/// use fides_crypto::schnorr::KeyPair;
/// use fides_net::{Envelope, Network, NetworkConfig, NodeId};
///
/// let network = Network::new(NetworkConfig::default());
/// let a = network.register(NodeId::new(0));
/// let b = network.register(NodeId::new(1));
///
/// let kp = KeyPair::from_seed(b"node-0");
/// a.send(Envelope::sign(&kp, NodeId::new(0), NodeId::new(1), b"ping".to_vec()));
/// let msg = b.recv().unwrap();
/// assert_eq!(msg.payload, b"ping");
/// ```
pub struct Network {
    shared: Arc<Shared>,
    /// Feed to the delivery scheduler (None on the instant fast path).
    scheduler_tx: Option<Sender<Scheduled>>,
}

impl Network {
    /// Creates a network; spawns the delivery scheduler when the
    /// configuration has non-zero latency.
    pub fn new(config: NetworkConfig) -> Network {
        let shared = Arc::new(Shared {
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            config,
            inboxes: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashSet::new()),
            stats: NetworkStats::default(),
            seq: AtomicU64::new(0),
        });
        let scheduler_tx = if shared.config.is_instant() {
            None
        } else {
            let (tx, rx) = unbounded::<Scheduled>();
            let shared2 = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fides-net-scheduler".into())
                .spawn(move || scheduler_loop(rx, shared2))
                .expect("spawn scheduler thread");
            Some(tx)
        };
        Network {
            shared,
            scheduler_tx,
        }
    }

    /// Registers a node and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        let mut inboxes = self.shared.inboxes.lock();
        assert!(
            inboxes.insert(node, tx).is_none(),
            "node {node} registered twice"
        );
        Endpoint {
            node,
            rx,
            shared: Arc::clone(&self.shared),
            scheduler_tx: self.scheduler_tx.clone(),
        }
    }

    /// Re-registers a node that crashed and restarted, replacing its
    /// inbox: messages still queued for the dead endpoint are lost (as
    /// they would be for a rebooted machine), and new traffic flows to
    /// the returned endpoint. Unlike [`Network::register`] this never
    /// panics on an existing registration — it is the transport half of
    /// a server rejoin.
    pub fn reregister(&self, node: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        self.shared.inboxes.lock().insert(node, tx);
        Endpoint {
            node,
            rx,
            shared: Arc::clone(&self.shared),
            scheduler_tx: self.scheduler_tx.clone(),
        }
    }

    /// Cuts the directed link `from → to`.
    pub fn partition(&self, from: NodeId, to: NodeId) {
        self.shared.partitions.lock().insert((from, to));
    }

    /// Cuts both directions between two nodes.
    pub fn partition_pair(&self, a: NodeId, b: NodeId) {
        let mut p = self.shared.partitions.lock();
        p.insert((a, b));
        p.insert((b, a));
    }

    /// Restores all links.
    pub fn heal(&self) {
        self.shared.partitions.lock().clear();
    }

    /// Transport statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.shared.stats
    }
}

fn scheduler_loop(rx: Receiver<Scheduled>, shared: Arc<Shared>) {
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|s| s.deliver_at <= now) {
            let item = heap.pop().expect("peeked");
            shared.deliver(item.envelope);
        }
        // Wait for the next deadline or new work.
        let wait = heap
            .peek()
            .map(|s| s.deliver_at.saturating_duration_since(Instant::now()));
        let received = match wait {
            Some(d) if d.is_zero() => continue,
            Some(d) => rx.recv_timeout(d),
            None => rx
                .recv()
                .map_err(|_| crossbeam_channel::RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(item) => heap.push(item),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                // Drain what is left, then exit.
                let now = Instant::now();
                while let Some(item) = heap.pop() {
                    if item.deliver_at > now {
                        std::thread::sleep(item.deliver_at - now);
                    }
                    shared.deliver(item.envelope);
                }
                return;
            }
        }
    }
}

/// One node's attachment to a [`Network`]: a sending half (addressed by
/// envelope) and a private inbox.
pub struct Endpoint {
    node: NodeId,
    rx: Receiver<Envelope>,
    shared: Arc<Shared>,
    scheduler_tx: Option<Sender<Scheduled>>,
}

/// A send-only handle detached from an [`Endpoint`]'s inbox: any number
/// of threads (e.g. a durability writer acknowledging commits) can send
/// *as* the endpoint's node without competing for its received
/// messages.
#[derive(Clone)]
pub struct EndpointSender {
    node: NodeId,
    shared: Arc<Shared>,
    scheduler_tx: Option<Sender<Scheduled>>,
}

impl EndpointSender {
    /// The node this sender transmits as.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends an envelope; latency, drops and partitions apply.
    pub fn send(&self, envelope: Envelope) {
        send_via(&self.shared, &self.scheduler_tx, envelope);
    }
}

impl core::fmt::Debug for EndpointSender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EndpointSender({})", self.node)
    }
}

/// The shared send path behind [`Endpoint::send`] and
/// [`EndpointSender::send`].
fn send_via(shared: &Arc<Shared>, scheduler_tx: &Option<Sender<Scheduled>>, envelope: Envelope) {
    shared.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .bytes_sent
        .fetch_add(envelope.payload_len() as u64, Ordering::Relaxed);

    if shared
        .partitions
        .lock()
        .contains(&(envelope.from, envelope.to))
    {
        shared
            .stats
            .messages_dropped
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    if shared.config.drop_probability > 0.0 {
        let roll: f64 = shared.rng.lock().gen();
        if roll < shared.config.drop_probability {
            shared
                .stats
                .messages_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    match scheduler_tx {
        None => shared.deliver(envelope),
        Some(tx) => {
            let jitter = if shared.config.jitter.is_zero() {
                Duration::ZERO
            } else {
                let nanos = shared.config.jitter.as_nanos() as u64;
                Duration::from_nanos(shared.rng.lock().gen_range(0..=nanos))
            };
            let item = Scheduled {
                deliver_at: Instant::now() + shared.config.latency + jitter,
                seq: shared.seq.fetch_add(1, Ordering::Relaxed),
                envelope,
            };
            // A disconnected scheduler means the network is shutting
            // down; dropping the message models a dying link.
            let _ = tx.send(item);
        }
    }
}

impl Endpoint {
    /// This endpoint's address.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A send-only clone of this endpoint (shares the network, not the
    /// inbox).
    pub fn sender(&self) -> EndpointSender {
        EndpointSender {
            node: self.node,
            shared: Arc::clone(&self.shared),
            scheduler_tx: self.scheduler_tx.clone(),
        }
    }

    /// Sends an envelope; latency, drops and partitions apply.
    pub fn send(&self, envelope: Envelope) {
        send_via(&self.shared, &self.scheduler_tx, envelope);
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Disconnected`] if the network is gone.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Waits up to `timeout` for a message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing arrives in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam_channel::RecvTimeoutError::Timeout => RecvError::Timeout,
            crossbeam_channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Receives a **burst**: blocks (up to `deadline`) for the first
    /// envelope, greedily drains whatever else is already queued (at
    /// most `max_burst`), then checks each envelope's signature
    /// ([`Envelope::verify`]; a directory key walks its prepared table)
    /// so only actual forgeries drop. Envelopes from senders absent
    /// from `keys` are discarded (unauthenticated messages are
    /// ignored). Returns the verified envelopes in arrival order;
    /// retries internally until at least one survives or the deadline
    /// passes.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing verifiable arrives in time,
    /// [`RecvError::Disconnected`] when the network is gone.
    pub fn recv_verified_burst(
        &self,
        deadline: Instant,
        keys: &std::collections::HashMap<NodeId, fides_crypto::schnorr::PublicKey>,
        max_burst: usize,
    ) -> Result<Vec<Envelope>, RecvError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let first = self.recv_timeout(deadline - now)?;
            let mut burst = vec![first];
            while burst.len() < max_burst {
                match self.try_recv() {
                    Some(env) => burst.push(env),
                    None => break,
                }
            }
            let verified: Vec<Envelope> = burst
                .into_iter()
                .filter(|env| keys.get(&env.from).is_some_and(|pk| env.verify(pk)))
                .collect();
            if !verified.is_empty() {
                return Ok(verified);
            }
        }
    }
}

impl core::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Endpoint({})", self.node)
    }
}

impl core::fmt::Debug for Network {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Network(latency={:?}, nodes={})",
            self.shared.config.latency,
            self.shared.inboxes.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_crypto::schnorr::KeyPair;

    fn env(kp: &KeyPair, from: u32, to: u32, payload: &[u8]) -> Envelope {
        Envelope::sign(kp, NodeId::new(from), NodeId::new(to), payload.to_vec())
    }

    #[test]
    fn instant_delivery() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(NodeId::new(0));
        let b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        a.send(env(&kp, 0, 1, b"x"));
        assert_eq!(b.recv().unwrap().payload, b"x");
    }

    #[test]
    fn delayed_delivery_takes_at_least_latency() {
        let net = Network::new(NetworkConfig::with_latency(Duration::from_millis(20)));
        let a = net.register(NodeId::new(0));
        let b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        let start = Instant::now();
        a.send(env(&kp, 0, 1, b"x"));
        let got = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, b"x");
        assert!(start.elapsed() >= Duration::from_millis(18), "too fast");
    }

    #[test]
    fn delayed_messages_keep_order_per_link() {
        let net = Network::new(NetworkConfig::with_latency(Duration::from_millis(5)));
        let a = net.register(NodeId::new(0));
        let b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        for i in 0..10u8 {
            a.send(env(&kp, 0, 1, &[i]));
        }
        for i in 0..10u8 {
            assert_eq!(
                b.recv_timeout(Duration::from_secs(2)).unwrap().payload,
                vec![i]
            );
        }
    }

    #[test]
    fn partition_drops_one_direction() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(NodeId::new(0));
        let b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        net.partition(NodeId::new(0), NodeId::new(1));
        a.send(env(&kp, 0, 1, b"lost"));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        // Reverse direction still works.
        b.send(env(&kp, 1, 0, b"ok"));
        assert_eq!(a.recv().unwrap().payload, b"ok");
        net.heal();
        a.send(env(&kp, 0, 1, b"back"));
        assert_eq!(b.recv().unwrap().payload, b"back");
        assert_eq!(net.stats().messages_dropped(), 1);
    }

    #[test]
    fn random_drops_respect_probability() {
        let net = Network::new(Network::config_full_loss());
        let a = net.register(NodeId::new(0));
        let b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        for _ in 0..20 {
            a.send(env(&kp, 0, 1, b"x"));
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        assert_eq!(net.stats().messages_dropped(), 20);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(NodeId::new(0));
        let _b = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        a.send(env(&kp, 0, 1, b"12345"));
        a.send(env(&kp, 0, 1, b"678"));
        assert_eq!(net.stats().messages_sent(), 2);
        assert_eq!(net.stats().bytes_sent(), 8);
    }

    #[test]
    fn unknown_destination_is_dropped_silently() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(NodeId::new(0));
        let kp = KeyPair::from_seed(b"k");
        a.send(env(&kp, 0, 99, b"void"));
        // No panic; nothing to assert beyond the send not failing.
        assert_eq!(net.stats().messages_sent(), 1);
    }

    #[test]
    fn reregistration_replaces_the_inbox() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(NodeId::new(0));
        let b_old = net.register(NodeId::new(1));
        let kp = KeyPair::from_seed(b"k");
        a.send(env(&kp, 0, 1, b"before-crash"));
        assert_eq!(b_old.recv().unwrap().payload, b"before-crash");

        // Node 1 "reboots": the replacement inbox gets new traffic, the
        // dead endpoint gets nothing further.
        let b_new = net.reregister(NodeId::new(1));
        a.send(env(&kp, 0, 1, b"after-restart"));
        assert_eq!(b_new.recv().unwrap().payload, b"after-restart");
        // Its network-side sender was dropped with the replacement.
        assert_eq!(
            b_old.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Disconnected)
        );
        // The restarted node can still send.
        b_new.send(env(&kp, 1, 0, b"hello"));
        assert_eq!(a.recv().unwrap().payload, b"hello");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let net = Network::new(NetworkConfig::default());
        let _a = net.register(NodeId::new(0));
        let _b = net.register(NodeId::new(0));
    }

    impl Network {
        fn config_full_loss() -> NetworkConfig {
            NetworkConfig {
                drop_probability: 1.0,
                ..NetworkConfig::default()
            }
        }
    }
}
