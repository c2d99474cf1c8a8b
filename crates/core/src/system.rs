//! The cluster harness: assembles servers, clients and the auditor into
//! a running Fides deployment (the experimental setup of §6).
//!
//! A [`FidesCluster`] spawns one thread per database server, preloads
//! each shard with `items_per_shard` data items, registers every
//! participant's public key in the shared directory, and hands out
//! [`ClientSession`]s and [`AuditReport`]s.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fides_crypto::encoding::Encodable;
use fides_crypto::schnorr::{KeyPair, PublicKey};
use fides_net::{Envelope, Network, NetworkConfig, NodeId};
use fides_store::authenticated::{AuthenticatedShard, MhtUpdateStats};
use fides_store::types::{Key, Value};

use crate::audit::{AuditInput, AuditReport, Auditor};
use crate::behavior::Behavior;
use crate::client::{ClientSession, TimestampOracle};
use crate::messages::{CommitProtocol, Message};
use crate::partition::Partitioner;
use crate::recovery::{recover_server, PersistenceConfig, ServerStartError};
use crate::server::{
    admin_node, client_node, server_node, Directory, Server, ServerConfig, ServerState,
    COORDINATOR_IDX, LEADER,
};

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of database servers (= shards).
    pub n_servers: u32,
    /// Data items preloaded per shard (the paper defaults to 10 000).
    pub items_per_shard: usize,
    /// Transactions per block (the paper's evaluation typically uses
    /// 100; Figure 12 uses 1).
    pub batch_size: usize,
    /// Which commitment protocol to run.
    pub protocol: CommitProtocol,
    /// Network latency/fault model.
    pub network: NetworkConfig,
    /// Per-server fault injection.
    pub behaviors: HashMap<u32, Behavior>,
    /// Client slots pre-registered in the key directory.
    pub max_clients: u32,
    /// Coordinator idle time before terminating a partial batch.
    pub flush_interval: Duration,
    /// Coordinator phase timeout.
    pub round_timeout: Duration,
    /// Initial numeric value of every preloaded item.
    pub initial_value: i64,
    /// Durable storage for logs and shard snapshots (`None` = the
    /// original memory-only cluster).
    pub persistence: Option<PersistenceConfig>,
    /// How long a repairing server counts as *lagging* (no
    /// incomplete-log violation) before the audit treats the missing
    /// tail as an omission fault after all.
    pub repair_grace: Duration,
    /// Liveness watchdog threshold (see
    /// [`crate::server::ServerConfig::stall_timeout`]). `None` follows
    /// `round_timeout`; `Some(Duration::ZERO)` disables the watchdog.
    pub stall_timeout: Option<Duration>,
}

impl ClusterConfig {
    /// A sensible default configuration for `n_servers` servers.
    pub fn new(n_servers: u32) -> Self {
        ClusterConfig {
            n_servers,
            items_per_shard: 100,
            batch_size: 1,
            protocol: CommitProtocol::TfCommit,
            network: NetworkConfig::default(),
            behaviors: HashMap::new(),
            max_clients: 256,
            flush_interval: Duration::from_millis(5),
            round_timeout: Duration::from_secs(5),
            initial_value: 100,
            persistence: None,
            repair_grace: Duration::from_secs(30),
            stall_timeout: None,
        }
    }

    /// Sets the liveness watchdog threshold (`Duration::ZERO`
    /// disables it; the default follows `round_timeout`).
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Sets the number of preloaded items per shard.
    pub fn items_per_shard(mut self, items: usize) -> Self {
        self.items_per_shard = items;
        self
    }

    /// Sets the number of transactions per block.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Selects the commitment protocol.
    pub fn protocol(mut self, protocol: CommitProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the network model.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Injects a behaviour into one server.
    pub fn behavior(mut self, server: u32, behavior: Behavior) -> Self {
        self.behaviors.insert(server, behavior);
        self
    }

    /// Sets the number of client slots.
    pub fn max_clients(mut self, max: u32) -> Self {
        self.max_clients = max;
        self
    }

    /// Sets the coordinator's phase timeout (crash-fault tests use
    /// short values).
    pub fn round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets the coordinator's idle-flush interval.
    pub fn flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = interval;
        self
    }

    /// Sets the initial numeric value of preloaded items.
    pub fn initial_value(mut self, value: i64) -> Self {
        self.initial_value = value;
        self
    }

    /// Sets the repairing-server audit grace window (see
    /// [`ClusterConfig::repair_grace`]).
    pub fn repair_grace(mut self, grace: Duration) -> Self {
        self.repair_grace = grace;
        self
    }

    /// Persists every server's log and snapshots under `dir`
    /// (`<dir>/server-<idx>/{wal,snapshots}`). Starting a cluster twice
    /// over the same directory is a restart: the second start recovers
    /// and re-verifies the first one's state.
    pub fn persist_to(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.persistence(PersistenceConfig::files(dir))
    }

    /// Sets a full persistence configuration (backend, WAL tuning,
    /// snapshot interval).
    pub fn persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.persistence = Some(persistence);
        self
    }
}

/// A running cluster.
pub struct FidesCluster {
    config: ClusterConfig,
    network: Network,
    partitioner: Partitioner,
    directory: Directory,
    server_pks: Vec<PublicKey>,
    oracle: TimestampOracle,
    /// The deterministic genesis composite root of every shard — the
    /// verified read plane's trusted anchor for pre-commit state,
    /// handed to every client's root registry.
    genesis_roots: Vec<fides_crypto::Digest>,
    /// Refuted snapshot reads filed by this cluster's clients; folded
    /// into audits as `TamperedRead` violations.
    read_evidence: Arc<parking_lot::Mutex<Vec<fides_read::ReadEvidence>>>,
    states: Vec<Arc<ServerState>>,
    /// One slot per server; `None` while that server is crashed
    /// (between [`FidesCluster::crash_server`] and
    /// [`FidesCluster::restart_server`]).
    threads: Vec<Option<JoinHandle<()>>>,
    admin: fides_net::Endpoint,
    admin_kp: KeyPair,
    initial: HashMap<Key, Value>,
}

impl FidesCluster {
    /// Builds shards, keys and the partition map; spawns the server
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics when a persisted server refuses to start (corrupt or
    /// tampered WAL/snapshot) — use [`FidesCluster::try_start`] to
    /// handle the refusal.
    pub fn start(config: ClusterConfig) -> FidesCluster {
        match Self::try_start(config) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`FidesCluster::start`], but a persisted server that fails
    /// verified recovery surfaces as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// The first [`ServerStartError`] encountered; no threads are left
    /// running.
    pub fn try_start(config: ClusterConfig) -> Result<FidesCluster, ServerStartError> {
        assert!(config.n_servers > 0, "need at least one server");
        let network = Network::new(config.network.clone());

        // Key material: deterministic seeds keep runs reproducible.
        let server_kps: Vec<KeyPair> = (0..config.n_servers)
            .map(|i| KeyPair::from_seed(format!("fides-server-{i}").as_bytes()))
            .collect();
        // Every directory key is prepared: the process builds its
        // verification table on its first check and keeps it for every
        // cluster it starts (`docs/crypto.md`, "Per-signer tables").
        // The witness set's aggregate key gets one the same way.
        let server_pks: Vec<PublicKey> = server_kps
            .iter()
            .map(|k| k.public_key().prepared())
            .collect();
        let admin_kp = KeyPair::from_seed(b"fides-admin");

        let mut directory: HashMap<NodeId, PublicKey> = HashMap::new();
        for (i, pk) in server_pks.iter().enumerate() {
            directory.insert(server_node(i as u32), *pk);
        }
        for j in 0..config.max_clients {
            let kp = KeyPair::from_seed(format!("fides-client-{j}").as_bytes());
            directory.insert(client_node(j), kp.public_key().prepared());
        }
        directory.insert(admin_node(), admin_kp.public_key().prepared());
        let directory: Directory = Arc::new(directory);

        // Shards and the partition map.
        let mut assignments =
            Vec::with_capacity(config.n_servers as usize * config.items_per_shard);
        let mut initial = HashMap::new();
        let mut shards = Vec::with_capacity(config.n_servers as usize);
        for s in 0..config.n_servers {
            for i in 0..config.items_per_shard {
                let key = Self::key_for(s, i);
                assignments.push((key.clone(), s));
                initial.insert(key, Value::from_i64(config.initial_value));
            }
            shards.push(Self::build_initial_shard(&config, s));
        }
        let genesis_roots: Vec<fides_crypto::Digest> = shards.iter().map(|s| s.root()).collect();
        let partitioner = Partitioner::from_assignments(config.n_servers, assignments);

        // Build every server's state first — recovering (and verifying)
        // persisted state where configured — so a refused startup
        // surfaces before any thread runs.
        let mut server_states = Vec::with_capacity(config.n_servers as usize);
        for (s, shard) in shards.into_iter().enumerate() {
            let s = s as u32;
            let behavior = config.behaviors.get(&s).cloned().unwrap_or_default();
            let state = match &config.persistence {
                None => ServerState::new(s, shard, behavior),
                Some(persistence) => {
                    let recovered = recover_server(
                        s,
                        shard,
                        &partitioner,
                        &server_pks,
                        config.protocol,
                        persistence,
                    )?;
                    ServerState::recovered(s, behavior, recovered)
                }
            };
            server_states.push(state);
        }

        // Spawn the servers.
        let mut states = Vec::with_capacity(config.n_servers as usize);
        let mut threads = Vec::with_capacity(config.n_servers as usize);
        for state in server_states {
            let s = state.idx;
            let server_config = Self::build_server_config(&config, s);
            let endpoint = network.register(server_node(s));
            let (server, state) = Server::from_state(
                server_config,
                state,
                endpoint,
                server_kps[s as usize],
                Arc::clone(&directory),
                partitioner.clone(),
                server_pks.clone(),
            );
            states.push(state);
            threads.push(Some(
                std::thread::Builder::new()
                    .name(format!("fides-server-{s}"))
                    .spawn(move || server.run())
                    .expect("spawn server thread"),
            ));
        }

        let admin = network.register(admin_node());
        Ok(FidesCluster {
            config,
            network,
            partitioner,
            directory,
            server_pks,
            oracle: TimestampOracle::new(),
            genesis_roots,
            read_evidence: Arc::new(parking_lot::Mutex::new(Vec::new())),
            states,
            threads,
            admin,
            admin_kp,
            initial,
        })
    }

    fn key_for(server: u32, item: usize) -> Key {
        Key::new(format!("s{server:03}:item-{item:06}"))
    }

    /// The deterministic preloaded population of server `s`'s shard —
    /// a fresh server's starting state and the replay base when its
    /// disk holds no snapshot.
    fn build_initial_shard(config: &ClusterConfig, s: u32) -> AuthenticatedShard {
        let items = (0..config.items_per_shard)
            .map(|i| (Self::key_for(s, i), Value::from_i64(config.initial_value)))
            .collect();
        AuthenticatedShard::new(items)
    }

    fn build_server_config(config: &ClusterConfig, idx: u32) -> ServerConfig {
        ServerConfig {
            idx,
            n_servers: config.n_servers,
            protocol: config.protocol,
            batch_size: config.batch_size,
            flush_interval: config.flush_interval,
            round_timeout: config.round_timeout,
            repair: true,
            mirror_checkpoints: config.persistence.is_some(),
            quorum_acks: config.persistence.as_ref().is_some_and(|p| p.quorum_acks),
            snapshot_interval: config
                .persistence
                .as_ref()
                .map_or(0, |p| p.snapshot_interval),
            stall_timeout: config.stall_timeout.unwrap_or(config.round_timeout),
        }
    }

    /// The cluster's key naming scheme, usable without a running
    /// cluster (e.g. to parameterize a workload generator).
    pub fn key_name(server: u32, item: usize) -> Key {
        Self::key_for(server, item)
    }

    /// The canonical key of item `item` in server `server`'s shard.
    pub fn key_of(&self, server: u32, item: usize) -> Key {
        assert!(server < self.config.n_servers, "no such server");
        assert!(item < self.config.items_per_shard, "no such item");
        Self::key_for(server, item)
    }

    /// All preloaded keys, shard by shard.
    pub fn all_keys(&self) -> Vec<Key> {
        let mut keys =
            Vec::with_capacity(self.config.n_servers as usize * self.config.items_per_shard);
        for s in 0..self.config.n_servers {
            for i in 0..self.config.items_per_shard {
                keys.push(Self::key_for(s, i));
            }
        }
        keys
    }

    /// The cluster's partition map.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Every server's public key, by index (the CoSi witness set) —
    /// what a client needs to verify outcomes out-of-band (e.g.
    /// [`crate::client::finalize_outcomes`]).
    pub fn server_pks(&self) -> &[PublicKey] {
        &self.server_pks
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared timestamp oracle.
    pub fn oracle(&self) -> TimestampOracle {
        self.oracle.clone()
    }

    /// Creates a client session for slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the configured client slots or is reused.
    pub fn client(&self, id: u32) -> ClientSession {
        assert!(id < self.config.max_clients, "client slot out of range");
        let kp = KeyPair::from_seed(format!("fides-client-{id}").as_bytes());
        ClientSession::new(
            id,
            self.network.register(client_node(id)),
            kp,
            Arc::clone(&self.directory),
            self.partitioner.clone(),
            self.server_pks.clone(),
            self.oracle.clone(),
            self.config.protocol,
        )
        .with_read_context(self.genesis_roots.clone(), Arc::clone(&self.read_evidence))
    }

    /// The deterministic genesis composite root of every shard — what a
    /// stand-alone client needs to seed its own
    /// [`fides_read::RootRegistry`].
    pub fn genesis_roots(&self) -> &[fides_crypto::Digest] {
        &self.genesis_roots
    }

    /// A snapshot of the refuted snapshot reads this cluster's clients
    /// have filed so far.
    pub fn read_evidence(&self) -> Vec<fides_read::ReadEvidence> {
        self.read_evidence.lock().clone()
    }

    /// The metrics of one server (stage latencies, durability, read and
    /// repair planes — see `docs/telemetry.md`).
    pub fn server_metrics(&self, idx: u32) -> fides_telemetry::MetricsSnapshot {
        self.states[idx as usize].metrics()
    }

    /// The cluster-wide metric aggregate: every server's snapshot
    /// merged (counters/histograms add, gauges add with watermark max).
    pub fn metrics(&self) -> fides_telemetry::MetricsSnapshot {
        let mut merged = fides_telemetry::MetricsSnapshot::default();
        for state in &self.states {
            merged.merge(&state.metrics());
        }
        merged
    }

    /// Every span the servers' trace sinks retained (fides-trace),
    /// across the whole cluster — feed to
    /// [`fides_telemetry::trace::assemble`] for trees or
    /// [`fides_telemetry::trace::to_chrome_json`] for a Chrome/Perfetto
    /// file. Client-side spans live in each
    /// [`ClientSession::spans`](crate::client::ClientSession::spans);
    /// append them for the full picture.
    pub fn dump_traces(&self) -> Vec<fides_telemetry::Span> {
        let mut spans = Vec::new();
        for state in &self.states {
            spans.extend(state.telemetry.spans.snapshot());
        }
        spans
    }

    /// One server's liveness-stall reports and flight-recorder dumps.
    pub fn stall_log(&self, idx: u32) -> Arc<fides_telemetry::StallLog> {
        Arc::clone(&self.states[idx as usize].telemetry.stall_log)
    }

    /// Asks the commit leader to terminate any pending partial batch.
    pub fn flush(&self) {
        let env = Envelope::sign(
            &self.admin_kp,
            admin_node(),
            LEADER,
            Message::Flush.encode(),
        );
        self.admin.send(env);
    }

    /// Waits until all *running* server logs converge to the same tip
    /// height (rounds fully propagated, repairs installed) or the
    /// timeout passes. Returns the converged height, or `None` on
    /// timeout. Crashed servers (between [`FidesCluster::crash_server`]
    /// and [`FidesCluster::restart_server`]) are excluded.
    pub fn settle(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        loop {
            let lens: Vec<usize> = self
                .states
                .iter()
                .enumerate()
                .filter(|(i, _)| self.threads[*i].is_some())
                .map(|(_, s)| s.next_height() as usize)
                .collect();
            let first = lens.first().copied().unwrap_or(0);
            if lens.iter().all(|&l| l == first) {
                return Some(first);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Kills one server mid-run: its durability engine is torn down
    /// **without** flushing (the on-disk state is whatever the last
    /// covering fsync left — `kill -9`), and its thread exits. The
    /// remaining cluster keeps running; rounds involving the dead
    /// shard abort until [`FidesCluster::restart_server`] brings it
    /// back through verified recovery + repair.
    pub fn crash_server(&mut self, idx: u32) {
        let slot = idx as usize;
        self.states[slot].kill_durability();
        let env = Envelope::sign(
            &self.admin_kp,
            admin_node(),
            server_node(idx),
            Message::Shutdown.encode(),
        );
        self.admin.send(env);
        if let Some(thread) = self.threads[slot].take() {
            let _ = thread.join();
        }
    }

    /// Restarts a crashed server over its surviving disk state: the
    /// verified recovery path re-checks whatever the disk holds, the
    /// server re-registers with the transport, announces its tip, and
    /// the repair plane transfers (and re-verifies) everything it
    /// missed before it serves commit votes again.
    ///
    /// # Errors
    ///
    /// [`ServerStartError`] when the surviving disk state fails
    /// integrity verification.
    ///
    /// # Panics
    ///
    /// Panics when the cluster has no persistence configured or the
    /// server was not crashed first.
    pub fn restart_server(&mut self, idx: u32) -> Result<(), ServerStartError> {
        let slot = idx as usize;
        assert!(
            self.threads[slot].is_none(),
            "crash_server({idx}) before restart_server({idx})"
        );
        let persistence = self
            .config
            .persistence
            .clone()
            .expect("restart requires a persistence configuration");
        let recovered = recover_server(
            idx,
            Self::build_initial_shard(&self.config, idx),
            &self.partitioner,
            &self.server_pks,
            self.config.protocol,
            &persistence,
        )?;
        let behavior = self.config.behaviors.get(&idx).cloned().unwrap_or_default();
        let state = ServerState::recovered(idx, behavior, recovered);
        let endpoint = self.network.reregister(server_node(idx));
        let keypair = KeyPair::from_seed(format!("fides-server-{idx}").as_bytes());
        let (server, state) = Server::from_state(
            Self::build_server_config(&self.config, idx),
            state,
            endpoint,
            keypair,
            Arc::clone(&self.directory),
            self.partitioner.clone(),
            self.server_pks.clone(),
        );
        self.states[slot] = state;
        self.threads[slot] = Some(
            std::thread::Builder::new()
                .name(format!("fides-server-{idx}"))
                .spawn(move || server.run())
                .expect("spawn server thread"),
        );
        Ok(())
    }

    /// Waits until server `idx` has finished repairing **and** reached
    /// the running cluster's converged tip. Returns `true` on success
    /// within the timeout — the rejoin barrier tests and the bench
    /// driver use to measure repair time.
    pub fn await_rejoin(&self, idx: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let state = &self.states[idx as usize];
            if !state.is_repairing() {
                let tip = state.next_height();
                let max = self
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| self.threads[*i].is_some())
                    .map(|(_, s)| s.next_height())
                    .max()
                    .unwrap_or(0);
                if tip == max {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs a full audit: gathers every server's (possibly doctored)
    /// log, datastore snapshot and newest persisted checkpoint, then
    /// applies Lemmas 1–7. Each server's `(log, shard)` pair is taken
    /// consistently ([`ServerState::audit_snapshot`]) even while its
    /// commit pipeline is mid-flight.
    ///
    /// Repair-plane integration: a server that is repairing within
    /// [`ClusterConfig::repair_grace`] is reported as *lagging* rather
    /// than accused of an incomplete log, and every refuted transfer a
    /// repairer recorded is surfaced as a violation against the peer
    /// that served it.
    pub fn audit(&self) -> AuditReport {
        self.settle(Duration::from_secs(2));
        let mut logs = Vec::with_capacity(self.states.len());
        let mut shards = Vec::with_capacity(self.states.len());
        let mut checkpoints = Vec::with_capacity(self.states.len());
        let mut lagging = std::collections::HashSet::new();
        for state in &self.states {
            if state.is_repairing()
                && state
                    .repair_since()
                    .is_some_and(|since| since.elapsed() <= self.config.repair_grace)
            {
                lagging.insert(state.idx);
            }
            let (log, shard) = state.audit_snapshot();
            logs.push(log);
            shards.push(shard);
            checkpoints.push(state.persisted_snapshot());
        }
        let auditor = Auditor::new(
            self.partitioner.clone(),
            self.server_pks.clone(),
            self.initial.clone(),
        )
        .with_lagging(lagging);
        let auditor = match self.config.protocol {
            CommitProtocol::TfCommit => auditor,
            CommitProtocol::TwoPhaseCommit => auditor.without_cosign_verification(),
        };
        let mut report = auditor.audit(&AuditInput {
            logs,
            shards,
            checkpoints,
        });
        // Byzantine repair peers: evidence the repairers collected.
        for state in &self.states {
            for evidence in state.repair_evidence() {
                report.violations.push(crate::audit::Violation {
                    server: Some(evidence.peer),
                    height: None,
                    kind: crate::audit::ViolationKind::TamperedTransfer {
                        fault: evidence.fault,
                    },
                });
            }
        }
        // Byzantine read servers: refuted snapshot reads the clients
        // filed — each names the precise server that served the forged
        // value/absence/header or the stale-beyond-bound root.
        for evidence in self.read_evidence.lock().iter() {
            report.violations.push(crate::audit::Violation {
                server: Some(evidence.server),
                height: None,
                kind: crate::audit::ViolationKind::TamperedRead {
                    fault: evidence.fault.clone(),
                },
            });
        }
        report
    }

    /// Adjusts the repairing-server audit grace window on a running
    /// cluster (tests exercising the lagging deadline).
    pub fn set_repair_grace(&mut self, grace: Duration) {
        self.config.repair_grace = grace;
    }

    /// Direct (read) access to a server's state, for tests and
    /// examples.
    pub fn server_state(&self, idx: u32) -> Arc<ServerState> {
        Arc::clone(&self.states[idx as usize])
    }

    /// Per-server Merkle-maintenance statistics (Figure 14's "MHT
    /// update time").
    pub fn mht_stats(&self) -> Vec<MhtUpdateStats> {
        self.states.iter().map(|s| s.mht_stats()).collect()
    }

    /// The cluster's commit-round statistics (the paper's commit
    /// latency metric): the leader's, since it runs every round.
    pub fn round_stats(&self) -> crate::server::RoundStats {
        self.states[COORDINATOR_IDX as usize].round_stats()
    }

    /// Zeroes every server's Merkle statistics.
    pub fn reset_mht_stats(&self) {
        for state in &self.states {
            state.reset_mht_stats();
        }
    }

    /// Network statistics (messages/bytes/drops).
    pub fn network_stats(&self) -> &fides_net::NetworkStats {
        self.network.stats()
    }

    /// The network handle (for partition injection in tests).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Stops every server thread and joins them, then shuts down each
    /// server's durability engine — it drains and fsyncs everything
    /// before its writer thread exits, so a restart over the same
    /// directory recovers the complete history.
    pub fn shutdown(mut self) {
        for s in 0..self.config.n_servers {
            let env = Envelope::sign(
                &self.admin_kp,
                admin_node(),
                server_node(s),
                Message::Shutdown.encode(),
            );
            self.admin.send(env);
        }
        for t in self.threads.drain(..).flatten() {
            let _ = t.join();
        }
        for state in &self.states {
            state.shutdown_durability();
        }
    }
}

impl core::fmt::Debug for FidesCluster {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "FidesCluster(n={}, items/shard={}, batch={}, protocol={})",
            self.config.n_servers,
            self.config.items_per_shard,
            self.config.batch_size,
            self.config.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TxnOutcome;

    fn small_cluster(protocol: CommitProtocol) -> FidesCluster {
        FidesCluster::start(ClusterConfig::new(3).items_per_shard(8).protocol(protocol))
    }

    #[test]
    fn single_txn_commits_and_audits_clean() {
        let cluster = small_cluster(CommitProtocol::TfCommit);
        let mut client = cluster.client(0);
        let key = cluster.key_of(1, 3);

        let mut txn = client.begin();
        let v = client.read(&mut txn, &key).unwrap();
        assert_eq!(v.as_i64(), Some(100));
        client.write(&mut txn, &key, Value::from_i64(142)).unwrap();
        let outcome = client.commit(txn).unwrap();
        assert!(outcome.committed(), "outcome: {outcome:?}");

        // The write is visible to a second transaction.
        let mut txn2 = client.begin();
        let v2 = client.read(&mut txn2, &key).unwrap();
        assert_eq!(v2.as_i64(), Some(142));
        // Abandon txn2 (never committed).

        let report = cluster.audit();
        assert!(report.is_clean(), "{report}");
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_txn_commits() {
        let cluster = small_cluster(CommitProtocol::TfCommit);
        let mut client = cluster.client(0);
        let k0 = cluster.key_of(0, 0);
        let k2 = cluster.key_of(2, 5);
        let outcome = client.run_rmw(&[k0.clone(), k2.clone()], -25).unwrap();
        assert!(outcome.committed());

        let mut txn = client.begin();
        assert_eq!(client.read(&mut txn, &k0).unwrap().as_i64(), Some(75));
        assert_eq!(client.read(&mut txn, &k2).unwrap().as_i64(), Some(75));
        assert!(cluster.audit().is_clean());
        cluster.shutdown();
    }

    #[test]
    fn twopc_baseline_commits() {
        let cluster = small_cluster(CommitProtocol::TwoPhaseCommit);
        let mut client = cluster.client(0);
        let key = cluster.key_of(0, 1);
        let outcome = client.run_rmw(std::slice::from_ref(&key), 1).unwrap();
        assert!(outcome.committed());
        let mut txn = client.begin();
        assert_eq!(client.read(&mut txn, &key).unwrap().as_i64(), Some(101));
        cluster.shutdown();
    }

    #[test]
    fn stale_read_causes_abort() {
        // Two sequential RMWs on the same key with a torn read: read
        // under an old version then commit after another write.
        let cluster = small_cluster(CommitProtocol::TfCommit);
        let mut alice = cluster.client(0);
        let mut bob = cluster.client(1);
        let key = cluster.key_of(0, 2);

        // Alice reads (observes wts 0)...
        let mut txa = alice.begin();
        let _ = alice.read(&mut txa, &key).unwrap();

        // ...Bob commits a write to the same key...
        assert!(bob
            .run_rmw(std::slice::from_ref(&key), 5)
            .unwrap()
            .committed());

        // ...then Alice tries to commit her read: stale → abort.
        alice.write(&mut txa, &key, Value::from_i64(0)).unwrap();
        let outcome = alice.commit(txa).unwrap();
        assert!(
            matches!(outcome, TxnOutcome::Aborted { .. }),
            "expected abort, got {outcome:?}"
        );
        // The abort block is logged; the audit stays clean (nothing
        // incorrect happened — the protocol *prevented* the violation).
        let report = cluster.audit();
        assert!(report.is_clean(), "{report}");
        cluster.shutdown();
    }

    #[test]
    fn batched_transactions_commit_in_one_block() {
        // A wide flush window: the batch deadline is now measured from
        // the first queued end-txn, so all four clients must submit
        // within it for the single-block assertion to be deterministic.
        let cluster = FidesCluster::start(
            ClusterConfig::new(3)
                .items_per_shard(32)
                .batch_size(4)
                .flush_interval(Duration::from_millis(250)),
        );
        // Four concurrent clients, disjoint keys → one block.
        let mut handles = Vec::new();
        for c in 0..4u32 {
            let mut client = cluster.client(c);
            let key = cluster.key_of(c % 3, c as usize);
            handles.push(std::thread::spawn(move || {
                client.run_rmw(&[key], 1).unwrap()
            }));
        }
        let outcomes: Vec<TxnOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outcomes.iter().all(|o| o.committed()), "{outcomes:?}");
        let heights: std::collections::HashSet<u64> = outcomes
            .iter()
            .map(|o| match o {
                TxnOutcome::Committed { height, .. } => *height,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(heights.len(), 1, "all four should share one block");
        assert!(cluster.audit().is_clean());
        cluster.shutdown();
    }

    #[test]
    fn settle_converges() {
        let cluster = small_cluster(CommitProtocol::TfCommit);
        let mut client = cluster.client(0);
        let key = cluster.key_of(0, 0);
        client.run_rmw(&[key], 1).unwrap();
        assert_eq!(cluster.settle(Duration::from_secs(2)), Some(1));
        cluster.shutdown();
    }
}
