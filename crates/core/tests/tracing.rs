//! fides-trace integration tests: causal span trees across the commit
//! pipeline, and the liveness watchdog against a stalled leader.
//!
//! * Span-tree assembly — a fully-sampled commit produces one tree per
//!   transaction whose edges match the message flow (client root →
//!   commit round → coordinator stages / cohort work), and whose
//!   coordinator stage spans measure the same intervals as the
//!   `commit.stage.*` histograms.
//! * Export — under concurrent load on a persisted cluster, the Chrome
//!   trace-event export parses as JSON, every event is a complete span
//!   with a parent, only client commits are roots, the slowest traces
//!   have no dangling parent, and every line of the Prometheus scrape
//!   is a comment or a valid sample.
//! * Watchdog — a leader that collects every vote and then goes silent
//!   (`Behavior::stall_after_votes`) is declared stalled by the
//!   cohorts' round-progress watchdogs within 2× the round timeout,
//!   and the flight-recorder dump names the stalled height and leader.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use fides_core::messages::CommitProtocol;
use fides_core::recovery::{MemoryCluster, PersistenceConfig};
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_core::Behavior;
use fides_durability::{SyncPolicy, WalConfig};
use fides_telemetry::trace::{assemble, to_chrome_json, CLIENT_TAG_BASE};
use fides_telemetry::{Span, Stage};

const N_SERVERS: u32 = 4;
const ITEMS_PER_SHARD: usize = 64;

fn config() -> ClusterConfig {
    ClusterConfig::new(N_SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .protocol(CommitProtocol::TfCommit)
        .batch_size(1)
        .max_clients(8)
}

/// A read-modify-write spec touching two shards, so the traced round
/// has real cohort work on servers other than the coordinator.
fn cross_shard_keys(i: usize) -> Vec<fides_store::Key> {
    vec![
        FidesCluster::key_name((i % N_SERVERS as usize) as u32, i % ITEMS_PER_SHARD),
        FidesCluster::key_name(
            ((i + 1) % N_SERVERS as usize) as u32,
            (i + 3) % ITEMS_PER_SHARD,
        ),
    ]
}

#[test]
fn traced_commit_assembles_cross_server_span_tree() {
    // Every commit sampled. The sampler reads this once per client, at
    // construction; the variable is process-global, which is fine —
    // extra sampled traffic from a concurrent test only adds spans to
    // sinks nobody snapshots.
    std::env::set_var("FIDES_TRACE_SAMPLE", "1");
    let cluster = FidesCluster::start(config());
    let mut client = cluster.client(0);
    let outcome = client
        .run_rmw_batched(&cross_shard_keys(0), 1)
        .expect("commit");
    assert!(outcome.committed());
    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
    // The coordinator closes its round after the outcome has gone out,
    // so the client (and the logs) can be done first: wait for the
    // round span before reading the coordinator's spans and histograms.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cluster
        .dump_traces()
        .iter()
        .any(|s| s.name == "commit.round")
    {
        assert!(
            Instant::now() < deadline,
            "the coordinator never closed its round"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Read the coordinator's stage histograms before shutdown: with
    // one commit and `batch_size(1)` there was exactly one round, so
    // each histogram's sum is that round's single stage lap.
    let coord_metrics = cluster.server_metrics(0);

    let mut spans = cluster.dump_traces();
    spans.extend(client.spans());
    cluster.shutdown();

    let trees = assemble(&spans);
    let tree = trees
        .iter()
        .find(|t| t.span("client.commit").is_some())
        .expect("a traced commit retained its client root");

    // Edges match the message flow: client root → commit round →
    // stage/cohort spans.
    let root = tree.root().expect("client root");
    assert_eq!(root.name, "client.commit");
    assert!(root.node >= CLIENT_TAG_BASE, "root recorded by the client");
    let round = tree.span("commit.round").expect("round span");
    assert_eq!(round.parent, root.span_id, "round hangs off client root");
    assert_eq!(round.node, 0, "fixed coordinator led the round");
    // Only the starts nest: the outcome fans out *during* the round
    // (OutcomeSend precedes the round span's close), so the client can
    // close its root before the coordinator closes the round.
    assert!(root.start_ns <= round.start_ns);

    // All six commit stages on the coordinator, each a child of the
    // round span, each measuring the same interval as the coordinator's
    // stage histogram (two clock reads apart, so give microseconds of
    // scheduling noise a wide berth).
    for stage in Stage::ALL {
        let stage_spans: Vec<&Span> = tree
            .spans
            .iter()
            .filter(|s| s.name == stage.metric_name())
            .collect();
        let coord = stage_spans
            .iter()
            .find(|s| s.node == 0)
            .unwrap_or_else(|| panic!("no coordinator span for {}", stage.metric_name()));
        assert_eq!(
            coord.parent,
            round.span_id,
            "{} parent",
            stage.metric_name()
        );
        let hist = coord_metrics.histogram(stage.metric_name());
        let tolerance = (hist.sum / 4).max(5_000_000);
        assert!(
            coord.duration_ns().abs_diff(hist.sum) <= tolerance,
            "{}: span {} ns vs histogram {} ns",
            stage.metric_name(),
            coord.duration_ns(),
            hist.sum
        );
    }

    // Cohort-side work landed in the same tree, attributed to other
    // servers and hung off the round span via the envelope context.
    for name in ["cohort.occ_validate", "cohort.cosi_respond"] {
        let cohort = tree
            .spans
            .iter()
            .find(|s| s.name == name && s.node != 0 && s.node < CLIENT_TAG_BASE)
            .unwrap_or_else(|| panic!("no cohort span {name}"));
        assert_eq!(cohort.parent, round.span_id, "{name} parent");
    }

    // The export is well-formed Chrome trace-event JSON (CI validates
    // it with a real parser; this is the cheap structural check).
    let json = to_chrome_json(&tree.spans);
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"client.commit\""));
    assert!(json.contains("\"commit.stage.wal_fsync\""));
}

/// A JSON value: enough of RFC 8259 to read an export back the way a
/// trace viewer would, so a malformed byte fails the test.
#[derive(Debug)]
enum Json {
    /// `null`, `true` or `false`.
    Literal,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value()?;
        p.ws();
        match p.i == p.s.len() {
            true => Ok(value),
            false => Err(format!("trailing bytes at {}", p.i)),
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields.get(key).unwrap_or(&Json::Literal),
            _ => &Json::Literal,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| b" \t\r\n".contains(c)) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    /// Consumes `sep` or `close` after an element; true at `close`.
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b',') => self.i += 1,
            Some(c) if *c == close => {
                self.i += 1;
                return Ok(true);
            }
            _ => return self.err("expected ',' or a closing bracket"),
        }
        Ok(false)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.i..];
        for word in ["null", "true", "false"] {
            if rest.starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(Json::Literal);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.next_or_close(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if self.s.get(self.i) != Some(&b':') {
                        return self.err("expected ':'");
                    }
                    self.i += 1;
                    if fields.insert(key, self.value()?).is_some() {
                        return self.err("duplicate key");
                    }
                    if self.next_or_close(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            _ => {
                let len = rest
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                    .count();
                let text = std::str::from_utf8(&rest[..len]).expect("ASCII");
                let valid = text.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                    && !text.ends_with('.');
                match text.parse() {
                    Ok(n) if valid => {
                        self.i += len;
                        Ok(Json::Num(n))
                    }
                    _ => self.err("expected a value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escaped = match self.s.get(self.i) {
                        Some(b'"') => b'"',
                        Some(b'\\') => b'\\',
                        Some(b'/') => b'/',
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        _ => return self.err("unsupported escape"),
                    };
                    out.push(escaped);
                    self.i += 1;
                }
                0..=0x1f => return self.err("control byte in a string"),
                _ => out.push(c),
            }
        }
    }
}

/// Every span name a traced commit must export: the client's root, the
/// leader's round and its six stages.
const REQUIRED_SPANS: [&str; 8] = [
    "client.commit",
    "commit.round",
    "commit.stage.batch_form",
    "commit.stage.occ_validate",
    "commit.stage.merkle_update",
    "commit.stage.cosi_assemble",
    "commit.stage.wal_fsync",
    "commit.stage.outcome_send",
];

/// Parses `to_chrome_json(spans)` and checks every event: a complete
/// (`"X"`) span with `dur > 0`, the fields a viewer needs, a parent,
/// and a root (parent `0x0`) exactly when it is a client commit.
/// Returns each event's `(trace_id, span_id, parent)`.
fn chrome_events(spans: &[Span]) -> Vec<[String; 3]> {
    let json = to_chrome_json(spans);
    let parsed = Json::parse(&json).unwrap_or_else(|e| panic!("export is not JSON: {e}"));
    let Json::Arr(events) = parsed.get("traceEvents") else {
        panic!("export has no traceEvents array");
    };
    assert!(!events.is_empty(), "export has no spans");
    events
        .iter()
        .map(|event| {
            assert_eq!(event.get("ph").str(), Some("X"), "{event:?}");
            for field in ["dur", "ts", "pid", "tid"] {
                assert!(
                    matches!(event.get(field), Json::Num(n) if field != "dur" || *n > 0.0),
                    "{field}: {event:?}"
                );
            }
            let name = event.get("name").str().expect("a span name");
            let ids = ["trace_id", "span_id", "parent"].map(|key| {
                let id = event.get("args").get(key).str();
                id.unwrap_or_else(|| panic!("span without {key}: {event:?}"))
                    .to_string()
            });
            assert_eq!(
                ids[2] == "0x0",
                name == "client.commit",
                "only client commits are roots: {event:?}"
            );
            ids
        })
        .collect()
}

/// Whether `line` is a Prometheus text-format sample:
/// `name{labels} value` or `name value`.
fn is_prometheus_sample(line: &str) -> bool {
    let Some((series, value)) = line.split_once(' ') else {
        return false;
    };
    let name = match series.split_once('{') {
        Some((name, labels)) => {
            if !labels.ends_with('}') || labels[..labels.len() - 1].contains('}') {
                return false;
            }
            name
        }
        None => series,
    };
    let name_ok = name.chars().enumerate().all(|(i, c)| {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
    });
    !name.is_empty()
        && name_ok
        && !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_digit() || "-.eE+".contains(c))
        && value.parse::<f64>().is_ok()
}

#[test]
fn exported_traces_and_prometheus_scrape_are_well_formed() {
    // Every commit sampled (see the span-tree test on sharing it).
    std::env::set_var("FIDES_TRACE_SAMPLE", "1");
    let cluster = FidesCluster::start(
        config()
            .batch_size(8)
            .flush_interval(Duration::from_millis(5))
            .persistence(
                PersistenceConfig::memory(MemoryCluster::new()).wal(WalConfig {
                    sync: SyncPolicy::Pipelined,
                    ..WalConfig::default()
                }),
            ),
    );
    let mut clients: Vec<_> = (0..4).map(|c| cluster.client(c)).collect();
    std::thread::scope(|scope| {
        for (c, client) in clients.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..8 {
                    let _ = client.run_rmw_batched(&cross_shard_keys(c * 8 + i), 1);
                }
            });
        }
    });
    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cluster
        .dump_traces()
        .iter()
        .any(|s| s.name == "commit.round")
    {
        assert!(Instant::now() < deadline, "no round span closed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let scrape = cluster.metrics().to_prometheus();
    let mut spans = cluster.dump_traces();
    for client in &clients {
        spans.extend(client.spans());
    }
    cluster.shutdown();

    // Every retained span, as one export.
    chrome_events(&spans);
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for name in REQUIRED_SPANS {
        assert!(names.contains(name), "no {name} span: {names:?}");
    }

    // The slowest commits' trees, as exemplars: every parent resolves
    // within its own trace.
    let trees = assemble(&spans);
    let mut commits: Vec<_> = trees
        .iter()
        .filter(|t| t.span("client.commit").is_some())
        .collect();
    commits.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
    let exemplars: Vec<Span> = commits
        .iter()
        .take(5)
        .flat_map(|t| t.spans.iter().cloned())
        .collect();
    let events = chrome_events(&exemplars);
    let mut ids: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for [trace, span, _] in &events {
        ids.entry(trace).or_default().insert(span);
    }
    for [trace, span, parent] in &events {
        assert!(
            parent == "0x0" || ids[trace.as_str()].contains(parent.as_str()),
            "span {span} of trace {trace} has a dangling parent {parent}"
        );
    }
    let exemplar_names: BTreeSet<&str> = exemplars.iter().map(|s| s.name).collect();
    assert!(
        exemplar_names.contains("commit.round"),
        "no exemplar reached a round: {exemplar_names:?}"
    );

    // The Prometheus scrape parses line by line.
    assert!(!scrape.is_empty(), "empty Prometheus export");
    for line in scrape.lines() {
        assert!(
            line.starts_with("# ") || is_prometheus_sample(line),
            "bad Prometheus line: {line:?}"
        );
    }
    let series: BTreeSet<&str> = scrape
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split(' ').next())
        .collect();
    for name in [
        "commit_rounds",
        "watchdog_stalls",
        "commit_stage_wal_fsync_count",
    ] {
        assert!(
            series.iter().any(|s| s.starts_with(name)),
            "{name} missing from the scrape"
        );
    }
}

#[test]
fn watchdog_declares_stalled_leader_within_two_round_timeouts() {
    let round_timeout = Duration::from_millis(200);
    let cluster = FidesCluster::start(
        config()
            .flush_interval(Duration::from_millis(5))
            .round_timeout(round_timeout)
            .behavior(
                0,
                Behavior {
                    stall_after_votes: true,
                    ..Behavior::default()
                },
            ),
    );
    let mut client = cluster.client(0);
    let keys = cross_shard_keys(0);
    let mut txn = client.begin();
    let values = client.read_all(&mut txn, &keys).expect("reads");
    let writes: Vec<_> = keys
        .iter()
        .zip(values)
        .map(|(k, v)| {
            (
                k.clone(),
                fides_store::Value::from_i64(v.as_i64().unwrap_or(0) + 1),
            )
        })
        .collect();
    client.write_all(&mut txn, &writes).expect("writes");

    // The leader collects every vote for this round, then goes silent;
    // the cohorts are left holding live CoSi witnesses.
    let t0 = Instant::now();
    let _abandoned = client.commit_async(txn);
    let stall = loop {
        let found = (1..N_SERVERS).find_map(|s| cluster.stall_log(s).stalls().into_iter().next());
        if let Some(stall) = found {
            break stall;
        }
        assert!(
            t0.elapsed() <= 2 * round_timeout,
            "no stall declared within 2x the round timeout"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(t0.elapsed() <= 2 * round_timeout, "detection too slow");
    assert_eq!(stall.leader, 0, "the fixed coordinator is the leader");
    assert_eq!(stall.height, 0, "the first round is the stalled one");
    assert!(
        stall.waited_ms >= round_timeout.as_millis() as u64 * 9 / 10,
        "stall declared before the timeout elapsed: {} ms",
        stall.waited_ms
    );

    // The flight-recorder dump names the stalled height and leader and
    // captured the cohort's inflight state.
    let dump = (1..N_SERVERS)
        .flat_map(|s| cluster.stall_log(s).dumps())
        .next()
        .expect("a cohort dumped its flight recorder");
    assert_eq!(dump.stall, stall);
    let rendered = dump.render();
    assert!(
        rendered.contains("stall at height 0 (leader 0"),
        "dump must name the stalled height and leader:\n{rendered}"
    );
    assert!(
        dump.notes.iter().any(|n| n.contains("witness")),
        "dump notes the live CoSi witnesses: {:?}",
        dump.notes
    );

    // The stall is also visible as a metric, for the export plane.
    let stalls: u64 = (0..N_SERVERS)
        .map(|s| cluster.server_metrics(s).counter("watchdog.stalls"))
        .sum();
    assert!(stalls >= 1, "watchdog.stalls counter never moved");
    cluster.shutdown();
}
