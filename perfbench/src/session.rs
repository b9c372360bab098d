//! Serving sessions: engine set-up, the closed-loop client, one round
//! of checked operations, and the durable reopen history.
//!
//! One thread drives every operation. In the traced run's wire replay
//! the only other busy thread is the server's session thread, which runs
//! in ping-pong with the client.

use crate::inputs::{Expect, Inputs, Pair, Workload};
use crate::stats::{percentile, Samples};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xac_core::{AnnotateMode, System};
use xac_net::{NetClient, NetServer, ServerConfig};
use xac_serve::{BackendKind, DurabilityConfig, Request, Response, ServeEngine};
use xac_store::{PagerStats, WalStats};
use xac_xml::NodeId;
use xac_xmlgen::xmark_schema;

/// Build the program's `System` from the run's inputs.
pub fn build_system(inputs: &Inputs) -> Arc<System> {
    assemble(inputs.policy.clone(), inputs.doc.clone())
}

fn assemble(policy: xac_policy::Policy, doc: xac_xml::Document) -> Arc<System> {
    Arc::new(
        System::builder(xmark_schema(), policy, doc)
            .annotate_mode(AnnotateMode::Compiled)
            .build()
            .expect("generated inputs assemble"),
    )
}

/// The WAL policy of every durable engine here: nosync, default pool.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        data_dir: dir.to_path_buf(),
        sync: false,
        pool_pages: 64,
    }
}

/// Bytes in a data dir (WAL plus page file).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One set-up: inputs assembled → first snapshot published. `data_dir`
/// must be empty for durable workloads. Returns the engine and the
/// elapsed seconds.
pub fn set_up(w: &Workload, inputs: &Inputs, data_dir: &Path) -> (Arc<ServeEngine>, f64) {
    let (policy, doc) = (inputs.policy.clone(), inputs.doc.clone());
    let start = Instant::now();
    let system = assemble(policy, doc);
    let engine = if w.durable {
        ServeEngine::durable(system, w.backend, &durability(data_dir))
    } else {
        ServeEngine::for_kind(system, w.backend)
    }
    .expect("engine comes up");
    let secs = start.elapsed().as_secs_f64();
    (Arc::new(engine), secs)
}

/// A server on a free loopback port. Its read timeout outlasts the
/// untimed checks between a session's requests.
pub fn loopback_server(engine: &Arc<ServeEngine>) -> NetServer {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    NetServer::start(Arc::clone(engine), config).expect("loopback server starts")
}

/// The closed-loop client: in process, or over one loopback session in
/// the traced run's wire replay.
pub enum Client {
    InProc(Arc<ServeEngine>),
    Wire(NetClient),
}

impl Client {
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        match self {
            Client::InProc(engine) => Ok(engine.serve(req)),
            Client::Wire(client) => client.request(req).map_err(|e| format!("wire: {e}")),
        }
    }

    pub fn close(self) {
        if let Client::Wire(client) = self {
            client.close();
        }
    }
}

/// Reads per window of `read_p99_us`: ten lie beyond each window's p99.
pub const TAIL_WINDOW: usize = 1000;

/// Latencies and counts gathered over the timed rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Read latency, µs (reads of the read block).
    pub reads: Samples,
    /// Latency of the first read from each newly published epoch, µs.
    pub fresh: Samples,
    /// Guarded update latency, ms.
    pub updates: Samples,
    /// Per-round figures, one value per round: the median read, fresh
    /// read and update latency, the read block's reads per second, and
    /// updates per second of time spent in update calls. The reported
    /// metrics are their interquartile means.
    pub round_read_p50: Samples,
    pub round_fresh_p50: Samples,
    pub round_update_p50: Samples,
    pub read_rates: Samples,
    pub update_rates: Samples,
    /// p99 read latency of each window of whole rounds holding at least
    /// [`TAIL_WINDOW`] reads.
    pub window_read_p99: Samples,
    window_start: usize,
    pub attempted: u64,
    pub failed: u64,
    /// A check disagreed with the oracle (not merely an error reply).
    pub wrong: bool,
    /// Sign writes reported by applied updates.
    pub sign_writes: u64,
}

impl Tally {
    fn fail(&mut self, what: &str, detail: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: {what}: {detail}");
        }
    }

    fn mismatch(&mut self, what: &str, detail: String) {
        self.wrong = true;
        self.fail(what, detail);
    }

    /// Record one timed call and check its decision.
    pub fn read(&mut self, client: &mut Client, req: &Request, want: Expect, fresh: bool) {
        self.attempted += 1;
        let start = Instant::now();
        let resp = client.call(req);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if fresh {
            &mut self.fresh
        } else {
            &mut self.reads
        }
        .push(us);
        match resp {
            Ok(Response::Decision { granted, nodes, .. })
                if granted == want.granted && nodes == want.nodes => {}
            Ok(Response::Decision { granted, nodes, .. }) => self.mismatch(
                "read answer differs from the oracle",
                format!("{req:?}: got granted={granted} nodes={nodes}, want {want:?}"),
            ),
            other => self.fail("read failed", format!("{req:?}: {other:?}")),
        }
    }

    fn update(&mut self, client: &mut Client, req: &Request, inserted: u64, removed: u64) {
        self.attempted += 1;
        let start = Instant::now();
        let resp = client.call(req);
        self.updates.push(start.elapsed().as_secs_f64() * 1e3);
        match resp {
            Ok(Response::Update {
                applied: true,
                inserted: i,
                removed: r,
                sign_writes,
                ..
            }) if i == inserted && r == removed => {
                self.sign_writes += sign_writes;
            }
            Ok(Response::Update { .. }) => self.mismatch(
                "update outcome differs from the oracle",
                format!("{req:?}: {resp:?}"),
            ),
            other => self.fail("update failed", format!("{req:?}: {other:?}")),
        }
    }

    /// Untimed state check against the oracle's counts (and, for the
    /// unchanged document, the exact accessible set).
    fn check_state(
        &mut self,
        engine: &ServeEngine,
        elements: usize,
        accessible: usize,
        exact: Option<&Inputs>,
    ) {
        let snap = engine.snapshot();
        let same_set = exact.is_none_or(|inputs| *snap.accessible() == inputs.accessible);
        if snap.element_count() != elements || snap.accessible_count() != accessible || !same_set {
            self.mismatch(
                "engine state differs from the oracle",
                format!(
                    "elements {} (want {elements}), accessible {} (want {accessible}), same set {same_set}",
                    snap.element_count(),
                    snap.accessible_count()
                ),
            );
        }
    }

    /// One insert/delete pair with a fresh read after each publish.
    pub fn pair(&mut self, client: &mut Client, engine: &ServeEngine, inputs: &Inputs, p: &Pair) {
        self.update(client, &p.insert, 1, 0);
        self.read(client, &p.fresh, p.fresh_after_insert, true);
        self.check_state(engine, inputs.elements + 1, p.accessible_after_insert, None);
        self.update(client, &p.delete, 0, 1);
        self.read(client, &p.fresh, p.fresh_after_delete, true);
        self.check_state(
            engine,
            inputs.elements,
            inputs.accessible.len(),
            Some(inputs),
        );
    }

    /// The workload's pairs of one round.
    pub fn pairs(
        &mut self,
        w: &Workload,
        client: &mut Client,
        engine: &ServeEngine,
        inputs: &Inputs,
    ) {
        let (n0, fresh0, ms0) = (self.updates.len(), self.fresh.len(), self.updates.sum());
        for i in 0..w.pairs_per_round {
            self.pair(
                client,
                engine,
                inputs,
                &inputs.pairs[i % inputs.pairs.len()],
            );
        }
        let ms = self.updates.sum() - ms0;
        self.update_rates
            .push((self.updates.len() - n0) as f64 / (ms / 1e3));
        self.round_update_p50
            .push(percentile(self.updates.since(n0), 0.5));
        self.round_fresh_p50
            .push(percentile(self.fresh.since(fresh0), 0.5));
    }

    /// The read block of one round.
    pub fn read_block(&mut self, client: &mut Client, inputs: &Inputs) {
        let n0 = self.reads.len();
        let start = Instant::now();
        for r in &inputs.reads {
            self.read(client, &r.request, r.expect, false);
        }
        self.read_rates
            .push(inputs.reads.len() as f64 / start.elapsed().as_secs_f64());
        self.round_read_p50
            .push(percentile(self.reads.since(n0), 0.5));
        if self.reads.len() - self.window_start >= TAIL_WINDOW {
            self.window_read_p99
                .push(percentile(self.reads.since(self.window_start), 0.99));
            self.window_start = self.reads.len();
        }
    }

    /// The engine's accessible set must equal the definitional semantics
    /// on its own current document: partial re-annotation reached the
    /// state full annotation would.
    pub fn check_full(&mut self, engine: &ServeEngine, inputs: &Inputs) {
        let snap = engine.snapshot();
        let oracle = xac_policy::semantics::accessible_nodes(snap.store().doc(), &inputs.policy);
        if oracle != *snap.accessible() {
            self.mismatch(
                "served accessible set differs from full semantics",
                format!(
                    "{} served vs {} by the oracle",
                    snap.accessible_count(),
                    oracle.len()
                ),
            );
        }
    }

    /// One round: pairs, read block, full-state check.
    pub fn round(
        &mut self,
        w: &Workload,
        client: &mut Client,
        engine: &ServeEngine,
        inputs: &Inputs,
    ) {
        self.pairs(w, client, engine, inputs);
        self.read_block(client, inputs);
        self.check_full(engine, inputs);
    }
}

/// The durable reopen history: a fresh nosync engine on the workload's
/// backend runs a fixed sequence of pairs and is shut down; the data dir
/// it leaves is then reopened again and again, spread over the run.
pub struct Tail {
    system: Arc<System>,
    backend: BackendKind,
    config: DurabilityConfig,
    /// Accessible set served before shutdown.
    before: BTreeSet<NodeId>,
    /// Updates applied before shutdown.
    pub updates: u64,
    pub disk_bytes: u64,
    /// WAL and pager counters accrued by the pairs (boot excluded).
    pub wal: WalStats,
    pub pager: PagerStats,
    pub reopen_ms: Samples,
    pub ops_replayed: usize,
    pub tally: Tally,
}

pub const TAIL_PAIRS: usize = 16;

impl Tail {
    pub fn prepare(w: &Workload, inputs: &Inputs, system: &Arc<System>, dir: &Path) -> Tail {
        let _ = std::fs::remove_dir_all(dir);
        let config = durability(dir);
        let engine = Arc::new(
            ServeEngine::durable(Arc::clone(system), w.backend, &config).expect("durable engine"),
        );
        let mut tally = Tally::default();
        let mut client = Client::InProc(Arc::clone(&engine));
        let (wal0, pager0) = engine.storage_stats().expect("durable engine has storage");
        for i in 0..TAIL_PAIRS {
            tally.pair(
                &mut client,
                &engine,
                inputs,
                &inputs.pairs[i % inputs.pairs.len()],
            );
        }
        let before = engine.snapshot().accessible().clone();
        let updates = engine.metrics().updates_applied;
        let (wal1, pager1) = engine.storage_stats().expect("durable engine has storage");
        drop(client);
        drop(engine);
        Tail {
            system: Arc::clone(system),
            backend: w.backend,
            disk_bytes: dir_bytes(dir),
            config,
            before,
            updates,
            wal: WalStats {
                records_appended: wal1.records_appended - wal0.records_appended,
                bytes_appended: wal1.bytes_appended - wal0.bytes_appended,
                fsyncs: wal1.fsyncs - wal0.fsyncs,
                commits: wal1.commits - wal0.commits,
                ..WalStats::default()
            },
            pager: PagerStats {
                hits: pager1.hits - pager0.hits,
                misses: pager1.misses - pager0.misses,
                evictions: pager1.evictions - pager0.evictions,
                pages_flushed: pager1.pages_flushed - pager0.pages_flushed,
                fsyncs: pager1.fsyncs - pager0.fsyncs,
            },
            reopen_ms: Samples::default(),
            ops_replayed: 0,
            tally,
        }
    }

    /// One timed reopen: the engine must come up serving the accessible
    /// set it served before shutdown, having replayed every update.
    pub fn reopen(&mut self) {
        self.tally.attempted += 1;
        let start = Instant::now();
        let reopened = ServeEngine::durable(Arc::clone(&self.system), self.backend, &self.config);
        self.reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match reopened {
            Ok(e) => {
                self.ops_replayed = e.recovery().map_or(0, |r| r.ops_replayed);
                if self.ops_replayed as u64 != self.updates
                    || *e.snapshot().accessible() != self.before
                {
                    self.tally.mismatch(
                        "reopen differs from the state before shutdown",
                        format!("replayed {} ops (want {})", self.ops_replayed, self.updates),
                    );
                }
            }
            Err(e) => self.tally.fail("reopen failed", e.to_string()),
        }
    }

    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }
}

/// A scratch data dir inside the checkout, unique to this process.
pub fn data_root() -> PathBuf {
    PathBuf::from(".perfbench_data").join(format!("run-{}", std::process::id()))
}
