//! The traced run: per-layer attribution from outside the program.
//!
//! Untraced and traced rounds alternate for `--seconds`, so the ratio of
//! their headline latencies is the tracing overhead, measured under the
//! same conditions. Span aggregates are read between the blocks of each
//! traced round, so the spans of the update block and of the read block
//! are told apart. Update phases that have no span in the program are
//! timed by replaying each traced round's pairs on a second backend built
//! the same way, right after the round, calling the public functions in
//! the order the engine's guarded transaction calls them. A loopback
//! wire replay of the read block gives the `net.*` spans on every
//! workload, and the durable history gives the `store.*` counters.

use crate::inputs::{Inputs, Workload};
use crate::session::{self, Client, Tally};
use crate::stats::Samples;
use crate::{Extras, Report};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xac_core::{reannotator, requester, Backend, FaultPlan, System};
use xac_net::wire::Frame;
use xac_net::{NetClient, WireTrace};
use xac_serve::{Durability, LoggedOp, Response, Role, ServeEngine};

/// Span aggregates by name: (count, total ns).
type Spans = BTreeMap<&'static str, (u64, u64)>;

fn spans_now() -> Spans {
    xac_obs::span_stats()
        .into_iter()
        .map(|s| (s.name, (s.count, s.total_ns)))
        .collect()
}

/// `acc += after - before`, per span name.
fn add_delta(acc: &mut Spans, before: &Spans, after: &Spans) {
    for (name, &(count, ns)) in after {
        let (c0, n0) = before.get(name).copied().unwrap_or((0, 0));
        let e = acc.entry(name).or_insert((0, 0));
        e.0 += count - c0;
        e.1 += ns - n0;
    }
}

fn total_ns(spans: &Spans, name: &str) -> f64 {
    spans.get(name).map_or(0.0, |&(_, ns)| ns as f64)
}

fn count(spans: &Spans, name: &str) -> u64 {
    spans.get(name).map_or(0, |&(c, _)| c)
}

/// Mean span duration in ns (0 when the span never ran).
fn mean_ns(spans: &Spans, name: &str) -> f64 {
    match count(spans, name) {
        0 => 0.0,
        c => total_ns(spans, name) / c as f64,
    }
}

fn elapsed_ms<R>(samples: &mut Samples, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64() * 1e3);
    out
}

pub struct Traced {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: bool,
}

/// The headline latency, as the untraced run reports it: update p50.
fn headline(t: &Tally) -> f64 {
    t.round_update_p50.iqm()
}

/// Per-phase timings of the guarded transaction, replayed.
#[derive(Default)]
struct Phases {
    guard_ms: Samples,
    plan_ms: Samples,
    struct_ms: Samples,
    reannotate_ms: Samples,
    checkpoint_ms: Samples,
    sign_state_ms: Samples,
    log_txn_ms: Samples,
    snapshot_ms: Samples,
    load_ms: Samples,
    annotate_ms: Samples,
    full_ms: Samples,
}

/// Builds of the replay backend; `core.load_ms` and `core.annotate_ms`
/// are their medians.
const REPLAY_BUILDS: usize = 3;
/// Updates replayed with the staging the engine does not use.
const OFF_PATH_UPDATES: usize = 32;
/// Full re-annotations timed on the replay backend.
const FULL_REANNOTATIONS: usize = 3;
/// Reads replayed over the wire, at least.
const WIRE_READS: usize = 2000;
/// Repetitions of the in-memory codec loop over the read block.
const CODEC_READS: usize = 20_000;

type ReplayOp = (LoggedOp, xac_xpath::Path, xac_xpath::Path);

/// A second backend built the same way as the engine's, on which each
/// traced round's pairs are replayed right after the round, so the
/// replayed phases and the served updates meet the same machine.
struct Replay {
    backend: Box<dyn Backend + Send>,
    dur: Durability,
    /// The ops of one round's pairs.
    ops: Vec<ReplayOp>,
    ph: Phases,
}

impl Replay {
    fn new(w: &Workload, inputs: &Inputs, system: &System, dir: &Path) -> Replay {
        let mut ph = Phases::default();
        let mode = system.annotate_mode();
        let mut built = None;
        for _ in 0..REPLAY_BUILDS {
            let mut b = w.backend.make(mode);
            elapsed_ms(&mut ph.load_ms, || system.load(b.as_mut())).expect("replay load");
            elapsed_ms(&mut ph.annotate_ms, || system.annotate(b.as_mut()))
                .expect("replay annotate");
            built = Some(b);
        }
        let mut backend = built.expect("at least one replay build");
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("replay data dir");
        let signs = backend.sign_state().expect("sign state");
        let dur = Durability::fresh(
            &session::durability(dir),
            FaultPlan::new(),
            backend.name(),
            mode.name(),
            &signs,
            backend.epoch(),
        )
        .expect("replay log");
        let ops = inputs
            .pairs
            .iter()
            .cycle()
            .take(w.pairs_per_round)
            .flat_map(|p| {
                let parent = xac_xpath::parse(&p.parent).expect("parent parses");
                let insert_target = parent.clone().then(xac_xpath::Step::child("incategory"));
                let delete = xac_xpath::parse(&p.delete_path).expect("delete parses");
                [
                    (
                        LoggedOp::Insert {
                            parent: p.parent.clone(),
                            name: "incategory".into(),
                            text: Some(p.text.clone()),
                        },
                        parent,
                        insert_target,
                    ),
                    (
                        LoggedOp::Delete {
                            path: p.delete_path.clone(),
                        },
                        delete.clone(),
                        delete,
                    ),
                ]
            })
            .collect();
        Replay {
            backend,
            dur,
            ops,
            ph,
        }
    }

    /// One round's ops in the order of the engine's guarded transaction:
    /// guard, plan, structural op, partial re-annotation, then staging
    /// (`sign_state` + `log_txn` when `durable`, a clone checkpoint
    /// otherwise) and the snapshot. Staged values stay alive until the
    /// next op replaces them, as the published ones do in the engine.
    fn pass(&mut self, system: &System, durable: bool) {
        let (b, ph) = (self.backend.as_mut(), &mut self.ph);
        let mut published = None;
        for (op, guard, target) in &self.ops {
            let decision =
                elapsed_ms(&mut ph.guard_ms, || requester::request(b, guard)).expect("guard");
            assert!(decision.granted(), "replayed guard refused {op:?}");
            let plan = elapsed_ms(&mut ph.plan_ms, || system.plan_update(target));
            let changed = elapsed_ms(&mut ph.struct_ms, || match op {
                LoggedOp::Insert { name, text, .. } => b.insert(guard, name, text.as_deref()),
                LoggedOp::Delete { .. } => b.delete(guard),
            })
            .expect("structural op");
            assert_eq!(changed, 1, "replayed {op:?} changed {changed} elements");
            elapsed_ms(&mut ph.reannotate_ms, || reannotator::apply(b, &plan)).expect("reannotate");
            let checkpoint = if durable {
                let signs =
                    elapsed_ms(&mut ph.sign_state_ms, || b.sign_state()).expect("sign state");
                let epoch = b.epoch();
                elapsed_ms(&mut ph.log_txn_ms, || self.dur.log_txn(op, &signs, epoch))
                    .expect("log txn");
                None
            } else {
                Some(elapsed_ms(&mut ph.checkpoint_ms, || b.checkpoint()).expect("checkpoint"))
            };
            let snapshot = elapsed_ms(&mut ph.snapshot_ms, || b.snapshot()).expect("snapshot");
            published = Some((checkpoint, snapshot));
        }
        drop(published);
    }

    /// Time the staging the engine does not use (so both are known on
    /// every workload) and full re-annotation on the same state.
    fn finish(mut self, system: &System, durable: bool, dir: &Path) -> Phases {
        let served = std::mem::take(&mut self.ph);
        while self.ph.snapshot_ms.len() < OFF_PATH_UPDATES {
            self.pass(system, !durable);
        }
        let mut ph = served;
        if durable {
            ph.checkpoint_ms = std::mem::take(&mut self.ph.checkpoint_ms);
        } else {
            ph.sign_state_ms = std::mem::take(&mut self.ph.sign_state_ms);
            ph.log_txn_ms = std::mem::take(&mut self.ph.log_txn_ms);
        }
        for _ in 0..FULL_REANNOTATIONS {
            elapsed_ms(&mut ph.full_ms, || {
                system.full_reannotate(self.backend.as_mut())
            })
            .expect("full reannotate");
        }
        drop(self.dur);
        let _ = std::fs::remove_dir_all(dir);
        ph
    }
}

/// The read block over a loopback reader session, traced: client-side
/// round trips and the span aggregates they produced.
fn wire_replay(engine: &Arc<ServeEngine>, inputs: &Inputs, tally: &mut Tally) -> (Samples, Spans) {
    let server = session::loopback_server(engine);
    let mut client = Client::Wire(
        NetClient::connect(server.local_addr(), Role::Reader).expect("loopback connect"),
    );
    // One untraced pass warms the session.
    let mut warm = Tally::default();
    warm.read_block(&mut client, inputs);
    let mut spans = Spans::new();
    let mut rt = Tally::default();
    xac_obs::trace::set_enabled(true);
    while rt.reads.len() < WIRE_READS {
        let before = spans_now();
        rt.read_block(&mut client, inputs);
        add_delta(&mut spans, &before, &spans_now());
    }
    xac_obs::trace::set_enabled(false);
    client.close();
    server.shutdown();
    tally.attempted += warm.attempted + rt.attempted;
    tally.failed += warm.failed + rt.failed;
    tally.wrong |= warm.wrong || rt.wrong;
    (rt.reads, spans)
}

/// In-memory encode + decode of one request frame and one response
/// frame per read, ns per read.
fn codec_ns(inputs: &Inputs) -> f64 {
    let frames: Vec<(Frame, Frame)> = inputs
        .reads
        .iter()
        .map(|r| {
            let trace = WireTrace::from_context(xac_obs::TraceContext::mint());
            let resp = Response::Decision {
                granted: r.expect.granted,
                nodes: r.expect.nodes,
                epoch: 7,
            };
            (
                Frame::Request(r.request.clone(), Some(trace)),
                Frame::Response(resp),
            )
        })
        .collect();
    let roundtrip = |f: &Frame| {
        let bytes = f.to_bytes();
        let back = Frame::decode(bytes[4], &bytes[5..]).expect("frame decodes");
        std::hint::black_box(back);
    };
    let mut n = 0;
    let start = Instant::now();
    while n < CODEC_READS {
        for (req, resp) in &frames {
            roundtrip(req);
            roundtrip(resp);
        }
        n += frames.len();
    }
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// `xac_xpath::parse` over every request text of a round, ns per parse.
fn parse_ns(inputs: &Inputs) -> f64 {
    let mut texts: Vec<&str> = inputs.reads.iter().map(|r| r.text.as_str()).collect();
    for p in &inputs.pairs {
        texts.extend([p.parent.as_str(), p.delete_path.as_str()]);
    }
    let mut n = 0;
    let start = Instant::now();
    while n < CODEC_READS {
        for t in &texts {
            std::hint::black_box(xac_xpath::parse(t).expect("request parses"));
        }
        n += texts.len();
    }
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

pub fn run(
    client: &mut Client,
    engine: &Arc<ServeEngine>,
    system: &Arc<System>,
    seconds: f64,
    x: &mut Extras,
) -> Traced {
    let (w, inputs, root) = (x.w, x.inputs, x.root);
    let tail = &mut *x.tail;
    let replay_dir = root.join("replay");
    let mut replay = Replay::new(w, inputs, system, &replay_dir);

    // Untraced and traced rounds alternate, so both see the same machine
    // and the same mix of published epochs; each traced round's pairs
    // are replayed right after it, traced as well.
    xac_obs::trace::reset();
    let cache0 = xac_vmc::cache_stats();
    let compiled = xac_obs::counter("xac_vm_programs_compiled_total");
    let compiles0 = compiled.get();
    let (mut pair_spans, mut read_spans, mut replay_spans) =
        (Spans::new(), Spans::new(), Spans::new());
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let start = Instant::now();
    for round in 0.. {
        if round % 2 == 0 {
            plain.round(w, client, engine, inputs);
        } else {
            xac_obs::trace::set_enabled(true);
            let s0 = spans_now();
            traced.pairs(w, client, engine, inputs);
            let s1 = spans_now();
            traced.read_block(client, inputs);
            let s2 = spans_now();
            replay.pass(system, w.durable);
            let s3 = spans_now();
            xac_obs::trace::set_enabled(false);
            add_delta(&mut pair_spans, &s0, &s1);
            add_delta(&mut read_spans, &s1, &s2);
            add_delta(&mut replay_spans, &s2, &s3);
            traced.check_full(engine, inputs);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let floors = crate::floors_met(&plain) && crate::floors_met(&traced);
        if (elapsed >= seconds && floors) || elapsed >= crate::HARD_STOP_S {
            break;
        }
    }
    let cache1 = xac_vmc::cache_stats();
    let compiles = compiled.get() - compiles0;
    let overhead = headline(&traced) / headline(&plain);
    // Traced too: on in-memory workloads the off-path pass makes the only
    // log commits, and with them the `wal.commit` spans.
    xac_obs::trace::set_enabled(true);
    let before = spans_now();
    let ph = replay.finish(system, w.durable, &replay_dir);
    add_delta(&mut replay_spans, &before, &spans_now());
    xac_obs::trace::set_enabled(false);
    let (wire_rt, wire_spans) = wire_replay(engine, inputs, &mut traced);

    let mut recover_ms = Samples::default();
    for _ in 0..crate::MIN_REOPENS {
        tail.reopen();
        let mut b = w.backend.make(system.annotate_mode());
        elapsed_ms(&mut recover_ms, || {
            Durability::recover(tail.config(), FaultPlan::new(), system, b.as_mut())
        })
        .expect("recover");
    }

    let mut r = Report::default();
    let reads = count(&read_spans, "serve.read").max(1) as f64;
    let updates = traced.updates.len().max(1) as f64;
    let hits = cache1.hits - cache0.hits;
    let lookups = hits + cache1.misses - cache0.misses;
    r.put("xpath.parse_ns", parse_ns(inputs), "ns");
    r.put(
        "vm.execute_ns",
        total_ns(&read_spans, "vm.execute") / reads,
        "ns",
    );
    r.put(
        "vm.cache_hit_ratio",
        if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    r.put("vm.compiles", compiles as f64, "count");
    r.put(
        "vm.index_ms",
        total_ns(&pair_spans, "vm.index") / updates / 1e6,
        "ms",
    );
    let read_self = total_ns(&read_spans, "serve.read")
        - total_ns(&read_spans, "vm.execute")
        - total_ns(&read_spans, "vm.index");
    r.put("serve.read_self_us", read_self / reads / 1e3, "us");
    r.put("core.load_ms", ph.load_ms.median(), "ms");
    r.put("core.annotate_ms", ph.annotate_ms.median(), "ms");
    let mut phase = |name: &'static str, s: &Samples, scale: f64, unit: &'static str| {
        let mean = s.mean();
        r.put(name, mean * scale, unit);
        mean
    };
    let guard = phase("core.guard_us", &ph.guard_ms, 1e3, "us");
    let plan = phase("core.plan_us", &ph.plan_ms, 1e3, "us");
    let struct_op = phase("core.struct_op_ms", &ph.struct_ms, 1.0, "ms");
    let reannotate = phase("core.reannotate_ms", &ph.reannotate_ms, 1.0, "ms");
    let checkpoint = phase("core.checkpoint_ms", &ph.checkpoint_ms, 1.0, "ms");
    let snapshot = phase("core.snapshot_ms", &ph.snapshot_ms, 1.0, "ms");
    let sign_state = phase("core.sign_state_ms", &ph.sign_state_ms, 1.0, "ms");
    let log_txn = phase("serve.log_txn_ms", &ph.log_txn_ms, 1.0, "ms");
    r.put(
        "core.sign_writes",
        traced.sign_writes as f64 / updates,
        "count",
    );
    let full = ph.full_ms.median();
    r.put("core.full_reannotate_ms", full, "ms");
    r.put("core.full_over_reannotate", full / reannotate, "ratio");
    let write_signs = total_ns(&pair_spans, "backend.write_signs") / updates / 1e6;
    r.put("backend.write_signs_ms", write_signs, "ms");
    r.put(
        "backend.query_ms",
        total_ns(&pair_spans, "reannotate.apply") / updates / 1e6 - write_signs,
        "ms",
    );
    let serve_update = mean_ns(&pair_spans, "serve.update") / 1e6;
    let publish = mean_ns(&pair_spans, "serve.publish") / 1e6;
    r.put("serve.update_ms", serve_update, "ms");
    r.put("serve.full_over_update", full / serve_update, "ratio");
    r.put("serve.publish_us", publish * 1e3, "us");
    // The engine stages a clone checkpoint in memory, or a sign-state
    // diff committed to the WAL when durable.
    let staging = if w.durable {
        sign_state + log_txn
    } else {
        checkpoint
    };
    let attributed = guard + plan + struct_op + reannotate + staging + snapshot + publish;
    r.put("serve.unattributed_ms", serve_update - attributed, "ms");
    r.put("serve.recover_ms", recover_ms.median(), "ms");
    let commits = tail.wal.commits.max(1) as f64;
    r.put(
        "store.wal_commit_us",
        mean_ns(&replay_spans, "wal.commit") / 1e3,
        "us",
    );
    r.put(
        "store.wal_bytes_per_update",
        tail.wal.bytes_appended as f64 / commits,
        "bytes",
    );
    r.put(
        "store.wal_records_per_update",
        tail.wal.records_appended as f64 / commits,
        "count",
    );
    r.put(
        "store.page_flushes_per_update",
        tail.pager.pages_flushed as f64 / commits,
        "count",
    );
    r.put(
        "store.fsyncs_per_update",
        (tail.wal.fsyncs + tail.pager.fsyncs) as f64 / commits,
        "count",
    );
    r.put("store.pager_hit_ratio", tail.pager.hit_rate(), "ratio");
    r.put("store.ops_replayed", tail.ops_replayed as f64, "count");
    let wire_reads = count(&wire_spans, "serve.read").max(1) as f64;
    let per_read_us = |name: &str| total_ns(&wire_spans, name) / wire_reads / 1e3;
    let send = per_read_us("net.client_send");
    let decode = per_read_us("net.server_decode");
    let queue = per_read_us("net.queue_wait");
    let served = per_read_us("serve.read");
    let round_trip = wire_rt.mean();
    r.put("net.client_send_us", send, "us");
    r.put("net.server_decode_us", decode, "us");
    r.put("net.queue_wait_us", queue, "us");
    r.put("net.codec_ns", codec_ns(inputs), "ns");
    r.put("net.round_trip_us", round_trip, "us");
    r.put(
        "net.residual_us",
        round_trip - send - decode - queue - served,
        "us",
    );
    r.put("obs.trace_overhead", overhead, "ratio");

    println!(
        "serve.update {serve_update:.3} ms = guard {guard:.3} + plan {plan:.3} + struct op {struct_op:.3} + reannotate \
         {reannotate:.3} + {} {staging:.3} + snapshot {snapshot:.3} + publish {publish:.3} + unattributed {:.3}",
        if w.durable { "sign state + log txn" } else { "checkpoint" },
        serve_update - attributed
    );
    println!(
        "wire round trip {round_trip:.2} us (p50 {:.2}) = client send {send:.2} + server decode {decode:.2} + \
         queue wait {queue:.2} + serve.read {served:.2} + residual {:.2}",
        wire_rt.median(),
        round_trip - send - decode - queue - served
    );
    println!("tracing overhead: headline latency traced / untraced = {overhead:.4}");

    Traced {
        report: r,
        attempted: plain.attempted + traced.attempted + tail.tally.attempted,
        failed: plain.failed + traced.failed + tail.tally.failed,
        wrong: plain.wrong || traced.wrong || tail.tally.wrong,
    }
}
