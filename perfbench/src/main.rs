//! Serving benchmark over the xmlac access-control engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload update_mix --seed 1 --seconds 45 --trace 0
//! ```
//!
//! A run generates its inputs from the seed, writes a fixed durable
//! history, sets the engine up three times, runs one untimed warm-up
//! round, then repeats whole rounds of the same checked operations until
//! `--seconds` have passed and every reported percentile has at least ten
//! samples beyond it, with one more set-up and one reopen of the durable
//! history every `seconds / 8`. `--trace 1` instead runs the per-layer
//! attribution (see `traced.rs`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads, the metrics and the known faults.

mod inputs;
mod session;
mod stats;
mod traced;

use inputs::{workload, Inputs, Workload};
use session::{Client, Tail, Tally};
use stats::{tail_supported, Samples};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xac_serve::ServeEngine;

/// Set-ups before the warm-up round; the last one serves the run.
const FIRST_SETUPS: usize = 3;
/// One extra set-up and one reopen run every `seconds / SPREAD`, so
/// their samples span the whole run rather than one moment of it.
const SPREAD: f64 = 8.0;
/// Reopens per run, at least.
const MIN_REOPENS: usize = 5;
/// Sample floors: a p99 window of reads, p90 of updates, p50 of fresh
/// reads.
const MIN_READS: usize = session::TAIL_WINDOW;
const MIN_UPDATES: usize = 100;
const MIN_FRESH: usize = 20;
/// A run stops adding rounds past this many seconds even if a floor is
/// unmet, so it always ends well within the 180-second limit.
const HARD_STOP_S: f64 = 100.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Small document (f=0.02) for the smoke test.
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        inputs::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut w, mut seed, mut seconds, mut trace, mut smoke) = (None, 1u64, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                w = Some(
                    workload(&name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = w.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out + "}}"
    }
}

/// Set-up samples and durable reopens spread over the timed rounds.
pub struct Extras<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    root: &'a Path,
    setup_s: Samples,
    tail: &'a mut Tail,
}

impl Extras<'_> {
    /// One set-up into a fresh data dir, timed and kept when `keep`.
    fn set_up(&mut self, keep: bool) -> Option<Arc<ServeEngine>> {
        let dir = self.root.join(format!("setup-{}", self.setup_s.len()));
        let (engine, secs) = session::set_up(self.w, self.inputs, &dir);
        self.setup_s.push(secs);
        if keep {
            return Some(engine);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        None
    }
}

/// Whether the tally holds enough samples for every reported percentile.
fn floors_met(t: &Tally) -> bool {
    t.reads.len() >= MIN_READS && t.updates.len() >= MIN_UPDATES && t.fresh.len() >= MIN_FRESH
}

/// Repeat whole rounds until `seconds` passed and the floors are met,
/// interleaving the extras.
fn timed_rounds(
    w: &Workload,
    client: &mut Client,
    engine: &ServeEngine,
    inputs: &Inputs,
    seconds: f64,
    extras: &mut Extras,
) -> (Tally, usize) {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut next_extra = seconds / SPREAD;
    let mut rounds = 0;
    loop {
        tally.round(w, client, engine, inputs);
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= next_extra {
            extras.set_up(false);
            extras.tail.reopen();
            next_extra += seconds / SPREAD;
        }
        if (elapsed >= seconds && floors_met(&tally)) || elapsed >= HARD_STOP_S {
            break;
        }
    }
    (tally, rounds)
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let factor = if args.smoke { 0.02 } else { w.factor };
    let inputs = inputs::generate(factor, args.seed);
    let root = session::data_root();
    let _ = std::fs::remove_dir_all(&root);
    let system = session::build_system(&inputs);
    let mut tail = Tail::prepare(&w, &inputs, &system, &root.join("tail"));
    let mut extras = Extras {
        w: &w,
        inputs: &inputs,
        root: &root,
        setup_s: Samples::default(),
        tail: &mut tail,
    };
    for _ in 1..FIRST_SETUPS {
        extras.set_up(false);
    }
    let engine = extras.set_up(true).expect("kept set-up");
    let mut client = Client::InProc(Arc::clone(&engine));
    let mut warm = Tally::default();
    warm.round(&w, &mut client, &engine, &inputs);

    let mut report = Report::default();
    let (mut attempted, mut failed, mut wrong) = (warm.attempted, warm.failed, warm.wrong);
    if args.trace {
        let t = traced::run(&mut client, &engine, &system, args.seconds, &mut extras);
        attempted += t.attempted;
        failed += t.failed;
        wrong |= t.wrong;
        report = t.report;
    } else {
        let (tally, rounds) =
            timed_rounds(&w, &mut client, &engine, &inputs, args.seconds, &mut extras);
        while extras.tail.reopen_ms.len() < MIN_REOPENS {
            extras.tail.reopen();
        }
        let setup_s = extras.setup_s;
        let tail = extras.tail;
        attempted += tally.attempted + tail.tally.attempted;
        failed += tally.failed + tail.tally.failed;
        wrong |= tally.wrong || tail.tally.wrong;
        report.put("setup_s", setup_s.median(), "s");
        // A p99 from the pooled reads only when no window filled.
        let read_p99 = match tally.window_read_p99.len() {
            0 => tally.reads.percentile(0.99),
            _ => tally.window_read_p99.iqm(),
        };
        report.put("read_p50_us", tally.round_read_p50.iqm(), "us");
        report.put("read_p99_us", read_p99, "us");
        report.put("reads_per_s", tally.read_rates.iqm(), "1/s");
        report.put("update_p50_ms", tally.round_update_p50.iqm(), "ms");
        report.put("update_p90_ms", tally.updates.percentile(0.9), "ms");
        report.put("updates_per_s", tally.update_rates.iqm(), "1/s");
        report.put("fresh_read_p50_us", tally.round_fresh_p50.iqm(), "us");
        report.put("reopen_ms", tail.reopen_ms.iqm(), "ms");
        report.put("disk_bytes", tail.disk_bytes as f64, "bytes");
        report.put("peak_rss_mb", peak_rss_mb(), "MB");
        println!(
            "samples: {rounds} rounds, {} reads (p99 {}), {} updates (p90 {}), {} fresh reads, {} setups, {} reopens",
            tally.reads.len(),
            if tail_supported(tally.reads.len(), 0.99) { "supported" } else { "UNSUPPORTED" },
            tally.updates.len(),
            if tail_supported(tally.updates.len(), 0.9) { "supported" } else { "UNSUPPORTED" },
            tally.fresh.len(),
            setup_s.len(),
            tail.reopen_ms.len(),
        );
    }

    drop(client);
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {:<28} {value:>14.4} {unit}", name);
    }
    println!(
        "workload {} seed {} factor {factor} backend {} lookups {:.0}%: attempted {attempted} failed {failed}",
        w.name,
        args.seed,
        w.backend.cli_name(),
        inputs.lookup_share * 100.0
    );
    println!("{}", report.json(!wrong, attempted, failed));
    if wrong {
        std::process::exit(1);
    }
}
