//! `perfbench` — the pcomm benchmark: the partitioned API timed end to
//! end and per layer on three workloads (see `workload.rs`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <small_shm|earlybird_ipc|halo_uds|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates every input (ready-time schedules and payload);
//! the ranks receive only the generated data. A run is several rounds,
//! each a fresh pair of ranks; a round is closed-loop blocks of
//! partitioned iterations, bulk iterations and 256 B ping-pongs. Every
//! transfer's bytes are checked outside its timed window. With
//! `--trace 0` the last line reports the end-to-end metrics, with
//! `--trace 1` the per-layer ones: a spans round (the benchmark's timers
//! around each public call, plus the runtime's counters) and a ring
//! round (the runtime's own trace ring, counted per iteration). The
//! last line of standard output is one JSON object; everything above it
//! is the human-readable report.

mod inputs;
mod rank;
mod stats;
mod supervise;
mod tracefile;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pcomm_net::launch;

use rank::{Mode, RankArgs};
use stats::{median, percentile};
use supervise::{RoundResult, RoundSpec};
use tracefile::RingCounts;
use workload::{Fabric, Workload};

/// Plain rounds in a `--trace 0` run; `setup_s` is their median.
const ROUNDS: u32 = 15;

/// Per-thread capacity of the ring `Universe::run` allocates for
/// `PCOMM_TRACE` (the runtime's `DEFAULT_TRACE_CAP`).
const RING_CAP: usize = 1 << 16;

/// A run must end well inside three minutes even when every round hangs.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Where rounds keep their inputs, rendezvous sockets and trace files,
/// relative to the working directory so socket paths stay short.
const RUN_DIR: &str = ".perfbench";

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    plant_hang: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <small_shm|earlybird_ipc|halo_uds|all> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_cli(args: &[String]) -> Cli {
    let num = |name: &str, default: u64| match flag(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    };
    let cli = Cli {
        workload: flag(args, "--workload").unwrap_or("all").to_string(),
        seed: num("--seed", 1),
        seconds: num("--seconds", 10),
        trace: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => usage(),
        },
        plant_hang: args.iter().any(|a| a == "--plant-hang"),
    };
    if cli.seconds == 0 || cli.seconds > 60 {
        usage();
    }
    cli
}

fn parse_rank_args(args: &[String]) -> RankArgs {
    let workload = flag(args, "--workload")
        .and_then(workload::by_name)
        .unwrap_or_else(|| usage());
    RankArgs {
        workload,
        dir: flag(args, "--dir").unwrap_or_else(|| usage()).to_string(),
        mode: flag(args, "--mode")
            .and_then(Mode::parse)
            .unwrap_or_else(|| usage()),
        budget: Duration::from_millis(
            flag(args, "--budget-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage()),
        ),
        plant_hang: args.iter().any(|a| a == "--plant-hang"),
    }
}

/// One metric as reported.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    /// In the result line; otherwise printed in the report only.
    in_result: bool,
}

fn m(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        in_result: true,
    }
}

/// A figure printed beside the result but not part of it: its spread
/// from run to run on the ipc workloads is wider than any bound the
/// benchmark could hold it to, so the traced run reports it per layer.
fn shown(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        in_result: false,
        ..m(name, value, unit)
    }
}

/// Everything one workload's run produced.
struct Report {
    workload: Workload,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

/// Samples by name.
type Samples = BTreeMap<String, Vec<f64>>;

#[derive(Default)]
struct Collected {
    /// Every round's samples pooled.
    samples: Samples,
    /// Each round's samples on their own.
    rounds: Vec<Samples>,
    setup_s: Vec<f64>,
    rss_kb: Vec<f64>,
    ok: u64,
    failed: u64,
    notes: Vec<String>,
    ring: RingCounts,
}

impl Collected {
    fn absorb(&mut self, r: RoundResult) {
        for (k, v) in &r.samples {
            self.samples.entry(k.clone()).or_default().extend(v);
        }
        self.rounds.push(r.samples);
        self.setup_s.extend(r.setup_s);
        self.rss_kb.extend(r.rss_kb.map(|kb| kb as f64));
        self.ok += r.ok;
        self.failed += r.failed;
        self.notes.extend(r.notes);
    }

    fn s(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    fn p(&self, name: &str, q: f64) -> Option<f64> {
        percentile(self.s(name), q)
    }

    fn p50(&self, name: &str) -> Option<f64> {
        self.p(name, 0.5)
    }

    fn mean(&self, name: &str) -> Option<f64> {
        let v = self.s(name);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }
}

fn read_ring_files(dir: &std::path::Path, into: &mut RingCounts, notes: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        if !e.file_name().to_string_lossy().starts_with("ring.json") {
            continue;
        }
        let parsed = std::fs::read_to_string(e.path())
            .map_err(|err| err.to_string())
            .and_then(|text| into.add_json(&text));
        if let Err(err) = parsed {
            notes.push(format!("{}: {err}", e.path().display()));
        }
    }
}

fn run_workload(w: Workload, cli: &Cli, t_run: Instant) -> Report {
    let base = PathBuf::from(RUN_DIR).join(format!("{}-{}", std::process::id(), w.name));
    let key = inputs::payload_key(cli.seed);
    let schedules = inputs::schedules(cli.seed, w.n_parts, w.part_bytes, w.delayed);
    let secs = Duration::from_secs(cli.seconds);
    let rounds: Vec<(Mode, Duration)> = if cli.trace {
        vec![(Mode::Spans, secs.mul_f64(0.8)), (Mode::Ring, secs)]
    } else {
        (0..ROUNDS).map(|_| (Mode::Plain, secs / ROUNDS)).collect()
    };
    let mut c = Collected::default();
    for (i, (mode, budget)) in rounds.into_iter().enumerate() {
        let worst = budget + supervise::SETUP_DEADLINE + supervise::EXIT_DEADLINE;
        if t_run.elapsed() + worst > RUN_DEADLINE {
            c.notes
                .push(format!("round {i} ({}) skipped: run deadline", mode.name()));
            continue;
        }
        let dir = base.join(format!("r{i}"));
        let prepared =
            std::fs::create_dir_all(&dir).and_then(|()| rank::write_inputs(&dir, key, &schedules));
        if let Err(e) = prepared {
            c.notes.push(format!("round {i}: {}: {e}", dir.display()));
            c.failed += 1;
            continue;
        }
        let res = supervise::run_round(&RoundSpec {
            workload: w,
            mode,
            budget,
            dir: dir.clone(),
            plant_hang: cli.plant_hang && i == 0,
        });
        let round_p50 = |name: &str| rq(&res.samples, name, 0.5);
        c.notes.push(format!(
            "round {i} ({}): set-up {} s, iteration p50 {} us, bulk p50 {} us, \
             ping-pong p50 {} us",
            mode.name(),
            fmt_opt(res.setup_s),
            fmt_opt(round_p50("iter_us").or(round_p50("ring.iter_us"))),
            fmt_opt(round_p50("bulk_iter_us")),
            fmt_opt(round_p50("pingpong_us"))
        ));
        if res.hung || res.failed > 0 {
            c.notes.push(format!(
                "round {i} ({}): {} failed{}",
                mode.name(),
                res.failed,
                if res.hung { ", deadline fired" } else { "" }
            ));
        }
        c.absorb(res);
        if mode == Mode::Ring {
            read_ring_files(&dir, &mut c.ring, &mut c.notes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir(RUN_DIR);

    let mut lines = Vec::new();
    let metrics = if cli.trace {
        per_layer(&c, &mut lines)
    } else {
        end_to_end(&w, &c, &mut lines)
    };
    let attempted = c.ok + c.failed;
    lines.push(format!(
        "failed_frac {} ({} of {attempted} transfers)",
        c.failed as f64 / attempted.max(1) as f64,
        c.failed
    ));
    lines.extend(c.notes.iter().cloned());
    Report {
        workload: w,
        metrics,
        attempted,
        failed: c.failed,
        lines,
    }
}

/// A round's `q`-quantile of `name`.
fn rq(round: &Samples, name: &str, q: f64) -> Option<f64> {
    round.get(name).and_then(|v| percentile(v, q))
}

fn end_to_end(w: &Workload, c: &Collected, lines: &mut Vec<String>) -> Vec<Metric> {
    // Each figure is the median over rounds of that round's statistic:
    // a round is a fresh process pair, and one placed badly should move
    // the result as little as possible.
    let across = |f: &dyn Fn(&Samples) -> Option<f64>| {
        let per_round: Vec<f64> = c.rounds.iter().filter_map(f).collect();
        median(&per_round)
    };
    let iter50 = across(&|r| rq(r, "iter_us", 0.5));
    let bulk50 = across(&|r| rq(r, "bulk_iter_us", 0.5));
    let eta = across(&|r| {
        let i = rq(r, "iter_us", 0.5).filter(|&i| i > 0.0)?;
        Some(stats::eta(rq(r, "bulk_iter_us", 0.5)?, i))
    });
    let gbps = across(&|r| {
        let us = rq(r, "window_us", 0.5).filter(|&us| us > 0.0)?;
        Some(pcomm_perfmodel::perceived_bandwidth(w.payload(), us * 1e-6) / 1e9)
    });
    if w.delayed {
        // The model's prediction beside the measurement (not gated):
        // eq. 4 with γ from Appendix A and β from this run's bulk time.
        let theta = w.n_parts as u64;
        let gamma = inputs::stencil_delays().gamma(theta);
        if let (Some(b), Some(eta)) = (bulk50.filter(|&b| b > 0.0), eta) {
            let beta = w.payload() as f64 / (b * 1e-6);
            let pred = pcomm_perfmodel::eta_large(1, theta, gamma, beta);
            lines.push(format!(
                "eta measured {eta:.4}  perfmodel eq. 4 prediction {pred:.4} \
                 (gamma {:.3} us/MB, beta {:.3} GB/s from bulk_iter_us.p50)",
                pcomm_perfmodel::s_per_b_to_us_per_mb(gamma),
                beta / 1e9
            ));
        }
    }
    lines.push(format!(
        "samples: {} partitioned, {} bulk, {} ping-pong, {} set-ups over {} rounds",
        c.s("iter_us").len(),
        c.s("bulk_iter_us").len(),
        c.s("pingpong_us").len(),
        c.setup_s.len(),
        c.rounds.len()
    ));
    vec![
        m("setup_s", median(&c.setup_s), "s"),
        m("iter_us.p50", iter50, "us"),
        shown("iter_us.p90", across(&|r| rq(r, "iter_us", 0.9)), "us"),
        shown("bulk_iter_us.p50", bulk50, "us"),
        shown("eta", eta, "ratio"),
        m("perceived_gbps", gbps, "GB/s"),
        // The gated ping-pong figure is the lower quartile. On the ipc
        // fabric each round trip lands in one of two modes (about 7 and
        // 11 us on a 2-vCPU host, set by where the scheduler puts the
        // spinning and progress threads) and the share of slow ones
        // changes from round to round, so the median jumps between
        // modes: its spread over 5 seeds was 0.25 of itself against
        // 0.05 for the lower quartile, which stays in the fast mode.
        m(
            "pingpong_us.p25",
            across(&|r| rq(r, "pingpong_us", 0.25)),
            "us",
        ),
        shown(
            "pingpong_us.p50",
            across(&|r| rq(r, "pingpong_us", 0.5)),
            "us",
        ),
        m(
            "peak_rss_mib",
            median(&c.rss_kb).map(|kb| kb / 1024.0),
            "MiB",
        ),
    ]
}

fn per_layer(c: &Collected, lines: &mut Vec<String>) -> Vec<Metric> {
    let r = &c.ring;
    // Ring counts per partitioned iteration (the warm-up included), which
    // also carry that iteration's barrier and block control message.
    let ring_iters = c.s("ring.iter_us").len() as f64 + 1.0;
    let per_iter = |name: &str| (r.files > 0).then(|| r.n(name) as f64 / ring_iters);
    let plain50 = c.p50("iter_us");
    let overhead = |traced: Option<f64>| {
        traced
            .zip(plain50.filter(|&p| p > 0.0))
            .map(|(t, p)| t / p - 1.0)
    };
    if r.dropped > 0 {
        lines.push(format!(
            "trace ring dropped {} events: the ring kept only the latest {RING_CAP} per thread",
            r.dropped
        ));
    }

    // The receiving thread's own timeline in the spans blocks. Rows are
    // means over the iterations whose window lies between its 40th and
    // 60th percentile, so they add up to a typical iteration instead of
    // being medians of parts that need not come from the same iteration.
    // Every row is a measured span; what no span covers is shown as its
    // own row and left out of the sum, so it lowers the rows / p50 ratio.
    let window = c.s("span.window_us");
    let window50 = percentile(window, 0.5);
    let band = percentile(window, 0.4).zip(percentile(window, 0.6));
    let typical: Vec<usize> = band.map_or_else(Vec::new, |(lo, hi)| {
        (0..window.len())
            .filter(|&i| (lo..=hi).contains(&window[i]))
            .collect()
    });
    let rows = [
        ("start", "self", "tbl.start_us"),
        ("compute spin", "self", "tbl.compute_us"),
        ("pready", "self", "tbl.pready_us"),
        ("psend wait", "waiting", "tbl.send_wait_us"),
        ("precv wait", "waiting", "tbl.recv_wait_us"),
    ];
    let mut table = format!(
        "layer table (receiving thread, {} traced iterations around the p50, mean us):",
        typical.len()
    );
    let typical_mean =
        |v: &[f64]| typical.iter().map(|&i| v[i]).sum::<f64>() / typical.len() as f64;
    let mut sum = 0.0;
    for (call, kind, name) in rows {
        let v = c.s(name);
        if v.len() != window.len() || typical.is_empty() {
            continue;
        }
        let mean = typical_mean(v);
        sum += mean;
        let _ = write!(table, "\n  {call:<14} {kind:<8} {mean:>12.3}");
    }
    if !typical.is_empty() {
        let rest = typical_mean(window) - sum;
        let _ = write!(table, "\n  {:<23} {rest:>12.3}", "unaccounted");
    }
    let table_frac = window50.filter(|&w| w > 0.0 && sum > 0.0).map(|w| sum / w);
    if let (Some(w50), Some(f)) = (window50, table_frac) {
        let _ = write!(
            table,
            "\n  {:<23} {sum:>12.3}\n  {:<23} {w50:>12.3}  (rows / p50 = {f:.4})",
            "sum of measured rows", "iteration p50"
        );
    }
    lines.push(table);
    lines.push(format!(
        "sender side p50: pready {} ns/call, psend wait {} us, generator late {} us",
        fmt_opt(c.p50("part.pready_ns")),
        fmt_opt(c.p50("part.send_wait_us")),
        fmt_opt(c.p50("gen.late_us"))
    ));
    let (hits, misses) = (c.mean("fabric.pool_hits"), c.mean("fabric.pool_misses"));
    lines.push(match hits.zip(misses).filter(|(h, m)| h + m > 0.0) {
        Some((h, m)) => format!(
            "eager pool, sending side: {h:.3} hits and {m:.3} misses per iteration \
             (hit ratio {:.4})",
            h / (h + m)
        ),
        None => "eager pool, sending side: no eager sends in the partitioned window".into(),
    });

    let (iter50, bulk50) = (c.p50("iter_us"), c.p50("bulk_iter_us"));
    vec![
        m("iter_us.p90", c.p("iter_us", 0.9), "us"),
        m("bulk_iter_us.p50", bulk50, "us"),
        m(
            "eta",
            bulk50
                .zip(iter50.filter(|&i| i > 0.0))
                .map(|(b, i)| stats::eta(b, i)),
            "ratio",
        ),
        m("part.pready_ns.p50", c.p50("part.pready_ns"), "ns"),
        m("part.init_us", c.p50("part.init_us"), "us"),
        m("part.start_ns.p50", c.p50("part.start_ns"), "ns"),
        m("part.send_wait_us.p50", c.p50("part.send_wait_us"), "us"),
        m("part.recv_wait_us.p50", c.p50("part.recv_wait_us"), "us"),
        m("part.n_msgs", c.p50("part.n_msgs"), "count"),
        m("part.first_iter_us", c.p50("part.first_iter_us"), "us"),
        m(
            "part.pready_to_send_ns.mean",
            r.mean_arg("early_bird_send", "gap_ns"),
            "ns",
        ),
        m("sync.mutex_locks", c.p50("sync.mutex_locks"), "count"),
        m("sync.fast_probes", c.p50("sync.fast_probes"), "count"),
        m("sync.slow_waits", c.p50("sync.slow_waits"), "count"),
        m("fabric.matched_msgs", c.p50("fabric.matched_msgs"), "count"),
        m("fabric.pool_misses", misses, "count"),
        m("fabric.lock_acq", per_iter("shard_lock_wait"), "count"),
        m(
            "fabric.lock_wait_ns.mean",
            r.mean_arg("shard_lock_wait", "wait_ns"),
            "ns",
        ),
        m("fabric.eager_msgs", per_iter("eager_send"), "count"),
        m("fabric.rdv_msgs", per_iter("rdv_send"), "count"),
        m("transport.stream_chunks", per_iter("stream_chunk"), "count"),
        m("transport_ipc.doorbells", per_iter("ipc_doorbell"), "count"),
        m(
            "transport_ipc.ring_full",
            per_iter("ipc_ring_full"),
            "count",
        ),
        m(
            "p2p.bulk_send_wait_us.p50",
            c.p50("p2p.bulk_send_wait_us"),
            "us",
        ),
        m("p2p.pingpong_us.p50", c.p50("pingpong_us"), "us"),
        m("p2p.pingpong_us.p90", c.p("pingpong_us", 0.9), "us"),
        m("comm.barrier_us.p50", c.p50("comm.barrier_us"), "us"),
        m("universe.start_ms", c.p50("universe.start_ms"), "ms"),
        m("universe.teardown_ms", c.p50("universe.teardown_ms"), "ms"),
        m("gen.late_us.p50", c.p50("gen.late_us"), "us"),
        m("trace.iter_us.p50", c.p50("ring.iter_us"), "us"),
        m(
            "trace.overhead_frac",
            overhead(c.p50("ring.iter_us")),
            "ratio",
        ),
        m(
            "trace.span_overhead_frac",
            overhead(c.p50("span.iter_us")),
            "ratio",
        ),
        m("trace.table_sum_frac", table_frac, "ratio"),
        m(
            "trace.dropped",
            (r.files > 0).then_some(r.dropped as f64),
            "count",
        ),
        m(
            "trace.events_per_iter",
            (r.files > 0).then(|| r.count.values().sum::<u64>() as f64 / ring_iters),
            "count",
        ),
    ]
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.3}"))
}

/// The commit of the checkout, when it is a git work tree of its own
/// (git would otherwise search the parent directories).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "?".into())
}

/// The run record: host, code, seed and effective configuration.
fn record(cli: &Cli, workloads: &[Workload]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PCOMM_"))
        .collect();
    env.sort();
    let env: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    let (slots, slab, arena) = launch::ipc_params_from_env();
    let mut out = format!(
        "record: nproc {nproc}; commit {}; seed {}; seconds {}; trace {}; \
         PCOMM_* [{}] (the benchmark sets PCOMM_NET_*, PCOMM_TRACE and \
         PCOMM_TRACE_REPORT per round); PartOptions {:?}; shards 1; socket lanes {}; \
         aggregation {} B; ipc ring slots {slots}, slab {slab} B, arena {arena} B; \
         trace ring {RING_CAP} events/thread; L2/cpu {}, L3 {}",
        commit(),
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        env.join(" "),
        pcomm_core::part::PartOptions::default(),
        launch::lanes_from_env(),
        launch::aggr_from_env(),
        cache_size(2),
        cache_size(3),
    );
    for w in workloads {
        let fabric = match w.fabric {
            Fabric::Threads => "threads, shm",
            Fabric::Ipc => "processes, ipc",
            Fabric::Uds => "processes, uds",
        };
        let _ = write!(
            out,
            "\nworkload {}: {} x {} B{}, {fabric}, {} B payload per direction; {}",
            w.name,
            w.n_parts,
            w.part_bytes,
            if w.bidirectional { " each way" } else { "" },
            w.payload(),
            w.why
        );
    }
    out
}

/// Steal and total jiffies over all CPUs, from `/proc/stat`.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--rank-process") {
        std::process::exit(rank::rank_main(&parse_rank_args(&args)));
    }
    let cli = parse_cli(&args);
    let workloads: Vec<Workload> = if cli.workload == "all" {
        workload::ALL.to_vec()
    } else {
        vec![workload::by_name(&cli.workload).unwrap_or_else(|| usage())]
    };
    println!("{}", record(&cli, &workloads));
    let t_run = Instant::now();
    let reports: Vec<Report> = workloads
        .iter()
        .map(|&w| {
            let t = if workloads.len() == 1 {
                t_run
            } else {
                Instant::now()
            };
            let steal0 = cpu_steal();
            let mut r = run_workload(w, &cli, t);
            if let (Some((s0, t0)), Some((s1, t1))) = (steal0, cpu_steal()) {
                // On a virtual machine the hypervisor's steal time moves
                // every figure that waits on a wake-up; report it.
                let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                r.lines.push(format!(
                    "host: {pct:.1}% of CPU time stolen by the hypervisor"
                ));
            }
            r
        })
        .collect();

    let prefix = workloads.len() > 1;
    let mut metrics = Vec::new();
    let mut complete = true;
    for r in &reports {
        println!("== {} ==", r.workload.name);
        for line in &r.lines {
            println!("{line}");
        }
        for mt in &r.metrics {
            let note = if mt.in_result { "" } else { "  (report only)" };
            println!(
                "{:<28} {:>16} {}{note}",
                mt.name,
                fmt_opt(mt.value),
                mt.unit
            );
            if !mt.in_result {
                continue;
            }
            complete &= mt.value.is_some();
            let name = if prefix {
                format!("{}/{}", r.workload.name, mt.name)
            } else {
                mt.name.to_string()
            };
            let value = mt.value.map_or_else(|| "null".into(), json_num);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                mt.unit
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && complete,
        attempted.max(1),
        metrics.join(", ")
    );
    if !complete {
        std::process::exit(1);
    }
}
