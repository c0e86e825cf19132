//! The parent side of a round: launch the rank processes, collect their
//! reports, and turn a hang into counted failures with evidence.
//!
//! Ranks are spawned the way `netbench` does it: this executable
//! re-executed with the `PCOMM_NET_*` rank environment, one process per
//! rank (or one process holding both rank threads for the shared-memory
//! fabric), so each round is a fresh universe in fresh processes.

use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pcomm_net::{launch, Backend, MultiprocEnv};

use crate::rank::Mode;
use crate::workload::{Fabric, Workload};

/// From launch to the end of the warm-up iteration. The runtime's own
/// mesh rendezvous gives up after 10 s, so a healthy set-up never
/// comes close.
pub const SETUP_DEADLINE: Duration = Duration::from_secs(20);
/// Silence from every rank after set-up that counts as a hang. A block
/// takes tens of milliseconds on every workload.
pub const HANG_DEADLINE: Duration = Duration::from_secs(3);
/// From rank 0's last block to the exit of every rank process
/// (teardown, and writing the trace ring in a ring round).
pub const EXIT_DEADLINE: Duration = Duration::from_secs(20);

/// What one round is asked to do.
#[derive(Debug, Clone)]
pub struct RoundSpec {
    /// The workload.
    pub workload: Workload,
    /// What to measure.
    pub mode: Mode,
    /// Measurement budget after the warm-up.
    pub budget: Duration,
    /// Round directory: inputs, rendezvous sockets, trace files.
    pub dir: PathBuf,
    /// Plant a never-`pready` hang (test hook; the first round only).
    pub plant_hang: bool,
}

/// What came back from one round.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Launch to rank 0's end of warm-up, as seen by the parent.
    pub setup_s: Option<f64>,
    /// Samples by name, from every rank.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Checked transfers that passed.
    pub ok: u64,
    /// Transfers that failed: wrong bytes, typed errors, or unfinished.
    pub failed: u64,
    /// Maximum VmHWM over the rank processes, kB.
    pub rss_kb: Option<u64>,
    /// Failure details and stuck-thread evidence, one line each.
    pub notes: Vec<String>,
    /// Whether the deadline fired.
    pub hung: bool,
}

enum Msg {
    Line(usize, Instant, String),
    Eof,
}

fn spawn_rank(spec: &RoundSpec, rank: usize) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("--rank-process")
        .args(["--workload", spec.workload.name])
        .arg("--dir")
        .arg(&spec.dir)
        .args(["--mode", spec.mode.name()])
        .args(["--budget-ms", &spec.budget.as_millis().to_string()]);
    if spec.plant_hang {
        cmd.arg("--plant-hang");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in [
        launch::ENV_RANK,
        launch::ENV_RANKS,
        launch::ENV_DIR,
        launch::ENV_BACKEND,
        launch::ENV_FABRIC,
        "PCOMM_TRACE",
        "PCOMM_TRACE_REPORT",
    ] {
        cmd.env_remove(var);
    }
    let fabric = match spec.workload.fabric {
        Fabric::Threads => None,
        Fabric::Ipc => Some("ipc"),
        Fabric::Uds => Some("socket"),
    };
    if let Some(fabric) = fabric {
        MultiprocEnv {
            rank,
            n_ranks: 2,
            dir: spec.dir.clone(),
            backend: Backend::Uds,
        }
        .apply_to(&mut cmd, rank);
        cmd.env(launch::ENV_FABRIC, fabric);
    }
    if spec.mode == Mode::Ring {
        cmd.env("PCOMM_TRACE", spec.dir.join("ring.json"));
    }
    cmd.spawn()
}

/// Every thread of process `pid`: name, state and kernel wait channel.
pub fn thread_evidence(pid: u32) -> Vec<String> {
    let task_dir = format!("/proc/{pid}/task");
    let Ok(entries) = std::fs::read_dir(&task_dir) else {
        return vec![format!("pid {pid}: {task_dir} unreadable")];
    };
    let mut tids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    tids.into_iter()
        .map(|tid| {
            let read = |f: &str| {
                std::fs::read_to_string(format!("{task_dir}/{tid}/{f}"))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| "?".into())
            };
            // The state is the first field after the parenthesised name.
            let stat = read("stat");
            let state = stat
                .rsplit_once(") ")
                .and_then(|(_, rest)| rest.split(' ').next())
                .unwrap_or("?")
                .to_string();
            format!(
                "pid {pid} tid {tid} comm={} state={state} wchan={}",
                read("comm"),
                read("wchan")
            )
        })
        .collect()
}

fn parse_floats(rest: &str) -> Vec<f64> {
    rest.split(' ').filter_map(|v| v.parse().ok()).collect()
}

/// Run one round to completion or to its deadline. Never blocks past
/// `SETUP_DEADLINE + budget`-scale bounds: every wait has a deadline.
pub fn run_round(spec: &RoundSpec) -> RoundResult {
    let mut res = RoundResult::default();
    let n_procs = match spec.workload.fabric {
        Fabric::Threads => 1,
        Fabric::Ipc | Fabric::Uds => 2,
    };
    let (tx, rx) = mpsc::channel();
    let t_spawn = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    let mut readers = Vec::new();
    for rank in 0..n_procs {
        match spawn_rank(spec, rank) {
            Ok(mut child) => {
                let out = child.stdout.take().expect("stdout is piped");
                let tx = tx.clone();
                readers.push(std::thread::spawn(move || {
                    for line in std::io::BufReader::new(out).lines() {
                        let Ok(line) = line else { break };
                        if tx.send(Msg::Line(rank, Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                    let _ = tx.send(Msg::Eof);
                }));
                children.push(child);
            }
            Err(e) => res.notes.push(format!("spawning rank process {rank}: {e}")),
        }
    }
    drop(tx);

    let (mut ready, mut finished) = (false, None::<Instant>);
    let mut last = t_spawn;
    let mut open = children.len();
    let mut killed = false;
    while open > 0 {
        let deadline = match (ready, finished) {
            (_, Some(t)) => t + EXIT_DEADLINE,
            (false, None) => t_spawn + SETUP_DEADLINE,
            (true, None) => last + HANG_DEADLINE,
        };
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(if killed { EXIT_DEADLINE } else { wait }) {
            Ok(Msg::Line(rank, t, line)) => {
                last = t;
                let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
                match tag {
                    "ready" if !ready => {
                        ready = true;
                        res.setup_s = Some((t - t_spawn).as_secs_f64());
                    }
                    "S" => {
                        let (name, vals) = rest.split_once(' ').unwrap_or((rest, ""));
                        res.samples
                            .entry(name.to_string())
                            .or_default()
                            .extend(parse_floats(vals));
                    }
                    "P" => {
                        let v = parse_floats(rest);
                        res.ok += v.first().copied().unwrap_or(0.0) as u64;
                        res.failed += v.get(1).copied().unwrap_or(0.0) as u64;
                    }
                    "F" => finished = Some(t),
                    "U" => {
                        let v = parse_floats(rest);
                        for (name, x) in ["universe.start_ms", "universe.teardown_ms"].iter().zip(v)
                        {
                            res.samples.entry(name.to_string()).or_default().push(x);
                        }
                    }
                    "R" => {
                        let kb = rest.trim().parse().ok();
                        res.rss_kb = res.rss_kb.max(kb);
                    }
                    _ => res.notes.push(format!("rank process {rank}: {line}")),
                }
            }
            Ok(Msg::Eof) => open -= 1,
            Err(mpsc::RecvTimeoutError::Timeout) if !killed => {
                res.hung = true;
                let phase = if ready { "after set-up" } else { "in set-up" };
                let quiet = if ready { HANG_DEADLINE } else { SETUP_DEADLINE };
                res.notes.push(format!(
                    "deadline: no report for {:.1} s {phase}; stuck threads:",
                    quiet.as_secs_f64()
                ));
                for (rank, child) in children.iter().enumerate() {
                    for ev in thread_evidence(child.id()) {
                        res.notes.push(format!("stuck: rank process {rank} {ev}"));
                    }
                }
                for child in &mut children {
                    let _ = child.kill();
                }
                killed = true;
            }
            Err(_) => break,
        }
    }
    let mut clean_exit = true;
    for child in &mut children {
        if !killed && open > 0 {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(st) if st.success() => {}
            Ok(st) => {
                clean_exit = false;
                if !killed {
                    res.notes.push(format!("rank process exited with {st}"));
                }
            }
            Err(e) => {
                clean_exit = false;
                res.notes.push(format!("waiting for a rank process: {e}"));
            }
        }
    }
    for r in readers {
        let _ = r.join();
    }
    if finished.is_none() {
        // The block in flight, or the warm-up iteration, never finished.
        res.failed += if ready { spec.workload.block_len() } else { 1 };
    } else if !clean_exit {
        // Every block finished but teardown did not.
        res.failed += 1;
    }
    res
}
