//! One multi-process harness for the SPMD tests of this package
//! (`net_agreement.rs`, `net_chaos.rs`, `ipc_coop.rs`).
//!
//! [`run_ranks`] re-runs the current test binary once per rank,
//! filtered to one child test and carrying the `PCOMM_NET_*`
//! environment that makes `Universe::run` join a mesh, plus whatever
//! the caller sets or removes. Every rank runs under one hard deadline:
//! past it the harness kills them all and fails the test instead of
//! hanging. Each rank's exit code, stdout, stderr and `out-{rank}` file
//! (written into the rendezvous directory by the child body) come back
//! for the caller's own assertions.

#![allow(dead_code)] // each test file reads the fields it needs

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm::net::{launch, Backend, MultiprocEnv};

/// What one rank process left behind.
pub struct RankRun {
    /// Exit code; -1 when a signal ended the process.
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
    /// The rank's `out-{rank}` file, if its child body wrote one.
    pub out: Option<String>,
}

impl RankRun {
    /// The rank's output, framed for an assertion message.
    pub fn report(&self) -> String {
        format!(
            "exit {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            self.code, self.stdout, self.stderr
        )
    }
}

/// Run the test named `child` of this binary as `n_ranks` SPMD rank
/// processes over a Unix-socket mesh, with `remove` taken out of and
/// `set` put into each rank's environment (in that order), and wait for
/// all of them. Panics, after killing every rank, if any is still
/// running `deadline` after the spawn.
pub fn run_ranks(
    child: &str,
    n_ranks: usize,
    set: &[(&str, &str)],
    remove: &[&str],
    deadline: Duration,
) -> Vec<RankRun> {
    let dir = launch::unique_rendezvous_dir().expect("rendezvous dir");
    let spmd = MultiprocEnv {
        rank: 0,
        n_ranks,
        dir: dir.clone(),
        backend: Backend::Uds,
    };
    let exe = std::env::current_exe().expect("test binary path");
    let mut ranks: Vec<_> = (0..n_ranks)
        .map(|rank| {
            let mut cmd = Command::new(&exe);
            cmd.args([child, "--exact", "--nocapture"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            for key in remove {
                cmd.env_remove(key);
            }
            for (key, value) in set {
                cmd.env(key, value);
            }
            spmd.apply_to(&mut cmd, rank);
            let mut proc = cmd.spawn().expect("spawn SPMD child");
            // Drained on threads so a chatty rank never blocks on a
            // full pipe while the harness polls.
            let stdout = drain(proc.stdout.take());
            let stderr = drain(proc.stderr.take());
            (proc, stdout, stderr)
        })
        .collect();
    let until = Instant::now() + deadline;
    let mut codes: Vec<Option<i32>> = vec![None; n_ranks];
    while codes.iter().any(Option::is_none) {
        for ((proc, ..), code) in ranks.iter_mut().zip(&mut codes) {
            if code.is_none() {
                *code = proc
                    .try_wait()
                    .expect("poll child")
                    .map(|status| status.code().unwrap_or(-1));
            }
        }
        if codes.iter().any(Option::is_none) && Instant::now() >= until {
            for (proc, ..) in &mut ranks {
                let _ = proc.kill();
                let _ = proc.wait();
            }
            let _ = std::fs::remove_dir_all(&dir);
            let hung: Vec<usize> = (0..n_ranks).filter(|&r| codes[r].is_none()).collect();
            panic!("{child}: ranks {hung:?} hung past the {deadline:?} deadline");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let runs = ranks
        .into_iter()
        .zip(codes)
        .enumerate()
        .map(|(rank, ((_, stdout, stderr), code))| RankRun {
            code: code.unwrap_or(-1),
            stdout: stdout.join().unwrap_or_default(),
            stderr: stderr.join().unwrap_or_default(),
            out: std::fs::read_to_string(dir.join(format!("out-{rank}"))).ok(),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    runs
}

/// Read a child pipe to its end on a thread of its own.
fn drain(pipe: Option<impl Read + Send + 'static>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_string(&mut text);
        }
        text
    })
}
