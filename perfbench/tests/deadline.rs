//! A planted never-`pready` hang must come out as counted failures with
//! stuck-thread evidence, and the run must go on to its other rounds
//! and end.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn planted_hang_is_counted_with_evidence() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "small_shm", "--seed", "5", "--seconds", "2"])
        .args(["--trace", "0", "--plant-hang"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let elapsed = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        elapsed < Duration::from_secs(60),
        "the deadline did not end the hang: {elapsed:?}\n{stdout}"
    );
    assert!(stdout.contains("deadline fired"), "{stdout}");
    let stuck: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("stuck: "))
        .collect();
    assert!(
        stuck
            .iter()
            .any(|l| l.contains("wchan=") && l.contains("state=")),
        "no stuck-thread evidence:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": false"), "{last}");
    // Only the first round is planted: the unfinished block (192
    // transfers on small_shm) is counted and the later rounds measure.
    assert!(!last.contains("\"failed\": 0,"), "{last}");
    assert!(last.contains("\"iter_us.p50\": {\"value\": "), "{last}");
    assert!(!last.contains("null"), "{last}");
    assert!(out.status.success(), "{}", out.status);
}
