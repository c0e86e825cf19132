//! Transport agreement: every one of the eight benchmark strategies must
//! deliver byte-identical data whether the two ranks share an address
//! space (shared-memory fabric), live in separate OS processes wired
//! together over Unix domain sockets, or share a mapped segment over the
//! same-host `ipc` fabric. The receiver folds every received byte into
//! an FNV-1a digest; the digests must match across fabrics, and the
//! multi-process runs must come back clean under `PCOMM_VERIFY=1`
//! (a finding turns the run into an error, which fails the child).

mod spawn;

use std::time::Duration;

use pcomm::core::strategies::{measure_validated, RealApproach, RealScenario};
use pcomm::net::MultiprocEnv;

/// Two scenarios: one all-eager, one whose bulk buffers cross the 64 KiB
/// eager ceiling so the single-message strategy exercises the wire
/// rendezvous (RTS/CTS/RdvData) path.
fn scenarios() -> Vec<RealScenario> {
    vec![
        RealScenario::immediate(2, 2, 96, 2, 2),
        RealScenario::immediate(2, 1, 40 * 1024, 1, 2),
    ]
}

/// Receiver-side digests for every (scenario, approach) pair, in a fixed
/// order both sides of the comparison share.
fn all_digests() -> Vec<u64> {
    scenarios()
        .iter()
        .flat_map(|sc| {
            RealApproach::ALL
                .iter()
                .map(|&a| measure_validated(a, sc).1)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// SPMD child body: re-runs every strategy, now with the `PCOMM_NET_*`
/// environment routing the universe over sockets. The receiving rank
/// writes its digests where the parent can read them. Runs (and returns
/// immediately) as an ordinary empty test when the env is absent.
#[test]
fn net_agreement_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    let digests = all_digests();
    if env.rank == 1 {
        let lines: String = digests.iter().map(|d| format!("{d:#018x}\n")).collect();
        std::fs::write(env.dir.join("out-1"), lines).expect("write digest file");
    }
}

/// Run the SPMD child pair with `extra_env` on both ranks and return
/// the receiver's digests. Verify is always armed: any race/protocol
/// finding fails the child run.
fn wire_digests(extra_env: &[(&str, &str)], what: &str) -> Vec<u64> {
    let mut set = vec![("PCOMM_VERIFY", "1")];
    set.extend_from_slice(extra_env);
    let runs = spawn::run_ranks(
        "net_agreement_child",
        2,
        &set,
        &["PCOMM_FAULTS"],
        Duration::from_secs(180),
    );
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(
            run.code,
            0,
            "{what} rank {rank} child failed: {}",
            run.report()
        );
    }
    let raw = runs[1].out.as_deref().expect("receiver digest file");
    raw.lines()
        .map(|l| u64::from_str_radix(l.trim_start_matches("0x"), 16).expect("digest line"))
        .collect()
}

#[test]
fn all_strategies_agree_across_fabrics() {
    // Reference digests on the shared-memory fabric, in this process.
    let local = all_digests();
    let labels: Vec<String> = scenarios()
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            RealApproach::ALL
                .iter()
                .map(move |a| format!("scenario {i} / {}", a.label()))
                .collect::<Vec<_>>()
        })
        .collect();

    // The same workload as two OS processes, on every wire fabric the
    // platform supports: UDS streams always, the shared-segment ipc
    // fabric where the raw-syscall layer exists.
    let mut fabrics = vec![("uds", vec![])];
    if pcomm::net::sys::supported() {
        fabrics.push(("ipc", vec![("PCOMM_NET_FABRIC", "ipc")]));
    }
    for (fabric, extra_env) in fabrics {
        let wire = wire_digests(&extra_env, fabric);
        assert_eq!(
            wire.len(),
            local.len(),
            "{fabric}: one digest per (scenario, approach)"
        );
        for ((l, w), label) in local.iter().zip(&wire).zip(&labels) {
            assert_eq!(l, w, "{label}: shared-memory and {fabric} fabrics disagree");
        }
    }
}
