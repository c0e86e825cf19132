//! The in-process partitioned channel (DESIGN.md §8): a psend and its
//! precv are matched once, at init, and every internal message then
//! moves with one atomic per side and one copy by whichever side
//! arrives second. These tests pin the protocol through the public API:
//! both arrival orders (forced by barrier placement), uneven and
//! aggregated layouts, matching order for pairs sharing a tag, the
//! registry withdrawing a dropped half, layout mismatches, chaos and
//! the verification layer.

use pcomm::core::part::{PartOptions, PrecvRequest, PsendRequest};
use pcomm::core::{Comm, FaultKind, FaultPlan, PcommError, Universe};
use pcomm::trace::{EventKind, Trace};

/// Watchdog for tests whose failure mode would be a hang.
const WATCHDOG_MS: u64 = 3000;

/// Which side reaches an iteration's messages first.
#[derive(Clone, Copy)]
enum Order {
    /// Every `pready` lands before the receiver starts: the receiver
    /// copies in `start`.
    SenderFirst,
    /// The receiver starts before any `pready`: the sender copies in
    /// `pready`.
    ReceiverFirst,
}

fn order_of(it: usize) -> Order {
    if it.is_multiple_of(2) {
        Order::SenderFirst
    } else {
        Order::ReceiverFirst
    }
}

/// The byte at global offset `g` of iteration `it`.
fn stamp(it: usize, g: usize) -> u8 {
    (it.wrapping_mul(131) ^ g.wrapping_mul(7)) as u8
}

fn fill_and_ready(ps: &PsendRequest, it: usize, n_parts: usize, part_bytes: usize) {
    for p in 0..n_parts {
        ps.write_partition(p, |b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = stamp(it, p * part_bytes + i);
            }
        });
        ps.pready(p);
    }
}

fn check(pr: &PrecvRequest, it: usize, n_parts: usize, part_bytes: usize) {
    for r in 0..n_parts {
        for (i, &x) in pr.partition(r).iter().enumerate() {
            let g = r * part_bytes + i;
            assert_eq!(x, stamp(it, g), "iteration {it}, recv part {r}, byte {i}");
        }
    }
}

/// One iteration on rank 0 (sender) or rank 1 (receiver) in the given
/// order: two barriers per iteration on both ranks, placed so the order
/// is forced, not raced.
fn send_iter(comm: &Comm, ps: &PsendRequest, it: usize, order: Order, n: usize, pb: usize) {
    ps.start();
    match order {
        Order::SenderFirst => {
            fill_and_ready(ps, it, n, pb);
            comm.barrier();
        }
        Order::ReceiverFirst => {
            comm.barrier();
            fill_and_ready(ps, it, n, pb);
        }
    }
    ps.wait();
    comm.barrier();
}

fn recv_iter(comm: &Comm, pr: &PrecvRequest, it: usize, order: Order, n: usize, pb: usize) {
    match order {
        Order::SenderFirst => {
            comm.barrier();
            pr.start();
        }
        Order::ReceiverFirst => {
            pr.start();
            comm.barrier();
        }
    }
    pr.wait();
    check(pr, it, n, pb);
    comm.barrier();
}

/// Run `iters` iterations of an (n_send × send_pb) → (n_recv × recv_pb)
/// pair, alternating the arrival order.
fn alternating_run(
    u: &Universe,
    iters: usize,
    (n_send, send_pb): (usize, usize),
    (n_recv, recv_pb): (usize, usize),
    opts: PartOptions,
) -> Result<Vec<usize>, PcommError> {
    u.run(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init_general(1, 4, n_send, send_pb, n_recv, opts.clone());
            for it in 0..iters {
                send_iter(&comm, &ps, it, order_of(it), n_send, send_pb);
            }
            ps.n_msgs()
        } else {
            let pr = comm.precv_init_general(0, 4, n_recv, recv_pb, n_send, send_pb, opts.clone());
            for it in 0..iters {
                recv_iter(&comm, &pr, it, order_of(it), n_recv, recv_pb);
            }
            pr.n_msgs()
        }
    })
}

#[test]
fn both_arrival_orders_deliver_fresh_data_every_iteration() {
    let n_msgs = alternating_run(
        &Universe::new(2).with_watchdog_ms(WATCHDOG_MS),
        200,
        (16, 40),
        (16, 40),
        PartOptions::default(),
    )
    .unwrap();
    assert_eq!(n_msgs, vec![16, 16]);
}

#[test]
fn gcd_mismatched_counts_pair_and_deliver() {
    // 12 × 100 B against 8 × 150 B: gcd 4 messages of 300 B.
    let n_msgs = alternating_run(
        &Universe::new(2).with_watchdog_ms(WATCHDOG_MS),
        100,
        (12, 100),
        (8, 150),
        PartOptions::default(),
    )
    .unwrap();
    assert_eq!(n_msgs, vec![4, 4]);
}

#[test]
fn aggregated_layout_pairs_and_deliver() {
    // The 4 base messages of 300 B aggregate pairwise under 600 B.
    let opts = PartOptions {
        aggr_size: Some(600),
        ..PartOptions::default()
    };
    let n_msgs = alternating_run(
        &Universe::new(2).with_watchdog_ms(WATCHDOG_MS),
        100,
        (12, 100),
        (8, 150),
        opts,
    )
    .unwrap();
    assert_eq!(n_msgs, vec![2, 2]);
}

#[test]
fn pairs_sharing_ctx_and_tag_match_in_init_order() {
    // Rank 1 inits both receives before rank 0 inits either send; the
    // first psend must pair with the first precv. The second pair then
    // runs first, so a swapped pairing would deliver the wrong bytes.
    let out = Universe::new(2)
        .with_watchdog_ms(WATCHDOG_MS)
        .run(|comm| {
            let (n, pb) = (4, 32);
            if comm.rank() == 0 {
                comm.barrier();
                let first = comm.psend_init(1, 9, n, pb, PartOptions::default());
                let second = comm.psend_init(1, 9, n, pb, PartOptions::default());
                for (ps, byte) in [(&second, 0xbb), (&first, 0xaa)] {
                    ps.start();
                    for p in 0..n {
                        ps.write_partition(p, |b| b.fill(byte));
                        ps.pready(p);
                    }
                    ps.wait();
                }
                Vec::new()
            } else {
                let first = comm.precv_init(0, 9, n, pb, PartOptions::default());
                let second = comm.precv_init(0, 9, n, pb, PartOptions::default());
                comm.barrier();
                let mut got = Vec::new();
                for pr in [&second, &first] {
                    pr.start();
                    pr.wait();
                    got.push(pr.partition(n - 1)[0]);
                }
                got
            }
        })
        .unwrap();
    assert_eq!(out[1], vec![0xbb, 0xaa], "pairs must match in init order");
}

#[test]
fn dropped_psend_is_withdrawn_before_its_precv_inits() {
    let out = Universe::new(2)
        .with_watchdog_ms(WATCHDOG_MS)
        .run(|comm| {
            let (n, pb) = (4, 64);
            if comm.rank() == 0 {
                {
                    // Started and readied, then dropped while unpaired:
                    // its half leaves the registry without blocking.
                    let stale = comm.psend_init(1, 6, n, pb, PartOptions::default());
                    stale.start();
                    for p in 0..n {
                        stale.write_partition(p, |b| b.fill(0xee));
                        stale.pready(p);
                    }
                }
                comm.barrier();
                let ps = comm.psend_init(1, 6, n, pb, PartOptions::default());
                ps.start();
                for p in 0..n {
                    ps.write_partition(p, |b| b.fill(p as u8 + 1));
                    ps.pready(p);
                }
                ps.wait();
                0
            } else {
                comm.barrier();
                let pr = comm.precv_init(0, 6, n, pb, PartOptions::default());
                pr.start();
                pr.wait();
                (0..n)
                    .filter(|&p| pr.partition(p).iter().all(|&x| x == p as u8 + 1))
                    .count()
            }
        })
        .unwrap();
    assert_eq!(out[1], 4, "the fresh pair must carry the fresh data");
}

/// A sender without aggregation against a receiver with it: the two
/// sides disagree on the message layout. `recv_first` picks which side
/// inits first (and so which side detects it).
fn mismatched_pair(recv_first: bool) -> PcommError {
    Universe::new(2)
        .with_watchdog_ms(WATCHDOG_MS)
        .run(|comm| {
            let (n, pb) = (8, 64);
            let late = (comm.rank() == 0) == recv_first;
            if late {
                comm.barrier();
            }
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 2, n, pb, PartOptions::default());
                if !late {
                    comm.barrier();
                }
                ps.start();
                ps.pready_range(0, n - 1);
                ps.wait();
            } else {
                let opts = PartOptions {
                    aggr_size: Some(4 * pb),
                    ..PartOptions::default()
                };
                let pr = comm.precv_init(0, 2, n, pb, opts);
                if !late {
                    comm.barrier();
                }
                pr.start();
                pr.wait();
            }
        })
        .unwrap_err()
}

#[test]
fn layout_mismatch_is_misuse_at_pairing_never_a_hang() {
    for (recv_first, detector) in [(false, 1), (true, 0)] {
        match mismatched_pair(recv_first) {
            PcommError::Misuse { rank, detail } => {
                assert_eq!(rank, Some(detector), "{detail}");
                assert!(detail.contains("message layout"), "{detail}");
            }
            other => panic!("expected Misuse at pairing, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Chaos: the channel passes the same fault gate as the wire stream.
// ---------------------------------------------------------------------

/// `iters` iterations of a 16 × 64 B pair under `plan`, data checked
/// each iteration; returns the run's outcome and its chaos events.
#[allow(clippy::type_complexity)]
fn chaos_pair(
    plan: FaultPlan,
    iters: usize,
) -> (Result<Vec<()>, PcommError>, Vec<(u16, EventKind)>) {
    let (n, pb) = (16, 64);
    let (out, data) = Universe::new(2).with_fault_plan(plan).run_traced(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init(1, 1, n, pb, PartOptions::default());
            for it in 0..iters {
                send_iter(&comm, &ps, it, order_of(it), n, pb);
            }
        } else {
            let pr = comm.precv_init(0, 1, n, pb, PartOptions::default());
            for it in 0..iters {
                recv_iter(&comm, &pr, it, order_of(it), n, pb);
            }
        }
    });
    let faults = data
        .events
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::FaultInjected { .. } | EventKind::RetryAttempt { .. }
            )
        })
        .map(|e| (e.rank, e.kind))
        .collect();
    (out, faults)
}

#[test]
fn certain_drop_on_a_local_pair_is_message_lost_for_that_message() {
    let err = Universe::new(2)
        .with_fault_plan(FaultPlan::seeded(3).drops(1.0).retries(2))
        .run(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 0, 4, 64, PartOptions::default());
                ps.start();
                // Partition 2 alone completes message 2: the first
                // message the gate sees.
                ps.pready(2);
                ps.pready_range(0, 1);
                ps.pready(3);
                ps.wait();
            } else {
                let pr = comm.precv_init(0, 0, 4, 64, PartOptions::default());
                pr.start();
                pr.wait();
            }
        })
        .unwrap_err();
    match err {
        PcommError::MessageLost {
            src,
            dst,
            tag,
            attempts,
        } => {
            assert_eq!((src, dst, tag), (0, 1, 2), "message 2 is lost");
            assert_eq!(attempts, 3, "1 original + 2 retries");
        }
        other => panic!("expected MessageLost, got {other}"),
    }
}

#[test]
fn seeded_plan_on_a_local_pair_replays_the_same_faults() {
    // Duplicates and reorders decay to clean delivery on the channel;
    // drops retry and delays sleep, each traced.
    let plan = FaultPlan::seeded(42)
        .drops(0.2)
        .delays(0.2, 50)
        .duplicates(0.2)
        .reorders(0.2)
        .retries(16);
    let (out_a, faults_a) = chaos_pair(plan.clone(), 6);
    let (out_b, faults_b) = chaos_pair(plan, 6);
    out_a.expect("retries recover every drop; duplicates are harmless");
    out_b.unwrap();
    for fault in [FaultKind::Drop, FaultKind::Delay] {
        assert!(
            faults_a.iter().any(
                |(_, k)| matches!(k, EventKind::FaultInjected { fault: f, .. } if *f == fault)
            ),
            "p=0.2 over 96 messages must inject {fault:?}"
        );
    }
    assert!(
        faults_a.iter().all(|(rank, k)| *rank == 0
            && !matches!(
                k,
                EventKind::FaultInjected {
                    fault: FaultKind::Duplicate | FaultKind::Reorder,
                    ..
                }
            )),
        "only the sender injects, and only drops and delays"
    );
    assert_eq!(faults_a, faults_b, "same seed, same fault sequence");
}

// ---------------------------------------------------------------------
// Verification: whichever side copies records the transfer.
// ---------------------------------------------------------------------

#[test]
fn verified_run_records_every_copy_from_either_side() {
    let (n, pb, iters) = (8, 64, 64);
    let trace = Trace::ring_verify(1 << 16);
    let u = Universe::new(2)
        .with_watchdog_ms(WATCHDOG_MS)
        .with_trace(trace.clone());
    let (out, report) = u.run_verified(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init(1, 3, n, pb, PartOptions::default());
            for it in 0..iters {
                send_iter(&comm, &ps, it, order_of(it), n, pb);
            }
        } else {
            let pr = comm.precv_init(0, 3, n, pb, PartOptions::default());
            for it in 0..iters {
                recv_iter(&comm, &pr, it, order_of(it), n, pb);
            }
        }
    });
    out.unwrap();
    assert!(report.is_clean(), "{report}");
    let data = trace.snapshot().expect("verify trace is enabled");
    assert_eq!(data.dropped, 0, "the ring must hold the whole run");
    // The time-sorted trace places every copy of iteration `it` after
    // the receiver's `start` of `it` and before its next `start`. Even
    // iterations are sender-first (the receiver copies in `start`, not
    // eager), odd ones receiver-first (the sender copies in `pready`).
    let (mut recv_iter, mut copies) = (None, vec![0usize; iters]);
    for e in &data.events {
        match e.kind {
            EventKind::VerifyStart {
                sender: false,
                iter,
                ..
            } => recv_iter = Some(iter as usize),
            EventKind::VerifyMsgRecv { eager, .. } => {
                let it = recv_iter.expect("a copy follows the receiver's start");
                assert_eq!(e.rank, 1, "recorded on the receiving rank");
                let by_sender = matches!(order_of(it), Order::ReceiverFirst);
                assert_eq!(eager, by_sender, "iteration {it}: wrong side copied");
                copies[it] += 1;
            }
            _ => {}
        }
    }
    assert!(
        copies.iter().all(|&c| c == n),
        "one VerifyMsgRecv per message and iteration: {copies:?}"
    );
}
