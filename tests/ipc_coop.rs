//! Cooperative copy on the ipc fabric (DESIGN.md §15): the send buffer
//! lives in the shared segment, `pready` only publishes each message,
//! and whichever process claims it first makes the one copy. Two real
//! processes per test, spawned by the shared `tests/spawn` harness
//! (this test binary re-run as each rank with the `PCOMM_NET_*`
//! environment); every child body is an empty no-op when run as an
//! ordinary test.
//!
//! Each request counts the messages its side copied
//! (`PsendRequest::copies` / `PrecvRequest::copies`); per iteration the
//! two counts must add up to the message count — each message copied
//! exactly once — whichever side did it.

mod spawn;

use std::time::Duration;

use pcomm::core::part::{PartOptions, PrecvRequest, PsendRequest};
use pcomm::core::{Comm, PcommError, Universe};
use pcomm::net::MultiprocEnv;

/// Rank 1 sends, rank 0 receives, in every workload below.
const SENDER: usize = 1;
const TAG: i64 = 3;
const WATCHDOG_MS: u64 = 20_000;

/// The byte at global offset `g` of iteration `it`.
fn stamp(it: usize, g: usize) -> u8 {
    (it.wrapping_mul(131) ^ g.wrapping_mul(7) ^ 0x5a) as u8
}

fn fill(ps: &PsendRequest, it: usize, n_parts: usize, part_bytes: usize) {
    for p in 0..n_parts {
        ps.write_partition(p, |b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = stamp(it, p * part_bytes + i);
            }
        });
    }
}

fn ready_all(ps: &PsendRequest, n_parts: usize) {
    for p in 0..n_parts {
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

/// How an iteration's two sides meet.
#[derive(Clone, Copy, PartialEq)]
enum Order {
    /// The receiver is in `wait` before any `pready`, and the sender
    /// reaches its `wait` only after the receiver's returned: the
    /// receiver must copy every message.
    ReceiverWaitsFirst,
    /// Every `pready` and the sender's `wait` come before the receiver
    /// starts (a message orders them): nothing is published before the
    /// CTS, then both sides claim.
    SenderWaitsFirst,
}

fn order_of(it: usize) -> Order {
    if it.is_multiple_of(2) {
        Order::ReceiverWaitsFirst
    } else {
        Order::SenderWaitsFirst
    }
}

const TAG_GO: i64 = 90;

/// The shape of one partitioned pair: sender and receiver partitions.
#[derive(Clone, Copy)]
struct Shape {
    send: (usize, usize),
    recv: (usize, usize),
}

/// Run `iters` iterations of `shape` with alternating orders. Each rank
/// returns the per-iteration copies its request made.
fn coop_run(iters: usize, shape: Shape, opts: PartOptions) -> Result<Vec<Vec<u64>>, PcommError> {
    let Shape {
        send: (n_send, send_pb),
        recv: (n_recv, recv_pb),
    } = shape;
    Universe::new(2).with_watchdog_ms(WATCHDOG_MS).run(|comm| {
        let mut deltas = Vec::with_capacity(iters);
        if comm.rank() == SENDER {
            let ps = comm.psend_init_general(0, TAG, n_send, send_pb, n_recv, opts.clone());
            for it in 0..iters {
                let before = ps.copies();
                send_iter(&comm, &ps, it, n_send, send_pb);
                deltas.push(ps.copies() - before);
            }
        } else {
            let pr = comm.precv_init_general(
                SENDER,
                TAG,
                n_recv,
                recv_pb,
                n_send,
                send_pb,
                opts.clone(),
            );
            for it in 0..iters {
                let before = pr.copies();
                recv_iter(&comm, &pr, it, n_recv, recv_pb);
                deltas.push(pr.copies() - before);
            }
        }
        deltas
    })
}

fn send_iter(comm: &Comm, ps: &PsendRequest, it: usize, n: usize, pb: usize) {
    ps.start();
    fill(ps, it, n, pb);
    match order_of(it) {
        Order::ReceiverWaitsFirst => {
            comm.barrier();
            ready_all(ps, n);
            comm.barrier();
            ps.wait();
        }
        Order::SenderWaitsFirst => {
            ready_all(ps, n);
            comm.send(0, TAG_GO, &[1]);
            ps.wait();
        }
    }
    comm.barrier();
}

fn recv_iter(comm: &Comm, pr: &PrecvRequest, it: usize, n: usize, pb: usize) {
    match order_of(it) {
        Order::ReceiverWaitsFirst => {
            pr.start();
            comm.barrier();
            pr.wait();
            comm.barrier();
        }
        Order::SenderWaitsFirst => {
            let mut go = [0u8];
            comm.recv_into(Some(SENDER), Some(TAG_GO), &mut go);
            pr.start();
            pr.wait();
        }
    }
    check(pr, it, n, pb);
    comm.barrier();
}

/// Child side: run the workload and write this rank's per-iteration
/// copy counts (one line) where the parent reads them.
fn report(env: &MultiprocEnv, out: Result<Vec<Vec<u64>>, PcommError>) {
    let deltas = out.expect("cooperative-copy run failed").remove(0);
    let line: Vec<String> = deltas.iter().map(u64::to_string).collect();
    std::fs::write(env.dir.join(format!("out-{}", env.rank)), line.join(" "))
        .expect("write copy counts");
}

const ORDERS_SHAPE: Shape = Shape {
    send: (8, 16 * 1024),
    recv: (8, 16 * 1024),
};

#[test]
fn ipc_coop_orders_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    report(&env, coop_run(120, ORDERS_SHAPE, PartOptions::default()));
}

#[test]
fn ipc_coop_uneven_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    // 12 × 100 B against 8 × 150 B: gcd 4 messages of 300 B; with
    // `PCOMM_TEST_AGGR` set they aggregate pairwise under 600 B.
    let opts = PartOptions {
        aggr_size: std::env::var("PCOMM_TEST_AGGR")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..PartOptions::default()
    };
    let shape = Shape {
        send: (12, 100),
        recv: (8, 150),
    };
    report(&env, coop_run(100, shape, opts));
}

/// A psend dropped mid-iteration, every round: readied but never
/// waited on. The receiver must still copy every message of every round
/// — which it can only do while the source lives in the segment, so a
/// source grant that did not come back would show as a round the
/// receiver did not copy once the arena ran out.
#[test]
fn ipc_coop_dropped_psend_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    let (n, pb, rounds) = (4, 16 * 1024, 12);
    let out = Universe::new(2).with_watchdog_ms(WATCHDOG_MS).run(|comm| {
        let mut deltas = Vec::with_capacity(rounds);
        for it in 0..rounds {
            if comm.rank() == SENDER {
                let ps = comm.psend_init(0, TAG, n, pb, PartOptions::default());
                ps.start();
                fill(&ps, it, n, pb);
                comm.barrier();
                ready_all(&ps, n);
                let copies = ps.copies();
                drop(ps);
                deltas.push(copies);
            } else {
                let pr = comm.precv_init(SENDER, TAG, n, pb, PartOptions::default());
                pr.start();
                comm.barrier();
                pr.wait();
                check(&pr, it, n, pb);
                deltas.push(pr.copies());
            }
            comm.barrier();
        }
        deltas
    });
    report(&env, out);
}

/// Both ranks send and receive at once, posting the send first as
/// `halo_exchange` does. Each rank reports its psend's per-iteration
/// copies, then its precv's.
#[test]
fn ipc_coop_two_way_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    let (n, pb, iters) = (8, 16 * 1024, 100);
    let out = Universe::new(2).with_watchdog_ms(WATCHDOG_MS).run(|comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let ps = comm.psend_init(peer, TAG, n, pb, PartOptions::default());
        let pr = comm.precv_init(peer, TAG, n, pb, PartOptions::default());
        let (mut sent, mut landed) = (Vec::new(), Vec::new());
        for it in 0..iters {
            let (s0, r0) = (ps.copies(), pr.copies());
            pr.start();
            ps.start();
            fill(&ps, 2 * it + me, n, pb);
            ready_all(&ps, n);
            ps.wait();
            pr.wait();
            check(&pr, 2 * it + peer, n, pb);
            sent.push(ps.copies() - s0);
            landed.push(pr.copies() - r0);
            comm.barrier();
        }
        sent.extend(landed);
        sent
    });
    report(&env, out);
}

/// Spawn both ranks of `child` over the ipc fabric with `extra` env and
/// a hard deadline; returns each rank's exit status and output file.
fn run_pair(child_test: &str, extra: &[(&str, &str)]) -> Vec<(i32, String, String)> {
    let mut set = vec![("PCOMM_NET_FABRIC", "ipc")];
    set.extend_from_slice(extra);
    let remove = ["PCOMM_FAULTS", "PCOMM_VERIFY"];
    spawn::run_ranks(child_test, 2, &set, &remove, Duration::from_secs(120))
        .into_iter()
        .map(|run| (run.code, run.out.unwrap_or_default(), run.stderr))
        .collect()
}

/// Both ranks succeeded; returns (receiver, sender) per-iteration copy
/// counts.
fn copy_counts(child: &str, extra: &[(&str, &str)]) -> (Vec<u64>, Vec<u64>) {
    let outs = run_pair(child, extra);
    for (rank, (code, _, stderr)) in outs.iter().enumerate() {
        assert_eq!(
            *code, 0,
            "{child} rank {rank} failed\n--- stderr ---\n{stderr}"
        );
    }
    (parse_counts(&outs[0].1), parse_counts(&outs[SENDER].1))
}

/// A child's reported copy counts.
fn parse_counts(s: &str) -> Vec<u64> {
    s.split_whitespace()
        .map(|x| x.parse().expect("copy count"))
        .collect()
}

/// Every iteration's message was copied exactly once, by one side.
fn assert_exactly_once(recv: &[u64], send: &[u64], iters: usize, n_msgs: u64) {
    assert_eq!(recv.len(), iters, "receiver iterations");
    assert_eq!(send.len(), iters, "sender iterations");
    for (it, (r, s)) in recv.iter().zip(send).enumerate() {
        assert_eq!(
            r + s,
            n_msgs,
            "iteration {it}: receiver copied {r}, sender {s}, of {n_msgs} messages"
        );
    }
}

fn ipc_supported() -> bool {
    if pcomm::net::sys::supported() {
        return true;
    }
    eprintln!("skipping: pcomm ipc fabric unsupported on this platform");
    false
}

#[test]
fn both_orders_copy_each_message_exactly_once() {
    if !ipc_supported() {
        return;
    }
    let (recv, send) = copy_counts("ipc_coop_orders_child", &[]);
    assert_exactly_once(&recv, &send, 120, 8);
    // With the sender held off its `wait` until the receiver's returned,
    // only the receiver can have copied: the source is shared and
    // `pready` published instead of copying.
    for it in (0..120).filter(|&it| order_of(it) == Order::ReceiverWaitsFirst) {
        assert_eq!(recv[it], 8, "iteration {it}: the receiver must copy all");
    }
}

#[test]
fn gcd_mismatched_layout_copies_each_message_exactly_once() {
    if !ipc_supported() {
        return;
    }
    let (recv, send) = copy_counts("ipc_coop_uneven_child", &[]);
    assert_exactly_once(&recv, &send, 100, 4);
    for it in (0..100).filter(|&it| order_of(it) == Order::ReceiverWaitsFirst) {
        assert_eq!(recv[it], 4, "iteration {it}: the receiver must copy all");
    }
}

#[test]
fn aggregated_layout_copies_each_message_exactly_once() {
    if !ipc_supported() {
        return;
    }
    let (recv, send) = copy_counts("ipc_coop_uneven_child", &[("PCOMM_TEST_AGGR", "600")]);
    assert_exactly_once(&recv, &send, 100, 2);
}

#[test]
fn squeezed_arena_falls_back_to_the_slab_bit_exact() {
    if !ipc_supported() {
        return;
    }
    // The `net_ipc.rs` squeeze: 2 ring slots, a 4 KiB fifo, a 1-byte
    // arena. No grant fits, so `pready` stages every message through
    // the fifo and the receiver lands it: still one landing copy each.
    let (recv, send) = copy_counts(
        "ipc_coop_orders_child",
        &[
            ("PCOMM_NET_IPC_SLOTS", "2"),
            ("PCOMM_NET_IPC_SLAB", "4096"),
            ("PCOMM_NET_IPC_ARENA", "1"),
        ],
    );
    assert_exactly_once(&recv, &send, 120, 8);
    assert!(send.iter().all(|&s| s == 0), "no arena, no sender copy");
}

#[test]
fn dropped_psend_returns_its_source_grant() {
    if !ipc_supported() {
        return;
    }
    // Room for two 64 KiB buffers (and their claim words) per arena:
    // twelve rounds only fit if every dropped psend and precv hand
    // their grants back.
    let arena = (2 * (64 * 1024 + 64)).to_string();
    let (recv, send) = copy_counts(
        "ipc_coop_dropped_psend_child",
        &[("PCOMM_NET_IPC_ARENA", &arena)],
    );
    assert_exactly_once(&recv, &send, 12, 4);
    assert!(
        recv.iter().all(|&r| r == 4),
        "a round fell back to copying in pready: {recv:?}"
    );
}

#[test]
fn receive_grant_without_a_source_grant_copies_in_pready() {
    if !ipc_supported() {
        return;
    }
    // The arena holds the 128 KiB receive buffer exactly, so the source
    // stays on the heap: every `pready` copies its message straight into
    // the receiver's arena grant, both orders, bit-exact.
    let arena = (8 * 16 * 1024).to_string();
    let (recv, send) = copy_counts("ipc_coop_orders_child", &[("PCOMM_NET_IPC_ARENA", &arena)]);
    assert_exactly_once(&recv, &send, 120, 8);
    assert!(
        send.iter().all(|&s| s == 8),
        "the sender must copy every message: {send:?}"
    );
}

#[test]
fn two_way_buffers_above_half_the_arena_keep_their_receive_grants() {
    if !ipc_supported() {
        return;
    }
    // Each rank's inbound arena from its peer would hold its receive
    // buffer and its send buffer to that peer, but 1.5 buffers fit. The
    // receive buffer goes first even though `psend_init` runs first: the
    // source stays on the heap and the sender copies every message into
    // the receiver's grant. Had the source taken the arena, the receive
    // buffer would have fallen back to the slab and the receiver would
    // copy.
    let arena = (3 * 8 * 16 * 1024 / 2).to_string();
    let outs = run_pair("ipc_coop_two_way_child", &[("PCOMM_NET_IPC_ARENA", &arena)]);
    for (rank, (code, out, stderr)) in outs.iter().enumerate() {
        assert_eq!(*code, 0, "rank {rank} failed\n--- stderr ---\n{stderr}");
        let counts = parse_counts(out);
        let (sent, landed) = counts.split_at(counts.len() / 2);
        assert_eq!(sent.len(), 100, "rank {rank} iterations");
        assert!(
            sent.iter().all(|&s| s == 8) && landed.iter().all(|&r| r == 0),
            "rank {rank}: psend copies {sent:?}, precv copies {landed:?}"
        );
    }
}

/// Child: a certain drop on the first published message. Both ranks
/// must come back with `MessageLost` naming that message's tag (its
/// index), never hang.
#[test]
fn ipc_coop_lost_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    let (n, pb) = (4, 4096);
    let out = Universe::new(2).with_watchdog_ms(WATCHDOG_MS).run(|comm| {
        if comm.rank() == SENDER {
            let ps = comm.psend_init(0, TAG, n, pb, PartOptions::default());
            ps.start();
            fill(&ps, 0, n, pb);
            ready_all(&ps, n);
            ps.wait();
        } else {
            let pr = comm.precv_init(SENDER, TAG, n, pb, PartOptions::default());
            pr.start();
            pr.wait();
        }
    });
    match out {
        Err(PcommError::MessageLost { src, dst, tag, .. }) => {
            assert_eq!((src, dst, tag), (SENDER, 0, 0), "message 0 is lost");
        }
        other => panic!("expected MessageLost for message 0, got {other:?}"),
    }
}

#[test]
fn certain_drop_on_an_ipc_pair_is_message_lost_for_that_message() {
    if !ipc_supported() {
        return;
    }
    let outs = run_pair(
        "ipc_coop_lost_child",
        &[("PCOMM_FAULTS", "seed=5,drop=1.0,retries=2")],
    );
    for (rank, (code, _, stderr)) in outs.iter().enumerate() {
        assert_eq!(*code, 0, "rank {rank}\n--- stderr ---\n{stderr}");
    }
}
