//! `IpcTransport`: the same-host zero-syscall fabric. Ranks map one
//! shared memory segment (memfd + `MAP_SHARED`, see
//! [`pcomm_net::ipc`]) holding, per directed pair, an SPSC descriptor
//! ring plus a FIFO slab and a partition arena. Small frames ride
//! inline in ring slots (bcopy); large rendezvous payloads stream
//! through the slab. A partitioned stream whose source and destination
//! both live in arenas moves each message with **one copy, made by
//! whichever rank is idle**: `pready` only publishes the message
//! (a claim word plus a payload-less `K_PART_READY` descriptor); the
//! receiver claims and copies it while it drains, and the sender's
//! `wait` claims and copies whatever is left, committing it with a
//! payload-less `K_PART` (see [`pcomm_net::ipc::claim`]).
//!
//! Wakeups are futex doorbells ([`pcomm_net::ipc::doorbell`]): the
//! steady state is zero syscalls per transfer (spin-then-futex on both
//! the producer's backpressure path and the consumer's idle path).
//!
//! Progress discipline: there are no reader/writer threads. The app
//! thread makes progress inline from [`Transport::wait_slice`], and a
//! single low-duty "pcomm-ipc" thread per process backstops
//! completions nobody is actively waiting on and runs the heartbeat
//! monitor (peer death becomes a typed [`PcommError::PeerPanicked`]
//! instead of a hang).
//!
//! The protocol itself — stream pairing, the range ledger and commits,
//! barriers, RMA bookkeeping, the shared frame handlers — lives in the
//! [`Session`] (see [`crate::session`]), which emits the same
//! `VerifyStream*` events for both backends; this transport supplies
//! `lane == 0` and `epoch == 0` everywhere (the segment never
//! reconnects, so there is a single always-epoch-0 lane per pair).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame};
use pcomm_net::ipc::claim;
use pcomm_net::ipc::ring::{
    Channel, SlotDesc, INLINE_MAX, K_FRAME, K_PART, K_PARTF, K_PART_CTS, K_PART_DONE, K_PART_READY,
    K_RDV, K_SLAB,
};
use pcomm_net::ipc::slab::ArenaAlloc;
use pcomm_net::ipc::{self, IpcParams, Segment};
use pcomm_net::{sys, Mesh};
use pcomm_trace::EventKind;

use crate::error::{PcommError, PeerSocketState};
use crate::fabric::{Fabric, WAIT_SLICE};
use crate::session::{
    checked_range, Link, PendingRdv, Session, StreamRecv, FINALIZE_TIMEOUT, TEARDOWN_SLICE,
};
use crate::sync::{Completion, Mutex};
use crate::transport::{complete_spans, encode_abort, PartStreamSend, SendSpan, Transport};

/// How long `wait_slice` spins making inline progress before parking on
/// the completion. Long enough to cover a same-host round trip (the
/// latency-critical window), short enough not to burn a core when the
/// peer is genuinely slow.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// Futex timeout for one backpressure wait on a full ring, ns. Short:
/// a stuck consumer is re-checked often enough that abort flags and
/// deadlines stay responsive.
const PUSH_SLICE_NS: u64 = 200_000;

/// Default heartbeat publish period when `PCOMM_NET_HB_MS` is unset.
/// A peer is declared dead after 7/4 of this with no counter movement.
const DEFAULT_HB_MS: u64 = 500;

/// Hard bound on force-pushes during teardown (abort broadcast, `Bye`):
/// past this the peer is not draining and the record is dropped — the
/// heartbeat monitor or the universe watchdog carries the diagnosis.
const TEARDOWN_PUSH_BUDGET: Duration = Duration::from_secs(1);

/// Per-peer shared-memory channel pair plus this process's send/recv
/// bookkeeping for the peer.
struct IpcPeer {
    /// Producer side of `channel(rank, peer)`. The mutex serialises
    /// producers (app threads and the progress thread both push).
    out: Mutex<Channel>,
    /// Unlocked copy of `out` for lock-free doorbell/arena reads.
    out_ch: Channel,
    /// Consumer side of `channel(peer, rank)`; `try_lock` elects one
    /// drainer at a time (app threads race the progress thread).
    inb: Mutex<Channel>,
    /// Unlocked copy of `inb` for lock-free doorbell/arena reads.
    inb_ch: Channel,
    /// Verify-mode send sequence (serialised by the `out` mutex).
    tx_seq: AtomicU32,
    /// Verify-mode receive sequence (serialised by the `inb` drainer).
    rx_seq: AtomicU32,
    /// Descriptors published toward this peer (diagnostics).
    frames_sent: AtomicU64,
    /// Descriptors drained from this peer (diagnostics).
    frames_received: AtomicU64,
    /// The peer's `Bye` arrived; its heartbeat may legitimately stop.
    saw_bye: AtomicBool,
    /// Last observed heartbeat value and when it last changed.
    hb_seen: Mutex<Option<(u64, Instant)>>,
    /// Allocator over the *inbound* channel's partition arena: grants
    /// receiver-side destinations for streams arriving from this peer,
    /// and source buffers for streams toward it (the peer reads those
    /// through its outbound channel).
    arena: Mutex<ArenaAlloc>,
}

/// One pushed range: queued while the stream's `K_PART_CTS` is still
/// in flight, or published for a cooperative copy.
#[derive(Clone, Copy)]
struct QueuedRange {
    offset: u64,
    ptr: *const u8,
    len: usize,
    parts: u16,
}

// SAFETY: the pointed-to source buffer stays alive and unmodified until
// the covering spans' `done` completions fire (fabric invariant (1)),
// and only the thread that ships the range reads through the pointer.
unsafe impl Send for QueuedRange {}

/// Sender-side state of one partitioned stream.
struct IpcStreamSend {
    dst: usize,
    total_len: usize,
    /// Bytes pushed so far; the entry retires at `total_len` once the
    /// CTS has also arrived and no published copy is open.
    pushed: usize,
    /// `None` until the `K_PART_CTS` arrives; then the receiver's arena
    /// grant (`Some(offset)`) or `None` for the FIFO-copy fallback.
    cts: Option<Option<u64>>,
    queued: Vec<QueuedRange>,
    spans: Arc<Vec<SendSpan>>,
    /// Arena offset of the source grant (in the channel from `dst` to
    /// this rank) when the source buffer lives in the segment. With an
    /// arena grant from the receiver too, ranges are published for a
    /// cooperative copy instead of copied at push.
    src: Option<u64>,
    /// The request's count of messages this rank copied.
    copies: Arc<AtomicU64>,
    /// Fires once the CTS arrived and every range queued before it has
    /// been shipped or published.
    cts_in: Arc<Completion>,
    /// Published ranges the sender's `wait` has not tried to claim yet.
    published: Vec<QueuedRange>,
    /// Published ranges whose copy has not landed yet.
    open: usize,
}

impl IpcStreamSend {
    /// What the shipping paths need of the entry, cloned out from under
    /// the `streams_out` lock.
    fn target(&self, rdv_id: u64) -> StreamTarget {
        StreamTarget {
            dst: self.dst,
            rdv_id,
            spans: Arc::clone(&self.spans),
            copies: Arc::clone(&self.copies),
        }
    }

    /// `(source grant, destination grant)` once the CTS says both
    /// buffers live in arenas: ranges are then copied cooperatively.
    fn coop(&self) -> Option<(u64, u64)> {
        match (self.src, self.cts) {
            (Some(src), Some(Some(grant))) => Some((src, grant)),
            _ => None,
        }
    }

    /// Nothing left to ship, publish or hear back about: the entry
    /// can retire.
    fn finished(&self) -> bool {
        self.cts.is_some() && self.pushed >= self.total_len && self.open == 0
    }
}

/// One partitioned stream as seen by the code that ships its ranges.
struct StreamTarget {
    dst: usize,
    rdv_id: u64,
    spans: Arc<Vec<SendSpan>>,
    copies: Arc<AtomicU64>,
}

/// A message this rank claimed while draining a `K_PART_READY`: the
/// copy (and the `K_PART_DONE` it owes the sender) runs once the
/// inbound guard is dropped.
struct CoopCopy {
    rdv_id: u64,
    stream: Arc<StreamRecv>,
    msg: usize,
    /// The message's claim word in the sender's source grant.
    word: *const AtomicU64,
    /// The message's first byte in the sender's source grant.
    src: *const u8,
}

// SAFETY: both pointers lie in the mapped segment, which outlives the
// transport; the claim just won makes this rank the only reader of the
// source range until it publishes DONE, and the sender keeps the grant
// until the `K_PART_DONE` this copy owes arrives.
unsafe impl Send for CoopCopy {}

/// The claim word of message `msg` in a source grant at `base`.
///
/// # Safety
/// `base` must point at a live source grant of more than `msg`
/// messages, 8-aligned (see [`IpcTransport::alloc_part_src`]).
unsafe fn claim_word<'a>(base: *mut u8, msg: usize) -> &'a AtomicU64 {
    // SAFETY: in bounds and aligned per the contract; the word is only
    // ever accessed atomically, by both processes.
    unsafe { &*(base.add(msg * 8) as *const AtomicU64) }
}

/// Index of the message whose span starts at `offset` (ipc ranges are
/// whole messages: `issue` pushes one per message).
fn msg_at(spans: &[SendSpan], offset: u64) -> usize {
    spans.partition_point(|s| (s.offset as u64) < offset)
}

/// Payload placement for one pushed record.
enum Body<'a> {
    /// Copied into the ring slot (`len <= INLINE_MAX`).
    Inline(&'a [u8]),
    /// Copied into the FIFO slab (anything larger, up to `fifo_bytes`).
    Slab(&'a [u8]),
}

/// A drained record whose handler may *push* (CTS answers, barrier
/// releases, get responses). Dispatching those while holding the
/// inbound guard — with the popped slot not yet recycled — can
/// deadlock two ranks symmetrically: both blocked pushing into full
/// rings, both drain passes skipping the channel they hold. So pushy
/// records are deferred until the guard drops and the slot is free;
/// everything else dispatches inline (zero extra copies).
enum Deferred {
    Frame(Frame),
    PartCts {
        rdv_id: u64,
        grant: Option<u64>,
    },
    /// Claimed inline (the claim must not outlive the popped slot, see
    /// [`IpcTransport::release_part_src`]); copied and acknowledged here.
    PartCopy(CoopCopy),
}

/// The shared-memory transport for one rank of a same-host run.
pub(crate) struct IpcTransport {
    /// The shared protocol state (see [`crate::session`]).
    session: Session,
    rank: usize,
    n_ranks: usize,
    segment: Segment,
    /// FIFO slab capacity per channel (caps one frame's body).
    fifo_bytes: u64,
    /// Chunk size for slab-staged bulk transfers (`K_RDV`/`K_PARTF`).
    rdv_chunk: usize,
    peers: Vec<Option<IpcPeer>>,
    streams_out: Mutex<HashMap<u64, IpcStreamSend>>,
    progress: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
    /// Heartbeat publish period, ms.
    hb_ms: u64,
}

impl IpcTransport {
    pub(crate) fn new(segment: Segment, rank: usize, n_ranks: usize) -> Arc<IpcTransport> {
        let params = *segment.params();
        let mut peers = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            if r == rank {
                peers.push(None);
                continue;
            }
            let out_ch = segment.channel(rank, r);
            let inb_ch = segment.channel(r, rank);
            peers.push(Some(IpcPeer {
                out: Mutex::new(out_ch),
                out_ch,
                inb: Mutex::new(inb_ch),
                inb_ch,
                tx_seq: AtomicU32::new(0),
                rx_seq: AtomicU32::new(0),
                frames_sent: AtomicU64::new(0),
                frames_received: AtomicU64::new(0),
                saw_bye: AtomicBool::new(false),
                hb_seen: Mutex::new(None),
                arena: Mutex::new(ArenaAlloc::new(params.arena_bytes)),
            }));
        }
        let fifo_bytes = params.fifo_bytes;
        Arc::new(IpcTransport {
            session: Session::new(rank, n_ranks),
            rank,
            n_ranks,
            segment,
            fifo_bytes,
            rdv_chunk: ((fifo_bytes / 2).max(1) as usize).min(256 << 10),
            peers,
            streams_out: Mutex::new(HashMap::new()),
            progress: Mutex::new(None),
            stop: AtomicBool::new(false),
            hb_ms: pcomm_net::launch::hb_ms_from_env().unwrap_or(DEFAULT_HB_MS),
        })
    }

    /// Spawn the progress/heartbeat thread. Mirrors
    /// `SocketTransport::start`.
    pub(crate) fn start(self: &Arc<IpcTransport>, fabric: &Arc<Fabric>) -> Result<(), PcommError> {
        self.beat();
        let me = Arc::clone(self);
        let fab = Arc::clone(fabric);
        let handle = std::thread::Builder::new()
            .name("pcomm-ipc".into())
            .spawn(move || me.progress_loop(&fab))
            .map_err(|e| PcommError::Misuse {
                rank: Some(self.rank),
                detail: format!("transport start: spawning ipc progress thread: {e}"),
            })?;
        *self.progress.lock() = Some(handle);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Producer side: publishing records with backpressure.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Publish one record toward `dst`, blocking on the peer's space
    /// doorbell while the ring (or FIFO) is full. Returns `false` when
    /// the push was abandoned: the run aborted (unless `force`), the
    /// transport is stopping, or `deadline` passed. The doorbell seq is
    /// snapshotted *before* each push attempt, so a consumer pop
    /// between the failed attempt and the wait rings a bell the wait
    /// observes — no lost wakeup.
    #[allow(clippy::too_many_arguments)] // one per wire-record field
    fn push_record(
        &self,
        fabric: &Fabric,
        dst: usize,
        op: u8,
        desc: SlotDesc,
        body: Body<'_>,
        deadline: Option<Instant>,
        force: bool,
    ) -> bool {
        let Some(peer) = &self.peers[dst] else {
            return false;
        };
        let mut waited_since: Option<Instant> = None;
        loop {
            let seen = peer.out_ch.space_doorbell().seq();
            let pushed = {
                let out = peer.out.lock();
                let ok = match body {
                    Body::Inline(p) => out.try_push(desc, p).is_ok(),
                    Body::Slab(p) => out.try_push_slab(desc, &[p]).is_ok(),
                };
                if ok {
                    let trace = fabric.trace();
                    if trace.is_verify() {
                        // ORDERING: Relaxed suffices — the `out` mutex
                        // already serialises every producer on this
                        // counter (same argument as the socket lanes).
                        let seq = peer.tx_seq.fetch_add(1, Ordering::Relaxed);
                        let (p16, op16) = (dst as u16, op as u16);
                        trace.emit_verify(self.rank as u16, || EventKind::VerifyWireSend {
                            peer: p16,
                            lane: 0,
                            op: op16,
                            epoch: 0,
                            seq,
                        });
                    }
                }
                ok
            };
            if pushed {
                // ORDERING: advisory stat for diagnostics snapshots.
                peer.frames_sent.fetch_add(1, Ordering::Relaxed);
                let _ = self.segment.doorbell(dst).ring();
                if let Some(since) = waited_since {
                    let (p16, kind) = (dst as u16, desc.kind);
                    let wait_ns = since.elapsed().as_nanos() as u64;
                    fabric
                        .trace()
                        .emit(self.rank as u16, || EventKind::IpcRingFull {
                            peer: p16,
                            kind,
                            wait_ns,
                        });
                }
                return true;
            }
            // Ring full: pure backpressure. Never drop; keep our own
            // inbound draining (the peer may be blocked pushing to us —
            // symmetric fullness must not deadlock), then park briefly
            // on the space doorbell.
            if !force && (fabric.aborted() || self.stop.load(Ordering::Acquire)) {
                return false;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            waited_since.get_or_insert_with(Instant::now);
            if self.progress_pass(fabric) {
                continue;
            }
            let _ = peer.out_ch.space_doorbell().wait(seen, PUSH_SLICE_NS);
        }
    }

    /// Encode and publish one control/data frame: inline when it fits a
    /// ring slot, staged through the FIFO slab otherwise. A body larger
    /// than the slab itself is user error (one unchunkable RMA put/get
    /// larger than the configured slab) and fails the universe.
    fn push_frame(
        &self,
        fabric: &Fabric,
        dst: usize,
        frame: &Frame,
        deadline: Option<Instant>,
        force: bool,
    ) -> bool {
        let mut buf = Vec::with_capacity(64);
        frame.encode_into(&mut buf);
        let body = &buf[4..]; // strip the length prefix: rings are record-framed
        let desc = SlotDesc {
            kind: if body.len() <= INLINE_MAX {
                K_FRAME
            } else {
                K_SLAB
            },
            parts: 0,
            a: 0,
            b: 0,
            c: 0,
        };
        if body.len() as u64 > self.fifo_bytes {
            fabric.fail(PcommError::misuse(
                self.rank,
                format!(
                    "ipc frame body of {} B exceeds the {}-byte FIFO slab; \
                     raise PCOMM_NET_IPC_SLAB",
                    body.len(),
                    self.fifo_bytes
                ),
            ));
            return false;
        }
        let placed = if desc.kind == K_FRAME {
            Body::Inline(body)
        } else {
            Body::Slab(body)
        };
        self.push_record(fabric, dst, frame.op(), desc, placed, deadline, force)
    }
}

// ---------------------------------------------------------------------
// Consumer side: draining records and dispatching.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Drain every peer's inbound channel once; returns whether any
    /// record was consumed.
    fn progress_pass(&self, fabric: &Fabric) -> bool {
        let mut any = false;
        for src in 0..self.n_ranks {
            if src != self.rank {
                any |= self.drain_peer(fabric, src);
            }
        }
        any
    }

    /// Whether any inbound channel holds an unpopped record.
    fn inbound_pending(&self) -> bool {
        self.peers.iter().flatten().any(|p| p.inb_ch.has_pending())
    }

    /// Drain `src`'s inbound channel until it is empty or another
    /// thread holds it. One record per lock acquisition: pushy records
    /// are dispatched *after* the guard drops and the slot is recycled
    /// (see [`Deferred`]), so a dispatch that blocks on backpressure
    /// can never wedge this channel's drain.
    fn drain_peer(&self, fabric: &Fabric, src: usize) -> bool {
        let Some(peer) = &self.peers[src] else {
            return false;
        };
        let mut any = false;
        loop {
            let mut deferred: Option<Deferred> = None;
            let popped = {
                let Some(inb) = peer.inb.try_lock() else {
                    return any; // another thread is draining this peer
                };
                let r = inb.try_pop(|desc, payload| {
                    let trace = fabric.trace();
                    if trace.is_verify() {
                        // ORDERING: Relaxed — the `inb` drainer election
                        // serialises this counter.
                        let seq = peer.rx_seq.fetch_add(1, Ordering::Relaxed);
                        let op16 = match desc.kind {
                            K_PART | K_PARTF => frame::op::PART_DATA as u16,
                            K_RDV => frame::op::RDV_DATA as u16,
                            K_PART_CTS => frame::op::PART_CTS as u16,
                            K_PART_READY => frame::op::PART_READY as u16,
                            K_PART_DONE => frame::op::PART_DONE as u16,
                            // [ver][op][body]: the op byte of the frame.
                            _ => payload.get(1).copied().unwrap_or(0) as u16,
                        };
                        let p16 = src as u16;
                        trace.emit_verify(self.rank as u16, || EventKind::VerifyWireRecv {
                            peer: p16,
                            lane: 0,
                            op: op16,
                            epoch: 0,
                            seq,
                        });
                    }
                    // ORDERING: advisory stat for diagnostics snapshots.
                    peer.frames_received.fetch_add(1, Ordering::Relaxed);
                    match desc.kind {
                        K_PART => self.handle_part_commit(
                            fabric,
                            src,
                            desc.a,
                            desc.b as usize,
                            desc.c as usize,
                        ),
                        K_PARTF => {
                            self.handle_part_fifo(fabric, src, desc.a, desc.b as usize, payload)
                        }
                        K_RDV => self.handle_rdv_chunk(
                            fabric,
                            src,
                            desc.a,
                            desc.b as usize,
                            desc.parts == 1,
                            payload,
                        ),
                        K_PART_CTS => {
                            deferred = Some(Deferred::PartCts {
                                rdv_id: desc.a,
                                grant: (desc.b != u64::MAX).then_some(desc.b),
                            });
                        }
                        K_PART_READY => {
                            deferred = self
                                .claim_ready(fabric, src, desc.a, desc.b, desc.c)
                                .map(Deferred::PartCopy);
                        }
                        K_PART_DONE => {
                            self.handle_part_done(desc.a, desc.b as usize, desc.c as usize)
                        }
                        K_FRAME | K_SLAB => match Frame::decode(payload) {
                            Ok(f) => match f {
                                // Handlers that answer with a push of
                                // their own: deferred (deadlock rule).
                                Frame::Cts { .. }
                                | Frame::Rts { .. }
                                | Frame::PartRts { .. }
                                | Frame::PartCts { .. }
                                | Frame::GetReq { .. }
                                | Frame::BarrierArrive { .. } => {
                                    deferred = Some(Deferred::Frame(f))
                                }
                                f => self.dispatch_frame(fabric, src, f),
                            },
                            Err(e) => fabric.fail(PcommError::misuse(
                                src,
                                format!("undecodable ipc frame record: {e}"),
                            )),
                        },
                        k => fabric.fail(PcommError::misuse(
                            src,
                            format!("unknown ipc slot kind {k}"),
                        )),
                    }
                });
                match r {
                    Ok(p) => p,
                    Err(e) => {
                        fabric.fail(PcommError::misuse(
                            src,
                            format!("corrupt ipc ring from rank {src}: {e}"),
                        ));
                        return any;
                    }
                }
            };
            if !popped {
                return any;
            }
            any = true;
            match deferred {
                Some(Deferred::Frame(f)) => self.dispatch_frame(fabric, src, f),
                Some(Deferred::PartCts { rdv_id, grant }) => {
                    self.handle_part_cts(fabric, src, rdv_id, grant)
                }
                Some(Deferred::PartCopy(copy)) => self.coop_copy(fabric, src, copy),
                None => {}
            }
        }
    }

    /// Dispatch one decoded frame (the non-ring-native records; bulk
    /// data uses the `K_*` descriptor kinds instead): the session takes
    /// the shared protocol, this transport the rest.
    fn dispatch_frame(&self, fabric: &Fabric, peer: usize, frame: Frame) {
        match self.session.dispatch(self, fabric, peer, frame) {
            Some(Frame::Cts { rdv_id }) => self.handle_cts(fabric, peer, rdv_id),
            // The ipc CTS is the payload-less `K_PART_CTS` record; a
            // framed one would be a peer protocol bug, but absorbing it
            // as "no grant" keeps the FSM total.
            Some(Frame::PartCts { rdv_id }) => self.handle_part_cts(fabric, peer, rdv_id, None),
            Some(Frame::PartData {
                rdv_id,
                offset,
                payload,
            }) => self.handle_part_fifo(fabric, peer, rdv_id, offset as usize, &payload),
            Some(Frame::Bye) => {
                if let Some(p) = &self.peers[peer] {
                    p.saw_bye.store(true, Ordering::Release);
                }
            }
            // Heartbeats ride the segment counter instead, and shared
            // memory never loses ranges to resync.
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Rendezvous: RTS/CTS handshake, then K_RDV chunks through the slab.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Sender: the CTS arrived — stream the pinned source through the
    /// FIFO slab in `rdv_chunk` pieces and complete the send. The ring
    /// is SPSC and ordered, so chunks land in order and the receiver
    /// can count bytes instead of tracking ranges.
    fn handle_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64) {
        let Some(pending) = self.session.take_pending_rdv(fabric, rdv_id) else {
            return; // duplicate, post-abort straggler, or unwinding
        };
        let PendingRdv { pinned, dst } = pending;
        debug_assert_eq!(dst, peer, "CTS must come from the RTS target");
        if pinned.len == 0 {
            // Zero-length rendezvous: no bytes to chunk; a framed
            // RdvData completes the posted receive envelope.
            if self.push_frame(
                fabric,
                dst,
                &Frame::RdvData {
                    rdv_id,
                    payload: Vec::new(),
                },
                None,
                false,
            ) {
                pinned.done.set();
            }
            return;
        }
        let mut off = 0usize;
        while off < pinned.len {
            let n = self.rdv_chunk.min(pinned.len - off);
            // SAFETY: invariant (1) — the pinned source stays alive and
            // unmodified until `done` fires below; `off + n <= len`.
            let chunk = unsafe { std::slice::from_raw_parts(pinned.ptr.add(off), n) };
            let desc = SlotDesc {
                kind: K_RDV,
                parts: u16::from(off + n == pinned.len),
                a: rdv_id,
                b: off as u64,
                c: 0,
            };
            if !self.push_record(
                fabric,
                dst,
                frame::op::RDV_DATA,
                desc,
                Body::Slab(chunk),
                None,
                false,
            ) {
                return; // aborted mid-stream: unwind via the abort flag
            }
            off += n;
        }
        pinned.done.set();
    }

    /// Receiver: one in-order `K_RDV` chunk — copy it straight into the
    /// posted destination and, on the final chunk, publish the envelope.
    fn handle_rdv_chunk(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        is_final: bool,
        payload: &[u8],
    ) {
        let mut rdv_in = self.session.remote_recvs.lock();
        let Some(entry) = rdv_in.get_mut(&(src, rdv_id)) else {
            return; // post-abort straggler
        };
        if fabric.aborted() {
            rdv_in.remove(&(src, rdv_id));
            return;
        }
        let what = "ipc rendezvous chunk";
        if let Err(err) = checked_range(src, what, offset, payload.len(), entry.posted.dest_cap) {
            rdv_in.remove(&(src, rdv_id));
            drop(rdv_in);
            fabric.fail(err);
            return;
        }
        // SAFETY: invariant (2) — the posted destination is exclusive
        // and stays alive until its completion fires; the bound was
        // checked above, and the SPSC ring serialises chunk writers.
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                entry.posted.dest_ptr.add(offset),
                payload.len(),
            );
        }
        entry.received += payload.len();
        if is_final {
            let total = entry.received;
            // PANIC: the entry was fetched from this map three lines up
            // under the same guard.
            let entry = rdv_in.remove(&(src, rdv_id)).expect("entry held above");
            drop(rdv_in);
            fabric.complete_remote_rdv_in_place(
                entry.posted,
                src,
                entry.tag,
                entry.shard,
                total,
                entry.rts_ns,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Partitioned streams: arena zero-copy commits, FIFO fallback.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Sender: the receiver pinned its destination — release every
    /// queued range under the arrived grant: publish it for a
    /// cooperative copy when both buffers live in arenas, else ship it.
    fn handle_part_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64, grant: Option<u64>) {
        if fabric.aborted() {
            return;
        }
        self.session.cts_arrived(self, fabric, peer, rdv_id);
        let (target, queued, coop, cts_in) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&rdv_id) else {
                return; // duplicate or post-abort straggler
            };
            stream.cts = Some(grant);
            let queued = std::mem::take(&mut stream.queued);
            let coop = stream.coop().map(|(src, _)| src);
            if coop.is_some() {
                stream.open += queued.len();
                stream.published.extend_from_slice(&queued);
            }
            let target = stream.target(rdv_id);
            let cts_in = Arc::clone(&stream.cts_in);
            if stream.finished() {
                out.remove(&rdv_id);
            }
            (target, queued, coop, cts_in)
        };
        debug_assert_eq!(
            target.dst, peer,
            "PartCts must come from the stream's receiver"
        );
        for q in queued {
            match coop {
                Some(src) => self.publish_range(fabric, &target, src, q),
                None => self.ship_range(fabric, &target, grant, q),
            }
        }
        cts_in.set();
    }

    /// Sender: put one ready range in the receiver's hands. With a
    /// grant: copy once into the shared arena destination and commit.
    /// Without: stage `K_PARTF` chunks through the FIFO slab.
    fn ship_range(
        &self,
        fabric: &Fabric,
        target: &StreamTarget,
        grant: Option<u64>,
        q: QueuedRange,
    ) {
        let (dst, rdv_id) = (target.dst, target.rdv_id);
        let QueuedRange {
            offset,
            ptr,
            len,
            parts,
        } = q;
        match grant {
            Some(g) => {
                let Some(peer) = &self.peers[dst] else {
                    return;
                };
                // SAFETY: the receiver granted `g .. g + total_len` of
                // the outbound channel's arena to this stream and will
                // not read `offset..offset+len` of it until the K_PART
                // below publishes; the source side is invariant (1).
                unsafe {
                    std::ptr::copy_nonoverlapping(ptr, peer.out_ch.arena_ptr(g + offset), len);
                }
                self.commit_copied(fabric, target, q);
            }
            None => {
                let mut done = 0usize;
                while done < len {
                    let n = self.rdv_chunk.min(len - done);
                    // SAFETY: invariant (1) — the source stays pinned
                    // until the covering spans complete below.
                    let chunk = unsafe { std::slice::from_raw_parts(ptr.add(done), n) };
                    self.emit_tx_data(fabric, target, offset + done as u64, n);
                    let desc = SlotDesc {
                        kind: K_PARTF,
                        parts: if done + n == len { parts } else { 0 },
                        a: rdv_id,
                        b: offset + done as u64,
                        c: 0,
                    };
                    if !self.push_record(
                        fabric,
                        dst,
                        frame::op::PART_DATA,
                        desc,
                        Body::Slab(chunk),
                        None,
                        false,
                    ) {
                        return; // aborted mid-stream
                    }
                    complete_spans(&target.spans, (offset + done as u64) as usize, n);
                    done += n;
                }
            }
        }
    }

    /// Sender: this rank copied range `q` into the receiver's granted
    /// arena destination — publish a payload-less `K_PART` (the
    /// receiver commits in place: no second copy, no reader-thread hop)
    /// and release the covered spans.
    fn commit_copied(&self, fabric: &Fabric, target: &StreamTarget, q: QueuedRange) {
        self.emit_tx_data(fabric, target, q.offset, q.len);
        let desc = SlotDesc {
            kind: K_PART,
            parts: q.parts,
            a: target.rdv_id,
            b: q.offset,
            c: q.len as u64,
        };
        if self.push_record(
            fabric,
            target.dst,
            frame::op::PART_DATA,
            desc,
            Body::Inline(&[]),
            None,
            false,
        ) {
            // ORDERING: statistic; read after the iteration's waits.
            target.copies.fetch_add(1, Ordering::Relaxed);
            complete_spans(&target.spans, q.offset as usize, q.len);
        }
    }

    /// Sender: the ledger event for bytes put at the receiver's
    /// disposal (shipped, committed, or published for a copy).
    fn emit_tx_data(&self, fabric: &Fabric, target: &StreamTarget, offset: u64, len: usize) {
        let (dst, rdv_id) = (target.dst, target.rdv_id);
        self.session
            .emit_data_tx(fabric, dst, 0, rdv_id, offset, len);
    }

    /// Sender: publish ready range `q` (one whole message) for a
    /// cooperative copy out of the source grant at arena offset `src`:
    /// READY in its claim word, then a payload-less `K_PART_READY`.
    /// Whichever rank claims it first makes the one copy.
    fn publish_range(&self, fabric: &Fabric, target: &StreamTarget, src: u64, q: QueuedRange) {
        let (dst, rdv_id) = (target.dst, target.rdv_id);
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let msg = msg_at(&target.spans, q.offset);
        // SAFETY: `src` is this stream's source grant in the inbound
        // arena (`alloc_part_src` sized its header for every message and
        // checked alignment); the grant outlives the stream.
        let word = unsafe { claim_word(peer.inb_ch.arena_ptr(src), msg) };
        self.emit_tx_data(fabric, target, q.offset, q.len);
        if let Err(w) = claim::publish(word, rdv_id) {
            fabric.fail(PcommError::misuse(
                self.rank,
                format!(
                    "partitioned message {msg} republished while its claim word reads \
                     {w:#x}: the previous copy has not landed"
                ),
            ));
            return;
        }
        let desc = SlotDesc {
            kind: K_PART_READY,
            parts: q.parts,
            a: rdv_id,
            b: src,
            c: msg as u64,
        };
        self.push_record(
            fabric,
            dst,
            frame::op::PART_READY,
            desc,
            Body::Inline(&[]),
            None,
            false,
        );
    }

    /// Sender: the receiver's cooperative copy of `offset..offset+len`
    /// landed — release the covered spans.
    fn handle_part_done(&self, rdv_id: u64, offset: usize, len: usize) {
        let spans = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&rdv_id) else {
                return; // post-abort straggler
            };
            stream.open = stream.open.saturating_sub(1);
            let spans = Arc::clone(&stream.spans);
            if stream.finished() {
                out.remove(&rdv_id);
            }
            spans
        };
        complete_spans(&spans, offset, len);
    }

    /// Receiver, inline while draining a `K_PART_READY`: try to claim
    /// message `msg` of stream `rdv_id`, whose source grant sits at
    /// arena offset `grant` of the channel back to `src`. The claim
    /// happens before the slot is popped, so no claim attempt on a
    /// grant outlives its descriptor.
    fn claim_ready(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        grant: u64,
        msg: u64,
    ) -> Option<CoopCopy> {
        if fabric.aborted() {
            return None;
        }
        let stream = self
            .session
            .streams_in
            .lock()
            .get(&(src, rdv_id))
            .cloned()?;
        let peer = self.peers[src].as_ref()?;
        let hdr = claim::header_bytes(stream.msgs.len());
        let arena = &peer.out_ch;
        let fits = (msg as usize) < stream.msgs.len()
            && grant.is_multiple_of(64)
            && grant
                .checked_add(hdr + stream.total_len as u64)
                .is_some_and(|end| end <= arena.arena_bytes());
        if !fits {
            fabric.fail(PcommError::misuse(
                src,
                format!(
                    "corrupt partition publish: message {msg} of a {}-message stream \
                     at arena offset {grant}",
                    stream.msgs.len()
                ),
            ));
            return None;
        }
        let m = msg as usize;
        // SAFETY: bounds checked above.
        let base = unsafe { arena.arena_ptr(grant) };
        if !(base as usize).is_multiple_of(8) {
            fabric.fail(PcommError::misuse(
                src,
                format!("partition publish names an unaligned claim word at {grant}"),
            ));
            return None;
        }
        // SAFETY: in bounds and aligned, checked above.
        let word = unsafe { claim_word(base, m) };
        if !claim::try_claim(word, rdv_id) {
            return None; // the sender's wait took it
        }
        Some(CoopCopy {
            rdv_id,
            msg: m,
            word,
            // SAFETY: inside the grant, checked above.
            src: unsafe { base.add((hdr as usize) + stream.msgs[m].offset) },
            stream,
        })
    }

    /// Receiver: make the copy claimed in [`Self::claim_ready`] — move
    /// the message into the pinned destination, mark it DONE, commit
    /// it, and tell the sender its span is free (`K_PART_DONE`).
    fn coop_copy(&self, fabric: &Fabric, src: usize, copy: CoopCopy) {
        if fabric.aborted() {
            return; // both sides unwind; the sender keeps its grant
        }
        let msg = &copy.stream.msgs[copy.msg];
        // SAFETY: the won claim makes this rank the only reader of the
        // source range until DONE; the destination range belongs to the
        // stream until its completion fires below (invariant (1)).
        unsafe {
            std::ptr::copy_nonoverlapping(copy.src, copy.stream.base.add(msg.offset), msg.len);
            claim::finish(&*copy.word, copy.rdv_id);
        }
        let (stream, rdv_id) = (&copy.stream, copy.rdv_id);
        let landed = self
            .session
            .commit_range(fabric, src, 0, rdv_id, stream, msg.offset, msg.len);
        // ORDERING: statistic; read after the iteration's waits.
        copy.stream.copies.fetch_add(landed, Ordering::Relaxed);
        let desc = SlotDesc {
            kind: K_PART_DONE,
            parts: 0,
            a: copy.rdv_id,
            b: msg.offset as u64,
            c: msg.len as u64,
        };
        self.push_record(
            fabric,
            src,
            frame::op::PART_DONE,
            desc,
            Body::Inline(&[]),
            None,
            false,
        );
    }

    /// Receiver: a zero-copy `K_PART` commit — the bytes are already in
    /// the pinned destination (the sender wrote the granted arena range
    /// directly); only the bookkeeping remains.
    fn handle_part_commit(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
    ) {
        let Some(stream) = self.session.stream_range(fabric, src, rdv_id, offset, len) else {
            return;
        };
        self.session
            .commit_range(fabric, src, 0, rdv_id, &stream, offset, len);
    }

    /// Receiver: a FIFO-staged `K_PARTF` range — copy it into the
    /// pinned destination, then commit.
    fn handle_part_fifo(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        payload: &[u8],
    ) {
        let len = payload.len();
        let Some(stream) = self.session.stream_range(fabric, src, rdv_id, offset, len) else {
            return;
        };
        // SAFETY: the range was validated against `total_len` above,
        // the destination stays pinned until the stream's completions
        // fire (invariant (1)), and every byte belongs to exactly one
        // record on this SPSC ring, so writes never alias.
        unsafe {
            std::ptr::copy_nonoverlapping(payload.as_ptr(), stream.base.add(offset), payload.len());
        }
        let landed = self
            .session
            .commit_range(fabric, src, 0, rdv_id, &stream, offset, len);
        // ORDERING: statistic; read after the iteration's waits.
        stream.copies.fetch_add(landed, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Barrier, progress loop, heartbeat monitor, teardown.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// The "pcomm-ipc" thread body: drain inbound channels, publish the
    /// heartbeat, watch peers' heartbeats, and park on this rank's
    /// doorbell while idle. App threads waiting in `wait_slice` do the
    /// latency-critical progress inline; this thread is the backstop
    /// for completions nobody is spinning on.
    fn progress_loop(self: &Arc<IpcTransport>, fabric: &Arc<Fabric>) {
        let tick = Duration::from_millis((self.hb_ms / 4).max(1));
        let tick_ns = tick.as_nanos() as u64;
        let mut last_tick = Instant::now();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if last_tick.elapsed() >= tick {
                self.heartbeat_tick(fabric);
                last_tick = Instant::now();
            }
            if self.progress_pass(fabric) {
                continue;
            }
            let bell = self.segment.doorbell(self.rank);
            let seen = bell.seq();
            // Re-check after the snapshot: a producer that pushed and
            // rang between the drain above and here bumped the bell, so
            // the wait below would return immediately anyway — this
            // just skips the syscall.
            if self.progress_pass(fabric) {
                continue;
            }
            let woken = bell.wait(seen, tick_ns).unwrap_or(false);
            fabric
                .trace()
                .emit(self.rank as u16, || EventKind::IpcDoorbell {
                    seq: seen,
                    woken,
                });
        }
    }

    /// Publish this rank's liveness: one tick of its heartbeat word.
    fn beat(&self) {
        let word = self.segment.heartbeat(self.rank);
        // ORDERING: liveness counter only; peers poll for movement, no
        // memory is published through it.
        word.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish this rank's liveness and check every attached peer's:
    /// a heartbeat word that has not moved for 7/4 heartbeat periods
    /// while the peer never said `Bye` means its process died mid-run.
    fn heartbeat_tick(&self, fabric: &Fabric) {
        self.beat();
        let stale_after = Duration::from_millis(self.hb_ms * 7 / 4);
        for (r, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.saw_bye.load(Ordering::Acquire) {
                continue;
            }
            // ORDERING: attach flag is a rendezvous latch; Acquire pairs
            // with the attaching store so a set flag implies the peer's
            // mapping (and first heartbeat) exists.
            if self.segment.attached(r).load(Ordering::Acquire) == 0 {
                continue;
            }
            // ORDERING: liveness counter (see above).
            let val = self.segment.heartbeat(r).load(Ordering::Relaxed);
            let mut seen = peer.hb_seen.lock();
            match *seen {
                Some((prev, since)) if prev == val => {
                    if since.elapsed() >= stale_after
                        && !fabric.aborted()
                        && !self.stop.load(Ordering::Acquire)
                    {
                        fabric.fail(PcommError::PeerPanicked {
                            rank: r,
                            message: format!(
                                "ipc heartbeat from rank {r} stale for {} ms (bound {} ms): \
                                 the peer process likely died; tune PCOMM_NET_HB_MS to adjust \
                                 detection latency",
                                since.elapsed().as_millis(),
                                stale_after.as_millis()
                            ),
                        });
                    }
                }
                _ => *seen = Some((val, Instant::now())),
            }
        }
    }

    /// Shut the fabric down after the rank's closure returned. Clean
    /// runs pass a closing barrier first (nobody quits while a peer
    /// might still need them), then exchange `Bye` records and keep
    /// draining until every peer's `Bye` arrived — both sides drain, so
    /// the `Bye`s always flow. Aborted runs broadcast the abort and
    /// force-push `Bye` under a hard budget. Never unwinds.
    pub(crate) fn finalize(&self, fabric: &Fabric) {
        self.session.finalize_barrier(self, fabric, |completion| {
            if !self.progress_pass(fabric) {
                completion.wait_timeout(TEARDOWN_SLICE);
            }
        });
        if fabric.aborted() {
            if let Some(err) = fabric.failure_snapshot() {
                self.broadcast_abort(fabric, &err);
            }
        }
        let bye_deadline = Instant::now() + TEARDOWN_PUSH_BUDGET;
        for peer in 0..self.n_ranks {
            if peer != self.rank {
                self.push_frame(fabric, peer, &Frame::Bye, Some(bye_deadline), true);
            }
        }
        // Clean path: drain until every peer said goodbye, so no peer
        // blocks pushing its own Bye into a full ring we abandoned.
        if !fabric.aborted() {
            let deadline = Instant::now() + FINALIZE_TIMEOUT;
            loop {
                let all_bye = self
                    .peers
                    .iter()
                    .flatten()
                    .all(|p| p.saw_bye.load(Ordering::Acquire));
                if all_bye || fabric.aborted() || Instant::now() >= deadline {
                    break;
                }
                if !self.progress_pass(fabric) {
                    std::thread::sleep(TEARDOWN_SLICE);
                }
            }
        }
        self.stop.store(true, Ordering::Release);
        let _ = self.segment.doorbell(self.rank).ring();
        if let Some(handle) = self.progress.lock().take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// The Transport implementation.
// ---------------------------------------------------------------------

/// The ipc byte mover as the session sees it.
impl Link for IpcTransport {
    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame) {
        self.push_frame(fabric, dst, &frame, None, false);
    }

    /// Answer with a `K_PART_CTS` carrying the arena grant (zero-copy)
    /// or `u64::MAX` (FIFO fallback: the destination is ordinary heap
    /// memory the sender cannot reach). The grant is the destination's
    /// base offset when it lies inside the inbound channel's partition
    /// arena (it was handed out by `alloc_part_dest`), so every `pready`
    /// commits bytes straight into it.
    fn send_part_cts(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        _: bool,
    ) {
        let grant = self.peers[src].as_ref().and_then(|peer| {
            let arena_bytes = peer.inb_ch.arena_bytes();
            if arena_bytes == 0 {
                return None;
            }
            // SAFETY: offset 0 of a non-empty arena is in bounds; the
            // pointer is only used for address arithmetic.
            let a0 = unsafe { peer.inb_ch.arena_ptr(0) } as usize;
            let base = stream.base as usize;
            (base >= a0 && base + stream.total_len <= a0 + arena_bytes as usize)
                .then(|| (base - a0) as u64)
        });
        let desc = SlotDesc {
            kind: K_PART_CTS,
            parts: 0,
            a: rdv_id,
            b: grant.unwrap_or(u64::MAX),
            c: 0,
        };
        let op = frame::op::PART_CTS;
        self.push_record(fabric, src, op, desc, Body::Inline(&[]), None, false);
    }

    fn verify_epoch(&self, _: usize) -> u32 {
        0 // the segment never reconnects
    }
}

impl Transport for IpcTransport {
    fn session(&self) -> &Session {
        &self.session
    }

    fn part_stream_begin(
        &self,
        fabric: &Fabric,
        dst: usize,
        ctx: u64,
        send: PartStreamSend,
    ) -> u64 {
        let PartStreamSend {
            total_len,
            spans,
            src_grant,
            copies,
        } = send;
        let rdv_id = self.session.next_id();
        // Register before the RTS leaves so a fast K_PART_CTS finds us.
        self.streams_out.lock().insert(
            rdv_id,
            IpcStreamSend {
                dst,
                total_len,
                pushed: 0,
                cts: None,
                queued: Vec::new(),
                spans: Arc::new(spans),
                src: src_grant,
                copies,
                cts_in: Completion::new(),
                published: Vec::new(),
                open: 0,
            },
        );
        let total_len = total_len as u64;
        self.send(
            fabric,
            dst,
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            },
        );
        rdv_id
    }

    fn part_stream_push(
        &self,
        fabric: &Fabric,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    ) {
        let q = QueuedRange {
            offset,
            ptr: data.as_ptr(),
            len: data.len(),
            parts,
        };
        let (target, grant, coop) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&stream_id) else {
                return; // post-abort straggler
            };
            stream.pushed += data.len();
            let Some(grant) = stream.cts else {
                // The CTS handler drains `queued` when it arrives.
                stream.queued.push(q);
                return;
            };
            let coop = stream.coop().map(|(src, _)| src);
            if coop.is_some() {
                stream.open += 1;
                stream.published.push(q);
            }
            let target = stream.target(stream_id);
            if stream.finished() {
                out.remove(&stream_id);
            }
            (target, grant, coop)
        };
        match coop {
            Some(src) => self.publish_range(fabric, &target, src, q),
            None => self.ship_range(fabric, &target, grant, q),
        }
    }

    fn part_stream_help(&self, fabric: &Fabric, rank: usize, stream_id: u64) {
        let cts_in = {
            let out = self.streams_out.lock();
            match out.get(&stream_id) {
                Some(stream) if stream.src.is_some() => Arc::clone(&stream.cts_in),
                _ => return, // retired, or `pready` copies itself
            }
        };
        // Nothing is published before the CTS: wait for it, then claim.
        fabric.wait_on(&cts_in, rank, || {
            (
                format!("partitioned stream {stream_id} CTS wait"),
                None,
                None,
            )
        });
        let (target, src, grant, published) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&stream_id) else {
                return; // every copy already landed
            };
            let Some((src, grant)) = stream.coop() else {
                return; // no arena destination: `pready` shipped through the FIFO
            };
            let published = std::mem::take(&mut stream.published);
            (stream.target(stream_id), src, grant, published)
        };
        let Some(peer) = &self.peers[target.dst] else {
            return;
        };
        // Claim from the back: the receiver drains descriptors from the
        // front, so the two copiers rarely race for one message.
        for q in published.into_iter().rev() {
            let msg = msg_at(&target.spans, q.offset);
            // SAFETY: as in `publish_range` — the grant outlives the
            // stream and holds a claim word per message.
            let word = unsafe { claim_word(peer.inb_ch.arena_ptr(src), msg) };
            if !claim::try_claim(word, stream_id) {
                continue; // the receiver took it; its K_PART_DONE will land
            }
            if fabric.aborted() {
                return;
            }
            // SAFETY: the receiver's grant covers the stream (as in
            // `ship_range`), the won claim makes this the only copy of
            // the range, and the source is invariant (1).
            unsafe {
                std::ptr::copy_nonoverlapping(
                    q.ptr,
                    peer.out_ch.arena_ptr(grant + q.offset),
                    q.len,
                );
            }
            claim::finish(word, stream_id);
            self.commit_copied(fabric, &target, q);
            let mut out = self.streams_out.lock();
            if let Some(stream) = out.get_mut(&stream_id) {
                stream.open -= 1;
                if stream.finished() {
                    out.remove(&stream_id);
                }
            }
        }
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
        let pending = self.session.pending_rdv.lock();
        let streams = self.streams_out.lock();
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(rank, peer)| {
                let peer = peer.as_ref()?;
                let quiet_ms = peer
                    .hb_seen
                    .lock()
                    .map(|(_, since)| since.elapsed().as_millis() as u64)
                    .unwrap_or(0);
                Some(PeerSocketState {
                    peer: rank,
                    connected: self.segment.attached(rank).load(Ordering::Acquire) != 0
                        && !peer.saw_bye.load(Ordering::Acquire),
                    // ORDERING: advisory stats for the racy snapshot.
                    frames_sent: peer.frames_sent.load(Ordering::Relaxed),
                    // ORDERING: advisory stats for the racy snapshot.
                    frames_received: peer.frames_received.load(Ordering::Relaxed),
                    pending_rdv: pending.values().filter(|p| p.dst == rank).count()
                        + streams.values().filter(|s| s.dst == rank).count(),
                    queued: 0,     // no writer queues: producers push inline
                    lanes_down: 0, // a mapped segment has no lanes to lose
                    quiet_ms,
                })
            })
            .collect()
    }

    fn broadcast_abort(&self, fabric: &Fabric, err: &PcommError) {
        if !self.session.first_abort() {
            return;
        }
        let frame = encode_abort(err);
        let deadline = Instant::now() + TEARDOWN_PUSH_BUDGET;
        for peer in (0..self.n_ranks).filter(|&p| p != self.rank) {
            self.push_frame(fabric, peer, &frame, Some(deadline), true);
        }
    }

    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        if completion.is_set() {
            return true;
        }
        // Spin with inline progress first: the same-host round trip is
        // microseconds, and handing it to the progress thread would add
        // two context switches. While this thread spins, peers' rings
        // skip waking that thread (the doorbell's spinners word). Past
        // the window, park — the doorbell wakes the progress thread,
        // which completes us.
        let spin_until = Instant::now() + SPIN_WINDOW;
        let done = self.segment.doorbell(self.rank).spin(
            || loop {
                if completion.is_set() {
                    break true;
                }
                if !self.progress_pass(fabric) {
                    if Instant::now() >= spin_until {
                        break false;
                    }
                    std::thread::yield_now();
                }
            },
            // A record pushed while this thread spun may have skipped
            // its wake: take it now, and wake the progress thread for
            // anything that arrives meanwhile.
            || self.inbound_pending(),
            || self.progress_pass(fabric),
        );
        done || completion.wait_timeout(WAIT_SLICE)
    }

    fn alloc_part_dest(&self, src: usize, len: usize) -> Option<(u64, *mut u8)> {
        if len == 0 {
            return None;
        }
        let peer = self.peers[src].as_ref()?;
        if (len as u64) > peer.inb_ch.arena_bytes() {
            return None;
        }
        let off = peer.arena.lock().alloc(len as u64)?;
        // SAFETY: `alloc` returned a range inside `0..arena_bytes`; the
        // receiver owns it until `release_part_dest`.
        Some((off, unsafe { peer.inb_ch.arena_ptr(off) }))
    }

    fn release_part_dest(&self, src: usize, token: u64, len: usize) {
        if let Some(peer) = self.peers[src].as_ref() {
            peer.arena.lock().release(token, len as u64);
        }
    }

    fn alloc_part_src(&self, dst: usize, n_msgs: usize, len: usize) -> Option<(u64, *mut u8)> {
        let peer = self.peers[dst].as_ref()?;
        let arena_bytes = peer.inb_ch.arena_bytes();
        let total = claim::header_bytes(n_msgs) + len as u64;
        if len == 0 || total > arena_bytes {
            return None;
        }
        // SAFETY: offset 0 of a non-empty arena is in bounds; the
        // pointer is only used for its address.
        if !(unsafe { peer.inb_ch.arena_ptr(0) } as usize).is_multiple_of(8) {
            return None; // claim words need 8-aligned memory
        }
        // Receive buffers come first: a source takes arena room only
        // while a receive buffer as large as itself would still fit.
        let off = peer.arena.lock().alloc_keeping(total, len as u64)?;
        // SAFETY: `alloc_keeping` returned `off..off+total` inside the arena,
        // owned by this rank until `release_part_src`; the peer reads it
        // only through published claims.
        unsafe {
            let base = peer.inb_ch.arena_ptr(off);
            std::ptr::write_bytes(base, 0, claim::header_bytes(n_msgs) as usize);
            Some((off, base.add(claim::header_bytes(n_msgs) as usize)))
        }
    }

    fn release_part_src(&self, fabric: &Fabric, dst: usize, token: u64, n_msgs: usize, len: usize) {
        let Some(peer) = self.peers[dst].as_ref() else {
            return;
        };
        // A `K_PART_READY` still in the ring would make the peer try a
        // claim on this range after it is reused: wait until the peer
        // popped every record pushed so far (claims happen before the
        // pop). After an abort, or if the peer stops draining, keep the
        // grant — a leaked range is harmless, a reused one is not.
        let mark = peer.out.lock().pushed();
        let deadline = Instant::now() + FINALIZE_TIMEOUT;
        while !peer.out_ch.consumed_through(mark) {
            if fabric.aborted() || self.stop.load(Ordering::Acquire) || Instant::now() >= deadline {
                return;
            }
            if !self.progress_pass(fabric) {
                std::thread::yield_now();
            }
        }
        if fabric.aborted() {
            return;
        }
        let total = claim::header_bytes(n_msgs) + len as u64;
        peer.arena.lock().release(token, total);
    }
}

// ---------------------------------------------------------------------
// Bootstrap: segment fd exchange over the already-established mesh.
// ---------------------------------------------------------------------

/// Create (rank 0) or attach (everyone else) the shared segment,
/// passing the memfd over the mesh's lane-0 Unix sockets with
/// `SCM_RIGHTS`. Rank 0 waits for a one-byte ACK from every peer
/// before returning, so no rank starts pushing before every mapping
/// exists (the heartbeat monitor keys off the attach flags the ACKs
/// order). Consumes nothing from the mesh — the sockets stay open (and
/// are dropped by the caller once the transport is built).
pub(crate) fn bootstrap(mesh: &mut Mesh, params: IpcParams) -> Result<Segment, PcommError> {
    let misuse = |rank: usize, what: &str, e: std::io::Error| PcommError::Misuse {
        rank: Some(rank),
        detail: format!("ipc bootstrap: {what}: {e}"),
    };
    let (rank, n_ranks) = (mesh.rank, mesh.n_ranks);
    let lane0 = |mesh: &mut Mesh, r: usize| -> Result<usize, PcommError> {
        match mesh.peers[r].as_ref().and_then(|eps| eps.first()) {
            Some(ep) => ep.raw_fd().ok_or_else(|| PcommError::Misuse {
                rank: Some(rank),
                detail: "ipc bootstrap: fd passing needs a Unix-socket mesh \
                         (PCOMM_NET_BACKEND=uds)"
                    .into(),
            }),
            None => Err(PcommError::Misuse {
                rank: Some(rank),
                detail: format!("ipc bootstrap: no mesh endpoint toward rank {r}"),
            }),
        }
        .map(|fd| fd as usize)
    };
    // Bounded reads: a peer that dies mid-bootstrap becomes a typed
    // error, not a hang.
    for r in 0..n_ranks {
        if let Some(eps) = mesh.peers[r].as_ref() {
            if let Some(ep) = eps.first() {
                let _ = ep.set_read_timeout(Some(pcomm_net::mesh::ESTABLISH_TIMEOUT));
            }
        }
    }
    let segment = if rank == 0 {
        let (segment, fd) =
            Segment::create(params).map_err(|e| misuse(rank, "creating the segment", e))?;
        // ORDERING: attach latch — Release pairs with the monitors'
        // Acquire loads so a set flag implies a live mapping.
        segment.attached(0).store(1, Ordering::Release);
        for r in 1..n_ranks {
            let sock = lane0(mesh, r)? as i32;
            ipc::send_segment_fd(sock, fd, 0)
                .map_err(|e| misuse(rank, "passing the segment fd", e))?;
        }
        // Collect one ACK byte per peer: after this, every rank is
        // mapped and no push can outrun an attach.
        for r in 1..n_ranks {
            let mut byte = [0u8; 1];
            let ep = mesh.peers[r]
                .as_mut()
                .and_then(|eps| eps.first_mut())
                // PANIC: `lane0` above already proved the endpoint exists.
                .expect("endpoint checked above");
            ep.read_exact(&mut byte)
                .map_err(|e| misuse(rank, "waiting for a peer's attach ACK", e))?;
        }
        let _ = sys::close(fd);
        segment
    } else {
        let sock = lane0(mesh, 0)? as i32;
        let (fd, from) =
            ipc::recv_segment_fd(sock).map_err(|e| misuse(rank, "receiving the segment fd", e))?;
        if from != 0 {
            let _ = sys::close(fd);
            return Err(PcommError::Misuse {
                rank: Some(rank),
                detail: format!("ipc bootstrap: segment fd came from rank {from}, expected 0"),
            });
        }
        let segment =
            Segment::attach(fd, params).map_err(|e| misuse(rank, "attaching the segment", e))?;
        let _ = sys::close(fd);
        // ORDERING: attach latch (see above).
        segment.attached(rank).store(1, Ordering::Release);
        let ep = mesh.peers[0]
            .as_mut()
            .and_then(|eps| eps.first_mut())
            // PANIC: `lane0` above already proved the endpoint exists.
            .expect("endpoint checked above");
        ep.write_all(&[1u8])
            .map_err(|e| misuse(rank, "sending the attach ACK", e))?;
        segment
    };
    for r in 0..n_ranks {
        if let Some(eps) = mesh.peers[r].as_ref() {
            if let Some(ep) = eps.first() {
                let _ = ep.set_read_timeout(None);
            }
        }
    }
    Ok(segment)
}
