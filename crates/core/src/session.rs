//! The wire session: the protocol state both multi-process backends
//! share, written once.
//!
//! The socket transport ([`crate::transport::SocketTransport`]) and the
//! same-host ipc transport ([`crate::transport_ipc::IpcTransport`])
//! speak one protocol: rendezvous (RTS → CTS → data), the partitioned
//! stream (announce the whole buffer, the receiver pins it and clears
//! the sender, then every range commits on its own and flips the
//! messages it finishes), rank-0-coordinated barriers, RMA window
//! announcements and gets, and abort propagation. A [`Session`] owns
//! that protocol's state and its frame handlers; each backend keeps
//! only its byte mover (lanes, writers, readers and reconnect on
//! sockets; rings, slab, arena grants and doorbells on ipc) and reaches
//! the session through the narrow [`Link`] trait.
//!
//! Session methods are generic over the link, so every call from a
//! backend into the session — and back out through the link — is
//! statically dispatched; the per-range commit path takes one
//! `streams_in` lock plus one ledger lock and makes no `dyn` call.
//!
//! Verify events: the session emits every receiver-side stream event
//! (`VerifyStreamRts`, `VerifyStreamMsg`, `VerifyStreamCts` both ways,
//! `VerifyStreamData { tx: false }`, `VerifyStreamCommit`) and the
//! sender's `VerifyStreamData { tx: true }` through
//! [`Session::emit_data_tx`]; the backend supplies the `lane` of each
//! range and, through [`Link::verify_epoch`], the epoch of its control
//! traffic (ipc: lane 0, epoch 0). Wire-level `VerifyWireSend` /
//! `VerifyWireRecv` stay with the byte movers, which alone know their
//! per-lane sequence.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcomm_net::frame::Frame;
use pcomm_trace::EventKind;

use crate::error::PcommError;
use crate::fabric::{Fabric, PostedRecv};
use crate::sync::{Completion, Mutex};
use crate::transport::{decode_abort, PartStreamMsg, PartStreamRecv, PinnedSend};

/// Slice for non-unwinding waits in teardown paths (mirrors the
/// fabric's `WAIT_SLICE`).
pub(crate) const TEARDOWN_SLICE: Duration = Duration::from_millis(2);

/// Hard deadline on the finalize barrier: every healthy peer reaches it
/// as soon as its closure returns, so far past this something is wrong
/// and the run fails instead of hanging.
pub(crate) const FINALIZE_TIMEOUT: Duration = Duration::from_secs(30);

/// What the session needs of a byte mover.
pub(crate) trait Link {
    /// Ship one ordered control frame toward `dst` (never blocks on the
    /// remote process beyond the backend's own backpressure).
    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame);

    /// Clear `src` to stream `rdv_id` into the registered destination
    /// `stream`. `inline` is true on a reader or drain thread, false on
    /// an app thread (`precv.start()`).
    fn send_part_cts(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        inline: bool,
    );

    /// The epoch verify events stamp on control traffic with `peer`.
    fn verify_epoch(&self, peer: usize) -> u32;
}

/// A pinned rendezvous send waiting for its CTS.
pub(crate) struct PendingRdv {
    pub(crate) pinned: PinnedSend,
    pub(crate) dst: usize,
}

/// A matched posted receive waiting for its wire data.
pub(crate) struct RemoteRecv {
    pub(crate) posted: PostedRecv,
    pub(crate) shard: usize,
    pub(crate) tag: i64,
    /// Local timestamp of the RTS frame's arrival, for the RdvCopy span.
    pub(crate) rts_ns: Option<u64>,
    /// Bytes landed so far, for byte movers that deliver the payload in
    /// ordered chunks (ipc `K_RDV`).
    pub(crate) received: usize,
}

/// Receiver-side state of one active partitioned stream: where ranges
/// land and which message completions they flip.
pub(crate) struct StreamRecv {
    pub(crate) base: *mut u8,
    pub(crate) total_len: usize,
    /// Bytes of the whole buffer not yet committed; the stream retires
    /// when this hits zero.
    pub(crate) remaining_total: AtomicUsize,
    pub(crate) msgs: Vec<PartStreamMsg>,
    /// See [`PartStreamRecv::copies`].
    pub(crate) copies: Arc<AtomicU64>,
    /// Sorted, disjoint byte intervals already committed. Failover and
    /// reconnect replay whole batches (at-least-once delivery), so every
    /// commit first claims its range here and only the never-seen-before
    /// sub-ranges count — a duplicate range is a no-op.
    pub(crate) committed: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: the destination buffer outlives the stream (the receiving
// request's storage is pinned until its completions fire and the
// request drains them before release — fabric invariant (1)). `Sync`
// because several reader lanes commit concurrently, but every byte of
// the destination belongs to exactly one range, so writes never alias.
unsafe impl Send for StreamRecv {}
unsafe impl Sync for StreamRecv {}

/// FIFO pairing of incoming `PartRts`s with posted destinations for one
/// `(src, ctx)` partitioned pair — whichever side shows up first waits.
#[derive(Default)]
struct PartPair {
    /// Streams announced by the sender, not yet posted: `(id, len)`.
    pending_rts: VecDeque<(u64, usize)>,
    /// Destinations posted by the receiver, not yet announced.
    waiting: VecDeque<PartStreamRecv>,
}

/// A window announcement: fires once the target announced the length.
type WinSlot = (Arc<Completion>, Option<usize>);
/// An in-flight get: fires once the response filled the landing slot.
type GetWaiter = (Arc<Completion>, Arc<Mutex<Option<Vec<u8>>>>);

/// The protocol state of one rank's wire session (see the module docs).
pub(crate) struct Session {
    pub(crate) rank: usize,
    pub(crate) n_ranks: usize,
    /// Allocator for rendezvous ids, stream ids and get tokens. Starts
    /// at 1: the ipc claim words use a stream id as their epoch, and
    /// epoch 0 is the idle word.
    next_id: AtomicU64,
    /// Sender side: pinned buffers waiting for a CTS, by rendezvous id.
    pub(crate) pending_rdv: Mutex<HashMap<u64, PendingRdv>>,
    /// Receiver side: matched buffers waiting for data, by (src, id).
    pub(crate) remote_recvs: Mutex<HashMap<(usize, u64), RemoteRecv>>,
    /// Receiver side: RTS/post pairing per partitioned (src, ctx) pair.
    part_registry: Mutex<HashMap<(usize, u64), PartPair>>,
    /// Receiver side: active streams taking ranges, by (src, id).
    pub(crate) streams_in: Mutex<HashMap<(usize, u64), Arc<StreamRecv>>>,
    /// This process's barrier generation counter (SPMD-aligned).
    barrier_gen: AtomicU64,
    /// Rank 0 only: which ranks arrived per generation. A set, not a
    /// count: an at-least-once ordered lane (a socket reconnect) can
    /// replay a `BarrierArrive`, which must not double-count.
    arrivals: Mutex<HashMap<u64, HashSet<usize>>>,
    /// Release completions per generation (waiter or release creates).
    releases: Mutex<HashMap<u64, Arc<Completion>>>,
    /// Window announcements per win ctx.
    win_slots: Mutex<HashMap<u64, WinSlot>>,
    /// In-flight gets per token.
    get_waiters: Mutex<HashMap<u64, GetWaiter>>,
    abort_sent: AtomicBool,
}

/// `offset..offset+len` inside a `cap`-byte destination: the range's
/// end, or a typed `Misuse` blaming `src` when a peer-supplied range
/// overflows (`what` names the range in the message). Never wraps.
pub(crate) fn checked_range(
    src: usize,
    what: &str,
    offset: usize,
    len: usize,
    cap: usize,
) -> Result<usize, PcommError> {
    match offset.checked_add(len) {
        Some(end) if end <= cap => Ok(end),
        _ => Err(PcommError::misuse(
            src,
            format!("{what} {offset}+{len} overflows a {cap}-byte destination"),
        )),
    }
}

impl Session {
    pub(crate) fn new(rank: usize, n_ranks: usize) -> Session {
        Session {
            rank,
            n_ranks,
            next_id: AtomicU64::new(1),
            pending_rdv: Mutex::new(HashMap::new()),
            remote_recvs: Mutex::new(HashMap::new()),
            part_registry: Mutex::new(HashMap::new()),
            streams_in: Mutex::new(HashMap::new()),
            barrier_gen: AtomicU64::new(0),
            arrivals: Mutex::new(HashMap::new()),
            releases: Mutex::new(HashMap::new()),
            win_slots: Mutex::new(HashMap::new()),
            get_waiters: Mutex::new(HashMap::new()),
            abort_sent: AtomicBool::new(false),
        }
    }

    /// A fresh rendezvous id, stream id or get token.
    pub(crate) fn next_id(&self) -> u64 {
        // ORDERING: id allocator — only uniqueness matters; the id
        // reaches the peer inside a frame, not via memory.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// True exactly once: the first abort broadcast wins, later calls
    /// are no-ops.
    pub(crate) fn first_abort(&self) -> bool {
        !self.abort_sent.swap(true, Ordering::SeqCst)
    }

    /// A CTS arrived for `rdv_id`: hand back its pinned source, unless
    /// it is a duplicate or the run is unwinding (the sender's buffer
    /// may be on its way out — do not touch it, do not set done).
    pub(crate) fn take_pending_rdv(&self, fabric: &Fabric, rdv_id: u64) -> Option<PendingRdv> {
        let pending = self.pending_rdv.lock().remove(&rdv_id)?;
        (!fabric.aborted()).then_some(pending)
    }

    /// Receiver: pin a whole partitioned destination for the next
    /// stream from `src` on `ctx`; pairs FIFO with incoming `PartRts`s.
    pub(crate) fn post<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        recv: PartStreamRecv,
    ) {
        let activate = {
            let mut reg = self.part_registry.lock();
            let pair = reg.entry((src, ctx)).or_default();
            match pair.pending_rts.pop_front() {
                Some((rdv_id, total_len)) => Some((rdv_id, total_len, recv)),
                None => {
                    pair.waiting.push_back(recv);
                    None
                }
            }
        };
        if let Some((rdv_id, total_len, recv)) = activate {
            self.activate(link, fabric, src, rdv_id, total_len, recv, false);
        }
    }

    /// Receiver: a sender announced a stream. Pair it with a posted
    /// destination if one is waiting, else park the announcement.
    fn handle_part_rts<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        total_len: usize,
        rdv_id: u64,
    ) {
        let (p16, stream, total) = (src as u16, rdv_id as u32, total_len as u64);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamRts {
                peer: p16,
                tx: false,
                stream,
                total_len: total,
            });
        let recv = {
            let mut reg = self.part_registry.lock();
            let pair = reg.entry((src, ctx)).or_default();
            let recv = pair.waiting.pop_front();
            if recv.is_none() {
                pair.pending_rts.push_back((rdv_id, total_len));
            }
            recv
        };
        if let Some(recv) = recv {
            self.activate(link, fabric, src, rdv_id, total_len, recv, true);
        }
    }

    /// Receiver: a posted destination met its announcement — validate,
    /// register the active stream, and clear the sender through the
    /// link. `inline` as in [`Link::send_part_cts`].
    #[allow(clippy::too_many_arguments)] // one per stream field
    fn activate<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        total_len: usize,
        recv: PartStreamRecv,
        inline: bool,
    ) {
        if recv.total_len != total_len {
            fabric.fail(PcommError::misuse(
                src,
                format!(
                    "partitioned stream length mismatch: sender announced {total_len} B, \
                     receiver pinned {} B",
                    recv.total_len
                ),
            ));
            return;
        }
        let trace = fabric.trace();
        if trace.is_verify() {
            // The receiver is the only side that knows both the wire
            // stream id and the verify-layer (req, msg) identities; these
            // join events let the offline auditor unify the two ranks'
            // independently-interned request ids.
            let stream32 = rdv_id as u32;
            for msg in recv.msgs.iter() {
                let Some((req, m16)) = msg.verify_msg else {
                    continue;
                };
                let (off, len32) = (msg.offset as u64, msg.len as u32);
                trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamMsg {
                    stream: stream32,
                    req,
                    msg: m16,
                    tx: false,
                    offset: off,
                    len: len32,
                });
            }
            let (p16, epoch) = (src as u16, link.verify_epoch(src));
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: true,
                stream: stream32,
                epoch,
            });
        }
        let stream = Arc::new(StreamRecv {
            base: recv.base,
            total_len,
            remaining_total: AtomicUsize::new(total_len),
            msgs: recv.msgs,
            copies: recv.copies,
            committed: Mutex::new(Vec::new()),
        });
        self.streams_in
            .lock()
            .insert((src, rdv_id), Arc::clone(&stream));
        link.send_part_cts(fabric, src, rdv_id, &stream, inline);
    }

    /// Sender: the receiver's CTS for stream `rdv_id` arrived (audit
    /// record; the backend releases the queued ranges).
    pub(crate) fn cts_arrived<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        peer: usize,
        rdv_id: u64,
    ) {
        let (p16, stream, epoch) = (peer as u16, rdv_id as u32, link.verify_epoch(peer));
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: false,
                stream,
                epoch,
            });
    }

    /// Sender: the ledger event for the range `offset..offset+len` of
    /// stream `rdv_id` put at `dst`'s disposal on `lane`.
    pub(crate) fn emit_data_tx(
        &self,
        fabric: &Fabric,
        dst: usize,
        lane: usize,
        rdv_id: u64,
        offset: u64,
        len: usize,
    ) {
        let (peer, lane, stream, len) = (dst as u16, lane as u16, rdv_id as u32, len as u32);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer,
                lane,
                tx: true,
                stream,
                offset,
                len,
            });
    }

    /// Receiver: look up the active stream for `(src, rdv_id)` and
    /// validate that `offset..offset+len` fits its destination. Returns
    /// `None` for post-abort stragglers (the caller discards the bytes);
    /// an overflowing range fails the run.
    pub(crate) fn stream_range(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
    ) -> Option<Arc<StreamRecv>> {
        if fabric.aborted() {
            return None;
        }
        let stream = self.streams_in.lock().get(&(src, rdv_id)).cloned()?;
        let what = "partitioned stream range";
        match checked_range(src, what, offset, len, stream.total_len) {
            Ok(_) => Some(stream),
            Err(err) => {
                fabric.fail(err);
                None
            }
        }
    }

    /// Receiver: the bytes of `offset..offset+len` (checked by
    /// [`Session::stream_range`]) are in the pinned destination — flip
    /// every message completion the range finishes and retire the
    /// stream once the whole buffer has landed. Returns how many
    /// messages it completed.
    #[allow(clippy::too_many_arguments)] // one per envelope field
    pub(crate) fn commit_range(
        &self,
        fabric: &Fabric,
        src: usize,
        lane: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        offset: usize,
        len: usize,
    ) -> u64 {
        let end = offset + len;
        let trace = fabric.trace();
        let (p16, l16, stream32) = (src as u16, lane as u16, rdv_id as u32);
        {
            // Recorded before the dedup claim: the auditor's FSM pass
            // wants every range the wire delivered, duplicates included
            // (replay absorption is exactly what the ledger pass proves).
            let (off64, len32) = (offset as u64, len as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer: p16,
                lane: l16,
                tx: false,
                stream: stream32,
                offset: off64,
                len: len32,
            });
        }
        // At-least-once wire: a lane failover or reconnect replays whole
        // batches, so the same range can land twice. Claim it against
        // the stream's interval ledger first — only the never-committed
        // sub-ranges count toward message and stream completion.
        let fresh = claim_range(&mut stream.committed.lock(), offset, end);
        let fresh_bytes: usize = fresh.iter().map(|&(lo, hi)| hi - lo).sum();
        if fresh_bytes == 0 {
            return 0; // pure duplicate: every byte landed before
        }
        for &(f_lo, f_hi) in &fresh {
            let (lo64, flen) = (f_lo as u64, (f_hi - f_lo) as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCommit {
                peer: p16,
                lane: l16,
                stream: stream32,
                lo: lo64,
                len: flen,
            });
        }
        let mut msgs_done = 0u16;
        for &(f_lo, f_hi) in &fresh {
            for msg in &stream.msgs {
                let lo = msg.offset.max(f_lo);
                let hi = (msg.offset + msg.len).min(f_hi);
                if lo >= hi {
                    continue;
                }
                let overlap = hi - lo;
                // AcqRel: the final decrement acquires every earlier
                // committer's bytes, so the completion flip below
                // publishes a fully written message range. The ledger
                // claim above guarantees each byte is subtracted exactly
                // once, so this never underflows.
                let before = msg.remaining.fetch_sub(overlap, Ordering::AcqRel);
                if before == overlap {
                    fabric.complete_stream_msg(&msg.completion, msg.verify_msg);
                    msgs_done += 1;
                }
            }
        }
        let (off64, bytes) = (offset as u64, fresh_bytes as u64);
        trace.emit(self.rank as u16, || EventKind::StreamCommit {
            lane: l16,
            msgs: msgs_done,
            offset: off64,
            bytes,
        });
        // AcqRel: pairs with the other committers' decrements so the
        // map removal below observes a fully committed stream.
        if stream
            .remaining_total
            .fetch_sub(fresh_bytes, Ordering::AcqRel)
            == fresh_bytes
        {
            self.streams_in.lock().remove(&(src, rdv_id));
        }
        u64::from(msgs_done)
    }

    /// Get-or-create the release completion for barrier generation
    /// `gen` (the dispatching thread and the waiting rank race to
    /// create it).
    fn release_completion(&self, gen: u64) -> Arc<Completion> {
        Arc::clone(self.releases.lock().entry(gen).or_default())
    }

    /// Rank 0: record `from`'s arrival for `gen`; on the last distinct
    /// one, broadcast the release and complete the local waiter. Keyed
    /// by rank, not counted: a reconnect can replay a `BarrierArrive`.
    fn note_arrival<L: Link + ?Sized>(&self, link: &L, fabric: &Fabric, gen: u64, from: usize) {
        debug_assert_eq!(self.rank, 0, "only rank 0 coordinates barriers");
        let all_in = {
            let mut arrivals = self.arrivals.lock();
            let ranks = arrivals.entry(gen).or_default();
            ranks.insert(from);
            let all_in = ranks.len() == self.n_ranks;
            if all_in {
                arrivals.remove(&gen);
            }
            all_in
        };
        if all_in {
            for peer in 1..self.n_ranks {
                link.send(fabric, peer, Frame::BarrierRelease { gen });
            }
            self.release_completion(gen).set();
        }
    }

    /// Enter the next barrier generation: rank 0 notes itself, everyone
    /// else tells rank 0. Returns the generation and its release.
    fn arrive<L: Link + ?Sized>(&self, link: &L, fabric: &Fabric) -> (u64, Arc<Completion>) {
        // ORDERING: generation allocator — uniqueness only; barrier
        // ordering comes from the frames themselves.
        let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
        let completion = self.release_completion(gen);
        if self.rank == 0 {
            self.note_arrival(link, fabric, gen, 0);
        } else {
            link.send(fabric, 0, Frame::BarrierArrive { gen });
        }
        (gen, completion)
    }

    /// Cross-process barrier (rank 0 coordinates).
    pub(crate) fn barrier<L: Link + ?Sized>(&self, link: &L, fabric: &Fabric, rank: usize) {
        let (gen, completion) = self.arrive(link, fabric);
        fabric.wait_on(&completion, rank, || {
            (format!("barrier (generation {gen})"), None, None)
        });
        self.releases.lock().remove(&gen);
    }

    /// The closing barrier of a clean run: nobody tears down while a
    /// peer might still need them. Never unwinds — `idle` parks or
    /// makes progress between checks, and a peer that never arrives
    /// within [`FINALIZE_TIMEOUT`] fails the run. A no-op once aborted.
    pub(crate) fn finalize_barrier<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        mut idle: impl FnMut(&Completion),
    ) {
        if fabric.aborted() {
            return;
        }
        let (gen, completion) = self.arrive(link, fabric);
        let deadline = Instant::now() + FINALIZE_TIMEOUT;
        while !completion.is_set() && !fabric.aborted() {
            if Instant::now() >= deadline {
                fabric.fail(PcommError::Misuse {
                    rank: Some(self.rank),
                    detail: format!(
                        "finalize barrier timed out after {FINALIZE_TIMEOUT:?}: \
                         some rank process neither finished nor aborted"
                    ),
                });
                break;
            }
            idle(&completion);
        }
        self.releases.lock().remove(&gen);
    }

    /// The announce slot of window `win_ctx` (the announcement and the
    /// waiting origin race to create it), recording `announced` if set.
    fn win_slot(&self, win_ctx: u64, announced: Option<usize>) -> Arc<Completion> {
        let mut slots = self.win_slots.lock();
        let slot = slots
            .entry(win_ctx)
            .or_insert_with(|| (Completion::new(), None));
        if announced.is_some() {
            slot.1 = announced;
        }
        Arc::clone(&slot.0)
    }

    /// Block until the remote target announced the window; returns its
    /// length.
    pub(crate) fn wait_win_announce(&self, fabric: &Fabric, rank: usize, win_ctx: u64) -> usize {
        let completion = self.win_slot(win_ctx, None);
        fabric.wait_on(&completion, rank, || {
            (format!("attach_win(ctx={win_ctx})"), None, None)
        });
        self.win_slots
            .lock()
            .get(&win_ctx)
            .and_then(|slot| slot.1)
            // PANIC: the completion waited on above is signalled only
            // by the WinAnnounce handler, which stores the length
            // before signalling.
            .expect("announced window carries a length")
    }

    /// One-sided get from a remote window (blocking round trip).
    #[allow(clippy::too_many_arguments)] // one per get field
    pub(crate) fn get<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        rank: usize,
        target: usize,
        win_ctx: u64,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        let token = self.next_id();
        let completion = Completion::new();
        let slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        self.get_waiters
            .lock()
            .insert(token, (Arc::clone(&completion), Arc::clone(&slot)));
        let (offset64, len64) = (offset as u64, len as u64);
        let req = Frame::GetReq {
            win_ctx,
            offset: offset64,
            len: len64,
            token,
        };
        link.send(fabric, target, req);
        fabric.wait_on(&completion, rank, || {
            let what = format!("rma get({len} B from rank {target})");
            (what, None, Some(target))
        });
        self.get_waiters.lock().remove(&token);
        let data = slot.lock().take();
        // PANIC: the completion waited on above is signalled only by
        // the GetResp handler, which fills the slot before signalling.
        data.expect("completed get carries its payload")
    }

    /// Dispatch one frame from `peer` through the shared protocol.
    /// Hands back the frames that stay with the byte mover: `Cts`,
    /// `PartCts`, `PartData`, `StreamResync`, `Heartbeat` and `Bye`.
    pub(crate) fn dispatch<L: Link + ?Sized>(
        &self,
        link: &L,
        fabric: &Fabric,
        peer: usize,
        frame: Frame,
    ) -> Option<Frame> {
        match frame {
            Frame::Eager {
                shard,
                ctx,
                tag,
                payload,
            } => fabric.deliver_wire_eager(peer, shard as usize, ctx, tag, &payload),
            Frame::Rts {
                shard,
                ctx,
                tag,
                len,
                rdv_id,
            } => fabric.deliver_wire_rts(peer, shard as usize, ctx, tag, len as usize, rdv_id),
            // The slow path: byte movers normally land rendezvous
            // payloads straight in the destination instead.
            Frame::RdvData { rdv_id, payload } => {
                let entry = self.remote_recvs.lock().remove(&(peer, rdv_id));
                if let Some(r) = entry {
                    fabric.complete_remote_rdv(r.posted, peer, r.tag, r.shard, &payload, r.rts_ns);
                }
            }
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => self.handle_part_rts(link, fabric, peer, ctx, total_len as usize, rdv_id),
            Frame::BarrierArrive { gen } => self.note_arrival(link, fabric, gen, peer),
            Frame::BarrierRelease { gen } => self.release_completion(gen).set(),
            Frame::Abort {
                kind,
                a,
                b,
                tag,
                attempts,
                detail,
            } => fabric.fail_from_wire(decode_abort(kind, a, b, tag, attempts, detail)),
            Frame::WinAnnounce { win_ctx, len } => self.win_slot(win_ctx, Some(len as usize)).set(),
            Frame::Put {
                win_ctx,
                offset,
                payload,
            } => fabric.apply_remote_put(peer, win_ctx, offset as usize, &payload),
            Frame::GetReq {
                win_ctx,
                offset,
                len,
                token,
            } => match fabric.read_win(win_ctx, offset as usize, len as usize) {
                Some(payload) => link.send(fabric, peer, Frame::GetResp { token, payload }),
                None => fabric.fail(PcommError::misuse(
                    peer,
                    format!("get of {len} B at offset {offset} misses window ctx {win_ctx}"),
                )),
            },
            Frame::GetResp { token, payload } => {
                let waiter = {
                    let waiters = self.get_waiters.lock();
                    waiters
                        .get(&token)
                        .map(|(c, s)| (Arc::clone(c), Arc::clone(s)))
                };
                if let Some((completion, slot)) = waiter {
                    *slot.lock() = Some(payload);
                    completion.set();
                }
            }
            Frame::Hello { .. } => {} // mesh rendezvous only; stray copies ignored
            other => return Some(other),
        }
        None
    }
}

/// Claim `[lo, hi)` against a sorted, disjoint interval ledger: merge
/// the range in and return the sub-ranges that were NOT already present
/// (the "fresh" bytes). An empty result means a pure duplicate.
pub(crate) fn claim_range(
    committed: &mut Vec<(usize, usize)>,
    lo: usize,
    hi: usize,
) -> Vec<(usize, usize)> {
    if lo >= hi {
        return Vec::new();
    }
    // First interval that could overlap or touch the claim.
    let first = committed.partition_point(|&(_, end)| end < lo);
    let mut fresh = Vec::new();
    let (mut merged_lo, mut merged_hi) = (lo, hi);
    let mut cursor = lo;
    let mut last = first;
    while last < committed.len() && committed[last].0 <= hi {
        let (s, e) = committed[last];
        if cursor < s {
            fresh.push((cursor, s.min(hi)));
        }
        cursor = cursor.max(e);
        merged_lo = merged_lo.min(s);
        merged_hi = merged_hi.max(e);
        last += 1;
    }
    if cursor < hi {
        fresh.push((cursor, hi));
    }
    committed.splice(first..last, std::iter::once((merged_lo, merged_hi)));
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link that records what the session sent instead of moving
    /// bytes: the test seam the [`Link`] trait exists for.
    #[derive(Default)]
    struct FakeLink {
        frames: Mutex<Vec<(usize, Frame)>>,
        /// `(src, rdv_id, stream base, inline)` per CTS.
        cts: Mutex<Vec<(usize, u64, usize, bool)>>,
    }

    impl Link for FakeLink {
        fn send(&self, _: &Fabric, dst: usize, frame: Frame) {
            self.frames.lock().push((dst, frame));
        }

        fn send_part_cts(
            &self,
            _: &Fabric,
            src: usize,
            rdv_id: u64,
            stream: &StreamRecv,
            inline: bool,
        ) {
            let base = stream.base as usize;
            self.cts.lock().push((src, rdv_id, base, inline));
        }

        fn verify_epoch(&self, _: usize) -> u32 {
            0
        }
    }

    /// A destination of `msgs` messages of `msg_len` bytes over `buf`.
    fn recv_over(buf: &mut [u8], msgs: usize, msg_len: usize) -> PartStreamRecv {
        assert_eq!(buf.len(), msgs * msg_len);
        PartStreamRecv {
            base: buf.as_mut_ptr(),
            total_len: buf.len(),
            msgs: (0..msgs)
                .map(|m| PartStreamMsg {
                    offset: m * msg_len,
                    len: msg_len,
                    remaining: AtomicUsize::new(msg_len),
                    completion: Completion::new(),
                    verify_msg: None,
                })
                .collect(),
            copies: Arc::new(AtomicU64::new(0)),
        }
    }

    fn rts(ctx: u64, total_len: u64, rdv_id: u64) -> Frame {
        Frame::PartRts {
            ctx,
            total_len,
            rdv_id,
        }
    }

    fn misuse_detail(fabric: &Fabric) -> String {
        match fabric.take_failure() {
            Some(PcommError::Misuse { detail, .. }) => detail,
            other => panic!("expected a Misuse failure, got {other:?}"),
        }
    }

    #[test]
    fn announcements_before_posts_pair_fifo_per_src_and_ctx() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let (mut a, mut b, mut other) = (vec![0u8; 64], vec![0u8; 64], vec![0u8; 64]);
        for id in [10, 11] {
            assert!(session
                .dispatch(&link, &fabric, 1, rts(5, 64, id))
                .is_none());
        }
        assert!(link.cts.lock().is_empty(), "no destination posted yet");
        // Another ctx never takes the parked announcements.
        session.post(&link, &fabric, 1, 6, recv_over(&mut other, 2, 32));
        assert!(link.cts.lock().is_empty());
        session.post(&link, &fabric, 1, 5, recv_over(&mut a, 2, 32));
        session.post(&link, &fabric, 1, 5, recv_over(&mut b, 2, 32));
        let want = vec![
            (1, 10, a.as_ptr() as usize, false),
            (1, 11, b.as_ptr() as usize, false),
        ];
        assert_eq!(*link.cts.lock(), want, "first announced pairs first posted");
        assert_eq!(session.streams_in.lock().len(), 2);
        assert!(fabric.take_failure().is_none());
    }

    #[test]
    fn posts_before_announcements_pair_fifo_per_src_and_ctx() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let (mut a, mut b) = (vec![0u8; 64], vec![0u8; 64]);
        session.post(&link, &fabric, 1, 5, recv_over(&mut a, 2, 32));
        session.post(&link, &fabric, 1, 5, recv_over(&mut b, 2, 32));
        assert!(link.cts.lock().is_empty(), "nothing announced yet");
        // An announcement on another ctx parks instead of pairing.
        session.dispatch(&link, &fabric, 1, rts(6, 64, 19));
        session.dispatch(&link, &fabric, 1, rts(5, 64, 20));
        session.dispatch(&link, &fabric, 1, rts(5, 64, 21));
        let want = vec![
            (1, 20, a.as_ptr() as usize, true),
            (1, 21, b.as_ptr() as usize, true),
        ];
        assert_eq!(*link.cts.lock(), want, "first posted pairs first announced");
    }

    #[test]
    fn a_length_mismatch_is_misuse_and_sends_no_cts() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let mut buf = vec![0u8; 64];
        session.post(&link, &fabric, 1, 5, recv_over(&mut buf, 2, 32));
        session.dispatch(&link, &fabric, 1, rts(5, 32, 3));
        assert!(misuse_detail(&fabric).contains("length mismatch"));
        assert!(link.cts.lock().is_empty());
        assert!(session.streams_in.lock().is_empty());
    }

    #[test]
    fn overlapping_and_duplicate_ranges_count_each_byte_once() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let mut buf = vec![0u8; 64];
        session.post(&link, &fabric, 1, 5, recv_over(&mut buf, 2, 32));
        session.dispatch(&link, &fabric, 1, rts(5, 64, 7));
        let stream = session.stream_range(&fabric, 1, 7, 0, 40).expect("active");
        let commit =
            |lo: usize, hi: usize| session.commit_range(&fabric, 1, 0, 7, &stream, lo, hi - lo);
        assert_eq!(commit(0, 40), 1, "message 0 completes");
        assert_eq!(commit(0, 40), 0, "a replayed range is a no-op");
        assert_eq!(commit(8, 24), 0, "a range inside committed bytes too");
        assert!(stream.msgs[0].completion.is_set());
        assert!(!stream.msgs[1].completion.is_set());
        assert_eq!(commit(20, 64), 1, "only bytes 40..64 are fresh");
        assert!(stream.msgs[1].completion.is_set());
        assert!(session.streams_in.lock().is_empty(), "the stream retired");
        assert_eq!(stream.remaining_total.load(Ordering::Acquire), 0);
        assert_eq!(
            commit(0, 64),
            0,
            "a replay after retirement changes nothing"
        );
        assert_eq!(stream.remaining_total.load(Ordering::Acquire), 0);
        assert_eq!(*stream.committed.lock(), vec![(0, 64)]);
        assert!(session.stream_range(&fabric, 1, 7, 0, 8).is_none());
        assert!(fabric.take_failure().is_none());
    }

    #[test]
    fn an_overflowing_range_fails_the_run_without_panicking() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let mut buf = vec![0u8; 64];
        session.post(&link, &fabric, 1, 5, recv_over(&mut buf, 2, 32));
        session.dispatch(&link, &fabric, 1, rts(5, 64, 7));
        assert!(session
            .stream_range(&fabric, 1, 7, usize::MAX - 8, 16)
            .is_none());
        assert!(misuse_detail(&fabric).contains("overflows a 64-byte destination"));
    }

    #[test]
    fn checked_range_is_typed_misuse_near_usize_max() {
        assert_eq!(checked_range(1, "r", 8, 8, 16).ok(), Some(16));
        for (offset, len) in [
            (usize::MAX, 1),
            (usize::MAX - 3, 8),
            (1, usize::MAX),
            (9, 8),
        ] {
            match checked_range(1, "ipc rendezvous chunk", offset, len, 16) {
                Err(PcommError::Misuse {
                    rank: Some(1),
                    detail,
                }) => assert_eq!(
                    detail,
                    format!("ipc rendezvous chunk {offset}+{len} overflows a 16-byte destination")
                ),
                other => panic!("{offset}+{len}: expected Misuse, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_replayed_barrier_arrive_does_not_release_early() {
        let (fabric, link, session) = (
            Fabric::new(3, 1, 64),
            FakeLink::default(),
            Session::new(0, 3),
        );
        for _ in 0..2 {
            session.dispatch(&link, &fabric, 1, Frame::BarrierArrive { gen: 0 });
        }
        session.dispatch(&link, &fabric, 2, Frame::BarrierArrive { gen: 0 });
        assert!(link.frames.lock().is_empty(), "rank 0 has not arrived");
        let (gen, release) = session.arrive(&link, &fabric);
        assert_eq!(gen, 0);
        assert!(release.is_set());
        let releases = vec![
            (1, Frame::BarrierRelease { gen: 0 }),
            (2, Frame::BarrierRelease { gen: 0 }),
        ];
        assert_eq!(*link.frames.lock(), releases);
        // A replay after the release opens no phantom generation.
        session.dispatch(&link, &fabric, 1, Frame::BarrierArrive { gen: 1 });
        session.dispatch(&link, &fabric, 1, Frame::BarrierArrive { gen: 1 });
        assert_eq!(link.frames.lock().len(), 2);
    }

    #[test]
    fn a_get_response_for_an_unknown_token_is_ignored() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        let resp = Frame::GetResp {
            token: 99,
            payload: vec![1, 2, 3],
        };
        assert!(session.dispatch(&link, &fabric, 1, resp).is_none());
        assert!(session.get_waiters.lock().is_empty());
        assert!(fabric.take_failure().is_none());
    }

    #[test]
    fn backend_frames_are_handed_back() {
        let (fabric, link, session) = (
            Fabric::new(2, 1, 64),
            FakeLink::default(),
            Session::new(0, 2),
        );
        for frame in [
            Frame::Cts { rdv_id: 1 },
            Frame::PartCts { rdv_id: 1 },
            Frame::Heartbeat { seq: 1 },
            Frame::Bye,
        ] {
            let back = session.dispatch(&link, &fabric, 1, frame.clone());
            assert_eq!(back, Some(frame));
        }
        assert!(link.frames.lock().is_empty());
    }

    #[test]
    fn claim_range_reports_only_fresh_bytes() {
        let mut ledger = Vec::new();
        assert_eq!(claim_range(&mut ledger, 10, 20), vec![(10, 20)]);
        assert_eq!(ledger, vec![(10, 20)]);
        // Pure duplicate.
        assert!(claim_range(&mut ledger, 10, 20).is_empty());
        // Overlap on both sides.
        assert_eq!(claim_range(&mut ledger, 5, 25), vec![(5, 10), (20, 25)]);
        assert_eq!(ledger, vec![(5, 25)]);
        // Disjoint ranges stay separate and sorted.
        assert_eq!(claim_range(&mut ledger, 40, 50), vec![(40, 50)]);
        assert_eq!(claim_range(&mut ledger, 0, 2), vec![(0, 2)]);
        assert_eq!(ledger, vec![(0, 2), (5, 25), (40, 50)]);
        // A claim spanning several entries returns every gap and merges.
        assert_eq!(
            claim_range(&mut ledger, 1, 45),
            vec![(2, 5), (25, 40)],
            "gaps between existing intervals are the fresh bytes"
        );
        assert_eq!(ledger, vec![(0, 50)]);
        // Empty and inverted claims are no-ops.
        assert!(claim_range(&mut ledger, 7, 7).is_empty());
        assert_eq!(ledger, vec![(0, 50)]);
    }

    #[test]
    fn claim_range_merges_adjacent_intervals() {
        let mut ledger = vec![(0usize, 10usize), (10, 20)];
        // Touching (end == lo) intervals merge rather than duplicate.
        assert_eq!(claim_range(&mut ledger, 20, 30), vec![(20, 30)]);
        assert_eq!(ledger, vec![(0, 10), (10, 30)]);
        assert!(claim_range(&mut ledger, 0, 30).is_empty());
        assert_eq!(ledger, vec![(0, 30)]);
    }
}
