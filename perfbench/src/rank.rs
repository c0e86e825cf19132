//! The rank side: what runs inside the rank processes.
//!
//! Each rank's own thread is its only compute thread (N = 1). An
//! iteration is a closed loop: barrier, timed transfer, untimed check.
//! The receiver (rank 0) times `start` → `wait` and subtracts the
//! iteration's maximum ready time D, the compute the benchmark injects
//! and does not measure. Ranks report to the parent on stdout, one
//! record per line, at the end of every block, so a rank that hangs
//! mid-run still leaves every finished block behind:
//!
//! ```text
//! ready                  rank 0 finished the warm-up iteration
//! S <name> <v> <v> ...   samples
//! P <ok> <failed>        a block finished
//! E <detail>             a failed check or a typed error
//! F                      rank 0 finished its last block
//! U <start_ms> <teardown_ms>
//! R <VmHWM kB>
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use pcomm_core::hotpath::{pool_stats, thread_stats};
use pcomm_core::part::PartOptions;
use pcomm_core::{Comm, Universe};

use crate::inputs::{self, Kind, SCHEDULES};
use crate::workload::Workload;

const TAG_PART: i64 = 10;
const TAG_BULK: i64 = 11;
const TAG_PONG: i64 = 12;
const TAG_CTRL: i64 = 13;

/// Ping-pong message size.
pub const PONG_BYTES: usize = 256;

/// What a round measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing but the end-to-end windows.
    Plain,
    /// Alternating blocks: plain, then with the benchmark's spans around
    /// every public call and the runtime's counters read around the
    /// receiver's transfer.
    Spans,
    /// The runtime's trace ring is on (set up by the parent through
    /// `PCOMM_TRACE`); partitioned iterations only, `ring_iters` of them.
    Ring,
}

impl Mode {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Spans => "spans",
            Mode::Ring => "ring",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Spans, Mode::Ring]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Everything a rank process is told by the parent.
#[derive(Debug, Clone)]
pub struct RankArgs {
    /// The workload.
    pub workload: Workload,
    /// Round directory holding the `inputs` file.
    pub dir: String,
    /// What to measure.
    pub mode: Mode,
    /// Measurement budget after the warm-up.
    pub budget: Duration,
    /// Test hook: the sending rank stops calling `pready` at iteration 3
    /// and parks forever, so the parent's deadline must fire.
    pub plant_hang: bool,
}

/// The generated inputs, as the parent wrote them.
pub struct Inputs {
    /// Payload key.
    pub key: u64,
    /// Ready times in ns per schedule, indexed by partition.
    pub schedules: Vec<Vec<u64>>,
}

/// Write the inputs file a round's ranks read.
pub fn write_inputs(dir: &Path, key: u64, schedules: &[Vec<u64>]) -> std::io::Result<()> {
    let mut text = format!("key {key}\n");
    for s in schedules {
        let row: Vec<String> = s.iter().map(u64::to_string).collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    std::fs::write(dir.join("inputs"), text)
}

fn read_inputs(dir: &Path, n_parts: usize) -> Result<Inputs, String> {
    let path = dir.join("inputs");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let key = lines
        .next()
        .and_then(|l| l.strip_prefix("key "))
        .and_then(|k| k.parse().ok())
        .ok_or("inputs: missing key line")?;
    let schedules: Vec<Vec<u64>> = lines
        .map(|l| {
            l.split(' ')
                .map(|v| v.parse().map_err(|_| "inputs: bad ready time"))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    if schedules.len() != SCHEDULES || schedules.iter().any(|s| s.len() != n_parts) {
        return Err(format!(
            "inputs: expected {SCHEDULES} schedules of {n_parts} ready times"
        ));
    }
    Ok(Inputs { key, schedules })
}

/// One line to the parent. A closed pipe means the parent is gone;
/// there is nobody left to report to, so the write error is dropped.
fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Samples collected during one block, flushed at its end.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn flush(&mut self) {
        for (name, vs) in std::mem::take(&mut self.0) {
            let mut line = format!("S {name}");
            for v in vs {
                line.push(' ');
                line.push_str(&v.to_string());
            }
            emit(&line);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn spin_until(t0: Instant, ns: u64) {
    if ns == 0 {
        return;
    }
    let target = Duration::from_nanos(ns);
    while t0.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Time `f` when `on`, adding the duration to `acc`.
fn timed<T>(on: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Per-rank state of one round.
struct Rank<'a> {
    comm: &'a Comm,
    w: Workload,
    args: &'a RankArgs,
    inp: &'a Inputs,
    samples: Samples,
    ok: u64,
    failed: u64,
}

impl<'a> Rank<'a> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn peer(&self) -> usize {
        1 - self.rank()
    }

    fn sends(&self) -> bool {
        self.w.bidirectional || self.rank() == 1
    }

    fn receives(&self) -> bool {
        self.w.bidirectional || self.rank() == 0
    }

    /// The rank whose spans describe the sending side.
    fn records_send(&self) -> bool {
        if self.w.bidirectional {
            self.rank() == 0
        } else {
            self.rank() == 1
        }
    }

    fn reports(&self) -> bool {
        self.rank() == 0
    }

    fn schedule(&self, iter: u64) -> &'a [u64] {
        &self.inp.schedules[(iter % SCHEDULES as u64) as usize]
    }

    fn verdict(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.ok += 1,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    emit(&format!("E rank {}: {e}", self.rank()));
                }
            }
        }
    }
}

/// Run one rank's round; returns when rank 0 ends the last block.
fn rank_body(comm: &Comm, args: &RankArgs, inp: &Inputs) {
    let w = args.workload;
    let mut r = Rank {
        comm,
        w,
        args,
        inp,
        samples: Samples::default(),
        ok: 0,
        failed: 0,
    };
    let (n, pb, key) = (w.n_parts, w.part_bytes, inp.key);
    let peer = r.peer();

    let t_init = Instant::now();
    let ps = r
        .sends()
        .then(|| comm.psend_init(peer, TAG_PART, n, pb, PartOptions::default()));
    let pr = r
        .receives()
        .then(|| comm.precv_init(peer, TAG_PART, n, pb, PartOptions::default()));
    let init_us = us(t_init.elapsed());

    // Warm-up iteration 0: fill the whole payload, then the first CTS
    // handshake. Its end is the end of set-up.
    if let Some(ps) = &ps {
        ps.start();
        r.fill_parts(ps, 0);
    }
    comm.barrier();
    let t0 = Instant::now();
    if let Some(pr) = &pr {
        pr.start();
    }
    if let Some(ps) = &ps {
        ps.pready_range(0, n - 1);
        ps.wait();
    }
    if let Some(pr) = &pr {
        pr.wait();
    }
    let first_iter_us = us(t0.elapsed());
    if r.reports() {
        emit("ready");
    }
    if let Some(pr) = &pr {
        let res = r.check_parts(pr, 0);
        r.verdict(res);
        if r.reports() {
            r.samples.push("part.first_iter_us", first_iter_us);
            r.samples.push("part.init_us", init_us);
            r.samples.push("part.n_msgs", pr.n_msgs() as f64);
        }
    }

    let payload = w.payload();
    let ring = args.mode == Mode::Ring;
    let bulk = (!ring).then(|| {
        let bs = r.sends().then(|| comm.send_init(peer, TAG_BULK, payload));
        let br = r
            .receives()
            .then(|| comm.recv_init(peer, TAG_BULK, payload));
        (bs, br)
    });
    let mut pong = inputs::body(key, Kind::Pong, 0, PONG_BYTES);
    let mut pong_rx = vec![0u8; PONG_BYTES];

    let mut it: u64 = 1;
    let mut bt: u64 = 0;
    let mut pt: u64 = 0;
    let (p_iters, b_iters, pongs) = w.block;
    // Bulk and ping-pong warm-ups, untimed.
    if let Some((bs, br)) = &bulk {
        r.bulk_iter(bs.as_ref(), br.as_ref(), bt, false, false);
        bt += 1;
        for _ in 0..8 {
            r.pong(&mut pong, &mut pong_rx, pt, false);
            pt += 1;
        }
    }
    r.samples.flush();

    let t_measure = Instant::now();
    let mut block: u64 = 0;
    loop {
        let mut go = [0u8];
        if r.rank() == 0 {
            let more = if ring {
                it <= w.ring_iters
            } else {
                t_measure.elapsed() < args.budget
            };
            go[0] = more as u8;
            comm.send(1, TAG_CTRL, &go);
        } else {
            comm.recv_into(Some(0), Some(TAG_CTRL), &mut go);
        }
        if go[0] == 0 {
            break;
        }
        let spans = args.mode == Mode::Spans && block % 2 == 1;
        for _ in 0..p_iters {
            r.part_iter(ps.as_ref(), pr.as_ref(), it, spans);
            it += 1;
        }
        if let Some((bs, br)) = &bulk {
            for _ in 0..b_iters {
                r.bulk_iter(bs.as_ref(), br.as_ref(), bt, spans, true);
                bt += 1;
            }
            comm.barrier();
            for _ in 0..pongs {
                r.pong(&mut pong, &mut pong_rx, pt, true);
                pt += 1;
            }
        }
        r.samples.flush();
        if r.reports() || r.ok + r.failed > 0 {
            emit(&format!("P {} {}", r.ok, r.failed));
            r.ok = 0;
            r.failed = 0;
        }
        block += 1;
    }
    if r.reports() {
        emit("F");
    }
}

impl Rank<'_> {
    /// Stamp every partition of iteration `it`, and on a digested
    /// iteration write the iteration's body under the stamps first.
    fn fill_parts(&self, ps: &pcomm_core::part::PsendRequest, it: u64) {
        let (pb, key) = (self.w.part_bytes, self.inp.key);
        let body =
            inputs::digested(it).then(|| inputs::body(key, Kind::Part, it, self.w.payload()));
        for p in 0..self.w.n_parts {
            ps.write_partition(p, |b| {
                if let Some(body) = &body {
                    b.copy_from_slice(&body[p * pb..(p + 1) * pb]);
                }
                inputs::stamp(b, key, Kind::Part, it, p);
            });
        }
    }

    /// Check every stamp of iteration `it`, and its body when digested.
    fn check_parts(&self, pr: &pcomm_core::part::PrecvRequest, it: u64) -> Result<(), String> {
        let (n, key) = (self.w.n_parts, self.inp.key);
        (0..n).try_for_each(|p| inputs::check_stamp(pr.partition(p), key, Kind::Part, it, p))?;
        if inputs::digested(it) {
            let parts = (0..n).map(|p| pr.partition(p));
            inputs::check_body(parts, self.w.part_bytes, key, Kind::Part, it)?;
        }
        Ok(())
    }

    /// One partitioned iteration. The sender arms its request and writes
    /// the stamps before the barrier: the API only accepts writes on an
    /// active request, and the receiver's window opens after the barrier.
    fn part_iter(
        &mut self,
        ps: Option<&pcomm_core::part::PsendRequest>,
        pr: Option<&pcomm_core::part::PrecvRequest>,
        it: u64,
        spans: bool,
    ) {
        let n = self.w.n_parts;
        let sched = self.schedule(it);
        let d_ns = sched.iter().copied().max().unwrap_or(0);
        if let Some(ps) = ps {
            ps.start();
            self.fill_parts(ps, it);
        }
        let mut t_barrier = Duration::ZERO;
        timed(spans, &mut t_barrier, || self.comm.barrier());
        let c0 = (spans && self.reports()).then(|| (thread_stats(), self.comm.matched_messages()));
        let pool0 = (spans && self.records_send()).then(pool_stats);

        let t0 = Instant::now();
        let (mut t_start, mut t_spin, mut t_pready, mut t_swait, mut t_rwait) = Default::default();
        if let Some(pr) = pr {
            timed(spans, &mut t_start, || pr.start());
        }
        let mut late = Duration::ZERO;
        if let Some(ps) = ps {
            for (p, &ready) in sched.iter().enumerate() {
                timed(spans, &mut t_spin, || spin_until(t0, ready));
                if self.args.plant_hang && it == 3 {
                    loop {
                        std::thread::park();
                    }
                }
                if spans && p + 1 == n {
                    late = t0.elapsed().saturating_sub(Duration::from_nanos(ready));
                }
                timed(spans, &mut t_pready, || ps.pready(p));
            }
            timed(spans, &mut t_swait, || ps.wait());
        }
        let pool1 = pool0.map(|_| pool_stats());
        if let Some(pr) = pr {
            timed(spans, &mut t_rwait, || pr.wait());
        }
        let window = t0.elapsed();

        let iter_us = us(window) - d_ns as f64 / 1e3;
        if self.reports() {
            let s = &mut self.samples;
            match (self.args.mode, spans) {
                (Mode::Ring, _) => s.push("ring.iter_us", iter_us),
                (_, false) => {
                    s.push("iter_us", iter_us);
                    s.push("window_us", us(window));
                }
                (_, true) => {
                    s.push("span.iter_us", iter_us);
                    s.push("span.window_us", us(window));
                    s.push("part.start_ns", t_start.as_nanos() as f64);
                    s.push("part.recv_wait_us", us(t_rwait));
                    s.push("comm.barrier_us", us(t_barrier));
                    let (h0, m0) = c0.expect("counters read when spans are on");
                    let h1 = thread_stats();
                    s.push("sync.mutex_locks", (h1.mutex_locks - h0.mutex_locks) as f64);
                    s.push(
                        "sync.fast_probes",
                        (h1.completion_fast_probes - h0.completion_fast_probes) as f64,
                    );
                    s.push(
                        "sync.slow_waits",
                        (h1.completion_slow_waits - h0.completion_slow_waits) as f64,
                    );
                    s.push(
                        "fabric.matched_msgs",
                        (self.comm.matched_messages() - m0) as f64,
                    );
                    // The receiving thread's own timeline, for the layer table.
                    s.push("tbl.start_us", us(t_start));
                    s.push("tbl.recv_wait_us", us(t_rwait));
                    if self.w.bidirectional {
                        s.push("tbl.compute_us", us(t_spin));
                        s.push("tbl.pready_us", us(t_pready));
                        s.push("tbl.send_wait_us", us(t_swait));
                    }
                }
            }
        }
        if spans && self.records_send() {
            let s = &mut self.samples;
            s.push("part.pready_ns", t_pready.as_nanos() as f64 / n as f64);
            s.push("part.send_wait_us", us(t_swait));
            s.push("gen.late_us", us(late));
        }
        if let (Some(a), Some(b)) = (pool0, pool1) {
            // Process-wide counters over the sender's window; in small_shm
            // that process also holds the receiving rank.
            self.samples
                .push("fabric.pool_hits", (b.hits - a.hits) as f64);
            self.samples
                .push("fabric.pool_misses", (b.misses - a.misses) as f64);
        }

        if let Some(pr) = pr {
            let res = self.check_parts(pr, it);
            self.verdict(res);
        }
    }

    /// One bulk iteration: the same payload and delays, sent as one
    /// persistent message once the last partition would have been ready.
    fn bulk_iter(
        &mut self,
        bs: Option<&pcomm_core::p2p::PersistentSend>,
        br: Option<&pcomm_core::p2p::PersistentRecv>,
        bt: u64,
        spans: bool,
        record: bool,
    ) {
        let (pb, key) = (self.w.part_bytes, self.inp.key);
        let d_ns = self.schedule(bt).iter().copied().max().unwrap_or(0);
        if let Some(bs) = bs {
            let body =
                inputs::digested(bt).then(|| inputs::body(key, Kind::Bulk, bt, self.w.payload()));
            bs.write(|b| {
                if let Some(body) = &body {
                    b.copy_from_slice(body);
                }
                for (p, part) in b.chunks_mut(pb).enumerate() {
                    inputs::stamp(part, key, Kind::Bulk, bt, p);
                }
            });
        }
        self.comm.barrier();
        let t0 = Instant::now();
        if let Some(br) = br {
            br.start();
        }
        let mut t_swait = Duration::ZERO;
        if let Some(bs) = bs {
            spin_until(t0, d_ns);
            bs.start();
            timed(spans, &mut t_swait, || bs.wait());
        }
        let info = br.map(|br| br.wait());
        let window = t0.elapsed();
        if record && self.reports() {
            self.samples
                .push("bulk_iter_us", us(window) - d_ns as f64 / 1e3);
        }
        if spans && self.records_send() {
            self.samples.push("p2p.bulk_send_wait_us", us(t_swait));
        }
        if let (Some(br), Some(info)) = (br, info) {
            let mut res = Ok(());
            br.read(|b| {
                res = if info.len != b.len() {
                    Err(format!(
                        "Bulk iteration {bt}: {} bytes, expected {}",
                        info.len,
                        b.len()
                    ))
                } else {
                    inputs::check_stamps(b, pb, key, Kind::Bulk, bt)
                };
                if res.is_ok() && inputs::digested(bt) {
                    res = inputs::check_body(b.chunks(pb), pb, key, Kind::Bulk, bt);
                }
            });
            self.verdict(res);
        }
    }

    /// One ping-pong round trip, timed on rank 0.
    fn pong(&mut self, buf: &mut [u8], rx: &mut [u8], pt: u64, record: bool) {
        let key = self.inp.key;
        if self.rank() == 0 {
            inputs::stamp(buf, key, Kind::Pong, pt, 0);
            let t0 = Instant::now();
            self.comm.send(1, TAG_PONG, buf);
            let info = self.comm.recv_into(Some(1), Some(TAG_PONG), rx);
            let rt = t0.elapsed();
            if record {
                self.samples.push("pingpong_us", us(rt));
            }
            let res = if info.len != PONG_BYTES {
                Err(format!(
                    "Pong {pt}: {} bytes, expected {PONG_BYTES}",
                    info.len
                ))
            } else if rx != buf {
                Err(format!("Pong {pt}: echo differs from what was sent"))
            } else {
                inputs::check_stamp(rx, key, Kind::Pong, pt, 0)
            };
            self.verdict(res);
        } else {
            let info = self.comm.recv_into(Some(0), Some(TAG_PONG), rx);
            self.comm.send(0, TAG_PONG, &rx[..info.len]);
        }
    }
}

/// VmHWM of this process in kB, if `/proc` has it.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Entry point of a rank process. Returns the process exit code.
pub fn rank_main(args: &RankArgs) -> i32 {
    let inp = match read_inputs(Path::new(&args.dir), args.workload.n_parts) {
        Ok(i) => i,
        Err(e) => {
            emit(&format!("E {e}"));
            return 2;
        }
    };
    let t_run = Instant::now();
    let out = Universe::new(2).run(|comm| {
        let entered = Instant::now();
        rank_body(&comm, args, &inp);
        (comm.rank(), entered, Instant::now())
    });
    let returned = Instant::now();
    match out {
        Ok(v) => {
            // In-process both ranks' results come back; take rank 0's.
            let (_, entered, left) = v.iter().find(|r| r.0 == 0).copied().unwrap_or(v[0]);
            emit(&format!(
                "U {} {}",
                (entered - t_run).as_secs_f64() * 1e3,
                (returned - left).as_secs_f64() * 1e3
            ));
            if let Some(kb) = vm_hwm_kb() {
                emit(&format!("R {kb}"));
            }
            0
        }
        Err(e) => {
            emit(&format!("E typed error: {e}"));
            1
        }
    }
}
