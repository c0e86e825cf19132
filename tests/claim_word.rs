//! Mechanical check of the cooperative-copy claim word
//! (`pcomm_net::ipc::claim`, DESIGN.md §15).
//!
//! A sender and a receiver run the real `publish` / `try_claim` /
//! `finish` functions over two iterations of one message, against a
//! model word whose every access is one scheduling point. The receiver
//! drains with two threads, as the runtime does (the waiting app thread
//! and the progress thread), and a drained record's claim is a separate
//! step from its pop — so a claimer can act on a descriptor from an
//! iteration the others have finished. A depth-first explorer replays
//! the actors under every interleaving of those points (and of the ring
//! and CTS steps around them) and checks, on every schedule:
//!
//! * exactly one side copies each (message, iteration);
//! * the sender republishes only over DONE of the previous iteration
//!   (`publish` would refuse otherwise), so no copy is still reading a
//!   reused source;
//! * no completion is lost: every schedule ends with both sides
//!   finished, never with both blocked.
//!
//! The explorer itself (one thread per actor, a single baton) is
//! `tests/explore`.

mod explore;

use std::collections::VecDeque;

use pcomm::net::ipc::claim::{self, ClaimCell};

type Sched = explore::Sched<World>;

/// Iterations (epochs 1..=EPOCHS) of the one message.
const EPOCHS: u64 = 2;

/// A record on the sender → receiver ring.
#[derive(Clone, Copy, Debug)]
enum Rec {
    /// `K_PART_READY`: epoch published.
    Ready(u64),
    /// `K_PART`: the sender copied this epoch itself.
    Commit(u64),
}

/// Everything the two sides share.
#[derive(Default)]
struct World {
    word: u64,
    ring: VecDeque<Rec>,
    /// `K_PART_DONE` records, receiver → sender.
    done: VecDeque<u64>,
    /// Latest epoch the receiver posted (its CTS).
    posted: u64,
    /// Per epoch: the message landed in the receiver's buffer.
    arrived: [bool; EPOCHS as usize + 1],
    copies: [u32; EPOCHS as usize + 1],
    violations: Vec<String>,
}

impl explore::World for World {
    fn violations(&mut self) -> &mut Vec<String> {
        &mut self.violations
    }

    fn check_end(&self, out: &mut Vec<String>) {
        for e in 1..=EPOCHS as usize {
            if self.copies[e] != 1 {
                out.push(format!("epoch {e} copied {} times", self.copies[e]));
            }
        }
    }
}

/// The claim word as seen by actor `me`: every access is a step.
struct Cell<'a> {
    sched: &'a Sched,
    me: usize,
}

impl ClaimCell for Cell<'_> {
    fn load(&self) -> u64 {
        self.sched.step(self.me, |_| true, |w| w.word)
    }

    fn store(&self, v: u64) {
        self.sched.step(self.me, |_| true, |w| w.word = v)
    }

    fn compare_exchange(&self, cur: u64, new: u64) -> Result<u64, u64> {
        self.sched.step(
            self.me,
            |_| true,
            |w| {
                if w.word == cur {
                    w.word = new;
                    Ok(cur)
                } else {
                    Err(w.word)
                }
            },
        )
    }
}

const SENDER: usize = 0;
const RECEIVER: usize = 1;
const PROGRESS: usize = 2;

/// The sender: per epoch, wait for the CTS, publish, push READY, then
/// in `wait` claim and copy or wait for the receiver's DONE.
fn sender(s: &Sched) {
    let cell = Cell {
        sched: s,
        me: SENDER,
    };
    for e in 1..=EPOCHS {
        s.step(SENDER, move |w| w.posted >= e, |_| ());
        if let Err(word) = claim::publish(&cell, e) {
            s.note(|w| {
                w.violations.push(format!(
                    "epoch {e} published over {word:#x}: previous copy not DONE"
                ))
            });
            return;
        }
        s.step(SENDER, |_| true, |w| w.ring.push_back(Rec::Ready(e)));
        if claim::try_claim(&cell, e) {
            s.note(|w| w.copies[e as usize] += 1);
            claim::finish(&cell, e);
            s.step(SENDER, |_| true, |w| w.ring.push_back(Rec::Commit(e)));
        } else {
            let got = s.step(SENDER, |w| !w.done.is_empty(), |w| w.done.pop_front());
            if got != Some(e) {
                s.note(|w| {
                    w.violations
                        .push(format!("epoch {e} completed by a DONE for {got:?}"))
                });
                return;
            }
        }
    }
}

/// Handle one drained record on receiver thread `me`: claim and copy
/// a READY, or take the sender's commit.
fn drain_one(s: &Sched, cell: &Cell<'_>, me: usize, rec: Option<Rec>) {
    match rec {
        Some(Rec::Ready(r)) => {
            if !claim::try_claim(cell, r) {
                return; // the sender took it; its Commit follows
            }
            s.note(|w| w.copies[r as usize] += 1);
            claim::finish(cell, r);
            s.step(
                me,
                |_| true,
                |w| {
                    w.arrived[r as usize] = true;
                    w.done.push_back(r);
                },
            );
        }
        Some(Rec::Commit(r)) => s.step(me, |_| true, |w| w.arrived[r as usize] = true),
        None => {}
    }
}

/// The receiver's app thread: per epoch, post (CTS), then drain the
/// ring until the epoch's message arrived.
fn receiver(s: &Sched) {
    let cell = Cell {
        sched: s,
        me: RECEIVER,
    };
    for e in 1..=EPOCHS {
        s.step(RECEIVER, |_| true, move |w| w.posted = e);
        loop {
            let idx = e as usize;
            let rec = s.step(
                RECEIVER,
                move |w| w.arrived[idx] || !w.ring.is_empty(),
                move |w| (!w.arrived[idx]).then(|| w.ring.pop_front()).flatten(),
            );
            if rec.is_none() {
                break; // arrived
            }
            drain_one(s, &cell, RECEIVER, rec);
        }
    }
}

/// The receiver's progress thread: drain whatever arrives until the
/// last epoch landed.
fn progress(s: &Sched) {
    let cell = Cell {
        sched: s,
        me: PROGRESS,
    };
    let last = EPOCHS as usize;
    loop {
        let rec = s.step(
            PROGRESS,
            move |w| w.arrived[last] || !w.ring.is_empty(),
            |w| w.ring.pop_front(),
        );
        if rec.is_none() {
            return;
        }
        drain_one(s, &cell, PROGRESS, rec);
    }
}

#[test]
fn every_interleaving_copies_once_and_never_reuses_a_live_word() {
    let (runs, failure) = explore::explore::<World>(&[sender, receiver, progress]);
    if let Some((schedule, violations)) = failure {
        panic!("schedule {schedule:?} (after {runs} runs) violates the protocol: {violations:?}");
    }
    // Both claimers race on every iteration, so the space is far larger
    // than one straight-line order; a collapse here means the explorer
    // stopped exploring.
    assert!(runs > 100, "only {runs} schedules explored");
    eprintln!("claim word: {runs} schedules, all clean");
}
