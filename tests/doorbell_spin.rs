//! Mechanical check of the doorbell's spinners word
//! (`pcomm_net::ipc::doorbell`, DESIGN.md §15).
//!
//! A ring skips its futex wake while the target rank has a thread
//! spinning on its inbound records; that spinner re-checks after it
//! leaves. This test runs the real `Doorbell::ring` / `spin` / `seq` /
//! `wait` against model words whose every access is one scheduling
//! point, with three actors:
//!
//! * a producer pushing records and ringing after each;
//! * the receiver's app thread in `wait_slice`: `spin` enters, drains
//!   once, leaves, then re-checks — drains again if records are pending
//!   and rings if any are still left or that drain found none;
//! * the receiver's progress thread, looping as `progress_loop` does:
//!   drain, snapshot the bell, drain, park.
//!
//! The model futex never times out, so a wake that was skipped and not
//! made up for leaves the progress thread asleep next to a pending
//! record — which the explorer reports as a lost completion. Every
//! schedule must end with every record drained. The explorer
//! (`tests/explore`) tries every interleaving of the steps; a drain
//! takes one record per step, as the runtime takes one per lock
//! acquisition.

mod explore;

use std::io;
use std::sync::atomic::Ordering;

use pcomm::net::ipc::doorbell::{BellWord, Doorbell};

/// Records the producer pushes.
const RECORDS: u32 = 2;

/// Preemption bound of the search (`tests/explore`).
const PREEMPTIONS: usize = 3;

#[derive(Default)]
struct World {
    bell: u32,
    sleepers: u32,
    spinners: u32,
    /// Pushed and not yet popped.
    pending: u32,
    popped: u32,
    /// The progress thread is parked in the futex (a wake clears it).
    asleep: bool,
    violations: Vec<String>,
}

impl explore::World for World {
    fn violations(&mut self) -> &mut Vec<String> {
        &mut self.violations
    }

    fn check_end(&self, out: &mut Vec<String>) {
        if self.popped != RECORDS {
            out.push(format!("{} of {RECORDS} records drained", self.popped));
        }
    }
}

type Sched = explore::Sched<World>;

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Bell,
    Sleepers,
    Spinners,
}

/// One doorbell word as seen by actor `me`: every access is a step.
struct Word<'a> {
    sched: &'a Sched,
    me: usize,
    which: Which,
}

fn slot(w: &mut World, which: Which) -> &mut u32 {
    match which {
        Which::Bell => &mut w.bell,
        Which::Sleepers => &mut w.sleepers,
        Which::Spinners => &mut w.spinners,
    }
}

impl BellWord for Word<'_> {
    fn load(&self, _: Ordering) -> u32 {
        let which = self.which;
        self.sched.step(self.me, |_| true, move |w| *slot(w, which))
    }

    fn fetch_add(&self, v: u32, _: Ordering) -> u32 {
        let which = self.which;
        self.sched.step(
            self.me,
            |_| true,
            move |w| {
                let s = slot(w, which);
                *s += v;
                *s - v
            },
        )
    }

    fn fetch_sub(&self, v: u32, _: Ordering) -> u32 {
        let which = self.which;
        self.sched.step(
            self.me,
            |_| true,
            move |w| {
                let s = slot(w, which);
                *s -= v;
                *s + v
            },
        )
    }

    /// Compare and park in one step, as the kernel does; then sleep
    /// until a wake — or until every record is drained, when the
    /// runtime's teardown would wake it.
    fn futex_wait(&self, expect: u32, _timeout_ns: u64) -> io::Result<bool> {
        assert!(self.which == Which::Bell, "only the bell is waited on");
        let parked = self.sched.step(
            self.me,
            |_| true,
            move |w| {
                w.asleep = w.bell == expect;
                w.asleep
            },
        );
        if parked {
            self.sched.step(
                self.me,
                |w| !w.asleep || w.popped == RECORDS,
                |w| w.asleep = false,
            );
        }
        Ok(true)
    }

    fn futex_wake_all(&self) -> io::Result<()> {
        self.sched.step(self.me, |_| true, |w| w.asleep = false);
        Ok(())
    }
}

/// Actor `me`'s view of the receiver's inbound doorbell.
fn with_doorbell<R>(s: &Sched, me: usize, f: impl FnOnce(&Doorbell<'_, Word<'_>>) -> R) -> R {
    let word = |which| Word {
        sched: s,
        me,
        which,
    };
    let (bell, sleepers, spinners) = (
        word(Which::Bell),
        word(Which::Sleepers),
        word(Which::Spinners),
    );
    f(&Doorbell::with_spinners(&bell, &sleepers, &spinners))
}

/// `progress_pass`: pop every pending record; returns whether it
/// popped any.
fn drain(s: &Sched, me: usize) -> bool {
    s.step(
        me,
        |_| true,
        |w| {
            let took = w.pending > 0;
            w.popped += std::mem::take(&mut w.pending);
            took
        },
    )
}

fn pending(s: &Sched, me: usize) -> bool {
    s.step(me, |_| true, |w| w.pending > 0)
}

const PRODUCER: usize = 0;
const SPINNER: usize = 1;
const PROGRESS: usize = 2;

fn producer(s: &Sched) {
    for _ in 0..RECORDS {
        s.step(PRODUCER, |_| true, |w| w.pending += 1);
        with_doorbell(s, PRODUCER, |bell| bell.ring()).unwrap();
    }
}

/// `IpcTransport::wait_slice`: one spin window with one drain in it.
fn spinner(s: &Sched) {
    with_doorbell(s, SPINNER, |bell| {
        bell.spin(
            || drain(s, SPINNER),
            || pending(s, SPINNER),
            || drain(s, SPINNER),
        )
    });
}

/// `IpcTransport::progress_loop` until every record is drained.
fn progress(s: &Sched) {
    with_doorbell(s, PROGRESS, |bell| loop {
        let mut done = false;
        s.note(|w| done = w.popped == RECORDS);
        if done {
            return;
        }
        if drain(s, PROGRESS) {
            continue;
        }
        let seen = bell.seq();
        if drain(s, PROGRESS) {
            continue;
        }
        bell.wait(seen, u64::MAX).unwrap();
    });
}

#[test]
fn a_ring_skipped_for_a_spinner_never_strands_a_record() {
    let (runs, failure) =
        explore::explore_bounded::<World>(&[producer, spinner, progress], PREEMPTIONS);
    if let Some((schedule, violations)) = failure {
        panic!("schedule {schedule:?} (after {runs} runs) strands a record: {violations:?}");
    }
    // The spinner races both the producer's rings and the progress
    // thread's parking; a collapse here means the explorer stopped
    // exploring.
    assert!(runs > 100, "only {runs} schedules explored");
    eprintln!("doorbell spinners: {runs} schedules, all clean");
}
