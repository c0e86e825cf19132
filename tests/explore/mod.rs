//! A deterministic interleaving explorer for the shared-memory protocol
//! checks (`claim_word.rs`, `doorbell_spin.rs`).
//!
//! Each actor is a real thread that runs the protocol code under test;
//! every access it makes to the modelled shared state is one
//! [`Sched::step`]. A controller hands a single baton to one parked
//! actor at a time, so a schedule is exactly the sequence of baton
//! grants, and [`explore`] replays the actors under every sequence
//! depth-first — exhaustive and deterministic. A schedule in which
//! every live actor is blocked is reported as a lost completion.
//!
//! [`explore_bounded`] enumerates only the schedules with at most a
//! given number of *preemptions* — switches away from an actor that
//! could have taken its next step (switches at a blocked or finished
//! actor are free). That keeps larger models tractable while still
//! covering every ordering a small number of context switches can
//! produce.

use std::sync::{Arc, Condvar, Mutex};

/// The shared state one protocol check models.
pub trait World: Default + Send + 'static {
    /// Where actors record what they saw go wrong.
    fn violations(&mut self) -> &mut Vec<String>;

    /// Checks on a schedule whose actors all finished.
    fn check_end(&self, _out: &mut Vec<String>) {}
}

/// Why an actor is parked: its step may run once the world satisfies
/// the predicate.
type Enabled<W> = Box<dyn Fn(&W) -> bool + Send>;

/// The baton scheduler the actors of one schedule share.
pub struct Sched<W> {
    state: Mutex<State<W>>,
    cv: Condvar,
}

struct State<W> {
    world: W,
    /// Per actor: parked at a step (with its enabling predicate).
    parked: Vec<Option<Enabled<W>>>,
    finished: Vec<bool>,
    /// The actor holding the baton.
    grant: Option<usize>,
}

impl<W: World> Sched<W> {
    /// One scheduling point of actor `me`: park until granted while
    /// `enabled` holds, then apply `act` to the world.
    pub fn step<R>(
        &self,
        me: usize,
        enabled: impl Fn(&W) -> bool + Send + 'static,
        act: impl FnOnce(&mut W) -> R,
    ) -> R {
        let mut st = self.state.lock().unwrap();
        st.parked[me] = Some(Box::new(enabled));
        self.cv.notify_all();
        while st.grant != Some(me) {
            st = self.cv.wait(st).unwrap();
        }
        st.grant = None;
        st.parked[me] = None;
        act(&mut st.world)
    }

    /// Bookkeeping by the baton holder that no other actor can observe
    /// mid-way: applied without a scheduling point.
    pub fn note(&self, f: impl FnOnce(&mut W)) {
        f(&mut self.state.lock().unwrap().world);
    }

    fn finish(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.finished[me] = true;
        self.cv.notify_all();
    }
}

/// An actor: one thread's part of the protocol.
pub type Actor<W> = fn(&Sched<W>);

/// Outcome of one schedule.
struct Run {
    /// Number of enabled actors at each decision point.
    options: Vec<usize>,
    violations: Vec<String>,
}

/// Replay one schedule: at decision `d`, grant the `choice[d]`-th
/// allowed actor (0 past the end of `choice`). The actor that ran last
/// comes first among the enabled ones; once `max_preemptions` switches
/// away from it were made, it is the only one allowed.
fn run_schedule<W: World>(actors: &[Actor<W>], choice: &[usize], max_preemptions: usize) -> Run {
    let n = actors.len();
    let sched = Arc::new(Sched {
        state: Mutex::new(State {
            world: W::default(),
            parked: (0..n).map(|_| None).collect(),
            finished: vec![false; n],
            grant: None,
        }),
        cv: Condvar::new(),
    });
    let handles: Vec<_> = actors
        .iter()
        .enumerate()
        .map(|(me, &body)| {
            let s = Arc::clone(&sched);
            std::thread::spawn(move || {
                body(&s);
                s.finish(me);
            })
        })
        .collect();
    let mut options = Vec::new();
    let (mut last, mut preemptions) = (None, 0);
    let mut st = sched.state.lock().unwrap();
    loop {
        // Wait until every live actor is parked at its next step.
        while st.grant.is_some() || (0..n).any(|a| !st.finished[a] && st.parked[a].is_none()) {
            st = sched.cv.wait(st).unwrap();
        }
        if st.finished.iter().all(|&f| f) {
            break;
        }
        let mut enabled: Vec<usize> = (0..n)
            .filter(|&a| st.parked[a].as_ref().is_some_and(|p| p(&st.world)))
            .collect();
        let running = last.filter(|l| enabled.contains(l));
        if let Some(l) = running {
            enabled.retain(|&a| a != l);
            if preemptions >= max_preemptions {
                enabled.clear();
            }
            enabled.insert(0, l);
        }
        if enabled.is_empty() {
            st.world
                .violations()
                .push("lost completion: every live actor blocked".into());
            break;
        }
        let pick = enabled[choice.get(options.len()).copied().unwrap_or(0)];
        options.push(enabled.len());
        if running.is_some_and(|l| l != pick) {
            preemptions += 1;
        }
        last = Some(pick);
        st.grant = Some(pick);
        sched.cv.notify_all();
    }
    let deadlocked = !st.finished.iter().all(|&f| f);
    let mut violations = std::mem::take(st.world.violations());
    if !deadlocked {
        st.world.check_end(&mut violations);
    }
    drop(st);
    if deadlocked {
        // Blocked actors never finish; leave them parked (the process
        // exits at the end of the test run) — the schedule is already
        // a failure.
        std::mem::forget(handles);
    } else {
        for h in handles {
            h.join().expect("actor panicked");
        }
    }
    Run {
        options,
        violations,
    }
}

/// A failing schedule (its decisions) and what it violated.
pub type Failure = (Vec<usize>, Vec<String>);

/// Depth-first enumeration of every schedule of `actors`; returns how
/// many ran and the first failing one, if any.
#[allow(dead_code)] // each protocol check uses one of the two entry points
pub fn explore<W: World>(actors: &[Actor<W>]) -> (usize, Option<Failure>) {
    explore_bounded(actors, usize::MAX)
}

/// Like [`explore`], over the schedules with at most `max_preemptions`
/// preemptions.
#[allow(dead_code)] // each protocol check uses one of the two entry points
pub fn explore_bounded<W: World>(
    actors: &[Actor<W>],
    max_preemptions: usize,
) -> (usize, Option<Failure>) {
    let mut choice: Vec<usize> = Vec::new();
    let mut runs = 0;
    loop {
        let run = run_schedule(actors, &choice, max_preemptions);
        runs += 1;
        if !run.violations.is_empty() {
            return (runs, Some((choice, run.violations)));
        }
        // Next schedule: bump the deepest decision with an untried
        // alternative, drop everything after it.
        let mut full: Vec<usize> = (0..run.options.len())
            .map(|d| choice.get(d).copied().unwrap_or(0))
            .collect();
        loop {
            let Some(last) = full.pop() else {
                return (runs, None);
            };
            let d = full.len();
            if last + 1 < run.options[d] {
                full.push(last + 1);
                break;
            }
        }
        choice = full;
    }
}
