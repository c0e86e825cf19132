//! Futex doorbells: the only blocking primitive in the ipc fabric.
//!
//! A doorbell is a pair of process-shared words — a monotonic *bell*
//! counter and a *sleepers* count. The waiter side drains its work,
//! snapshots the bell ([`Doorbell::seq`]), drains again, and only then
//! parks in [`Doorbell::wait`]; the notifier bumps the bell and issues
//! a `FUTEX_WAKE` **only when someone is actually asleep** — which is
//! what makes the steady state zero-syscall: a spinning (yielding)
//! receiver never costs the sender a kernel entry.
//!
//! The snapshot/recheck protocol closes the classic lost-wakeup race
//! the same way glibc condvars do: if the bell moved between the
//! snapshot and the park, `FUTEX_WAIT` bounces with `EAGAIN`; if the
//! sleeper registered before the ring, the notifier sees
//! `sleepers > 0` and wakes. Waits are additionally bounded by the
//! caller's slice (≤ a few ms), so even a theoretically lost wake only
//! costs one slice, never liveness.
//!
//! A rank's inbound doorbell also carries a *spinners* word: the
//! number of the rank's threads draining inline right now. While it is
//! nonzero a ring skips the wake — a spinner will pop the work, so
//! waking the parked progress thread would only cost the notifier a
//! syscall and the receiver a context switch. [`Doorbell::spin`] wraps
//! a spinner: it enters, drains, leaves and then re-checks for work;
//! the `SeqCst` fences on both sides (Dekker-style) guarantee that a
//! record published without a wake is seen by that re-check.
//!
//! The protocol is generic over [`BellWord`] so the interleaving
//! explorer in the root `tests/doorbell_spin.rs` can run this exact
//! code against scheduler-controlled words; the runtime uses
//! [`AtomicU32`] and the futex.

use crate::sys;
use std::io;
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// The operations a doorbell performs on one of its words, one
/// indivisible step each.
pub trait BellWord {
    /// Read the word.
    fn load(&self, order: Ordering) -> u32;
    /// Add `v`, returning the previous value.
    fn fetch_add(&self, v: u32, order: Ordering) -> u32;
    /// Subtract `v`, returning the previous value.
    fn fetch_sub(&self, v: u32, order: Ordering) -> u32;
    /// `FUTEX_WAIT`: park while the word reads `expect`, for at most
    /// `timeout_ns`; `Ok(true)` if woken or the word had moved.
    fn futex_wait(&self, expect: u32, timeout_ns: u64) -> io::Result<bool>;
    /// `FUTEX_WAKE` every waiter parked on the word.
    fn futex_wake_all(&self) -> io::Result<()>;
}

impl BellWord for AtomicU32 {
    fn load(&self, order: Ordering) -> u32 {
        AtomicU32::load(self, order)
    }

    fn fetch_add(&self, v: u32, order: Ordering) -> u32 {
        AtomicU32::fetch_add(self, v, order)
    }

    fn fetch_sub(&self, v: u32, order: Ordering) -> u32 {
        AtomicU32::fetch_sub(self, v, order)
    }

    fn futex_wait(&self, expect: u32, timeout_ns: u64) -> io::Result<bool> {
        sys::futex_wait(self, expect, timeout_ns)
    }

    fn futex_wake_all(&self) -> io::Result<()> {
        sys::futex_wake(self, u32::MAX).map(|_| ())
    }
}

/// A bell/sleepers word pair somewhere in the shared segment, plus the
/// owner's spinners word for inbound doorbells.
pub struct Doorbell<'a, W: BellWord = AtomicU32> {
    bell: &'a W,
    sleepers: &'a W,
    spinners: Option<&'a W>,
}

impl<'a, W: BellWord> Doorbell<'a, W> {
    /// Wrap a bell/sleepers pair (segment layout picks the words).
    pub fn new(bell: &'a W, sleepers: &'a W) -> Self {
        Doorbell {
            bell,
            sleepers,
            spinners: None,
        }
    }

    /// A doorbell whose owner announces inline drainers in `spinners`
    /// (see the module docs).
    pub fn with_spinners(bell: &'a W, sleepers: &'a W, spinners: &'a W) -> Self {
        Doorbell {
            bell,
            sleepers,
            spinners: Some(spinners),
        }
    }

    /// The owner: one of its threads starts draining inline; rings skip
    /// the wake until it leaves.
    fn enter_spin(&self) {
        if let Some(spinners) = self.spinners {
            spinners.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The owner: the spinning thread stops draining. Callers use
    /// [`Doorbell::spin`], which re-checks for work afterwards.
    fn leave_spin(&self) {
        if let Some(spinners) = self.spinners {
            spinners.fetch_sub(1, Ordering::SeqCst);
            // Pairs with the fence in `ring`: either the notifier sees
            // this decrement and wakes, or the caller's re-check sees
            // the notifier's work.
            fence(Ordering::SeqCst);
        }
    }

    /// The owner drains inline: run `body` as a spinner (rings skip the
    /// wake meanwhile), then leave and re-check. A record a notifier
    /// pushed without waking, on this spinner's account, is `pending`
    /// now: `drain` takes it, and if that made no progress or work is
    /// still left the bell is rung so the parked drainer takes it.
    pub fn spin<R>(
        &self,
        body: impl FnOnce() -> R,
        pending: impl Fn() -> bool,
        drain: impl FnOnce() -> bool,
    ) -> R {
        self.enter_spin();
        let out = body();
        self.leave_spin();
        if pending() && (!drain() || pending()) {
            // A failed wake is covered by the parked side's own
            // timeout slice.
            let _ = self.ring();
        }
        out
    }

    /// Snapshot the bell. Drain once more after taking this and pass it
    /// to [`Doorbell::wait`] — any ring after the snapshot makes the
    /// wait return immediately.
    pub fn seq(&self) -> u32 {
        self.bell.load(Ordering::Acquire)
    }

    /// Ring the bell: make pending work visible, then wake sleepers —
    /// skipping the `futex_wake` syscall entirely when nobody is
    /// parked or an owner thread is spinning on the work.
    pub fn ring(&self) -> io::Result<()> {
        self.bell.fetch_add(1, Ordering::AcqRel);
        if let Some(spinners) = self.spinners {
            // Pairs with the fence in `leave_spin` (module docs).
            fence(Ordering::SeqCst);
            // ORDERING: the SeqCst fences above and in `leave_spin`
            // order this load against the spinner's decrement.
            if spinners.load(Ordering::Relaxed) > 0 {
                return Ok(());
            }
        }
        if self.sleepers.load(Ordering::Acquire) > 0 {
            self.bell.futex_wake_all()?;
        }
        Ok(())
    }

    /// Park until the bell moves past `seen` or `timeout_ns` elapses.
    /// Returns `Ok(true)` if (probably) rung, `Ok(false)` on timeout;
    /// callers re-drain in a loop either way.
    pub fn wait(&self, seen: u32, timeout_ns: u64) -> io::Result<bool> {
        self.sleepers.fetch_add(1, Ordering::AcqRel);
        let woken = self.bell.futex_wait(seen, timeout_ns);
        self.sleepers.fetch_sub(1, Ordering::AcqRel);
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wakes_waiter_across_threads() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let db = Doorbell::new(&bell, &sleepers);
                let seen = db.seq();
                db.wait(seen, 2_000_000_000).unwrap()
            });
            let db = Doorbell::new(&bell, &sleepers);
            while sleepers.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            db.ring().unwrap();
            assert!(waiter.join().unwrap());
        });
    }

    #[test]
    fn stale_snapshot_returns_immediately() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        let db = Doorbell::new(&bell, &sleepers);
        let seen = db.seq();
        db.ring().unwrap();
        // Bell moved after the snapshot: wait must not block.
        assert!(db.wait(seen, 5_000_000_000).unwrap());
    }
}
