//! The claim word of one cooperative copy.
//!
//! On the ipc fabric a partitioned send buffer lives in the shared
//! segment, so either process can move a ready message into the
//! receiver's buffer. `pready` only *publishes* the message; whichever
//! side is idle first takes the copy. One 64-bit word per message, in
//! the header of the sender's source grant, decides who that is:
//!
//! ```text
//! word = epoch << 2 | state        state: IDLE → READY → CLAIMED → DONE
//! ```
//!
//! * the sender [`publish`]es READY(e) for the iteration with epoch `e`
//!   (the word must be IDLE or DONE of an older epoch — the previous
//!   copy has landed);
//! * the receiver (draining the READY descriptor) and the sender (in
//!   its `wait`) both [`try_claim`]: one compare-and-swap READY(e) →
//!   CLAIMED(e), so exactly one of them wins;
//! * the winner copies and marks the word [`finish`]ed, DONE(e).
//!
//! The epoch is the iteration's stream id, fresh every iteration and
//! never reused by the sending process, so a claimer acting on a stale
//! descriptor compares against the wrong epoch and fails instead of
//! claiming a later iteration's copy.
//!
//! The functions are generic over [`ClaimCell`] so the interleaving
//! explorer in the root `tests/claim_word.rs` can run this exact code
//! against a scheduler-controlled word.

use std::sync::atomic::{AtomicU64, Ordering};

/// Never published since the grant was handed out (zeroed header).
pub const IDLE: u64 = 0;
/// Published by the sender: bytes ready, copy not yet taken.
pub const READY: u64 = 1;
/// A claimer won the copy and is moving the bytes.
pub const CLAIMED: u64 = 2;
/// The copy landed; the word may be published again.
pub const DONE: u64 = 3;

/// Bytes of claim words at the head of a source grant of `n_msgs`
/// messages, padded so the data that follows starts on a cache line.
pub fn header_bytes(n_msgs: usize) -> u64 {
    (n_msgs as u64 * 8).div_ceil(64) * 64
}

/// The word for `state` in `epoch`.
pub fn word(epoch: u64, state: u64) -> u64 {
    epoch << 2 | state
}

/// The state bits of a word.
pub fn state(word: u64) -> u64 {
    word & 3
}

/// The epoch bits of a word.
pub fn epoch(word: u64) -> u64 {
    word >> 2
}

/// The atomic operations the protocol uses, one indivisible step each.
pub trait ClaimCell {
    /// Read the word (Acquire).
    fn load(&self) -> u64;
    /// Overwrite the word (Release).
    fn store(&self, v: u64);
    /// Compare-and-swap: `Ok(old)` when the word was `cur` and is now
    /// `new` (AcqRel), `Err(actual)` otherwise.
    fn compare_exchange(&self, cur: u64, new: u64) -> Result<u64, u64>;
}

impl ClaimCell for AtomicU64 {
    fn load(&self) -> u64 {
        // Acquire: a publisher that sees DONE also sees the claimer's
        // copy finished with its source range.
        AtomicU64::load(self, Ordering::Acquire)
    }

    fn store(&self, v: u64) {
        // Release: DONE is stored after the copy's last read of the
        // source range.
        AtomicU64::store(self, v, Ordering::Release)
    }

    fn compare_exchange(&self, cur: u64, new: u64) -> Result<u64, u64> {
        // AcqRel on success: publishing releases the sender's partition
        // writes, claiming acquires them. Acquire on failure so a loser
        // reads a coherent word for its diagnostics.
        AtomicU64::compare_exchange(self, cur, new, Ordering::AcqRel, Ordering::Acquire)
    }
}

/// Sender: publish the message for `epoch`. `Err(word)` when the word
/// is not IDLE or DONE of an older epoch: a previous copy has not
/// landed, and the caller must not reuse the source range.
pub fn publish(cell: &impl ClaimCell, epoch: u64) -> Result<(), u64> {
    let cur = cell.load();
    let reusable = match state(cur) {
        IDLE => true,
        DONE => self::epoch(cur) < epoch,
        _ => false,
    };
    if !reusable {
        return Err(cur);
    }
    cell.compare_exchange(cur, word(epoch, READY)).map(|_| ())
}

/// Either side: try to take the copy of `epoch`. `true` for exactly one
/// caller per published epoch; that caller must [`finish`] it.
pub fn try_claim(cell: &impl ClaimCell, epoch: u64) -> bool {
    cell.compare_exchange(word(epoch, READY), word(epoch, CLAIMED))
        .is_ok()
}

/// The claimer: the copy of `epoch` landed.
pub fn finish(cell: &impl ClaimCell, epoch: u64) {
    cell.store(word(epoch, DONE));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_iteration_walks_the_states() {
        let w = AtomicU64::new(IDLE);
        assert!(!try_claim(&w, 5), "nothing published yet");
        publish(&w, 5).unwrap();
        assert_eq!(state(ClaimCell::load(&w)), READY);
        assert!(try_claim(&w, 5));
        assert!(!try_claim(&w, 5), "second claimer loses");
        assert_eq!(publish(&w, 6), Err(word(5, CLAIMED)), "copy in flight");
        finish(&w, 5);
        assert!(!try_claim(&w, 6), "stale epoch never claims");
        publish(&w, 6).unwrap();
        assert!(!try_claim(&w, 5), "old descriptor misses the new epoch");
        assert!(try_claim(&w, 6));
    }

    #[test]
    fn header_pads_to_cache_lines() {
        assert_eq!(header_bytes(1), 64);
        assert_eq!(header_bytes(8), 64);
        assert_eq!(header_bytes(9), 128);
    }
}
