//! Seeded inputs and the output check.
//!
//! Everything a rank needs is generated here from the benchmark seed and
//! handed over as data: per-iteration ready-time schedules and a payload
//! key. Every iteration overwrites the 16-byte *stamps* at the head and
//! tail of each partition with the iteration and partition index. On a
//! fixed sample of iterations the sender also rewrites every other byte
//! with a body keyed by the payload key, the kind of transfer and the
//! iteration, so a body left in the receive buffer by an earlier
//! iteration cannot pass. The receiver checks every stamp on every
//! iteration and an FNV-1a digest of the body on the sampled ones, all
//! outside the timed window.

use pcomm_perfmodel::{ComputeProfile, DelayModel, NoiseModel};
use pcomm_prng::{Rng64, SplitMix64, Xoshiro256pp};
use pcomm_workloads::DelaySchedule;

/// Bytes of one stamp; each partition carries one at its head and one
/// at its tail.
pub const STAMP: usize = 16;

/// Ready-time schedules generated per run; iteration `i` uses schedule
/// `i % SCHEDULES`.
pub const SCHEDULES: usize = 64;

/// Iterations whose body is rewritten and digested (`i % DIGEST_EVERY == 0`).
pub const DIGEST_EVERY: u64 = 32;

/// Whether iteration `iter` carries a fresh body that the receiver digests.
pub fn digested(iter: u64) -> bool {
    iter.is_multiple_of(DIGEST_EVERY)
}

/// What a stamp belongs to, so a bulk buffer can never pass for a
/// partitioned one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A partitioned iteration.
    Part = 1,
    /// A bulk (single persistent message) iteration.
    Bulk = 2,
    /// A ping-pong round trip.
    Pong = 3,
}

/// Appendix-A stencil delays: ε = 0.04 system noise, δ = 0.5 imbalance.
pub fn stencil_delays() -> DelayModel {
    DelayModel::new(
        ComputeProfile::stencil3d(),
        NoiseModel {
            epsilon: 0.04,
            delta: 0.5,
        },
    )
}

/// `SCHEDULES` ready-time schedules in ns from the start of compute,
/// indexed by partition, for one compute thread owning all `n_parts`
/// partitions. `delayed == false` readies every partition at once.
pub fn schedules(seed: u64, n_parts: usize, part_bytes: usize, delayed: bool) -> Vec<Vec<u64>> {
    let sched = if delayed {
        DelaySchedule::GaussianCompute {
            model: stencil_delays(),
        }
    } else {
        DelaySchedule::Immediate
    };
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..SCHEDULES)
        .map(|_| {
            sched
                .ready_times(1, n_parts, part_bytes, &mut rng)
                .into_iter()
                .map(|d| d.as_ns_f64().round() as u64)
                .collect()
        })
        .collect()
}

/// The payload key for a seed (distinct from the schedule stream).
pub fn payload_key(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0x7061_796c_6f61_6421).next_u64()
}

/// `len` pseudo-random bytes drawn from `key`.
fn pattern(key: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(key);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The `len`-byte payload of iteration `iter` of `kind`, before stamping.
pub fn body(key: u64, kind: Kind, iter: u64, len: usize) -> Vec<u8> {
    pattern(
        key ^ ((kind as u64) << 56) ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        len,
    )
}

fn stamp_bytes(key: u64, kind: Kind, iter: u64, part: usize) -> [u8; STAMP] {
    let mut s = [0u8; STAMP];
    s[..8].copy_from_slice(&iter.to_le_bytes());
    s[8..12].copy_from_slice(&(part as u32).to_le_bytes());
    let check =
        SplitMix64::new(key ^ iter.rotate_left(17) ^ ((part as u64) << 40)).next_u64() as u32;
    s[12..].copy_from_slice(&((check & 0x00ff_ffff) | ((kind as u32) << 24)).to_le_bytes());
    s
}

/// Stamp one partition's head and tail.
pub fn stamp(part_buf: &mut [u8], key: u64, kind: Kind, iter: u64, part: usize) {
    let s = stamp_bytes(key, kind, iter, part);
    let n = part_buf.len();
    part_buf[..STAMP].copy_from_slice(&s);
    part_buf[n - STAMP..].copy_from_slice(&s);
}

/// Check one partition's head and tail stamp.
pub fn check_stamp(part: &[u8], key: u64, kind: Kind, iter: u64, p: usize) -> Result<(), String> {
    let want = stamp_bytes(key, kind, iter, p);
    let n = part.len();
    for (at, got) in [(0, &part[..STAMP]), (n - STAMP, &part[n - STAMP..])] {
        if got != want {
            return Err(format!(
                "{kind:?} iteration {iter}: partition {p} stamp at byte {at} is {got:02x?}, \
                 expected {want:02x?}"
            ));
        }
    }
    Ok(())
}

/// Check the stamps of every `part_bytes` partition of `buf`.
pub fn check_stamps(
    buf: &[u8],
    part_bytes: usize,
    key: u64,
    kind: Kind,
    iter: u64,
) -> Result<(), String> {
    buf.chunks(part_bytes)
        .enumerate()
        .try_for_each(|(p, part)| check_stamp(part, key, kind, iter, p))
}

/// FNV-1a over every byte of the partitions outside their stamps.
pub fn body_digest_parts<'a>(parts: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in &part[STAMP..part.len() - STAMP] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// [`body_digest_parts`] of a contiguous buffer of `part_bytes` partitions.
pub fn body_digest(buf: &[u8], part_bytes: usize) -> u64 {
    body_digest_parts(buf.chunks(part_bytes))
}

/// Check the bodies of one iteration's `part_bytes` partitions against
/// the [`body`] the sender wrote for that iteration.
pub fn check_body<'a>(
    parts: impl ExactSizeIterator<Item = &'a [u8]>,
    part_bytes: usize,
    key: u64,
    kind: Kind,
    iter: u64,
) -> Result<(), String> {
    let want = body_digest(&body(key, kind, iter, parts.len() * part_bytes), part_bytes);
    let got = body_digest_parts(parts);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{kind:?} iteration {iter}: body digest {got:016x}, expected {want:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer as the sender leaves it: the body of `body_iter`, the
    /// stamps of `iter`.
    fn sent(n_parts: usize, part_bytes: usize, body_iter: u64, iter: u64) -> Vec<u8> {
        let mut buf = body(9, Kind::Part, body_iter, n_parts * part_bytes);
        for (p, part) in buf.chunks_mut(part_bytes).enumerate() {
            stamp(part, 9, Kind::Part, iter, p);
        }
        buf
    }

    fn stamped(n_parts: usize, part_bytes: usize, iter: u64) -> Vec<u8> {
        sent(n_parts, part_bytes, iter, iter)
    }

    #[test]
    fn same_seed_same_schedules() {
        let a = schedules(42, 16, 1 << 20, true);
        let b = schedules(42, 16, 1 << 20, true);
        assert_eq!(a, b);
        assert_eq!(a.len(), SCHEDULES);
        assert_ne!(a, schedules(43, 16, 1 << 20, true), "seed must matter");
        assert!(a.iter().all(|s| s.len() == 16 && s.iter().any(|&t| t > 0)));
        let imm = schedules(42, 64, 64, false);
        assert!(imm.iter().flatten().all(|&t| t == 0));
    }

    #[test]
    fn schedules_ready_in_processing_order() {
        // One compute thread accumulates its partitions' compute times,
        // so ready times never decrease along the partition index.
        for s in schedules(7, 16, 65536, true) {
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
        }
    }

    #[test]
    fn stamps_pass_when_intact() {
        let buf = stamped(4, 64, 11);
        check_stamps(&buf, 64, 9, Kind::Part, 11).unwrap();
        check_body(buf.chunks(64), 64, 9, Kind::Part, 11).unwrap();
        assert_eq!(
            body_digest(&buf, 64),
            body_digest(&body(9, Kind::Part, 11, 4 * 64), 64),
            "stamps are outside the digest"
        );
    }

    #[test]
    fn stale_body_is_caught() {
        // Fresh stamps over the body an earlier sampled iteration left in
        // the receive buffer: the stamps pass, the body check does not.
        let stale = sent(4, 64, 32, 64);
        check_stamps(&stale, 64, 9, Kind::Part, 64).unwrap();
        assert!(check_body(stale.chunks(64), 64, 9, Kind::Part, 64).is_err());
        check_body(stale.chunks(64), 64, 9, Kind::Part, 32).unwrap();
        // A bulk body never passes for a partitioned one.
        let bulk = body(9, Kind::Bulk, 64, 4 * 64);
        assert!(check_body(bulk.chunks(64), 64, 9, Kind::Part, 64).is_err());
    }

    #[test]
    fn planted_corrupt_byte_is_caught() {
        let clean = stamped(4, 64, 11);
        // A stamp byte: the stamp check fails.
        let mut buf = clean.clone();
        buf[2 * 64 + 3] ^= 0x40;
        assert!(check_stamps(&buf, 64, 9, Kind::Part, 11).is_err());
        // A tail stamp byte.
        let mut buf = clean.clone();
        buf[4 * 64 - 1] ^= 1;
        assert!(check_stamps(&buf, 64, 9, Kind::Part, 11).is_err());
        // A body byte: stamps pass, the digest does not.
        let mut buf = clean.clone();
        buf[64 + 30] ^= 0x01;
        check_stamps(&buf, 64, 9, Kind::Part, 11).unwrap();
        assert!(check_body(buf.chunks(64), 64, 9, Kind::Part, 11).is_err());
        // A stale iteration or the wrong kind never passes.
        assert!(check_stamps(&clean, 64, 9, Kind::Part, 10).is_err());
        assert!(check_stamps(&clean, 64, 9, Kind::Bulk, 11).is_err());
    }
}
