//! The auditor's cooperative-copy rule: on the ipc fabric a receiver
//! may acknowledge (`PartDone`) only copies the sender published to it
//! (`PartReady`). A clean publish/claim/acknowledge exchange audits
//! clean and is counted; a planted acknowledgement with no publish
//! before it is exactly one `DoneWithoutReady` finding.

use pcomm_net::frame::op;
use pcomm_trace::{Event, EventKind, RankEvents};
use pcomm_verify::{audit, AuditKind};

fn wire(ts_ns: u64, rank: u16, peer: u16, send: bool, fop: u8, seq: u32) -> Event {
    let (lane, op, epoch) = (0, fop as u16, 0);
    let kind = if send {
        EventKind::VerifyWireSend {
            peer,
            lane,
            op,
            epoch,
            seq,
        }
    } else {
        EventKind::VerifyWireRecv {
            peer,
            lane,
            op,
            epoch,
            seq,
        }
    };
    Event { ts_ns, rank, kind }
}

fn ring(rank: u16, events: Vec<Event>) -> RankEvents {
    RankEvents {
        rank,
        dropped: 0,
        events,
    }
}

/// Rank 1 publishes two messages to rank 0; rank 0 copies the first
/// (acknowledging it) and rank 1's `wait` copies the second. When
/// `done_first`, rank 0's acknowledgement is planted before any
/// publish reached it.
fn exchange(done_first: bool) -> Vec<RankEvents> {
    let sender = vec![
        wire(10, 1, 0, true, op::PART_READY, 0),
        wire(20, 1, 0, true, op::PART_READY, 1),
        wire(30, 1, 0, true, op::PART_DATA, 2),
        wire(60, 1, 0, false, op::PART_DONE, 0),
    ];
    let mut receiver = vec![
        wire(15, 0, 1, false, op::PART_READY, 0),
        wire(25, 0, 1, false, op::PART_READY, 1),
        wire(35, 0, 1, false, op::PART_DATA, 2),
    ];
    let done = wire(50, 0, 1, true, op::PART_DONE, 0);
    if done_first {
        receiver.insert(0, Event { ts_ns: 5, ..done });
    } else {
        receiver.push(done);
    }
    vec![ring(0, receiver), ring(1, sender)]
}

#[test]
fn acknowledged_copy_after_publish_is_clean() {
    let report = audit(&exchange(false));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.stats.coop_copies, 1);
}

#[test]
fn acknowledgement_before_any_publish_is_flagged() {
    let report = audit(&exchange(true));
    assert_eq!(report.findings.len(), 1, "{report}");
    let f = &report.findings[0];
    assert_eq!(f.kind, AuditKind::DoneWithoutReady);
    assert_eq!(
        (f.rank, f.peer, f.seq),
        (0, 1, 0),
        "anchored at the planted PartDone"
    );
}
