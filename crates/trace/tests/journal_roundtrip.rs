//! JSON journal round-trip property: every event kind, with arbitrary
//! coordinates, survives `events_to_json` → `events_from_json`
//! bit-for-bit — the same pattern as the network `Message` wire-codec
//! proptest.

use dce_obs::{DeferReason, Event, EventKind, ReqId};
use dce_trace::json::{events_from_json, events_to_json};
use proptest::prelude::*;

fn arb_req_id() -> impl Strategy<Value = ReqId> {
    (any::<u32>(), any::<u64>()).prop_map(|(site, seq)| ReqId { site, seq })
}

fn arb_reason() -> impl Strategy<Value = DeferReason> {
    prop_oneof![
        any::<u64>().prop_map(DeferReason::MissingVersion),
        arb_req_id().prop_map(DeferReason::MissingRequest),
    ]
}

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        arb_req_id().prop_map(|id| EventKind::ReqGenerated { id }),
        arb_req_id().prop_map(|id| EventKind::ReqReceived { id }),
        arb_req_id().prop_map(|id| EventKind::ReqDuplicate { id }),
        (arb_req_id(), arb_reason()).prop_map(|(id, reason)| EventKind::ReqDeferred { id, reason }),
        arb_req_id().prop_map(|id| EventKind::ReqExecuted { id }),
        arb_req_id().prop_map(|id| EventKind::ReqInert { id }),
        arb_req_id().prop_map(|id| EventKind::ReqDenied { id }),
        arb_req_id().prop_map(|id| EventKind::ReqUndone { id }),
        any::<u32>().prop_map(|user| EventKind::CheckLocalDenied { user }),
        any::<u64>().prop_map(|version| EventKind::AdminReceived { version }),
        (any::<u64>(), arb_reason())
            .prop_map(|(version, reason)| EventKind::AdminDeferred { version, reason }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(version, restrictive)| EventKind::AdminApplied { version, restrictive }),
        (arb_req_id(), any::<u64>())
            .prop_map(|(id, version)| EventKind::ValidationIssued { id, version }),
        (arb_req_id(), any::<u64>())
            .prop_map(|(id, version)| EventKind::ValidationConsumed { id, version }),
        (any::<u32>(), any::<u32>(), any::<u64>(), proptest::option::of(arb_req_id())).prop_map(
            |(src, dest, stream_seq, req)| EventKind::StreamRetransmit {
                src,
                dest,
                stream_seq,
                req,
            },
        ),
        (any::<u32>(), any::<u32>()).prop_map(|(src, dest)| EventKind::LegDropped { src, dest }),
        (any::<u32>(), any::<u32>()).prop_map(|(src, dest)| EventKind::LegDuplicated { src, dest }),
        any::<u64>().prop_map(|at_ms| EventKind::PartitionHealed { at_ms }),
        any::<u32>().prop_map(|site| EventKind::SiteCrashed { site }),
        any::<u32>().prop_map(|site| EventKind::SiteRejoined { site }),
        arb_req_id().prop_map(|id| EventKind::ReqStable { id }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        (any::<u32>(), any::<u64>()),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        arb_kind(),
    )
        .prop_map(|((site, doc), seq, version, lamport, at, kind)| Event {
            site,
            doc,
            seq,
            version,
            lamport,
            at,
            kind,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single events round-trip.
    #[test]
    fn event_round_trip(ev in arb_event()) {
        let journal = vec![ev];
        prop_assert_eq!(events_from_json(&events_to_json(&journal)).unwrap(), journal);
    }

    /// Whole journals round-trip, the empty one included.
    #[test]
    fn journal_round_trip(journal in proptest::collection::vec(arb_event(), 0..8)) {
        prop_assert_eq!(events_from_json(&events_to_json(&journal)).unwrap(), journal);
    }
}
