//! Property tests for the wire protocol: arbitrary frames round-trip
//! bit-for-bit, and arbitrary corruption is rejected rather than
//! misparsed.
//!
//! Deterministic, table-driven coverage of each frame kind lives next
//! to the codec in `src/protocol.rs`; this file sweeps the spaces those
//! tables cannot enumerate — random field values, random truncation
//! points, random junk payloads.

use proptest::prelude::*;
use rsk_api::KeySet;
use rsk_serve::protocol::{
    ProtocolError, Request, Response, SnapshotKind, StatsReply, MAX_BATCH, VERSION,
};
use rsk_serve::ErrorCode;

fn arb_keyset() -> impl Strategy<Value = KeySet> {
    let explicit = proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64)
        .prop_map(KeySet::explicit);
    let range = (
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(|(a, b)| KeySet::range(a.min(b), a.max(b)));
    let mask = (
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(|(pattern, mask)| KeySet::mask(pattern, mask));
    prop_oneof![explicit, range, mask]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let ingest = (
        proptest::prelude::any::<u32>(),
        proptest::collection::vec((proptest::prelude::any::<u64>(), 0u64..1 << 40), 0..64),
    )
        .prop_map(|(tenant, items)| Request::Ingest { tenant, items });
    let query = (
        proptest::prelude::any::<u32>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(|(tenant, key)| Request::Query { tenant, key });
    let certified = (
        proptest::prelude::any::<u32>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(|(tenant, key)| Request::QueryCertified { tenant, key });
    let seal = proptest::prelude::any::<u32>().prop_map(|tenant| Request::Seal { tenant });
    let merge = (
        proptest::prelude::any::<u32>(),
        proptest::prelude::any::<u32>(),
    )
        .prop_map(|(dst, src)| Request::Merge { dst, src });
    let snapshot =
        (proptest::prelude::any::<u32>(), 0u8..3).prop_map(|(tenant, raw)| Request::Snapshot {
            tenant,
            kind: match raw {
                0 => SnapshotKind::Full,
                1 => SnapshotKind::Delta,
                _ => SnapshotKind::Slim,
            },
        });
    let push_delta = (
        proptest::prelude::any::<u32>(),
        proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
    )
        .prop_map(|(tenant, payload)| Request::PushDelta { tenant, payload });
    let top_k = (
        proptest::prelude::any::<u32>(),
        proptest::prelude::any::<u32>(),
    )
        .prop_map(|(tenant, k)| Request::TopK { tenant, k });
    let subpop = (proptest::prelude::any::<u32>(), arb_keyset())
        .prop_map(|(tenant, set)| Request::Subpop { tenant, set });
    prop_oneof![
        ingest,
        query,
        certified,
        seal,
        merge,
        snapshot,
        push_delta,
        top_k,
        subpop,
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let ack = proptest::prelude::any::<u32>().prop_map(|accepted| Response::IngestAck { accepted });
    let value = proptest::prelude::any::<u64>().prop_map(|value| Response::Value { value });
    let certified = (
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(
            |(value, max_possible_error, slack, epoch)| Response::Certified {
                value,
                max_possible_error,
                slack,
                epoch,
            },
        );
    let sealed = proptest::prelude::any::<u64>().prop_map(|epoch| Response::Sealed { epoch });
    let stats = (
        (
            proptest::prelude::any::<u32>(),
            proptest::prelude::any::<u32>(),
        ),
        (
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
        ),
        (
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
        ),
    )
        .prop_map(
            |((tenants, connections), (items_ingested, queries, seals), (merges, rb, rc, rep))| {
                Response::Stats(StatsReply {
                    tenants,
                    connections,
                    items_ingested,
                    queries,
                    seals,
                    merges,
                    rejected_batches: rb,
                    rejected_connections: rc,
                    replications: rep,
                })
            },
        );
    let error = (0u8..7, proptest::collection::vec(32u8..127, 0..64)).prop_map(|(raw, msg)| {
        let code = match raw {
            0 | 1 => ErrorCode::Malformed,
            2 => ErrorCode::BatchTooLarge,
            3 => ErrorCode::TooManyConnections,
            4 => ErrorCode::MergeRefused,
            5 => ErrorCode::BadTenant,
            _ => ErrorCode::ReplicateRefused,
        };
        Response::Error {
            code,
            message: String::from_utf8(msg).expect("printable ASCII"),
        }
    });
    let snapshot_resp = proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)
        .prop_map(|payload| Response::Snapshot { payload });
    let top_k = (
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::collection::vec(
            (
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
            ),
            0..48,
        ),
    )
        .prop_map(|(epoch, slack, floor, entries)| Response::TopK {
            epoch,
            slack,
            floor,
            entries,
        });
    let subpop = (
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
        proptest::prelude::any::<u64>(),
    )
        .prop_map(|(estimate, lo, hi, slack, epoch)| Response::Subpop {
            estimate,
            lo,
            hi,
            slack,
            epoch,
        });
    prop_oneof![
        ack,
        value,
        certified,
        sealed,
        Just(Response::Merged),
        stats,
        snapshot_resp,
        Just(Response::Replicated),
        top_k,
        subpop,
        Just(Response::ShuttingDown),
        error,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every representable request survives encode → decode unchanged.
    #[test]
    fn prop_request_round_trips(req in arb_request()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// Every representable response survives encode → decode unchanged.
    #[test]
    fn prop_response_round_trips(resp in arb_response()) {
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Truncating a valid frame at any point yields a typed error,
    /// never a bogus parse or a panic.
    #[test]
    fn prop_truncation_never_misparses(req in arb_request(), frac in 0.0f64..1.0) {
        let full = req.encode();
        let cut = ((full.len() as f64) * frac) as usize;
        prop_assume!(cut < full.len());
        prop_assert!(Request::decode(&full[..cut]).is_err());
    }

    /// Appending junk to a valid frame is always rejected as trailing
    /// bytes (the codec must not silently ignore suffixes).
    #[test]
    fn prop_suffixed_frames_rejected(req in arb_request(), junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..32)) {
        let mut bytes = req.encode();
        bytes.extend_from_slice(&junk);
        prop_assert!(Request::decode(&bytes).is_err());
    }

    /// Arbitrary byte soup either decodes to something that re-encodes
    /// to the exact same bytes (a genuinely valid frame) or fails with
    /// a typed error — never panics, never aliases.
    #[test]
    fn prop_junk_decode_is_total(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
        match Request::decode(&bytes) {
            Ok(req) => prop_assert_eq!(req.encode(), bytes),
            Err(
                ProtocolError::Truncated
                | ProtocolError::TrailingBytes
                | ProtocolError::BadVersion(_)
                | ProtocolError::UnknownOpcode(_)
                | ProtocolError::CountTooLarge(_)
                | ProtocolError::BadUtf8
                | ProtocolError::Oversized(_)
                | ProtocolError::NonCanonical(_),
            ) => {}
        }
        if let Ok(resp) = Response::decode(&bytes) {
            prop_assert_eq!(resp.encode(), bytes);
        }
    }

    /// An ingest frame whose declared count disagrees with its byte
    /// count is rejected whichever way it lies.
    #[test]
    fn prop_ingest_count_lies_rejected(
        tenant in proptest::prelude::any::<u32>(),
        real in 0u32..16,
        claimed in 0u32..(MAX_BATCH as u32),
    ) {
        prop_assume!(real != claimed);
        let mut bytes = vec![VERSION, 0x01];
        bytes.extend_from_slice(&tenant.to_le_bytes());
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, real as usize * 16));
        prop_assert!(Request::decode(&bytes).is_err());
    }

    /// A subpop frame with an explicit key set whose declared count
    /// disagrees with the bytes that follow is rejected whichever way it
    /// lies — including counts past `MAX_BATCH`, which bounce before
    /// allocation.
    #[test]
    fn prop_subpop_count_lies_rejected(
        tenant in proptest::prelude::any::<u32>(),
        real in 0u32..16,
        claimed in proptest::prelude::any::<u32>(),
    ) {
        prop_assume!(real != claimed);
        let mut bytes = vec![VERSION, 0x0C];
        bytes.extend_from_slice(&tenant.to_le_bytes());
        bytes.push(0); // explicit-set tag
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, real as usize * 8));
        prop_assert!(Request::decode(&bytes).is_err());
    }

    /// An explicit key list that is not sorted strictly increasing is
    /// rejected as non-canonical: decode must never accept bytes it
    /// would re-encode differently.
    #[test]
    fn prop_subpop_non_canonical_keys_rejected(
        tenant in proptest::prelude::any::<u32>(),
        keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..32),
    ) {
        let mut keys = keys;
        keys.sort_unstable();
        keys.reverse();
        prop_assume!(keys.windows(2).any(|w| w[0] >= w[1]));
        let mut bytes = vec![VERSION, 0x0C];
        bytes.extend_from_slice(&tenant.to_le_bytes());
        bytes.push(0); // explicit-set tag
        bytes.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for k in &keys {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        prop_assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtocolError::NonCanonical("explicit key set must be sorted strictly increasing")
        );
    }

    /// A top-K reply whose declared entry count disagrees with the
    /// bytes that follow is rejected whichever way it lies — including
    /// counts past `MAX_BATCH`, which must bounce before allocation.
    #[test]
    fn prop_topk_count_lies_rejected(
        header in proptest::collection::vec(proptest::prelude::any::<u64>(), 3),
        real in 0u32..16,
        claimed in proptest::prelude::any::<u32>(),
    ) {
        prop_assume!(real != claimed);
        let mut bytes = vec![VERSION, 0x8A];
        for word in &header {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, real as usize * 24));
        prop_assert!(Response::decode(&bytes).is_err());
    }
}
