//! Property test: mangled wire bytes decode to typed errors, never panics.
//!
//! `tests/command_fuzz.rs` fuzzes the command surface; this file is its
//! transport twin. Valid [`Frame`], [`ServerRequest`], and
//! [`ServerResponse`] encodings are truncated, bit-flipped, and
//! tag-mutated, and every mangled buffer must come back as `Err` — the
//! CRC32 trailer makes corruption a *typed* error — without ever decoding
//! into a frame that differs from the one sent. The decoder's borrowed
//! span path (`get_bytes_ref`), which the frame and protocol layers ride
//! to avoid per-message copies, gets the same treatment: truncations and
//! inflated length prefixes fail typed, even under a valid checksum.

use minos::net::frame::crc32;
use minos::net::{
    Delivery, FaultPlan, FaultRng, FaultStats, Frame, Priority, ServerRequest, ServerResponse,
};
use minos::types::{ByteSpan, Decoder, Encoder, MinosError, ObjectId, SimDuration};
use proptest::prelude::*;

/// A palette of representative frames: both directions, scalar and
/// list-carrying payloads, the overload-control messages (epoch handshake
/// and busy rejection), a fuzzed blob for the variable-length bodies.
fn sample_frame(choice: u8, conn: u64, rid: u64, blob: Vec<u8>) -> Frame {
    match choice % 6 {
        0 => {
            Frame::request(conn, rid, ServerRequest::FetchSpan { span: ByteSpan::at(4_096, 8_192) })
        }
        1 => Frame::request(
            conn,
            rid,
            ServerRequest::Query { keywords: vec!["laser".into(), "disc".into()] },
        ),
        2 => Frame::response(conn, rid, ServerResponse::Span(blob)),
        3 => Frame::request_with_priority(
            conn,
            rid,
            Priority::Prefetch,
            ServerRequest::Hello { epoch: rid },
        ),
        4 => Frame::response(
            conn,
            rid,
            ServerResponse::Busy { retry_after: SimDuration::from_micros(conn) },
        ),
        _ => Frame::response(
            conn,
            rid,
            ServerResponse::Hits(vec![ObjectId::new(7), ObjectId::new(rid), ObjectId::new(conn)]),
        ),
    }
}

/// A frame envelope whose payload tag byte is `tag`, carrying a valid
/// priority byte, valid inner bytes, and a *valid* checksum — the decoder
/// reaches the tag dispatch itself instead of tripping on the CRC.
fn frame_with_payload_tag(conn: u64, rid: u64, tag: u8) -> Vec<u8> {
    let mut p = Encoder::new();
    p.put_u8(tag);
    p.put_bytes(&ServerRequest::FetchMiniature { id: ObjectId::new(9) }.encode());
    let mut e = Encoder::new();
    e.put_varint(conn);
    e.put_varint(rid);
    e.put_u8(Priority::Demand.wire_tag());
    e.put_bytes(&p.finish());
    let mut bytes = e.finish();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// A framed 32 KiB page response (the §5 page size): its checksum runs
/// through `crc32`'s fold and then its chain over the last 2,400 bytes,
/// where the palette's frames, under 3.3 KB, take the chain alone.
fn page_frame(conn: u64, rid: u64) -> Frame {
    let mut state = conn ^ rid;
    let page = (0..32_768)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state.to_le_bytes()[7]
        })
        .collect();
    Frame::response(conn, rid, ServerResponse::Span(page))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_frames_are_errors(
        choice in 0u8..6,
        conn in 0u64..1 << 32,
        rid in 0u64..1 << 32,
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        for frame in [sample_frame(choice, conn, rid, blob), page_frame(conn, rid)] {
            let bytes = frame.encode();
            let cut = cut % bytes.len(); // strictly shorter than the full frame
            prop_assert!(Frame::decode(bytes.get(..cut).unwrap_or_default()).is_err());
        }
    }

    #[test]
    fn bit_flips_surface_as_typed_corruption(
        choice in 0u8..6,
        conn in 0u64..1 << 32,
        rid in 0u64..1 << 32,
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        for frame in [sample_frame(choice, conn, rid, blob), page_frame(conn, rid)] {
            let mut bytes = frame.encode();
            let at = at % bytes.len();
            if let Some(byte) = bytes.get_mut(at) {
                *byte ^= 1 << bit;
            }
            // Anywhere the flip lands — envelope, payload, or the trailer
            // itself — the checksum mismatch is what reports it.
            prop_assert!(matches!(Frame::decode(&bytes), Err(MinosError::Corrupt(_))));
        }
    }

    #[test]
    fn mutated_envelope_tags_are_rejected(
        conn in 0u64..1 << 32,
        rid in 0u64..1 << 32,
        tag in 3u8..=255,
    ) {
        let bytes = frame_with_payload_tag(conn, rid, tag);
        prop_assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn mutated_priority_bytes_are_rejected(
        conn in 0u64..1 << 32,
        rid in 0u64..1 << 32,
        priority in 3u8..=255,
    ) {
        // Valid envelope, valid payload, recomputed CRC — only the
        // priority byte is outside the vocabulary, so the typed rejection
        // comes from the class dispatch, never from the checksum.
        let mut bytes = Frame::request(conn, rid, ServerRequest::Probe).encode();
        let at = (minos::types::varint_len(conn) + minos::types::varint_len(rid)) as usize;
        bytes[at] = priority;
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes.truncate(body);
        bytes.extend_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn truncated_overload_messages_fail_typed(
        epoch in any::<u64>(),
        micros in any::<u64>(),
        cut in any::<usize>(),
    ) {
        // The epoch handshake and busy rejection: whole messages round-trip
        // exactly; every strict prefix is a typed error, never an alias.
        let hello = ServerRequest::Hello { epoch };
        let bytes = hello.encode();
        prop_assert_eq!(ServerRequest::decode(&bytes).unwrap(), hello);
        prop_assert!(ServerRequest::decode(&bytes[..cut % bytes.len()]).is_err());

        let welcome = ServerResponse::Welcome { epoch };
        let bytes = welcome.encode();
        prop_assert_eq!(ServerResponse::decode(&bytes).unwrap(), welcome);
        prop_assert!(ServerResponse::decode(&bytes[..cut % bytes.len()]).is_err());

        let busy = ServerResponse::Busy { retry_after: SimDuration::from_micros(micros) };
        let bytes = busy.encode();
        prop_assert_eq!(ServerResponse::decode(&bytes).unwrap(), busy);
        prop_assert!(ServerResponse::decode(&bytes[..cut % bytes.len()]).is_err());
    }

    #[test]
    fn mutated_protocol_tags_are_rejected(tag in 10u8..=255, id in any::<u64>()) {
        // Overwrite the leading tag byte of valid protocol bytes with a
        // tag outside the vocabulary of either direction.
        let mut request = ServerRequest::FetchObject { id: ObjectId::new(id) }.encode();
        if let Some(lead) = request.get_mut(0) {
            *lead = tag;
        }
        prop_assert!(matches!(ServerRequest::decode(&request), Err(MinosError::Codec(_))));
        let mut response = ServerResponse::Hits(vec![ObjectId::new(id)]).encode();
        if let Some(lead) = response.get_mut(0) {
            *lead = tag;
        }
        prop_assert!(matches!(ServerResponse::decode(&response), Err(MinosError::Codec(_))));
    }

    #[test]
    fn inflated_counts_are_bounded_before_allocation(
        tag in proptest::sample::select(vec![5u8, 7u8]),
        count in (1u64 << 32)..=u64::MAX,
    ) {
        // A claimed element count of billions with a few bytes of input
        // must be rejected by the count bound, not by an allocation or a
        // long loop.
        let mut e = Encoder::new();
        e.put_u8(tag);
        e.put_varint(count);
        let bytes = e.finish();
        prop_assert!(ServerRequest::decode(&bytes).is_err());
        prop_assert!(ServerResponse::decode(&bytes).is_err());
    }

    #[test]
    fn borrowed_spans_match_owned_and_reject_truncation(
        blob in proptest::collection::vec(any::<u8>(), 0..128),
        cut in any::<usize>(),
    ) {
        // The zero-copy decode path: `get_bytes_ref` borrows the same
        // block `get_bytes` copies, and every strict prefix of the
        // encoding fails the borrowed path with a typed error — whether
        // the cut lands in the length varint or inside the payload.
        let mut e = Encoder::new();
        e.put_bytes(&blob);
        let bytes = e.finish();
        let mut owned = Decoder::new(&bytes);
        let mut borrowed = Decoder::new(&bytes);
        prop_assert_eq!(owned.get_bytes().unwrap(), borrowed.get_bytes_ref().unwrap());
        let cut = cut % bytes.len();
        let mut short = Decoder::new(bytes.get(..cut).unwrap_or_default());
        prop_assert!(matches!(short.get_bytes_ref(), Err(MinosError::Codec(_))));
    }

    #[test]
    fn inflated_span_lengths_are_rejected_before_the_checksum(
        conn in 0u64..1 << 32,
        rid in 0u64..1 << 32,
        inflate in 1u64..1 << 20,
    ) {
        // A frame whose interior payload-length varint claims more bytes
        // than the buffer holds, with the CRC recomputed so the trailer is
        // *valid*: the rejection must come from the borrowed span's bounds
        // check (a `Codec` error), never from an over-read or the checksum.
        let payload_bytes = {
            let mut p = Encoder::new();
            p.put_u8(1);
            p.put_bytes(&ServerRequest::Probe.encode());
            p.finish()
        };
        let mut e = Encoder::new();
        e.put_varint(conn);
        e.put_varint(rid);
        e.put_u8(Priority::Demand.wire_tag());
        e.put_varint(payload_bytes.len() as u64 + inflate); // lies about the span
        let mut bytes = e.finish();
        bytes.extend_from_slice(&payload_bytes);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Frame::decode(&bytes);
        let _ = ServerRequest::decode(&bytes);
        let _ = ServerResponse::decode(&bytes);
    }

    #[test]
    fn fault_mangled_frames_never_decode_to_a_different_frame(
        choice in 0u8..6,
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
    ) {
        // Whatever a chaotic link does to the bytes, a successful decode
        // is always the frame that was sent (a duplicated delivery), never
        // a silently different one.
        let frame = sample_frame(choice, 3, 11, blob);
        let plan = FaultPlan::chaos(seed, 0.8);
        let mut rng = FaultRng::new(seed);
        let mut stats = FaultStats::default();
        let sent = frame.encode();
        let deliveries: Vec<Delivery> = plan.apply(&mut rng, &sent, &mut stats);
        for delivery in deliveries {
            if let Ok(decoded) = Frame::decode(&delivery.bytes) {
                prop_assert_eq!(&decoded, &frame);
            }
        }
    }
}
