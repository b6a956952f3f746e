//! The workstation ↔ server protocol.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5)
//!
//! The request vocabulary mirrors what the presentation manager needs:
//! whole archived objects, descriptor-pointed spans, *view windows* of
//! large images (so only the view's data crosses the link, §2), miniatures,
//! and content queries. Both directions have a binary encoding with
//! round-trip tests; encoded size is what the link model charges.

use minos_types::{
    varint_len, ByteSpan, Decoder, Encoder, MinosError, ObjectId, Rect, Result, SimDuration,
};

/// Wire bytes of a length-prefixed string or byte block.
fn prefixed_len(len: usize) -> u64 {
    varint_len(len as u64) + len as u64
}

/// A request from the workstation to the server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServerRequest {
    /// Fetch the whole archived form of an object (descriptor +
    /// composition).
    FetchObject {
        /// The object wanted.
        id: ObjectId,
    },
    /// Fetch raw archiver bytes a descriptor pointer names.
    FetchSpan {
        /// The absolute archiver span.
        span: ByteSpan,
    },
    /// Fetch only the window of an image — the E5 path.
    FetchView {
        /// The owning object.
        id: ObjectId,
        /// The image's data tag within the object.
        tag: String,
        /// The requested window in image coordinates.
        rect: Rect,
    },
    /// Fetch an object's miniature for the sequential browsing interface.
    FetchMiniature {
        /// The object wanted.
        id: ObjectId,
    },
    /// Evaluate a content query: all keywords must match.
    Query {
        /// Conjunctive keywords.
        keywords: Vec<String>,
    },
    /// Evaluate an attribute query: exact attribute name/value match
    /// (attributes are the object's formatted data, §2).
    QueryAttribute {
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// (Re-)establishes a connection with the server, announcing the last
    /// server epoch the workstation saw. The server answers with
    /// [`ServerResponse::Welcome`] carrying its current epoch; a mismatch
    /// tells the client its in-flight window was lost to a restart and
    /// must be replayed.
    Hello {
        /// The server epoch the client last observed (0 before any
        /// handshake).
        epoch: u64,
    },
    /// Asks the server how loaded it is without queueing any work. The
    /// server answers with [`ServerResponse::Busy`] whose `retry_after`
    /// is zero when the service queue is idle.
    Probe,
    /// A heartbeat from the health monitor. The server answers from
    /// memory with [`ServerResponse::Pong`] echoing the nonce and
    /// reporting its current epoch, so an *idle* connection still
    /// notices a restart (the epoch bumps) and a silent member is
    /// detected by the missing echo.
    Ping {
        /// Matches the heartbeat to its echo across reordering.
        nonce: u64,
    },
}

/// A response from the server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServerResponse {
    /// Whole-object bytes.
    Object(Vec<u8>),
    /// Raw span bytes.
    Span(Vec<u8>),
    /// A view window's pixels (image-payload encoded).
    View(Vec<u8>),
    /// A miniature (image-payload encoded).
    Miniature(Vec<u8>),
    /// Ids of qualifying objects.
    Hits(Vec<ObjectId>),
    /// Server-side failure.
    Error(String),
    /// Answers [`ServerRequest::Hello`] with the server's current epoch.
    Welcome {
        /// The server's current epoch; bumped by every restart.
        epoch: u64,
    },
    /// The admission-control rejection: the service queue is over its cap
    /// and this request was shed (§5 overload policy). Also answers
    /// [`ServerRequest::Probe`] as a pure load report.
    Busy {
        /// How long the client should wait before resubmitting.
        retry_after: SimDuration,
    },
    /// Answers [`ServerRequest::Ping`]: the heartbeat echo, carrying the
    /// server's current epoch so restart detection is not request-driven.
    Pong {
        /// The nonce of the `Ping` being answered.
        nonce: u64,
        /// The server's current epoch; bumped by every restart.
        epoch: u64,
    },
}

impl ServerRequest {
    /// Encodes this request into an existing encoder — the inline form
    /// the framed transport's pooled encode path uses, so wrapping a
    /// request in a [`crate::Frame`] never materializes an intermediate
    /// `Vec` per message. [`ServerRequest::encode`] is the owning wrapper.
    pub fn encode_to(&self, e: &mut Encoder) {
        match self {
            ServerRequest::FetchObject { id } => {
                e.put_u8(1);
                e.put_u64(id.raw());
            }
            ServerRequest::FetchSpan { span } => {
                e.put_u8(2);
                e.put_varint(span.start);
                e.put_varint(span.end);
            }
            ServerRequest::FetchView { id, tag, rect } => {
                e.put_u8(3);
                e.put_u64(id.raw());
                e.put_str(tag);
                e.put_i32(rect.origin.x);
                e.put_i32(rect.origin.y);
                e.put_u32(rect.size.width);
                e.put_u32(rect.size.height);
            }
            ServerRequest::FetchMiniature { id } => {
                e.put_u8(4);
                e.put_u64(id.raw());
            }
            ServerRequest::Query { keywords } => {
                e.put_u8(5);
                e.put_varint(keywords.len() as u64);
                for k in keywords {
                    e.put_str(k);
                }
            }
            ServerRequest::QueryAttribute { name, value } => {
                e.put_u8(6);
                e.put_str(name);
                e.put_str(value);
            }
            ServerRequest::Hello { epoch } => {
                e.put_u8(8);
                e.put_varint(*epoch);
            }
            ServerRequest::Probe => {
                e.put_u8(9);
            }
            ServerRequest::Ping { nonce } => {
                e.put_u8(10);
                e.put_varint(*nonce);
            }
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_to(&mut e);
        e.finish()
    }

    /// Decodes from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<ServerRequest> {
        let mut d = Decoder::new(bytes);
        let req = match d.get_u8()? {
            1 => ServerRequest::FetchObject { id: ObjectId::new(d.get_u64()?) },
            2 => {
                let start = d.get_varint()?;
                let end = d.get_varint()?;
                if start > end {
                    return Err(MinosError::Codec("inverted span in request".into()));
                }
                ServerRequest::FetchSpan { span: ByteSpan::new(start, end) }
            }
            3 => {
                let id = ObjectId::new(d.get_u64()?);
                let tag = d.get_str()?;
                let x = d.get_i32()?;
                let y = d.get_i32()?;
                let w = d.get_u32()?;
                let h = d.get_u32()?;
                ServerRequest::FetchView { id, tag, rect: Rect::new(x, y, w, h) }
            }
            4 => ServerRequest::FetchMiniature { id: ObjectId::new(d.get_u64()?) },
            5 => {
                // Element counts go through `get_len`: every element costs
                // at least one byte, so a count beyond the remaining input
                // is rejected before any allocation or loop.
                let n = d.get_len()?;
                let mut keywords = Vec::with_capacity(n);
                for _ in 0..n {
                    keywords.push(d.get_str()?);
                }
                ServerRequest::Query { keywords }
            }
            6 => ServerRequest::QueryAttribute { name: d.get_str()?, value: d.get_str()? },
            8 => ServerRequest::Hello { epoch: d.get_varint()? },
            9 => ServerRequest::Probe,
            10 => ServerRequest::Ping { nonce: d.get_varint()? },
            other => return Err(MinosError::Codec(format!("unknown request tag {other}"))),
        };
        d.expect_end()?;
        Ok(req)
    }

    /// Bytes on the wire, computed arithmetically — measuring a request
    /// never materializes its encoding.
    pub fn wire_size(&self) -> u64 {
        1 + match self {
            ServerRequest::FetchObject { .. } | ServerRequest::FetchMiniature { .. } => 8,
            ServerRequest::FetchSpan { span } => varint_len(span.start) + varint_len(span.end),
            ServerRequest::FetchView { tag, .. } => 8 + prefixed_len(tag.len()) + 16,
            ServerRequest::Query { keywords } => {
                varint_len(keywords.len() as u64)
                    + keywords.iter().map(|k| prefixed_len(k.len())).sum::<u64>()
            }
            ServerRequest::QueryAttribute { name, value } => {
                prefixed_len(name.len()) + prefixed_len(value.len())
            }
            ServerRequest::Hello { epoch } => varint_len(*epoch),
            ServerRequest::Probe => 0,
            ServerRequest::Ping { nonce } => varint_len(*nonce),
        }
    }

    /// A field-by-field copy for the heap-free request variants — the
    /// control-plane messages (`FetchObject`, `FetchSpan`,
    /// `FetchMiniature`, `Hello`, `Probe`, `Ping`) that a borrowing
    /// submit path can duplicate without touching the allocator. Returns
    /// `None` for the heap-carrying variants, which must go through the
    /// pooled encode path instead.
    pub fn plain_copy(&self) -> Option<ServerRequest> {
        match self {
            ServerRequest::FetchObject { id } => Some(ServerRequest::FetchObject { id: *id }),
            ServerRequest::FetchSpan { span } => Some(ServerRequest::FetchSpan { span: *span }),
            ServerRequest::FetchMiniature { id } => Some(ServerRequest::FetchMiniature { id: *id }),
            ServerRequest::Hello { epoch } => Some(ServerRequest::Hello { epoch: *epoch }),
            ServerRequest::Probe => Some(ServerRequest::Probe),
            ServerRequest::Ping { nonce } => Some(ServerRequest::Ping { nonce: *nonce }),
            ServerRequest::FetchView { .. }
            | ServerRequest::Query { .. }
            | ServerRequest::QueryAttribute { .. } => None,
        }
    }

    /// The fetched span, if this is a span fetch (used by the server's
    /// service queue to find the run of adjacent span fetches it coalesces
    /// into one device read).
    pub fn as_span(&self) -> Option<ByteSpan> {
        match self {
            ServerRequest::FetchSpan { span } => Some(*span),
            _ => None,
        }
    }
}

impl ServerResponse {
    /// Encodes this response into an existing encoder — the inline form
    /// the framed transport's pooled encode path uses.
    /// [`ServerResponse::encode`] is the owning wrapper.
    pub fn encode_to(&self, e: &mut Encoder) {
        match self {
            ServerResponse::Object(b) => {
                e.put_u8(1);
                e.put_bytes(b);
            }
            ServerResponse::Span(b) => {
                e.put_u8(2);
                e.put_bytes(b);
            }
            ServerResponse::View(b) => {
                e.put_u8(3);
                e.put_bytes(b);
            }
            ServerResponse::Miniature(b) => {
                e.put_u8(4);
                e.put_bytes(b);
            }
            ServerResponse::Hits(ids) => {
                e.put_u8(5);
                e.put_varint(ids.len() as u64);
                for id in ids {
                    e.put_varint(id.raw());
                }
            }
            ServerResponse::Error(msg) => {
                e.put_u8(6);
                e.put_str(msg);
            }
            ServerResponse::Welcome { epoch } => {
                e.put_u8(8);
                e.put_varint(*epoch);
            }
            ServerResponse::Busy { retry_after } => {
                e.put_u8(9);
                e.put_varint(retry_after.as_micros());
            }
            ServerResponse::Pong { nonce, epoch } => {
                e.put_u8(10);
                e.put_varint(*nonce);
                e.put_varint(*epoch);
            }
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_to(&mut e);
        e.finish()
    }

    /// [`ServerResponse::decode`] that copies span payloads into buffers
    /// from `lease` instead of fresh allocations. (It sits first so that
    /// the wire-tag audit reads its match as the decoder's.)
    pub(crate) fn decode_with(
        bytes: &[u8],
        lease: &mut impl FnMut() -> Vec<u8>,
    ) -> Result<ServerResponse> {
        let mut d = Decoder::new(bytes);
        let resp = match d.get_u8()? {
            1 => ServerResponse::Object(d.get_bytes()?),
            2 => {
                let page = d.get_bytes_ref()?;
                let mut buf = lease();
                buf.extend_from_slice(page);
                ServerResponse::Span(buf)
            }
            3 => ServerResponse::View(d.get_bytes()?),
            4 => ServerResponse::Miniature(d.get_bytes()?),
            5 => {
                // Bounded against remaining input, as in request decoding.
                let n = d.get_len()?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(ObjectId::new(d.get_varint()?));
                }
                ServerResponse::Hits(ids)
            }
            6 => ServerResponse::Error(d.get_str()?),
            8 => ServerResponse::Welcome { epoch: d.get_varint()? },
            9 => ServerResponse::Busy { retry_after: SimDuration::from_micros(d.get_varint()?) },
            10 => {
                let nonce = d.get_varint()?;
                let epoch = d.get_varint()?;
                ServerResponse::Pong { nonce, epoch }
            }
            other => return Err(MinosError::Codec(format!("unknown response tag {other}"))),
        };
        d.expect_end()?;
        Ok(resp)
    }

    /// Decodes from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<ServerResponse> {
        ServerResponse::decode_with(bytes, &mut Vec::new)
    }

    /// Bytes on the wire — what the link charges for this response —
    /// computed arithmetically, never copying the payload.
    pub fn wire_size(&self) -> u64 {
        1 + match self {
            ServerResponse::Object(b)
            | ServerResponse::Span(b)
            | ServerResponse::View(b)
            | ServerResponse::Miniature(b) => prefixed_len(b.len()),
            ServerResponse::Hits(ids) => {
                varint_len(ids.len() as u64)
                    + ids.iter().map(|id| varint_len(id.raw())).sum::<u64>()
            }
            ServerResponse::Error(msg) => prefixed_len(msg.len()),
            ServerResponse::Welcome { epoch } => varint_len(*epoch),
            ServerResponse::Busy { retry_after } => varint_len(retry_after.as_micros()),
            ServerResponse::Pong { nonce, epoch } => varint_len(*nonce) + varint_len(*epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_requests() -> Vec<ServerRequest> {
        vec![
            ServerRequest::FetchObject { id: ObjectId::new(7) },
            ServerRequest::FetchSpan { span: ByteSpan::at(1_000, 500) },
            ServerRequest::FetchView {
                id: ObjectId::new(3),
                tag: "map".into(),
                rect: Rect::new(-5, 10, 200, 100),
            },
            ServerRequest::FetchMiniature { id: ObjectId::new(1) },
            ServerRequest::Query { keywords: vec!["x-ray".into(), "shadow".into()] },
            ServerRequest::Query { keywords: vec![] },
            ServerRequest::QueryAttribute { name: "author".into(), value: "dr jones".into() },
            ServerRequest::Hello { epoch: 3 },
            ServerRequest::Hello { epoch: u64::MAX },
            ServerRequest::Probe,
            ServerRequest::Ping { nonce: 0 },
            ServerRequest::Ping { nonce: u64::MAX },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let bytes = req.encode();
            assert_eq!(ServerRequest::decode(&bytes).unwrap(), req, "{req:?}");
            assert_eq!(req.wire_size(), bytes.len() as u64);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            ServerResponse::Object(vec![1, 2, 3]),
            ServerResponse::Span(vec![]),
            ServerResponse::View(vec![9; 100]),
            ServerResponse::Miniature(vec![4; 10]),
            ServerResponse::Hits(vec![ObjectId::new(1), ObjectId::new(99)]),
            ServerResponse::Hits(vec![]),
            ServerResponse::Error("no such object".into()),
            ServerResponse::Welcome { epoch: 0 },
            ServerResponse::Welcome { epoch: u64::MAX },
            ServerResponse::Busy { retry_after: SimDuration::ZERO },
            ServerResponse::Busy { retry_after: SimDuration::from_micros(12_500) },
            ServerResponse::Pong { nonce: 0, epoch: 0 },
            ServerResponse::Pong { nonce: u64::MAX, epoch: 17 },
        ];
        for resp in responses {
            let bytes = resp.encode();
            assert_eq!(ServerResponse::decode(&bytes).unwrap(), resp, "{resp:?}");
            assert_eq!(resp.wire_size(), bytes.len() as u64, "wire_size of {resp:?}");
        }
    }

    #[test]
    fn huge_claimed_counts_are_rejected_before_allocation() {
        // A count varint claiming ~2^62 elements with two bytes of input
        // left must fail the bound check, not size a Vec or spin a loop.
        let mut e = Encoder::new();
        e.put_u8(5); // Query / Hits tag in either direction.
        e.put_varint(1 << 62);
        e.put_raw(&[0, 0]);
        let bytes = e.finish();
        assert!(matches!(ServerRequest::decode(&bytes), Err(MinosError::Codec(_))));
        assert!(matches!(ServerResponse::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn bad_tags_and_truncation_rejected() {
        assert!(ServerRequest::decode(&[99]).is_err());
        assert!(ServerResponse::decode(&[0]).is_err());
        // Tag 7 is unassigned in both directions: an old batch frame is an
        // unknown tag, whatever follows it.
        for body in [&[7u8][..], &[7, 0], &[7, 2, 1, 4]] {
            let request = ServerRequest::decode(body);
            assert!(
                matches!(&request, Err(MinosError::Codec(m)) if m == "unknown request tag 7"),
                "{request:?}"
            );
            let response = ServerResponse::decode(body);
            assert!(
                matches!(&response, Err(MinosError::Codec(m)) if m == "unknown response tag 7"),
                "{response:?}"
            );
        }
        assert!(ServerRequest::decode(&[]).is_err());
        let bytes = ServerRequest::FetchObject { id: ObjectId::new(1) }.encode();
        assert!(ServerRequest::decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage rejected.
        let mut bytes = ServerResponse::Error("x".into()).encode();
        bytes.push(0);
        assert!(ServerResponse::decode(&bytes).is_err());
    }

    #[test]
    fn view_request_is_small_regardless_of_window() {
        let small = ServerRequest::FetchView {
            id: ObjectId::new(1),
            tag: "map".into(),
            rect: Rect::new(0, 0, 10, 10),
        };
        let huge = ServerRequest::FetchView {
            id: ObjectId::new(1),
            tag: "map".into(),
            rect: Rect::new(0, 0, 100_000, 100_000),
        };
        assert_eq!(small.wire_size(), huge.wire_size());
        assert!(small.wire_size() < 64);
    }

    proptest! {
        #[test]
        fn query_round_trips(keywords in proptest::collection::vec(".{0,12}", 0..8)) {
            let req = ServerRequest::Query { keywords };
            prop_assert_eq!(ServerRequest::decode(&req.encode()).unwrap(), req);
        }

        #[test]
        fn hits_round_trip(ids in proptest::collection::vec(any::<u64>(), 0..32)) {
            let resp = ServerResponse::Hits(ids.into_iter().map(ObjectId::new).collect());
            prop_assert_eq!(ServerResponse::decode(&resp.encode()).unwrap(), resp);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = ServerRequest::decode(&bytes);
            let _ = ServerResponse::decode(&bytes);
        }
    }
}
