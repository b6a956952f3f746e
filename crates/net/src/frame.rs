//! The framed transport envelope (§5 pipelining).
//!
//! The blocking request path serialized every interaction: one request on
//! the wire, one response back, nothing else in flight. To overlap server
//! work with link transfer — and to let one server interleave several
//! workstations — every [`ServerRequest`]/[`ServerResponse`] now travels
//! inside a [`Frame`]: a `(conn_id, request_id)` envelope that lets
//! responses complete out of order and still find their way back to the
//! submitting session. The inner wire tags of the protocol enums are
//! untouched; the envelope is purely additive framing.
//!
//! [`InflightWindow`] is the per-connection flow-control companion: it
//! bounds how many request frames may be unacknowledged at once, so a
//! pipelined client cannot bury the server queue arbitrarily deep.

use crate::protocol::{ServerRequest, ServerResponse};
use minos_types::{varint_len, Decoder, Encoder, MinosError, Result};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Bytes of the CRC32 trailer every encoded frame carries.
const CRC_TRAILER_LEN: usize = 4;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Bytes [`crc32`] folds per step.
const CRC_SLICE: usize = 16;

/// Independent checksum chains [`crc32`] runs side by side.
const CRC_LANES: usize = 4;

/// Bytes in one lane of a superblock (1 KiB).
const CRC_LANE_LEN: usize = 1_024;

/// Slicing-by-16 steps in one lane.
const CRC_LANE_BLOCKS: usize = CRC_LANE_LEN / CRC_SLICE;

/// The lookup tables behind [`crc32`] and [`crc32_combine`]. Built once on
/// first use (20 KiB); building them with `array::from_fn` instead of a
/// `const fn` keeps the construction free of bare indexing (the net crate
/// is panic-audited).
struct CrcTables {
    /// Slicing-by-16: `slice[0][b]` is the CRC register after shifting
    /// byte `b` through it, and `slice[k][b]` is the same register after
    /// `k` further zero bytes.
    slice: [[u32; 256]; CRC_SLICE],
    /// The lane shift `S`, advancing a register over [`CRC_LANE_LEN`] zero
    /// bytes: `S(c)` is the XOR of `lane_shift[k][byte k of c]`. `S` is
    /// linear over GF(2), so four byte tables cover all 32 bits.
    lane_shift: [[u32; 256]; 4],
    /// `x2n[k]` is `x^(2^k) mod P`, as zlib's `x2n_table`. The powers
    /// repeat with period 32 (the order of `x` divides `2^32 - 1`), so 32
    /// entries cover every exponent.
    x2n: [u32; 32],
}

fn crc_tables() -> &'static CrcTables {
    static TABLES: OnceLock<CrcTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let t0: [u32; 256] = std::array::from_fn(|byte| {
            (0..8).fold(byte as u32, |c, _| (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg()))
        });
        let step = |c: u32| (c >> 8) ^ t0.get((c & 0xff) as usize).copied().unwrap_or(0);
        let slice = std::array::from_fn(|k| {
            std::array::from_fn(|byte| {
                (0..k).fold(t0.get(byte).copied().unwrap_or(0), |c, _| step(c))
            })
        });
        // x^1 in reflected form, squared k times.
        let x2n = std::array::from_fn(|k| (0..k).fold(1 << 30, |p, _| multmodp(p, p)));
        let shift = x8n_mod_p(&x2n, CRC_LANE_LEN);
        let lane_shift = std::array::from_fn(|k| {
            std::array::from_fn(|byte| multmodp(shift, (byte as u32) << (8 * k)))
        });
        CrcTables { slice, lane_shift, x2n }
    })
}

/// `a · b mod P` for polynomials in the reflected CRC representation (bit
/// 31 is `x^0`), as zlib's `multmodp`: shift-and-add over the bits of `a`.
fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a & (1 << bit) != 0 {
            product ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
    }
    product
}

/// `x^(8n) mod P`: the operator that advances a CRC register over `n` zero
/// bytes, as zlib's `x2nmodp(n, 3)`. One [`multmodp`] per set bit of `n`,
/// so a power-of-two page costs one.
fn x8n_mod_p(x2n: &[u32; 32], mut n: usize) -> u32 {
    // 8n = n · 2^3: bit j of n selects x^(2^(j+3)).
    let mut power = 1 << 31;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(x2n.get(k % 32).copied().unwrap_or(0), power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

/// The CRC-32 of `a ++ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, without reading either input: zlib's
/// `crc32_combine`. CRC is linear over GF(2), so `crc_a` is advanced over
/// `len_b` zero bytes (one multiplication by `x^(8·len_b) mod P`) and
/// XORed with `crc_b`. Costs one `multmodp` per set bit of `len_b`, plus
/// one.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    multmodp(x8n_mod_p(&crc_tables().x2n, len_b), crc_a) ^ crc_b
}

/// One slicing-by-16 step: the register after folding `block` into `crc`.
fn fold_block(slice: &[[u32; 256]; CRC_SLICE], crc: u32, block: &[u8; CRC_SLICE]) -> u32 {
    // Byte j of the block is followed by 15 - j more bytes, so it is looked
    // up in table 15 - j.
    let word = u128::from_le_bytes(*block) ^ u128::from(crc);
    slice
        .iter()
        .rev()
        .zip(word.to_le_bytes())
        .fold(0, |acc, (table, byte)| acc ^ table.get(usize::from(byte)).copied().unwrap_or(0))
}

/// The lane shift `S`: `crc` advanced over one lane of zero bytes.
fn shift_lane(lane_shift: &[[u32; 256]; 4], crc: u32) -> u32 {
    lane_shift
        .iter()
        .zip(crc.to_le_bytes())
        .fold(0, |acc, (table, byte)| acc ^ table.get(usize::from(byte)).copied().unwrap_or(0))
}

/// CRC-32 (IEEE 802.3, reflected polynomial), slicing-by-16 over four
/// independent lanes.
///
/// Every frame trailer, every publish-time page checksum and every scrub
/// and repair verification runs through here, so it is on the wall-clock
/// path of each 32 KiB page the fleet stores, serves over a lossy link or
/// scrubs. A slicing-by-16 step folds 16 bytes with one table lookup per
/// byte, but each step's lookups wait on the register the previous step
/// produced, so a single chain is bound by load latency, not by how many
/// loads the core can issue. The input is therefore walked in 4 KiB
/// superblocks of four contiguous 1 KiB lanes stepped together: lane 0
/// starts from the running register, lanes 1–3 from zero, and the four
/// chains have no data dependency on each other. CRC is linear, so the
/// lanes join as `S(S(S(c0) ^ c1) ^ c2) ^ c3`, where `S` advances a
/// register over 1 KiB of zero bytes (multiplication by `x^8192 mod P`,
/// a 4 × 256 table). Whatever is left under 4 KiB, which is all of a
/// request frame, runs the single chain and a bytewise tail.
///
/// On a 2-vCPU x86-64 Xeon the bitwise form (8 shifts per byte) cost
/// about 6 µs per KiB, the single chain about 0.6 µs, and the four lanes
/// 0.25–0.5 µs depending on the sibling hyperthread's load. Safe and
/// index-free: every lookup is a `get` on a 256-entry table by a `u8`,
/// which the compiler proves in bounds.
pub fn crc32(bytes: &[u8]) -> u32 {
    let CrcTables { slice, lane_shift, .. } = crc_tables();
    let (blocks, tail) = bytes.as_chunks::<CRC_SLICE>();
    let (lanes, lane_rest) = blocks.as_chunks::<CRC_LANE_BLOCKS>();
    let (superblocks, superblock_rest) = lanes.as_chunks::<CRC_LANES>();
    let mut crc = u32::MAX;
    for [l0, l1, l2, l3] in superblocks {
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        for (((b0, b1), b2), b3) in l0.iter().zip(l1).zip(l2).zip(l3) {
            c0 = fold_block(slice, c0, b0);
            c1 = fold_block(slice, c1, b1);
            c2 = fold_block(slice, c2, b2);
            c3 = fold_block(slice, c3, b3);
        }
        crc = shift_lane(lane_shift, c0) ^ c1;
        crc = shift_lane(lane_shift, crc) ^ c2;
        crc = shift_lane(lane_shift, crc) ^ c3;
    }
    for block in superblock_rest.as_flattened().iter().chain(lane_rest) {
        crc = fold_block(slice, crc, block);
    }
    let [t0, ..] = slice;
    for &byte in tail {
        crc = (crc >> 8) ^ t0.get(usize::from((crc as u8) ^ byte)).copied().unwrap_or(0);
    }
    !crc
}

/// Appends the CRC32 trailer to an encoded frame body. `known_suffix` is
/// `(crc32(suffix), suffix.len())` for a body that ends in bytes whose CRC
/// the caller already holds: only the bytes before them are read, and the
/// two CRCs are combined. A suffix longer than the body takes the full
/// pass.
fn seal(mut body: Vec<u8>, known_suffix: Option<(u32, usize)>) -> Vec<u8> {
    let composed = known_suffix.and_then(|(suffix_crc, len)| {
        let prefix = body.get(..body.len().checked_sub(len)?)?;
        Some(crc32_combine(crc32(prefix), suffix_crc, len))
    });
    let crc = composed.unwrap_or_else(|| crc32(&body));
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// The service class a frame travels under (§5 overload policy).
///
/// One wire byte in the [`Frame`] envelope, ordered by urgency: the
/// server's admission control sheds [`Priority::Prefetch`] traffic first
/// and preserves [`Priority::Audio`] and [`Priority::Demand`] requests,
/// so speculation never starves the work a user is actually waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Continuous-media traffic with a playback deadline (never shed).
    Audio,
    /// A synchronous user-facing fetch the session is blocked on (never
    /// shed while any prefetch remains sheddable).
    Demand,
    /// Speculative read-ahead; the first class dropped under overload.
    Prefetch,
}

impl Priority {
    /// The envelope byte for this class.
    pub fn wire_tag(self) -> u8 {
        match self {
            Priority::Audio => 0,
            Priority::Demand => 1,
            Priority::Prefetch => 2,
        }
    }

    /// Decodes an envelope byte; unknown classes are typed codec errors.
    pub fn from_wire(tag: u8) -> Result<Priority> {
        match tag {
            0 => Ok(Priority::Audio),
            1 => Ok(Priority::Demand),
            2 => Ok(Priority::Prefetch),
            other => Err(MinosError::Codec(format!("unknown frame priority {other}"))),
        }
    }

    /// Whether the admission policy may drop this class under overload.
    pub fn is_sheddable(self) -> bool {
        matches!(self, Priority::Prefetch)
    }
}

/// The direction-discriminated payload of a [`Frame`].
///
/// Wire layout: one envelope tag byte (`1` = request, `2` = response)
/// followed by the length-prefixed inner protocol encoding. The inner
/// bytes are exactly what the unframed protocol would have sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramePayload {
    /// A workstation → server request.
    Request(ServerRequest),
    /// A server → workstation response.
    Response(ServerResponse),
}

impl FramePayload {
    /// Encodes the envelope tag plus the inner protocol bytes into an
    /// existing encoder. The inner message's length prefix is computed
    /// arithmetically from its `wire_size`, then the message encodes in
    /// place — no intermediate buffer, which is what keeps
    /// [`Frame::encode_into`] allocation-free on a pooled buffer.
    pub fn encode_to(&self, e: &mut Encoder) {
        match self {
            FramePayload::Request(request) => {
                e.put_u8(1);
                e.put_varint(request.wire_size());
                request.encode_to(e);
            }
            FramePayload::Response(response) => {
                e.put_u8(2);
                e.put_varint(response.wire_size());
                response.encode_to(e);
            }
        }
    }

    /// Encodes the envelope tag plus the inner protocol bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_to(&mut e);
        e.finish()
    }

    /// Bytes [`FramePayload::encode`] produces, computed without encoding:
    /// one tag byte plus the length-prefixed inner message.
    pub fn wire_size(&self) -> u64 {
        let inner = match self {
            FramePayload::Request(request) => request.wire_size(),
            FramePayload::Response(response) => response.wire_size(),
        };
        1 + varint_len(inner) + inner
    }

    /// [`FramePayload::decode`] with span payload buffers from `lease`.
    /// (It sits first so that the wire-tag audit reads its match as the
    /// decoder's.)
    fn decode_with(bytes: &[u8], lease: &mut impl FnMut() -> Vec<u8>) -> Result<FramePayload> {
        let mut d = Decoder::new(bytes);
        let payload = match d.get_u8()? {
            1 => FramePayload::Request(ServerRequest::decode(d.get_bytes_ref()?)?),
            2 => FramePayload::Response(ServerResponse::decode_with(d.get_bytes_ref()?, lease)?),
            other => return Err(MinosError::Codec(format!("unknown frame payload tag {other}"))),
        };
        d.expect_end()?;
        Ok(payload)
    }

    /// Decodes an envelope payload produced by [`FramePayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<FramePayload> {
        FramePayload::decode_with(bytes, &mut Vec::new)
    }
}

/// One framed protocol message: which connection it belongs to, which
/// outstanding request it answers (or opens), and the payload itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The connection (workstation session) this frame belongs to.
    pub conn_id: u64,
    /// The per-connection request this frame opens or answers. Responses
    /// carry the id of the request they answer, which is what lets them
    /// complete out of order.
    pub request_id: u64,
    /// The service class the frame travels under; responses echo the
    /// class of the request they answer.
    pub priority: Priority,
    /// The enveloped protocol message.
    pub payload: FramePayload,
}

impl Frame {
    /// Wraps a request for submission on `conn_id` as `request_id`
    /// (demand class — the historical default for synchronous fetches).
    pub fn request(conn_id: u64, request_id: u64, request: ServerRequest) -> Frame {
        Frame::request_with_priority(conn_id, request_id, Priority::Demand, request)
    }

    /// Wraps a request travelling under an explicit service class.
    pub fn request_with_priority(
        conn_id: u64,
        request_id: u64,
        priority: Priority,
        request: ServerRequest,
    ) -> Frame {
        Frame { conn_id, request_id, priority, payload: FramePayload::Request(request) }
    }

    /// Wraps a response answering `request_id` on `conn_id`.
    pub fn response(conn_id: u64, request_id: u64, response: ServerResponse) -> Frame {
        Frame {
            conn_id,
            request_id,
            priority: Priority::Demand,
            payload: FramePayload::Response(response),
        }
    }

    /// Echoes this frame's service class onto a response frame.
    pub fn reply(&self, response: ServerResponse) -> Frame {
        Frame {
            conn_id: self.conn_id,
            request_id: self.request_id,
            priority: self.priority,
            payload: FramePayload::Response(response),
        }
    }

    /// Encodes the envelope: varint `conn_id`, varint `request_id`, the
    /// priority byte, the tagged payload, then a CRC32 trailer over
    /// everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the envelope into `out` (cleared first), reusing its
    /// capacity — the pooled transmit path. Every length prefix is
    /// computed arithmetically from `wire_size`, so a warm buffer encodes
    /// a whole frame without a single allocation. Byte-for-byte identical
    /// to [`Frame::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_into_with_payload_crc(out, None);
    }

    /// [`Frame::encode_into`] for a frame whose payload CRC the sender
    /// already holds. When this is a [`ServerResponse::Span`] response and
    /// `payload_crc` is `Some(crc32(page))`, every byte is still written,
    /// but only the envelope before the page (about 12 bytes) is
    /// checksummed: the page is the body's suffix, so the trailer is
    /// [`crc32_combine`] of the prefix's CRC and `payload_crc`, and the
    /// page is never reread. With a correct `payload_crc` the output is
    /// byte-identical to [`Frame::encode_into`]; with a wrong one the
    /// receiver's full check fails, which is the point: the trailer then
    /// vouches for the bytes the CRC was taken over, not for what the
    /// sender happened to hold. Any other frame, or `None`, takes the full
    /// pass.
    pub fn encode_into_with_payload_crc(&self, out: &mut Vec<u8>, payload_crc: Option<u32>) {
        let mut e = Encoder::reuse(std::mem::take(out));
        e.put_varint(self.conn_id);
        e.put_varint(self.request_id);
        e.put_u8(self.priority.wire_tag());
        e.put_varint(self.payload.wire_size());
        self.payload.encode_to(&mut e);
        let suffix = match (&self.payload, payload_crc) {
            (FramePayload::Response(ServerResponse::Span(page)), Some(crc)) => {
                Some((crc, page.len()))
            }
            _ => None,
        };
        *out = seal(e.finish(), suffix);
    }

    /// Encodes a request frame's wire bytes straight from a borrowed
    /// request into `out` — byte-identical to building the [`Frame`] and
    /// calling [`Frame::encode_into`], without taking ownership of the
    /// request. This is the transmit path for retransmission state that
    /// keeps only encoded bytes: the caller encodes once from a borrow,
    /// resends verbatim ever after.
    pub fn encode_request_into(
        conn_id: u64,
        request_id: u64,
        priority: Priority,
        request: &ServerRequest,
        out: &mut Vec<u8>,
    ) {
        let mut e = Encoder::reuse(std::mem::take(out));
        e.put_varint(conn_id);
        e.put_varint(request_id);
        e.put_u8(priority.wire_tag());
        // The FramePayload::Request layout, inlined from the borrow.
        let inner = request.wire_size();
        e.put_varint(1 + varint_len(inner) + inner);
        e.put_u8(1);
        e.put_varint(inner);
        request.encode_to(&mut e);
        *out = seal(e.finish(), None);
    }

    /// Decodes a frame produced by [`Frame::encode`], verifying the CRC32
    /// trailer first: bytes altered in transit surface as a typed
    /// [`MinosError::Corrupt`] instead of a garbage decode.
    pub fn decode(bytes: &[u8]) -> Result<Frame> {
        Frame::decode_with(bytes, &mut Vec::new)
    }

    /// [`Frame::decode`] that copies a [`ServerResponse::Span`] payload
    /// into a buffer from `lease` (a pool's, on the receive hot path)
    /// instead of a fresh allocation. `lease` is called only for a span
    /// payload, after the trailer has verified.
    pub fn decode_with(bytes: &[u8], lease: &mut impl FnMut() -> Vec<u8>) -> Result<Frame> {
        let Some(body_len) = bytes.len().checked_sub(CRC_TRAILER_LEN) else {
            return Err(MinosError::Codec(format!(
                "frame of {} bytes is shorter than its checksum trailer",
                bytes.len()
            )));
        };
        let (body, trailer) =
            (bytes.get(..body_len).unwrap_or_default(), bytes.get(body_len..).unwrap_or_default());
        let mut t = Decoder::new(trailer);
        let stated = t.get_u32()?;
        let actual = crc32(body);
        if stated != actual {
            return Err(MinosError::Corrupt(format!(
                "frame checksum mismatch: trailer {stated:#010x}, computed {actual:#010x}"
            )));
        }
        let mut d = Decoder::new(body);
        let conn_id = d.get_varint()?;
        let request_id = d.get_varint()?;
        let priority = Priority::from_wire(d.get_u8()?)?;
        let payload = FramePayload::decode_with(d.get_bytes_ref()?, lease)?;
        d.expect_end()?;
        Ok(Frame { conn_id, request_id, priority, payload })
    }

    /// Bytes this frame occupies on the wire, computed arithmetically —
    /// measuring a frame never copies its payload (this sits on the
    /// per-submission hot path of `core::remote`).
    pub fn wire_size(&self) -> u64 {
        let payload = self.payload.wire_size();
        varint_len(self.conn_id)
            + varint_len(self.request_id)
            + 1
            + varint_len(payload)
            + payload
            + CRC_TRAILER_LEN as u64
    }

    /// The enveloped request, if this is a request frame.
    pub fn as_request(&self) -> Option<&ServerRequest> {
        match &self.payload {
            FramePayload::Request(request) => Some(request),
            FramePayload::Response(_) => None,
        }
    }
}

/// Per-connection flow control: the set of request ids submitted but not
/// yet delivered back, bounded by a fixed capacity.
///
/// The window is the pipelining budget — a client keeps submitting until
/// [`InflightWindow::is_full`], then must wait for a delivery before the
/// next submit. Capacity 1 degenerates to the old blocking discipline.
#[derive(Clone, Debug)]
pub struct InflightWindow {
    capacity: usize,
    ids: BTreeSet<u64>,
}

impl InflightWindow {
    /// A window admitting up to `capacity` unacknowledged requests
    /// (a zero capacity is bumped to 1: a window that can never open
    /// would deadlock the pipeline).
    pub fn new(capacity: usize) -> Self {
        InflightWindow { capacity: capacity.max(1), ids: BTreeSet::new() }
    }

    /// The maximum number of in-flight requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently in flight.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the window is exhausted (submit must wait).
    pub fn is_full(&self) -> bool {
        self.ids.len() >= self.capacity
    }

    /// Admits `request_id`; returns `false` (and admits nothing) if the
    /// window is full or the id is already in flight.
    pub fn open(&mut self, request_id: u64) -> bool {
        if self.is_full() || self.ids.contains(&request_id) {
            return false;
        }
        self.ids.insert(request_id)
    }

    /// Retires `request_id` on delivery; returns `false` if it was not in
    /// flight.
    pub fn close(&mut self, request_id: u64) -> bool {
        self.ids.remove(&request_id)
    }

    /// The oldest (smallest) in-flight request id — the one a blocked
    /// submitter should wait on.
    pub fn oldest(&self) -> Option<u64> {
        self.ids.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::{ByteSpan, ObjectId};
    use proptest::prelude::*;

    fn sample_request() -> ServerRequest {
        ServerRequest::FetchSpan { span: ByteSpan::at(1_024, 4_096) }
    }

    #[test]
    fn request_frames_round_trip() {
        let frame = Frame::request(7, 42, sample_request());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.as_request(), Some(&sample_request()));
    }

    #[test]
    fn response_frames_round_trip() {
        let frame = Frame::response(1, 9, ServerResponse::Hits(vec![ObjectId::new(3)]));
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert!(back.as_request().is_none());
    }

    #[test]
    fn envelope_overhead_is_small() {
        let inner = sample_request().wire_size();
        let framed = Frame::request(1, 1, sample_request()).wire_size();
        assert!(framed > inner);
        assert!(framed - inner < 16, "envelope overhead {} bytes", framed - inner);
    }

    #[test]
    fn unknown_payload_tag_is_rejected() {
        let mut e = Encoder::new();
        e.put_varint(1);
        e.put_varint(1);
        e.put_u8(Priority::Demand.wire_tag());
        e.put_bytes(&[10, 0]);
        let mut bytes = e.finish();
        // With a valid checksum the decoder reaches the tag check itself.
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn unknown_priority_byte_is_rejected() {
        let mut e = Encoder::new();
        e.put_varint(1);
        e.put_varint(1);
        e.put_u8(7);
        e.put_bytes(&FramePayload::Request(sample_request()).encode());
        let mut bytes = e.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn priority_classes_round_trip() {
        for priority in [Priority::Audio, Priority::Demand, Priority::Prefetch] {
            let frame = Frame::request_with_priority(4, 11, priority, sample_request());
            let back = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(back.priority, priority);
            assert_eq!(back, frame);
            assert_eq!(Priority::from_wire(priority.wire_tag()).unwrap(), priority);
        }
        assert!(Priority::from_wire(3).is_err());
        assert!(Priority::Prefetch.is_sheddable());
        assert!(!Priority::Audio.is_sheddable());
        assert!(!Priority::Demand.is_sheddable());
    }

    #[test]
    fn replies_echo_the_request_class() {
        let request = Frame::request_with_priority(4, 11, Priority::Audio, sample_request());
        let reply = request.reply(ServerResponse::Span(vec![1, 2, 3]));
        assert_eq!(reply.conn_id, 4);
        assert_eq!(reply.request_id, 11);
        assert_eq!(reply.priority, Priority::Audio);
        assert!(reply.as_request().is_none());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::request(1, 1, sample_request()).encode();
        bytes.push(0);
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn wire_size_matches_encoding_without_materializing_it() {
        let frames = vec![
            Frame::request(1, 1, sample_request()),
            Frame::request(u64::MAX, 1 << 40, sample_request()),
            Frame::request(
                3,
                9,
                ServerRequest::Query { keywords: vec!["x-ray".into(), "shadow".into()] },
            ),
            Frame::request(
                2,
                5,
                ServerRequest::Batch {
                    requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
                },
            ),
            Frame::response(7, 42, ServerResponse::Span(vec![0xa5; 10_000])),
            Frame::response(1, 2, ServerResponse::Hits(vec![ObjectId::new(1 << 50)])),
            Frame::response(1, 3, ServerResponse::Error("lost".into())),
            Frame::response(
                1,
                4,
                ServerResponse::Batch(vec![
                    ServerResponse::Span(vec![1, 2, 3]),
                    ServerResponse::Error("missing".into()),
                ]),
            ),
            Frame::request(5, 0, ServerRequest::Hello { epoch: u64::MAX }),
            Frame::request(5, 6, ServerRequest::Probe),
            Frame::response(5, 0, ServerResponse::Welcome { epoch: 1 << 33 }),
            Frame::response(
                5,
                6,
                ServerResponse::Busy {
                    retry_after: minos_types::SimDuration::from_micros(1 << 20),
                },
            ),
            Frame::request_with_priority(
                6,
                7,
                Priority::Prefetch,
                ServerRequest::FetchSpan { span: ByteSpan::at(0, 8192) },
            ),
        ];
        for frame in frames {
            assert_eq!(
                frame.wire_size(),
                frame.encode().len() as u64,
                "wire_size must equal the encoded length for {frame:?}"
            );
        }
    }

    #[test]
    fn encode_into_is_byte_identical_and_reuses_the_buffer() {
        let frames = vec![
            Frame::request(1, 1, sample_request()),
            Frame::request(
                2,
                5,
                ServerRequest::Batch {
                    requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
                },
            ),
            Frame::response(7, 42, ServerResponse::Span(vec![0xa5; 4_096])),
            Frame::response(
                1,
                4,
                ServerResponse::Batch(vec![
                    ServerResponse::Span(vec![1, 2, 3]),
                    ServerResponse::Error("missing".into()),
                ]),
            ),
            Frame::request_with_priority(6, 7, Priority::Prefetch, sample_request()),
        ];
        let mut buf = Vec::with_capacity(8_192);
        let cap = buf.capacity();
        for frame in frames {
            buf.extend_from_slice(b"stale bytes from the previous frame");
            frame.encode_into(&mut buf);
            assert_eq!(buf, frame.encode(), "encode_into must match encode for {frame:?}");
            assert_eq!(Frame::decode(&buf).unwrap(), frame);
            assert_eq!(buf.capacity(), cap, "a warm buffer encodes without reallocating");
        }
    }

    #[test]
    fn encode_request_into_matches_the_owning_encode() {
        let requests = vec![
            sample_request(),
            ServerRequest::Query { keywords: vec!["x-ray".into(), "shadow".into()] },
            ServerRequest::Batch {
                requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
            },
            ServerRequest::Hello { epoch: u64::MAX },
            ServerRequest::Probe,
        ];
        let mut buf = Vec::new();
        for request in requests {
            for priority in [Priority::Audio, Priority::Demand, Priority::Prefetch] {
                Frame::encode_request_into(9, 1 << 33, priority, &request, &mut buf);
                let owned = Frame::request_with_priority(9, 1 << 33, priority, request.clone());
                assert_eq!(buf, owned.encode(), "borrow-encode of {request:?}");
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = Frame::request(3, 17, sample_request()).encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut mangled = bytes.clone();
                mangled[at] ^= 1 << bit;
                assert!(
                    Frame::decode(&mangled).is_err(),
                    "flip of bit {bit} at byte {at} went undetected"
                );
            }
        }
    }

    #[test]
    fn corruption_is_typed() {
        let mut bytes = Frame::request(1, 1, sample_request()).encode();
        bytes[0] ^= 0x40;
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Corrupt(_))));
    }

    #[test]
    fn sub_trailer_frames_are_codec_errors() {
        assert!(matches!(Frame::decode(&[]), Err(MinosError::Codec(_))));
        assert!(matches!(Frame::decode(&[1, 2, 3]), Err(MinosError::Codec(_))));
    }

    /// The bitwise CRC-32 the table-driven [`crc32`] must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A seeded pseudo-random buffer of `len` bytes.
    fn lcg_bytes(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                state.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_at_every_length_and_alignment() {
        // Every block/tail split of lengths 0..=64; lengths straddling one,
        // two and three 4 KiB superblocks (every superblock, lane-rest,
        // block-rest and tail split near each boundary); and a framed
        // 32 KiB page. Each at every start offset within one 16-byte step.
        const SUPERBLOCK: usize = CRC_LANES * CRC_LANE_LEN;
        let framed_page = 8 * SUPERBLOCK + 12;
        let lengths: Vec<usize> = (0..=64)
            .chain((1..=3).flat_map(|k| k * SUPERBLOCK - 17..=k * SUPERBLOCK + 17))
            .chain([framed_page])
            .collect();
        let buf = lcg_bytes(0x2545_f491, framed_page + CRC_SLICE);
        for start in 0..CRC_SLICE {
            for &len in &lengths {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {start}, length {len}");
            }
        }
    }

    #[test]
    fn lane_shift_table_advances_over_one_lane_of_zero_bytes() {
        // The combine constant x^8192 mod P, checked against the plain
        // definition: feed 1,024 zero bytes through the single-byte table.
        let CrcTables { slice: [t0, ..], lane_shift, .. } = crc_tables();
        for (k, table) in lane_shift.iter().enumerate() {
            for (byte, &entry) in table.iter().enumerate() {
                let start = (byte as u32) << (8 * k);
                let fed = (0..CRC_LANE_LEN).fold(start, |c, _| (c >> 8) ^ t0[(c & 0xff) as usize]);
                assert_eq!(entry, fed, "lane_shift[{k}][{byte}]");
            }
        }
    }

    #[test]
    fn bit_flips_at_every_lane_boundary_of_a_page_frame_are_corrupt() {
        // A framed 32 KiB response: flip one bit at the first and last byte
        // of every lane (and so of every superblock), of the sub-superblock
        // rest, and in each trailer byte.
        let bytes = Frame::response(3, 17, ServerResponse::Span(lcg_bytes(7, 32_768))).encode();
        let body = bytes.len() - CRC_TRAILER_LEN;
        let mut positions: Vec<usize> = (0..body)
            .step_by(CRC_LANE_LEN)
            .flat_map(|lane| [lane, (lane + CRC_LANE_LEN).min(body) - 1])
            .collect();
        positions.extend(body..bytes.len());
        assert!(positions.len() > 2 * 32, "covers all 32 lanes and the trailer");
        for at in positions {
            let mut mangled = bytes.clone();
            mangled[at] ^= 1 << (at % 8);
            assert!(
                matches!(Frame::decode(&mangled), Err(MinosError::Corrupt(_))),
                "flip at byte {at} of {} was not reported as corruption",
                bytes.len()
            );
        }
    }

    #[test]
    fn crc32_combine_joins_known_vectors_and_empty_sides() {
        assert_eq!(crc32_combine(crc32(b"1234"), crc32(b"56789"), 5), 0xcbf4_3926);
        let page = lcg_bytes(11, 4_096);
        assert_eq!(crc32_combine(crc32(b""), crc32(&page), page.len()), crc32(&page));
        assert_eq!(crc32_combine(crc32(&page), crc32(b""), 0), crc32(&page));
        assert_eq!(crc32_combine(0, 0, 0), 0);
    }

    #[test]
    fn power_table_repeats_with_period_32() {
        // zlib indexes x2n by k mod 32; that is exact only if squaring the
        // last entry comes back to the first.
        let CrcTables { x2n, .. } = crc_tables();
        assert_eq!(multmodp(x2n[31], x2n[31]), x2n[0]);
        // And the operator matches feeding zero bytes, across bit widths.
        let CrcTables { slice: [t0, ..], .. } = crc_tables();
        for n in [0, 1, 3, 12, 1_000, 4_095, 4_096, 32_768, 100_003] {
            let fed = (0..n).fold(0x1234_5678u32, |c, _| (c >> 8) ^ t0[(c & 0xff) as usize]);
            assert_eq!(multmodp(x8n_mod_p(x2n, n), 0x1234_5678), fed, "{n} zero bytes");
        }
    }

    #[test]
    fn composed_page_frames_are_byte_identical_to_the_full_pass() {
        let mut composed = Vec::new();
        for len in [1, 4_095, 4_096, 32_768] {
            let page = lcg_bytes(len as u32, len);
            let crc = crc32(&page);
            let frame = Frame::response(3, 1 << 20, ServerResponse::Span(page));
            frame.encode_into_with_payload_crc(&mut composed, Some(crc));
            assert_eq!(composed, frame.encode(), "page of {len} bytes");
            assert_eq!(Frame::decode(&composed).unwrap(), frame);
        }
    }

    #[test]
    fn a_known_crc_only_composes_span_responses() {
        // Anything but a span response ignores the CRC it is handed.
        let frames = [
            Frame::request(1, 1, sample_request()),
            Frame::response(1, 2, ServerResponse::Error("lost".into())),
            Frame::response(1, 3, ServerResponse::Object(vec![9; 64])),
        ];
        let mut buf = Vec::new();
        for frame in frames {
            frame.encode_into_with_payload_crc(&mut buf, Some(0xdead_beef));
            assert_eq!(buf, frame.encode(), "{frame:?}");
        }
    }

    #[test]
    fn a_wrong_known_crc_is_corrupt_at_the_receiver() {
        let page = lcg_bytes(5, 32_768);
        let wrong = crc32(&page) ^ 1;
        let mut bytes = Vec::new();
        Frame::response(1, 7, ServerResponse::Span(page))
            .encode_into_with_payload_crc(&mut bytes, Some(wrong));
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Corrupt(_))));
    }

    #[test]
    fn decode_with_leases_only_for_span_payloads() {
        let mut leases = 0;
        let mut lease = || {
            leases += 1;
            Vec::with_capacity(64)
        };
        let span = Frame::response(1, 2, ServerResponse::Span(vec![4; 48])).encode();
        let back = Frame::decode_with(&span, &mut lease).unwrap();
        let FramePayload::Response(ServerResponse::Span(bytes)) = back.payload else {
            panic!("span response expected: {back:?}");
        };
        assert_eq!((bytes.as_slice(), bytes.capacity()), (&[4u8; 48][..], 64));
        for other in [Frame::request(1, 1, sample_request()).encode(), {
            let mut mangled = span.clone();
            mangled[6] ^= 1;
            mangled
        }] {
            let _ = Frame::decode_with(&other, &mut lease);
        }
        assert_eq!(leases, 1, "requests and corrupt frames lease nothing");
    }

    #[test]
    fn window_admits_up_to_capacity() {
        let mut w = InflightWindow::new(2);
        assert_eq!(w.capacity(), 2);
        assert!(w.open(1));
        assert!(w.open(2));
        assert!(w.is_full());
        assert!(!w.open(3), "full window admits nothing");
        assert!(!w.open(1), "duplicate ids rejected");
        assert_eq!(w.oldest(), Some(1));
        assert!(w.close(1));
        assert!(!w.close(1), "double close rejected");
        assert!(w.open(3));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn zero_capacity_window_still_opens() {
        let mut w = InflightWindow::new(0);
        assert_eq!(w.capacity(), 1);
        assert!(w.open(1));
        assert!(w.is_full());
    }

    proptest! {
        #[test]
        fn frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode(&bytes);
            let _ = FramePayload::decode(&bytes);
        }

        #[test]
        fn crc32_matches_bitwise(bytes in proptest::collection::vec(any::<u8>(), 0..20_000)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        #[test]
        fn crc32_combine_matches_the_concatenation(
            a in proptest::collection::vec(any::<u8>(), 0..20_000),
            b in proptest::collection::vec(any::<u8>(), 0..20_000),
        ) {
            let joined = [a.as_slice(), b.as_slice()].concat();
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len()), crc32(&joined));
            prop_assert_eq!(crc32_combine(crc32(&[]), crc32(&b), b.len()), crc32(&b));
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&[]), 0), crc32(&a));
        }

        #[test]
        fn frame_encode_decode_identity(conn in 0u64..1 << 40, rid in 0u64..1 << 40) {
            let frame = Frame::request(conn, rid, sample_request());
            prop_assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
        }
    }
}
