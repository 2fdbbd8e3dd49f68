//! Hostile bytes on the wire: whatever reaches `Frame::decode` or a TCP
//! stream half, the answer is a frame or an `Err` — never a panic — and
//! nothing is sized from a count or a length prefix the bytes received
//! cannot back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;

use bytes::Bytes;
use grouting_graph::NodeId;
use grouting_wire::frame::MAX_FRAME_BYTES;
use grouting_wire::{Connection, Frame, TcpTransport, Transport, WireError};

/// Counts the bytes each thread requests, so a test can measure one call
/// while the harness runs others beside it (the counting allocator of
/// `crates/graph/tests/codec_hostile.rs`).
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.with(Cell::get);
    f();
    REQUESTED.with(Cell::get) - before
}

/// What `Frame::decode` may request for `len` bytes of input. The densest
/// thing a byte can describe is a missing batch record (one flag byte, a
/// 40-byte `Option<(u16, Bytes)>`), and a metrics frame's trace block
/// decodes into five fixed-size histograms whatever it says.
fn decode_budget(len: usize) -> usize {
    64 * len + (128 << 10)
}

/// What a stream half may request while `sent` bytes arrive: decoding
/// them, a few pooled 64 KiB buffers, and one read-ahead of at most 1 MiB
/// for a frame that has announced itself.
fn stream_budget(sent: usize) -> usize {
    decode_budget(sent) + (256 << 10) + (1 << 20)
}

/// A listener-side connection and the raw socket feeding it.
fn raw_pair() -> (Connection, TcpStream) {
    let transport = TcpTransport::new();
    let mut listener = transport.listen(&transport.any_addr()).unwrap();
    let raw = TcpStream::connect(listener.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    (listener.accept().unwrap(), raw)
}

/// Sends `bytes` and closes; the reader takes frames until the stream
/// ends. Returns how many frames came out, the error that ended it, and
/// the memory the reading asked for.
fn read_to_end(bytes: &[u8], polled: bool) -> (usize, WireError, usize) {
    let (mut conn, mut raw) = raw_pair();
    raw.write_all(bytes).unwrap();
    drop(raw);
    let mut frames = 0;
    let mut end = None;
    let requested = requested_by(|| loop {
        let next = if polled {
            conn.try_recv()
        } else {
            conn.recv().map(Some)
        };
        match next {
            Ok(Some(_)) => frames += 1,
            Ok(None) => std::thread::yield_now(),
            Err(e) => break end = Some(e),
        }
    });
    (frames, end.unwrap(), requested)
}

fn sample_frames(salt: u32) -> Vec<Frame> {
    vec![
        Frame::FetchBatchRequest {
            req_id: u64::from(salt),
            nodes: (0..salt % 50).map(NodeId::new).collect(),
            issued_ns: None,
        },
        Frame::FetchBatchResponse {
            req_id: 9,
            payloads: (0..salt % 30)
                .map(|i| (i % 5 != 0).then(|| (3, Bytes::from(vec![i as u8; 295]))))
                .collect(),
        },
        Frame::Shutdown,
    ]
}

#[test]
fn a_length_prefix_above_the_cap_reserves_nothing() {
    for claimed in [MAX_FRAME_BYTES as u32 + 1, u32::MAX, 1 << 31] {
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 64]);
        for polled in [false, true] {
            let (frames, end, requested) = read_to_end(&bytes, polled);
            assert_eq!(frames, 0);
            assert!(matches!(end, WireError::Codec(_)), "{end:?}");
            // The error's message is the only thing built.
            assert!(requested < 256, "{requested} bytes for a refused prefix");
        }
    }
}

#[test]
fn an_announced_frame_that_never_arrives_is_trusted_for_a_megabyte() {
    // The largest frame the cap admits, announced and then abandoned.
    let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[12; 9]);
    for polled in [false, true] {
        let (frames, end, requested) = read_to_end(&bytes, polled);
        assert_eq!(frames, 0);
        assert!(matches!(end, WireError::Closed), "{end:?}");
        assert!(requested <= stream_budget(bytes.len()), "{requested}");
    }
}

#[test]
fn a_batch_count_the_bytes_cannot_back_reserves_nothing() {
    // tag, req_id, then a count of 2^32 - 1 records and no records.
    let mut raw = vec![12u8];
    raw.extend_from_slice(&7u64.to_le_bytes());
    raw.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut result = None;
    let requested = requested_by(|| result = Some(Frame::decode(Bytes::from(raw))));
    assert!(result.unwrap().is_err());
    assert!(requested < 256, "{requested} bytes for a 13-byte input");
}

proptest::proptest! {
    /// Arbitrary bytes into the decoder: an error or a frame, never a
    /// panic, and never more memory than the input could describe.
    #[test]
    fn prop_arbitrary_bytes_into_decode(
        tag in 0u8..16,
        raw in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        // Random first bytes are almost never a known tag; pin one.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&raw);
        let len = bytes.len();
        let mut result = None;
        let requested = requested_by(|| result = Some(Frame::decode(Bytes::from(bytes))));
        proptest::prop_assert!(requested <= decode_budget(len), "{} bytes for {} of input", requested, len);
        if let Some(Ok(frame)) = result {
            proptest::prop_assert_eq!(frame.encoded_len(), len);
        }
    }

    /// Damaged encodings reach the checks behind the header that random
    /// bytes rarely pass: flipped bits, cuts and appended bytes.
    #[test]
    fn prop_damaged_frames_into_decode(
        salt in 0u32..10_000,
        which in 0usize..3,
        flips in proptest::collection::vec((0usize..10_000, 0u8..8), 0..4),
        cut in proptest::option::of(0usize..10_000),
        extra in proptest::collection::vec(0u8..=255, 0..4),
    ) {
        let frame = sample_frames(salt).swap_remove(which);
        let good = frame.encode();
        let mut raw = good.to_vec();
        for (at, bit) in flips {
            let at = at % raw.len();
            raw[at] ^= 1 << bit;
        }
        if let Some(cut) = cut {
            raw.truncate(cut % (raw.len() + 1));
        }
        raw.extend_from_slice(&extra);
        let damaged = raw != good[..];
        let len = raw.len();
        let mut result = None;
        let requested = requested_by(|| result = Some(Frame::decode(Bytes::from(raw))));
        proptest::prop_assert!(requested <= decode_budget(len), "{} bytes for {} of input", requested, len);
        match result.unwrap() {
            Err(_) => proptest::prop_assert!(damaged, "a clean encoding was rejected"),
            Ok(back) => {
                proptest::prop_assert_eq!(back.encoded_len(), len);
                if !damaged {
                    proptest::prop_assert_eq!(back, frame);
                }
            }
        }
    }

    /// Arbitrary and damaged byte strings through a socket: the stream
    /// half hands out frames until it reports an error, never panics, and
    /// asks for no more memory than the bytes that arrived could describe
    /// — a flipped length prefix included.
    #[test]
    fn prop_hostile_bytes_into_a_stream_half(
        salt in 0u32..10_000,
        flips in proptest::collection::vec((0usize..100_000, 0u8..8), 0..6),
        cut in proptest::option::of(0usize..100_000),
        junk in proptest::collection::vec(0u8..=255, 0..40),
        junk_first in proptest::bool::ANY,
        polled in proptest::bool::ANY,
    ) {
        let mut bytes = if junk_first { junk.clone() } else { Vec::new() };
        for frame in sample_frames(salt) {
            frame.encode_into(&mut bytes);
        }
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        if !junk_first {
            bytes.extend_from_slice(&junk);
        }
        let (frames, _end, requested) = read_to_end(&bytes, polled);
        // The smallest frame is a prefix and a tag.
        proptest::prop_assert!(frames <= bytes.len() / 5);
        proptest::prop_assert!(
            requested <= stream_budget(bytes.len()),
            "{} bytes requested for {} received",
            requested,
            bytes.len()
        );
    }
}
