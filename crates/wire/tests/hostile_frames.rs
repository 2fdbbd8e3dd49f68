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
use grouting_metrics::{FailoverStats, HeatMap, RunSnapshot};
use grouting_query::{AccessStats, PrefetchStats, Query, QueryResult};
use grouting_trace::{QueryTrace, TraceLevel, TraceSnapshot};
use grouting_wire::frame::{DispatchTrace, MAX_FRAME_BYTES};
use grouting_wire::{Completion, Connection, Frame, TcpTransport, Transport, WireError};

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
    let tally_free = Completion {
        seq: u64::from(salt),
        processor: salt % 4,
        result: QueryResult::Count(u64::from(salt) * 3),
        stats: AccessStats {
            cache_hits: u64::from(salt % 7),
            cache_misses: u64::from(salt % 5),
            miss_bytes: u64::from(salt % 5) * 295,
            evictions: 0,
        },
        prefetch: PrefetchStats,
        failover: FailoverStats::default(),
        arrived_ns: 0,
        started_ns: u64::from(salt) * 11,
        completed_ns: u64::from(salt) * 13,
        heat: HeatMap::new(),
        trace: None,
    };
    let mut heat = HeatMap::new();
    heat.record_demand(salt as usize % 3, u64::from(salt) + 1);
    let tallied = Completion {
        failover: FailoverStats {
            redials: 1,
            ..FailoverStats::default()
        },
        heat,
        ..tally_free.clone()
    };
    vec![
        Frame::Completion(tally_free),
        Frame::Completion(tallied),
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
    // The largest frame the cap admits, announced and then abandoned after
    // a few bytes, or after a few thousand: a read that lands some of them
    // does not buy the next read another megabyte.
    for sent in [9, 5_000] {
        let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&vec![12; sent]);
        for polled in [false, true] {
            let (frames, end, requested) = read_to_end(&bytes, polled);
            assert_eq!(frames, 0);
            assert!(matches!(end, WireError::Closed), "{end:?}");
            assert!(
                requested <= stream_budget(bytes.len()),
                "{sent}: {requested}"
            );
        }
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

/// Decodes `raw` and requires a codec error, reached without asking for
/// more memory than the bytes could describe.
fn assert_refused(raw: &[u8], why: &str) {
    let mut result = None;
    let requested = requested_by(|| result = Some(Frame::decode(Bytes::copy_from_slice(raw))));
    match result.unwrap() {
        Err(WireError::Codec(_)) => {}
        other => panic!("{why}: {other:?}"),
    }
    assert!(
        requested <= decode_budget(raw.len()),
        "{why}: {requested} bytes for {} of input",
        raw.len()
    );
}

/// A completion by hand, field by field: tag, seq, processor, a `Count`
/// result, the four access stats, arrived, completed, the service span
/// (completed − started) and the flags byte. Each integer is the bytes
/// given, so a test can spell a varint any way it likes.
fn completion_bytes(seq: &[u8], processor: &[u8], completed: &[u8], span: &[u8]) -> Vec<u8> {
    let mut raw = vec![5];
    raw.extend_from_slice(seq);
    raw.extend_from_slice(processor);
    raw.extend_from_slice(&[0, 7]); // Count(7)
    raw.extend_from_slice(&[4, 0, 0, 0]); // hits, misses, bytes, evictions
    raw.push(0); // arrived
    raw.extend_from_slice(completed);
    raw.extend_from_slice(span);
    raw.push(0); // flags
    raw
}

#[test]
fn a_hand_built_completion_decodes() {
    // The baseline the cases below damage one field of.
    let raw = completion_bytes(&[9], &[1], &[30], &[10]);
    let Frame::Completion(c) = Frame::decode(Bytes::from(raw)).unwrap() else {
        panic!("not a completion");
    };
    assert_eq!((c.seq, c.processor), (9, 1));
    assert_eq!((c.started_ns, c.completed_ns), (20, 30));
}

#[test]
fn a_varint_in_other_than_its_shortest_form_is_refused() {
    for padded in [&[0x89, 0x00][..], &[0x80, 0x00], &[0xFF, 0x80, 0x00]] {
        assert_refused(
            &completion_bytes(padded, &[1], &[30], &[10]),
            &format!("seq {padded:02x?}"),
        );
        assert_refused(
            &completion_bytes(&[9], &[1], padded, &[0]),
            &format!("completed {padded:02x?}"),
        );
    }
    // A padded node id inside a submit: tag, seq, aggregation, node.
    assert_refused(&[2, 1, 0, 0x85, 0x00, 2, 0, 0], "submit node");
}

#[test]
fn a_varint_longer_than_a_u64_is_refused() {
    let eleven = [
        0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
    ];
    assert_refused(
        &completion_bytes(&eleven, &[1], &[30], &[10]),
        "11-byte seq",
    );
    // Ten bytes whose last carries more than bit 63.
    let past = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
    assert_refused(&completion_bytes(&past, &[1], &[30], &[10]), "seq past u64");
    // The largest u64 is still a frame.
    let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
    let raw = completion_bytes(&max, &[1], &[30], &[10]);
    let frame = Frame::decode(Bytes::from(raw.clone())).unwrap();
    assert_eq!(frame.encoded_len(), raw.len());
    // Cut anywhere inside the varint.
    for cut in 1..11 {
        let mut raw = vec![5];
        raw.extend_from_slice(&eleven[..cut]);
        assert_refused(&raw, &format!("seq cut after {cut} bytes"));
    }
}

#[test]
fn a_u32_field_past_u32_max_is_refused() {
    let past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
    let u32_max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    assert_refused(
        &completion_bytes(&[9], &past_u32, &[30], &[10]),
        "processor",
    );
    assert!(Frame::decode(Bytes::from(completion_bytes(&[9], &u32_max, &[30], &[10]))).is_ok());
    // A submit's query fields: an aggregation's node and hops, a
    // reachability's source, target and hops (tag, seq, query kind, the
    // fields, the aggregation's label flag, then the frame's flags byte).
    let mut cases = Vec::new();
    for at in 0..2 {
        let mut agg = vec![2, 1, 0];
        for field in 0..2 {
            agg.extend_from_slice(if field == at { &past_u32[..] } else { &[3][..] });
        }
        agg.extend_from_slice(&[0, 0]);
        cases.push(agg);
    }
    for at in 0..3 {
        let mut reach = vec![2, 1, 2];
        for field in 0..3 {
            reach.extend_from_slice(if field == at { &past_u32[..] } else { &[3][..] });
        }
        reach.push(0);
        cases.push(reach);
    }
    for raw in cases {
        assert_refused(&raw, &format!("{raw:02x?}"));
    }
    // A walk result's end node: tag, seq, processor, kind 1, end.
    let mut walk = vec![5, 9, 1, 1];
    walk.extend_from_slice(&past_u32);
    walk.extend_from_slice(&[3, 4, 0, 0, 0, 0, 30, 10, 0]);
    assert_refused(&walk, "walk end");
}

#[test]
fn a_service_span_longer_than_the_completion_stamp_is_refused() {
    assert_refused(&completion_bytes(&[9], &[1], &[30], &[31]), "span 31 of 30");
    assert_refused(&completion_bytes(&[9], &[1], &[0], &[1]), "span 1 of 0");
    let Frame::Completion(c) =
        Frame::decode(Bytes::from(completion_bytes(&[9], &[1], &[30], &[30]))).unwrap()
    else {
        panic!("not a completion");
    };
    assert_eq!(c.started_ns, 0);
}

#[test]
fn nested_counts_stay_bounded_by_the_bytes_at_hand() {
    let cat = |parts: &[&[u8]]| parts.concat();
    // A metrics frame: the tag and the run snapshot's nine counters; with
    // no processors and two empty heat maps, a trace block at `stats`;
    // then five empty stage histograms (count, sum, min, max and no
    // buckets) and the reactor's eleven words.
    let snapshot = cat(&[&[9], &[0; 72]]);
    let traced = cat(&[&snapshot, &[0; 12], &[1, 1]]);
    let histograms = [0; 5 * 44];
    let reactor = [0; 88];
    // An obs push: the tag, a router, its id and its sample stamp.
    let obs = cat(&[&[13, 0], &[0; 2], &[0; 8]]);
    // A completion with one flag set, its blocks to follow.
    let completion = |flags: u8| {
        let mut raw = completion_bytes(&[9], &[1], &[30], &[10]);
        *raw.last_mut().unwrap() = flags;
        raw
    };
    // Each prefix ends where a count goes. With 2^32 - 1 there and nothing
    // behind it, the frame is refused; with zero there and the bytes given
    // after it, the frame decodes, so what was refused is the count. (A
    // flagged heat tally with no slots is a refused default: no such frame.)
    let cases = [
        (
            snapshot.clone(),
            Some(vec![0; 9]),
            "run snapshot processors",
        ),
        (
            cat(&[&snapshot, &[0; 4]]),
            Some(vec![0; 5]),
            "partition heat slots",
        ),
        (
            cat(&[&snapshot, &[0; 8]]),
            Some(vec![0; 1]),
            "region heat slots",
        ),
        (
            cat(&[&traced, &histograms[..40]]),
            Some(cat(&[&histograms[44..], &reactor, &[0; 12]])),
            "histogram buckets",
        ),
        (
            cat(&[&traced, &histograms, &reactor]),
            Some(vec![0; 8]),
            "trace snapshot spans",
        ),
        (obs, Some(vec![]), "obs push samples"),
        (completion(0x04), None, "completion heat slots"),
        (
            cat(&[&completion(0x08), &[0; 20]]),
            Some(vec![]),
            "completion level spans",
        ),
    ];
    for (prefix, rest, why) in cases {
        assert_refused(&cat(&[&prefix, &u32::MAX.to_le_bytes()]), why);
        if let Some(rest) = rest {
            let zero = Frame::decode(Bytes::from(cat(&[&prefix, &[0; 4], &rest])));
            assert!(zero.is_ok(), "{why}: {zero:?}");
        }
    }
}

/// One frame of each kind that has a flags byte, with every optional
/// block present, and the offset of that byte.
fn flagged_frames() -> Vec<(Frame, usize, u8)> {
    let query = Query::Reachability {
        source: NodeId::new(3),
        target: NodeId::new(300),
        hops: 2,
    };
    let with_blocks = |frame: Frame, without: Frame, known: u8| {
        let at = without.encode().len() - 1;
        (frame, at, known)
    };
    let mut trace = TraceSnapshot::new(TraceLevel::Stats);
    trace.reactor.frames_in = 3;
    let completion = sample_frames(7).swap_remove(0);
    let Frame::Completion(untraced) = completion.clone() else {
        unreachable!("the first sample is a completion");
    };
    vec![
        with_blocks(
            Frame::Submit {
                seq: 5,
                query,
                submitted_ns: Some(1 << 30),
            },
            Frame::Submit {
                seq: 5,
                query,
                submitted_ns: None,
            },
            1,
        ),
        with_blocks(
            Frame::Dispatch {
                seq: 5,
                query,
                trace: Some(DispatchTrace {
                    level: TraceLevel::Spans,
                    dispatched_ns: 1 << 30,
                }),
            },
            Frame::Dispatch {
                seq: 5,
                query,
                trace: None,
            },
            1,
        ),
        with_blocks(
            Frame::Completion(Completion {
                trace: Some(QueryTrace {
                    fetch_wait_ns: 40,
                    compute_ns: 30,
                    levels: 1,
                    level_spans: vec![(40, 30)],
                }),
                ..untraced
            }),
            completion,
            0x0E,
        ),
        with_blocks(
            Frame::FetchBatchRequest {
                req_id: 4,
                nodes: vec![NodeId::new(1), NodeId::new(2)],
                issued_ns: Some(77),
            },
            Frame::FetchBatchRequest {
                req_id: 4,
                nodes: vec![NodeId::new(1), NodeId::new(2)],
                issued_ns: None,
            },
            1,
        ),
        with_blocks(
            Frame::Metrics {
                snapshot: RunSnapshot::default(),
                trace: Some(Box::new(trace)),
            },
            Frame::Metrics {
                snapshot: RunSnapshot::default(),
                trace: None,
            },
            1,
        ),
    ]
}

#[test]
fn the_retired_prefetch_tally_bit_is_refused() {
    // Bit 0 once announced a 24-byte speculative-prefetch tally; a peer
    // that still sends one, with a tally that was once valid, is refused.
    let mut raw = completion_bytes(&[9], &[1], &[30], &[10]);
    *raw.last_mut().unwrap() = 1;
    let mut tally = [0u8; 24];
    tally[0] = 5;
    raw.extend_from_slice(&tally);
    assert_refused(&raw, "prefetch tally bit");
}

#[test]
fn every_unknown_flag_bit_is_refused() {
    for (frame, at, known) in flagged_frames() {
        let good = frame.encode().to_vec();
        assert_eq!(Frame::decode(Bytes::from(good.clone())).unwrap(), frame);
        for bit in (0..8).filter(|bit| known & 1 << bit == 0) {
            let mut raw = good.clone();
            raw[at] |= 1 << bit;
            assert_refused(&raw, &format!("{} bit {bit}", frame.kind()));
        }
    }
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
        which in 0usize..5,
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
