//! Hostile bytes into `AdjacencyRecord::decode`: whatever arrives, the
//! decoder returns — it never panics — and it sizes nothing from a header
//! the input cannot back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::{EdgeLabelId, NodeId};

/// Counts the bytes each thread requests, so a test can measure one call
/// while the harness runs others beside it.
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

/// `v` as the codec writes a count or a first id: LEB128, shortest form.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// An escape byte and the zigzag varint of `step`.
fn escaped(step: i64) -> Vec<u8> {
    let mut out = vec![0xFF];
    out.extend(varint(((step << 1) ^ (step >> 63)) as u64));
    out
}

/// An unlabelled out-list: its count, first id and step bytes.
fn out_list(count: u64, first: u32, steps: &[u8]) -> Vec<u8> {
    let mut raw = vec![0];
    raw.extend(varint(count));
    raw.push(0);
    raw.extend(varint(u64::from(first)));
    raw.extend_from_slice(steps);
    raw
}

fn decode(raw: &[u8]) -> grouting_graph::Result<AdjacencyRecord> {
    AdjacencyRecord::decode(Bytes::copy_from_slice(raw))
}

#[test]
fn a_header_claiming_two_pow_32_neighbours_allocates_nothing() {
    // flags, out_count, in_count, a first id and one step — up to 17
    // bytes in all, and nothing else behind them.
    for (flags, out_count, in_count, first) in [
        (0u8, u32::MAX, 1u32, 0u32),
        (0, 1 << 31, 1 << 31, 7),
        (1, u32::MAX, u32::MAX, 0),
        (0, 0, u32::MAX, u32::MAX),
    ] {
        let mut raw = vec![flags];
        raw.extend(varint(out_count.into()));
        raw.extend(varint(in_count.into()));
        raw.extend(varint(first.into()));
        raw.push(5);
        let len = raw.len();
        let input = Bytes::from(raw);
        let mut result = None;
        let requested = requested_by(|| result = Some(AdjacencyRecord::decode(input)));
        assert!(result.unwrap().is_err());
        // The error's message is the only thing built.
        assert!(
            requested < 256,
            "{requested} bytes requested for a {len}-byte input"
        );
    }
}

#[test]
fn rejects_non_shortest_varints() {
    // One out-neighbour, id 5.
    assert!(decode(&[0, 0x01, 0x00, 0x05]).is_ok());
    // The same count, and then the same first id, padded to two bytes.
    assert!(decode(&[0, 0x81, 0x00, 0x00, 0x05]).is_err());
    assert!(decode(&[0, 0x01, 0x00, 0x85, 0x00]).is_err());
    // Zero in two bytes.
    assert!(decode(&[0, 0x80, 0x00, 0x00]).is_err());
}

#[test]
fn rejects_a_non_shortest_escape_varint() {
    // Ids 5 and 300: an escaped step of 295, zigzag 590, two bytes.
    assert_eq!(escaped(295), [0xFF, 0xCE, 0x04]);
    assert!(decode(&out_list(2, 5, &[0xFF, 0xCE, 0x04])).is_ok());
    assert!(decode(&out_list(2, 5, &[0xFF, 0xCE, 0x84, 0x00])).is_err());
    assert!(decode(&out_list(2, 5, &[0xFF, 0xCE, 0x84, 0x80, 0x00])).is_err());
}

#[test]
fn rejects_an_eleven_byte_escape_varint() {
    // Ten bytes hold any u64; an eleventh continuation is refused before
    // its value is looked at.
    let mut steps = vec![0xFF];
    steps.extend([0x80; 10]);
    steps.push(0x01);
    assert!(decode(&out_list(2, 5, &steps)).is_err());
}

#[test]
fn rejects_varints_past_u32() {
    // u32::MAX itself is a five-byte varint, and a valid first id.
    assert!(decode(&[0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).is_ok());
    assert!(decode(&[0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x10]).is_err());
    // 2^32 as a count in five bytes, then a count in six.
    assert!(decode(&[0, 0x80, 0x80, 0x80, 0x80, 0x10, 0]).is_err());
    assert!(decode(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0]).is_err());
}

#[test]
fn rejects_an_escape_whose_step_fits_a_byte() {
    // Ids 5 and 9: a step of 4 is one byte, never an escape.
    assert!(decode(&out_list(2, 5, &[4])).is_ok());
    assert!(decode(&out_list(2, 5, &escaped(4))).is_err());
    // Likewise a duplicate and the widest one-byte step, 254.
    assert!(decode(&out_list(2, 5, &escaped(0))).is_err());
    assert!(decode(&out_list(2, 5, &[254])).is_ok());
    assert!(decode(&out_list(2, 5, &escaped(254))).is_err());
    // 255 is the narrowest step an escape carries.
    assert!(decode(&out_list(2, 5, &escaped(255))).is_ok());
}

#[test]
fn rejects_escaped_steps_past_u32_max_and_below_zero() {
    // From u32::MAX − 255, a step of 255 lands on u32::MAX; 256 passes it.
    assert!(decode(&out_list(2, u32::MAX - 255, &escaped(255))).is_ok());
    assert!(decode(&out_list(2, u32::MAX - 255, &escaped(256))).is_err());
    // From 100, a step of −100 lands on 0; −101 passes it.
    assert!(decode(&out_list(2, 100, &escaped(-100))).is_ok());
    assert!(decode(&out_list(2, 100, &escaped(-101))).is_err());
    // Steps no u32 pair differs by: 2^32 and −2^32.
    assert!(decode(&out_list(2, 0, &escaped(1 << 32))).is_err());
    assert!(decode(&out_list(2, u32::MAX, &escaped(-(1 << 32)))).is_err());
}

#[test]
fn rejects_ids_past_u32_max() {
    // One-byte steps from u32::MAX − 1: a step of 1 ends on u32::MAX.
    assert!(decode(&out_list(2, u32::MAX - 1, &[1])).is_ok());
    assert!(decode(&out_list(2, u32::MAX - 1, &[2])).is_err());
    // Twenty steps of 254 climb 5,080: they may end on u32::MAX, not past.
    let steps = [254; 20];
    assert!(decode(&out_list(21, u32::MAX - 5_080, &steps)).is_ok());
    assert!(decode(&out_list(21, u32::MAX - 5_079, &steps)).is_err());
}

#[test]
fn rejects_the_edge_label_flag_without_neighbours() {
    assert!(decode(&[0b10, 9, 0, 0, 0]).is_ok());
    assert!(decode(&[0b01, 0, 0]).is_err());
    assert!(decode(&[0b11, 9, 0, 0, 0]).is_err());
}

proptest::proptest! {
    /// Arbitrary bytes: an error or a record, never a panic, and never
    /// more memory than the input could describe.
    #[test]
    fn prop_arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u8..=255, 0..96)) {
        let len = raw.len();
        let input = Bytes::copy_from_slice(&raw);
        let mut result = None;
        let requested = requested_by(|| result = Some(AdjacencyRecord::decode(input)));
        // Each id costs at least one input byte (a one-byte step) and
        // decodes to four; an edge label costs two and decodes to two. So
        // a record takes at most 4 bytes per input byte, plus room for the
        // fifteen ids a block of steps may write past the last one (60
        // bytes), and anything past that is the error's message.
        proptest::prop_assert!(requested <= 4 * len + 256, "{} bytes for {} of input", requested, len);
        if let Some(Ok(rec)) = result {
            proptest::prop_assert_eq!(&rec.encode()[..], &raw[..]);
        }
    }

    /// Damaged encodings reach the checks behind the header that random
    /// bytes rarely pass: flipped bits, cuts and appended bytes.
    #[test]
    fn prop_damaged_encodings_never_panic(
        out in proptest::collection::vec(0u32..1_000_000, 0..12),
        inc in proptest::collection::vec(0u32..1_000_000, 0..12),
        labeled in proptest::bool::ANY,
        flips in proptest::collection::vec((0usize..200, 0u8..8), 0..4),
        cut in proptest::option::of(0usize..200),
        extra in proptest::collection::vec(0u8..=255, 0..4),
    ) {
        let mut rec = AdjacencyRecord::new(
            out.iter().map(|&v| NodeId::new(v)),
            inc.iter().map(|&v| NodeId::new(v)),
        );
        if labeled {
            let l = |len: usize| vec![EdgeLabelId::new(3); len];
            rec = rec.with_edge_labels(&l(out.len()), &l(inc.len()));
        }
        let good = rec.encode();
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
        match decode(&raw) {
            Err(_) => proptest::prop_assert!(damaged, "a clean encoding was rejected"),
            Ok(back) => {
                // Canonical: whatever decodes re-encodes to the same bytes.
                proptest::prop_assert_eq!(&back.encode()[..], &raw[..]);
                if !damaged {
                    proptest::prop_assert_eq!(back, rec);
                }
            }
        }
    }
}
