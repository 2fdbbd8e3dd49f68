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

/// `v` as the codec writes a count or a base: LEB128, shortest form.
fn varint(mut v: u32) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

fn decode(raw: &[u8]) -> grouting_graph::Result<AdjacencyRecord> {
    AdjacencyRecord::decode(Bytes::copy_from_slice(raw))
}

#[test]
fn a_header_claiming_two_pow_32_neighbours_allocates_nothing() {
    // flags, out_count, in_count, base and width — up to 17 bytes in all,
    // and no offsets or labels behind them.
    for (flags, out_count, in_count, base, width) in [
        (0u8, u32::MAX, 1u32, 0u32, 1u8),
        (0, 1 << 31, 1 << 31, 7, 4),
        (1, u32::MAX, u32::MAX, 0, 4),
        (0, 0, u32::MAX, u32::MAX, 2),
    ] {
        let mut raw = vec![flags];
        raw.extend(varint(out_count));
        raw.extend(varint(in_count));
        raw.extend(varint(base));
        raw.push(width);
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
    // One out-neighbour, id 5: base 5, width 1, offset 0.
    assert!(decode(&[0, 0x01, 0x00, 0x05, 1, 0]).is_ok());
    // The same count, and then the same base, padded to two bytes.
    assert!(decode(&[0, 0x81, 0x00, 0x00, 0x05, 1, 0]).is_err());
    assert!(decode(&[0, 0x01, 0x00, 0x85, 0x00, 1, 0]).is_err());
    // Zero in two bytes.
    assert!(decode(&[0, 0x80, 0x00, 0x00]).is_err());
}

#[test]
fn rejects_varints_past_u32() {
    // u32::MAX itself is a five-byte varint, and a valid base.
    assert!(decode(&[0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 0]).is_ok());
    // 2^32 in five bytes, then a sixth byte.
    assert!(decode(&[0, 0x80, 0x80, 0x80, 0x80, 0x10, 0]).is_err());
    assert!(decode(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0]).is_err());
}

#[test]
fn rejects_widths_outside_one_to_four() {
    assert!(decode(&[0, 1, 0, 5, 0]).is_err());
    assert!(decode(&[0, 1, 0, 5, 5, 0, 0, 0, 0, 0]).is_err());
}

#[test]
fn rejects_a_width_wider_than_needed() {
    // Ids 5 and 6: offsets 0 and 1 fit one byte.
    assert!(decode(&[0, 2, 0, 5, 1, 0, 1]).is_ok());
    assert!(decode(&[0, 2, 0, 5, 2, 0, 0, 1, 0]).is_err());
}

#[test]
fn rejects_a_base_that_is_not_the_smallest_id() {
    // Offsets 1 and 2: no neighbour sits at the base.
    assert!(decode(&[0, 2, 0, 5, 1, 1, 2]).is_err());
}

#[test]
fn rejects_ids_past_u32_max() {
    let mut raw = vec![0, 2, 0];
    raw.extend(varint(u32::MAX - 1));
    raw.extend([1, 0, 1]);
    assert!(decode(&raw).is_ok());
    *raw.last_mut().unwrap() = 2;
    assert!(decode(&raw).is_err());
    // Offsets 0, 1 and 2 from u32::MAX − 2 end exactly at u32::MAX, though
    // their OR (3) does not fit above the base.
    let mut raw = vec![0, 3, 0];
    raw.extend(varint(u32::MAX - 2));
    raw.extend([1, 0, 1, 2]);
    assert!(decode(&raw).is_ok());
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
        // Each id costs at least one input byte (a width-1 offset) and
        // decodes to four; an edge label costs two and decodes to two. So
        // a record takes at most 4 bytes per input byte, and anything past
        // that is the error's message.
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
