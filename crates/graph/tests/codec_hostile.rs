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

#[test]
fn a_header_claiming_two_pow_32_neighbours_allocates_nothing() {
    // flags, out_count, in_count: nine bytes in all, no body behind them.
    for (flags, out_count, in_count) in [
        (0u8, u32::MAX, 1u32),
        (0, 1 << 31, 1 << 31),
        (1, u32::MAX, u32::MAX),
        (0, 0, u32::MAX),
    ] {
        let mut raw = vec![flags];
        raw.extend_from_slice(&out_count.to_le_bytes());
        raw.extend_from_slice(&in_count.to_le_bytes());
        let input = Bytes::from(raw);
        let mut result = None;
        let requested = requested_by(|| result = Some(AdjacencyRecord::decode(input)));
        assert!(result.unwrap().is_err());
        // The error's message is the only thing built.
        assert!(
            requested < 256,
            "{requested} bytes requested for a 9-byte input"
        );
    }
}

proptest::proptest! {
    /// Arbitrary bytes: an error or a record, never a panic, and never
    /// more memory than the input could describe.
    #[test]
    fn prop_arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u8..=255, 0..96)) {
        let len = raw.len();
        let input = Bytes::from(raw);
        let mut result = None;
        let requested = requested_by(|| result = Some(AdjacencyRecord::decode(input)));
        proptest::prop_assert!(requested <= 2 * len + 256, "{} bytes for {} of input", requested, len);
        if let Some(Ok(rec)) = result {
            proptest::prop_assert_eq!(rec.encoded_len(), len);
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
        let len = raw.len();
        match AdjacencyRecord::decode(Bytes::from(raw)) {
            Err(_) => proptest::prop_assert!(damaged, "a clean encoding was rejected"),
            Ok(back) => {
                proptest::prop_assert_eq!(back.encoded_len(), len);
                if !damaged {
                    proptest::prop_assert_eq!(back, rec);
                }
            }
        }
    }
}
