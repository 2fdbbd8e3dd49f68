//! Binary codec for per-node adjacency values stored in the storage tier.
//!
//! The storage tier is a key-value store: the key is a node id and the value
//! is the node's adjacency record — its out-neighbours and in-neighbours
//! (plus labels when present), exactly the layout of the paper's Figure 3.
//! This module defines that record and its compact wire encoding, built on
//! [`bytes`]. Every cache miss ships one encoded record from storage to a
//! processor, so its size is the miss path's network cost.
//!
//! # Layout
//!
//! A record is a *frame of reference*: one base id, the smallest neighbour,
//! and every neighbour as a fixed-width offset from it (little endian):
//!
//! ```text
//! u8  flags            bit 0: has edge labels, bit 1: has node label
//! u16 node label       if flag bit 1
//! varint out_count     LEB128, shortest form, at most 5 bytes
//! varint in_count
//! — only if out_count + in_count > 0:
//! varint base          the smallest neighbour id
//! u8  width            1..=4, the fewest bytes that hold (max id − base)
//! width × (out + in)   id − base: out-neighbours, then in-neighbours
//! u16 × (out + in)     edge labels, out then in (if flag bit 0)
//! ```
//!
//! Worked example: `AdjacencyRecord::new([5], [7, 3])` encodes to
//! `00 01 02 03 01 02 04 00` — no flags, one out- and two in-neighbours,
//! base 3, width 1, offsets 2, 4 and 0. That is 8 bytes, where four-byte
//! counts and ids took 21.
//!
//! Neighbours keep the order they were given in, duplicates included:
//! nothing is sorted, so a traversal meets them in the graph's order. The
//! encoding is canonical — [`AdjacencyRecord::decode`] accepts only what
//! [`AdjacencyRecord::encode`] writes (known flags, shortest varints, the
//! narrowest width, a base that is the minimum, no edge-label flag without
//! neighbours, the exact length) — so a record that decodes re-encodes to
//! the same bytes.
//!
//! # Why a frame of reference
//!
//! The graphs gRouting serves are id-local. The WebGraph profile is built,
//! like the host-ordered crawl it stands in for, from id-contiguous
//! communities, so a record's neighbours sit in a narrow id range: at
//! scale 1.0, 105,241 of its 105,897 records need width 2, 64 width 1 and
//! 592 width 3, and the mean record falls from 291 bytes with four bytes
//! per id to 148 (0.509). Decoding stays one length check, one
//! fixed-stride widening loop and one vectorised check pass: about 75 ns
//! per WebGraph record on a 2-vCPU x86-64 host, what four-byte ids took.
//! Zigzag-delta varints are smaller (0.28 of the bytes) but decode about
//! twice as slowly, which cost the all-miss `scatter_cold` benchmark
//! workload 16 % more CPU per query and 13 % of its throughput. Separate
//! bases for the out- and in-lists gained nothing (0.513 against 0.509
//! over the records 2-hop balls reach).
//!
//! How compactly a record travels does not decide how much cache it takes:
//! caches are charged [`AdjacencyRecord::resident_len`], the size of the
//! decoded record.

use bytes::Bytes;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{EdgeLabelId, NodeId, NodeLabelId};
use crate::Result;

const FLAG_EDGE_LABELS: u8 = 0b01;
const FLAG_NODE_LABEL: u8 = 0b10;

/// A node's complete adjacency record — the storage-tier value.
///
/// Decoded form of the wire layout, kept the way it arrives: one id buffer
/// holding the out-neighbours followed by the in-neighbours (so an
/// unlabelled record is a single allocation and the bi-directed view is a
/// plain slice), and one label buffer laid out the same way, empty when the
/// graph carries no edge labels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdjacencyRecord {
    /// Out-neighbour ids, then in-neighbour ids.
    ids: Vec<NodeId>,
    /// Edge labels parallel to `ids`, or empty when unlabelled.
    labels: Vec<EdgeLabelId>,
    /// How many of `ids` are out-neighbours.
    out_len: usize,
    /// The node's own label, if any.
    pub node_label: Option<NodeLabelId>,
}

impl AdjacencyRecord {
    /// An unlabelled record with the given out- and in-neighbours.
    pub fn new(
        out: impl IntoIterator<Item = NodeId>,
        inc: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut ids: Vec<NodeId> = out.into_iter().collect();
        let out_len = ids.len();
        ids.extend(inc);
        Self {
            ids,
            out_len,
            ..Self::default()
        }
    }

    /// Attaches edge labels, parallel to the out- and in-neighbours. Two
    /// empty slices leave the record unlabelled.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are empty or each matches its neighbour
    /// list in length.
    pub fn with_edge_labels(mut self, out: &[EdgeLabelId], inc: &[EdgeLabelId]) -> Self {
        if !(out.is_empty() && inc.is_empty()) {
            assert_eq!(out.len(), self.out_len, "one label per out-edge");
            assert_eq!(inc.len(), self.inc().len(), "one label per in-edge");
        }
        self.labels = [out, inc].concat();
        self
    }

    /// Extracts the record for `node` from an in-memory graph.
    pub fn from_graph(g: &CsrGraph, node: NodeId) -> Result<Self> {
        g.check(node)?;
        let (ids, labels): (Vec<NodeId>, Vec<EdgeLabelId>) =
            g.out_edges(node).chain(g.in_edges(node)).unzip();
        let labeled = labels.iter().any(|l| *l != EdgeLabelId::UNLABELED);
        Ok(Self {
            ids,
            labels: if labeled { labels } else { Vec::new() },
            out_len: g.out_degree(node),
            node_label: g.node_label(node),
        })
    }

    /// Out-neighbour node ids.
    #[inline]
    pub fn out(&self) -> &[NodeId] {
        &self.ids[..self.out_len]
    }

    /// In-neighbour node ids.
    #[inline]
    pub fn inc(&self) -> &[NodeId] {
        &self.ids[self.out_len..]
    }

    /// All neighbours in the bi-directed view (out then in).
    #[inline]
    pub fn all_neighbors(&self) -> &[NodeId] {
        &self.ids
    }

    /// Out-edge labels, parallel to [`AdjacencyRecord::out`]; empty when
    /// unlabelled.
    pub fn out_labels(&self) -> &[EdgeLabelId] {
        &self.labels[..self.out_len.min(self.labels.len())]
    }

    /// In-edge labels, parallel to [`AdjacencyRecord::inc`]; empty when
    /// unlabelled.
    pub fn in_labels(&self) -> &[EdgeLabelId] {
        &self.labels[self.out_len.min(self.labels.len())..]
    }

    /// Bi-directed degree.
    pub fn degree(&self) -> usize {
        self.ids.len()
    }

    /// What the record stands for in a cache: the size of a fixed-width
    /// layout of the decoded record — a flags byte, two `u32` counts, four
    /// bytes per id, two per edge label and two for a node label. Caches
    /// are charged this, not the encoded length, so a cache of N bytes
    /// holds the same records however compactly they travel.
    pub fn resident_len(&self) -> usize {
        9 + 4 * self.ids.len()
            + 2 * self.labels.len()
            + if self.node_label.is_some() { 2 } else { 0 }
    }

    /// Encoded size in bytes (matches `encode().len()` exactly).
    pub fn encoded_len(&self) -> usize {
        self.encoded_len_in(self.frame())
    }

    /// The frame of reference: the smallest id and the offset width, or
    /// `(0, 0)` without neighbours.
    fn frame(&self) -> (u32, usize) {
        let mut ids = self.ids.iter().map(|v| v.raw());
        let Some(first) = ids.next() else {
            return (0, 0);
        };
        let (lo, hi) = ids.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
        (lo, width_for(hi - lo))
    }

    fn encoded_len_in(&self, (base, width): (u32, usize)) -> usize {
        let frame = if self.ids.is_empty() {
            0
        } else {
            varint_len(base) + 1 + width * self.ids.len()
        };
        1 + if self.node_label.is_some() { 2 } else { 0 }
            + varint_len(self.out_len as u32)
            + varint_len(self.inc().len() as u32)
            + frame
            + 2 * self.labels.len()
    }

    /// Encodes to the wire format into one buffer of exactly
    /// [`AdjacencyRecord::encoded_len`] bytes.
    pub fn encode(&self) -> Bytes {
        let (base, width) = self.frame();
        let len = self.encoded_len_in((base, width));
        let mut buf = Vec::with_capacity(len);
        let mut flags = 0u8;
        if !self.labels.is_empty() {
            flags |= FLAG_EDGE_LABELS;
        }
        if self.node_label.is_some() {
            flags |= FLAG_NODE_LABEL;
        }
        buf.push(flags);
        if let Some(l) = self.node_label {
            buf.extend_from_slice(&l.0.to_le_bytes());
        }
        put_varint(&mut buf, self.out_len as u32);
        put_varint(&mut buf, self.inc().len() as u32);
        if !self.ids.is_empty() {
            put_varint(&mut buf, base);
            buf.push(width as u8);
            for v in &self.ids {
                buf.extend_from_slice(&(v.raw() - base).to_le_bytes()[..width]);
            }
        }
        for l in &self.labels {
            buf.extend_from_slice(&l.0.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), len);
        Bytes::from(buf)
    }

    /// Decodes from the wire format: the header is validated against the
    /// input's length first — nothing is allocated for a record the bytes
    /// cannot hold — and the offsets are then widened in one fixed-stride
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Codec`] on truncated, malformed or
    /// non-canonical input (see the module documentation).
    pub fn decode(data: Bytes) -> Result<Self> {
        let Some((&flags, mut rest)) = data.split_first() else {
            return Err(short(1, 0));
        };
        if flags & !(FLAG_EDGE_LABELS | FLAG_NODE_LABEL) != 0 {
            return Err(malformed(format!("unknown flags {flags:#x}")));
        }
        let node_label = if flags & FLAG_NODE_LABEL != 0 {
            let Some((label, tail)) = rest.split_first_chunk::<2>() else {
                return Err(short(2, rest.len()));
            };
            rest = tail;
            Some(NodeLabelId::new(u16::from_le_bytes(*label)))
        } else {
            None
        };
        let out_count = take_varint(&mut rest)?;
        let in_count = take_varint(&mut rest)?;
        let labeled = flags & FLAG_EDGE_LABELS != 0;
        // In u64 the claimed sizes cannot overflow, whatever the counts say.
        let total = u64::from(out_count) + u64::from(in_count);
        if total == 0 {
            if labeled {
                return Err(malformed("edge-label flag without neighbours".into()));
            }
            exact_len(0, rest.len())?;
            return Ok(Self {
                node_label,
                ..Self::default()
            });
        }
        let base = take_varint(&mut rest)?;
        let Some((&width, body)) = rest.split_first() else {
            return Err(short(1, 0));
        };
        if !(1..=4).contains(&width) {
            return Err(malformed(format!("offset width {width}")));
        }
        let width = usize::from(width);
        exact_len(
            total * (width as u64 + if labeled { 2 } else { 0 }),
            body.len(),
        )?;
        // The length matched, so the counts fit the input (and `usize`).
        let (offsets, labels) = body.split_at(width * total as usize);
        let ids = match width {
            1 => widen::<1>(offsets, base)?,
            2 => widen::<2>(offsets, base)?,
            3 => widen::<3>(offsets, base)?,
            _ => widen::<4>(offsets, base)?,
        };
        Ok(Self {
            ids,
            labels: labels
                .chunks_exact(2)
                .map(|c| EdgeLabelId::new(u16::from_le_bytes([c[0], c[1]])))
                .collect(),
            out_len: out_count as usize,
            node_label,
        })
    }
}

/// Widens `W`-byte offsets from `base` into ids, then checks them
/// against the canonical form: `W` is the narrowest width, some id sits at
/// the base, and no id passed `u32::MAX`. The checks are a second pass of
/// bitwise folds over the widened ids — the OR of the offsets has the
/// largest offset's top bit and bounds it from above — which the compiler
/// vectorises. Folding min and max instead (baseline x86-64 has no
/// unsigned vector min), or checking inside the widening pass, made a
/// WebGraph record's ~75 ns decode 15 to 110 ns slower.
fn widen<const W: usize>(offsets: &[u8], base: u32) -> Result<Vec<NodeId>> {
    let ids: Vec<NodeId> = offsets
        .chunks_exact(W)
        .map(|c| {
            let mut le = [0u8; 4];
            le[..W].copy_from_slice(c);
            NodeId::new(base.wrapping_add(u32::from_le_bytes(le)))
        })
        .collect();
    let (any, zero) = ids.iter().fold((0u32, 0u32), |(any, zero), v| {
        let off = v.raw().wrapping_sub(base);
        (any | off, zero | u32::from(off == 0))
    });
    if width_for(any) != W {
        return Err(malformed(format!(
            "width {W} is wider than offsets within {any:#x} need"
        )));
    }
    if zero == 0 {
        return Err(malformed(format!("base {base} is not the smallest id")));
    }
    // An id that passed u32::MAX wrapped around to below the base.
    if base.checked_add(any).is_none() && ids.iter().any(|v| v.raw() < base) {
        return Err(malformed(format!("an id past u32::MAX from base {base}")));
    }
    Ok(ids)
}

/// The fewest bytes (at least one) that hold `span`.
fn width_for(span: u32) -> usize {
    (4 - span.leading_zeros() as usize / 8).max(1)
}

fn varint_len(v: u32) -> usize {
    1 + (31 - (v | 1).leading_zeros() as usize) / 7
}

fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads one LEB128 `u32` in its shortest form off the front of `data`.
fn take_varint(data: &mut &[u8]) -> Result<u32> {
    let bytes = *data;
    let mut v = 0u64;
    for (i, &b) in bytes.iter().take(5).enumerate() {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            if i > 0 && b == 0 {
                return Err(malformed(format!("{}-byte varint for {v}", i + 1)));
            }
            let v = u32::try_from(v).map_err(|_| malformed(format!("varint {v} past u32")))?;
            *data = &bytes[i + 1..];
            return Ok(v);
        }
    }
    Err(if bytes.len() < 5 {
        short(bytes.len() as u64 + 1, bytes.len())
    } else {
        malformed("varint longer than 5 bytes".into())
    })
}

fn exact_len(need: u64, have: usize) -> Result<()> {
    match (have as u64).cmp(&need) {
        std::cmp::Ordering::Less => Err(short(need, have)),
        std::cmp::Ordering::Greater => {
            Err(malformed(format!("{} trailing bytes", have as u64 - need)))
        }
        std::cmp::Ordering::Equal => Ok(()),
    }
}

fn short(need: u64, have: usize) -> GraphError {
    malformed(format!("need {need} bytes, have {have}"))
}

fn malformed(msg: String) -> GraphError {
    GraphError::Codec(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn round_trip_unlabeled() {
        let rec = AdjacencyRecord::new([n(1), n(2)], [n(3)]);
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        let back = AdjacencyRecord::decode(bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.degree(), 3);
    }

    #[test]
    fn round_trip_labeled() {
        let mut rec = AdjacencyRecord::new([n(1)], [n(2), n(3)]).with_edge_labels(
            &[EdgeLabelId::new(4)],
            &[EdgeLabelId::new(5), EdgeLabelId::new(6)],
        );
        rec.node_label = Some(NodeLabelId::new(9));
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        let back = AdjacencyRecord::decode(bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.out_labels(), &[EdgeLabelId::new(4)]);
        assert_eq!(
            back.in_labels(),
            &[EdgeLabelId::new(5), EdgeLabelId::new(6)]
        );
    }

    #[test]
    fn worked_example_encodes_to_eight_bytes() {
        let rec = AdjacencyRecord::new([n(5)], [n(7), n(3)]);
        let bytes = rec.encode();
        assert_eq!(
            &bytes[..],
            &[0x00, 0x01, 0x02, 0x03, 0x01, 0x02, 0x04, 0x00]
        );
        assert_eq!(rec.encoded_len(), 8);
        assert_eq!(rec.resident_len(), 21);
        assert_eq!(AdjacencyRecord::decode(bytes).unwrap(), rec);
    }

    #[test]
    #[should_panic(expected = "one label per in-edge")]
    fn edge_labels_must_match_the_neighbour_lists() {
        let _ = AdjacencyRecord::new([n(1)], [n(2), n(3)])
            .with_edge_labels(&[EdgeLabelId::new(4)], &[EdgeLabelId::new(5)]);
    }

    /// A record with every optional part: node label, edge labels, ids
    /// needing a multi-byte base and two-byte offsets.
    fn full_record() -> AdjacencyRecord {
        let mut rec = AdjacencyRecord::new([n(300)], [n(70_000)])
            .with_edge_labels(&[EdgeLabelId::new(1)], &[EdgeLabelId::new(2)]);
        rec.node_label = Some(NodeLabelId::new(4));
        rec
    }

    #[test]
    fn decode_rejects_truncation() {
        for rec in [AdjacencyRecord::new([n(1), n(2)], []), full_record()] {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                let r = AdjacencyRecord::decode(bytes.slice(0..cut));
                assert!(r.is_err(), "cut at {cut} should fail");
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        for rec in [AdjacencyRecord::default(), full_record()] {
            for extra in [&[0xFF][..], &[0, 0, 0]] {
                let mut raw = rec.encode().to_vec();
                raw.extend_from_slice(extra);
                assert!(AdjacencyRecord::decode(Bytes::from(raw)).is_err());
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_flags() {
        assert!(AdjacencyRecord::decode(Bytes::from(vec![0u8, 0, 0])).is_ok());
        for bit in 2..8 {
            let raw = vec![1u8 << bit, 0, 0];
            assert!(
                AdjacencyRecord::decode(Bytes::from(raw)).is_err(),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn from_graph_extracts_both_directions() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(2), n(0));
        let g = b.build().unwrap();
        let rec = AdjacencyRecord::from_graph(&g, n(0)).unwrap();
        assert_eq!(rec.out(), &[n(1)]);
        assert_eq!(rec.inc(), &[n(2)]);
        assert!(rec.out_labels().is_empty());
        assert!(rec.in_labels().is_empty());
        assert!(AdjacencyRecord::from_graph(&g, n(9)).is_err());
    }

    #[test]
    fn all_neighbors_order() {
        let rec = AdjacencyRecord::new([n(5)], [n(7), n(8)]);
        assert_eq!(rec.all_neighbors(), &[n(5), n(7), n(8)]);
    }

    /// The records behind `tests/fixtures/adjacency_records_v2.hex`, which
    /// holds what the frame-of-reference encoder wrote for them (one hex
    /// line each, same order): 24 pseudo-random records — labelled,
    /// node-labelled, empty lists, ids near `u32::MAX` — then hand-picked
    /// ones so that every offset width and a base within 255 of
    /// `u32::MAX` appear.
    fn fixture_records() -> Vec<AdjacencyRecord> {
        let mut x: u32 = 0x2545_F491;
        let mut next = move || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        };
        let ids = |len: u32, next: &mut dyn FnMut() -> u32| -> Vec<NodeId> {
            (0..len)
                .map(|k| {
                    let v = next();
                    n(if k == 3 {
                        u32::MAX - v % 3
                    } else {
                        v % 1_000_000
                    })
                })
                .collect()
        };
        let labels = |len: usize, next: &mut dyn FnMut() -> u32| -> Vec<EdgeLabelId> {
            (0..len)
                .map(|_| EdgeLabelId::new((next() >> 8) as u16 % 50))
                .collect()
        };
        let mut records: Vec<AdjacencyRecord> = (0..24u32)
            .map(|i| {
                let out = ids((i * 7) % 11, &mut next);
                let inc = ids((i * 5) % 9, &mut next);
                let mut rec = AdjacencyRecord::new(out, inc);
                if i % 3 == 1 {
                    let out_labels = labels(rec.out().len(), &mut next);
                    let in_labels = labels(rec.inc().len(), &mut next);
                    rec = rec.with_edge_labels(&out_labels, &in_labels);
                }
                rec.node_label = (i % 4 >= 2).then(|| NodeLabelId::new((i * 3) as u16));
                rec
            })
            .collect();
        let l = EdgeLabelId::new;
        // Width 1: a span of exactly 255.
        records.push(AdjacencyRecord::new([n(1_000), n(1_003)], [n(1_255)]));
        // Width 2, labelled: a span of exactly 65,535.
        records.push(
            AdjacencyRecord::new([n(70_000)], [n(70_256), n(135_535)])
                .with_edge_labels(&[l(1)], &[l(2), l(3)]),
        );
        // Width 3: a span of exactly 65,536, out-list only.
        records.push(AdjacencyRecord::new([n(5), n(65_541)], []));
        // A base 255 below u32::MAX, with a duplicate and a node label.
        let mut top = AdjacencyRecord::new(
            [n(u32::MAX), n(u32::MAX - 255)],
            [n(u32::MAX - 100), n(u32::MAX - 255)],
        );
        top.node_label = Some(NodeLabelId::new(7));
        records.push(top);
        records
    }

    #[test]
    fn fixture_records_cover_every_width_and_a_base_near_the_top() {
        let frames: Vec<(u32, usize)> = fixture_records()
            .iter()
            .filter(|r| r.degree() > 0)
            .map(AdjacencyRecord::frame)
            .collect();
        for width in 1..=4 {
            assert!(frames.iter().any(|f| f.1 == width), "no width {width}");
        }
        assert!(frames.iter().any(|f| f.0 >= u32::MAX - 255));
    }

    #[test]
    fn stored_values_round_trip_byte_for_byte() {
        let fixture: Vec<Vec<u8>> = include_str!("../tests/fixtures/adjacency_records_v2.hex")
            .lines()
            .map(|line| {
                (0..line.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&line[i..i + 2], 16).unwrap())
                    .collect()
            })
            .collect();
        let records = fixture_records();
        assert_eq!(fixture.len(), records.len());
        for (i, (stored, rec)) in fixture.iter().zip(&records).enumerate() {
            assert_eq!(
                &rec.encode()[..],
                &stored[..],
                "record {i}: encoder drifted"
            );
            let back = AdjacencyRecord::decode(Bytes::from(stored.clone())).unwrap();
            assert_eq!(&back, rec, "record {i}");
            assert_eq!(
                &back.encode()[..],
                &stored[..],
                "record {i}: re-encode drifted"
            );
        }
    }

    #[test]
    fn resident_len_is_the_fixed_width_size() {
        for rec in fixture_records() {
            let ids = rec.out().len() + rec.inc().len();
            let labels = rec.out_labels().len() + rec.in_labels().len();
            let node_label = if rec.node_label.is_some() { 2 } else { 0 };
            assert_eq!(
                rec.resident_len(),
                1 + node_label + 8 + 4 * ids + 2 * labels
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_codec_round_trip(
            out in proptest::collection::vec(0u32..=u32::MAX, 0..50),
            inc in proptest::collection::vec(0u32..=u32::MAX, 0..50),
            shift in 0u32..32,
            labeled in proptest::bool::ANY,
            node_label in proptest::option::of(0u16..100),
        ) {
            // Shifting the ids right narrows their span, so every width
            // (and bases from zero to near the top) gets exercised.
            let (out, inc): (Vec<u32>, Vec<u32>) = (
                out.iter().map(|&v| v >> shift).collect(),
                inc.iter().map(|&v| v >> shift).collect(),
            );
            let mut rec = AdjacencyRecord::new(out.iter().map(|&v| n(v)), inc.iter().map(|&v| n(v)));
            if labeled {
                let out_labels: Vec<_> = out.iter().map(|&v| EdgeLabelId::new((v % 7) as u16)).collect();
                let in_labels: Vec<_> = inc.iter().map(|&v| EdgeLabelId::new((v % 5) as u16)).collect();
                rec = rec.with_edge_labels(&out_labels, &in_labels);
            }
            rec.node_label = node_label.map(NodeLabelId::new);
            let bytes = rec.encode();
            proptest::prop_assert_eq!(bytes.len(), rec.encoded_len());
            let back = AdjacencyRecord::decode(bytes).unwrap();
            proptest::prop_assert_eq!(back.out(), rec.out());
            proptest::prop_assert_eq!(back.inc(), rec.inc());
            proptest::prop_assert_eq!(back.out_labels().len(), if labeled { out.len() } else { 0 });
            proptest::prop_assert_eq!(back.in_labels().len(), if labeled { inc.len() } else { 0 });
            proptest::prop_assert_eq!(back, rec);
        }
    }
}
