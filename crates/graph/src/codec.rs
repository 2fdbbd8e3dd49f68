//! Binary codec for per-node adjacency values stored in the storage tier.
//!
//! The storage tier is a key-value store: the key is a node id and the value
//! is the node's adjacency record — its out-neighbours and in-neighbours
//! (plus labels when present), exactly the layout of the paper's Figure 3.
//! This module defines that record and its compact wire encoding, built on
//! [`bytes`].
//!
//! Wire format (little endian):
//!
//! ```text
//! u8  flags        (bit 0: has edge labels, bit 1: has node label)
//! u16 node label   (if flag bit 1)
//! u32 out_count
//! u32 in_count
//! u32 × out_count  out-neighbour ids
//! u32 × in_count   in-neighbour ids
//! u16 × out_count  out-edge labels (if flag bit 0)
//! u16 × in_count   in-edge labels  (if flag bit 0)
//! ```

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

    /// Encoded size in bytes (matches `encode().len()` exactly).
    pub fn encoded_len(&self) -> usize {
        1 + if self.node_label.is_some() { 2 } else { 0 }
            + 8
            + 4 * self.ids.len()
            + 2 * self.labels.len()
    }

    /// Encodes to the wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
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
        buf.extend_from_slice(&(self.out_len as u32).to_le_bytes());
        buf.extend_from_slice(&(self.inc().len() as u32).to_le_bytes());
        for v in &self.ids {
            buf.extend_from_slice(&v.raw().to_le_bytes());
        }
        for l in &self.labels {
            buf.extend_from_slice(&l.0.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        Bytes::from(buf)
    }

    /// Decodes from the wire format: the header is validated against the
    /// input's length first — nothing is allocated for a record the bytes
    /// cannot hold — and the neighbour ids are then copied in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Codec`] on truncated or malformed input.
    pub fn decode(data: Bytes) -> Result<Self> {
        let short = |need: u64, have: usize| {
            Err(GraphError::Codec(format!("need {need} bytes, have {have}")))
        };
        let Some((&flags, rest)) = data.split_first() else {
            return short(1, 0);
        };
        if flags & !(FLAG_EDGE_LABELS | FLAG_NODE_LABEL) != 0 {
            return Err(GraphError::Codec(format!("unknown flags {flags:#x}")));
        }
        let label_bytes = if flags & FLAG_NODE_LABEL != 0 { 2 } else { 0 };
        if rest.len() < label_bytes + 8 {
            return short(label_bytes as u64 + 8, rest.len());
        }
        let (label, rest) = rest.split_at(label_bytes);
        let node_label = (label_bytes != 0).then(|| NodeLabelId::new(le_u16(label)));
        let (counts, body) = rest.split_at(8);
        let out_count = le_u32(&counts[..4]);
        let in_count = le_u32(&counts[4..]);
        // In u64 the claimed size cannot overflow, whatever the counts say.
        let total = u64::from(out_count) + u64::from(in_count);
        let labeled = flags & FLAG_EDGE_LABELS != 0;
        let need = total * if labeled { 6 } else { 4 };
        if (body.len() as u64) < need {
            return short(need, body.len());
        }
        if body.len() as u64 > need {
            return Err(GraphError::Codec(format!(
                "{} trailing bytes",
                body.len() as u64 - need
            )));
        }
        // `need == body.len()`, so the counts fit the input (and `usize`).
        let (id_bytes, label_bytes) = body.split_at(4 * total as usize);
        Ok(Self {
            ids: id_bytes
                .chunks_exact(4)
                .map(|c| NodeId::new(le_u32(c)))
                .collect(),
            labels: label_bytes
                .chunks_exact(2)
                .map(|c| EdgeLabelId::new(le_u16(c)))
                .collect(),
            out_len: out_count as usize,
            node_label,
        })
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().expect("two bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("four bytes"))
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
    #[should_panic(expected = "one label per in-edge")]
    fn edge_labels_must_match_the_neighbour_lists() {
        let _ = AdjacencyRecord::new([n(1)], [n(2), n(3)])
            .with_edge_labels(&[EdgeLabelId::new(4)], &[EdgeLabelId::new(5)]);
    }

    #[test]
    fn decode_rejects_truncation() {
        let rec = AdjacencyRecord::new([n(1), n(2)], []);
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            let r = AdjacencyRecord::decode(bytes.slice(0..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let rec = AdjacencyRecord::default();
        let mut raw = rec.encode().to_vec();
        raw.push(0xFF);
        assert!(AdjacencyRecord::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn decode_rejects_unknown_flags() {
        let raw = vec![0xF0u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(AdjacencyRecord::decode(Bytes::from(raw)).is_err());
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

    /// The records behind `tests/fixtures/adjacency_records_v1.hex`, which
    /// holds what the encoder wrote for them before the record became one
    /// buffer (one hex line each, same order).
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
        (0..24u32)
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
            .collect()
    }

    #[test]
    fn stored_values_of_the_old_encoder_round_trip_byte_for_byte() {
        let fixture: Vec<Vec<u8>> = include_str!("../tests/fixtures/adjacency_records_v1.hex")
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
        for (i, (old, rec)) in fixture.iter().zip(&records).enumerate() {
            assert_eq!(&rec.encode()[..], &old[..], "record {i}: encoder drifted");
            let back = AdjacencyRecord::decode(Bytes::from(old.clone())).unwrap();
            assert_eq!(&back, rec, "record {i}");
            assert_eq!(
                &back.encode()[..],
                &old[..],
                "record {i}: re-encode drifted"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_codec_round_trip(
            out in proptest::collection::vec(0u32..1_000_000, 0..50),
            inc in proptest::collection::vec(0u32..1_000_000, 0..50),
            labeled in proptest::bool::ANY,
            node_label in proptest::option::of(0u16..100),
        ) {
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
