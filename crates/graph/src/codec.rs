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
//! Each neighbour list travels as its first id and then one step per later
//! id, the difference from the id before it (fixed-width fields little
//! endian):
//!
//! ```text
//! u8  flags            bit 0: has edge labels, bit 1: has node label
//! u16 node label       if flag bit 1
//! varint out_count     LEB128, shortest form, at most 5 bytes
//! varint in_count
//! — the out-list, then the in-list, each only if not empty:
//! varint first         the list's first id
//! step × (count − 1)   one byte 0..=254: the id is the one before plus it;
//!                      or 0xFF, then the step as a zigzag varint: a step
//!                      past 254, or one below 0
//! — then:
//! u16 × (out + in)     edge labels, out then in (if flag bit 0)
//! ```
//!
//! Worked example: `AdjacencyRecord::new([5, 7], [9, 3])` encodes to
//! `00 02 02 05 02 09 FF 0B` — no flags, two out- and two in-neighbours;
//! the out-list starts at 5 and steps 2; the in-list starts at 9 and steps
//! −6, escaped (zigzag 11). That is 8 bytes, where the frame of reference
//! before this layout took 9 and four-byte counts and ids take 25.
//!
//! Neighbours keep the order they were given in, duplicates included: a
//! duplicate is a step of 0 and a step below 0 is escaped, so nothing has
//! to be sorted for a record to travel. The encoding is canonical — [`AdjacencyRecord::decode`]
//! accepts only what [`AdjacencyRecord::encode`] writes (known flags,
//! shortest varints, no escape for a step that fits a byte, ids within
//! `u32`, no edge-label flag without neighbours, the exact length) — so a
//! record that decodes re-encodes to the same bytes. Its varint writer and
//! reader, [`put_varint`] and [`take_varint`], are the cluster's only
//! LEB128 codec: the wire frames use them too.
//!
//! # Why gaps
//!
//! The graphs gRouting serves are id-local, and their lists are sorted:
//! the WebGraph profile is built, like the host-ordered crawl it stands in
//! for, from id-contiguous communities, and `GraphBuilder::build` sorts
//! every node's edges. So consecutive neighbours sit close together, and
//! 99.4 % of steps are below 255. At scale 1.0 the mean WebGraph record
//! falls from 148.3 bytes under the frame of reference (a base id and a
//! 1–4-byte offset per neighbour, two bytes for most records) to 78.1
//! (0.53; four-byte ids took 291), and the records `load/`'s
//! `scatter_cold` workload reads in its 2-hop balls from 150 to 79.
//!
//! A byte per step makes decoding a running sum. On x86-64 it is taken
//! sixteen steps at a time with SSE2: one compare finds a block's first
//! escape, three shift-and-add rounds sum the steps before it, and the
//! running id stays in a register from block to block. A list whose
//! one-byte steps cannot climb past `u32::MAX` takes that path, so the
//! range is checked once per list and once per escape, not per id; a list
//! near the top of the range, and every list off x86-64, is read a step
//! at a time. What costs is not the ids but the events — a list's end, an
//! escape — each a branch the predictor misses, so the decoder adds none
//! it can avoid: a block near the end of the input is loaded from a copy
//! of the input's last bytes, picked by a select, and a list's last block
//! stores only the vectors that hold its ids, so a decoded buffer keeps
//! three ids of room, not fifteen (fifteen cost `resident_hot` 8 % of its
//! peak RSS).
//!
//! Decoding every WebGraph record at scale 1.0 into [`AdjacencyRecord`]
//! on a 2-vCPU x86-64 host, both layouts in one process: a cold pass in
//! node order took 84–86 ns per record against the frame of reference's
//! 91 (0.92–0.94), and warm 1,000-record batches 71.2 ns against 72.2
//! (0.99). A first escape-byte decoder, eight bytes at a time into a
//! zero-filled buffer, read 103–117 ns against 86–98.
//!
//! How compactly a record travels does not decide how much cache it takes:
//! caches are charged [`AdjacencyRecord::resident_len`], the size of the
//! decoded record.

use std::ops::Range;

use bytes::{Buf, BufMut, Bytes};

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{EdgeLabelId, NodeId, NodeLabelId};
use crate::Result;

const FLAG_EDGE_LABELS: u8 = 0b01;
const FLAG_NODE_LABEL: u8 = 0b10;

/// A node's complete adjacency record — the storage-tier value.
///
/// Decoded form of the wire layout, kept the way it arrives, in one
/// buffer: the out-neighbours, then the in-neighbours (so the bi-directed
/// view is a plain slice), then — when the graph carries edge labels —
/// the labels parallel to them, two to a slot, low half first. A record
/// is that buffer and the `Arc` a cache holds it in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdjacencyRecord {
    /// Out-neighbour ids, then in-neighbour ids, then the packed edge
    /// labels of a labelled record (a trailing odd half is zero).
    slab: Vec<NodeId>,
    /// How many of `slab` are neighbour ids.
    degree: usize,
    /// How many of them are out-neighbours.
    out_len: usize,
    /// Whether the record carries edge labels.
    labeled: bool,
    /// The node's own label, if any.
    pub node_label: Option<NodeLabelId>,
}

impl AdjacencyRecord {
    /// An unlabelled record with the given out- and in-neighbours.
    pub fn new(
        out: impl IntoIterator<Item = NodeId>,
        inc: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut slab: Vec<NodeId> = out.into_iter().collect();
        let out_len = slab.len();
        slab.extend(inc);
        Self {
            degree: slab.len(),
            slab,
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
        self.slab.truncate(self.degree);
        self.labeled = !(out.is_empty() && inc.is_empty());
        if self.labeled {
            assert_eq!(out.len(), self.out_len, "one label per out-edge");
            assert_eq!(inc.len(), self.inc().len(), "one label per in-edge");
            self.push_labels(out.iter().chain(inc).copied());
        }
        self
    }

    /// Packs `labels` onto the slab behind the ids, two to a slot.
    fn push_labels(&mut self, labels: impl Iterator<Item = EdgeLabelId>) {
        let mut labels = labels.map(|l| u32::from(l.0));
        while let Some(low) = labels.next() {
            let high = labels.next().unwrap_or(0);
            self.slab.push(NodeId::new(low | high << 16));
        }
    }

    /// Extracts the record for `node` from an in-memory graph.
    pub fn from_graph(g: &CsrGraph, node: NodeId) -> Result<Self> {
        g.check(node)?;
        let edges = || g.out_edges(node).chain(g.in_edges(node));
        let labeled = edges().any(|(_, l)| l != EdgeLabelId::UNLABELED);
        let degree = g.degree(node);
        let slots = if labeled { degree.div_ceil(2) } else { 0 };
        let mut slab = Vec::with_capacity(degree + slots);
        slab.extend(edges().map(|(v, _)| v));
        let mut rec = Self {
            slab,
            degree,
            out_len: g.out_degree(node),
            labeled,
            node_label: g.node_label(node),
        };
        if labeled {
            rec.push_labels(edges().map(|(_, l)| l));
        }
        Ok(rec)
    }

    /// Out-neighbour node ids.
    #[inline]
    pub fn out(&self) -> &[NodeId] {
        &self.slab[..self.out_len]
    }

    /// In-neighbour node ids.
    #[inline]
    pub fn inc(&self) -> &[NodeId] {
        &self.slab[self.out_len..self.degree]
    }

    /// All neighbours in the bi-directed view (out then in).
    #[inline]
    pub fn all_neighbors(&self) -> &[NodeId] {
        &self.slab[..self.degree]
    }

    /// Out-edge labels, parallel to [`AdjacencyRecord::out`]; none when
    /// unlabelled.
    pub fn out_labels(&self) -> impl ExactSizeIterator<Item = EdgeLabelId> + '_ {
        self.labels(0..self.out_len)
    }

    /// In-edge labels, parallel to [`AdjacencyRecord::inc`]; none when
    /// unlabelled.
    pub fn in_labels(&self) -> impl ExactSizeIterator<Item = EdgeLabelId> + '_ {
        self.labels(self.out_len..self.degree)
    }

    /// The labels of the edges at `edges` (positions in
    /// [`AdjacencyRecord::all_neighbors`]); none when unlabelled.
    fn labels(&self, edges: Range<usize>) -> impl ExactSizeIterator<Item = EdgeLabelId> + '_ {
        let edges = if self.labeled { edges } else { 0..0 };
        edges.map(|i| {
            let slot = self.slab[self.degree + i / 2].raw();
            EdgeLabelId::new((slot >> (16 * (i % 2))) as u16)
        })
    }

    /// How many edge labels the record carries: one per edge, or none.
    fn label_count(&self) -> usize {
        if self.labeled {
            self.degree
        } else {
            0
        }
    }

    /// Bi-directed degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// What the record stands for in a cache: the size of a fixed-width
    /// layout of the decoded record — a flags byte, two `u32` counts, four
    /// bytes per id, two per edge label and two for a node label. Caches
    /// are charged this, not the encoded length, so a cache of N bytes
    /// holds the same records however compactly they travel.
    pub fn resident_len(&self) -> usize {
        9 + 4 * self.degree + 2 * self.label_count() + if self.node_label.is_some() { 2 } else { 0 }
    }

    /// Encoded size in bytes (matches `encode().len()` exactly).
    pub fn encoded_len(&self) -> usize {
        1 + if self.node_label.is_some() { 2 } else { 0 }
            + varint_len(self.out_len as u64)
            + varint_len(self.inc().len() as u64)
            + list_len(self.out())
            + list_len(self.inc())
            + 2 * self.label_count()
    }

    /// Encodes to the wire format into one buffer of exactly
    /// [`AdjacencyRecord::encoded_len`] bytes.
    pub fn encode(&self) -> Bytes {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        let mut flags = 0u8;
        if self.labeled {
            flags |= FLAG_EDGE_LABELS;
        }
        if self.node_label.is_some() {
            flags |= FLAG_NODE_LABEL;
        }
        buf.push(flags);
        if let Some(l) = self.node_label {
            buf.extend_from_slice(&l.0.to_le_bytes());
        }
        put_varint(&mut buf, self.out_len as u64);
        put_varint(&mut buf, self.inc().len() as u64);
        put_list(&mut buf, self.out());
        put_list(&mut buf, self.inc());
        for l in self.labels(0..self.degree) {
            buf.extend_from_slice(&l.0.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), len);
        Bytes::from(buf)
    }

    /// Decodes from the wire format. The header is checked against the
    /// input's length first — every id costs at least one byte and every
    /// edge label two, so nothing is allocated for a record the bytes
    /// cannot hold — and each list is then summed up from its steps
    /// straight into the record's id buffer.
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
        let out_count = take_varint_u32(&mut rest)?;
        let in_count = take_varint_u32(&mut rest)?;
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
        let label_bytes = if labeled { 2 * total } else { 0 };
        if (rest.len() as u64) < total + label_bytes {
            return Err(short(total + label_bytes, rest.len()));
        }
        // The input holds a byte per id, so the counts fit `usize`.
        let degree = total as usize;
        let slots = if labeled { degree.div_ceil(2) } else { 0 };
        let mut slab = Vec::with_capacity(degree + slots.max(SLACK));
        take_lists(
            &mut rest,
            [out_count as usize, in_count as usize],
            &mut slab,
        )?;
        exact_len(label_bytes, rest.len())?;
        // Two little-endian labels are one little-endian slot, low first.
        slab.extend(rest.chunks(4).map(|c| {
            let mut slot = [0; 4];
            slot[..c.len()].copy_from_slice(c);
            NodeId::new(u32::from_le_bytes(slot))
        }));
        Ok(Self {
            slab,
            degree,
            out_len: out_count as usize,
            labeled,
            node_label,
        })
    }
}

/// The byte that announces an escaped step.
const ESCAPE: u8 = 0xFF;

/// A step from one id to the next, as the escape carries it: zigzag, so
/// small steps of either sign take short varints.
fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// The step from `prev` to `next`, or `None` when it takes one byte.
fn escaped_step(prev: NodeId, next: NodeId) -> Option<u64> {
    let step = i64::from(next.raw()) - i64::from(prev.raw());
    (!(0..i64::from(ESCAPE)).contains(&step)).then(|| zigzag(step))
}

/// Bytes [`put_list`] writes for `ids`.
fn list_len(ids: &[NodeId]) -> usize {
    let Some(first) = ids.first() else {
        return 0;
    };
    varint_len(u64::from(first.raw()))
        + ids
            .windows(2)
            .map(|w| escaped_step(w[0], w[1]).map_or(1, |z| 1 + varint_len(z)))
            .sum::<usize>()
}

/// Appends one neighbour list: its first id, then a step per later id.
fn put_list(buf: &mut Vec<u8>, ids: &[NodeId]) {
    let Some(first) = ids.first() else {
        return;
    };
    put_varint(buf, u64::from(first.raw()));
    for w in ids.windows(2) {
        match escaped_step(w[0], w[1]) {
            None => buf.push((w[1].raw() - w[0].raw()) as u8),
            Some(z) => {
                buf.push(ESCAPE);
                put_varint(buf, z);
            }
        }
    }
}

/// Steps a block holds: sixteen bytes, one SSE2 vector.
const BLOCK: usize = 16;

/// Room a decoded record's id buffer keeps past its last id: a block's
/// ids are stored four at a time, so its last store may run three past.
const SLACK: usize = 3;

/// Reads the out-list and then the in-list, of `counts` ids, off the front
/// of `data` onto `ids`: for each, its first id, then its steps. While no
/// run of one-byte steps can pass `u32::MAX` the steps are read sixteen at
/// a time (see [`sse2::take_list`]); near the top of the range, and off
/// x86-64, one at a time.
fn take_lists(data: &mut &[u8], counts: [usize; 2], ids: &mut Vec<NodeId>) -> Result<()> {
    #[cfg(target_arch = "x86_64")]
    let tail = sse2::tail(data);
    for count in counts {
        if count == 0 {
            continue;
        }
        let first = take_varint_u32(data)?;
        let steps = count - 1;
        #[cfg(target_arch = "x86_64")]
        if sse2::climbs_in_range(first, steps) {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { sse2::take_list(&tail, data, first, steps, ids) }?;
            continue;
        }
        ids.push(NodeId::new(first));
        take_steps(data, steps, ids, first)?;
    }
    Ok(())
}

/// Reads `steps` steps off the front of `data`, one at a time, and
/// appends the ids they reach from `prev`.
fn take_steps(data: &mut &[u8], steps: usize, ids: &mut Vec<NodeId>, mut prev: u32) -> Result<()> {
    for left in (1..=steps).rev() {
        let Some((&b, tail)) = data.split_first() else {
            return Err(short(left as u64, 0));
        };
        *data = tail;
        prev = if b == ESCAPE {
            take_escaped(data, prev)?
        } else {
            prev.checked_add(u32::from(b))
                .ok_or_else(|| malformed(format!("step {b} from {prev} passes u32::MAX")))?
        };
        ids.push(NodeId::new(prev));
    }
    Ok(())
}

/// Reads the zigzag varint behind an escape byte and returns the id its
/// step reaches from `prev`.
fn take_escaped(data: &mut &[u8], prev: u32) -> Result<u32> {
    let step = unzigzag(take_varint(data)?);
    if (0..i64::from(ESCAPE)).contains(&step) {
        return Err(malformed(format!("escaped step {step} fits a byte")));
    }
    i64::from(prev)
        .checked_add(step)
        .and_then(|id| u32::try_from(id).ok())
        .ok_or_else(|| malformed(format!("step {step} from {prev} leaves u32")))
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    use super::{short, take_escaped, take_steps};
    use super::{BLOCK, ESCAPE, SLACK};
    use crate::ids::NodeId;
    use crate::Result;

    /// Whether `steps` one-byte steps from `prev` stay within `u32`.
    pub(super) fn climbs_in_range(prev: u32, steps: usize) -> bool {
        u64::from(prev) + u64::from(ESCAPE - 1) * steps as u64 <= u64::from(u32::MAX)
    }

    /// The last block of `data` and a block of zeros after it. A block
    /// that would read past the end of `data` reads its bytes from here
    /// instead, at the same distance from the end, so which of the two a
    /// block is loaded from is a select, not a branch the predictor has
    /// to guess once per record.
    pub(super) fn tail(data: &[u8]) -> [u8; 2 * BLOCK] {
        let mut tail = [0u8; 2 * BLOCK];
        match data.last_chunk::<BLOCK>() {
            Some(last) => tail[..BLOCK].copy_from_slice(last),
            None => tail[BLOCK - data.len()..BLOCK].copy_from_slice(data),
        }
        tail
    }

    /// Running sums of eight `u16` lanes: three shift-and-add rounds.
    #[target_feature(enable = "sse2")]
    fn prefix(v: __m128i) -> __m128i {
        let v = _mm_add_epi16(v, _mm_slli_si128::<2>(v));
        let v = _mm_add_epi16(v, _mm_slli_si128::<4>(v));
        _mm_add_epi16(v, _mm_slli_si128::<8>(v))
    }

    /// Sixteen steps summed from the id in every lane of `base`: widened to
    /// `u16` lanes (eight steps of at most 255 fit one), prefix-summed,
    /// widened to `u32` and offset by `base`.
    #[target_feature(enable = "sse2")]
    fn sums(v: __m128i, base: __m128i) -> [__m128i; 4] {
        let zero = _mm_setzero_si128();
        let lo = prefix(_mm_unpacklo_epi8(v, zero));
        let hi = prefix(_mm_unpackhi_epi8(v, zero));
        let a1 = _mm_add_epi32(base, _mm_unpackhi_epi16(lo, zero));
        let mid = _mm_shuffle_epi32::<0xFF>(a1);
        [
            _mm_add_epi32(base, _mm_unpacklo_epi16(lo, zero)),
            a1,
            _mm_add_epi32(mid, _mm_unpacklo_epi16(hi, zero)),
            _mm_add_epi32(mid, _mm_unpackhi_epi16(hi, zero)),
        ]
    }

    /// A bit per byte of `v` that is an [`ESCAPE`].
    #[target_feature(enable = "sse2")]
    fn escapes(v: __m128i) -> u32 {
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(ESCAPE as i8))) as u32
    }

    /// Appends the list that starts at `first` and then
    /// [`super::take_steps`] sixteen at a time, for a list whose one-byte
    /// steps cannot pass `u32::MAX`. One compare finds a block's first
    /// escape; the block is summed whole ([`sums`]), with the running id
    /// held in a register from block to block, and the ids before the
    /// escape are kept. Whole blocks are stored as they are; the list's
    /// last, partial block stores only the vectors that hold its ids, so
    /// the buffer needs [`SLACK`] ids of room, not fifteen.
    #[target_feature(enable = "sse2")]
    pub(super) fn take_list(
        tail: &[u8; 2 * BLOCK],
        data: &mut &[u8],
        first: u32,
        steps: usize,
        ids: &mut Vec<NodeId>,
    ) -> Result<()> {
        // An escape reads the id before it back, which may be this one.
        ids.push(NodeId::new(first));
        ids.reserve(steps + SLACK);
        let start = ids.len();
        // SAFETY: `start` is the vector's length, within its allocation.
        let out = unsafe { ids.as_mut_ptr().add(start) };
        let mut base = _mm_set1_epi32(first as i32);
        let mut bytes = *data;
        let mut done = 0;
        loop {
            // Whole blocks, while sixteen steps are to come and sixteen
            // bytes are there to read.
            let mut found = 0;
            while let (true, Some(block)) = (steps - done >= BLOCK, bytes.first_chunk::<BLOCK>()) {
                // SAFETY: `block` is sixteen readable bytes; the load is
                // unaligned.
                let v = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
                let sums = sums(v, base);
                // SAFETY: `NodeId` is a transparent `u32`, so a vector
                // holds four, and the sixteen ids past `start + done` are
                // all the list's (`steps - done >= 16`).
                unsafe {
                    let at = out.add(done).cast::<__m128i>();
                    for (k, sum) in sums.into_iter().enumerate() {
                        _mm_storeu_si128(at.add(k), sum);
                    }
                }
                found = escapes(v);
                if found != 0 {
                    break;
                }
                done += BLOCK;
                bytes = &bytes[BLOCK..];
                base = _mm_shuffle_epi32::<0xFF>(sums[3]);
            }
            if found == 0 {
                // The list's last block: fewer than sixteen steps, or the
                // input's last bytes.
                if done == steps {
                    break;
                }
                let want = (steps - done).min(BLOCK);
                let left = bytes.len();
                let have = want.min(left);
                let block = if left >= BLOCK {
                    bytes.as_ptr()
                } else {
                    tail.as_ptr().wrapping_add(BLOCK - left)
                };
                // SAFETY: sixteen bytes are readable at `block`: either
                // `bytes` holds them, or `block` is `BLOCK - left` bytes
                // into the `2 * BLOCK` of `tail`. The load is unaligned.
                // (That `tail` copies the input's end makes the bytes
                // right, not the load sound.)
                let v = unsafe { _mm_loadu_si128(block.cast()) };
                let sums = sums(v, base);
                // SAFETY: as above for the vectors that hold the block's
                // `have` ids. A vector past them lands on the block's
                // first four instead, which `sums[0]`, stored last, then
                // overwrites: the destination is an offset, not a branch.
                // As `done < steps`, no store ends more than three ids
                // past `start + steps`, within the room `reserve` left.
                unsafe {
                    let at = out.add(done).cast::<__m128i>();
                    let last = have.saturating_sub(1) / 4;
                    for k in (0..4).rev() {
                        _mm_storeu_si128(at.add(k.min(last)), sums[k]);
                    }
                }
                found = escapes(v) & ((1 << have) - 1);
                if found == 0 {
                    if have < want {
                        return Err(short((steps - done) as u64, have));
                    }
                    done += have;
                    bytes = &bytes[have..];
                    break;
                }
            }
            let plain = found.trailing_zeros() as usize;
            // SAFETY: the id before the escape is initialised: the
            // stores above wrote it, or an earlier block or escape did, or
            // it is `first`, pushed just before `start`.
            let mut last = unsafe { out.add(done + plain).sub(1).read() }.raw();
            done += plain;
            bytes = &bytes[plain + 1..];
            // A copy, so that `bytes` can stay in a register.
            let mut rest = bytes;
            last = take_escaped(&mut rest, last)?;
            bytes = rest;
            // SAFETY: `done < steps`, within the reserved room.
            unsafe { out.add(done).write(NodeId::new(last)) };
            done += 1;
            if !climbs_in_range(last, steps - done) {
                // SAFETY: the stores wrote every id before `done`.
                unsafe { ids.set_len(start + done) };
                *data = bytes;
                return take_steps(data, steps - done, ids, last);
            }
            base = _mm_set1_epi32(last as i32);
        }
        // SAFETY: the stores wrote every id before `done`.
        unsafe { ids.set_len(start + done) };
        *data = bytes;
        Ok(())
    }
}

/// Bytes [`put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    1 + (63 - (v | 1).leading_zeros() as usize) / 7
}

/// Appends `v` as an LEB128 varint: seven bits a byte, low group first,
/// the high bit set on every byte but the last. The bytes go to `buf` in
/// one slice of [`varint_len`] bytes, so a [`ByteCount`] counts them
/// without the loop.
#[inline]
pub fn put_varint<B: BufMut>(buf: &mut B, v: u64) {
    let len = varint_len(v);
    let mut bytes = [0u8; 10];
    for (i, b) in bytes[..len].iter_mut().enumerate() {
        *b = (v >> (7 * i)) as u8 | 0x80;
    }
    bytes[len - 1] &= 0x7F;
    buf.put_slice(&bytes[..len]);
}

/// Reads one LEB128 `u64` off the front of `data`, in its shortest form
/// only: a zero final byte after the first (a non-shortest encoding), a
/// tenth byte carrying more than bit 63, and an eleventh byte are all
/// refused, so the value has exactly one encoding.
///
/// # Errors
///
/// Returns [`GraphError::Codec`] on a cut, non-shortest or overlong
/// varint; `data` is then left as it was.
#[inline(always)]
pub fn take_varint(data: &mut &[u8]) -> Result<u64> {
    // Counts, ids and escaped steps take one to three bytes: those forms
    // are read inline, and anything else, errors included, by the loop.
    match **data {
        [b0, ref tail @ ..] if b0 < 0x80 => {
            *data = tail;
            Ok(u64::from(b0))
        }
        [b0, b1, ref tail @ ..] if b1.wrapping_sub(1) < 0x7F => {
            *data = tail;
            Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7)
        }
        [b0, b1, b2, ref tail @ ..] if b1 >= 0x80 && b2.wrapping_sub(1) < 0x7F => {
            *data = tail;
            Ok(u64::from(b0 & 0x7F) | u64::from(b1 & 0x7F) << 7 | u64::from(b2) << 14)
        }
        _ => take_long_varint(data),
    }
}

/// [`take_varint`] past its inline forms.
fn take_long_varint(data: &mut &[u8]) -> Result<u64> {
    let bytes = *data;
    let mut v = 0u64;
    for (i, &b) in bytes.iter().take(10).enumerate() {
        if b & 0x80 == 0 {
            if i > 0 && b == 0 {
                return Err(malformed(format!("{}-byte varint for {v}", i + 1)));
            }
            if i == 9 && b > 1 {
                return Err(malformed("varint past u64".into()));
            }
            *data = &bytes[i + 1..];
            return Ok(v | u64::from(b) << (7 * i));
        }
        v |= u64::from(b & 0x7F) << (7 * i);
    }
    Err(malformed(if bytes.len() < 10 {
        format!("varint cut after {} bytes", bytes.len())
    } else {
        "varint longer than 10 bytes".into()
    }))
}

/// [`take_varint`] for a `u32` field: a value past `u32::MAX` is refused.
///
/// # Errors
///
/// As [`take_varint`], and on a value past `u32::MAX`.
#[inline(always)]
pub fn take_varint_u32(data: &mut &[u8]) -> Result<u32> {
    let v = take_varint(data)?;
    u32::try_from(v).map_err(|_| malformed(format!("varint {v} past u32")))
}

/// A [`BufMut`] that keeps nothing and counts the bytes it is given. A
/// wire type's encoder run into one measures its own output, so its length
/// is counted from the one function that writes its bytes.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteCount(pub usize);

impl BufMut for ByteCount {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// What a [`Reader`] answers: the value read, or why the bytes are refused.
type Read<T> = std::result::Result<T, String>;

/// A checked cursor over received bytes, through which every wire decoder
/// reads: each read is bounded by the bytes at hand and answers what was
/// missing, never a panic. A decoder bounds a claimed count with
/// [`Reader::need`] (or [`Reader::list`]) before it sizes anything from it.
#[derive(Debug, Clone)]
pub struct Reader {
    data: Bytes,
}

impl Reader {
    /// A reader over `data`, from its first byte.
    #[inline]
    pub fn new(data: Bytes) -> Self {
        Self { data }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Whether any bytes are left.
    #[inline]
    pub fn has_remaining(&self) -> bool {
        !self.data.is_empty()
    }

    /// Whether `n` more bytes are at hand.
    ///
    /// # Errors
    ///
    /// A description of the shortfall when fewer are.
    #[inline]
    pub fn need(&self, n: usize) -> Read<()> {
        match self.data.len() {
            have if have < n => Err(cut(n, have)),
            _ => Ok(()),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Read<[u8; N]> {
        let array = *self
            .data
            .first_chunk::<N>()
            .ok_or_else(|| cut(N, self.data.len()))?;
        self.data.advance(N);
        Ok(array)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// On a cut input, as every read below.
    #[inline]
    pub fn u8(&mut self) -> Read<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Read<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Read<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Read<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Read<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// Takes the next `n` bytes as a view sharing the input's allocation.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Read<Bytes> {
        self.need(n)?;
        let taken = self.data.slice(..n);
        self.data.advance(n);
        Ok(taken)
    }

    /// Reads `count` elements through `read`, each of at least `min_len`
    /// bytes. The count is bounded by the bytes at hand first, so a
    /// hostile one sizes nothing.
    #[inline]
    pub fn list<T>(
        &mut self,
        count: usize,
        min_len: usize,
        mut read: impl FnMut(&mut Self) -> Read<T>,
    ) -> Read<Vec<T>> {
        self.need(count.saturating_mul(min_len))?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Reads one varint through [`take_varint`], as strictly.
    #[inline]
    pub fn varint(&mut self) -> Read<u64> {
        self.varint_with(take_varint)
    }

    /// Reads one varint through [`take_varint_u32`], as strictly.
    #[inline]
    pub fn varint_u32(&mut self) -> Read<u32> {
        self.varint_with(take_varint_u32)
    }

    #[inline]
    fn varint_with<T>(&mut self, take: impl FnOnce(&mut &[u8]) -> Result<T>) -> Read<T> {
        let mut rest: &[u8] = &self.data;
        let v = take(&mut rest).map_err(|e| match e {
            GraphError::Codec(msg) => msg,
            other => other.to_string(),
        })?;
        self.data.advance(self.data.len() - rest.len());
        Ok(v)
    }
}

/// A [`Reader`]'s answer to a read past the bytes at hand.
#[cold]
fn cut(need: usize, have: usize) -> String {
    format!("need {need} bytes, have {have}")
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
        assert_eq!(back.out_labels().collect::<Vec<_>>(), [EdgeLabelId::new(4)]);
        assert_eq!(
            back.in_labels().collect::<Vec<_>>(),
            [EdgeLabelId::new(5), EdgeLabelId::new(6)]
        );
    }

    #[test]
    fn worked_example_encodes_to_eight_bytes() {
        let rec = AdjacencyRecord::new([n(5), n(7)], [n(9), n(3)]);
        let bytes = rec.encode();
        assert_eq!(
            &bytes[..],
            &[0x00, 0x02, 0x02, 0x05, 0x02, 0x09, 0xFF, 0x0B]
        );
        assert_eq!(rec.encoded_len(), 8);
        assert_eq!(rec.resident_len(), 25);
        assert_eq!(AdjacencyRecord::decode(bytes).unwrap(), rec);
    }

    #[test]
    fn edge_labels_pack_two_to_a_slot_behind_the_ids() {
        let labels = [0xFFFF, 1, 0x8001].map(EdgeLabelId::new);
        let rec =
            AdjacencyRecord::new([n(1), n(2)], [n(3)]).with_edge_labels(&labels[..2], &labels[2..]);
        assert_eq!(rec.slab.len(), 3 + 2, "three ids, then two slots");
        assert_eq!(rec.slab[3..], [n(0x0001_FFFF), n(0x8001)]);
        assert_eq!(rec.all_neighbors(), [n(1), n(2), n(3)]);
        assert_eq!(rec.out_labels().collect::<Vec<_>>(), labels[..2]);
        assert_eq!(rec.in_labels().collect::<Vec<_>>(), labels[2..]);
        assert_eq!(rec.resident_len(), 9 + 4 * 3 + 2 * 3);
        let back = AdjacencyRecord::decode(rec.encode()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            back.slab.capacity(),
            3 + SLACK,
            "one allocation, sized once"
        );
        // Relabelling replaces the labels; unlabelling drops them.
        let relabelled = rec.clone().with_edge_labels(&labels[1..], &labels[..1]);
        assert_eq!(relabelled.out_labels().collect::<Vec<_>>(), labels[1..]);
        assert_eq!(relabelled.slab.len(), 5);
        let bare = rec.with_edge_labels(&[], &[]);
        assert_eq!(bare, AdjacencyRecord::new([n(1), n(2)], [n(3)]));
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
        // The third runs past a block and escapes in both lists.
        let long = AdjacencyRecord::new((0..40).map(n), [n(5), n(1_000), n(1_001)]);
        for rec in [AdjacencyRecord::new([n(1), n(2)], []), full_record(), long] {
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
        assert_eq!(rec.out_labels().len(), 0);
        assert_eq!(rec.in_labels().len(), 0);
        assert!(AdjacencyRecord::from_graph(&g, n(9)).is_err());
    }

    #[test]
    fn all_neighbors_order() {
        let rec = AdjacencyRecord::new([n(5)], [n(7), n(8)]);
        assert_eq!(rec.all_neighbors(), &[n(5), n(7), n(8)]);
    }

    /// The records behind `tests/fixtures/adjacency_records_v3.hex`, which
    /// holds what the gap encoder wrote for them (one hex line each, same
    /// order): 24 pseudo-random records — labelled, node-labelled, empty
    /// lists, ids near `u32::MAX` — then four hand-picked ones from the
    /// frame-of-reference fixture before it, then one per gap class (see
    /// [`fixture_records_cover_every_gap_class`]).
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
        // The widest one-byte step, 254, and the narrowest escaped one.
        records.push(AdjacencyRecord::new([n(10), n(264), n(519)], []));
        // A descending step, then a duplicate.
        records.push(AdjacencyRecord::new([n(7)], [n(500), n(400), n(400)]));
        // Both ends of the id range in one list, each way round.
        records.push(AdjacencyRecord::new(
            [n(0), n(u32::MAX)],
            [n(u32::MAX), n(0)],
        ));
        // A first id that takes all five varint bytes, labelled.
        records.push(
            AdjacencyRecord::new([n(1 << 28), n(1 << 28)], []).with_edge_labels(&[l(4), l(5)], &[]),
        );
        records
    }

    /// Every kind of step the layout distinguishes appears in the fixture:
    /// the widest one-byte step (254), the narrowest escaped one (255), a
    /// descending step, a duplicate, a list holding both 0 and
    /// `u32::MAX`, and a first id that takes five bytes.
    #[test]
    fn fixture_records_cover_every_gap_class() {
        let records = fixture_records();
        let lists: Vec<&[NodeId]> = records.iter().flat_map(|r| [r.out(), r.inc()]).collect();
        let steps: Vec<i64> = lists
            .iter()
            .flat_map(|l| l.windows(2))
            .map(|w| i64::from(w[1].raw()) - i64::from(w[0].raw()))
            .collect();
        for step in [254, 255, 0] {
            assert!(steps.contains(&step), "no step of {step}");
        }
        assert!(steps.iter().any(|&s| s < 0), "no descending step");
        assert!(
            lists
                .iter()
                .any(|l| l.contains(&n(0)) && l.contains(&n(u32::MAX))),
            "no list spans the id range"
        );
        assert!(
            lists.iter().any(|l| l
                .first()
                .is_some_and(|v| varint_len(u64::from(v.raw())) == 5)),
            "no five-byte first id"
        );
    }

    #[test]
    fn stored_values_round_trip_byte_for_byte() {
        let fixture: Vec<Vec<u8>> = include_str!("../tests/fixtures/adjacency_records_v3.hex")
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

    /// `ids` as a walk: each entry either steps from the id before by a
    /// few hundred at most (one byte, or just past it) or jumps anywhere
    /// (an escape of either sign).
    #[test]
    fn a_byte_count_counts_what_an_encoder_writes() {
        for v in [0, 127, 128, 1 << 35, u64::MAX] {
            let (mut buf, mut count) = (Vec::new(), ByteCount::default());
            put_varint(&mut buf, v);
            put_varint(&mut count, v);
            assert_eq!(count.0, buf.len());
            assert_eq!(buf.len(), varint_len(v));
        }
    }

    #[test]
    fn the_reader_refuses_what_the_bytes_cannot_hold() {
        let mut buf = Vec::new();
        buf.put_u16_le(0xBEEF);
        put_varint(&mut buf, 300);
        buf.put_u64_le(7);
        buf.extend_from_slice(b"xyz");
        let mut r = Reader::new(Bytes::from(buf));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.varint(), Ok(300));
        assert_eq!(r.u64(), Ok(7));
        assert!(r.u32().is_err(), "three bytes left");
        assert_eq!(r.remaining(), 3, "a refused read consumes nothing");
        assert!(r.list(u32::MAX as usize, 1, Reader::u8).is_err());
        assert_eq!(&r.bytes(3).unwrap()[..], b"xyz");
        assert!(!r.has_remaining());
        assert!(r.u8().is_err());
    }

    fn walk(start: u32, moves: &[(u32, bool, u32)]) -> Vec<NodeId> {
        let mut id = start;
        moves
            .iter()
            .map(|&(step, jump, to)| {
                id = if jump { to } else { id.saturating_add(step) };
                n(id)
            })
            .collect()
    }

    proptest::proptest! {
        /// The one-at-a-time path — every list off x86-64, and lists near
        /// the top of the id range — reads what the decoder's block path
        /// reads, escapes, runs longer than a block and all.
        #[test]
        fn prop_steps_one_at_a_time_match_the_decoder(
            out in proptest::collection::vec((0u32..300, proptest::bool::ANY, 0u32..=u32::MAX), 0..80),
            inc in proptest::collection::vec((0u32..300, proptest::bool::ANY, 0u32..=u32::MAX), 0..80),
            start in 0u32..=u32::MAX,
            shift in 0u32..32,
        ) {
            let few = |m: &[(u32, bool, u32)]| -> Vec<(u32, bool, u32)> {
                // Jump rarely, so that most runs are longer than a block.
                m.iter().map(|&(s, j, t)| (s, j && s % 8 == 0, t)).collect()
            };
            let rec = AdjacencyRecord::new(walk(start >> shift, &few(&out)), walk(start >> shift, &few(&inc)));
            let bytes = rec.encode();
            let decoded = AdjacencyRecord::decode(bytes.clone()).unwrap();
            proptest::prop_assert_eq!(&decoded, &rec);
            let header = 1 + varint_len(out.len() as u64) + varint_len(inc.len() as u64);
            let mut data = &bytes[header..];
            let mut ids = Vec::new();
            for count in [out.len(), inc.len()] {
                if count > 0 {
                    let first = take_varint_u32(&mut data).unwrap();
                    ids.push(NodeId::new(first));
                    take_steps(&mut data, count - 1, &mut ids, first).unwrap();
                }
            }
            proptest::prop_assert!(data.is_empty());
            proptest::prop_assert_eq!(&ids[..], decoded.all_neighbors());
        }

        #[test]
        fn prop_codec_round_trip(
            out in proptest::collection::vec(0u32..=u32::MAX, 0..50),
            inc in proptest::collection::vec(0u32..=u32::MAX, 0..50),
            shift in 0u32..32,
            labeled in proptest::bool::ANY,
            node_label in proptest::option::of(0u16..100),
        ) {
            // Shifting the ids right narrows their steps, so one-byte and
            // escaped steps of every varint length get exercised.
            let (out, inc): (Vec<u32>, Vec<u32>) = (
                out.iter().map(|&v| v >> shift).collect(),
                inc.iter().map(|&v| v >> shift).collect(),
            );
            let mut rec = AdjacencyRecord::new(out.iter().map(|&v| n(v)), inc.iter().map(|&v| n(v)));
            let out_labels: Vec<_> = out.iter().map(|&v| EdgeLabelId::new((v % 7) as u16)).collect();
            let in_labels: Vec<_> = inc.iter().map(|&v| EdgeLabelId::new(v as u16)).collect();
            if labeled {
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
            if labeled {
                proptest::prop_assert_eq!(back.out_labels().collect::<Vec<_>>(), out_labels);
                proptest::prop_assert_eq!(back.in_labels().collect::<Vec<_>>(), in_labels);
            }
            proptest::prop_assert_eq!(back, rec);
        }
    }
}
