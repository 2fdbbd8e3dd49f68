//! Log-structured in-memory key-value store (one per storage server).
//!
//! RAMCloud keeps all values in an append-only log divided into segments,
//! with a hash index from key to log location; overwrites and deletes only
//! mark bytes dead, and a cleaner later rewrites the surviving entries of
//! dirty segments to the head, reclaiming memory. That design is what gives
//! RAMCloud its "high memory utilization" (§4.1). This module reproduces it:
//!
//! * entries are framed as `[u64 key][u32 len][len bytes]`;
//! * sealed segments are frozen [`Bytes`] so `get` is zero-copy, while a
//!   value in the open head segment is copied out; a bulk load therefore
//!   ends with [`LogStore::seal`], and the next put opens a fresh head;
//! * the cleaner compacts any segment whose dead fraction exceeds a
//!   threshold.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use grouting_graph::IdBuildHasher;

use crate::{Result, StorageError};

/// Default segment size (1 MiB, small enough to exercise cleaning in tests).
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

const HEADER_BYTES: usize = 8 + 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Location {
    segment: u32,
    offset: u32,
    len: u32,
}

#[derive(Debug)]
enum Segment {
    /// Still being appended to.
    Open(BytesMut),
    /// Sealed and immutable; `get` hands out cheap slices.
    Sealed(Bytes),
}

impl Segment {
    fn len(&self) -> usize {
        match self {
            Segment::Open(b) => b.len(),
            Segment::Sealed(b) => b.len(),
        }
    }

    fn slice(&self, offset: usize, len: usize) -> Bytes {
        match self {
            Segment::Open(b) => Bytes::copy_from_slice(&b[offset..offset + len]),
            Segment::Sealed(b) => b.slice(offset..offset + len),
        }
    }
}

/// Append-only log store with hash index and segment cleaning.
#[derive(Debug)]
pub struct LogStore {
    segments: Vec<Segment>,
    /// Keys are node ids the tier widened to `u64`: the record path's
    /// integer hasher (see [`grouting_graph::hash`]), never iterated.
    index: HashMap<u64, Location, IdBuildHasher>,
    /// Live payload+header bytes per segment (for cleaning decisions).
    live: Vec<usize>,
    segment_bytes: usize,
    /// Dead fraction above which a sealed segment is compacted.
    clean_threshold: f64,
    puts: u64,
    cleanings: u64,
}

impl Default for LogStore {
    fn default() -> Self {
        Self::new(DEFAULT_SEGMENT_BYTES)
    }
}

impl LogStore {
    /// Creates a store with the given segment size.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` cannot hold at least one small entry.
    pub fn new(segment_bytes: usize) -> Self {
        assert!(segment_bytes > HEADER_BYTES, "segment too small");
        Self {
            segments: vec![Segment::Open(BytesMut::with_capacity(segment_bytes))],
            index: HashMap::default(),
            live: vec![0],
            segment_bytes,
            clean_threshold: 0.5,
            puts: 0,
            cleanings: 0,
        }
    }

    fn head(&self) -> usize {
        self.segments.len() - 1
    }

    /// Appends an entry to the head segment, rolling if full. Returns its
    /// location. The caller maintains index/live accounting.
    fn append(&mut self, key: u64, value: &[u8]) -> Result<Location> {
        let entry_len = HEADER_BYTES + value.len();
        if entry_len > self.segment_bytes {
            return Err(StorageError::ValueTooLarge {
                key,
                len: value.len(),
                max: self.segment_bytes - HEADER_BYTES,
            });
        }
        let head = self.head();
        let needs_roll = match &self.segments[head] {
            Segment::Open(b) => b.len() + entry_len > self.segment_bytes,
            Segment::Sealed(_) => true,
        };
        if needs_roll {
            // Seal the current head and open a fresh one.
            self.seal();
            self.segments
                .push(Segment::Open(BytesMut::with_capacity(self.segment_bytes)));
            self.live.push(0);
        }
        let head = self.head();
        let Segment::Open(buf) = &mut self.segments[head] else {
            unreachable!("head segment is always open after roll");
        };
        let offset = buf.len() as u32;
        buf.put_u64_le(key);
        buf.put_u32_le(value.len() as u32);
        buf.put_slice(value);
        Ok(Location {
            segment: head as u32,
            offset,
            len: value.len() as u32,
        })
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ValueTooLarge`] for values beyond one segment.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        let loc = self.append(key, value)?;
        let entry_len = HEADER_BYTES + value.len();
        if let Some(old) = self.index.insert(key, loc) {
            self.live[old.segment as usize] -= HEADER_BYTES + old.len as usize;
        }
        self.live[loc.segment as usize] += entry_len;
        self.puts += 1;
        self.maybe_clean();
        Ok(())
    }

    /// Seals the head segment, so that every value stored so far is read
    /// as a zero-copy slice: a value in the open segment is copied out on
    /// each `get`. The next put rolls to a fresh open segment, as it does
    /// when a segment fills. Sealing an empty head, or a sealed one, does
    /// nothing.
    pub fn seal(&mut self) {
        let head = self.head();
        if let Segment::Open(b) = &mut self.segments[head] {
            if !b.is_empty() {
                let frozen = std::mem::take(b).freeze();
                self.segments[head] = Segment::Sealed(frozen);
            }
        }
    }

    /// Fetches the current value of `key`.
    pub fn get(&self, key: u64) -> Option<Bytes> {
        let loc = self.index.get(&key)?;
        let seg = &self.segments[loc.segment as usize];
        Some(seg.slice(loc.offset as usize + HEADER_BYTES, loc.len as usize))
    }

    /// Removes `key`, returning whether it was present.
    pub fn delete(&mut self, key: u64) -> bool {
        match self.index.remove(&key) {
            Some(old) => {
                self.live[old.segment as usize] -= HEADER_BYTES + old.len as usize;
                self.maybe_clean();
                true
            }
            None => false,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total bytes held by all segments (live + dead).
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Bytes referenced by the index (live entries only).
    pub fn live_bytes(&self) -> usize {
        self.live.iter().sum()
    }

    /// Memory utilisation: live / total (1.0 for an empty store).
    pub fn utilization(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            1.0
        } else {
            self.live_bytes() as f64 / total as f64
        }
    }

    /// How many cleaning passes have run.
    pub fn cleanings(&self) -> u64 {
        self.cleanings
    }

    /// Compacts sealed segments whose dead fraction exceeds the threshold by
    /// re-appending their live entries at the head.
    fn maybe_clean(&mut self) {
        let candidates: Vec<usize> = (0..self.segments.len() - 1)
            .filter(|&s| {
                let total = self.segments[s].len();
                if total == 0 {
                    return false;
                }
                matches!(self.segments[s], Segment::Sealed(_))
                    && (self.live[s] as f64 / total as f64) < (1.0 - self.clean_threshold)
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        for s in candidates {
            self.clean_segment(s);
        }
        self.cleanings += 1;
    }

    fn clean_segment(&mut self, s: usize) {
        let Segment::Sealed(data) = &self.segments[s] else {
            return;
        };
        // Walk the segment, collecting entries still referenced by the index.
        let data = data.clone();
        let mut survivors: Vec<(u64, Bytes)> = Vec::new();
        let mut cursor = 0usize;
        let mut view = data.clone();
        while view.remaining() >= HEADER_BYTES {
            let key = view.get_u64_le();
            let len = view.get_u32_le() as usize;
            if view.remaining() < len {
                break;
            }
            let value_off = cursor + HEADER_BYTES;
            let live_here = self
                .index
                .get(&key)
                .is_some_and(|loc| loc.segment as usize == s && loc.offset as usize == cursor);
            if live_here {
                survivors.push((key, data.slice(value_off..value_off + len)));
            }
            view.advance(len);
            cursor = value_off + len;
        }
        // Replace the segment with an empty sealed one, then re-append.
        self.segments[s] = Segment::Sealed(Bytes::new());
        self.live[s] = 0;
        for (key, value) in survivors {
            let loc = self.append(key, &value).expect("value fit before");
            self.live[loc.segment as usize] += HEADER_BYTES + value.len();
            self.index.insert(key, loc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = LogStore::default();
        s.put(1, b"hello").unwrap();
        s.put(2, b"world").unwrap();
        assert_eq!(s.get(1).unwrap().as_ref(), b"hello");
        assert_eq!(s.get(2).unwrap().as_ref(), b"world");
        assert_eq!(s.get(3), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut s = LogStore::default();
        s.put(1, b"v1").unwrap();
        s.put(1, b"version-two").unwrap();
        assert_eq!(s.get(1).unwrap().as_ref(), b"version-two");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut s = LogStore::default();
        s.put(1, b"x").unwrap();
        assert!(s.delete(1));
        assert!(!s.delete(1));
        assert_eq!(s.get(1), None);
        assert!(s.is_empty());
    }

    #[test]
    fn rolls_segments() {
        let mut s = LogStore::new(64);
        for i in 0..32u64 {
            s.put(i, &[0u8; 20]).unwrap();
        }
        assert!(s.segments.len() > 1);
        for i in 0..32u64 {
            assert_eq!(s.get(i).unwrap().len(), 20);
        }
    }

    #[test]
    fn rejects_oversized_value() {
        let mut s = LogStore::new(64);
        let err = s.put(9, &[0u8; 100]).unwrap_err();
        assert!(matches!(err, StorageError::ValueTooLarge { key: 9, .. }));
    }

    #[test]
    fn cleaning_reclaims_dead_bytes() {
        let mut s = LogStore::new(256);
        // Fill several segments, then overwrite everything to kill the old
        // entries.
        for round in 0..8 {
            for i in 0..16u64 {
                let v = vec![round as u8; 32];
                s.put(i, &v).unwrap();
            }
        }
        assert!(s.cleanings() > 0, "cleaner never ran");
        // Data still correct after compaction.
        for i in 0..16u64 {
            assert_eq!(s.get(i).unwrap().as_ref(), &[7u8; 32][..]);
        }
        assert!(
            s.utilization() > 0.3,
            "utilization {} too low after cleaning",
            s.utilization()
        );
    }

    /// Whether `value` is a view into `segment`'s sealed allocation.
    fn within(segment: &Segment, value: &Bytes) -> bool {
        let Segment::Sealed(data) = segment else {
            return false;
        };
        let range = data.as_ptr_range();
        range.start <= value.as_ptr() && value.as_ptr_range().end <= range.end
    }

    #[test]
    fn a_sealed_head_serves_slices_and_a_later_put_reads_back() {
        let mut s = LogStore::default();
        s.put(1, b"hello").unwrap();
        s.put(2, b"world").unwrap();
        s.seal();
        s.seal();
        assert_eq!(s.segments.len(), 1, "sealing twice rolls nothing");
        let hello = s.get(1).unwrap();
        assert!(within(&s.segments[0], &hello), "a sealed read is a slice");
        s.put(3, b"after").unwrap();
        s.put(1, b"again").unwrap();
        assert_eq!(s.segments.len(), 2, "the put rolled to a fresh segment");
        assert!(matches!(s.segments[1], Segment::Open(_)));
        assert_eq!(s.get(3).unwrap().as_ref(), b"after");
        assert_eq!(s.get(1).unwrap().as_ref(), b"again");
        assert_eq!(s.get(2).unwrap().as_ref(), b"world");
        assert_eq!(hello.as_ref(), b"hello", "an earlier view is untouched");
    }

    #[test]
    fn sealing_an_empty_store_does_nothing() {
        let mut s = LogStore::default();
        s.seal();
        s.put(1, b"x").unwrap();
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.get(1).unwrap().as_ref(), b"x");
    }

    #[test]
    fn utilization_of_fresh_store() {
        let s = LogStore::default();
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.total_bytes(), 0);
    }

    proptest::proptest! {
        /// The store behaves like a HashMap under arbitrary workloads.
        #[test]
        fn prop_matches_hashmap(ops in proptest::collection::vec(
            (0u8..3, 0u64..16, proptest::collection::vec(proptest::num::u8::ANY, 0..48)),
            1..200,
        )) {
            let mut store = LogStore::new(512);
            let mut model: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
            for (op, key, value) in ops {
                match op {
                    0 => {
                        store.put(key, &value).unwrap();
                        model.insert(key, value);
                    }
                    1 => {
                        let a = store.delete(key);
                        let b = model.remove(&key).is_some();
                        proptest::prop_assert_eq!(a, b);
                    }
                    _ => {
                        let a = store.get(key).map(|b| b.to_vec());
                        let b = model.get(&key).cloned();
                        proptest::prop_assert_eq!(a, b);
                    }
                }
                proptest::prop_assert_eq!(store.len(), model.len());
                proptest::prop_assert!(store.live_bytes() <= store.total_bytes() + 1);
            }
            // Final full read-back.
            for (k, v) in model {
                proptest::prop_assert_eq!(store.get(k).unwrap().to_vec(), v);
            }
        }
    }
}
