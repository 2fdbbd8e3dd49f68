//! Reactor and connection telemetry, sampled with relaxed atomics.
//!
//! One [`TelemetryCounters`] is shared (via `Arc`) by every reactor,
//! connection, and batch mux in a deployment; each bumps its counters
//! with relaxed ordering on the hot path (a handful of uncontended
//! atomic adds per frame — nothing the dispatch latency can see).
//! [`TelemetryCounters::snapshot`] folds the live values into a plain
//! [`ReactorStats`], which is what travels inside a
//! [`crate::TraceSnapshot`].

use bytes::BufMut;
use grouting_graph::codec::Reader;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Point-in-time reactor/connection telemetry totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Time poll loops spent doing work (decoding, dispatching,
    /// writing), in nanoseconds.
    pub busy_ns: u64,
    /// Time poll loops spent parked waiting for readiness.
    pub idle_ns: u64,
    /// Frames received across all connections.
    pub frames_in: u64,
    /// Frames sent across all connections.
    pub frames_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Frontier batches submitted through the batch mux.
    pub batches_submitted: u64,
    /// Peak outstanding batches across all mux connections.
    pub batch_depth_peak: u64,
    /// Receive buffers checked out of the buffer pools.
    pub pool_checkouts: u64,
    /// Checkouts served by reusing a reclaimed buffer.
    pub pool_reused: u64,
    /// Peak free buffers parked in the pools.
    pub pool_peak_free: u64,
}

impl ReactorStats {
    /// Fraction of observed loop time spent busy, in `[0, 1]`
    /// (0 when nothing was measured).
    pub fn busy_ratio(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// Fraction of pool checkouts served by reuse, in `[0, 1]`.
    pub fn pool_reuse_rate(&self) -> f64 {
        if self.pool_checkouts == 0 {
            0.0
        } else {
            self.pool_reused as f64 / self.pool_checkouts as f64
        }
    }

    /// Combines another deployment's totals into this one (sums, with
    /// peaks taking the max).
    pub fn merge(&mut self, other: &ReactorStats) {
        self.busy_ns += other.busy_ns;
        self.idle_ns += other.idle_ns;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.batches_submitted += other.batches_submitted;
        self.batch_depth_peak = self.batch_depth_peak.max(other.batch_depth_peak);
        self.pool_checkouts += other.pool_checkouts;
        self.pool_reused += other.pool_reused;
        self.pool_peak_free = self.pool_peak_free.max(other.pool_peak_free);
    }

    /// Appends the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        for v in [
            self.busy_ns,
            self.idle_ns,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.batches_submitted,
            self.batch_depth_peak,
            self.pool_checkouts,
            self.pool_reused,
            self.pool_peak_free,
        ] {
            buf.put_u64_le(v);
        }
    }

    /// Decodes one stats block from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input.
    pub fn decode_prefix(data: &mut Reader) -> Result<Self, String> {
        Ok(Self {
            busy_ns: data.u64()?,
            idle_ns: data.u64()?,
            frames_in: data.u64()?,
            frames_out: data.u64()?,
            bytes_in: data.u64()?,
            bytes_out: data.u64()?,
            batches_submitted: data.u64()?,
            batch_depth_peak: data.u64()?,
            pool_checkouts: data.u64()?,
            pool_reused: data.u64()?,
            pool_peak_free: data.u64()?,
        })
    }
}

/// Live telemetry counters, shared across a deployment's reactors.
///
/// All operations are relaxed: these are statistics, not
/// synchronisation. Counters only ever increase (peaks via `fetch_max`).
#[derive(Debug, Default)]
pub struct TelemetryCounters {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    batches_submitted: AtomicU64,
    batch_depth_peak: AtomicU64,
    pool_checkouts: AtomicU64,
    pool_reused: AtomicU64,
    pool_peak_free: AtomicU64,
}

impl TelemetryCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds poll-loop busy time.
    #[inline]
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Relaxed);
    }

    /// Adds poll-loop parked time.
    #[inline]
    pub fn add_idle_ns(&self, ns: u64) {
        self.idle_ns.fetch_add(ns, Relaxed);
    }

    /// Counts one received frame of `bytes` payload bytes.
    #[inline]
    pub fn frame_in(&self, bytes: u64) {
        self.frames_in.fetch_add(1, Relaxed);
        self.bytes_in.fetch_add(bytes, Relaxed);
    }

    /// Counts one sent frame of `bytes` payload bytes.
    #[inline]
    pub fn frame_out(&self, bytes: u64) {
        self.frames_out.fetch_add(1, Relaxed);
        self.bytes_out.fetch_add(bytes, Relaxed);
    }

    /// Counts one submitted frontier batch at `outstanding` total
    /// outstanding batches (the post-submit depth).
    #[inline]
    pub fn batch_submitted(&self, outstanding: u64) {
        self.batches_submitted.fetch_add(1, Relaxed);
        self.batch_depth_peak.fetch_max(outstanding, Relaxed);
    }

    /// Folds a buffer pool's monotonic counter deltas and current free
    /// count in.
    #[inline]
    pub fn pool_sample(&self, checkout_delta: u64, reused_delta: u64, free_now: u64) {
        if checkout_delta > 0 {
            self.pool_checkouts.fetch_add(checkout_delta, Relaxed);
        }
        if reused_delta > 0 {
            self.pool_reused.fetch_add(reused_delta, Relaxed);
        }
        self.pool_peak_free.fetch_max(free_now, Relaxed);
    }

    /// The current totals as a plain value.
    pub fn snapshot(&self) -> ReactorStats {
        ReactorStats {
            busy_ns: self.busy_ns.load(Relaxed),
            idle_ns: self.idle_ns.load(Relaxed),
            frames_in: self.frames_in.load(Relaxed),
            frames_out: self.frames_out.load(Relaxed),
            bytes_in: self.bytes_in.load(Relaxed),
            bytes_out: self.bytes_out.load(Relaxed),
            batches_submitted: self.batches_submitted.load(Relaxed),
            batch_depth_peak: self.batch_depth_peak.load(Relaxed),
            pool_checkouts: self.pool_checkouts.load(Relaxed),
            pool_reused: self.pool_reused.load(Relaxed),
            pool_peak_free: self.pool_peak_free.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let t = TelemetryCounters::new();
        t.add_busy_ns(100);
        t.add_idle_ns(300);
        t.frame_in(64);
        t.frame_in(16);
        t.frame_out(32);
        t.batch_submitted(2);
        t.batch_submitted(5);
        t.batch_submitted(1);
        t.pool_sample(4, 3, 2);
        let s = t.snapshot();
        assert_eq!(s.busy_ns, 100);
        assert_eq!(s.idle_ns, 300);
        assert_eq!(s.frames_in, 2);
        assert_eq!(s.bytes_in, 80);
        assert_eq!(s.frames_out, 1);
        assert_eq!(s.bytes_out, 32);
        assert_eq!(s.batches_submitted, 3);
        assert_eq!(s.batch_depth_peak, 5);
        assert_eq!(s.pool_checkouts, 4);
        assert_eq!(s.pool_reused, 3);
        assert_eq!(s.pool_peak_free, 2);
        assert!((s.busy_ratio() - 0.25).abs() < 1e-12);
        assert!((s.pool_reuse_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = ReactorStats::default();
        assert_eq!(s.busy_ratio(), 0.0);
        assert_eq!(s.pool_reuse_rate(), 0.0);
    }

    #[test]
    fn stats_round_trip_and_merge() {
        let a = ReactorStats {
            busy_ns: 1,
            idle_ns: 2,
            frames_in: 3,
            frames_out: 4,
            bytes_in: 5,
            bytes_out: 6,
            batches_submitted: 7,
            batch_depth_peak: 8,
            pool_checkouts: 9,
            pool_reused: 10,
            pool_peak_free: 11,
        };
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), 8 * 11, "eleven u64 words");
        let mut data = Reader::new(bytes::Bytes::from(buf));
        assert_eq!(ReactorStats::decode_prefix(&mut data).unwrap(), a);

        let mut merged = a;
        merged.merge(&ReactorStats {
            batch_depth_peak: 3,
            pool_peak_free: 40,
            frames_in: 1,
            ..ReactorStats::default()
        });
        assert_eq!(merged.frames_in, 4);
        assert_eq!(merged.batch_depth_peak, 8, "peak takes the max");
        assert_eq!(merged.pool_peak_free, 40);
    }
}
