//! Network cost models for processor ↔ storage traffic.
//!
//! The paper runs over 40 Gbps Infiniband with RDMA ("a few microseconds";
//! RAMCloud get/put take 5–10 µs) and over 10 Gbps Ethernet for the
//! `gRouting-E` configuration. The simulator charges these models per
//! fetch; a wire cluster's storage endpoints can delay each reply by the
//! same duration to emulate the relative gap on a laptop.

/// Latency/bandwidth model for one request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fixed round-trip overhead per request, in nanoseconds.
    pub rtt_ns: u64,
    /// Payload throughput in bits per nanosecond (i.e. gigabits/second).
    pub gbps: f64,
}

impl NetworkModel {
    /// 40 Gbps Infiniband RDMA: ~6 µs per small get, matching RAMCloud's
    /// reported 5–10 µs.
    pub fn infiniband_rdma() -> Self {
        Self {
            rtt_ns: 6_000,
            gbps: 40.0,
        }
    }

    /// 10 Gbps kernel-stack Ethernet: ~30 µs request latency (in-rack
    /// datacenter RTT through the kernel stack).
    pub fn ethernet_10g() -> Self {
        Self {
            rtt_ns: 30_000,
            gbps: 10.0,
        }
    }

    /// Free network for single-machine controls.
    pub fn local() -> Self {
        Self {
            rtt_ns: 0,
            gbps: f64::INFINITY,
        }
    }

    /// Nanoseconds to fetch a `bytes`-sized value: RTT plus serialisation
    /// time at the link bandwidth.
    pub fn fetch_ns(&self, bytes: usize) -> u64 {
        let transfer = if self.gbps.is_finite() && self.gbps > 0.0 {
            ((bytes as f64 * 8.0) / self.gbps).round() as u64
        } else {
            0
        };
        self.rtt_ns + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_is_microseconds() {
        let m = NetworkModel::infiniband_rdma();
        let t = m.fetch_ns(64);
        assert!((5_000..12_000).contains(&t), "t={t}");
    }

    #[test]
    fn ethernet_is_much_slower_than_rdma() {
        let rdma = NetworkModel::infiniband_rdma();
        let eth = NetworkModel::ethernet_10g();
        assert!(eth.fetch_ns(64) >= 4 * rdma.fetch_ns(64));
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let m = NetworkModel::infiniband_rdma();
        let small = m.fetch_ns(100);
        let big = m.fetch_ns(1_000_000);
        // 1 MB at 40 Gbps is 200 µs of serialisation.
        assert!(big > small + 150_000, "big={big} small={small}");
    }

    #[test]
    fn local_is_free() {
        let m = NetworkModel::local();
        assert_eq!(m.fetch_ns(1 << 20), 0);
    }

    #[test]
    fn presets_match_constructors() {
        // The paper's two networks, as their constructors build them.
        let rdma = NetworkModel::infiniband_rdma();
        assert_eq!((rdma.rtt_ns, rdma.gbps), (6_000, 40.0));
        let eth = NetworkModel::ethernet_10g();
        assert_eq!((eth.rtt_ns, eth.gbps), (30_000, 10.0));
    }

    #[test]
    fn only_local_is_free() {
        for bytes in [0, 64, 1 << 20] {
            assert_eq!(NetworkModel::local().fetch_ns(bytes), 0, "{bytes} B");
        }
        assert!(NetworkModel::infiniband_rdma().fetch_ns(0) > 0);
        assert!(NetworkModel::ethernet_10g().fetch_ns(0) > 0);
    }
}
