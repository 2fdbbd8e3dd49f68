//! Query workload generation (§4.1 "Online Query Workloads").
//!
//! The paper's workload: "we select 100 nodes from the graph uniformly at
//! random. Then, for each of these nodes, we select 10 different query nodes
//! which are at most r-hops away from that node. Thus, we generate 1000
//! queries; every 10 of them are from one hotspot region … all queries from
//! the same hotspot are grouped together and sent consecutively." Queries
//! are a uniform mixture of the three h-hop types.
//!
//! [`hotspot_workload`] builds exactly that.

mod hotspot;

pub use hotspot::{hotspot_workload, WorkloadConfig};

/// Relative weights of the three query kinds in a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMix {
    /// Weight of h-hop neighbour aggregation.
    pub aggregation: f64,
    /// Weight of h-step random walk with restart.
    pub random_walk: f64,
    /// Weight of h-hop reachability.
    pub reachability: f64,
}

impl QueryMix {
    /// The paper's uniform mixture.
    pub fn uniform() -> Self {
        Self {
            aggregation: 1.0,
            random_walk: 1.0,
            reachability: 1.0,
        }
    }

    /// Aggregation-only (used by cache-metric experiments where Eq. 8/9
    /// assume neighbourhood retrieval).
    pub fn aggregation_only() -> Self {
        Self {
            aggregation: 1.0,
            random_walk: 0.0,
            reachability: 0.0,
        }
    }

    /// Total weight.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn total(&self) -> f64 {
        assert!(
            self.aggregation >= 0.0 && self.random_walk >= 0.0 && self.reachability >= 0.0,
            "negative mix weight"
        );
        let t = self.aggregation + self.random_walk + self.reachability;
        assert!(t > 0.0, "all mix weights zero");
        t
    }
}

impl Default for QueryMix {
    fn default() -> Self {
        Self::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mix_total() {
        assert_eq!(QueryMix::uniform().total(), 3.0);
        assert_eq!(QueryMix::aggregation_only().total(), 1.0);
    }

    #[test]
    #[should_panic(expected = "all mix weights zero")]
    fn zero_mix_rejected() {
        let _ = QueryMix {
            aggregation: 0.0,
            random_walk: 0.0,
            reachability: 0.0,
        }
        .total();
    }
}
