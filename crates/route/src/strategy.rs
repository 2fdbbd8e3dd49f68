//! The routing strategies of §3.3 (baselines) and §3.4 (smart).

use grouting_embed::ProcessorDistanceTable;
use grouting_query::Query;

use crate::ema::EmbedRouter;

/// Which routing scheme a cluster runs — used in configs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Next-ready baseline with no processor caches at all (§4.1).
    NoCache,
    /// Next-ready: any idle processor takes the next query (§3.3.1).
    NextReady,
    /// Modulo hash of the query node id (Eq. 1, §3.3.2).
    Hash,
    /// Landmark routing over the `d(u, p)` table (§3.4.1).
    Landmark,
    /// Embed routing over coordinates and EMA means (§3.4.2).
    Embed,
}

impl RoutingKind {
    /// All five schemes in the paper's comparison order.
    pub const ALL: [RoutingKind; 5] = [
        RoutingKind::NoCache,
        RoutingKind::NextReady,
        RoutingKind::Hash,
        RoutingKind::Landmark,
        RoutingKind::Embed,
    ];

    /// Whether processors should run with caches enabled.
    pub fn uses_cache(&self) -> bool {
        !matches!(self, RoutingKind::NoCache)
    }

    /// Whether this is one of the paper's smart schemes.
    pub fn is_smart(&self) -> bool {
        matches!(self, RoutingKind::Landmark | RoutingKind::Embed)
    }
}

impl std::fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RoutingKind::NoCache => "NoCache",
            RoutingKind::NextReady => "NextReady",
            RoutingKind::Hash => "Hash",
            RoutingKind::Landmark => "Landmark",
            RoutingKind::Embed => "Embed",
        };
        write!(f, "{s}")
    }
}

/// A routing strategy instance, holding whatever state its scheme needs.
#[derive(Clone)]
pub enum Strategy {
    /// Next-ready dispatch (also used for the no-cache control).
    NextReady {
        /// True when this instance represents the no-cache control.
        no_cache: bool,
    },
    /// Modulo hash (Eq. 1).
    Hash,
    /// Landmark routing.
    Landmark(ProcessorDistanceTable),
    /// Embed routing.
    Embed(EmbedRouter),
}

impl std::fmt::Debug for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Strategy::{}", self.kind())
    }
}

impl Strategy {
    /// The scheme this instance implements.
    pub fn kind(&self) -> RoutingKind {
        match self {
            Strategy::NextReady { no_cache: true } => RoutingKind::NoCache,
            Strategy::NextReady { no_cache: false } => RoutingKind::NextReady,
            Strategy::Hash => RoutingKind::Hash,
            Strategy::Landmark(_) => RoutingKind::Landmark,
            Strategy::Embed(_) => RoutingKind::Embed,
        }
    }

    /// The preferred processor for `query`, or `None` when the scheme has
    /// no preference (next-ready: first idle processor wins).
    ///
    /// `loads` are the router queue lengths (the paper's load measure);
    /// `up[p]` masks dead processors; `load_factor` is the Eq. 3/7 knob.
    pub fn preferred(
        &self,
        query: &Query,
        loads: &[usize],
        up: &[bool],
        load_factor: f64,
    ) -> Option<usize> {
        let anchor = query.anchor();
        let processors = loads.len();
        match self {
            Strategy::NextReady { .. } => None,
            Strategy::Hash => {
                // Eq. 1: Target = QueryNodeId MOD NumberOfProcessors; if that
                // processor is down, walk forward in modulo order.
                let home = anchor.index() % processors;
                (0..processors)
                    .map(|k| (home + k) % processors)
                    .find(|&p| up[p])
            }
            Strategy::Landmark(table) => best_by_score(processors, up, |p| {
                let d = table.distance(anchor, p);
                let d = if d == grouting_embed::UNREACHED_U16 {
                    1e6
                } else {
                    d as f64
                };
                d + loads[p] as f64 / load_factor
            }),
            Strategy::Embed(router) => best_by_score(processors, up, |p| {
                router.distance(anchor, p) + loads[p] as f64 / load_factor
            }),
        }
    }

    /// Notifies the strategy that `query` was dispatched to `processor`
    /// (embed routing updates its EMA; others are stateless).
    pub fn on_dispatch(&mut self, query: &Query, processor: usize) {
        if let Strategy::Embed(router) = self {
            router.update(query.anchor(), processor);
        }
    }
}

/// Minimum-score processor among those that are up.
fn best_by_score(processors: usize, up: &[bool], score: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (p, &is_up) in up.iter().enumerate().take(processors) {
        if !is_up {
            continue;
        }
        let s = score(p);
        match best {
            Some((_, bs)) if bs <= s => {}
            _ => best = Some((p, s)),
        }
    }
    best.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::NodeId;

    fn q(node: u32) -> Query {
        Query::NeighborAggregation {
            node: NodeId::new(node),
            hops: 2,
            label: None,
        }
    }

    #[test]
    fn kind_display_and_flags() {
        assert_eq!(RoutingKind::Embed.to_string(), "Embed");
        assert!(RoutingKind::Embed.uses_cache());
        assert!(!RoutingKind::NoCache.uses_cache());
        assert!(RoutingKind::Landmark.is_smart());
        assert!(!RoutingKind::Hash.is_smart());
        assert_eq!(RoutingKind::ALL.len(), 5);
    }

    #[test]
    fn next_ready_has_no_preference() {
        let s = Strategy::NextReady { no_cache: false };
        assert_eq!(s.preferred(&q(5), &[0, 0], &[true, true], 20.0), None);
        assert_eq!(s.kind(), RoutingKind::NextReady);
        assert_eq!(
            Strategy::NextReady { no_cache: true }.kind(),
            RoutingKind::NoCache
        );
    }

    #[test]
    fn hash_is_modulo() {
        let s = Strategy::Hash;
        let up = [true, true, true];
        assert_eq!(s.preferred(&q(7), &[0, 0, 0], &up, 20.0), Some(1));
        assert_eq!(s.preferred(&q(9), &[0, 0, 0], &up, 20.0), Some(0));
    }

    #[test]
    fn hash_skips_down_processor() {
        let s = Strategy::Hash;
        let up = [true, false, true];
        // Node 7 hashes to 1 (down) → next in modulo order is 2.
        assert_eq!(s.preferred(&q(7), &[0, 0, 0], &up, 20.0), Some(2));
    }

    #[test]
    fn all_processors_down_yields_none() {
        let s = Strategy::Hash;
        assert_eq!(s.preferred(&q(1), &[0, 0], &[false, false], 20.0), None);
    }
}
