//! Approximate path-pattern matching on top of h-hop traversal.
//!
//! §2.2: the reachability query "can be employed in distance-constrained
//! and label-constrained reachability search, as well as in approximate
//! graph pattern matching queries \[15\]". This module provides that last
//! layer: a *path pattern* is a sequence of node labels, and a match is a
//! path from an anchor whose i-th node carries the i-th label. ("Find all
//! papers on distributed graph systems co-authored by Berkeley and CMU
//! researchers" decomposes into such label paths.)
//!
//! Evaluation runs over the same cache-backed fetch layer as every other
//! query, so pattern matching benefits from smart routing exactly like the
//! primitive queries do.

use std::collections::HashSet;

use grouting_graph::{NodeId, NodeLabelId};

use crate::executor::Executor;

/// A node-label path pattern, matched from an anchor node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    /// Labels the successive path nodes must carry (the anchor itself is
    /// not constrained).
    pub steps: Vec<NodeLabelId>,
    /// Follow only out-edges (`false` = bi-directed, the default for
    /// knowledge-graph patterns where inverse relations are materialised).
    pub directed: bool,
}

impl PathPattern {
    /// A bi-directed pattern over the given label steps.
    pub fn new(steps: Vec<NodeLabelId>) -> Self {
        Self {
            steps,
            directed: false,
        }
    }

    /// Restricts matching to out-edges.
    pub fn directed(mut self) -> Self {
        self.directed = true;
        self
    }

    /// Pattern length in hops.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pattern is empty (matches trivially).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The result of matching a pattern: every node at which the path can end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternMatch {
    /// Nodes reachable from the anchor along a label-conforming path,
    /// sorted by id.
    pub endpoints: Vec<NodeId>,
}

impl PatternMatch {
    /// Whether at least one conforming path exists.
    pub fn matched(&self) -> bool {
        !self.endpoints.is_empty()
    }
}

/// Matches `pattern` from `anchor` by levelwise label-filtered expansion.
///
/// Each frontier node's record is fetched through the processor cache, so
/// the access accounting (Eq. 8/9) covers pattern queries too.
pub fn match_pattern<S: crate::fetch::RecordSource>(
    executor: &mut Executor<'_, S>,
    anchor: NodeId,
    pattern: &PathPattern,
) -> PatternMatch {
    let mut frontier: HashSet<NodeId> = HashSet::from([anchor]);
    for &label in &pattern.steps {
        let mut next = HashSet::new();
        for v in frontier {
            let Some(rec) = executor.fetch_record(v) else {
                continue;
            };
            let candidates = if pattern.directed {
                rec.out()
            } else {
                rec.all_neighbors()
            };
            for &w in candidates {
                if next.contains(&w) {
                    continue;
                }
                if let Some(wrec) = executor.fetch_record(w) {
                    if wrec.node_label == Some(label) {
                        next.insert(w);
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let mut endpoints: Vec<NodeId> = frontier.into_iter().collect();
    endpoints.sort_unstable();
    PatternMatch { endpoints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::ProcessorCache;
    use grouting_cache::LruCache;
    use grouting_graph::{GraphBuilder, NodeLabelId};
    use grouting_partition::HashPartitioner;
    use grouting_storage::StorageTier;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn l(i: u16) -> NodeLabelId {
        NodeLabelId::new(i)
    }

    /// A tiny "academic" graph: paper(0) -- author(1,2) -- org(3,4).
    fn academic() -> StorageTier {
        let mut b = GraphBuilder::new();
        b.add_edge(n(1), n(0)); // author 1 wrote paper 0
        b.add_edge(n(2), n(0)); // author 2 wrote paper 0
        b.add_edge(n(1), n(3)); // author 1 at org 3
        b.add_edge(n(2), n(4)); // author 2 at org 4
        b.set_node_label(n(0), l(10)); // paper
        b.set_node_label(n(1), l(20)); // author
        b.set_node_label(n(2), l(20)); // author
        b.set_node_label(n(3), l(30)); // org
        b.set_node_label(n(4), l(30)); // org
        let g = b.build().unwrap();
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(2)));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn run(tier: &StorageTier, anchor: NodeId, pattern: &PathPattern) -> PatternMatch {
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut ex = Executor::new(tier, &mut cache);
        match_pattern(&mut ex, anchor, pattern)
    }

    #[test]
    fn paper_to_orgs_via_authors() {
        let tier = academic();
        // paper -> author -> org.
        let m = run(&tier, n(0), &PathPattern::new(vec![l(20), l(30)]));
        assert!(m.matched());
        assert_eq!(m.endpoints, vec![n(3), n(4)]);
    }

    #[test]
    fn wrong_label_breaks_the_path() {
        let tier = academic();
        // paper -> org directly: no such edge pattern.
        let m = run(&tier, n(0), &PathPattern::new(vec![l(30)]));
        assert!(!m.matched());
        // paper -> author -> paper: back to the start.
        let m2 = run(&tier, n(0), &PathPattern::new(vec![l(20), l(10)]));
        assert_eq!(m2.endpoints, vec![n(0)]);
    }

    #[test]
    fn directed_patterns_respect_orientation() {
        let tier = academic();
        // Out-edges only: paper 0 has none, so nothing matches.
        let m = run(&tier, n(0), &PathPattern::new(vec![l(20)]).directed());
        assert!(!m.matched());
        // From the author side the direction works: author -> org.
        let m2 = run(&tier, n(1), &PathPattern::new(vec![l(30)]).directed());
        assert_eq!(m2.endpoints, vec![n(3)]);
    }

    #[test]
    fn empty_pattern_matches_anchor() {
        let tier = academic();
        let p = PathPattern::new(vec![]);
        assert!(p.is_empty());
        let m = run(&tier, n(0), &p);
        assert_eq!(m.endpoints, vec![n(0)]);
    }

    #[test]
    fn pattern_accounting_flows_through_cache() {
        let tier = academic();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut ex = Executor::new(&tier, &mut cache);
        let p = PathPattern::new(vec![l(20), l(30)]);
        let _ = match_pattern(&mut ex, n(0), &p);
        let first = ex.stats();
        assert!(first.cache_misses > 0);
        let _ = match_pattern(&mut ex, n(0), &p);
        let second = ex.stats();
        // The rerun is served from cache.
        assert_eq!(second.cache_misses, first.cache_misses);
        assert!(second.cache_hits > first.cache_hits);
    }
}
