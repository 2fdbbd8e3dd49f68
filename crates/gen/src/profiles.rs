//! Scaled synthetic stand-ins for the paper's four datasets (Table 1).
//!
//! | Dataset     | Paper nodes | Paper edges | Model here |
//! |-------------|-------------|-------------|------------|
//! | WebGraph    | 105.9 M     | 3.74 B      | community power-law (host-clustered web) |
//! | Friendster  | 65.6 M      | 1.81 B      | community power-law (social circles, more cross edges) |
//! | Memetracker | 96.6 M      | 418 M       | community power-law (sparser, looser) |
//! | Freebase    | 49.7 M      | 46.7 M      | Erdős–Rényi + Zipf labels |
//!
//! The first three use [`crate::community`]: real web/social graphs derive
//! their *topology-aware locality* (paper Figure 4) from community
//! structure, which pure preferential-attachment or R-MAT models lack at
//! reduced scale (their 2-hop neighbourhoods all collapse onto the same
//! global hubs, making routing irrelevant — the opposite of the measured
//! behaviour on the real datasets). Community sizes differ per dataset:
//! tight host-like clusters for WebGraph, larger and leakier circles for
//! Friendster, loose clusters for Memetracker.
//!
//! The default scale is 1/1000 of the paper's sizes (≈ 50 k–106 k nodes),
//! controllable with the `GROUTING_SCALE` environment variable (e.g. `2.0`
//! doubles every profile). Ratios between node and edge counts — the
//! property the routing experiments are sensitive to — are preserved at all
//! scales.

use grouting_graph::CsrGraph;

use crate::community::{self, CommunityConfig};
use crate::er;
use crate::labels::{self, LabelConfig};

/// The four datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileName {
    /// uk-2007-05 web crawl: huge, strongly clustered, power-law.
    WebGraph,
    /// Friendster social network: dense friendship graph, large 2-hop sizes.
    Friendster,
    /// Memetracker quote/phrase graph: sparse document graph.
    Memetracker,
    /// Freebase knowledge graph: very sparse, labelled.
    Freebase,
}

impl ProfileName {
    /// All four profiles in the paper's Table 1 order.
    pub const ALL: [ProfileName; 4] = [
        ProfileName::WebGraph,
        ProfileName::Friendster,
        ProfileName::Memetracker,
        ProfileName::Freebase,
    ];

    /// Human-readable dataset name as printed in the paper.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProfileName::WebGraph => "WebGraph",
            ProfileName::Friendster => "Friendster",
            ProfileName::Memetracker => "Memetracker",
            ProfileName::Freebase => "Freebase",
        }
    }

    /// Paper-reported node count (Table 1).
    pub fn paper_nodes(&self) -> u64 {
        match self {
            ProfileName::WebGraph => 105_896_555,
            ProfileName::Friendster => 65_608_366,
            ProfileName::Memetracker => 96_608_034,
            ProfileName::Freebase => 49_731_389,
        }
    }

    /// Paper-reported edge count (Table 1).
    pub fn paper_edges(&self) -> u64 {
        match self {
            ProfileName::WebGraph => 3_738_733_648,
            ProfileName::Friendster => 1_806_067_135,
            ProfileName::Memetracker => 418_237_269,
            ProfileName::Freebase => 46_708_421,
        }
    }

    /// Paper-reported on-disk adjacency size (Table 1), in bytes.
    pub fn paper_bytes(&self) -> u64 {
        match self {
            ProfileName::WebGraph => (60.3 * (1u64 << 30) as f64) as u64,
            ProfileName::Friendster => (33.5 * (1u64 << 30) as f64) as u64,
            ProfileName::Memetracker => (8.2 * (1u64 << 30) as f64) as u64,
            ProfileName::Freebase => (1.3 * (1u64 << 30) as f64) as u64,
        }
    }
}

/// A concrete, scaled dataset profile ready to generate.
#[derive(Debug, Clone, Copy)]
pub struct DatasetProfile {
    /// Which dataset this imitates.
    pub name: ProfileName,
    /// Scaled node count.
    pub nodes: usize,
    /// Scaled edge count.
    pub edges: usize,
    /// Generation seed (distinct per dataset so runs differ across sets).
    pub seed: u64,
}

/// Base denominator: profiles default to 1/1000 of the paper's sizes.
const BASE_DIVISOR: f64 = 1000.0;

impl DatasetProfile {
    /// Creates the profile at an explicit scale multiplier (1.0 = 1/1000 of
    /// the paper's size).
    pub fn at_scale(name: ProfileName, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "bad scale {scale}");
        let nodes = ((name.paper_nodes() as f64) * scale / BASE_DIVISOR).round() as usize;
        let edges = ((name.paper_edges() as f64) * scale / BASE_DIVISOR).round() as usize;
        Self {
            name,
            nodes: nodes.max(64),
            edges: edges.max(64),
            seed: 0xC0FFEE ^ name.paper_nodes(),
        }
    }

    /// Creates the profile honouring the `GROUTING_SCALE` environment
    /// variable (default 1.0).
    pub fn from_env(name: ProfileName) -> Self {
        Self::at_scale(name, env_scale())
    }

    /// A deliberately tiny profile for unit/integration tests.
    pub fn tiny(name: ProfileName) -> Self {
        Self::at_scale(name, 0.02)
    }

    /// Generates the graph for this profile.
    pub fn generate(&self) -> CsrGraph {
        match self.name {
            ProfileName::WebGraph => community::generate(
                &CommunityConfig {
                    nodes: self.nodes,
                    // Host-like clusters: tight, few cross-host links.
                    community_size: 150.min(self.nodes / 4).max(8),
                    edges: self.edges,
                    cross_fraction: 0.03,
                    shortcut_fraction: 0.0001,
                },
                self.seed,
            ),
            ProfileName::Friendster => community::generate(
                &CommunityConfig {
                    nodes: self.nodes,
                    // Social circles: larger and leakier, giving the larger
                    // 2-hop neighbourhoods the paper reports (§4.8).
                    community_size: 400.min(self.nodes / 4).max(8),
                    edges: self.edges,
                    cross_fraction: 0.06,
                    shortcut_fraction: 0.0001,
                },
                self.seed,
            ),
            ProfileName::Memetracker => community::generate(
                &CommunityConfig {
                    nodes: self.nodes,
                    community_size: 250.min(self.nodes / 4).max(8),
                    edges: self.edges,
                    cross_fraction: 0.08,
                    shortcut_fraction: 0.0001,
                },
                self.seed,
            ),
            ProfileName::Freebase => {
                let g = er::generate(self.nodes, self.edges, self.seed);
                labels::assign_labels(&g, &LabelConfig::default(), self.seed ^ 0x51)
            }
        }
    }
}

/// Reads `GROUTING_SCALE` (default 1.0). An invalid value — unparsable,
/// non-positive, or non-finite — is *reported* with one stderr line
/// naming it, rather than silently treated as 1.0.
pub fn env_scale() -> f64 {
    match std::env::var("GROUTING_SCALE") {
        Err(_) => 1.0,
        Ok(raw) => match raw.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => s,
            _ => {
                grouting_metrics::log_warn!(
                    "invalid GROUTING_SCALE value {raw:?} \
                     (expected a positive finite number); using 1.0"
                );
                1.0
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use grouting_graph::codec::AdjacencyRecord;

    use super::*;

    #[test]
    fn ratios_preserved() {
        for name in ProfileName::ALL {
            let p = DatasetProfile::at_scale(name, 1.0);
            let paper_ratio = name.paper_edges() as f64 / name.paper_nodes() as f64;
            let scaled_ratio = p.edges as f64 / p.nodes as f64;
            assert!(
                (paper_ratio - scaled_ratio).abs() / paper_ratio < 0.01,
                "{name:?}: {paper_ratio} vs {scaled_ratio}"
            );
        }
    }

    #[test]
    fn tiny_profiles_generate_quickly() {
        for name in ProfileName::ALL {
            let p = DatasetProfile::tiny(name);
            let g = p.generate();
            assert!(g.node_count() > 0, "{name:?}");
            assert!(g.edge_count() > 0, "{name:?}");
        }
    }

    #[test]
    fn freebase_profile_is_labeled() {
        let g = DatasetProfile::tiny(ProfileName::Freebase).generate();
        assert!(g.has_node_labels());
    }

    #[test]
    fn webgraph_is_largest() {
        let web = DatasetProfile::at_scale(ProfileName::WebGraph, 1.0);
        let free = DatasetProfile::at_scale(ProfileName::Freebase, 1.0);
        assert!(web.edges > 50 * free.edges);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DatasetProfile::tiny(ProfileName::Memetracker);
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.edge_count(), b.edge_count());
    }

    /// The byte pin on the adjacency-record codec: WebGraph's id-local
    /// neighbour lists travel in under 0.30 of the bytes a cache is
    /// charged for them (the gap-coded records read about 0.27, the frame
    /// of reference before them about 0.51), so a codec change cannot
    /// quietly give the bytes back.
    #[test]
    fn webgraph_records_travel_in_under_three_tenths_of_their_resident_size() {
        let g = DatasetProfile::at_scale(ProfileName::WebGraph, 0.1).generate();
        let (encoded, resident) = g
            .nodes()
            .map(|v| AdjacencyRecord::from_graph(&g, v).unwrap())
            .fold((0, 0), |(e, r), rec| {
                (e + rec.encoded_len(), r + rec.resident_len())
            });
        let ratio = encoded as f64 / resident as f64;
        assert!(ratio <= 0.30, "{encoded} B encoded, {resident} B resident");
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn rejects_zero_scale() {
        let _ = DatasetProfile::at_scale(ProfileName::WebGraph, 0.0);
    }
}
