//! Preprocessing identity against the implementation it replaced.
//!
//! `fixtures/preprocess_v1.txt` was written by the PR 24 code — one
//! bi-directed BFS per landmark, one simplex solve per node — and holds
//! FNV-1a fingerprints of the landmark ids, the `u16` distance matrix and
//! every coordinate's `f32` bits for the tiny profile of each dataset.
//! Routing, caching and every answer downstream read only these, so equal
//! fingerprints mean the faster preprocessing changed nothing else.

use grouting_embed::{Embedding, EmbeddingConfig, LandmarkConfig, Landmarks};
use grouting_gen::{DatasetProfile, ProfileName};

const FIXTURE: &str = include_str!("fixtures/preprocess_v1.txt");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One fixture line: `label nodes landmarks ids dist coords`.
fn fingerprint(
    label: &str,
    name: ProfileName,
    count: Option<usize>,
    min_separation: u32,
) -> String {
    let g = DatasetProfile::tiny(name).generate();
    let n = g.node_count();
    // `SimAssets::paper_defaults`' landmark count unless one is given.
    let count = count.unwrap_or_else(|| 96.min(((n as f64).sqrt() as usize).max(4)));
    let lm = Landmarks::build(
        &g,
        &LandmarkConfig {
            count,
            min_separation,
        },
    );
    let emb = Embedding::build(&lm, &EmbeddingConfig::default());

    let mut ids = Fnv::new();
    for v in &lm.nodes {
        ids.write(&v.raw().to_le_bytes());
    }
    let mut dist = Fnv::new();
    for row in &lm.dist {
        for d in row {
            dist.write(&d.to_le_bytes());
        }
    }
    let mut coords = Fnv::new();
    for v in g.nodes() {
        for c in emb.coords(v) {
            coords.write(&c.to_bits().to_le_bytes());
        }
    }
    format!(
        "{label} {n} {} {:016x} {:016x} {:016x}",
        lm.len(),
        ids.0,
        dist.0,
        coords.0
    )
}

#[test]
fn landmarks_and_coordinates_match_v1_fixture() {
    let mut actual: Vec<String> = ProfileName::ALL
        .iter()
        .map(|&name| fingerprint(name.as_str(), name, None, 3))
        .collect();
    // 96 landmarks, as the benchmark uses: more than one BFS batch.
    actual.push(fingerprint(
        "WebGraph-96",
        ProfileName::WebGraph,
        Some(96),
        2,
    ));

    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        expected,
        actual,
        "preprocessing drifted from the v1 fixture; computed:\n{}",
        actual.join("\n")
    );
}
