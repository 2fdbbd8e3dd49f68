//! The storage tier: graph data horizontally partitioned across servers.

use std::sync::Arc;

use bytes::Bytes;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::dynamic::{DynamicGraph, GraphUpdate};
use grouting_graph::{CsrGraph, EdgeLabelId, NodeId, NodeMap};

use crate::log::DEFAULT_SEGMENT_BYTES;
use crate::server::{ServerReader, StorageServer};
use crate::{Partitioner, Result};

/// The decoupled storage tier (paper Figure 2, bottom).
///
/// Holds `M` storage servers and a [`Partitioner`] that places each node's
/// adjacency record. gRouting uses [`HashPartitioner`](crate::HashPartitioner)
/// here — the whole point of smart routing is that this placement does not
/// need to be clever.
///
/// Optional chain replication (RAMCloud-style "continuous availability",
/// §4.1): with a replication factor `r`, each record also lives on the
/// `r − 1` servers following its primary, and reads fall over to a replica
/// when the primary is marked down.
pub struct StorageTier {
    servers: Vec<Arc<StorageServer>>,
    partitioner: Arc<dyn Partitioner>,
    replication: usize,
    up: Vec<std::sync::atomic::AtomicBool>,
}

impl std::fmt::Debug for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageTier")
            .field("servers", &self.servers.len())
            .field("parts", &self.partitioner.parts())
            .finish()
    }
}

impl StorageTier {
    /// Creates a tier whose server count matches `partitioner.parts()`.
    pub fn new(partitioner: Arc<dyn Partitioner>) -> Self {
        Self::with_segment_bytes(partitioner, DEFAULT_SEGMENT_BYTES)
    }

    /// Creates a tier with a custom per-server segment size.
    pub fn with_segment_bytes(partitioner: Arc<dyn Partitioner>, segment_bytes: usize) -> Self {
        Self::with_replication(partitioner, segment_bytes, 1)
    }

    /// Creates a tier with a replication factor (`1` = no replication).
    ///
    /// # Panics
    ///
    /// Panics if `replication == 0` or exceeds the server count.
    pub fn with_replication(
        partitioner: Arc<dyn Partitioner>,
        segment_bytes: usize,
        replication: usize,
    ) -> Self {
        let parts = partitioner.parts();
        assert!(replication >= 1, "replication factor must be at least 1");
        assert!(
            replication <= parts,
            "replication {replication} exceeds {parts} servers"
        );
        let servers = (0..parts)
            .map(|id| Arc::new(StorageServer::new(id, segment_bytes)))
            .collect();
        Self {
            servers,
            partitioner,
            replication,
            up: (0..parts)
                .map(|_| std::sync::atomic::AtomicBool::new(true))
                .collect(),
        }
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Marks a storage server as failed; reads fall over to replicas.
    pub fn mark_down(&self, server: usize) {
        self.up[server].store(false, std::sync::atomic::Ordering::Relaxed);
    }

    /// Brings a storage server back (its log is intact — in-memory
    /// restart, as in RAMCloud's fast recovery).
    pub fn mark_up(&self, server: usize) {
        self.up[server].store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether a server is currently serving.
    pub fn is_up(&self, server: usize) -> bool {
        self.up[server].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The replica chain of `node`: its primary plus the following
    /// `replication − 1` servers.
    pub fn replica_chain(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let home = self.partitioner.assign(node);
        let parts = self.servers.len();
        (0..self.replication).map(move |k| (home + k) % parts)
    }

    /// Number of storage servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The partitioner placing records on servers. Query processors share
    /// this placement function (it is stateless metadata), which is how a
    /// remote fetch layer knows which storage endpoint owns a node.
    pub fn partitioner(&self) -> Arc<dyn Partitioner> {
        Arc::clone(&self.partitioner)
    }

    /// Direct handle to a server (for per-server stats).
    pub fn server(&self, id: usize) -> &Arc<StorageServer> {
        &self.servers[id]
    }

    /// Loads every node's adjacency record from an in-memory graph, then
    /// seals each server's head segment, so every read of what was loaded
    /// is a zero-copy slice of a sealed segment. A later put rolls to a
    /// fresh open segment.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (oversized records).
    pub fn load_graph(&self, g: &CsrGraph) -> Result<()> {
        for v in g.nodes() {
            let rec = AdjacencyRecord::from_graph(g, v).expect("node in range");
            self.put_record(v, &rec)?;
        }
        self.servers.iter().for_each(|s| s.seal());
        Ok(())
    }

    /// The one definition of a read: walk `node`'s replica chain, skip
    /// servers marked down, and take the first copy `read(server, key)`
    /// finds.
    fn first_live_copy(
        &self,
        node: NodeId,
        mut read: impl FnMut(usize, u64) -> Option<Bytes>,
    ) -> Option<(usize, Bytes)> {
        self.replica_chain(node)
            .filter(|&s| self.is_up(s))
            .find_map(|s| Some((s, read(s, node.raw() as u64)?)))
    }

    /// Fetches the raw adjacency value for `node` with the serving server
    /// id — the primary, or the first live replica when the primary is
    /// down.
    pub fn get(&self, node: NodeId) -> Option<(usize, Bytes)> {
        self.first_live_copy(node, |s, key| self.servers[s].get(key))
    }

    /// Fetches the raw adjacency values for many nodes at once, one entry
    /// per requested node in order — the storage half of a frontier-batched
    /// fetch. A wire deployment serves this from one batch frame per
    /// server; the in-process tier answers it directly, so both paths share
    /// the same multi-get contract.
    ///
    /// Each node is looked up exactly as [`StorageTier::get`] would (same
    /// chain walk, same per-server get counts), but every server touched is
    /// locked once for the whole batch, not once per record.
    pub fn get_many(&self, nodes: &[NodeId]) -> Vec<Option<(usize, Bytes)>> {
        let mut readers: Vec<Option<ServerReader<'_>>> =
            self.servers.iter().map(|_| None).collect();
        nodes
            .iter()
            .map(|&node| {
                self.first_live_copy(node, |s, key| {
                    readers[s]
                        .get_or_insert_with(|| self.servers[s].reader())
                        .get(key)
                })
            })
            .collect()
    }

    /// Fetches and decodes the adjacency record for `node`.
    pub fn get_record(&self, node: NodeId) -> Option<(usize, AdjacencyRecord)> {
        let (s, bytes) = self.get(node)?;
        let rec = AdjacencyRecord::decode(bytes).expect("tier stores valid records");
        Some((s, rec))
    }

    /// Stores `record` as the value for `node` on its whole replica chain.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (oversized records).
    pub fn put_record(&self, node: NodeId, record: &AdjacencyRecord) -> Result<()> {
        let encoded = record.encode();
        for s in self.replica_chain(node) {
            self.servers[s].put(node.raw() as u64, &encoded)?;
        }
        Ok(())
    }

    /// Applies one edge update by rewriting both endpoints' records from
    /// the post-update dynamic graph (their neighbours' records mention
    /// them by id, which is unchanged). Each rewritten record keeps its
    /// node label and every surviving edge's label from the stored copy;
    /// an added edge is unlabelled.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn apply_update(&self, g: &DynamicGraph, update: GraphUpdate) -> Result<()> {
        let (GraphUpdate::AddEdge(s, d) | GraphUpdate::RemoveEdge(s, d)) = update;
        for node in [s, d] {
            let old = self
                .get_record(node)
                .map(|(_, rec)| rec)
                .unwrap_or_default();
            let out = kept_labels(old.out(), old.out_labels(), g.out_neighbors(node));
            let inc = kept_labels(old.inc(), old.in_labels(), g.in_neighbors(node));
            let mut rec = AdjacencyRecord::new(g.out_neighbors(node), g.in_neighbors(node));
            if out.iter().chain(&inc).any(|&l| l != EdgeLabelId::UNLABELED) {
                rec = rec.with_edge_labels(&out, &inc);
            }
            rec.node_label = old.node_label;
            self.put_record(node, &rec)?;
        }
        Ok(())
    }

    /// Live bytes stored per server — the balance check for Table 1-style
    /// loading.
    pub fn bytes_per_server(&self) -> Vec<usize> {
        self.servers.iter().map(|s| s.live_bytes()).collect()
    }
}

/// The label of each edge to `neighbours`, taken from the stored edges
/// `ids` and their `labels` (none when unlabelled); an edge the stored
/// record lacks is unlabelled.
fn kept_labels(
    ids: &[NodeId],
    labels: impl Iterator<Item = EdgeLabelId>,
    neighbours: impl Iterator<Item = NodeId>,
) -> Vec<EdgeLabelId> {
    let stored: NodeMap<EdgeLabelId> = ids.iter().copied().zip(labels).collect();
    neighbours
        .map(|w| stored.get(&w).copied().unwrap_or(EdgeLabelId::UNLABELED))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashPartitioner;
    use grouting_graph::{GraphBuilder, NodeLabelId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn tier_with_path(servers: usize) -> (StorageTier, CsrGraph) {
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            b.add_edge(n(i), n(i + 1));
        }
        let g = b.build().unwrap();
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(servers)));
        tier.load_graph(&g).unwrap();
        (tier, g)
    }

    #[test]
    fn load_and_fetch_records() {
        let (tier, g) = tier_with_path(3);
        assert_eq!(tier.server_count(), 3);
        for v in g.nodes() {
            let (s, rec) = tier.get_record(v).unwrap();
            assert_eq!(s, tier.partitioner().assign(v));
            assert_eq!(rec.out(), g.out_neighbors(v).collect::<Vec<_>>());
            assert_eq!(rec.inc(), g.in_neighbors(v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn data_is_distributed() {
        let (tier, _) = tier_with_path(3);
        let bytes = tier.bytes_per_server();
        let populated = bytes.iter().filter(|&&b| b > 0).count();
        assert!(populated >= 2, "distribution {bytes:?}");
    }

    #[test]
    fn missing_node_is_none() {
        let (tier, _) = tier_with_path(2);
        assert!(tier.get(n(999)).is_none());
    }

    #[test]
    fn update_edge_rewrites_endpoints() {
        let (tier, g) = tier_with_path(2);
        let mut dynamic = DynamicGraph::from_csr(&g);
        dynamic.add_edge(n(0), n(5));
        tier.apply_update(&dynamic, GraphUpdate::AddEdge(n(0), n(5)))
            .unwrap();
        let (_, rec0) = tier.get_record(n(0)).unwrap();
        assert!(rec0.out().contains(&n(5)));
        let (_, rec5) = tier.get_record(n(5)).unwrap();
        assert!(rec5.inc().contains(&n(0)));
    }

    #[test]
    fn removing_a_nodes_edges_isolates_its_record() {
        let (tier, g) = tier_with_path(2);
        let mut dynamic = DynamicGraph::from_csr(&g);
        // Node 4 goes as its incident edges, one update each.
        for (s, d) in [(n(3), n(4)), (n(4), n(5))] {
            assert_eq!(dynamic.remove_edge(s, d), Ok(true));
            tier.apply_update(&dynamic, GraphUpdate::RemoveEdge(s, d))
                .unwrap();
        }
        let (_, rec4) = tier.get_record(n(4)).unwrap();
        assert_eq!(rec4.degree(), 0);
        // Neighbour records no longer mention node 4.
        let (_, rec3) = tier.get_record(n(3)).unwrap();
        assert!(!rec3.out().contains(&n(4)));
        let (_, rec5) = tier.get_record(n(5)).unwrap();
        assert!(!rec5.inc().contains(&n(4)));
    }

    #[test]
    fn an_update_keeps_node_and_surviving_edge_labels() {
        let label = |i: u16| EdgeLabelId::new(i);
        let mut b = GraphBuilder::new();
        b.add_labeled_edge(n(0), n(1), label(3));
        b.add_labeled_edge(n(2), n(0), label(4));
        b.add_labeled_edge(n(0), n(3), label(5));
        b.set_node_label(n(0), NodeLabelId::new(5));
        b.set_node_label(n(1), NodeLabelId::new(6));
        let g = b.build().unwrap();
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(2)));
        tier.load_graph(&g).unwrap();
        let mut dynamic = DynamicGraph::from_csr(&g);

        dynamic.add_edge(n(0), n(4));
        tier.apply_update(&dynamic, GraphUpdate::AddEdge(n(0), n(4)))
            .unwrap();
        dynamic.remove_edge(n(0), n(3)).unwrap();
        tier.apply_update(&dynamic, GraphUpdate::RemoveEdge(n(0), n(3)))
            .unwrap();

        let (_, rec0) = tier.get_record(n(0)).unwrap();
        assert_eq!(rec0.node_label, Some(NodeLabelId::new(5)));
        assert_eq!(rec0.out(), [n(1), n(4)]);
        assert_eq!(
            rec0.out_labels().collect::<Vec<_>>(),
            [label(3), EdgeLabelId::UNLABELED]
        );
        assert_eq!(rec0.inc(), [n(2)]);
        assert_eq!(rec0.in_labels().collect::<Vec<_>>(), [label(4)]);
        // The new edge's far end is a new, unlabelled node; the removed
        // edge's far end keeps what it had and loses the edge.
        let (_, rec4) = tier.get_record(n(4)).unwrap();
        assert_eq!((rec4.node_label, rec4.in_labels().len()), (None, 0));
        let (_, rec3) = tier.get_record(n(3)).unwrap();
        assert_eq!(rec3.degree(), 0);
        // Untouched records are as loaded.
        let (_, rec1) = tier.get_record(n(1)).unwrap();
        assert_eq!(rec1, AdjacencyRecord::from_graph(&g, n(1)).unwrap());
    }

    #[test]
    fn replication_survives_primary_failure() {
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            b.add_edge(n(i), n(i + 1));
        }
        let g = b.build().unwrap();
        let tier = StorageTier::with_replication(
            Arc::new(HashPartitioner::new(3)),
            crate::log::DEFAULT_SEGMENT_BYTES,
            2,
        );
        tier.load_graph(&g).unwrap();
        assert_eq!(tier.replication(), 2);

        // Kill every node's primary in turn; reads fall over to the backup.
        for v in g.nodes() {
            let primary = tier.partitioner().assign(v);
            tier.mark_down(primary);
            let (served_by, bytes) = tier.get(v).expect("replica serves");
            assert_ne!(served_by, primary);
            assert!(!bytes.is_empty());
            tier.mark_up(primary);
        }
    }

    #[test]
    fn unreplicated_tier_loses_data_on_failure() {
        let (tier, g) = tier_with_path(3);
        let v = g.nodes().next().unwrap();
        let primary = tier.partitioner().assign(v);
        tier.mark_down(primary);
        assert!(tier.get(v).is_none());
        tier.mark_up(primary);
        assert!(tier.get(v).is_some());
    }

    #[test]
    fn replication_doubles_stored_bytes() {
        let mut b = GraphBuilder::new();
        for i in 0..20 {
            b.add_edge(n(i), n((i + 1) % 21));
        }
        let g = b.build().unwrap();
        let single = StorageTier::new(Arc::new(HashPartitioner::new(4)));
        single.load_graph(&g).unwrap();
        let doubled = StorageTier::with_replication(
            Arc::new(HashPartitioner::new(4)),
            crate::log::DEFAULT_SEGMENT_BYTES,
            2,
        );
        doubled.load_graph(&g).unwrap();
        let s: usize = single.bytes_per_server().iter().sum();
        let d: usize = doubled.bytes_per_server().iter().sum();
        assert_eq!(d, 2 * s);
    }

    #[test]
    fn replicated_updates_reach_all_copies() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        let g = b.build().unwrap();
        let tier = StorageTier::with_replication(
            Arc::new(HashPartitioner::new(2)),
            crate::log::DEFAULT_SEGMENT_BYTES,
            2,
        );
        tier.load_graph(&g).unwrap();
        let mut dynamic = DynamicGraph::from_csr(&g);
        dynamic.add_edge(n(0), n(2));
        tier.apply_update(&dynamic, GraphUpdate::AddEdge(n(0), n(2)))
            .unwrap();
        // The updated record is visible even with the primary down.
        let primary = tier.partitioner().assign(n(0));
        tier.mark_down(primary);
        let (_, rec) = tier.get_record(n(0)).unwrap();
        assert!(rec.out().contains(&n(2)));
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_cannot_exceed_servers() {
        let _ = StorageTier::with_replication(
            Arc::new(HashPartitioner::new(2)),
            crate::log::DEFAULT_SEGMENT_BYTES,
            3,
        );
    }

    #[test]
    fn get_many_equals_get_per_node_in_results_and_get_counts() {
        let mut b = GraphBuilder::new();
        for i in 0..30 {
            b.add_edge(n(i), n((i * 7 + 1) % 30));
        }
        let g = b.build().unwrap();
        let build = || {
            let tier = StorageTier::with_replication(
                Arc::new(HashPartitioner::new(3)),
                crate::log::DEFAULT_SEGMENT_BYTES,
                2,
            );
            tier.load_graph(&g).unwrap();
            tier
        };
        let (scalar, batched) = (build(), build());
        // Duplicates, an unknown node, and every primary in turn down (so
        // some lookups walk on to a replica).
        let nodes: Vec<NodeId> = (0..40u32).map(|i| n((i * 11) % 33)).collect();
        for down in [None, Some(0), Some(1), Some(2)] {
            for tier in [&scalar, &batched] {
                if let Some(s) = down {
                    tier.mark_down(s);
                }
            }
            let want: Vec<_> = nodes.iter().map(|&v| scalar.get(v)).collect();
            assert_eq!(batched.get_many(&nodes), want, "down: {down:?}");
            for s in 0..3 {
                assert_eq!(
                    batched.server(s).gets_served(),
                    scalar.server(s).gets_served(),
                    "server {s}, down: {down:?}"
                );
                scalar.mark_up(s);
                batched.mark_up(s);
            }
        }
    }

    #[test]
    fn a_loaded_record_is_read_from_its_sealed_segment_and_a_later_put_reads_back() {
        let (tier, g) = tier_with_path(2);
        for v in g.nodes() {
            // Two reads alive at once: a copy out of an open segment would
            // be two allocations, a slice of the sealed one is one.
            let (_, first) = tier.get(v).unwrap();
            let (_, second) = tier.get(v).unwrap();
            assert_eq!(first.as_ptr(), second.as_ptr(), "{v} was copied");
        }
        let (_, before) = tier.get(n(3)).unwrap();
        let mut dynamic = DynamicGraph::from_csr(&g);
        dynamic.add_edge(n(3), n(7));
        tier.apply_update(&dynamic, GraphUpdate::AddEdge(n(3), n(7)))
            .unwrap();
        let (_, rec3) = tier.get_record(n(3)).unwrap();
        assert_eq!(rec3.out(), [n(4), n(7)]);
        assert_eq!(
            before,
            AdjacencyRecord::from_graph(&g, n(3)).unwrap().encode()
        );
    }

    #[test]
    fn gets_are_counted() {
        let (tier, _) = tier_with_path(2);
        let total_gets = || (0..2).map(|s| tier.server(s).gets_served()).sum::<u64>();
        let before = total_gets();
        let _ = tier.get(n(0));
        let _ = tier.get(n(1));
        assert_eq!(total_gets(), before + 2);
    }
}
