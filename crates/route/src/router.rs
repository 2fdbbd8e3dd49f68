//! The query router: queues, ack-driven dispatch, stealing, fault masking.
//!
//! "The router sends the next query to a processor only when it receives an
//! acknowledgement for the previous query from that processor. The router
//! also keeps a queue for each connection … by monitoring the length of
//! these queues, it can estimate how busy a processor is" (§3.2). Query
//! stealing (Requirement 2) happens here: an idle processor with an empty
//! queue takes the oldest query from the longest other queue.

use std::collections::VecDeque;

use grouting_query::Query;

use crate::strategy::Strategy;

/// Router tuning.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Load factor of Eq. 3/7 (the paper settles on 20).
    pub load_factor: f64,
    /// Whether idle processors steal from busy ones (Requirement 2).
    pub stealing: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            load_factor: 20.0,
            stealing: true,
        }
    }
}

/// The router in front of the processing tier.
#[derive(Debug, Clone)]
pub struct Router {
    strategy: Strategy,
    config: RouterConfig,
    /// Per-processor pending queues.
    queues: Vec<VecDeque<(u64, Query)>>,
    /// Queue for strategies without a per-query preference (next-ready).
    global: VecDeque<(u64, Query)>,
    up: Vec<bool>,
    dispatched: u64,
    stolen: u64,
}

impl Router {
    /// Creates a router over `processors` processors.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn new(strategy: Strategy, processors: usize, config: RouterConfig) -> Self {
        assert!(processors > 0, "zero processors");
        Self {
            strategy,
            config,
            queues: (0..processors).map(|_| VecDeque::new()).collect(),
            global: VecDeque::new(),
            up: vec![true; processors],
            dispatched: 0,
            stolen: 0,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.queues.len()
    }

    /// The strategy driving this router.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Current queue lengths (the paper's per-processor load measure).
    pub fn loads(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Queries waiting in all queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.global.len()
    }

    /// Queries dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Queries that were stolen rather than served by their preferred
    /// processor.
    pub fn stolen(&self) -> u64 {
        self.stolen
    }

    /// Accepts a query into the appropriate queue.
    pub fn submit(&mut self, seq: u64, query: Query) {
        let loads = self.loads();
        match self
            .strategy
            .preferred(&query, &loads, &self.up, self.config.load_factor)
        {
            Some(p) => self.queues[p].push_back((seq, query)),
            None => self.global.push_back((seq, query)),
        }
    }

    /// Called when `processor` is ready for work (startup or after an ack):
    /// pops its own queue, then the global queue, then — with stealing
    /// enabled — the longest other queue.
    pub fn next_for(&mut self, processor: usize) -> Option<(u64, Query)> {
        if !self.up[processor] {
            return None;
        }
        let picked = if let Some(item) = self.queues[processor].pop_front() {
            Some(item)
        } else if let Some(item) = self.global.pop_front() {
            Some(item)
        } else if self.config.stealing {
            // Steal from the longest queue — from its *back*: the owner
            // drains its queue front-to-back, so the back holds the queries
            // farthest in the future (typically a later hotspot), and
            // stealing there disturbs the owner's cache locality least.
            let victim = (0..self.queues.len())
                .filter(|&p| p != processor && !self.queues[p].is_empty())
                .max_by_key(|&p| self.queues[p].len());
            match victim {
                Some(v) => {
                    let item = self.queues[v].pop_back();
                    if item.is_some() {
                        self.stolen += 1;
                    }
                    item
                }
                None => None,
            }
        } else {
            None
        };
        if let Some((_, ref q)) = picked {
            self.strategy.on_dispatch(q, processor);
            self.dispatched += 1;
        }
        picked
    }

    /// Marks a processor as failed; its queued work is redistributed
    /// through the strategy (which now sees it as down).
    pub fn mark_down(&mut self, processor: usize) {
        if !self.up[processor] {
            return;
        }
        self.up[processor] = false;
        let orphaned: Vec<(u64, Query)> = self.queues[processor].drain(..).collect();
        for (seq, q) in orphaned {
            self.submit(seq, q);
        }
    }

    /// Brings a processor back into rotation.
    pub fn mark_up(&mut self, processor: usize) {
        self.up[processor] = true;
    }

    /// Whether the processor is currently routed to.
    pub fn is_up(&self, processor: usize) -> bool {
        self.up[processor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::NodeId;
    use grouting_query::Query;

    fn q(node: u32) -> Query {
        Query::NeighborAggregation {
            node: NodeId::new(node),
            hops: 2,
            label: None,
        }
    }

    fn hash_router(processors: usize) -> Router {
        Router::new(Strategy::Hash, processors, RouterConfig::default())
    }

    #[test]
    fn hash_routes_by_modulo_and_dispatches() {
        let mut r = hash_router(3);
        r.submit(0, q(3)); // → processor 0
        r.submit(1, q(4)); // → processor 1
        assert_eq!(r.loads(), vec![1, 1, 0]);
        let (seq, _) = r.next_for(0).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(r.dispatched(), 1);
    }

    #[test]
    fn idle_processor_steals() {
        let mut r = hash_router(2);
        // All queries hash to processor 0.
        for i in 0..4 {
            r.submit(i, q(0));
        }
        assert_eq!(r.loads(), vec![4, 0]);
        let stolen = r.next_for(1).unwrap();
        // Thieves take from the back of the victim's queue (the most
        // recently submitted query) to preserve the owner's locality run.
        assert_eq!(stolen.0, 3, "steals the newest");
        assert_eq!(r.stolen(), 1);
        assert_eq!(r.loads(), vec![3, 0]);
    }

    #[test]
    fn steal_victim_is_the_longest_queue() {
        let mut r = hash_router(3);
        // One query for processor 0, three for processor 1.
        r.submit(0, q(0));
        for i in 1..=3 {
            r.submit(i, q(1));
        }
        assert_eq!(r.loads(), vec![1, 3, 0]);
        // Idle processor 2 must raid the longest queue (processor 1) and
        // take its newest entry.
        assert_eq!(r.next_for(2).unwrap().0, 3);
        assert_eq!(r.loads(), vec![1, 2, 0]);
        assert_eq!(r.stolen(), 1);
    }

    #[test]
    fn own_queue_is_served_before_stealing() {
        let mut r = hash_router(2);
        r.submit(0, q(0)); // → processor 0
        r.submit(1, q(1)); // → processor 1

        // Processor 1's queue is now the longest, but processor 0 has
        // local work, so it must not steal.
        r.submit(2, q(1));
        assert_eq!(r.next_for(0).unwrap().0, 0);
        assert_eq!(r.stolen(), 0);
    }

    #[test]
    fn stealing_drains_a_single_hot_queue_across_processors() {
        // Requirement 2: a hash-skewed workload (every query anchored on
        // one node) still completes with every processor contributing.
        let mut r = hash_router(2);
        for i in 0..8 {
            r.submit(i, q(0)); // all → processor 0
        }
        let mut served = [0u64; 2];
        let mut turn = 0;
        while r.pending() > 0 {
            if r.next_for(turn).is_some() {
                served[turn] += 1;
            }
            turn = (turn + 1) % 2;
        }
        assert_eq!(served[0] + served[1], 8, "no query lost");
        assert!(served[1] > 0, "idle processor never stole");
        assert_eq!(r.stolen(), served[1]);
        assert_eq!(r.dispatched(), 8);
    }

    #[test]
    fn stealing_can_be_disabled() {
        let mut r = Router::new(
            Strategy::Hash,
            2,
            RouterConfig {
                stealing: false,
                ..Default::default()
            },
        );
        r.submit(0, q(0));
        assert!(r.next_for(1).is_none());
        assert!(r.next_for(0).is_some());
    }

    #[test]
    fn next_ready_uses_global_queue() {
        let mut r = Router::new(
            Strategy::NextReady { no_cache: false },
            3,
            RouterConfig::default(),
        );
        r.submit(0, q(9));
        r.submit(1, q(10));
        assert_eq!(r.loads(), vec![0, 0, 0]);
        assert_eq!(r.pending(), 2);
        // Any processor can take the next query, in submission order.
        assert_eq!(r.next_for(2).unwrap().0, 0);
        assert_eq!(r.next_for(0).unwrap().0, 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn down_processor_gets_no_work_and_queue_drains() {
        let mut r = hash_router(2);
        for i in 0..4 {
            r.submit(i, q(0)); // all to processor 0
        }
        r.mark_down(0);
        assert!(!r.is_up(0));
        // Work re-routed to processor 1 (hash walks modulo order past 0).
        assert_eq!(r.loads()[1], 4);
        assert!(r.next_for(0).is_none());
        assert!(r.next_for(1).is_some());
        r.mark_up(0);
        assert!(r.is_up(0));
        assert!(r.next_for(0).is_some());
    }

    #[test]
    fn submissions_while_down_avoid_the_dead_processor() {
        let mut r = hash_router(2);
        r.mark_down(0);
        r.submit(0, q(0));
        r.submit(1, q(2));
        assert_eq!(r.loads(), vec![0, 2]);
    }

    #[test]
    fn dispatch_and_steal_counters() {
        let mut r = hash_router(2);
        r.submit(0, q(0));
        r.submit(1, q(0));
        let _ = r.next_for(0);
        let _ = r.next_for(1); // steal
        assert_eq!(r.dispatched(), 2);
        assert_eq!(r.stolen(), 1);
    }

    #[test]
    #[should_panic(expected = "zero processors")]
    fn rejects_zero_processors() {
        let _ = Router::new(Strategy::Hash, 0, RouterConfig::default());
    }

    proptest::proptest! {
        /// Conservation: every submitted query is dispatched exactly once,
        /// regardless of the interleaving of submissions, dispatch
        /// requests, and processor failures (as long as one processor
        /// survives).
        #[test]
        fn prop_no_query_lost_or_duplicated(
            ops in proptest::collection::vec((0u8..4, 0u32..64, 0usize..4), 1..200),
        ) {
            let mut r = Router::new(Strategy::Hash, 4, RouterConfig::default());
            let mut submitted = 0u64;
            let mut seen = std::collections::HashSet::new();
            for (op, node, proc_) in ops {
                match op {
                    0 | 1 => {
                        r.submit(submitted, q(node));
                        submitted += 1;
                    }
                    2 => {
                        if let Some((seq, _)) = r.next_for(proc_) {
                            proptest::prop_assert!(seen.insert(seq), "duplicate {seq}");
                        }
                    }
                    _ => {
                        // Never kill the last processor.
                        if (0..4).filter(|&p| r.is_up(p)).count() > 1 {
                            r.mark_down(proc_);
                        } else {
                            r.mark_up(proc_);
                        }
                    }
                }
            }
            // Drain everything through the surviving processors.
            let mut guard = 0;
            while r.pending() > 0 && guard < 10_000 {
                guard += 1;
                for p in 0..4 {
                    if let Some((seq, _)) = r.next_for(p) {
                        proptest::prop_assert!(seen.insert(seq), "duplicate {seq}");
                    }
                }
                if (0..4).all(|p| !r.is_up(p)) {
                    r.mark_up(0);
                }
            }
            proptest::prop_assert_eq!(seen.len() as u64, submitted);
            proptest::prop_assert_eq!(r.dispatched(), submitted);
        }
    }
}
