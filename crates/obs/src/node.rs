//! The per-node observability bundle a service loop drives.

use std::collections::BTreeMap;

use grouting_metrics::log_warn;

use crate::recorder::FlightRecorder;
use crate::registry::{render_prometheus, Registry, RegistrySnapshot};
use crate::scrape::ScrapeServer;
use crate::NodeRole;

/// Default sampling cadence: matches the router's mid-run metrics
/// cadence, so pushed registries and `Metrics` frames stay in step.
pub const DEFAULT_SAMPLE_EVERY_NS: u64 = 25_000_000;

/// Sampling intervals the flight recorder retains (~3 s at the default
/// cadence).
const FLIGHT_INTERVALS: usize = 128;

/// How often the scrape listener is probed for pending connections.
/// Service loops call [`NodeObs::poll_scrape`] every round, which on a
/// spin-heavy backend would be an `accept` syscall per round; pacing it
/// caps the idle endpoint at a clock comparison per round while adding
/// at most a millisecond to a scraper's wait.
const SCRAPE_POLL_EVERY_NS: u64 = 1_000_000;

/// Observability deployment knobs (the wire `ClusterConfig::from_env`
/// fills them from `GROUTING_METRICS_ADDR` and `GROUTING_OBS_DUMP`).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// The router's scrape bind address (`GROUTING_METRICS_ADDR`, e.g.
    /// `127.0.0.1:9464`; port 0 picks an ephemeral port). Processors and
    /// storage servers bind the same host on an ephemeral port. `None`
    /// serves no endpoints.
    pub metrics_addr: Option<String>,
    /// Dump every node's flight recorder at teardown
    /// (`GROUTING_OBS_DUMP`); fault events dump regardless.
    pub dump: bool,
    /// Sampling cadence in nanoseconds.
    pub sample_every_ns: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            metrics_addr: None,
            dump: false,
            sample_every_ns: DEFAULT_SAMPLE_EVERY_NS,
        }
    }
}

impl ObsConfig {
    /// Observability off: no sampling, no endpoints, no push frames.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether any node should run the sampler at all.
    pub fn enabled(&self) -> bool {
        self.metrics_addr.is_some() || self.dump
    }

    /// The bind address for one node's endpoint: the router gets the
    /// configured address (it is the cluster-wide scrape point), every
    /// other node the same host with an ephemeral port.
    fn listen_addr(&self, role: NodeRole) -> Option<String> {
        let configured = self.metrics_addr.as_deref()?;
        match role {
            NodeRole::Router => Some(configured.to_string()),
            _ => {
                let host = configured.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
                Some(format!("{host}:0"))
            }
        }
    }
}

/// One node's registry, sampler, flight recorder, and scrape endpoint,
/// polled opportunistically from the node's own service loop.
#[derive(Debug)]
pub struct NodeObs {
    registry: Registry,
    recorder: FlightRecorder,
    scrape: Option<ScrapeServer>,
    sample_every_ns: u64,
    next_sample_ns: u64,
    next_scrape_poll_ns: u64,
    dump_at_teardown: bool,
    latest: Option<RegistrySnapshot>,
    fresh: bool,
    /// Latest pushed snapshot per (role, id) — populated on the router,
    /// rendered into its scrape so one request reads the whole cluster.
    pushed: BTreeMap<(u8, u16), RegistrySnapshot>,
}

impl NodeObs {
    /// Builds the bundle when `cfg` enables observability, `None`
    /// otherwise (the disabled path costs callers one `is_some` check).
    /// A bind failure warns and degrades to sampling without a local
    /// endpoint rather than killing the node.
    pub fn new(role: NodeRole, id: u16, cfg: &ObsConfig) -> Option<Self> {
        if !cfg.enabled() {
            return None;
        }
        let scrape = cfg
            .listen_addr(role)
            .and_then(|addr| match ScrapeServer::bind(&addr) {
                Ok(s) => Some(s),
                Err(e) => {
                    log_warn!(
                        "{} could not bind scrape endpoint {addr}: {e}; serving none",
                        role.node_name(id)
                    );
                    None
                }
            });
        Some(Self {
            registry: Registry::new(role, id),
            recorder: FlightRecorder::new(FLIGHT_INTERVALS),
            scrape,
            sample_every_ns: cfg.sample_every_ns.max(1),
            next_sample_ns: 0,
            next_scrape_poll_ns: 0,
            dump_at_teardown: cfg.dump,
            latest: None,
            fresh: false,
            pushed: BTreeMap::new(),
        })
    }

    /// The `role-id` name of this node.
    pub fn node_name(&self) -> String {
        self.registry.role().node_name(self.registry.id())
    }

    /// Samples if the cadence says so: `fill` repopulates the registry
    /// from the node's authoritative stats, the flight recorder diffs
    /// the result, and the snapshot becomes available to [`take_push`].
    /// Returns whether a sample was taken.
    ///
    /// [`take_push`]: NodeObs::take_push
    pub fn maybe_sample(&mut self, now_ns: u64, fill: impl FnOnce(&mut Registry)) -> bool {
        if now_ns < self.next_sample_ns {
            return false;
        }
        self.next_sample_ns = now_ns + self.sample_every_ns;
        self.registry.begin(now_ns);
        fill(&mut self.registry);
        let snap = self.registry.snapshot();
        self.recorder.record(&snap);
        self.latest = Some(snap);
        self.fresh = true;
        true
    }

    /// The newest snapshot, if one hasn't been pushed yet — processors
    /// and storage servers forward it to the router as an `ObsPush`.
    pub fn take_push(&mut self) -> Option<RegistrySnapshot> {
        if !self.fresh {
            return None;
        }
        self.fresh = false;
        self.latest.clone()
    }

    /// Folds a pushed snapshot in (router side), replacing any previous
    /// one from the same node.
    pub fn absorb_push(&mut self, snap: RegistrySnapshot) {
        self.pushed.insert((snap.role.as_u8(), snap.id), snap);
    }

    /// Answers any pending scrapes with this node's series plus every
    /// pushed registry (cluster-wide on the router, local elsewhere).
    /// Paced to one poll per millisecond (`SCRAPE_POLL_EVERY_NS`), so the
    /// per-round cost with no scraper attached is one comparison, not a
    /// syscall.
    pub fn poll_scrape(&mut self, now_ns: u64) {
        if now_ns < self.next_scrape_poll_ns {
            return;
        }
        self.next_scrape_poll_ns = now_ns + SCRAPE_POLL_EVERY_NS;
        let Some(scrape) = self.scrape.as_mut() else {
            return;
        };
        let latest = &self.latest;
        let pushed = &self.pushed;
        scrape.poll(|| {
            let mut snaps: Vec<&RegistrySnapshot> = Vec::with_capacity(1 + pushed.len());
            snaps.extend(latest.iter());
            snaps.extend(pushed.values());
            render_prometheus(&snaps)
        });
    }

    /// Dumps the flight recorder through the logger (fault events call
    /// this directly; teardown calls it when `GROUTING_OBS_DUMP` asked).
    pub fn dump(&self, reason: &str) {
        self.recorder.dump(&self.node_name(), reason);
    }

    /// Dumps at teardown when configured to.
    pub fn teardown(&self) {
        if self.dump_at_teardown {
            self.dump("teardown");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_cfg(dump: bool) -> ObsConfig {
        ObsConfig {
            metrics_addr: None,
            dump,
            sample_every_ns: 1_000,
        }
    }

    #[test]
    fn disabled_config_builds_nothing() {
        assert!(NodeObs::new(NodeRole::Router, 0, &ObsConfig::disabled()).is_none());
        assert!(!ObsConfig::disabled().enabled());
    }

    #[test]
    fn sampler_honours_cadence_and_feeds_push() {
        let mut obs = NodeObs::new(NodeRole::Processor, 1, &obs_cfg(true)).unwrap();
        assert!(obs.maybe_sample(0, |r| r.counter("grouting_queries_total", 1)));
        assert!(
            !obs.maybe_sample(500, |_| panic!("sampled before cadence")),
            "cadence is 1µs"
        );
        assert!(obs.maybe_sample(1_000, |r| r.counter("grouting_queries_total", 2)));
        let push = obs.take_push().expect("fresh sample pushes");
        assert_eq!(push.samples[0].value, 2.0);
        assert!(obs.take_push().is_none(), "one push per sample");
    }

    #[test]
    fn router_renders_pushed_registries() {
        let mut router = NodeObs::new(NodeRole::Router, 0, &obs_cfg(true)).unwrap();
        let mut proc = NodeObs::new(NodeRole::Processor, 3, &obs_cfg(true)).unwrap();
        proc.maybe_sample(10, |r| r.counter("grouting_cache_hits_total", 7));
        router.absorb_push(proc.take_push().unwrap());
        // Re-push from the same node replaces, not appends.
        proc.maybe_sample(2_000, |r| r.counter("grouting_cache_hits_total", 9));
        router.absorb_push(proc.take_push().unwrap());
        assert_eq!(router.pushed.len(), 1);
        assert_eq!(router.pushed.values().next().unwrap().samples[0].value, 9.0);
        router.teardown();
    }

    #[test]
    fn listen_addr_routes_by_role() {
        let cfg = ObsConfig {
            metrics_addr: Some("127.0.0.1:9464".to_string()),
            dump: false,
            sample_every_ns: 1,
        };
        assert_eq!(
            cfg.listen_addr(NodeRole::Router).as_deref(),
            Some("127.0.0.1:9464")
        );
        assert_eq!(
            cfg.listen_addr(NodeRole::Storage).as_deref(),
            Some("127.0.0.1:0")
        );
        assert_eq!(ObsConfig::disabled().listen_addr(NodeRole::Router), None);
    }
}
