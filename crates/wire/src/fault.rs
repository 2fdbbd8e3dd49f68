//! Deterministic fault injection for the wire transports.
//!
//! The paper's availability story (§4.1) rests on recovery paths — redial,
//! replica failover, resubmission — that only run when connections die at
//! awkward moments. This module makes those moments scriptable: a
//! [`FaultPlan`] holds an ordered list of [`FaultRule`]s, and
//! [`FaultyTransport`] wraps any [`Transport`] so that dials and the
//! connections they produce misbehave exactly as scripted. Every fault is
//! counted down deterministically (no randomness, no timing races beyond
//! the delays the script itself asks for), so a failing recovery path
//! replays identically from the same plan.
//!
//! Faults arm on the *dialling* side, which is where every recovery path
//! in this crate lives: the batch multiplexer reacts to send/receive
//! errors on connections it dialled.
//!
//! Plans come from two places:
//!
//! * programmatically, via [`FaultPlan::with`] and
//!   `ClusterConfig::with_faults`;
//! * the `GROUTING_FAULTS` environment variable — semicolon-separated
//!   rules `kill:N`, `trunc:N:K`, `delay:MS`, `refuse:MS`, each with an
//!   optional `@substr` suffix restricting it to addresses containing
//!   `substr` (e.g. `GROUTING_FAULTS="kill:3@:9100;refuse:50@:9100"`).
//!   Invalid values warn via `GROUTING_LOG`, naming the value, and are
//!   ignored.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grouting_metrics::log_warn;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::transport::{Connection, FrameSink, FrameStream, Listener, Transport};

/// What a single fault does to the connection (or dial) it arms on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The connection dies after `N` frames have been sent through it:
    /// sends `0..N` succeed, send `N` (and everything after, both halves)
    /// fails with [`WireError::Closed`].
    KillAfterFrames(u64),
    /// Send number `frame` (0-based) goes out truncated to `keep_bytes`
    /// bytes of its encoding, then the connection dies. The peer is left
    /// holding a torn frame — the reassembly-safety scenario.
    TruncateFrame {
        /// Which send (0-based) to tear.
        frame: u64,
        /// How many bytes of the encoding to let through.
        keep_bytes: usize,
    },
    /// Every send through the connection is delayed by this much first —
    /// for latency-tolerance tests, not a failure per se.
    DelaySend(Duration),
    /// Dials to the target fail with [`WireError::Unroutable`] for this
    /// long, starting at the first refused attempt — models an endpoint
    /// that is down and later comes back.
    RefuseDials(Duration),
}

/// One scripted fault: a kind, an optional address filter, and how many
/// connections (or, for [`FaultKind::RefuseDials`], outage windows) it
/// arms on before it is spent.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Substring of the dialled address this rule applies to; `None`
    /// matches every dial.
    pub target: Option<String>,
    /// What happens.
    pub kind: FaultKind,
    /// How many times the rule fires before it is spent (default 1).
    pub times: u32,
}

impl FaultRule {
    /// A rule firing once on any address.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            target: None,
            kind,
            times: 1,
        }
    }

    /// Restricts the rule to addresses containing `substr`.
    #[must_use]
    pub fn on(mut self, substr: impl Into<String>) -> Self {
        self.target = Some(substr.into());
        self
    }

    /// Fires up to `times` times instead of once.
    #[must_use]
    pub fn times(mut self, times: u32) -> Self {
        self.times = times.max(1);
        self
    }

    fn matches(&self, addr: &str) -> bool {
        self.target.as_deref().is_none_or(|t| addr.contains(t))
    }
}

struct RuleState {
    rule: FaultRule,
    remaining: u32,
    /// For [`FaultKind::RefuseDials`]: the end of the current outage
    /// window, opened by the first refused dial.
    refuse_until: Option<Instant>,
}

/// A shared, ordered script of [`FaultRule`]s. Cloning shares the
/// countdowns, so the plan handed to a cluster and the one a test keeps
/// observe the same spend state.
#[derive(Clone, Default)]
pub struct FaultPlan {
    rules: Arc<Mutex<Vec<RuleState>>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rules = self.rules.lock().expect("fault plan lock");
        f.debug_struct("FaultPlan")
            .field("rules", &rules.len())
            .field("remaining", &rules.iter().map(|r| r.remaining).sum::<u32>())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule.
    #[must_use]
    pub fn with(self, rule: FaultRule) -> Self {
        self.push(rule);
        self
    }

    /// Appends a rule in place.
    pub fn push(&self, rule: FaultRule) {
        let mut rules = self.rules.lock().expect("fault plan lock");
        let remaining = rule.times;
        rules.push(RuleState {
            rule,
            remaining,
            refuse_until: None,
        });
    }

    /// True when no rule can still fire — wrapping a transport with such a
    /// plan is a no-op and [`FaultyTransport::wrap`] skips it.
    pub fn is_empty(&self) -> bool {
        self.rules
            .lock()
            .expect("fault plan lock")
            .iter()
            .all(|r| r.remaining == 0)
    }

    /// Parses `GROUTING_FAULTS` (see the module docs for the grammar).
    /// Unset yields an empty plan; invalid rules warn and are skipped.
    pub fn from_env() -> Self {
        match std::env::var("GROUTING_FAULTS") {
            Ok(raw) => Self::parse(&raw),
            Err(_) => Self::new(),
        }
    }

    fn parse(raw: &str) -> Self {
        let plan = Self::new();
        for spec in raw.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            match Self::parse_rule(spec) {
                Some(rule) => plan.push(rule),
                None => log_warn!(
                    "invalid GROUTING_FAULTS rule {spec:?} (expected kill:N, trunc:N:K, \
                     delay:MS, or refuse:MS, optionally @substr); skipping it"
                ),
            }
        }
        plan
    }

    fn parse_rule(spec: &str) -> Option<FaultRule> {
        let (body, target) = match spec.split_once('@') {
            Some((body, target)) if !target.is_empty() => (body, Some(target.to_string())),
            Some(_) => return None,
            None => (spec, None),
        };
        let mut parts = body.split(':');
        let kind = match parts.next()?.trim() {
            "kill" => FaultKind::KillAfterFrames(parts.next()?.trim().parse().ok()?),
            "trunc" => FaultKind::TruncateFrame {
                frame: parts.next()?.trim().parse().ok()?,
                keep_bytes: parts.next()?.trim().parse().ok()?,
            },
            "delay" => {
                FaultKind::DelaySend(Duration::from_millis(parts.next()?.trim().parse().ok()?))
            }
            "refuse" => {
                FaultKind::RefuseDials(Duration::from_millis(parts.next()?.trim().parse().ok()?))
            }
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(FaultRule {
            target,
            kind,
            times: 1,
        })
    }

    /// Consults the refuse rules for a dial to `addr`. The first refused
    /// attempt opens the outage window; once it has elapsed the rule is
    /// spent and dials pass again.
    fn check_dial(&self, addr: &str) -> WireResult<()> {
        let mut rules = self.rules.lock().expect("fault plan lock");
        for state in rules.iter_mut() {
            let FaultKind::RefuseDials(window) = state.rule.kind else {
                continue;
            };
            if state.remaining == 0 || !state.rule.matches(addr) {
                continue;
            }
            let now = Instant::now();
            match state.refuse_until {
                None => {
                    state.refuse_until = Some(now + window);
                    return Err(WireError::Unroutable(format!(
                        "{addr} (scripted refuse for {window:?})"
                    )));
                }
                Some(until) if now < until => {
                    return Err(WireError::Unroutable(format!(
                        "{addr} (scripted refuse, {:?} left)",
                        until - now
                    )));
                }
                Some(_) => {
                    state.remaining -= 1;
                    state.refuse_until = None;
                }
            }
        }
        Ok(())
    }

    /// Arms the first matching connection-scoped rule (if any) on a
    /// freshly dialled connection.
    fn arm(&self, addr: &str, conn: Connection) -> Connection {
        let kind = {
            let mut rules = self.rules.lock().expect("fault plan lock");
            rules
                .iter_mut()
                .find(|s| {
                    s.remaining > 0
                        && !matches!(s.rule.kind, FaultKind::RefuseDials(_))
                        && s.rule.matches(addr)
                })
                .map(|s| {
                    s.remaining -= 1;
                    s.rule.kind
                })
        };
        let Some(kind) = kind else {
            return conn;
        };
        let fault = Arc::new(ConnFault {
            kind,
            sent: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        let (sink, stream) = conn.split();
        Connection::from_halves(
            Box::new(FaultySink {
                inner: Some(sink),
                fault: Arc::clone(&fault),
            }),
            Box::new(FaultyStream {
                inner: Some(stream),
                fault,
            }),
        )
    }
}

/// Shared per-connection fault state: the scripted kind, how many frames
/// the sink has let through, and whether the fault has fired.
struct ConnFault {
    kind: FaultKind,
    sent: AtomicU64,
    dead: AtomicBool,
}

struct FaultySink {
    inner: Option<Box<dyn FrameSink>>,
    fault: Arc<ConnFault>,
}

impl FrameSink for FaultySink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        if self.fault.dead.load(Ordering::Acquire) {
            self.inner = None;
            return Err(WireError::Closed);
        }
        let seq = self.fault.sent.fetch_add(1, Ordering::AcqRel);
        match self.fault.kind {
            FaultKind::KillAfterFrames(n) if seq >= n => {
                self.fault.dead.store(true, Ordering::Release);
                self.inner = None;
                Err(WireError::Closed)
            }
            FaultKind::TruncateFrame {
                frame: at,
                keep_bytes,
            } if seq == at => {
                if let Some(inner) = self.inner.as_mut() {
                    let _ = inner.send_truncated(frame, keep_bytes);
                }
                self.fault.dead.store(true, Ordering::Release);
                self.inner = None;
                Err(WireError::Closed)
            }
            FaultKind::DelaySend(pause) => {
                std::thread::sleep(pause);
                self.forward(frame)
            }
            _ => self.forward(frame),
        }
    }
}

impl FaultySink {
    fn forward(&mut self, frame: &Frame) -> WireResult<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.send(frame),
            None => Err(WireError::Closed),
        }
    }
}

struct FaultyStream {
    inner: Option<Box<dyn FrameStream>>,
    fault: Arc<ConnFault>,
}

impl FaultyStream {
    /// Drops the inner half once the fault has fired so the peer observes
    /// the close; afterwards every receive reports [`WireError::Closed`].
    fn gate(&mut self) -> WireResult<&mut Box<dyn FrameStream>> {
        if self.fault.dead.load(Ordering::Acquire) {
            self.inner = None;
        }
        self.inner.as_mut().ok_or(WireError::Closed)
    }
}

impl FrameStream for FaultyStream {
    fn recv(&mut self) -> WireResult<Frame> {
        self.gate()?.recv()
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        self.gate()?.try_recv()
    }

    // Deliberately no `raw_fd` override returning the inner fd: a faulted
    // connection must not be parked in a kernel poller, because the fault
    // fires on the *send* side and the fd would never signal readability.
    // Reporting fd-less routes the connection onto the reactors' periodic
    // sweep path, where `try_recv` observes the death promptly.
}

/// A [`Transport`] decorator injecting the faults a [`FaultPlan`]
/// scripts. Listening is untouched; dialling consults the refuse rules
/// and arms connection-scoped rules on the connections it returns.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
}

impl FaultyTransport {
    /// Wraps `inner` — or returns it unchanged when the plan is empty, so
    /// the fault layer costs nothing unless scripted.
    pub fn wrap(inner: Arc<dyn Transport>, plan: FaultPlan) -> Arc<dyn Transport> {
        if plan.is_empty() {
            inner
        } else {
            Arc::new(Self { inner, plan })
        }
    }
}

impl Transport for FaultyTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        self.inner.listen(addr)
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        self.plan.check_dial(addr)?;
        Ok(self.plan.arm(addr, self.inner.dial(addr)?))
    }

    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        self.plan.check_dial(addr)?;
        Ok(self.plan.arm(addr, self.inner.dial_once(addr)?))
    }

    fn any_addr(&self) -> String {
        self.inner.any_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcTransport, TcpTransport};
    use grouting_graph::NodeId;

    fn frame(i: u32) -> Frame {
        Frame::FetchBatchRequest {
            req_id: u64::from(i),
            nodes: vec![NodeId::new(i)],
            issued_ns: None,
        }
    }

    fn echoing(transport: &dyn Transport) -> (String, std::thread::JoinHandle<()>) {
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                std::thread::spawn(move || {
                    while let Ok(f) = conn.recv() {
                        if matches!(f, Frame::Shutdown) {
                            return; // Shut the whole server down via drop.
                        }
                        if conn.send(&f).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, server)
    }

    fn kill_after_frames_over(inner: Arc<dyn Transport>) {
        let (addr, _server) = echoing(&*inner);
        let plan = FaultPlan::new().with(FaultRule::new(FaultKind::KillAfterFrames(2)));
        let t = FaultyTransport::wrap(Arc::clone(&inner), plan.clone());
        let mut conn = t.dial(&addr).unwrap();
        assert_eq!(conn.request(&frame(0)).unwrap(), frame(0));
        assert_eq!(conn.request(&frame(1)).unwrap(), frame(1));
        assert!(matches!(conn.send(&frame(2)), Err(WireError::Closed)));
        assert!(matches!(conn.recv(), Err(WireError::Closed)));
        // The rule is spent: a redial gets a clean connection.
        assert!(plan.is_empty());
        let mut fresh = t.dial(&addr).unwrap();
        assert_eq!(fresh.request(&frame(3)).unwrap(), frame(3));
    }

    #[test]
    fn kill_after_frames_inproc() {
        kill_after_frames_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn kill_after_frames_tcp() {
        kill_after_frames_over(Arc::new(TcpTransport::new()));
    }

    fn truncate_tears_frame_over(inner: Arc<dyn Transport>) {
        let mut listener = inner.listen(&inner.any_addr()).unwrap();
        let addr = listener.addr();
        let t = FaultyTransport::wrap(
            Arc::clone(&inner),
            FaultPlan::new().with(FaultRule::new(FaultKind::TruncateFrame {
                frame: 1,
                keep_bytes: 3,
            })),
        );
        let mut conn = t.dial(&addr).unwrap();
        let mut server_side = listener.accept().unwrap();
        conn.send(&frame(0)).unwrap();
        assert_eq!(server_side.recv().unwrap(), frame(0));
        // The second send is torn mid-frame; the sender learns immediately.
        assert!(matches!(conn.send(&frame(1)), Err(WireError::Closed)));
        drop(conn);
        // The peer never assembles a frame from the torn bytes.
        match server_side.recv() {
            Err(WireError::Closed) | Err(WireError::Codec(_)) => {}
            other => panic!("torn frame surfaced as {other:?}"),
        }
    }

    #[test]
    fn truncate_tears_frame_inproc() {
        truncate_tears_frame_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn truncate_tears_frame_tcp() {
        truncate_tears_frame_over(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn delay_send_pauses_but_delivers() {
        let inner: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let (addr, _server) = echoing(&*inner);
        let pause = Duration::from_millis(30);
        let t = FaultyTransport::wrap(
            Arc::clone(&inner),
            FaultPlan::new().with(FaultRule::new(FaultKind::DelaySend(pause)).times(2)),
        );
        let mut conn = t.dial(&addr).unwrap();
        let started = Instant::now();
        assert_eq!(conn.request(&frame(7)).unwrap(), frame(7));
        assert!(started.elapsed() >= pause);
    }

    #[test]
    fn refuse_dials_opens_then_closes_a_window() {
        let inner: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let (addr, _server) = echoing(&*inner);
        let t = FaultyTransport::wrap(
            Arc::clone(&inner),
            FaultPlan::new()
                .with(FaultRule::new(FaultKind::RefuseDials(Duration::from_millis(40))).on(&addr)),
        );
        // First attempt opens the outage window; attempts inside it fail.
        assert!(matches!(t.dial(&addr), Err(WireError::Unroutable(_))));
        assert!(matches!(t.dial(&addr), Err(WireError::Unroutable(_))));
        std::thread::sleep(Duration::from_millis(50));
        // The endpoint is "back": the dial passes and the rule is spent.
        let mut conn = t.dial(&addr).unwrap();
        assert_eq!(conn.request(&frame(1)).unwrap(), frame(1));
    }

    #[test]
    fn rules_target_by_substring() {
        let inner: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let (addr_a, _sa) = echoing(&*inner);
        let (addr_b, _sb) = echoing(&*inner);
        let t = FaultyTransport::wrap(
            Arc::clone(&inner),
            FaultPlan::new().with(FaultRule::new(FaultKind::KillAfterFrames(0)).on(&addr_a)),
        );
        // addr_b is untouched even though it dials first.
        let mut ok = t.dial(&addr_b).unwrap();
        assert_eq!(ok.request(&frame(5)).unwrap(), frame(5));
        let mut doomed = t.dial(&addr_a).unwrap();
        assert!(matches!(doomed.send(&frame(6)), Err(WireError::Closed)));
    }

    #[test]
    fn empty_plan_wrap_is_identity() {
        let inner: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let wrapped = FaultyTransport::wrap(Arc::clone(&inner), FaultPlan::new());
        assert!(Arc::ptr_eq(
            &(Arc::clone(&wrapped) as Arc<dyn Transport>),
            &wrapped
        ));
        // An armed connection from an empty plan keeps its raw fd (no
        // wrapper): sanity-check via a TCP dial through a non-empty plan
        // that targets a different address.
        let tcp: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let (addr, _server) = echoing(&*tcp);
        let t = FaultyTransport::wrap(
            Arc::clone(&tcp),
            FaultPlan::new().with(FaultRule::new(FaultKind::KillAfterFrames(1)).on("elsewhere")),
        );
        let conn = t.dial(&addr).unwrap();
        assert!(conn.raw_fd().is_some(), "unfaulted dial keeps its fd");
    }

    #[test]
    fn env_grammar_parses_and_skips_invalid() {
        let plan =
            FaultPlan::parse("kill:3@:9100; trunc:0:5 ;delay:10;refuse:250@stor;bogus:1;kill:x");
        let rules = plan.rules.lock().unwrap();
        let kinds: Vec<_> = rules.iter().map(|r| r.rule.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::KillAfterFrames(3),
                FaultKind::TruncateFrame {
                    frame: 0,
                    keep_bytes: 5
                },
                FaultKind::DelaySend(Duration::from_millis(10)),
                FaultKind::RefuseDials(Duration::from_millis(250)),
            ]
        );
        assert_eq!(rules[0].rule.target.as_deref(), Some(":9100"));
        assert_eq!(rules[3].rule.target.as_deref(), Some("stor"));
        assert!(rules.iter().all(|r| r.remaining == 1));
    }
}
