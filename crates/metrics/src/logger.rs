//! A tiny leveled stderr logger shared by every gRouting crate.
//!
//! The runtimes used to scatter ad-hoc `eprintln!` warnings (bad env
//! values, fallback decisions); this module gives them one levelled
//! funnel with zero dependencies. The threshold comes from
//! `GROUTING_LOG=error|warn|info|debug` (default `warn`), read once on
//! first use; tests and embedders can override it with [`set_level`].
//!
//! Call sites use the exported macros, which skip formatting entirely
//! when the level is disabled:
//!
//! ```
//! grouting_metrics::log_warn!("cache over budget by {} bytes", 42);
//! grouting_metrics::log_debug!("telemetry: {} frames", 7);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Suspicious configuration or masked degradation (the default
    /// threshold).
    Warn = 1,
    /// Notable lifecycle events.
    Info = 2,
    /// High-volume diagnostics (telemetry samples, span dumps).
    Debug = 3,
}

impl Level {
    /// The lowercase name used in output and in `GROUTING_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// Parses a `GROUTING_LOG` value; `None` on unknown spellings.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Sentinel for "not yet initialised from the environment".
const UNSET: u8 = u8::MAX;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNSET);

fn threshold() -> Level {
    let raw = THRESHOLD.load(Ordering::Relaxed);
    if raw != UNSET {
        return Level::from_u8(raw);
    }
    let level = match std::env::var("GROUTING_LOG") {
        Ok(v) => Level::parse(&v).unwrap_or_else(|| {
            // Can't recurse through the logger while initialising it.
            eprintln!("[grouting warn] unknown GROUTING_LOG value {v:?}; using `warn`");
            Level::Warn
        }),
        Err(_) => Level::Warn,
    };
    // A racing initialiser computed the same value; either store wins.
    THRESHOLD.store(level as u8, Ordering::Relaxed);
    level
}

/// Whether messages at `level` currently pass the threshold.
#[inline]
pub fn enabled(level: Level) -> bool {
    level <= threshold()
}

/// Overrides the threshold (normally read once from `GROUTING_LOG`).
pub fn set_level(level: Level) {
    THRESHOLD.store(level as u8, Ordering::Relaxed);
}

thread_local! {
    /// The node identity of the current thread ("router", "proc-2",
    /// "storage-0") — every service tier runs as its own thread, so a
    /// thread-local is exactly one node's identity.
    static NODE_ROLE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Tags every record this thread emits with a node identity, so chaos
/// runs with interleaved multi-node stderr stay attributable. Service
/// threads call this once at startup; pass e.g. `"proc-3"`.
pub fn set_node_role(role: impl Into<String>) {
    NODE_ROLE.with(|r| *r.borrow_mut() = Some(role.into()));
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Writes one record to stderr, prefixed with seconds since the process's
/// first log record and this thread's node role (when set). Prefer the
/// `log_*` macros, which check [`enabled`] before formatting.
pub fn emit(level: Level, args: fmt::Arguments<'_>) {
    let t = epoch().elapsed().as_secs_f64();
    // The record is formatted whole and written once, so concurrent
    // services don't interleave mid-line. `eprint!` (rather than a raw
    // `io::stderr()` write) lets the test harness capture the record with
    // the test that emitted it instead of splicing it into its report.
    let line = NODE_ROLE.with(|r| match r.borrow().as_deref() {
        Some(role) => format!("[grouting {t:9.3}s {role} {level}] {args}\n"),
        None => format!("[grouting {t:9.3}s {level}] {args}\n"),
    });
    eprint!("{line}");
}

/// Logs at error level.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Error) {
            $crate::logger::emit($crate::logger::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at warn level (the default threshold).
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Warn) {
            $crate::logger::emit($crate::logger::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at info level.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Info) {
            $crate::logger::emit($crate::logger::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at debug level.
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Debug) {
            $crate::logger::emit($crate::logger::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_from_severe_to_verbose() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_known_and_unknown() {
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn threshold_gates_enabled() {
        // The threshold is process-global; restore the default afterwards
        // so other tests in this binary see the usual `warn`.
        set_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Warn));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
    }

    #[test]
    fn macros_compile_and_respect_threshold() {
        set_level(Level::Warn);
        log_error!("error path {}", 1);
        log_warn!("warn path {}", 2);
        log_info!("info path (suppressed) {}", 3);
        log_debug!("debug path (suppressed) {}", 4);
    }

    #[test]
    fn node_role_is_per_thread() {
        set_node_role("router");
        NODE_ROLE.with(|r| assert_eq!(r.borrow().as_deref(), Some("router")));
        std::thread::spawn(|| {
            // A fresh thread has no role until it declares one.
            NODE_ROLE.with(|r| assert!(r.borrow().is_none()));
            set_node_role("proc-1");
            NODE_ROLE.with(|r| assert_eq!(r.borrow().as_deref(), Some("proc-1")));
        })
        .join()
        .unwrap();
        NODE_ROLE.with(|r| assert_eq!(r.borrow().as_deref(), Some("router")));
    }
}
