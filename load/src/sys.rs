//! Process accounting from `/proc` and the small statistics the reports
//! need. The benchmark runs on Linux only (the repo's epoll reactor is the
//! deployment under test).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// user+sys CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_seconds(path: &str) -> f64 {
    let text = fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // after its closing parenthesis. utime and stime are fields 14 and 15.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kb(&text, "VmHWM:") / 1024.0
}

fn status_kb(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// `(threads, context switches)` summed over every thread of the process.
pub fn threads_and_ctx_switches() -> (usize, u64) {
    let mut threads = 0usize;
    let mut switches = 0u64;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        threads += 1;
        let text = fs::read_to_string(task.path().join("status")).unwrap_or_default();
        switches += status_kb(&text, "voluntary_ctxt_switches:") as u64
            + status_kb(&text, "nonvoluntary_ctxt_switches:") as u64;
    }
    (threads, switches)
}

/// The `q`-quantile (nearest rank) of `sorted`; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Sorts and returns the values, for [`quantile`].
pub fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

/// Median of a small sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the layer was not exercised (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = sorted((1..=100).rev().collect());
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.999), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
    }

    #[test]
    fn median_and_ratio_handle_the_edges() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn proc_accounting_reads_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > 0.0);
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        let (threads, _) = threads_and_ctx_switches();
        assert!(threads >= 1);
    }
}
