//! Process accounting from `/proc`, for noise reporting. Every reader
//! returns `None` where `/proc` is absent or unreadable, and the metrics
//! built on it are then left out.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_s() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Seconds this thread has waited on a run queue for a CPU.
pub fn runq_wait_s() -> Option<f64> {
    parse_schedstat_wait(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so utime/stime (14, 15) are 11 and 12 on.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

fn parse_schedstat_wait(schedstat: &str) -> Option<f64> {
    let wait_ns: f64 = schedstat.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(wait_ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command() {
        let stat = "4242 (my (odd) prog) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0 99 1 1";
        assert_eq!(parse_stat_cpu(stat), Some(2.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn parses_schedstat_wait() {
        assert_eq!(parse_schedstat_wait("123456 2500000000 77\n"), Some(2.5));
        assert_eq!(parse_schedstat_wait(""), None);
    }
}
