//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! Every reader returns `None` where `/proc` is missing or unparsable, so
//! the caller omits the metric instead of reporting a made-up 0.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 per second on every architecture this benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds consumed so far by the whole process (all
/// threads, including threads that have already exited).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Option<CpuTimes> {
        parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
    }

    /// The CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) of a `stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state), so utime is its 12th field.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
///
/// This is a high-water mark for the whole process since it started: it
/// covers set-up, every repetition and the benchmark's own bookkeeping,
/// and it never goes down.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let stat = "4242 (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 3 0";
        let cpu = parse_stat(stat).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.31);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_work_where_proc_exists() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let cpu = CpuTimes::now().unwrap();
            assert!(cpu.user_s >= 0.0 && cpu.sys_s >= 0.0);
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
