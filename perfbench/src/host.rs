//! Host context read from the Linux `/proc` interface: the process's
//! peak resident set and the machine's CPU steal ticks.

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cumulative steal ticks of all CPUs (the 8th field of the `cpu` line
/// of `/proc/stat`): time the hypervisor ran something else while this
/// machine's vCPUs wanted to run. 0 where unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal(&stat).unwrap_or(0)
}

/// Seconds in `ticks` of the kernel's 100 Hz `USER_HZ`.
pub fn ticks_to_s(ticks: u64) -> f64 {
    ticks as f64 / 100.0
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU seconds used by this process and its reaped children (user +
/// system, from `/proc/self/stat`), at the kernel's 100 Hz
/// `USER_HZ`. 0 where unavailable.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, ticks_to_s)
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name start at field 3;
    // utime, stime, cutime and cstime are fields 14 to 17.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    (11..15).map(|i| f.get(i)?.parse::<u64>().ok()).sum()
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (which would search the directories above a
/// checkout that has none); "unknown" where there is no `.git`.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(r) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| match l.split_once(' ') {
                Some((id, name)) if name == r => Some(id.to_string()),
                _ => None,
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_lines() {
        let status = "Name:\tperfbench\nVmPeak:\t 9000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        let stat = "cpu  10 20 30 40 50 60 70 81 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal(stat), Some(81));
        assert_eq!(parse_steal("intr 1 2\n"), None);
        let pstat = "42 (perf bench) S 1 42 42 0 -1 4194560 900 10 0 0 150 25 7 3 20 0 1 0";
        assert_eq!(parse_cpu_ticks(pstat), Some(150 + 25 + 7 + 3));
    }
}
