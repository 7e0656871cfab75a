//! Process and host facts the benchmark reports: CPU time, peak resident
//! memory, core count and source revision.

use std::path::Path;
use std::time::Duration;

/// `struct timeval` of the C library (64-bit Linux).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library (64-bit Linux): two timevals followed
/// by fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process, all threads included.
pub fn process_cpu() -> Duration {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C library's
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |tv: TimeVal| tv.sec as u64 * 1_000_000 + tv.usec as u64;
    Duration::from_micros(micros(usage.utime) + micros(usage.stime))
}

/// Resident-memory high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Restart the resident-memory high-water mark at the current resident
/// size (Linux `clear_refs` value 5), so the next [`peak_rss_mb`] covers
/// only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Time the host's hypervisor ran something else while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`), in clock ticks
/// summed over CPUs; 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit the sources were checked out at, read from `.git` beside the
/// benchmark's directory; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mb() > 0.0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
