//! Host-side measurement: process CPU time, peak resident memory, and the
//! run metadata (host fingerprint, hypervisor steal) printed beside the
//! metrics.
//!
//! Timings are process CPU time, not wall time: on a shared virtual machine
//! the hypervisor can steal a varying share of the wall clock from an
//! identical single-threaded run, and stolen time is not CPU time. Cache and
//! memory contention from other tenants still moves CPU time; the
//! [`memory_probe_ns`] measures how much, so that run times can be scaled
//! to a reference host, and the metadata makes such a host visible.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc: 64-bit Linux only");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system), in seconds, with nanosecond
/// resolution.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64`s on
    // 64-bit Linux), which is all `clock_gettime` writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `f` and return its result with the process CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_s();
    let v = f();
    (v, cpu_s() - start)
}

/// Entries in the memory probe's table: 64 MB of `u32`, about the
/// `asap-crawled` working set and far beyond the caches.
const PROBE_ENTRIES: u32 = 1 << 24;
/// Dependent loads per probe: about half a second.
const PROBE_HOPS: u32 = 2_000_000;

/// The memory latency of the reference host that `run_s` is scaled to, in
/// the units of [`memory_probe_ns`].
pub const REFERENCE_PROBE_NS: f64 = 200.0;

/// CPU nanoseconds per dependent load from a pseudo-random place in a
/// 64 MB table: how fast this host's memory answers right now. Other
/// tenants' cache and memory traffic slows these loads, and the
/// simulation's own, alike: over ten identical `asap-crawled` runs on a
/// shared 2-vCPU virtual machine, run time and the mean of 64 MB
/// pointer-chase probes just before and after each run correlated at 0.87,
/// and scaling by the probe halved the runs' spread.
pub fn memory_probe_ns() -> f64 {
    let mask = PROBE_ENTRIES - 1;
    // A full-period linear congruential step (multiplier 1 mod 4, odd
    // increment) chains every entry into one cycle, so the walk below never
    // repeats and no prefetcher can follow it.
    let next: Vec<u32> = (0..PROBE_ENTRIES)
        .map(|i| i.wrapping_mul(0x5851_F42D).wrapping_add(0x1405_7B7F) & mask)
        .collect();
    let (end, s) = cpu_timed(|| {
        let mut p = 0u32;
        for _ in 0..PROBE_HOPS {
            p = next[p as usize];
        }
        p
    });
    std::hint::black_box(end);
    s * 1e9 / f64::from(PROBE_HOPS)
}

/// A field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Reset the resident-set high-water mark to the current RSS, so the next
/// [`peak_rss_mb`] reads the peak of what ran in between. Free memory the
/// allocator still holds from earlier runs is handed back first, so it
/// does not count towards the next peak. Returns whether the kernel
/// honoured the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages; it takes
    // no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) since the last reset, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Threads in this process; the benchmark is single-threaded by design.
fn threads() -> Option<u64> {
    status_kb("Threads")
}

/// Machine-wide hypervisor steal, in seconds summed over all CPUs, from the
/// `cpu` line of `/proc/stat` (USER_HZ ticks, 100 per second on Linux).
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Wall clock and steal since the start of the invocation: metadata that
/// makes a noisy host visible when CPU times drift. Never gated.
pub struct RunClock {
    wall: Instant,
    steal: Option<f64>,
}

impl RunClock {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            steal: steal_s(),
        }
    }

    /// One JSON object: host fingerprint, seed, wall-clock seconds and the
    /// hypervisor steal over the invocation.
    pub fn metadata_json(&self, seed: u64) -> String {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let wall = self.wall.elapsed().as_secs_f64();
        let steal = match (self.steal, steal_s()) {
            (Some(a), Some(b)) => format!("{}", b - a),
            _ => "null".to_string(),
        };
        let model = cpu_model().replace(['"', '\\'], "");
        format!(
            "{{\"seed\": {seed}, \"nproc\": {cpus}, \"cpu_model\": \"{model}\", \
             \"wall_s\": {wall}, \"steal_s\": {steal}, \"threads\": {}}}",
            threads().unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let (sum, secs) = cpu_timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(secs > 0.0, "busy work must consume CPU time");
    }

    #[test]
    fn memory_probe_reads_a_plausible_latency() {
        let ns = memory_probe_ns();
        assert!(ns > 0.1 && ns < 10_000.0, "{ns} ns per load");
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
