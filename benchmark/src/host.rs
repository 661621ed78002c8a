//! What the host and this process did while a workload ran: CPU time,
//! steal, context switches and peak memory, all read from the kernel.

use std::time::Instant;

/// `IVL_*` knobs that change what the program under test does. The
/// benchmark refuses to run with any of them set.
pub const FORBIDDEN_ENV: [&str; 6] = [
    "IVL_QUEUE",
    "IVL_FORCE_HEAP",
    "IVL_LINT",
    "IVL_FAULT_SEED",
    "IVL_CACHE_DIR",
    "IVL_SERVE_ADDR",
];

/// The first forbidden knob that is set, if any.
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|name| std::env::var_os(name).is_some())
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(steal, total)` ticks of all CPUs from the first line of `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-RSS watermark to the current resident set,
/// so that [`peak_rss_mb`] covers only what happens after this call.
/// Heap that set-up freed is first handed back to the kernel, so the
/// watermark starts from live memory. Best-effort: where `clear_refs` is
/// unsupported the peak stays a process-lifetime bound.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(user + system CPU seconds, non-voluntary context switches)` of
/// every thread of the process, exited ones included, from
/// `getrusage`. It counts the same CPU time as `/proc/self/stat` but in
/// microseconds rather than 10 ms ticks, and `/proc/self/status` would
/// count the main thread's switches only.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_usage() -> (f64, u64) {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        // maxrss ixrss idrss isrss minflt majflt nswap inblock oublock
        // msgsnd msgrcv nsignals nvcsw nivcsw
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and `usage` is a
    // live, exclusively borrowed value the call only writes into.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return (0.0, 0);
    }
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (
        seconds(usage.utime) + seconds(usage.stime),
        u64::try_from(usage.counters[13]).unwrap_or(0),
    )
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_usage() -> (f64, u64) {
    (0.0, 0)
}

/// A reading taken when a timed window opens.
pub struct Probe {
    at: Instant,
    cpu: f64,
    ticks: (u64, u64),
    switches: u64,
}

/// What happened between a [`Probe`] and its [`Probe::stop`].
#[derive(Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Share of all host CPU time that the hypervisor stole.
    pub steal_frac: f64,
    pub involuntary_switches: u64,
}

impl Probe {
    pub fn start() -> Probe {
        let (cpu, switches) = process_usage();
        Probe {
            ticks: host_ticks(),
            switches,
            cpu,
            at: Instant::now(),
        }
    }

    pub fn stop(&self) -> Window {
        let wall_s = self.at.elapsed().as_secs_f64();
        let (cpu, switches) = process_usage();
        let (steal, total) = host_ticks();
        let total = total.saturating_sub(self.ticks.1);
        Window {
            wall_s,
            cpu_s: cpu - self.cpu,
            steal_frac: if total == 0 {
                0.0
            } else {
                steal.saturating_sub(self.ticks.0) as f64 / total as f64
            },
            involuntary_switches: switches.saturating_sub(self.switches),
        }
    }
}
