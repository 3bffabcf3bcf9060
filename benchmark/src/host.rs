//! Host-side measurements of this process: CPU time and peak resident memory.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;

/// Pin this process — and every thread it later spawns — to the CPU it is
/// running on, and return that CPU.
///
/// The system's worker threads live a few milliseconds each. Whether the
/// scheduler spreads them over two cores or leaves them on one was decided
/// per process, seemingly at random, and held for all its reps: spread, the
/// two-server workload took 7 % more wall time and 26 % more CPU time
/// (README, "Noise"). One core makes every run the same run.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler
    // state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("CPU {cpu} does not fit a cpu_set_t"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, laid
    // out as the kernel's bit mask of CPUs; pid 0 names the calling thread,
    // which at this point is the only one, and children inherit its mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread of
/// the process, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed so far, all threads.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the 64-bit
    // Linux targets this benchmark runs on (two 64-bit fields), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall and CPU clocks read together at the start of a measured section.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Stopwatch::start`].
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_parses() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > before, "{x}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
