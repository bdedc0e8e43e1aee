//! Host probes: what a run records beside its metrics so a reader can tell
//! host drift from a code change.

use std::hint::black_box;
use std::time::Instant;

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of CPU 0's L2 cache in bytes, 1 MiB when the kernel does not say.
pub fn l2_bytes() -> usize {
    let read = |idx: u32| -> Option<usize> {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
        if level.trim() != "2" {
            return None;
        }
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        num.parse::<usize>().ok().map(|n| n * mult)
    };
    (0..8).find_map(read).unwrap_or(1 << 20)
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Seconds for a fixed compute-bound loop: a dependent chain of integer
/// multiply-xorshift steps that lives in registers.
pub fn compute_loop_s() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(40_000_000u64) {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Seconds for a fixed number of sweeps over a buffer the size of the L2
/// cache, summing every word.
pub fn l2_scan_s(l2: usize) -> f64 {
    let words = (l2 / 8).max(1024);
    let buf: Vec<u64> = (0..words as u64).collect();
    let sweeps = ((2usize << 30) / (words * 8)).max(1);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..sweeps {
        for w in black_box(&buf) {
            acc = acc.wrapping_add(*w);
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}
