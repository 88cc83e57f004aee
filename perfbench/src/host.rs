//! Host-clock measurement: process CPU time, peak resident memory, thread
//! pinning, and the order statistics every timing is reported with.

/// Process CPU time (user + system, all threads, live or exited) in
/// seconds, and peak resident set size in KiB.
pub fn rusage() -> (f64, u64) {
    sys::rusage()
}

/// The host cores this process may run on, in id order.
pub fn allowed_cores() -> Vec<usize> {
    sys::allowed_cores()
}

/// Pin the calling thread to host core `core`. Returns whether it took.
pub fn pin_to(core: usize) -> bool {
    sys::pin_to(core)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    /// which the first is `ru_maxrss` (KiB).
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    /// A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    const RUSAGE_SELF: i32 = 0;

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn rusage() -> (f64, u64) {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the
        // 64-bit Linux layout, which is all getrusage(2) writes.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        (secs(&ru.utime) + secs(&ru.stime), ru.maxrss.max(0) as u64)
    }

    pub fn allowed_cores() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            return (0..n).collect();
        }
        (0..1024)
            .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn pin_to(core: usize) -> bool {
        if core >= 1024 {
            return false;
        }
        let mut set: CpuSet = [0; 16];
        set[core / 64] |= 1 << (core % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn rusage() -> (f64, u64) {
        (0.0, 0)
    }

    pub fn allowed_cores() -> Vec<usize> {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        (0..n).collect()
    }

    pub fn pin_to(_core: usize) -> bool {
        false
    }
}

/// Median of `v` (mean of the middle pair for an even count; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of an ascending slice (0 if empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles tried for a tail, highest first. On a shared virtual
/// machine a step's p99 is set by host hiccups (it spread 0.57 of its
/// median over five seeds of `fault_stream`), and step latencies pile up
/// at multiples of a 100 ms forced timeout, where a fine ladder lets the
/// chosen percentile land on the edge of a pile.
const TAIL_LADDER: [f64; 2] = [90.0, 50.0];

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that still
/// has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile.
    pub pct: f64,
    /// The value at it.
    pub value: u64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The [`Tail`] of an ascending slice.
pub fn tail(sorted: &[u64]) -> Tail {
    let n = sorted.len();
    let at = |pct: f64| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        Tail {
            pct,
            value: percentile(sorted, pct),
            beyond: n - rank.min(n),
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(
            tail(&v),
            Tail {
                pct: 90.0,
                value: 900,
                beyond: 100
            }
        );
        let v: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&v).pct, 50.0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(
            tail(&v),
            Tail {
                pct: 90.0,
                value: 90,
                beyond: 10
            }
        );
        let v: Vec<u64> = (1..=30).collect();
        assert_eq!(
            tail(&v),
            Tail {
                pct: 50.0,
                value: 15,
                beyond: 15
            }
        );
    }

    #[test]
    fn rusage_moves_forward() {
        let (cpu0, rss) = rusage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (cpu1, _) = rusage();
        assert!(cpu1 >= cpu0 && rss > 0, "{x}");
    }
}
