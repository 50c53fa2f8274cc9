//! Order statistics, process memory and a small seeded generator.

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between the closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The median over consecutive chunks of `chunk` values of each chunk's
/// `p`-th percentile; a trailing part chunk is left out. A burst of
/// interference from outside the process then moves one chunk's figure,
/// not the run's. With `chunk` 0, or fewer than three full chunks, the
/// plain percentile of all values.
pub fn chunked_percentile(values: &[f64], p: f64, chunk: usize) -> f64 {
    if chunk == 0 || values.len() < 3 * chunk {
        return percentile(values, p);
    }
    let per_chunk: Vec<f64> = values
        .chunks_exact(chunk)
        .map(|c| percentile(c, p))
        .collect();
    median(&per_chunk)
}

/// CPU time the process has used so far, all threads summed, in ms
/// (`CLOCK_PROCESS_CPUTIME_ID`; Linux, 64-bit). Threads that have
/// ended still count. On a virtual machine whose kernel accounts steal
/// time, as a shared cloud host's does, it leaves out the time the
/// hypervisor gave the vCPUs to other tenants, which wall time includes.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded stream for query mixes and
/// random orderings, so inputs depend only on `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a fold of one `u64`, the checksum style used across the repo.
pub fn fnv_mix(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn chunked_percentile_is_the_median_of_chunks() {
        // one slow chunk of four leaves the median of chunk maxima as it is
        let v = [1.0, 2.0, 1.0, 2.0, 9.0, 9.0, 1.0, 2.0, 5.0];
        assert_eq!(chunked_percentile(&v, 100.0, 2), 2.0);
        assert_eq!(chunked_percentile(&v, 100.0, 0), 9.0);
        // fewer than three full chunks: the plain percentile
        assert_eq!(chunked_percentile(&v, 100.0, 4), 9.0);
    }

    #[test]
    fn process_cpu_time_counts_work() {
        let t = process_cpu_ms();
        let mut x = 0u64;
        while process_cpu_ms() - t < 5.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= t + 5.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix::new(8).next_u64());
    }
}
