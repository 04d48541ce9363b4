//! Seeded order, order statistics, process and disk probes.

use std::path::{Path, PathBuf};

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The indices `0..n` in the seeded order of pass `pass`.
#[must_use]
pub fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    Rng::new(seed, pass).shuffle(&mut v);
    v
}

/// Seconds a fixed computation that shares no code with the program
/// takes on this host right now: integer mixing and table updates over a
/// 16 MiB table in a pseudo-random order, i.e. the hashing, lookups and
/// cache misses the workloads spend their time on. The host's speed for
/// the same work drifts by up to 2x between runs minutes apart, so a pass
/// time divided by this reference, timed beside it, compares runs made at
/// different speeds.
#[must_use]
pub fn reference_s() -> f64 {
    let mut table: Vec<u64> = (0..1u64 << 21).collect();
    let mask = table.len() - 1;
    let mut rng = Rng::new(0, 0);
    let mut acc = 0u64;
    let t = std::time::Instant::now();
    for _ in 0..6_000_000 {
        let z = rng.next_u64();
        let i = (z as usize) & mask;
        table[i] = table[i].wrapping_add(z);
        acc ^= table[i.wrapping_mul(7) & mask];
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Median of `v` (0 for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The median and the highest of p99, p95 and p90 that has at least ten
/// of the `v.len()` samples beyond it, as `p50 = … us, pNN = … us (n
/// samples)`.
#[must_use]
pub fn latency_summary(v: &[f64]) -> String {
    let n = v.len();
    let tail = [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0);
    let tail = tail.map_or_else(
        || "too few samples for a tail".to_string(),
        |q| format!("p{:.0} = {} us", q * 100.0, percentile(v, q)),
    );
    format!("p50 = {} us, {tail} ({n} samples)", percentile(v, 0.5))
}

/// Linear-interpolated percentile `q` in `0..=1` of `v` (0 when empty).
#[must_use]
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unknown.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, in bytes.
#[must_use]
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// The regular files under `dir`, as sorted paths relative to `dir`.
#[must_use]
pub fn list_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(root, &e.path(), out),
                Ok(t) if t.is_file() => {
                    out.push(
                        e.path()
                            .strip_prefix(root)
                            .expect("under root")
                            .to_path_buf(),
                    );
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// A scratch directory removed (with its contents) when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty directory `<root>/<tag>-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(26, 7, 0);
        assert_eq!(a, order(26, 7, 0));
        assert_ne!(a, order(26, 8, 0));
        assert_ne!(a, order(26, 7, 1));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..26).collect::<Vec<_>>());
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        let many: Vec<f64> = (0..300).map(f64::from).collect();
        assert!(
            latency_summary(&many).contains("p95 = "),
            "15 samples beyond p95"
        );
        assert!(latency_summary(&v).contains("too few"));
    }
}
