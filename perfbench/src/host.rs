//! Host ceiling probe: multiply-add throughput on every core and
//! single-core copy bandwidth over arrays at least four times the
//! last-level cache.  The simulator's engines round the multiply and the
//! add separately, so the compute ceiling is the `a * x + b` shape the
//! compiler emits for this target, not a fused instruction.

use std::hint::black_box;
use std::time::Instant;

/// Measured host ceilings.
#[derive(Clone, Copy, Debug)]
pub struct HostCeiling {
    /// Multiply-add throughput over all cores, GFLOPS.
    pub fma_gflops: f64,
    /// Single-core copy bandwidth (bytes read + written), GB/s.
    pub copy_gbs: f64,
}

const LANES: usize = 64;
const ITERS: usize = 2_000_000;

/// One core's multiply-add rate: `LANES` independent chains, so the
/// loop is throughput- not latency-bound once vectorized.
fn madd_gflops_one() -> f64 {
    let mut acc = [0.0f32; LANES];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = black_box(i as f32 * 1e-3);
    }
    let m = black_box(0.999_9f32);
    let b = black_box(1e-4f32);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        for a in acc.iter_mut() {
            *a = *a * m + b;
        }
        black_box(&mut acc);
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    2.0 * (LANES * ITERS) as f64 / secs / 1e9
}

/// Best of three all-core multiply-add passes.
fn madd_gflops(threads: usize) -> f64 {
    (0..3)
        .map(|_| {
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads).map(|_| s.spawn(madd_gflops_one)).collect();
                hs.into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .sum::<f64>()
            })
        })
        .fold(0.0, f64::max)
}

/// Largest cache size reported under sysfs, in bytes.
fn last_level_cache_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("size")).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.chars().last()? {
                'K' => (&s[..s.len() - 1], 1u64 << 10),
                'M' => (&s[..s.len() - 1], 1u64 << 20),
                _ => (s, 1),
            };
            num.parse::<u64>().ok().map(|v| v * mult)
        })
        .max()
}

/// Best of three copies between two arrays whose combined size is four
/// times the last-level cache (clamped to [64 MiB, 1 GiB]).
fn copy_gbs() -> f64 {
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let total = (4 * llc).clamp(64 << 20, 1 << 30);
    let len = (total / 2 / 4) as usize;
    let src: Vec<f32> = (0..len).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; len];
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(2.0 * (len * 4) as f64 / secs / 1e9);
    }
    best
}

/// Run both probes.
pub fn probe(threads: usize) -> HostCeiling {
    HostCeiling {
        fma_gflops: madd_gflops(threads.max(1)),
        copy_gbs: copy_gbs(),
    }
}
