//! Host speed calibration.
//!
//! The host's speed drifts by up to ~1.8× over minutes, from load the
//! guest cannot see (see `README.md`, "Noise"). A fixed loop that has
//! no code in common with the program, but the same character (small
//! allocations, string-keyed map updates, short copies, data-dependent
//! branches), runs between the timed batches. Its median time tracks
//! the speed of the benchmark's own work from run to run, so the
//! host-time metrics are reported at a fixed reference speed: the speed
//! at which this loop takes [`REFERENCE_US`].
//!
//! The loop runs on the thread that runs the one-worker batches: the
//! host's two vCPUs see different interference, and a calibration
//! thread of its own tracked the batches at a correlation of only
//! 0.1–0.3, against 0.8–0.98 on the same thread.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Calibration-loop time at the reference speed, µs.
pub const REFERENCE_US: f64 = 700.0;

/// Runs the calibration loop once and returns its time, µs.
pub fn sample() -> f64 {
    let started = Instant::now();
    black_box(work(black_box(0x9E37_79B9_7F4A_7C15)));
    started.elapsed().as_secs_f64() * 1e6
}

fn work(mut x: u64) -> u64 {
    let mut lists: HashMap<String, Vec<u64>> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..4000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let list = lists.entry(format!("k{}", x % 64)).or_default();
        list.push(x);
        if list.len() > 16 {
            list.clear();
        }
        let bytes: Vec<u8> = (0..(x % 64) as u8).collect();
        let mut buf = [0u8; 256];
        buf[..bytes.len()].copy_from_slice(&bytes);
        acc = acc.wrapping_add(bytes.iter().map(|&b| u64::from(b)).sum::<u64>())
            ^ u64::from(buf[(x % 256) as usize]);
        if x.is_multiple_of(3) {
            acc = acc.rotate_left(5);
        } else if x % 5 == 1 {
            acc = acc.wrapping_mul(31);
        }
    }
    acc
}
