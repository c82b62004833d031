//! Host-speed probe: a fixed integer kernel, timed beside every pass, that
//! scales the reported times to one reference host speed.
//!
//! On a shared host the throughput of a core drifts by ±20% over minutes,
//! and a pass of the simulator drifts with it: the run-to-run spread of a
//! session workload's median pass reached 0.26 of the median. The probe
//! runs no program code, so a change to the program cannot move it, but it
//! slows down and speeds up with the host. Over 20 s windows of
//! `histogram'` sessions interleaved with the probe, the spread of the
//! median pass time was 0.16–0.19, and that of pass time ÷ probe time
//! 0.04–0.10 (see `README.md`).

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference host (the 2-vCPU Xeon VM that
/// `README.md` describes). It only sets the scale of the reported times:
/// a time of `t` host seconds, measured while the probe took `p` seconds,
/// is reported as `t * REFERENCE_S / p`.
pub const REFERENCE_S: f64 = 0.040;

/// Table entries: 512 KiB of `u64`, so the kernel runs from the caches a
/// pass of the simulator also uses.
const TABLE_LEN: usize = 1 << 16;

/// Updates per probe.
const STEPS: u64 = 3_500_000;

/// The probe's table, kept across calls so only the first call faults its
/// pages in.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self {
            table: vec![0; TABLE_LEN],
        }
    }
}

impl Probe {
    /// Reset the table, then time one run of the kernel. Every call does the
    /// same work and returns the same checksum.
    pub fn time(&mut self) -> (f64, u64) {
        for (i, slot) in self.table.iter_mut().enumerate() {
            *slot = i as u64;
        }
        let start = Instant::now();
        let checksum = kernel(black_box(&mut self.table), STEPS);
        (start.elapsed().as_secs_f64(), black_box(checksum))
    }
}

/// Data-dependent branches and scattered loads and stores over `table`,
/// driven by an xorshift sequence.
fn kernel(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add(x);
            acc = acc.wrapping_add(v);
        } else if v & 2 == 0 {
            table[i] = v ^ (x >> 3);
            acc ^= v;
        } else {
            table[(i + 1) & mask] = v.rotate_left(5);
            acc = acc.wrapping_mul(3);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_does_the_same_work() {
        let mut probe = Probe::default();
        let (first_s, first) = probe.time();
        let (second_s, second) = probe.time();
        assert_eq!(first, second);
        assert!(first_s > 0.0 && second_s > 0.0);
    }
}
