//! Host-speed calibration of the training workloads.
//!
//! A 2-core shared host runs in speed phases: the same build's epochs
//! took 67–72 ms in one set of runs and 145–156 ms minutes later, with
//! steal time near 1 %. A burst of fixed compute run on the training
//! thread between epochs slows with the host, so the `train-*` workloads
//! report each gated time scaled by `reference_ms / burst median` from
//! the same call: the time it would take on a host where the burst takes
//! its reference time. The burst is this file's own code and calls no
//! repository crate, so a change to the program does not move it. Raw
//! medians and the burst median are printed on the `info` line.
//!
//! Each workload's burst mirrors its kind of work. Scalar code (the
//! circuit simulator) slows more in a slow phase than the trunk's
//! vectorised, cache-spilling matmuls. Scaled by the scalar part alone,
//! `train-2d` epochs were over-corrected: over ten runs their p50 spread
//! 25.9 % raw and 13.3 % scaled. With a trunk layer added to the burst,
//! five runs spread 9.8 % raw and 2.0 % scaled.
//!
//! `serve-mixed` is not scaled: its latency is loopback I/O, thread
//! wake-ups and the batch linger timer, which the burst does not track
//! (scaled point latency spread 12 % over five runs, raw 4 %).

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// What a burst runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Burst {
    /// The scalar part only (`train-hybrid`).
    Scalar,
    /// The scalar and the vector part (`train-2d`).
    Mixed,
}

/// Scalar part's time on the reference host: about its median on a
/// 2-core Xeon VM with AVX-512 in its fast phase (2.0 ms there, 3.5 ms
/// in its slow phase).
const SCALAR_REFERENCE_MS: f64 = 2.0;
/// Vector part's time on the same host and phase.
const VECTOR_REFERENCE_MS: f64 = 0.85;

impl Burst {
    /// Run one burst; returns its wall time in ms.
    pub fn run(self) -> f64 {
        let t = Instant::now();
        scalar_part();
        if self == Burst::Mixed {
            vector_part();
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Median of `n` bursts, in ms.
    pub fn median_of(self, n: usize) -> f64 {
        let v: Vec<f64> = (0..n).map(|_| self.run()).collect();
        median(&v)
    }

    /// The burst's time on the reference host, in ms.
    pub fn reference_ms(self) -> f64 {
        match self {
            Burst::Scalar => SCALAR_REFERENCE_MS,
            Burst::Mixed => SCALAR_REFERENCE_MS + VECTOR_REFERENCE_MS,
        }
    }

    /// Factor that maps a time measured beside bursts of median
    /// `burst_ms` to the reference host.
    pub fn scale(self, burst_ms: f64) -> f64 {
        self.reference_ms() / burst_ms
    }
}

/// Amplitudes of the statevector (5 qubits).
const AMPS: usize = 32;
/// Length of the activation row.
const ACTS: usize = 1024;
/// Side of the square matrices (the `train-2d` trunk width).
const SIDE: usize = 48;
/// Rounds of the scalar part.
const ROUNDS: usize = 160;
/// Rows of the vector part's matrix product (the `train-2d` collocation
/// count).
const ROWS: usize = 2048;

/// Rotations over a 5-qubit statevector (scalar trig, as the circuit
/// simulator runs), libm tanh over an activation row, and a
/// matrix-vector product. The work does not depend on the values.
fn scalar_part() {
    let mut re = [0.0f64; AMPS];
    let mut im = [0.0f64; AMPS];
    re[0] = 1.0;
    let mut acts = [0.0f64; ACTS];
    let mut mat = [0.0f64; SIDE * SIDE];
    for (k, v) in mat.iter_mut().enumerate() {
        *v = ((k % 7) as f64 - 3.0) * 0.01;
    }
    let mut vec = [0.5f64; SIDE];
    let mut acc = 0.0;
    for round in 0..ROUNDS {
        let theta = black_box(1e-3 * round as f64);
        let (c, s) = (theta.cos(), theta.sin());
        for q in 0..5 {
            let bit = 1 << q;
            for i in (0..AMPS).filter(|i| i & bit == 0) {
                let j = i | bit;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
        for (k, a) in acts.iter_mut().enumerate() {
            *a = (1e-3 * k as f64 + re[k % AMPS]).tanh();
        }
        let mut out = [0.0f64; SIDE];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &mat[r * SIDE..(r + 1) * SIDE];
            *o = row.iter().zip(&vec).map(|(m, v)| m * v).sum();
        }
        vec = out.map(|o| o + acts[round % ACTS]);
        acc += vec[0] + acts[ACTS - 1];
    }
    black_box(acc);
}

/// A `[2048×48]·[48×48]` product followed by a rational tanh
/// approximation: one trunk layer of `train-2d`, whose operands outgrow
/// the core's own cache as the trunk's do, in loops the compiler
/// vectorises (with AVX-512 where the host has it, as the tensor crate's
/// kernels run).
fn vector_part() {
    let a: Vec<f64> = (0..ROWS * SIDE)
        .map(|k| ((k % 13) as f64 - 6.0) * 0.05)
        .collect();
    let w: Vec<f64> = (0..SIDE * SIDE)
        .map(|k| ((k % 7) as f64 - 3.0) * 0.02)
        .collect();
    let mut out = vec![0.0; ROWS * SIDE];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the host supports AVX-512F, checked above.
        unsafe { product_avx512(black_box(&a), black_box(&w), &mut out) };
        black_box(&out);
        return;
    }
    product(black_box(&a), black_box(&w), &mut out);
    black_box(&out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn product_avx512(a: &[f64], w: &[f64], out: &mut [f64]) {
    product(a, w, out)
}

#[inline(always)]
fn product(a: &[f64], w: &[f64], out: &mut [f64]) {
    for (r, o) in out.chunks_exact_mut(SIDE).enumerate() {
        o.fill(0.0);
        for (k, wr) in w.chunks_exact(SIDE).enumerate() {
            let x = a[r * SIDE + k];
            for (oj, wj) in o.iter_mut().zip(wr) {
                *oj += x * wj;
            }
        }
        for v in o.iter_mut() {
            let x2 = *v * *v;
            *v = *v * (27.0 + x2) / (27.0 + 9.0 * x2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_take_time_and_scale_inversely() {
        for burst in [Burst::Scalar, Burst::Mixed] {
            let ms = burst.median_of(3);
            assert!(ms > 0.0 && ms.is_finite());
            assert_eq!(burst.scale(burst.reference_ms()), 1.0);
            assert_eq!(burst.scale(2.0 * burst.reference_ms()), 0.5);
        }
    }
}
