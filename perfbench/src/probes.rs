//! Layer probes: direct timings of one crate's public calls at the
//! shapes the workloads use.
//!
//! Every traced run reports the same per-layer metrics. Layers a
//! workload drives itself are measured inside it (see `train` and
//! `serve`); the rest come from these probes, so a traced `serve-mixed`
//! run still reports the training loop and a traced `train-*` run still
//! reports the serve path, each measured on its own small instance.

use crate::report::Metrics;
use crate::stats::median;
use crate::train::HYBRID_LAYER;
use qpinn_problems::zoo::{lookup, Fidelity};
use qpinn_sampling::{latin_hypercube, Domain};
use qpinn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in ms.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// Rows in the `train-2d` trunk's activations (its collocation count).
const TRUNK_ROWS: usize = 2048;
/// Width of the `train-2d` trunk.
const TRUNK_WIDTH: usize = 48;

/// `tensor`: matmul at the `train-2d` hidden-layer shape and the tanh
/// kernel over one activation matrix.
pub fn tensor(m: &mut Metrics, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn([TRUNK_ROWS, TRUNK_WIDTH], 1.0, &mut rng);
    let w = Tensor::randn([TRUNK_WIDTH, TRUNK_WIDTH], 0.2, &mut rng);
    let ms = time_ms(60, || {
        black_box(black_box(&x).matmul(black_box(&w)));
    });
    let flops = 2.0 * (TRUNK_ROWS * TRUNK_WIDTH * TRUNK_WIDTH) as f64;
    m.push("tensor.matmul_gflops", flops / (ms * 1e-3) / 1e9, "GFLOP/s");
    let ms = time_ms(200, || {
        black_box(black_box(&x).tanh());
    });
    let elems = (TRUNK_ROWS * TRUNK_WIDTH) as f64;
    m.push(
        "tensor.tanh_gelem_per_s",
        elems / (ms * 1e-3) / 1e9,
        "Gelem/s",
    );
}

/// Rows of one hybrid epoch's quantum-layer batch.
const QROWS: usize = 128;

/// `qcircuit`: the three calls a hybrid epoch makes per row, over one
/// 128-row batch, each row on the work-stealing pool as the tape ops
/// run them.
pub fn qcircuit(m: &mut Metrics, seed: u64) {
    let layer = HYBRID_LAYER;
    let nq = layer.n_qubits;
    let mut rng = StdRng::seed_from_u64(seed);
    let theta = layer.init_params(&mut rng);
    let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-0.9..0.9)).collect() };
    let a = draw(QROWS * nq);
    let t = draw(QROWS * nq);
    let cot = draw(QROWS * nq);
    let forward = time_ms(20, || {
        black_box(layer.forward_batch(&a, QROWS, &theta));
    });
    let jacobian = time_ms(5, || {
        let rows: Vec<_> = (0..QROWS)
            .into_par_iter()
            .map(|r| layer.jacobians_sample(&a[r * nq..(r + 1) * nq], &theta))
            .collect();
        black_box(rows);
    });
    let jvp_grads = time_ms(5, || {
        let rows: Vec<_> = (0..QROWS)
            .into_par_iter()
            .map(|r| {
                let s = r * nq..(r + 1) * nq;
                layer.jvp_grads_sample(&a[s.clone()], &t[s.clone()], &theta, &cot[s])
            })
            .collect();
        black_box(rows);
    });
    m.push("qcircuit.forward_ms", forward, "ms");
    m.push("qcircuit.jacobian_ms", jacobian, "ms");
    m.push("qcircuit.jvp_grads_ms", jvp_grads, "ms");
    m.push(
        "qcircuit.circuits_per_s",
        QROWS as f64 / (forward * 1e-3),
        "1/s",
    );
}

/// `solvers` and `sampling`: the `tdse2d-free` Full-fidelity reference
/// solve and the Latin-hypercube draw of its collocation points — the
/// set-up work of `train-2d` and `serve-mixed`.
pub fn setup_layers(m: &mut Metrics, seed: u64) {
    let problem = lookup("tdse2d-free").expect("tdse2d-free is a registered problem");
    let reference_ms = time_ms(3, || {
        black_box(problem.reference(Fidelity::Full));
    });
    m.push("solvers.reference_s", reference_ms / 1e3, "s");
    let ranges: Vec<(f64, f64)> = problem.coords().iter().map(|c| (c.lo, c.hi)).collect();
    let domain = Domain::new(&ranges);
    let mut rng = StdRng::seed_from_u64(seed);
    let lhs_ms = time_ms(10, || {
        black_box(latin_hypercube(&domain, TRUNK_ROWS, &mut rng));
    });
    m.push("sampling.lhs_ms", lhs_ms, "ms");
}
