//! Gate-fusion and SIMD-dispatch correctness at the integration level.
//!
//! PR 7 introduced two families of shortcuts that must be *invisible* to
//! every consumer:
//!
//! * **gate fusion** — consecutive single-qubit gates pre-multiplied into
//!   one 2×2 before touching the state (re-uploading embeds fused into
//!   each layer's leading rotations; cross-layer fusion for the
//!   product-state ansatz);
//! * **runtime SIMD dispatch** — the tensor kernels pick a vector width
//!   at startup (`QPINN_SIMD` override) but promise bit-identical results
//!   at every width.
//!
//! The unit suites check each kernel in isolation; this file checks the
//! composed paths end to end: fused ansatz application against the
//! gate-at-a-time reference on random 2–10-qubit states, a
//! parameter-shift gradient oracle through the fused re-uploading
//! circuit, and the batched forward and the adjoint VJP under
//! forced-scalar dispatch.

use qpinn::qcircuit::gates;
use qpinn::qcircuit::shift::parameter_shift_gradient;
use qpinn::qcircuit::{Ansatz, InputScaling, QuantumLayer, State};
use qpinn::tensor::simd;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_angles(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
        .collect()
}

/// A generic (entangled, non-axis-aligned) state to apply layers to.
fn random_state(nq: usize, seed: u64) -> State<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s: State<f64> = State::zero(nq);
    for q in 0..nq {
        let p = random_angles(3, &mut rng);
        s.apply_1q(q, &gates::rot(p[0], p[1], p[2]));
    }
    for q in 1..nq {
        s.apply_cnot(q - 1, q);
    }
    s
}

fn max_amp_diff(a: &State<f64>, b: &State<f64>) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).norm_sqr().sqrt())
        .fold(0.0, f64::max)
}

#[test]
fn fused_pre_gate_layer_matches_gate_at_a_time() {
    // apply_layer_fused(state, layer, params, pre) must equal "apply every
    // pre[q] as its own gate, then apply the layer" — for every ansatz
    // template and across the full 2–10 qubit range.
    for nq in [2usize, 3, 5, 7, 10] {
        for ansatz in Ansatz::all() {
            let mut rng = StdRng::seed_from_u64(1000 + nq as u64);
            let params = random_angles(ansatz.params_per_layer(nq), &mut rng);
            let embed_angles = random_angles(nq, &mut rng);
            let embed: Vec<_> = embed_angles.iter().map(|&a| gates::rx(a)).collect();

            let mut fused = random_state(nq, 7 * nq as u64);
            let mut reference = fused.clone();

            // layer index 1 exercises the layer-dependent entangler wiring
            ansatz.apply_layer_fused(&mut fused, 1, &params, &embed);
            for (q, g) in embed.iter().enumerate() {
                reference.apply_1q(q, g);
            }
            ansatz.apply_layer(&mut reference, 1, &params);

            let diff = max_amp_diff(&fused, &reference);
            assert!(
                diff < 1e-12,
                "{} at {nq} qubits: fused pre-gate diverged by {diff:e}",
                ansatz.name()
            );
        }
    }
}

#[test]
fn cross_layer_fusion_matches_layer_at_a_time() {
    // For the product-state ansatz, Ansatz::apply collapses all layers
    // into one 2×2 product per qubit. It must match applying the layers
    // one by one.
    let layers = 4;
    for nq in [2usize, 4, 6, 8, 10] {
        let a = Ansatz::NoEntangling;
        let mut rng = StdRng::seed_from_u64(2000 + nq as u64);
        let params = random_angles(a.n_params(nq, layers), &mut rng);
        let per = a.params_per_layer(nq);

        let mut fused = random_state(nq, 11 * nq as u64);
        let mut reference = fused.clone();

        a.apply(&mut fused, layers, &params);
        for layer in 0..layers {
            a.apply_layer(&mut reference, layer, &params[layer * per..(layer + 1) * per]);
        }

        let diff = max_amp_diff(&fused, &reference);
        assert!(
            diff < 1e-12,
            "cross-layer fusion at {nq} qubits diverged by {diff:e}"
        );
    }
}

#[test]
fn parameter_shift_oracle_agrees_through_fused_reupload_path() {
    // The re-uploading circuit routes every layer after the first through
    // the fused embed·rotation product. The parameter-shift rule is an
    // independent mathematical identity (two shifted circuit evaluations
    // per parameter); its gradient must match the dual-number Jacobian
    // computed through the same fused code to near machine precision.
    for ansatz in [Ansatz::BasicEntangling, Ansatz::NoEntangling] {
        let l = QuantumLayer {
            n_qubits: 3,
            layers: 3,
            ansatz,
            scaling: InputScaling::Pi,
            reupload: true,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let theta = l.init_params(&mut rng);
        let a = [0.35, -0.6, 0.15];
        let cot = [0.8, -1.1, 0.4];

        let f = |th: &[f64]| -> f64 {
            l.forward_sample(&a, th)
                .iter()
                .zip(&cot)
                .map(|(e, c)| e * c)
                .sum()
        };
        let shift_grad = parameter_shift_gradient(&f, &theta);

        let (_, _, jt) = l.jacobians_sample(&a, &theta);
        for p in 0..theta.len() {
            let dual: f64 = jt[p].iter().zip(&cot).map(|(d, c)| d * c).sum();
            assert!(
                (shift_grad[p] - dual).abs() < 1e-10,
                "{}: θ[{p}] parameter-shift {} vs dual {}",
                ansatz.name(),
                shift_grad[p],
                dual
            );
        }
    }
}

#[test]
fn forward_batch_bit_identical_under_forced_scalar_dispatch() {
    // The full batched circuit forward (embedding, fused layers, Z
    // readout) must not care which SIMD path the tensor kernels take.
    let l = QuantumLayer {
        n_qubits: 4,
        layers: 3,
        ansatz: Ansatz::BasicEntangling,
        scaling: InputScaling::Acos,
        reupload: true,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let theta = l.init_params(&mut rng);
    let batch = 32;
    let inputs: Vec<f64> = (0..batch * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let dispatched = simd::width();
    let reference: Vec<u64> = l
        .forward_batch(&inputs, batch, &theta)
        .iter()
        .map(|x| x.to_bits())
        .collect();

    simd::set_width(1);
    let scalar: Vec<u64> = l
        .forward_batch(&inputs, batch, &theta)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    simd::set_width(dispatched);

    assert_eq!(
        scalar, reference,
        "circuit forward diverged between scalar and width-{dispatched} dispatch"
    );
}

#[test]
fn adjoint_vjp_bit_identical_under_forced_scalar_dispatch() {
    // The adjoint reverse sweep un-applies every gate through the same
    // `apply_1q` kernel the forward uses, so its gradients must not care
    // which SIMD path that kernel takes either.
    let l = QuantumLayer {
        n_qubits: 5,
        layers: 3,
        ansatz: Ansatz::SimCirc15,
        scaling: InputScaling::Acos,
        reupload: true,
    };
    let mut rng = StdRng::seed_from_u64(10);
    let theta = l.init_params(&mut rng);
    let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..16)
        .map(|_| {
            let a = (0..5).map(|_| rng.gen_range(-0.9..0.9)).collect();
            let cot = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (a, cot)
        })
        .collect();
    let vjp_bits = || -> Vec<u64> {
        rows.iter()
            .flat_map(|(a, cot)| {
                let (ga, gth) = l.vjp_sample(a, &theta, cot);
                ga.into_iter()
                    .chain(gth)
                    .map(f64::to_bits)
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let dispatched = simd::width();
    let reference = vjp_bits();
    simd::set_width(1);
    let scalar = vjp_bits();
    simd::set_width(dispatched);

    assert_eq!(
        scalar, reference,
        "adjoint VJP diverged between scalar and width-{dispatched} dispatch"
    );
}
