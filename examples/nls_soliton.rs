//! Nonlinear Schrödinger bright soliton: train a PINN on
//! `i h_t + ½ h_xx + |h|² h = 0` with `h(0, x) = a sech(a x)` and compare
//! against the *exact* soliton `a sech(a x)·e^{i a² t/2}` — a problem with
//! a genuine nonlinearity and a closed-form oracle.
//!
//! ```sh
//! cargo run --release --example nls_soliton
//! ```

use qpinn::core::trainer::Trainer;
use qpinn::core::{TrainConfig, ZooTask, ZooTaskConfig};
use qpinn::nn::ParamSet;
use qpinn::optim::LrSchedule;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let cfg = ZooTaskConfig {
        width: 24,
        depth: 3,
        n_collocation: 512,
        conservation: 10.0,
        causal: Some((5, 1.0)),
        ..ZooTaskConfig::standard()
    };
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut task =
        ZooTask::from_key("nls-soliton", &cfg, &mut params, &mut rng).expect("registered problem");
    let coords = task.problem().coords();
    println!(
        "problem: {} on [{}, {}] × [0, {}]",
        task.problem().describe(),
        coords[0].lo,
        coords[0].hi,
        coords[1].hi
    );

    let log = Trainer::new(TrainConfig {
        epochs: 500,
        schedule: LrSchedule::Step {
            lr0: 2e-3,
            factor: 0.85,
            every: 100,
        },
        log_every: 100,
        eval_every: 0,
        clip: Some(100.0),
        lbfgs_polish: None,
        checkpoint: None,
        divergence: None,
        progress: None,
        run: None,
    })
    .train(&mut task, &mut params);
    println!(
        "trained {} params → rel-L2 vs spectral reference: {:.3e} ({:.1}s)",
        params.n_scalars(),
        log.final_error,
        log.wall_s
    );

    // Compare with the closed-form soliton at a few space-time points.
    println!("\npointwise check vs EXACT soliton h = sech(x)·e^(i t/2):");
    let mut worst = 0.0f64;
    for &t in &[0.25, 0.5, 1.0] {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 3.0] {
            let exact = task
                .problem()
                .analytic(&[x, t])
                .expect("soliton has a closed form");
            let pred = task.net().predict(&params, &[vec![x, t]]);
            let (pu, pv) = (pred.get(&[0, 0]), pred.get(&[0, 1]));
            let err = (pu - exact[0]).hypot(pv - exact[1]);
            worst = worst.max(err);
            println!(
                "  (x={x:+.1}, t={t:.2})  pinn=({pu:+.4}, {pv:+.4})  exact=({:+.4}, {:+.4})  |Δ|={err:.2e}",
                exact[0], exact[1]
            );
        }
    }
    println!("\nworst pointwise deviation: {worst:.3e}");
    println!("(longer training — see the T1 harness — tightens this substantially)");
}
