//! **T1 — headline accuracy table.** Relative L2 error of the PINN against
//! the high-fidelity reference for each benchmark problem, mean ± std over
//! seeds, with parameter counts and wall time.

use qpinn_bench::{banner, save, standard_train, wave_config, wave_net, zoo_task, RunOpts};
use qpinn_core::experiment::{aggregate, run_seeds_with};
use qpinn_core::report::{Json, TextTable};
use qpinn_core::trainer::CheckpointConfig;

fn main() {
    let opts = RunOpts::from_args();
    banner(
        "T1",
        "PINN accuracy per problem (rel. L2 vs reference)",
        &opts,
    );

    let epochs = opts.pick_epochs(1000, 6000);
    let n_coll = opts.pick(512, 4096);
    let (w, d) = (opts.pick(24, 64), opts.pick(3, 4));
    let cfg_train = standard_train(epochs);
    // Seeds train in parallel, so each (problem, seed) run needs its own
    // snapshot directory — interleaving two runs in one store would make
    // "latest" meaningless.
    let cfg_for = |problem: &str, seed: u64| {
        let mut cfg = cfg_train.clone();
        cfg.checkpoint = opts.ckpt.as_ref().map(|root| {
            CheckpointConfig::new(root.join(format!("t1/{problem}/seed-{seed}")))
                .every((epochs / 4).max(1))
                .run_id(format!("t1-{problem}-s{seed}"))
        });
        cfg.run = opts.run_cfg(
            &format!("t1/{problem}"),
            seed,
            Json::obj(vec![
                ("problem", Json::Str(problem.to_string())),
                ("width", Json::Num(w as f64)),
                ("depth", Json::Num(d as f64)),
                ("n_collocation", Json::Num(n_coll as f64)),
            ]),
        );
        cfg
    };

    let mut table = TextTable::new(&[
        "problem",
        "rel-L2 (mean±std)",
        "best",
        "params",
        "epochs",
        "s/run",
    ]);
    let mut records = Vec::new();

    // The TDSE presets, then the NLS benchmarks: the integrable single
    // soliton (stable) and the Raissi 2-soliton bound state
    // (modulationally unstable — the known hard case).
    let cfg = wave_config(n_coll);
    for key in [
        "tdse-free",
        "tdse-harmonic",
        "tdse-barrier",
        "nls-soliton",
        "nls-raissi",
    ] {
        let net = wave_net(key, w, d);
        let runs = run_seeds_with(
            &opts.seeds(),
            |seed| cfg_for(key, seed),
            |seed| zoo_task(key, &net, &cfg, seed),
        );
        let agg = aggregate(&runs);
        table.row(&[
            key.to_string(),
            qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
            format!("{:.3e}", agg.best_error),
            format!("{}", runs[0].n_params),
            format!("{epochs}"),
            format!("{:.1}", agg.mean_wall_s),
        ]);
        records.push(Json::obj(vec![
            ("problem", Json::Str(key.to_string())),
            ("mean_error", Json::Num(agg.mean_error)),
            ("std_error", Json::Num(agg.std_error)),
            ("best_error", Json::Num(agg.best_error)),
            ("n_params", Json::Num(runs[0].n_params as f64)),
            ("wall_s", Json::Num(agg.mean_wall_s)),
        ]));
    }

    println!("\n{}", table.render());
    save(
        "t1_accuracy",
        &Json::obj(vec![
            ("id", Json::Str("T1".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
