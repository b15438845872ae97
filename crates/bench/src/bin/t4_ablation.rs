//! **T4 — feature & loss ablation.** The convergence enhancements toggled
//! one at a time on the free-packet TDSE and the NLS benchmark: random
//! Fourier features, exact periodic embedding, causal time weighting, and
//! the norm-conservation loss.

use qpinn_bench::{banner, save, standard_train, wave_config, wave_net, zoo_task, RunOpts};
use qpinn_core::experiment::{aggregate, run_seeds};
use qpinn_core::model::CoordSpec;
use qpinn_core::report::{Json, TextTable};
use qpinn_core::ZooTask;
use qpinn_nn::ParamSet;

#[derive(Clone, Copy, Debug)]
enum Variant {
    Standard,
    NoRff,
    NoPeriodic,
    NoCausal,
    NoConservation,
}

impl Variant {
    fn name(&self) -> &'static str {
        match self {
            Variant::Standard => "standard (all on)",
            Variant::NoRff => "− random Fourier features",
            Variant::NoPeriodic => "− periodic embedding",
            Variant::NoCausal => "− causal weighting",
            Variant::NoConservation => "− conservation loss",
        }
    }

    /// Build `key`'s task with this variant's feature switched off.
    fn task(
        &self,
        key: &str,
        width: usize,
        depth: usize,
        n_coll: usize,
        seed: u64,
    ) -> (ZooTask, ParamSet) {
        let mut net = wave_net(key, width, depth);
        let mut cfg = wave_config(n_coll);
        match self {
            Variant::Standard => {}
            Variant::NoRff => net.rff = None,
            // replace the periodic x-embedding with a raw coordinate
            Variant::NoPeriodic => net.coords[0] = CoordSpec::Raw,
            Variant::NoCausal => cfg.causal = None,
            Variant::NoConservation => cfg.conservation = 0.0,
        }
        zoo_task(key, &net, &cfg, seed)
    }
}

const VARIANTS: [Variant; 5] = [
    Variant::Standard,
    Variant::NoRff,
    Variant::NoPeriodic,
    Variant::NoCausal,
    Variant::NoConservation,
];

fn main() {
    let opts = RunOpts::from_args();
    banner("T4", "feature & loss ablation", &opts);

    let epochs = opts.pick_epochs(600, 5000);
    let cfg_train = standard_train(epochs);
    let (w, d) = (opts.pick(24, 64), opts.pick(3, 4));

    let mut table = TextTable::new(&["problem", "variant", "rel-L2 (mean±std)"]);
    let mut records = Vec::new();

    for key in ["tdse-free", "nls-raissi"] {
        for variant in VARIANTS {
            let runs = run_seeds(&opts.seeds(), &cfg_train, |seed| {
                variant.task(key, w, d, opts.pick(384, 4096), seed)
            });
            let agg = aggregate(&runs);
            table.row(&[
                key.to_string(),
                variant.name().into(),
                qpinn_core::report::mean_std(agg.mean_error, agg.std_error),
            ]);
            records.push(Json::obj(vec![
                ("problem", Json::Str(key.to_string())),
                ("variant", Json::Str(variant.name().into())),
                ("mean_error", Json::Num(agg.mean_error)),
                ("std_error", Json::Num(agg.std_error)),
            ]));
        }
    }

    println!("\n{}", table.render());
    save(
        "t4_ablation",
        &Json::obj(vec![
            ("id", Json::Str("T4".into())),
            ("full", Json::Bool(opts.full)),
            ("rows", Json::Arr(records)),
        ]),
    );
}
