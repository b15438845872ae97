//! # qpinn-bench
//!
//! The experiment harness: one binary per reconstructed table (T1–T6) and
//! figure (F1–F5) — see `DESIGN.md` §5 for the experiment index — plus
//! criterion micro-benchmarks (`benches/micro.rs`).
//!
//! Each binary prints its table/series as aligned text and writes a JSON
//! record to `target/experiments/<id>.json`. Default settings are sized
//! for a quick laptop run; pass `--full` for paper-scale settings.

#![deny(missing_docs)]

use qpinn_core::report::Json;
use qpinn_core::{FieldNetConfig, ZooTask, ZooTaskConfig};
use qpinn_nn::ParamSet;
use qpinn_telemetry as telemetry;
use rand::{rngs::StdRng, SeedableRng};

/// Harness-wide run options parsed from the command line.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Paper-scale settings (`--full`).
    pub full: bool,
    /// Seed list length override (`--seeds N`).
    pub n_seeds: usize,
    /// Checkpoint root directory (`--ckpt DIR`). When set, experiments
    /// write crash-safe snapshots under it (one subdirectory per run) and
    /// resume-capable binaries pick up from the newest intact snapshot.
    pub ckpt: Option<std::path::PathBuf>,
    /// Telemetry JSONL output path (`--telemetry PATH`). When set,
    /// [`RunOpts::from_args`] installs a JSONL file sink (every span,
    /// metric flush, mark, and warning as one JSON object per line) plus a
    /// stderr sink for warnings, and [`save`] writes a final metrics
    /// snapshot next to the experiment record.
    pub telemetry: Option<std::path::PathBuf>,
    /// Epoch budget override (`--epochs N`), applied by
    /// [`RunOpts::pick_epochs`] over both quick and full defaults. Sized
    /// for CI smoke runs that need a real binary to finish in seconds.
    pub epochs: Option<usize>,
    /// Live metrics endpoint address (`--serve-metrics ADDR`, e.g.
    /// `127.0.0.1:9095`; port 0 picks a free port). When set,
    /// [`RunOpts::from_args`] starts a [`qpinn_obs::MetricsServer`]
    /// exposing `/metrics`, `/metrics.json`, `/progress`, and `/healthz`
    /// for the lifetime of the process.
    pub serve_metrics: Option<String>,
    /// Inference-server address (`--serve ADDR`, e.g. `127.0.0.1:0`;
    /// port 0 picks a free port and prints it). When set,
    /// [`RunOpts::from_args`] starts a [`qpinn_serve::ServeServer`] with
    /// its model registry under `target/models` (or `--models DIR`),
    /// exposing `/v1/eval`, `/v1/train`, `/v1/models`, and the shared
    /// metrics routes for the lifetime of the process. Useful for
    /// driving load against a bench-built binary.
    pub serve: Option<String>,
    /// Access-log path for the inference server (`--access-log PATH`,
    /// only meaningful with `--serve`). Every request — including sheds
    /// and errors — is appended as one `qpinn-access-v1` JSON line with
    /// its trace id and queue/batch/compute/serialize latency split;
    /// feed the file to `qpinn-obs requests` / `qpinn-obs slo`.
    pub access_log: Option<std::path::PathBuf>,
    /// `qpinn-run-v1` run-record store directory (`--runs DIR`). When
    /// set, every training run the experiment performs writes a durable
    /// manifest + epoch series under `DIR/<run_id>/` (via
    /// [`RunOpts::run_cfg`]), the experiment record lists the session's
    /// run ids, and `--serve` jobs record there too. Inspect with
    /// `qpinn-obs runs list/show/diff/regress`.
    pub runs: Option<std::path::PathBuf>,
}

/// The flags every harness binary accepts, as `(name, takes_value)`.
const COMMON_FLAGS: &[(&str, bool)] = &[
    ("--full", false),
    ("--seeds", true),
    ("--epochs", true),
    ("--ckpt", true),
    ("--telemetry", true),
    ("--serve-metrics", true),
    ("--serve", true),
    ("--models", true),
    ("--access-log", true),
    ("--runs", true),
];

/// The usage text printed (to stderr, exit status 2) for `--help` or an
/// unknown flag.
const USAGE: &str = "\
options:
  --full                 paper-scale settings (default: quick)
  --seeds N              number of seeds (default 2, or 5 with --full)
  --epochs N             epoch budget override
  --ckpt DIR             crash-safe snapshots under DIR
  --telemetry PATH       JSONL event stream to PATH
  --serve-metrics ADDR   live /metrics endpoint
  --serve ADDR           inference server (--models DIR, --access-log PATH)
  --runs DIR             qpinn-run-v1 run records under DIR";

impl RunOpts {
    /// Parse `args` (without the program name) against the flags every
    /// harness binary accepts (`--full`, `--seeds`, `--epochs`, `--ckpt`,
    /// `--telemetry`, `--serve-metrics`, `--serve`, `--models`,
    /// `--access-log`, `--runs`) plus a binary's own `extra` flags.
    /// Pure: no sinks or servers are started. `Err` carries the reason
    /// for a usage error — `--help`, an unknown flag, a missing or
    /// malformed value.
    pub fn parse(args: &[String], extra: &[(&str, bool)]) -> Result<RunOpts, String> {
        let mut given: Vec<(&str, Option<&str>)> = Vec::new();
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Err("help requested".into());
            }
            let takes_value = COMMON_FLAGS
                .iter()
                .chain(extra)
                .find(|(name, _)| *name == arg)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            let value = if takes_value {
                let missing = || format!("`{arg}` needs a value");
                Some(rest.next().ok_or_else(missing)?)
            } else {
                None
            };
            given.push((arg, value));
        }
        let value = |name: &str| given.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v);
        let num = |name: &str| -> Result<Option<usize>, String> {
            value(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("`{name}` needs a non-negative integer, got `{v}`"))
                })
                .transpose()
        };
        let string = |name: &str| value(name).map(str::to_string);
        let path = |name: &str| value(name).map(std::path::PathBuf::from);
        let full = given.iter().any(|(n, _)| *n == "--full");
        Ok(RunOpts {
            full,
            n_seeds: num("--seeds")?.unwrap_or(if full { 5 } else { 2 }),
            ckpt: path("--ckpt"),
            telemetry: path("--telemetry"),
            epochs: num("--epochs")?,
            serve_metrics: string("--serve-metrics"),
            serve: string("--serve"),
            access_log: path("--access-log"),
            runs: path("--runs"),
        })
    }

    /// Parse from `std::env::args` with only the common flags; see
    /// [`RunOpts::from_args_with`].
    pub fn from_args() -> Self {
        Self::from_args_with(&[])
    }

    /// Parse from `std::env::args`, accepting a binary's own `extra`
    /// flags too. A usage error (including `--help`) prints the reason
    /// and the usage text to stderr and exits with status 2. Installs
    /// telemetry sinks and starts the requested servers as a side effect.
    pub fn from_args_with(extra: &[(&str, bool)]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let opts = match RunOpts::parse(&args, extra) {
            Ok(opts) => opts,
            Err(reason) => {
                eprintln!("{reason}\n{USAGE}");
                for (name, takes_value) in extra {
                    eprintln!("  {name}{}", if *takes_value { " VALUE" } else { "" });
                }
                std::process::exit(2);
            }
        };
        let RunOpts {
            serve,
            serve_metrics,
            access_log,
            runs,
            telemetry: telemetry_path,
            ..
        } = &opts;
        if let Some(addr) = serve {
            let models_dir = flag_value(&args, "--models")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::Path::new("target").join("models"));
            let mut cfg = qpinn_serve::ServeConfig::new(&models_dir);
            cfg.trace.access_log = access_log.clone();
            cfg.runs = runs.clone();
            match qpinn_serve::ServeServer::start(addr.as_str(), cfg) {
                Ok(server) => {
                    println!(
                        "serving inference on http://{} (models: {})",
                        server.local_addr(),
                        models_dir.display()
                    );
                    // Like the metrics endpoint: lives until process exit.
                    std::mem::forget(server);
                }
                Err(e) => eprintln!(
                    "warning: cannot bind inference server {addr}: {e}; continuing without"
                ),
            }
        }
        if let Some(addr) = serve_metrics {
            match qpinn_obs::MetricsServer::start(addr.as_str()) {
                Ok(server) => {
                    println!("serving metrics on http://{}/metrics", server.local_addr());
                    // The endpoint lives until process exit; leaking the
                    // handle keeps the accept thread alive without a
                    // shutdown path every binary would have to thread.
                    std::mem::forget(server);
                }
                Err(e) => eprintln!(
                    "warning: cannot bind metrics endpoint {addr}: {e}; continuing without"
                ),
            }
        }
        if let Some(path) = telemetry_path {
            match telemetry::JsonlSink::create(path) {
                Ok(sink) => {
                    telemetry::install(std::sync::Arc::new(sink));
                    telemetry::install(std::sync::Arc::new(telemetry::StderrSink));
                }
                Err(e) => eprintln!(
                    "warning: cannot open telemetry sink {}: {e}; continuing without",
                    path.display()
                ),
            }
        }
        opts
    }

    /// A [`qpinn_core::runs::RunConfig`] for one training run of this
    /// experiment, or `None` when `--runs` was not given. `task` is the
    /// `runs list` label (e.g. `t1/tdse-harmonic`), `config` the document
    /// hashed into the manifest's `config_hash`.
    pub fn run_cfg(&self, task: &str, seed: u64, config: Json) -> Option<qpinn_core::runs::RunConfig> {
        self.runs
            .as_ref()
            .map(|dir| qpinn_core::runs::RunConfig::new(dir, task, seed).config(config))
    }

    /// The seed list for multi-seed experiments.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.n_seeds as u64).map(|i| 100 + i).collect()
    }

    /// Pick between quick and full values.
    pub fn pick<T: Copy>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Like [`RunOpts::pick`] for epoch budgets, but a `--epochs N`
    /// override wins over both.
    pub fn pick_epochs(&self, quick: usize, full: usize) -> usize {
        self.epochs.unwrap_or_else(|| self.pick(quick, full))
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, title: &str, opts: &RunOpts) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!(
        "mode: {} | seeds: {}",
        if opts.full { "full" } else { "quick" },
        opts.n_seeds
    );
    if let Some(p) = &opts.telemetry {
        println!("telemetry: {}", p.display());
    }
    println!("==========================================================");
}

/// The git revision the binary runs from, read straight from
/// `.git/HEAD` (resolving one level of `ref:` indirection) walking up
/// from the working directory — no `git` subprocess. `None` outside a
/// checkout or on an unborn branch.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let rev = match text.strip_prefix("ref: ") {
                Some(refname) => std::fs::read_to_string(dir.join(".git").join(refname.trim()))
                    .ok()
                    .map(|s| s.trim().to_string())
                    // Packed refs: fall back to scanning .git/packed-refs.
                    .or_else(|| {
                        let packed =
                            std::fs::read_to_string(dir.join(".git").join("packed-refs")).ok()?;
                        packed.lines().find_map(|l| {
                            l.strip_suffix(refname.trim())
                                .map(|hash| hash.trim().to_string())
                        })
                    })?,
                None => text.to_string(),
            };
            return (!rev.is_empty()).then_some(rev);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Build-provenance stamp attached to every experiment record: git
/// revision, resolved SIMD dispatch width, and work-stealing pool
/// width — so a committed `BENCH_*.json` entry is attributable to the
/// code and machine shape that produced it. The keys deliberately
/// carry no perf-direction suffix, so `qpinn-obs check` never gates on
/// them.
pub fn provenance() -> Json {
    Json::obj(vec![
        (
            "git_rev",
            git_rev().map(Json::Str).unwrap_or(Json::Null),
        ),
        ("simd", Json::Num(qpinn_tensor::simd::width() as f64)),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
    ])
}

/// Persist the experiment record and report the path. Top-level object
/// records gain a `provenance` stamp ([`provenance`]) and, when the
/// process recorded `qpinn-run-v1` runs (`--runs DIR`), the session's
/// `run_ids`. With telemetry enabled, also samples the pool counters
/// into the event stream, writes the final metrics-registry snapshot to
/// `target/experiments/<id>.metrics.json`, and flushes all sinks.
pub fn save(id: &str, value: &Json) {
    let stamped;
    let value = match value {
        Json::Obj(fields) => {
            let mut fields = fields.clone();
            if !fields.iter().any(|(k, _)| k == "provenance") {
                fields.push(("provenance".to_string(), provenance()));
            }
            let run_ids = qpinn_core::runs::session_run_ids();
            if !run_ids.is_empty() && !fields.iter().any(|(k, _)| k == "run_ids") {
                fields.push((
                    "run_ids".to_string(),
                    Json::Arr(run_ids.into_iter().map(Json::Str).collect()),
                ));
            }
            stamped = Json::Obj(fields);
            &stamped
        }
        other => other,
    };
    match qpinn_core::report::write_experiment_json(id, value) {
        Ok(p) => println!("\n[written {}]", p.display()),
        Err(e) => {
            let msg = telemetry::warn(
                "experiment_record_write_failed",
                format!("could not write record for {id}: {e}"),
            );
            eprintln!("\n[{msg}]");
        }
    }
    if telemetry::enabled() {
        qpinn_core::obs::emit_pool_stats(id);
        qpinn_core::obs::emit_buffer_pool_stats(id);
        let snap = telemetry::global().snapshot();
        telemetry::emit(snap.to_event("final_metrics"));
        let path = std::path::Path::new("target")
            .join("experiments")
            .join(format!("{id}.metrics.json"));
        match std::fs::write(&path, snap.to_json()) {
            Ok(()) => println!("[metrics snapshot {}]", path.display()),
            Err(e) => {
                let msg = telemetry::warn(
                    "metrics_snapshot_write_failed",
                    format!("could not write {}: {e}", path.display()),
                );
                eprintln!("[{msg}]");
            }
        }
        telemetry::flush();
    }
}

/// The harness-standard Adam schedule (step decay ×0.85) for a given epoch
/// budget.
pub fn standard_train(epochs: usize) -> qpinn_core::TrainConfig {
    qpinn_core::TrainConfig {
        epochs,
        schedule: qpinn_optim::LrSchedule::Step {
            lr0: 3e-3,
            factor: 0.85,
            every: (epochs / 8).max(1),
        },
        log_every: (epochs / 20).max(1),
        eval_every: 0,
        clip: Some(100.0),
        // L-BFGS polishing after Adam is the single most effective
        // convergence lever at fixed budget (see EXPERIMENTS.md).
        lbfgs_polish: Some((epochs / 10).clamp(50, 200)),
        checkpoint: None,
        // Bench runs are unattended: stop runs whose loss has exploded
        // rather than burning the rest of the budget.
        divergence: Some(qpinn_core::DivergenceGuard::default()),
        progress: None,
        run: None,
    }
}

/// The Schrödinger-family harness task config: [`ZooTaskConfig::standard`]
/// with the norm-conservation term (weight 10) and causal time weighting
/// (5 bins, ε = 1) switched on, and `n_collocation` interior points.
pub fn wave_config(n_collocation: usize) -> ZooTaskConfig {
    ZooTaskConfig {
        n_collocation,
        conservation: 10.0,
        causal: Some((5, 1.0)),
        ..ZooTaskConfig::standard()
    }
}

/// The harness's 1D wave architecture for registry problem `key`
/// ([`FieldNetConfig::standard_wave`]: periodic `x`, learned-period `t`,
/// 64 random Fourier features).
pub fn wave_net(key: &str, width: usize, depth: usize) -> FieldNetConfig {
    let coords = resolve_problem(key)
        .unwrap_or_else(|e| panic!("{e}"))
        .coords();
    FieldNetConfig::standard_wave(coords[0].span(), coords[1].hi, width, depth)
}

/// Assemble registry problem `key` as a [`ZooTask`] on the network `net`,
/// with parameters and collocation drawn from `seed`.
pub fn zoo_task(
    key: &str,
    net: &FieldNetConfig,
    cfg: &ZooTaskConfig,
    seed: u64,
) -> (ZooTask, ParamSet) {
    let problem = resolve_problem(key).unwrap_or_else(|e| panic!("{e}"));
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let task = ZooTask::with_net(problem, net, cfg, &mut params, &mut rng);
    (task, params)
}

/// The value following `--NAME` in an argument list, if any. The shared
/// primitive behind the registry-facing flags (`--problem`, `--ansatz`)
/// so binaries and tests parse them identically.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Resolve a `--problem KEY` value against the problem registry. The
/// error message lists every registered key (it is shown verbatim to the
/// user before exiting with status 2).
pub fn resolve_problem(key: &str) -> Result<Box<dyn qpinn_problems::PdeProblem>, String> {
    qpinn_problems::lookup(key).map_err(|e| format!("--problem: {e}"))
}

/// Resolve an `--ansatz NAME` value against the named ansatz table. As
/// with [`resolve_problem`], the error lists the valid names.
pub fn resolve_ansatz(name: &str) -> Result<qpinn_qcircuit::Ansatz, String> {
    qpinn_qcircuit::Ansatz::from_name(name).ok_or_else(|| {
        format!(
            "--ansatz: unknown ansatz '{name}'; registered: {}",
            qpinn_qcircuit::Ansatz::names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_switches_on_mode() {
        let quick = RunOpts {
            full: false,
            n_seeds: 2,
            ckpt: None,
            telemetry: None,
            epochs: None,
            serve_metrics: None,
            serve: None,
            access_log: None,
            runs: None,
        };
        let full = RunOpts {
            full: true,
            n_seeds: 5,
            ckpt: None,
            telemetry: None,
            epochs: None,
            serve_metrics: None,
            serve: None,
            access_log: None,
            runs: None,
        };
        assert_eq!(quick.pick(1, 10), 1);
        assert_eq!(full.pick(1, 10), 10);
        assert_eq!(quick.seeds(), vec![100, 101]);
    }

    #[test]
    fn epochs_override_beats_mode() {
        let mut opts = RunOpts {
            full: false,
            n_seeds: 2,
            ckpt: None,
            telemetry: None,
            epochs: None,
            serve_metrics: None,
            serve: None,
            access_log: None,
            runs: None,
        };
        assert_eq!(opts.pick_epochs(100, 1000), 100);
        opts.full = true;
        assert_eq!(opts.pick_epochs(100, 1000), 1000);
        opts.epochs = Some(7);
        assert_eq!(opts.pick_epochs(100, 1000), 7);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_reads_known_flags_and_rejects_everything_else() {
        let opts =
            RunOpts::parse(&argv(&["--seeds", "1", "--epochs", "60", "--full"]), &[]).unwrap();
        assert_eq!((opts.n_seeds, opts.epochs, opts.full), (1, Some(60), true));
        let opts = RunOpts::parse(&argv(&[]), &[]).unwrap();
        assert_eq!((opts.n_seeds, opts.epochs, opts.full), (2, None, false));
        // `--help`, unknown flags, stray positionals, missing or
        // malformed values are all usage errors.
        for bad in [
            &["--help"][..],
            &["-h"],
            &["--bogus"],
            &["--seeds", "1", "extra"],
            &["--seeds"],
            &["--epochs", "many"],
            &["--problem", "wave"],
            &["--telemetry", "--full", "--bogus"],
        ] {
            assert!(RunOpts::parse(&argv(bad), &[]).is_err(), "{bad:?} accepted");
        }
        // A binary's own flags are accepted only when it declares them.
        let sweep = [("--problem", true), ("--list-problems", false)];
        let opts = RunOpts::parse(&argv(&["--problem", "wave", "--seeds", "3"]), &sweep).unwrap();
        assert_eq!(opts.n_seeds, 3);
        assert!(RunOpts::parse(&argv(&["--list-problems"]), &sweep).is_ok());
        // A flag-looking value belongs to the flag before it.
        let opts = RunOpts::parse(&argv(&["--telemetry", "--full"]), &[]).unwrap();
        assert!(!opts.full);
        assert_eq!(opts.telemetry, Some(std::path::PathBuf::from("--full")));
    }

    #[test]
    fn flag_value_parses_pairs_and_ignores_missing() {
        let args: Vec<String> = ["sweep", "--problem", "helmholtz", "--ansatz", "layered"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--problem").as_deref(), Some("helmholtz"));
        assert_eq!(flag_value(&args, "--ansatz").as_deref(), Some("layered"));
        assert_eq!(flag_value(&args, "--epochs"), None);
        // trailing flag with no value
        let args = vec!["sweep".to_string(), "--problem".to_string()];
        assert_eq!(flag_value(&args, "--problem"), None);
    }

    #[test]
    fn every_registry_key_round_trips_through_the_problem_flag() {
        for key in qpinn_problems::keys() {
            let p = resolve_problem(key).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(p.key(), key);
        }
    }

    #[test]
    fn every_ansatz_name_round_trips_through_the_ansatz_flag() {
        for name in qpinn_qcircuit::Ansatz::names() {
            let a = resolve_ansatz(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a.name(), name);
        }
    }

    #[test]
    fn unknown_flag_values_error_and_list_the_registry() {
        let err = match resolve_problem("not-a-problem") {
            Ok(p) => panic!("resolved unknown key to {}", p.key()),
            Err(e) => e,
        };
        assert!(err.contains("helmholtz"), "should list keys: {err}");
        assert!(err.contains("gray-scott"), "should list keys: {err}");
        let err = resolve_ansatz("not-an-ansatz").unwrap_err();
        assert!(err.contains("layered"), "should list names: {err}");
    }
}
