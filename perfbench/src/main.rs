//! `qpinn-perfbench`: the repository benchmark.
//!
//! ```text
//! qpinn-perfbench --workload <train-2d|train-hybrid|serve-mixed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics. The line before it
//! records provenance and figures reported but not gated (tails, sample
//! counts). Exit status 1 means a correctness check failed, 2 a usage
//! error. See `perfbench/README.md`.

mod calib;
mod probes;
mod report;
mod serve;
mod stats;
mod train;

use qpinn_core::report::Json;
use report::Outcome;
use train::TaskKind;

/// Metrics of an untraced run, emitted by every workload.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "op_ms.p50",
    "bulk_ms.p50",
    "ops_per_s",
    "error_ratio",
    "peak_rss_mb",
];

/// Metrics of a traced run, emitted by every workload.
pub const PER_LAYER: [&str; 36] = [
    "core.build_loss_ms",
    "autodiff.backward_ms",
    "autodiff.tape_nodes",
    "nn.collect_grads_ms",
    "optim.clip_ms",
    "optim.adam_step_ms",
    "rayon.sets_per_epoch",
    "rayon.tasks_per_epoch",
    "rayon.steals_per_epoch",
    "rayon.idle_waits_per_epoch",
    "rayon.speedup_w2",
    "tensor.matmul_gflops",
    "tensor.tanh_gelem_per_s",
    "qcircuit.forward_ms",
    "qcircuit.jacobian_ms",
    "qcircuit.jvp_grads_ms",
    "qcircuit.circuits_per_s",
    "solvers.reference_s",
    "sampling.lhs_ms",
    "serve.queue_ms.point.p50",
    "serve.batch_ms.point.p50",
    "serve.compute_ms.point.p50",
    "serve.serialize_ms.point.p50",
    "serve.queue_ms.slice.p50",
    "serve.batch_ms.slice.p50",
    "serve.compute_ms.slice.p50",
    "serve.serialize_ms.slice.p50",
    "serve.requests_per_flush",
    "serve.points_per_flush",
    "serve.transport_ms.p50",
    "core.predict_batch_ms.1",
    "core.predict_batch_ms.512",
    "report.json_parse_ms",
    "persist.publish_ms",
    "serve.cold_load_ms",
    "telemetry.trace_overhead_pct",
];

/// Pool width every workload's parallel operations run at. At width 2
/// on a 2-core host, one busy process beside the benchmark slowed
/// `train-hybrid` epochs by a third, against 6 % at width 1; the traced
/// runs measure the pool at width 2 in `train::pool_probe`.
const POOL_WIDTH: usize = 1;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Train2d,
    TrainHybrid,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("train-2d", Workload::Train2d),
        ("train-hybrid", Workload::TrainHybrid),
        ("serve-mixed", Workload::ServeMixed),
    ];

    fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
                    format!("unknown workload `{value}`; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = POOL_WIDTH;
    // Threads that compete for cores while the clock runs: the pool
    // (its caller included) plus, for serving, the load generators.
    let clients = match args.workload {
        Workload::ServeMixed => serve::CLIENTS,
        _ => 0,
    };
    Json::obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::Str(report::git_rev())),
        ("nproc", Json::Num(nproc as f64)),
        ("simd_width", Json::Num(qpinn_tensor::simd::width() as f64)),
        ("pool_width", Json::Num(width as f64)),
        ("client_threads", Json::Num(clients as f64)),
        ("connections", Json::Num(clients as f64)),
        ("serve_workers", Json::Num(serve::WORKERS as f64)),
        (
            "models_fs",
            Json::Str(report::fs_type(&serve::models_root())),
        ),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qpinn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Parallel operations on threads the benchmark does not scope itself
    // (serve's batch dispatcher, the layer probes) take the pool's
    // default width.
    let width = POOL_WIDTH;
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());

    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut outcome: Outcome = match args.workload {
        Workload::Train2d => train::run(TaskKind::Tdse2d, width, seed, seconds, trace),
        Workload::TrainHybrid => train::run(TaskKind::Hybrid, width, seed, seconds, trace),
        Workload::ServeMixed => serve::run(seed, seconds, trace),
    };
    let expected: &[&str] = if args.trace {
        probes::tensor(&mut outcome.metrics, args.seed);
        probes::qcircuit(&mut outcome.metrics, args.seed);
        probes::setup_layers(&mut outcome.metrics, args.seed);
        train::pool_probe(&mut outcome.metrics, args.seed);
        &PER_LAYER
    } else {
        match report::peak_rss_mb() {
            Some(mb) => outcome.metrics.push("peak_rss_mb", mb, "MB"),
            None => outcome
                .check
                .fail("cannot read VmHWM from /proc/self/status".into()),
        }
        &END_TO_END
    };
    let mut emitted: Vec<&str> = outcome
        .metrics
        .0
        .iter()
        .map(|(n, _, _)| n.as_str())
        .collect();
    emitted.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if emitted != want {
        outcome
            .check
            .fail(format!("emitted metrics {emitted:?}, expected {want:?}"));
    }
    for (name, value, _) in &outcome.metrics.0 {
        if !report::valid_metric_name(name) {
            outcome
                .check
                .fail(format!("metric name `{name}` is outside [A-Za-z0-9_.-]+"));
        }
        if !value.is_finite() {
            outcome.check.fail(format!("metric `{name}` is {value}"));
        }
    }
    for f in &outcome.check.failures {
        eprintln!("qpinn-perfbench: correctness: {f}");
    }
    println!(
        "{}",
        Json::obj(vec![
            ("provenance", provenance(&args)),
            ("info", outcome.info.to_json()),
        ])
        .to_string()
    );
    println!("{}", outcome.to_json().to_string());
    if !outcome.check.failures.is_empty() || outcome.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list")
        };
        let mut out: Vec<String> = items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect();
        out.sort();
        out
    }

    fn sorted(list: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn every_benchmark_json_name_is_emitted_by_a_run() {
        let doc = benchmark_json();
        // Runs fail their correctness check unless they emit exactly these
        // lists, so equality here means every listed metric is emitted.
        assert_eq!(names(&doc, "end_to_end"), sorted(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), sorted(&PER_LAYER));
        let mut workloads = names(&doc, "workloads");
        workloads.sort();
        assert_eq!(workloads, sorted(&Workload::ALL.map(|(n, _)| n)));
    }

    #[test]
    fn every_metric_name_uses_the_allowed_alphabet() {
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(report::valid_metric_name(name), "{name}");
        }
        let all: std::collections::BTreeSet<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload train-2d --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Train2d, 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-mixed --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-mixed --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
