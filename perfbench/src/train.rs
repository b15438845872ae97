//! The training workloads: `train-2d` (registry `tdse2d-free` on the
//! classical trunk) and `train-hybrid` (the QPINN eigen task with a
//! quantum layer).
//!
//! The untraced run times whole `Trainer::train` calls over a fixed
//! epoch budget, each starting from the same freshly built parameters,
//! until the run's time is spent. The traced run alternates those calls
//! with a loop that rebuilds each epoch from the crates' public calls
//! and times every call; both must end on bit-identical parameters.

use crate::calib::Burst;
use crate::report::{Check, Metrics, Outcome};
use crate::stats::median;
use qpinn_autodiff::Graph;
use qpinn_core::hybrid::{HybridEigenTask, HybridNet};
use qpinn_core::{PinnTask, ProgressHook, TrainConfig, Trainer, ZooTask, ZooTaskConfig};
use qpinn_nn::{GraphCtx, ParamSet};
use qpinn_optim::{clip, Adam, Optimizer};
use qpinn_problems::EigenProblem;
use qpinn_qcircuit::{Ansatz, InputScaling, QuantumLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which task a training workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// `ZooTask::from_key("tdse2d-free")` at `ZooTaskConfig::standard()`.
    Tdse2d,
    /// `HybridEigenTask` on the harmonic ground state.
    Hybrid,
}

impl TaskKind {
    /// Epochs of one timed `Trainer::train` call: enough for the error
    /// to fall several-fold, few enough that a run makes a call on each
    /// of its instances within the run's time. A hybrid epoch takes
    /// about twice as long as a `train-2d` one at pool width 1.
    fn epochs(self) -> usize {
        match self {
            TaskKind::Tdse2d => 30,
            TaskKind::Hybrid => 15,
        }
    }

    /// The calibration burst that mirrors the task's kind of work.
    fn burst(self) -> Burst {
        match self {
            TaskKind::Tdse2d => Burst::Mixed,
            TaskKind::Hybrid => Burst::Scalar,
        }
    }
}

/// The quantum layer of `train-hybrid`.
pub const HYBRID_LAYER: QuantumLayer = QuantumLayer {
    n_qubits: 5,
    layers: 3,
    ansatz: Ansatz::SimCirc15,
    scaling: InputScaling::Acos,
    reupload: false,
};
/// Trunk width of the hybrid net.
const HYBRID_HIDDEN: usize = 16;
/// Collocation points of the hybrid task.
const HYBRID_POINTS: usize = 128;
/// Grid of the hybrid task's finite-difference reference energy.
const HYBRID_REFERENCE_NX: usize = 401;

/// Epochs of the warm-up call inside each set-up.
const WARMUP_EPOCHS: usize = 2;
/// Instances (and set-ups) per run. On `train-2d` the error ratio after
/// the budget varies by about 15 % from one instance to the next;
/// `error_ratio` is the mean over all of them.
const INSTANCES: usize = 6;
/// Calibration bursts after each set-up.
const SETUP_BURSTS: usize = 9;

/// A built task and the parameters every timed call starts from.
struct Built {
    task: Box<dyn PinnTask>,
    params: ParamSet,
}

/// Seconds of traced serve traffic a training workload's traced run
/// adds to report the serve path.
const SERVE_PROBE_SECONDS: f64 = 3.0;

/// Seed of the hybrid network's initialisation. The hybrid task's error
/// after a short budget depends on the initial circuit angles far more
/// than on anything else, so the initialisation is part of the fixed
/// model and the workload seed picks the problem instance instead.
const HYBRID_INIT_SEED: u64 = 21;

/// Oscillator frequency of the hybrid task's harmonic potential, drawn
/// from `seed` in `[0.9, 1.1)`.
fn hybrid_omega(seed: u64) -> f64 {
    0.9 + 0.2 * StdRng::seed_from_u64(seed).gen::<f64>()
}

/// Build the task of `kind` from `seed`: for `Tdse2d` the network
/// initialisation and the Latin-hypercube collocation points, for
/// `Hybrid` the oscillator frequency.
fn build(kind: TaskKind, seed: u64) -> Built {
    let mut params = ParamSet::new();
    let task: Box<dyn PinnTask> = match kind {
        TaskKind::Tdse2d => {
            let mut rng = StdRng::seed_from_u64(seed);
            Box::new(
                ZooTask::from_key(
                    "tdse2d-free",
                    &ZooTaskConfig::standard(),
                    &mut params,
                    &mut rng,
                )
                .expect("tdse2d-free is a registered problem"),
            )
        }
        TaskKind::Hybrid => {
            let mut rng = StdRng::seed_from_u64(HYBRID_INIT_SEED);
            let net = HybridNet::new(&mut params, &mut rng, HYBRID_HIDDEN, HYBRID_LAYER, "hyb");
            Box::new(HybridEigenTask::new(
                EigenProblem::harmonic(hybrid_omega(seed)),
                net,
                HYBRID_POINTS,
                HYBRID_REFERENCE_NX,
            ))
        }
    };
    Built { task, params }
}

fn train_config(epochs: usize, hook: Option<ProgressHook>) -> TrainConfig {
    TrainConfig {
        epochs,
        // Every epoch reports to the hook, which stamps epoch boundaries.
        log_every: 1,
        progress: hook,
        ..TrainConfig::default()
    }
}

/// Result of one timed training call.
struct Call {
    /// Wall time of the call, calibration pauses left out.
    wall_ms: f64,
    /// Time of the calibration pauses inside the call.
    paused_ms: f64,
    epoch_ms: Vec<f64>,
    /// Median calibration burst between the call's epochs (untraced
    /// calls only).
    burst_ms: Option<f64>,
    params: Vec<u64>,
    error: f64,
    first_loss: f64,
    final_loss: f64,
}

/// A calibration pause between two epochs: its start, its end and the
/// burst's own time in ms.
type Pause = (Instant, Instant, f64);

/// One untraced `Trainer::train` call from `start`. A progress hook ends
/// each epoch by running a calibration `burst` and stamping the pause it
/// took; epoch and call times leave the pauses out.
fn untraced_call(task: &mut dyn PinnTask, start: &ParamSet, epochs: usize, burst: Burst) -> Call {
    let pauses: Arc<Mutex<Vec<Pause>>> = Arc::new(Mutex::new(Vec::with_capacity(epochs)));
    let hook = {
        let pauses = pauses.clone();
        ProgressHook::new(move |_| {
            let t = Instant::now();
            let burst = burst.run();
            pauses
                .lock()
                .expect("pause lock is never held across a panic")
                .push((t, Instant::now(), burst))
        })
    };
    let trainer = Trainer::new(train_config(epochs, Some(hook)));
    let mut params = start.clone();
    let t0 = Instant::now();
    let log = trainer.train(task, &mut params);
    let elapsed = t0.elapsed();
    let pauses = pauses
        .lock()
        .expect("pause lock is never held across a panic");
    let paused: Duration = pauses.iter().map(|(a, b, _)| *b - *a).sum();
    let bursts: Vec<f64> = pauses.iter().map(|p| p.2).collect();
    Call {
        wall_ms: (elapsed - paused).as_secs_f64() * 1e3,
        paused_ms: paused.as_secs_f64() * 1e3,
        epoch_ms: pauses
            .windows(2)
            .map(|w| (w[1].0 - w[0].1).as_secs_f64() * 1e3)
            .collect(),
        burst_ms: Some(median(&bursts)),
        params: bits(&params),
        error: log.final_error,
        first_loss: log.loss.first().copied().unwrap_or(f64::NAN),
        final_loss: log.final_loss,
    }
}

/// Per-epoch times of the public calls one epoch is made of.
#[derive(Default)]
struct Phases {
    build_loss: Vec<f64>,
    backward: Vec<f64>,
    collect: Vec<f64>,
    clip: Vec<f64>,
    step: Vec<f64>,
    tape_nodes: Vec<f64>,
}

/// The traced loop: `Graph::new` → `PinnTask::build_loss` →
/// `Graph::backward` → `GraphCtx::collect_grads` →
/// `clip::clip_global_norm` → `Optimizer::step`, the same sequence
/// `Trainer::train` runs, with each call timed.
fn traced_call(
    task: &mut dyn PinnTask,
    start: &ParamSet,
    epochs: usize,
    phases: &mut Phases,
) -> Call {
    let cfg = train_config(epochs, None);
    let max_norm = cfg.clip.expect("the default config clips");
    let mut params = start.clone();
    let mut opt = Adam::new(cfg.schedule.at(0));
    let mut epoch_ms = Vec::with_capacity(epochs);
    let (mut first_loss, mut final_loss) = (f64::NAN, f64::NAN);
    let t0 = Instant::now();
    for epoch in 0..epochs {
        let e0 = Instant::now();
        opt.set_lr(cfg.schedule.at(epoch));
        let mut grads = {
            let mut g = Graph::new();
            let mut ctx = GraphCtx::new(&mut g, &params);
            let t = Instant::now();
            let loss = task.build_loss(&mut ctx);
            let loss_val = ctx.g.value(loss).item();
            phases.build_loss.push(ms(t));
            let t = Instant::now();
            let mut raw = ctx.g.backward(loss);
            phases.backward.push(ms(t));
            let t = Instant::now();
            let collected = ctx.collect_grads(&mut raw);
            phases.collect.push(ms(t));
            phases.tape_nodes.push(ctx.g.len() as f64);
            if epoch == 0 {
                first_loss = loss_val;
            }
            final_loss = loss_val;
            collected
        };
        let t = Instant::now();
        clip::clip_global_norm(&mut grads, max_norm);
        phases.clip.push(ms(t));
        let t = Instant::now();
        opt.step(params.tensors_mut(), &grads);
        phases.step.push(ms(t));
        epoch_ms.push(ms(e0));
    }
    let wall_ms = ms(t0);
    Call {
        wall_ms,
        paused_ms: 0.0,
        epoch_ms,
        burst_ms: None,
        params: bits(&params),
        error: task.eval_error(&params),
        first_loss,
        final_loss,
    }
}

fn push_phases(m: &mut Metrics, phases: &Phases) {
    m.push("core.build_loss_ms", median(&phases.build_loss), "ms");
    m.push("autodiff.backward_ms", median(&phases.backward), "ms");
    m.push("autodiff.tape_nodes", median(&phases.tape_nodes), "count");
    m.push("nn.collect_grads_ms", median(&phases.collect), "ms");
    m.push("optim.clip_ms", median(&phases.clip), "ms");
    m.push("optim.adam_step_ms", median(&phases.step), "ms");
}

/// Training-loop layer metrics from `epochs` traced epochs of `task`,
/// for workloads that do not train in their timed part.
pub fn loop_probe(m: &mut Metrics, task: &mut dyn PinnTask, params: &ParamSet, epochs: usize) {
    let mut phases = Phases::default();
    traced_call(task, params, epochs, &mut phases);
    push_phases(m, &phases);
}

/// Epochs of each pass of [`pool_probe`].
const POOL_PROBE_EPOCHS: usize = 5;
/// Pool width of [`pool_probe`]'s parallel pass.
const POOL_PROBE_WIDTH: usize = 2;

/// `rayon`: the work-stealing pool over traced `train-hybrid` epochs at
/// width 2, where the per-row `par_iter` runs on two threads: deltas of
/// `rayon::pool_stats()` per epoch, and the median epoch's speed-up over
/// the same epochs at width 1. The timed workloads run at width 1, where
/// the pool runs every set inline and its counters stay at 0.
pub fn pool_probe(m: &mut Metrics, seed: u64) {
    let mut b = build(TaskKind::Hybrid, seed);
    let mut at_width = |width: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("the vendored pool builder is infallible");
        pool.install(|| {
            let before = rayon::pool_stats();
            let call = traced_call(
                b.task.as_mut(),
                &b.params,
                POOL_PROBE_EPOCHS,
                &mut Phases::default(),
            );
            (median(&call.epoch_ms), before, rayon::pool_stats())
        })
    };
    let (serial_ms, _, _) = at_width(1);
    let (parallel_ms, s0, s1) = at_width(POOL_PROBE_WIDTH);
    let steals =
        |s: &rayon::PoolStats| s.launcher_steals + s.workers.iter().map(|w| w.steals).sum::<u64>();
    let idle = |s: &rayon::PoolStats| s.workers.iter().map(|w| w.idle_waits).sum::<u64>();
    let per_epoch = |v: u64| v as f64 / POOL_PROBE_EPOCHS as f64;
    let sets = per_epoch(s1.sets_launched - s0.sets_launched);
    m.push("rayon.sets_per_epoch", sets, "count");
    let tasks = per_epoch(s1.total_tasks() - s0.total_tasks());
    m.push("rayon.tasks_per_epoch", tasks, "count");
    let stolen = per_epoch(steals(&s1) - steals(&s0));
    m.push("rayon.steals_per_epoch", stolen, "count");
    let waits = per_epoch(idle(&s1) - idle(&s0));
    m.push("rayon.idle_waits_per_epoch", waits, "count");
    m.push("rayon.speedup_w2", serial_ms / parallel_ms, "1");
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bits(params: &ParamSet) -> Vec<u64> {
    params.flatten().iter().map(|v| v.to_bits()).collect()
}

/// Set up [`INSTANCES`] times (median reported), then time training
/// calls at pool width `width` until `seconds` have passed.
pub fn run(kind: TaskKind, width: usize, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the vendored pool builder is infallible");
    pool.install(|| run_in_pool(kind, seed, seconds, trace))
}

/// Seed of instance `k` of a run with `seed`; distinct for every pair.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(256).wrapping_add(k as u64)
}

fn run_in_pool(kind: TaskKind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let burst = kind.burst();
    let mut setup_s = Vec::new();
    let mut tasks = Vec::new();
    let mut setup_raw_s = Vec::new();
    for k in 0..INSTANCES {
        let t0 = Instant::now();
        let mut b = build(kind, sub_seed(seed, k));
        let warm = untraced_call(b.task.as_mut(), &b.params, WARMUP_EPOCHS, burst);
        let raw = t0.elapsed().as_secs_f64() - warm.paused_ms / 1e3;
        setup_raw_s.push(raw);
        setup_s.push(raw * burst.scale(burst.median_of(SETUP_BURSTS)));
        tasks.push(b);
    }
    let initial: Vec<f64> = tasks.iter().map(|b| b.task.eval_error(&b.params)).collect();

    // Calls rotate over the set-up tasks; the traced run follows each
    // `Trainer::train` call with the public-call loop on the same task,
    // so host drift hits both loops alike.
    let budget = kind.epochs();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced: Vec<(usize, Call)> = Vec::new();
    let mut traced: Vec<(usize, Call)> = Vec::new();
    let mut phases = Phases::default();
    // An untraced run trains every instance at least once: their mean is
    // `error_ratio`.
    let min_calls = if trace { 1 } else { INSTANCES };
    while untraced.len() < min_calls || Instant::now() < deadline {
        let k = untraced.len() % tasks.len();
        let b = &mut tasks[k];
        untraced.push((k, untraced_call(b.task.as_mut(), &b.params, budget, burst)));
        if trace {
            traced.push((
                k,
                traced_call(b.task.as_mut(), &b.params, budget, &mut phases),
            ));
        }
    }

    let mut check = Check::default();
    // Calls rotate from instance 0, so the first calls are one per instance.
    let first = &untraced[..untraced.len().min(INSTANCES)];
    let mut failed = 0;
    for (i, (k, c)) in untraced.iter().chain(&traced).enumerate() {
        let reference = &first[*k].1;
        if c.params != reference.params || c.error.to_bits() != reference.error.to_bits() {
            failed += 1;
            check.fail(format!(
                "training call {i} on task {k} ended on other parameters or error ({} vs {}) \
                 than the first call on it",
                c.error, reference.error
            ));
        }
    }
    for (_, c) in first {
        check.expect(
            c.error.is_finite() && c.error > 0.0,
            format!("error after training is {}", c.error),
        );
        check.expect(
            c.final_loss < c.first_loss,
            format!(
                "loss did not fall over the budget: {} -> {}",
                c.first_loss, c.final_loss
            ),
        );
    }
    let ratios: f64 = first.iter().map(|(k, c)| c.error / initial[*k]).sum();
    let error_ratio = ratios / first.len() as f64;
    let untraced: Vec<Call> = untraced.into_iter().map(|(_, c)| c).collect();
    let traced: Vec<Call> = traced.into_iter().map(|(_, c)| c).collect();

    let epochs: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.epoch_ms.iter().copied())
        .collect();
    // Each untraced call's times scaled to the reference host by the
    // bursts between its own epochs.
    let scale = |c: &Call| burst.scale(c.burst_ms.expect("untraced calls calibrate"));
    let scaled_epochs: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.epoch_ms.iter().map(move |e| e * scale(c)))
        .collect();
    let calls: Vec<f64> = untraced.iter().map(|c| c.wall_ms * scale(c)).collect();
    let attempted = (untraced.len() + traced.len()) as u64;
    let mut m = Metrics::default();
    let mut info = Metrics::default();
    if trace {
        let traced_epochs: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.epoch_ms.iter().copied())
            .collect();
        push_phases(&mut m, &phases);
        m.push(
            "telemetry.trace_overhead_pct",
            (median(&traced_epochs) / median(&epochs) - 1.0) * 100.0,
            "%",
        );
        crate::serve::probe(&mut m, seed, SERVE_PROBE_SECONDS, &mut check);
    } else {
        m.push("setup_s", median(&setup_s), "s");
        m.push("op_ms.p50", median(&scaled_epochs), "ms");
        m.push("bulk_ms.p50", median(&calls), "ms");
        let epoch_total: f64 = calls.iter().sum::<f64>() / 1e3;
        m.push(
            "ops_per_s",
            (untraced.len() * budget) as f64 / epoch_total,
            "1/s",
        );
        m.push("error_ratio", error_ratio, "1");
        info.push_tail("op_ms", &scaled_epochs, "ms");
        info.push_tail("bulk_ms", &calls, "ms");
        let bursts: Vec<f64> = untraced.iter().filter_map(|c| c.burst_ms).collect();
        info.push("raw.setup_s", median(&setup_raw_s), "s");
        info.push("raw.op_ms.p50", median(&epochs), "ms");
        info.push("calib.burst_ms.p50", median(&bursts), "ms");
    }
    Outcome {
        attempted,
        failed,
        check,
        metrics: m,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_loss(b: &mut Built) -> f64 {
        let mut g = Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &b.params);
        let loss = b.task.build_loss(&mut ctx);
        ctx.g.value(loss).item()
    }

    #[test]
    fn same_seed_gives_the_same_collocation_points_and_initialisation() {
        // The first loss is a function of the collocation points and the
        // initial parameters; equal bits mean equal inputs.
        let mut a = build(TaskKind::Tdse2d, 5);
        let mut b = build(TaskKind::Tdse2d, 5);
        assert_eq!(bits(&a.params), bits(&b.params));
        assert_eq!(first_loss(&mut a).to_bits(), first_loss(&mut b).to_bits());
        let mut c = build(TaskKind::Tdse2d, 6);
        assert_ne!(first_loss(&mut a).to_bits(), first_loss(&mut c).to_bits());
    }

    #[test]
    fn hybrid_seed_picks_the_problem_instance() {
        assert_eq!(hybrid_omega(4), hybrid_omega(4));
        assert_ne!(hybrid_omega(4), hybrid_omega(5));
        assert!((0.9..1.1).contains(&hybrid_omega(4)));
        let a = build(TaskKind::Hybrid, 4);
        let b = build(TaskKind::Hybrid, 5);
        assert_eq!(
            bits(&a.params),
            bits(&b.params),
            "the initialisation is fixed"
        );
    }

    #[test]
    fn traced_loop_is_the_same_program_as_trainer_train() {
        let mut b = build(TaskKind::Hybrid, 2);
        let plain = untraced_call(b.task.as_mut(), &b.params, 2, Burst::Scalar);
        let traced = traced_call(b.task.as_mut(), &b.params, 2, &mut Phases::default());
        assert_eq!(plain.params, traced.params);
        assert_eq!(plain.error.to_bits(), traced.error.to_bits());
        assert_eq!(
            plain.epoch_ms.len(),
            1,
            "two epochs leave one boundary interval"
        );
    }
}
