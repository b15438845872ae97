//! The generic registry-driven training task: one [`PinnTask`]
//! implementation that trains *any* [`PdeProblem`] from the problem
//! registry — vector-valued outputs, derivative-valued conditions, and
//! arbitrary coordinate counts included. This is what makes a new PDE
//! family trainable by registering data instead of writing a task.
//!
//! Two optional loss features ride on problem data: the global
//! norm-conservation term (for problems that declare a conserved norm,
//! [`PdeProblem::conserved_norm`]) and causal time weighting of the
//! residuals over the problem's [`CoordKind::Time`] coordinate. Both are
//! off in [`ZooTaskConfig::standard`] and [`ZooTaskConfig::quick`].

use crate::causal::CausalWeights;
use crate::loss;
use crate::model::{CoordSpec, FieldNet, FieldNetConfig, RffSpec};
use crate::residual::split_fields;
use crate::trainer::PinnTask;
use qpinn_autodiff::Var;
use qpinn_nn::{Activation, GraphCtx, ParamSet};
use qpinn_problems::zoo::{
    lookup, CoordDef, CoordKind, Fidelity, PdeProblem, RefSolution, UnknownProblem,
};
use qpinn_sampling::{latin_hypercube, Domain};
use qpinn_tensor::Tensor;
use rand::rngs::StdRng;

/// Configuration of a [`ZooTask`].
#[derive(Clone, Debug)]
pub struct ZooTaskConfig {
    /// Hidden width of the MLP trunk.
    pub width: usize,
    /// Hidden depth.
    pub depth: usize,
    /// Random-Fourier-feature layer on/off.
    pub rff: bool,
    /// Number of interior collocation points (Latin hypercube).
    pub n_collocation: usize,
    /// Points per IC/BC condition set.
    pub n_condition: usize,
    /// Weight of each condition term relative to the PDE residual.
    pub cond_weight: f64,
    /// Weight of the norm-conservation term on problems that declare a
    /// conserved norm (0 disables it). Its grid is time-major:
    /// [`CONSERVATION_SLICES`] slices of about `n_condition / 4` spatial
    /// points each.
    pub conservation: f64,
    /// Causal time weighting `(bins, epsilon)` of the residuals over the
    /// time coordinate, `None` to disable.
    pub causal: Option<(usize, f64)>,
    /// Reference resolution.
    pub fidelity: Fidelity,
    /// Budget of reference-evaluation points for the L2 metric
    /// (distributed as a tensor grid over the coordinates).
    pub eval_budget: usize,
}

impl ZooTaskConfig {
    /// Bench-grade defaults.
    pub fn standard() -> Self {
        ZooTaskConfig {
            width: 48,
            depth: 3,
            rff: true,
            n_collocation: 2048,
            n_condition: 256,
            cond_weight: 10.0,
            conservation: 0.0,
            causal: None,
            fidelity: Fidelity::Full,
            eval_budget: 4096,
        }
    }

    /// Small and fast for smoke tests and CI.
    pub fn quick() -> Self {
        ZooTaskConfig {
            width: 16,
            depth: 2,
            rff: false,
            n_collocation: 128,
            n_condition: 48,
            cond_weight: 10.0,
            conservation: 0.0,
            causal: None,
            fidelity: Fidelity::Quick,
            eval_budget: 512,
        }
    }
}

/// Map a problem's coordinate metadata to a [`FieldNetConfig`].
pub fn net_config_for(problem: &dyn PdeProblem, cfg: &ZooTaskConfig) -> FieldNetConfig {
    let coords = problem
        .coords()
        .iter()
        .map(|c| match c.kind {
            CoordKind::Periodic => CoordSpec::Periodic { length: c.span() },
            CoordKind::Bounded => CoordSpec::Raw,
            CoordKind::Time => CoordSpec::LearnedPeriod {
                period0: 4.0 * c.span(),
            },
        })
        .collect();
    FieldNetConfig {
        coords,
        rff: cfg.rff.then_some(RffSpec {
            n_features: 32,
            sigma: 1.0,
        }),
        hidden: vec![cfg.width; cfg.depth],
        n_fields: problem.n_outputs(),
        activation: Activation::Tanh,
    }
}

/// Time slices of the norm-conservation grid.
pub const CONSERVATION_SLICES: usize = 8;

struct PreparedCondition {
    name: &'static str,
    deriv: Option<usize>,
    cols: Vec<Tensor>,
    target: Tensor,
}

/// The norm-conservation term's fixed grid and target.
struct Conservation {
    weight: f64,
    cols: Vec<Tensor>,
    per_slice: usize,
    volume: f64,
    norm0: f64,
}

impl Conservation {
    /// A time-major grid: [`CONSERVATION_SLICES`] slices at
    /// `t_k = t_lo + span·(k+1)/slices`, each a tensor grid of about
    /// `n_condition / 4` points over the spatial coordinates (periodic
    /// axes omit the duplicated edge, bounded axes use cell midpoints, so
    /// `volume · mean` is a quadrature either way).
    fn new(coords: &[CoordDef], t_idx: usize, n_condition: usize, weight: f64, norm0: f64) -> Self {
        let t = &coords[t_idx];
        let slices = (1..=CONSERVATION_SLICES)
            .map(|k| t.lo + t.span() * k as f64 / CONSERVATION_SLICES as f64)
            .collect();
        let n_space = coords.len() - 1;
        let per_axis = ((n_condition / 4) as f64)
            .powf(1.0 / n_space as f64)
            .round()
            .max(2.0) as usize;
        let mut axes = vec![slices];
        let mut volume = 1.0;
        for c in coords.iter().filter(|c| c.kind != CoordKind::Time) {
            let offset = if c.kind == CoordKind::Periodic {
                0.0
            } else {
                0.5
            };
            axes.push(
                (0..per_axis)
                    .map(|i| c.lo + c.span() * (i as f64 + offset) / per_axis as f64)
                    .collect(),
            );
            volume *= c.span();
        }
        // Time is the outermost axis of the product; move it back to its
        // column.
        let points: Vec<Vec<f64>> = tensor_grid(&axes)
            .into_iter()
            .map(|mut p| {
                let tk = p.remove(0);
                p.insert(t_idx, tk);
                p
            })
            .collect();
        Conservation {
            weight,
            cols: columns_of(&points, coords.len()),
            per_slice: per_axis.pow(n_space as u32),
            volume,
            norm0,
        }
    }
}

/// A registry problem assembled into a trainable task.
pub struct ZooTask {
    problem: Box<dyn PdeProblem>,
    net: FieldNet,
    points: Vec<Vec<f64>>,
    point_cols: Vec<Tensor>,
    conditions: Vec<PreparedCondition>,
    cond_weight: f64,
    conservation: Option<Conservation>,
    causal: Option<CausalWeights>,
    reference: Box<dyn RefSolution>,
    eval_points: Vec<Vec<f64>>,
    eval_ref: Vec<f64>,
}

impl ZooTask {
    /// Assemble a task straight from a registry key.
    pub fn from_key(
        key: &str,
        cfg: &ZooTaskConfig,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Result<Self, UnknownProblem> {
        Ok(ZooTask::new(lookup(key)?, cfg, params, rng))
    }

    /// Assemble a task from a boxed problem definition with the network
    /// [`net_config_for`] derives from the problem's coordinates.
    pub fn new(
        problem: Box<dyn PdeProblem>,
        cfg: &ZooTaskConfig,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Self {
        let net_cfg = net_config_for(problem.as_ref(), cfg);
        ZooTask::with_net(problem, &net_cfg, cfg, params, rng)
    }

    /// Assemble a task with an explicit network architecture (`cfg`'s
    /// `width`/`depth`/`rff` are then unused). Network parameters are
    /// registered into `params` under the problem key, so a serve-side
    /// spec rebuild with `name = key` replays the construction bit-exactly.
    pub fn with_net(
        problem: Box<dyn PdeProblem>,
        net_cfg: &FieldNetConfig,
        cfg: &ZooTaskConfig,
        params: &mut ParamSet,
        rng: &mut StdRng,
    ) -> Self {
        let net = FieldNet::new(params, rng, net_cfg, problem.key());

        let coords = problem.coords();
        let ranges: Vec<(f64, f64)> = coords.iter().map(|c| (c.lo, c.hi)).collect();
        let domain = Domain::new(&ranges);
        let points = latin_hypercube(&domain, cfg.n_collocation, rng);
        let point_cols = columns_of(&points, coords.len());

        let conditions = problem
            .conditions(cfg.n_condition)
            .into_iter()
            .map(|c| {
                let n_out = problem.n_outputs();
                let flat: Vec<f64> = c.targets.iter().flatten().copied().collect();
                PreparedCondition {
                    name: c.name,
                    deriv: c.deriv,
                    cols: columns_of(&c.points, coords.len()),
                    target: Tensor::from_vec([c.points.len(), n_out], flat),
                }
            })
            .collect();

        let t_idx = coords.iter().position(|c| c.kind == CoordKind::Time);
        let conservation = match (t_idx, problem.conserved_norm()) {
            (Some(t), Some(norm0)) if cfg.conservation > 0.0 => Some(Conservation::new(
                &coords,
                t,
                cfg.n_condition,
                cfg.conservation,
                norm0,
            )),
            _ => None,
        };
        let causal = t_idx.zip(cfg.causal).map(|(t, (bins, eps))| {
            let times: Vec<f64> = points.iter().map(|p| p[t]).collect();
            CausalWeights::new(coords[t].lo, coords[t].hi, bins, eps, &times)
        });

        let reference = problem.reference(cfg.fidelity);
        // Tensor evaluation grid: spread the budget evenly over the axes.
        let per_axis = (cfg.eval_budget as f64)
            .powf(1.0 / coords.len() as f64)
            .round()
            .max(5.0) as usize;
        let axes: Vec<Vec<f64>> = coords
            .iter()
            .map(|c| {
                let denom = match c.kind {
                    CoordKind::Periodic => per_axis as f64,
                    _ => (per_axis - 1) as f64,
                };
                (0..per_axis)
                    .map(|i| c.lo + c.span() * i as f64 / denom)
                    .collect()
            })
            .collect();
        let eval_points = tensor_grid(&axes);
        let eval_ref: Vec<f64> = eval_points
            .iter()
            .flat_map(|p| reference.sample(p))
            .collect();

        ZooTask {
            problem,
            net,
            points,
            point_cols,
            conditions,
            cond_weight: cfg.cond_weight,
            conservation,
            causal,
            reference,
            eval_points,
            eval_ref,
        }
    }

    /// The problem definition.
    pub fn problem(&self) -> &dyn PdeProblem {
        self.problem.as_ref()
    }

    /// The surrogate network.
    pub fn net(&self) -> &FieldNet {
        &self.net
    }

    /// The reference solution the error metric is scored against.
    pub fn reference(&self) -> &dyn RefSolution {
        self.reference.as_ref()
    }
}

/// Cartesian product of per-axis node lists, the first axis outermost.
fn tensor_grid(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    axes.iter().fold(vec![Vec::new()], |grid, axis| {
        grid.into_iter()
            .flat_map(|p| {
                axis.iter().map(move |&v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect()
    })
}

fn columns_of(points: &[Vec<f64>], n_coords: usize) -> Vec<Tensor> {
    (0..n_coords)
        .map(|c| Tensor::column(&points.iter().map(|p| p[c]).collect::<Vec<_>>()))
        .collect()
}

impl PinnTask for ZooTask {
    fn build_loss(&mut self, ctx: &mut GraphCtx<'_>) -> Var {
        let cols: Vec<Var> = {
            let _span = qpinn_telemetry::span("sample");
            qpinn_telemetry::counter("train.collocation_points").add(self.points.len() as u64);
            self.point_cols
                .iter()
                .map(|t| ctx.g.constant(t.clone()))
                .collect()
        };
        let fields = {
            let _span = qpinn_telemetry::span("forward");
            let out = self.net.forward_jet(ctx, &cols);
            split_fields(ctx.g, &out, self.net.n_fields())
        };
        let residual_span = qpinn_telemetry::span("residual");
        let residuals = self.problem.residuals(ctx.g, &fields, &self.points);
        // Causal weights come from the current unweighted residuals
        // Σ_c r_c², binned over the time coordinate.
        let weights = self.causal.as_mut().map(|cw| {
            let mut r2 = vec![0.0; self.points.len()];
            for &r in &residuals {
                for (acc, v) in r2.iter_mut().zip(ctx.g.value(r).data()) {
                    *acc += v * v;
                }
            }
            cw.update(&r2);
            ctx.g.constant(Tensor::column(&cw.point_weights()))
        });
        let mut lpde = loss::residual_mse(ctx.g, residuals[0], weights);
        for &r in &residuals[1..] {
            let l = loss::residual_mse(ctx.g, r, weights);
            lpde = ctx.g.add(lpde, l);
        }
        drop(residual_span);

        let mut terms = vec![(1.0, lpde)];
        let mut components = vec![("pde", lpde)];
        let conditions_span = qpinn_telemetry::span("conditions");
        for cond in &self.conditions {
            let ccols: Vec<Var> = cond
                .cols
                .iter()
                .map(|t| ctx.g.constant(t.clone()))
                .collect();
            let l = match cond.deriv {
                None => loss::ic_loss(ctx, &self.net, &ccols, &cond.target),
                Some(c) => {
                    // Derivative-valued condition (e.g. initial velocity):
                    // constrain ∂(fields)/∂coord_c at the condition points.
                    let jet = self.net.forward_jet(ctx, &ccols);
                    let tgt = ctx.g.constant(cond.target.clone());
                    let diff = ctx.g.sub(jet.d[c], tgt);
                    ctx.g.mse(diff)
                }
            };
            terms.push((self.cond_weight, l));
            components.push((cond.name, l));
        }
        drop(conditions_span);
        if let Some(cons) = &self.conservation {
            let _span = qpinn_telemetry::span("conservation");
            let ccols: Vec<Var> = cons
                .cols
                .iter()
                .map(|t| ctx.g.constant(t.clone()))
                .collect();
            let l = loss::norm_conservation_loss(
                ctx,
                &self.net,
                &ccols,
                cons.per_slice,
                cons.volume,
                cons.norm0,
            );
            terms.push((cons.weight, l));
            components.push(("conservation", l));
        }
        loss::publish_components(ctx.g, &components);
        loss::total_loss(ctx.g, &terms)
    }

    fn eval_error(&self, params: &ParamSet) -> f64 {
        let pred = self.net.predict(params, &self.eval_points);
        let mut num = 0.0;
        let mut den = 0.0;
        for (p, r) in pred.data().iter().zip(&self.eval_ref) {
            num += (p - r) * (p - r);
            den += r * r;
        }
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gray_scott_task_is_vector_valued_and_finite() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut task =
            ZooTask::from_key("gray-scott", &ZooTaskConfig::quick(), &mut params, &mut rng)
                .unwrap();
        assert_eq!(task.net().n_fields(), 2);
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let l = task.build_loss(&mut ctx);
        assert!(g.value(l).item().is_finite());
    }

    #[test]
    fn wave_task_includes_velocity_condition_gradients() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut task = ZooTask::from_key("wave", &ZooTaskConfig::quick(), &mut params, &mut rng)
            .unwrap();
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let l = task.build_loss(&mut ctx);
        let mut grads = ctx.g.backward(l);
        let collected = ctx.collect_grads(&mut grads);
        let nonzero = collected.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(
            nonzero >= collected.len() - 1,
            "{nonzero}/{} params got gradients",
            collected.len()
        );
    }

    fn tape_len_and_loss(task: &mut ZooTask, params: &ParamSet) -> (usize, f64) {
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, params);
        let l = task.build_loss(&mut ctx);
        (g.len(), g.value(l).item())
    }

    fn wave_cfg() -> ZooTaskConfig {
        ZooTaskConfig {
            conservation: 10.0,
            causal: Some((5, 1.0)),
            ..ZooTaskConfig::quick()
        }
    }

    #[test]
    fn conservation_and_causal_terms_reach_every_parameter() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut task = ZooTask::from_key("tdse-free", &wave_cfg(), &mut params, &mut rng).unwrap();
        assert!(task.conservation.is_some() && task.causal.is_some());
        let mut g = qpinn_autodiff::Graph::new();
        let mut ctx = GraphCtx::new(&mut g, &params);
        let l = task.build_loss(&mut ctx);
        assert!(ctx.g.value(l).item().is_finite());
        let mut grads = ctx.g.backward(l);
        let collected = ctx.collect_grads(&mut grads);
        assert!(collected.iter().all(|t| t.all_finite()));
        let nonzero = collected.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(
            nonzero >= collected.len() - 1,
            "{nonzero}/{}",
            collected.len()
        );
        // An untrained net has large early residuals, so the causal
        // weights already close some later bins.
        assert!(task.causal.as_ref().unwrap().min_weight() < 1.0);
    }

    #[test]
    fn loss_features_are_off_by_default_and_add_to_the_same_tape() {
        let build = |cfg: &ZooTaskConfig| {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(2);
            let mut task = ZooTask::from_key("nls-soliton", cfg, &mut params, &mut rng).unwrap();
            tape_len_and_loss(&mut task, &params)
        };
        let (plain_len, plain_loss) = build(&ZooTaskConfig::quick());
        let (wave_len, wave_loss) = build(&wave_cfg());
        assert!(wave_len > plain_len, "{wave_len} vs {plain_len}");
        assert_ne!(plain_loss, wave_loss);
        // A problem with no conserved norm ignores the weight: same tape.
        let tape = |cfg: &ZooTaskConfig| {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(3);
            let mut task = ZooTask::from_key("helmholtz", cfg, &mut params, &mut rng).unwrap();
            tape_len_and_loss(&mut task, &params)
        };
        assert_eq!(tape(&ZooTaskConfig::quick()), tape(&wave_cfg()));
    }

    #[test]
    fn conservation_grid_is_time_major_over_the_spatial_volume() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ZooTaskConfig {
            n_condition: 256,
            ..wave_cfg()
        };
        let task = ZooTask::from_key("tdse2d-free", &cfg, &mut params, &mut rng).unwrap();
        let cons = task.conservation.as_ref().unwrap();
        // 256/4 = 64 spatial points per slice: an 8 × 8 plane.
        assert_eq!(cons.per_slice, 64);
        assert_eq!(cons.cols.len(), 3);
        assert_eq!(cons.cols[0].data().len(), CONSERVATION_SLICES * 64);
        assert!((cons.volume - 100.0).abs() < 1e-12, "{}", cons.volume);
        // The 2D packet is normalized on the plane.
        assert!((cons.norm0 - 1.0).abs() < 1e-9, "{}", cons.norm0);
        // Rows are time-major: slice k holds t_k = t_end·(k+1)/8 only.
        let t_end = task.problem().coords()[2].hi;
        for (row, &t) in cons.cols[2].data().iter().enumerate() {
            let k = row / cons.per_slice;
            assert_eq!(t, t_end * (k + 1) as f64 / CONSERVATION_SLICES as f64);
        }
    }

    #[test]
    fn from_key_propagates_unknown_problem() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(
            ZooTask::from_key("not-a-pde", &ZooTaskConfig::quick(), &mut params, &mut rng)
                .is_err()
        );
    }
}
