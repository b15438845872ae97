//! The pre-registry Schrödinger-family presets, ported onto the
//! [`PdeProblem`] trait: the 1D TDSE (free, harmonic, mild-harmonic and
//! barrier presets), the NLS bright soliton and Raissi benchmark, the 2D
//! free packet, and the harmonic stationary eigenproblem. The underlying
//! structs ([`TdseProblem`], [`NlsProblem`], …) stay as-is; these
//! adapters add the tape residual, condition sets, conserved norms, and
//! reference factories.

use super::{
    point_column, uniform, ComplexFieldRef, Condition, CoordDef, CoordKind, Fidelity, MolRef,
    PdeProblem, RefSolution,
};
use crate::{EigenProblem, GaussianPacket, NlsProblem, Potential, Tdse2dProblem, TdseProblem};
use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};
use qpinn_dual::Complex64;
use qpinn_solvers::{
    bound_states, crank_nicolson_tdse, laplacian_periodic, mol_rk4, Field2d, Grid1d,
};

/// `∫|ψ₀|²` over a periodic interval by the periodic trapezoid rule on
/// `n` nodes (spectrally accurate for smooth periodic data).
fn periodic_norm(lo: f64, hi: f64, n: usize, psi0: impl Fn(f64) -> Complex64) -> f64 {
    let len = hi - lo;
    let mean = (0..n)
        .map(|i| psi0(lo + len * i as f64 / n as f64).norm_sqr())
        .sum::<f64>()
        / n as f64;
    mean * len
}

/// Schrödinger-type residuals for `ψ = u + iv` on coordinates
/// `(x[, y], t)`: `i ψ_t = −½∇²ψ + Vψ − g|ψ|²ψ`, split into real and
/// imaginary columns. `t_idx` names the time coordinate; all other
/// coordinates contribute to the Laplacian.
fn schrodinger_residuals(
    g: &mut Graph,
    fields: &[Jet],
    v_col: Var,
    g_nl: f64,
    t_idx: usize,
) -> Vec<Var> {
    let (u, v) = (&fields[0], &fields[1]);
    let lap = |g: &mut Graph, f: &Jet| {
        let mut acc: Option<Var> = None;
        for c in 0..f.n_coords() {
            if c == t_idx {
                continue;
            }
            acc = Some(match acc {
                None => f.dd[c],
                Some(a) => g.add(a, f.dd[c]),
            });
        }
        acc.expect("at least one spatial coordinate")
    };
    let (u_lap, v_lap) = (lap(g, u), lap(g, v));
    let vu = g.mul(v_col, u.v);
    let vv = g.mul(v_col, v.v);
    // |ψ|² ψ terms (zero coupling short-circuits to keep the tape lean).
    let (nl_u, nl_v) = if g_nl != 0.0 {
        let u2 = g.square(u.v);
        let v2 = g.square(v.v);
        let dens = g.add(u2, v2);
        let du = g.mul(dens, u.v);
        let dv = g.mul(dens, v.v);
        (Some(g.scale(du, g_nl)), Some(g.scale(dv, g_nl)))
    } else {
        (None, None)
    };
    // Re: −v_t + ½∇²u − Vu + g|ψ|²u
    let mut re = g.scale(v.d[t_idx], -1.0);
    let half_lap_u = g.scale(u_lap, 0.5);
    re = g.add(re, half_lap_u);
    re = g.sub(re, vu);
    if let Some(n) = nl_u {
        re = g.add(re, n);
    }
    // Im: u_t + ½∇²v − Vv + g|ψ|²v
    let half_lap_v = g.scale(v_lap, 0.5);
    let mut im = g.add(u.d[t_idx], half_lap_v);
    im = g.sub(im, vv);
    if let Some(n) = nl_v {
        im = g.add(im, n);
    }
    vec![re, im]
}

fn complex_targets(points: &[(f64,)], f: impl Fn(f64) -> Complex64) -> Vec<Vec<f64>> {
    points
        .iter()
        .map(|&(x,)| {
            let c = f(x);
            vec![c.re, c.im]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1D TDSE adapters.

struct TdseZoo {
    key: &'static str,
    describe: &'static str,
    inner: TdseProblem,
}

/// `tdse-free`: spreading free Gaussian packet (closed form available).
pub(super) fn tdse_free() -> Box<dyn PdeProblem> {
    Box::new(TdseZoo {
        key: "tdse-free",
        describe: "1D free-particle TDSE, spreading Gaussian packet",
        inner: TdseProblem::free_packet(),
    })
}

/// `tdse-harmonic`: coherent state sloshing in a harmonic trap.
pub(super) fn tdse_harmonic() -> Box<dyn PdeProblem> {
    Box::new(TdseZoo {
        key: "tdse-harmonic",
        describe: "1D TDSE, coherent state in a harmonic trap",
        inner: TdseProblem::harmonic_packet(),
    })
}

/// `tdse-mild-harmonic`: a packet slightly narrower than the coherent
/// width in a soft trap (the inverse-problem preset).
pub(super) fn tdse_mild_harmonic() -> Box<dyn PdeProblem> {
    Box::new(TdseZoo {
        key: "tdse-mild-harmonic",
        describe: "1D TDSE, packet sloshing in a soft harmonic trap",
        inner: TdseProblem::mild_harmonic(),
    })
}

/// `tdse-barrier`: a moving packet scattering off a smooth barrier.
pub(super) fn tdse_barrier() -> Box<dyn PdeProblem> {
    Box::new(TdseZoo {
        key: "tdse-barrier",
        describe: "1D TDSE, moving packet scattering off a smooth barrier",
        inner: TdseProblem::barrier_scattering(),
    })
}

impl TdseZoo {
    /// The trap frequency when the packet is exactly a coherent state of
    /// a harmonic potential (width `1/√(2ω)`), which is when a closed form
    /// exists.
    fn coherent_omega(&self) -> Option<f64> {
        match self.inner.potential {
            Potential::Harmonic { omega }
                if (self.inner.packet.sigma - (0.5 / omega).sqrt()).abs() < 1e-12 =>
            {
                Some(omega)
            }
            _ => None,
        }
    }
}

impl PdeProblem for TdseZoo {
    fn key(&self) -> &'static str {
        self.key
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x0,
                hi: self.inner.x1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let pot = self.inner.potential;
        let v_col = point_column(g, points, |p| pot.eval(p[0]));
        schrodinger_residuals(g, fields, v_col, 0.0, 1)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(self.inner.x0, self.inner.x1, n, true);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 0.0]).collect();
        let targets = complex_targets(
            &xs.iter().map(|&x| (x,)).collect::<Vec<_>>(),
            |x| self.inner.initial(x),
        );
        vec![Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        let (x, t) = (point[0], point[1]);
        let c = match (self.inner.potential, self.coherent_omega()) {
            (Potential::Free, _) => self.inner.packet.free_evolution(x, t),
            (_, Some(omega)) => self.inner.packet.coherent_evolution(omega, x, t),
            _ => return None,
        };
        Some(vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 300, 30),
            Fidelity::Full => (256, 1500, 64),
        };
        Box::new(ComplexFieldRef {
            field: self.inner.reference(nx, nt, sl),
        })
    }
    fn independent_check(&self) -> Option<Box<dyn RefSolution>> {
        // Crank–Nicolson on a Dirichlet grid: a different propagator *and*
        // different boundary handling (valid because the packet stays
        // exponentially small at the edges).
        let grid = Grid1d::dirichlet(self.inner.x0, self.inner.x1, 257);
        let psi0: Vec<Complex64> = grid.points().iter().map(|&x| self.inner.initial(x)).collect();
        let pot = self.inner.potential;
        let field = crank_nicolson_tdse(
            &grid,
            &move |x| pot.eval(x),
            &psi0,
            self.inner.t_end,
            600,
            30,
        );
        Some(Box::new(ComplexFieldRef { field }))
    }
    fn conserved_norm(&self) -> Option<f64> {
        Some(periodic_norm(self.inner.x0, self.inner.x1, 1024, |x| {
            self.inner.initial(x)
        }))
    }
    fn check_method(&self) -> &'static str {
        match (self.inner.potential, self.coherent_omega()) {
            (Potential::Free, _) => "analytic packet vs split-step spectral",
            (_, Some(_)) => "coherent-state closed form vs split-step + Crank-Nicolson",
            _ => "split-step spectral vs Crank-Nicolson",
        }
    }
}

// ---------------------------------------------------------------------------
// NLS bright soliton.

struct NlsZoo {
    key: &'static str,
    describe: &'static str,
    inner: NlsProblem,
    /// Full-fidelity split-step resolution `(nx, nt, slices)`.
    full: (usize, usize, usize),
    residual_tol: f64,
}

/// `nls-soliton`: focusing cubic NLS single bright soliton.
pub(super) fn nls_soliton() -> Box<dyn PdeProblem> {
    Box::new(NlsZoo {
        key: "nls-soliton",
        describe: "focusing cubic NLS, single bright soliton",
        inner: NlsProblem::bright_soliton(1.0),
        full: (256, 2000, 64),
        residual_tol: 0.05,
    })
}

/// `nls-raissi`: the Raissi et al. benchmark `h(0, x) = 2 sech x`, a
/// breathing bound 2-soliton state with no simple closed form.
pub(super) fn nls_raissi() -> Box<dyn PdeProblem> {
    Box::new(NlsZoo {
        key: "nls-raissi",
        describe: "focusing cubic NLS, Raissi 2-soliton breather",
        inner: NlsProblem::raissi_benchmark(),
        // The breather focuses to |h| ≈ 4 with a narrow peak at t ≈ π/4,
        // so node-to-node differences of the reference carry O(dx²·h⁗)
        // error there: twice the soliton's grid, and a tolerance that is
        // still two orders below what a wrong sign or factor on the
        // Laplacian (≈ 30) or the cubic term (≈ 100) would produce.
        full: (512, 4000, 128),
        residual_tol: 0.25,
    })
}

impl PdeProblem for NlsZoo {
    fn key(&self) -> &'static str {
        self.key
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x0,
                hi: self.inner.x1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let v_col = point_column(g, points, |_| 0.0);
        schrodinger_residuals(g, fields, v_col, self.inner.g, 1)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let xs = uniform(self.inner.x0, self.inner.x1, n, true);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 0.0]).collect();
        let targets = complex_targets(
            &xs.iter().map(|&x| (x,)).collect::<Vec<_>>(),
            |x| self.inner.initial(x),
        );
        vec![Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        self.inner
            .analytic(point[0], point[1])
            .map(|c| vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (128, 400, 30),
            Fidelity::Full => self.full,
        };
        Box::new(ComplexFieldRef {
            field: self.inner.reference(nx, nt, sl),
        })
    }
    fn independent_check(&self) -> Option<Box<dyn RefSolution>> {
        // Families with a closed form are checked against it instead.
        if self.inner.analytic(0.0, 0.0).is_some() {
            return None;
        }
        // Second-order finite differences + RK4 on (u, v): a different
        // spatial operator and time integrator from the split-step
        // spectral reference. `h_t = i(½h_xx + g|h|²h)` in real parts.
        let (n, steps) = (512, 6000);
        let grid = Grid1d::periodic(self.inner.x0, self.inner.x1, n);
        let dx = grid.dx();
        let g = self.inner.g;
        let rhs = move |_t: f64, y: &[f64], out: &mut [f64]| {
            let (u, v) = y.split_at(n);
            let (du, dv) = out.split_at_mut(n);
            laplacian_periodic(v, dx, du);
            laplacian_periodic(u, dx, dv);
            for i in 0..n {
                let dens = g * (u[i] * u[i] + v[i] * v[i]);
                du[i] = -(0.5 * du[i] + dens * v[i]);
                dv[i] = 0.5 * dv[i] + dens * u[i];
            }
        };
        let psi0: Vec<Complex64> = grid
            .points()
            .iter()
            .map(|&x| self.inner.initial(x))
            .collect();
        let y0: Vec<f64> = psi0
            .iter()
            .map(|c| c.re)
            .chain(psi0.iter().map(|c| c.im))
            .collect();
        let field = mol_rk4(&grid, 2, &rhs, &y0, self.inner.t_end, steps, steps / 60);
        Some(Box::new(MolRef { field, n_out: 2 }))
    }
    fn conserved_norm(&self) -> Option<f64> {
        Some(periodic_norm(self.inner.x0, self.inner.x1, 2048, |x| {
            self.inner.initial(x)
        }))
    }
    fn check_method(&self) -> &'static str {
        if self.inner.analytic(0.0, 0.0).is_some() {
            "soliton closed form vs split-step spectral"
        } else {
            "split-step spectral vs finite-difference RK4"
        }
    }
    fn residual_tol(&self) -> f64 {
        self.residual_tol
    }
}

// ---------------------------------------------------------------------------
// 2D free packet.

struct Tdse2dZoo {
    inner: Tdse2dProblem,
}

/// `tdse2d-free`: separable free 2D Gaussian packet.
pub(super) fn tdse2d_free() -> Box<dyn PdeProblem> {
    Box::new(Tdse2dZoo {
        inner: Tdse2dProblem::free_packet_2d(),
    })
}

impl Tdse2dZoo {
    fn packet_1d(&self, center: f64) -> GaussianPacket {
        GaussianPacket {
            x0: center,
            sigma: self.inner.sigma,
            k0: 0.0,
        }
    }
}

/// [`Field2d`] reference wrapper carrying the node lattice (the field
/// itself keeps its grids private).
struct Field2dRef {
    field: Field2d,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl RefSolution for Field2dRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let c = self.field.sample(point[0], point[1], point[2]);
        vec![c.re, c.im]
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.xs.clone(), self.ys.clone(), self.field.times().to_vec()]
    }
}

impl PdeProblem for Tdse2dZoo {
    fn key(&self) -> &'static str {
        "tdse2d-free"
    }
    fn describe(&self) -> &'static str {
        "2D free-particle TDSE, separable spreading packet"
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![
            CoordDef {
                name: "x",
                lo: self.inner.x.0,
                hi: self.inner.x.1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "y",
                lo: self.inner.y.0,
                hi: self.inner.y.1,
                kind: CoordKind::Periodic,
            },
            CoordDef {
                name: "t",
                lo: 0.0,
                hi: self.inner.t_end,
                kind: CoordKind::Time,
            },
        ]
    }
    fn n_outputs(&self) -> usize {
        2
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let pot = self.inner.potential;
        let v_col = point_column(g, points, |p| pot.eval(p[0], p[1]));
        schrodinger_residuals(g, fields, v_col, 0.0, 2)
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        let m = (n as f64).sqrt().ceil() as usize;
        let xs = uniform(self.inner.x.0, self.inner.x.1, m, true);
        let ys = uniform(self.inner.y.0, self.inner.y.1, m, true);
        let mut points = Vec::with_capacity(m * m);
        let mut targets = Vec::with_capacity(m * m);
        for &x in &xs {
            for &y in &ys {
                points.push(vec![x, y, 0.0]);
                let c = self.inner.initial(x, y);
                targets.push(vec![c.re, c.im]);
            }
        }
        vec![Condition {
            name: "ic",
            deriv: None,
            points,
            targets,
        }]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        if self.inner.potential != crate::Potential2d::Free {
            return None;
        }
        let px = self.packet_1d(self.inner.center.0);
        let py = self.packet_1d(self.inner.center.1);
        let c = px.free_evolution(point[0], point[2]) * py.free_evolution(point[1], point[2]);
        Some(vec![c.re, c.im])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let (nx, nt, sl) = match fidelity {
            Fidelity::Quick => (32, 120, 12),
            Fidelity::Full => (64, 600, 24),
        };
        let field = self.inner.reference(nx, nx, nt, sl);
        Box::new(Field2dRef {
            field,
            xs: Grid1d::periodic(self.inner.x.0, self.inner.x.1, nx).points(),
            ys: Grid1d::periodic(self.inner.y.0, self.inner.y.1, nx).points(),
        })
    }
    fn conserved_norm(&self) -> Option<f64> {
        // The packet is separable, so the plane integral is the product
        // of the two 1D norms.
        let nx = periodic_norm(self.inner.x.0, self.inner.x.1, 1024, |x| {
            self.packet_1d(self.inner.center.0).eval(x)
        });
        let ny = periodic_norm(self.inner.y.0, self.inner.y.1, 1024, |y| {
            self.packet_1d(self.inner.center.1).eval(y)
        });
        Some(nx * ny)
    }
    fn check_method(&self) -> &'static str {
        "separable packet closed form vs 2D split-step"
    }
}

// ---------------------------------------------------------------------------
// Stationary harmonic eigenproblem (ground state, fixed E₀ = ω/2).

struct EigenZoo {
    inner: EigenProblem,
    omega: f64,
}

/// `eigen-harmonic`: harmonic-oscillator ground state as a BVP with the
/// exact eigenvalue pinned in the residual.
pub(super) fn eigen_harmonic() -> Box<dyn PdeProblem> {
    Box::new(EigenZoo {
        inner: EigenProblem::harmonic(1.0),
        omega: 1.0,
    })
}

impl EigenZoo {
    fn ground_state(&self, x: f64) -> f64 {
        // ψ₀ = (ω/π)^{1/4} e^{−ωx²/2}, normalized to ∫ψ² = 1.
        (self.omega / std::f64::consts::PI).powf(0.25) * (-0.5 * self.omega * x * x).exp()
    }
}

struct EigenRef {
    xs: Vec<f64>,
    psi: Vec<f64>,
}

impl RefSolution for EigenRef {
    fn sample(&self, point: &[f64]) -> Vec<f64> {
        let x = point[0];
        let h = self.xs[1] - self.xs[0];
        let s = ((x - self.xs[0]) / h).clamp(0.0, (self.xs.len() - 1) as f64);
        let i = (s.floor() as usize).min(self.xs.len() - 2);
        let w = s - i as f64;
        vec![self.psi[i] * (1.0 - w) + self.psi[i + 1] * w]
    }
    fn grids(&self) -> Vec<Vec<f64>> {
        vec![self.xs.clone()]
    }
}

impl PdeProblem for EigenZoo {
    fn key(&self) -> &'static str {
        "eigen-harmonic"
    }
    fn describe(&self) -> &'static str {
        "stationary Schrödinger ground state in a harmonic trap (E₀ = ω/2)"
    }
    fn coords(&self) -> Vec<CoordDef> {
        vec![CoordDef {
            name: "x",
            lo: self.inner.x0,
            hi: self.inner.x1,
            kind: CoordKind::Bounded,
        }]
    }
    fn n_outputs(&self) -> usize {
        1
    }
    fn residuals(&self, g: &mut Graph, fields: &[Jet], points: &[Vec<f64>]) -> Vec<Var> {
        let pot = self.inner.potential.clone();
        let v_col = point_column(g, points, |p| pot.eval(p[0]));
        let e0 = 0.5 * self.omega;
        let psi = &fields[0];
        // −½ψ″ + Vψ − E₀ψ
        let mut r = g.scale(psi.dd[0], -0.5);
        let vp = g.mul(v_col, psi.v);
        r = g.add(r, vp);
        let ep = g.scale(psi.v, e0);
        vec![g.sub(r, ep)]
    }
    fn conditions(&self, n: usize) -> Vec<Condition> {
        // Dirichlet edges plus amplitude anchors: without an amplitude
        // pin, ψ ≡ 0 solves residual + BC exactly.
        let anchors = uniform(-1.0, 1.0, n.max(3).min(9), false);
        vec![
            Condition {
                name: "bc",
                deriv: None,
                points: vec![vec![self.inner.x0], vec![self.inner.x1]],
                targets: vec![vec![0.0], vec![0.0]],
            },
            Condition {
                name: "anchor",
                deriv: None,
                points: anchors.iter().map(|&x| vec![x]).collect(),
                targets: anchors.iter().map(|&x| vec![self.ground_state(x)]).collect(),
            },
        ]
    }
    fn analytic(&self, point: &[f64]) -> Option<Vec<f64>> {
        Some(vec![self.ground_state(point[0])])
    }
    fn reference(&self, fidelity: Fidelity) -> Box<dyn RefSolution> {
        let n = match fidelity {
            Fidelity::Quick => 301,
            Fidelity::Full => 801,
        };
        let grid = Grid1d::dirichlet(self.inner.x0, self.inner.x1, n);
        let pot = self.inner.potential.clone();
        let state = bound_states(&grid, &move |x| pot.eval(x), 1).remove(0);
        Box::new(EigenRef {
            xs: grid.points(),
            psi: state.psi,
        })
    }
    fn check_method(&self) -> &'static str {
        "Hermite closed form vs FD eigensolver"
    }
    fn residual_tol(&self) -> f64 {
        0.02
    }
}
