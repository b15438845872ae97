//! PDE residual assembly from field jets.
//!
//! Coordinate convention for time-dependent problems: coordinate 0 is `x`,
//! coordinate 1 is `t`. The complex wavefunction `ψ = u + iv` is the field
//! pair `(u, v)` = output columns `(0, 1)`.

use qpinn_autodiff::jet::Jet;
use qpinn_autodiff::{Graph, Var};

/// The jets of one complex field split into real and imaginary parts.
pub struct SplitPsi {
    /// Real part jet.
    pub u: Jet,
    /// Imaginary part jet.
    pub v: Jet,
}

/// Split a 2-field output jet into `(u, v)` jets.
pub fn split_complex(g: &mut Graph, out: &Jet) -> SplitPsi {
    SplitPsi {
        u: out.col(g, 0),
        v: out.col(g, 1),
    }
}

/// Split an `n_fields`-column output jet into one jet per field, in
/// column order. The generic registry task uses this to hand each
/// [`qpinn_problems::PdeProblem`] residual builder a per-component view
/// regardless of the problem's output arity.
pub fn split_fields(g: &mut Graph, out: &Jet, n_fields: usize) -> Vec<Jet> {
    (0..n_fields).map(|i| out.col(g, i)).collect()
}

/// TDSE residuals for `i ψ_t = −½ψ_xx + Vψ`, as the real pair
///
/// `r_u = u_t + ½ v_xx − V v`,
/// `r_v = v_t − ½ u_xx + V u`.
///
/// `v_pot` is the `[batch, 1]` potential column at the collocation points.
pub fn tdse_residuals(g: &mut Graph, psi: &SplitPsi, v_pot: Var) -> (Var, Var) {
    let (u, v) = (&psi.u, &psi.v);
    // r_u = u_t + ½ v_xx − V·v
    let half_vxx = g.scale(v.dd[0], 0.5);
    let vv = g.mul(v_pot, v.v);
    let s = g.add(u.d[1], half_vxx);
    let ru = g.sub(s, vv);
    // r_v = v_t − ½ u_xx + V·u
    let half_uxx = g.scale(u.dd[0], 0.5);
    let vu = g.mul(v_pot, u.v);
    let s2 = g.sub(v.d[1], half_uxx);
    let rv = g.add(s2, vu);
    (ru, rv)
}

/// Stationary residual `r = −½ψ″ + Vψ − Eψ` for a real field jet over the
/// single coordinate `x`, with a trainable `[1, 1]` eigenvalue node `e`.
pub fn eigen_residual(g: &mut Graph, psi: &Jet, v_pot: Var, e: Var) -> Var {
    let half_pp = g.scale(psi.dd[0], -0.5);
    let vpsi = g.mul(v_pot, psi.v);
    let epsi = g.matmul(psi.v, e);
    let s = g.add(half_pp, vpsi);
    g.sub(s, epsi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_tensor::Tensor;

    /// Build jets for a *known analytic field* so residuals can be checked
    /// against hand-computed values. Field: u = sin(kx)·cos(ωt),
    /// v = cos(kx)·sin(ωt).
    fn analytic_jets(g: &mut Graph, xs: &[f64], ts: &[f64], k: f64, w: f64) -> SplitPsi {
        let n = xs.len();
        let mk =
            |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> { (0..n).map(|i| f(xs[i], ts[i])).collect() };
        let mut jet = |vals: Vec<f64>, dx: Vec<f64>, dt: Vec<f64>, dxx: Vec<f64>| -> Jet {
            let zero = g_constant_col(g, &vec![0.0; n]);
            let v = g_constant_col(g, &vals);
            let d0 = g_constant_col(g, &dx);
            let d1 = g_constant_col(g, &dt);
            let dd0 = g_constant_col(g, &dxx);
            Jet {
                v,
                d: vec![d0, d1],
                dd: vec![dd0, zero],
            }
        };
        let u = jet(
            mk(&|x, t| (k * x).sin() * (w * t).cos()),
            mk(&|x, t| k * (k * x).cos() * (w * t).cos()),
            mk(&|x, t| -w * (k * x).sin() * (w * t).sin()),
            mk(&|x, t| -k * k * (k * x).sin() * (w * t).cos()),
        );
        let v = jet(
            mk(&|x, t| (k * x).cos() * (w * t).sin()),
            mk(&|x, t| -k * (k * x).sin() * (w * t).sin()),
            mk(&|x, t| w * (k * x).cos() * (w * t).cos()),
            mk(&|x, t| -k * k * (k * x).cos() * (w * t).sin()),
        );
        SplitPsi { u, v }
    }

    fn g_constant_col(g: &mut Graph, v: &[f64]) -> qpinn_autodiff::Var {
        g.constant(Tensor::column(v))
    }

    #[test]
    fn plane_wave_solves_free_tdse_when_dispersion_matches() {
        // ψ = e^{i(kx − ωt)} with ω = k²/2 solves the free TDSE. In real
        // parts: u = cos(kx−ωt), v = sin(kx−ωt). Our analytic_jets field is
        // a standing wave built from such waves; instead check directly
        // with the traveling wave.
        let k = 2.0f64;
        let w = 0.5 * k * k;
        let xs = [0.3, 1.0, -0.7];
        let ts = [0.2, 0.6, 0.9];
        let n = xs.len();
        let mut g = Graph::new();
        let phase: Vec<f64> = (0..n).map(|i| k * xs[i] - w * ts[i]).collect();
        let u = Jet {
            v: g_constant_col(&mut g, &phase.iter().map(|p| p.cos()).collect::<Vec<_>>()),
            d: vec![
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| -k * p.sin()).collect::<Vec<_>>(),
                ),
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| w * p.sin()).collect::<Vec<_>>(),
                ),
            ],
            dd: vec![
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| -k * k * p.cos()).collect::<Vec<_>>(),
                ),
                g_constant_col(&mut g, &vec![0.0; n]),
            ],
        };
        let v = Jet {
            v: g_constant_col(&mut g, &phase.iter().map(|p| p.sin()).collect::<Vec<_>>()),
            d: vec![
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| k * p.cos()).collect::<Vec<_>>(),
                ),
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| -w * p.cos()).collect::<Vec<_>>(),
                ),
            ],
            dd: vec![
                g_constant_col(
                    &mut g,
                    &phase.iter().map(|p| -k * k * p.sin()).collect::<Vec<_>>(),
                ),
                g_constant_col(&mut g, &vec![0.0; n]),
            ],
        };
        let psi = SplitPsi { u, v };
        let vpot = g_constant_col(&mut g, &vec![0.0; n]);
        let (ru, rv) = tdse_residuals(&mut g, &psi, vpot);
        assert!(g.value(ru).max_abs() < 1e-12, "{:?}", g.value(ru));
        assert!(g.value(rv).max_abs() < 1e-12);
    }

    #[test]
    fn standing_wave_residual_matches_hand_computation() {
        // For u = sin(kx)cos(ωt), v = cos(kx)sin(ωt), V = 0:
        // r_u = u_t + ½v_xx = −ω sin kx sin ωt − ½k² cos kx sin ωt.
        let (k, w) = (1.3, 0.9);
        let xs = [0.4, -1.1];
        let ts = [0.25, 0.8];
        let mut g = Graph::new();
        let psi = analytic_jets(&mut g, &xs, &ts, k, w);
        let vpot = g_constant_col(&mut g, &[0.0; 2]);
        let (ru, _rv) = tdse_residuals(&mut g, &psi, vpot);
        for i in 0..2 {
            let want = -w * (k * xs[i]).sin() * (w * ts[i]).sin()
                - 0.5 * k * k * (k * xs[i]).cos() * (w * ts[i]).sin();
            assert!(
                (g.value(ru).data()[i] - want).abs() < 1e-12,
                "i={i}: {} vs {want}",
                g.value(ru).data()[i]
            );
        }
    }

    #[test]
    fn eigen_residual_vanishes_for_exact_eigenpair() {
        // Infinite well on [0, π]: ψ = sin(x), E = ½.
        let xs = [0.3, 1.2, 2.5];
        let n = xs.len();
        let mut g = Graph::new();
        let psi = Jet {
            v: g_constant_col(&mut g, &xs.iter().map(|x| f64::sin(*x)).collect::<Vec<_>>()),
            d: vec![g_constant_col(
                &mut g,
                &xs.iter().map(|x| f64::cos(*x)).collect::<Vec<_>>(),
            )],
            dd: vec![g_constant_col(
                &mut g,
                &xs.iter().map(|x| -f64::sin(*x)).collect::<Vec<_>>(),
            )],
        };
        let vpot = g_constant_col(&mut g, &vec![0.0; n]);
        let e = g.constant(Tensor::from_vec([1, 1], vec![0.5]));
        let r = eigen_residual(&mut g, &psi, vpot, e);
        assert!(g.value(r).max_abs() < 1e-12);
    }
}
