//! Gate matrices, generic over the scalar (so rotations by `Dual` angles
//! carry derivatives through the simulation).

use qpinn_dual::{Cplx, Scalar};

/// A 2×2 complex gate matrix.
pub type Mat2<S> = [[Cplx<S>; 2]; 2];

/// `RX(θ) = [[cos θ/2, −i sin θ/2], [−i sin θ/2, cos θ/2]]`.
pub fn rx<S: Scalar>(theta: S) -> [[Cplx<S>; 2]; 2] {
    let half = theta * S::from_f64(0.5);
    let c = Cplx::from_real(half.cos());
    let ms = Cplx::new(S::zero(), -half.sin());
    [[c, ms], [ms, c]]
}

/// `RY(θ) = [[cos θ/2, −sin θ/2], [sin θ/2, cos θ/2]]`.
pub fn ry<S: Scalar>(theta: S) -> [[Cplx<S>; 2]; 2] {
    let half = theta * S::from_f64(0.5);
    let c = Cplx::from_real(half.cos());
    let s = Cplx::from_real(half.sin());
    [[c, -s], [s, c]]
}

/// `RZ(θ) = diag(e^{−iθ/2}, e^{iθ/2})`.
pub fn rz<S: Scalar>(theta: S) -> [[Cplx<S>; 2]; 2] {
    let half = theta * S::from_f64(0.5);
    [
        [Cplx::cis(-half), Cplx::zero()],
        [Cplx::zero(), Cplx::cis(half)],
    ]
}

/// The general single-qubit rotation `Rot(α, β, γ) = RZ(γ)·RY(β)·RZ(α)`
/// (PennyLane convention).
pub fn rot<S: Scalar>(alpha: S, beta: S, gamma: S) -> [[Cplx<S>; 2]; 2] {
    mat_mul(&rz(gamma), &mat_mul(&ry(beta), &rz(alpha)))
}

/// Hadamard.
pub fn hadamard<S: Scalar>() -> [[Cplx<S>; 2]; 2] {
    let h = Cplx::from_f64(std::f64::consts::FRAC_1_SQRT_2);
    [[h, h], [h, -h]]
}

/// 2×2 complex matrix product.
pub fn mat_mul<S: Scalar>(a: &[[Cplx<S>; 2]; 2], b: &[[Cplx<S>; 2]; 2]) -> [[Cplx<S>; 2]; 2] {
    let mut out = [[Cplx::zero(); 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// Conjugate transpose `G†` (the inverse of a unitary gate).
pub fn dagger<S: Scalar>(g: &Mat2<S>) -> Mat2<S> {
    [
        [g[0][0].conj(), g[1][0].conj()],
        [g[0][1].conj(), g[1][1].conj()],
    ]
}

/// Check unitarity of a 2×2 matrix to tolerance (test helper, `f64` only).
pub fn is_unitary(g: &[[Cplx<f64>; 2]; 2], tol: f64) -> bool {
    // G†G = I
    let mut gg = [[Cplx::zero(); 2]; 2];
    for (i, row) in gg.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = g[0][i].conj() * g[0][j] + g[1][i].conj() * g[1][j];
        }
    }
    let id = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
    (0..2).all(|i| (0..2).all(|j| (gg[i][j].re - id(i, j)).abs() < tol && gg[i][j].im.abs() < tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpinn_dual::Dual64;

    #[test]
    fn rotations_are_unitary() {
        for &t in &[0.0, 0.3, 1.9, -2.4] {
            assert!(is_unitary(&rx(t), 1e-12));
            assert!(is_unitary(&ry(t), 1e-12));
            assert!(is_unitary(&rz(t), 1e-12));
            assert!(is_unitary(&rot(t, 0.7, -1.1), 1e-12));
        }
        assert!(is_unitary(&hadamard(), 1e-12));
    }

    #[test]
    fn rx_at_zero_is_identity() {
        let g = rx::<f64>(0.0);
        assert_eq!(g[0][0].re, 1.0);
        assert!(g[0][1].abs() < 1e-15);
    }

    #[test]
    fn rot_composition_matches_sequential_application() {
        use crate::state::State;
        let (a, b, c) = (0.4, -0.9, 1.3);
        let mut s1: State<f64> = State::zero(1);
        s1.apply_1q(0, &rot(a, b, c));
        let mut s2: State<f64> = State::zero(1);
        s2.apply_1q(0, &rz(a));
        s2.apply_1q(0, &ry(b));
        s2.apply_1q(0, &rz(c));
        for (x, y) in s1.amplitudes().iter().zip(s2.amplitudes()) {
            assert!((x.re - y.re).abs() < 1e-13 && (x.im - y.im).abs() < 1e-13);
        }
    }

    #[test]
    fn dual_angle_carries_derivative() {
        // d⟨Z⟩/dθ for RX(θ)|0⟩ is −sin θ.
        use crate::state::State;
        let theta = 0.8;
        let mut s: State<Dual64> = State::zero(1);
        s.apply_1q(0, &rx(Dual64::var(theta)));
        let e = s.expectation_z(0);
        assert!((e.re - theta.cos()).abs() < 1e-13);
        assert!((e.eps + theta.sin()).abs() < 1e-13);
    }

    #[test]
    fn matmul_identity() {
        let i = [
            [Cplx::<f64>::one(), Cplx::zero()],
            [Cplx::zero(), Cplx::one()],
        ];
        let g = rx::<f64>(0.77);
        let p = mat_mul(&g, &i);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(p[r][c], g[r][c]);
            }
        }
    }
}
