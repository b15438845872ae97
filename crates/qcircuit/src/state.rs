//! The statevector and its gate-application kernels.
//!
//! Qubit `q` corresponds to bit `q` of the basis index (little-endian):
//! `|b_{n−1} … b_1 b_0⟩` has amplitude index `Σ b_q 2^q`.
//!
//! The apply kernels are **stride-free**: instead of scanning all `2ⁿ`
//! indices and testing bits (a 50–75% wasted, branch-mispredicting scan),
//! they enumerate exactly the amplitude pairs a gate touches — `apply_1q`
//! by walking `2·2^t`-sized chunks split at the target bit, the controlled
//! kernels by expanding a compressed `2^{n−2}` counter around the two
//! fixed bits. Per-pair arithmetic is unchanged, and pairs are visited in
//! ascending index order, so states are bit-identical to the naive scan.
//!
//! When the amplitudes carry plain `f64` (the forward/inference path) and
//! the tensor crate's SIMD dispatch selected an AVX width, `apply_1q`
//! reinterprets the `repr(C)` `Cplx<f64>` buffer as interleaved doubles
//! and updates two amplitude pairs per iteration with AVX2 complex
//! arithmetic. The vector kernel performs the exact scalar operation
//! sequence (`mul`, `permute`, `addsub` — each product and sum rounded
//! once, no FMA), so it is bit-identical to the generic path; dual-number
//! sweeps and forced-scalar dispatch (`QPINN_SIMD=scalar`) keep the
//! generic loop.

use core::any::TypeId;
use qpinn_dual::{Cplx, Scalar};

/// Expand `k` by inserting a zero bit at position `bit` (a power of two):
/// the bits of `k` below `bit` stay, the rest shift up one position.
#[inline(always)]
fn insert_zero_bit(k: usize, bit: usize) -> usize {
    (k & (bit - 1)) | ((k & !(bit - 1)) << 1)
}

/// A pure `n`-qubit state, generic over the scalar carried by its
/// amplitudes.
#[derive(Clone, Debug)]
pub struct State<S> {
    n_qubits: usize,
    amps: Vec<Cplx<S>>,
}

impl<S: Scalar> State<S> {
    /// The computational basis state `|0…0⟩`.
    pub fn zero(n_qubits: usize) -> Self {
        assert!((1..=24).contains(&n_qubits), "unreasonable qubit count");
        let mut amps = vec![Cplx::zero(); 1 << n_qubits];
        amps[0] = Cplx::one();
        State { n_qubits, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Amplitudes in basis order.
    pub fn amplitudes(&self) -> &[Cplx<S>] {
        &self.amps
    }

    /// Total norm `⟨ψ|ψ⟩`.
    pub fn norm_sqr(&self) -> S {
        let mut acc = S::zero();
        for a in &self.amps {
            acc += a.norm_sqr();
        }
        acc
    }

    /// Apply a single-qubit gate `[[g00, g01], [g10, g11]]` to `target`.
    ///
    /// # Panics
    /// Panics for an out-of-range target.
    pub fn apply_1q(&mut self, target: usize, g: &[[Cplx<S>; 2]; 2]) {
        assert!(target < self.n_qubits, "target {target} out of range");
        let bit = 1usize << target;
        #[cfg(target_arch = "x86_64")]
        if bit >= 2
            && TypeId::of::<S>() == TypeId::of::<f64>()
            && qpinn_tensor::simd::width() >= 4
        {
            // SAFETY: S is f64 (TypeId checked) and Cplx is repr(C), so the
            // amplitude buffer is exactly interleaved [re, im] doubles; the
            // dispatched width ≥ 4 certifies AVX2 on this CPU.
            unsafe {
                let amps = core::slice::from_raw_parts_mut(
                    self.amps.as_mut_ptr().cast::<f64>(),
                    self.amps.len() * 2,
                );
                let gf = &*(g as *const [[Cplx<S>; 2]; 2]).cast::<[[Cplx<f64>; 2]; 2]>();
                apply_1q_f64_avx2(amps, bit, gf);
            }
            return;
        }
        for chunk in self.amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = chunk.split_at_mut(bit);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                let x1 = *a1;
                *a0 = g[0][0] * x0 + g[0][1] * x1;
                *a1 = g[1][0] * x0 + g[1][1] * x1;
            }
        }
    }

    /// Apply a single-qubit gate to `target`, controlled on `control`.
    ///
    /// # Panics
    /// Panics for out-of-range or equal qubits.
    pub fn apply_controlled_1q(&mut self, control: usize, target: usize, g: &[[Cplx<S>; 2]; 2]) {
        assert!(control < self.n_qubits && target < self.n_qubits);
        assert_ne!(control, target, "control = target");
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        let (lo_bit, hi_bit) = if cbit < tbit { (cbit, tbit) } else { (tbit, cbit) };
        for k in 0..self.amps.len() / 4 {
            let i = insert_zero_bit(insert_zero_bit(k, lo_bit), hi_bit);
            let i0 = i | cbit; // control set, target clear
            let i1 = i0 | tbit;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = g[0][0] * a0 + g[0][1] * a1;
            self.amps[i1] = g[1][0] * a0 + g[1][1] * a1;
        }
    }

    /// CNOT with the given control and target.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.n_qubits && target < self.n_qubits);
        assert_ne!(control, target, "control = target");
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        let (lo_bit, hi_bit) = if cbit < tbit { (cbit, tbit) } else { (tbit, cbit) };
        for k in 0..self.amps.len() / 4 {
            let i = insert_zero_bit(insert_zero_bit(k, lo_bit), hi_bit);
            let i0 = i | cbit;
            self.amps.swap(i0, i0 | tbit);
        }
    }

    /// Multiply by the diagonal observable `Σ_q w_q Z_q` (one weight per
    /// qubit): amplitude `i` scales by `Σ_q (−1)^{bit q of i} w_q`.
    pub(crate) fn apply_z_sum(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.n_qubits, "one weight per qubit");
        for (i, a) in self.amps.iter_mut().enumerate() {
            let d: f64 = weights
                .iter()
                .enumerate()
                .map(|(q, &w)| if (i >> q) & 1 == 0 { w } else { -w })
                .sum();
            *a = a.scale(S::from_f64(d));
        }
    }

    /// The 2×2 pair overlap `C_ab = Σ conj(self_{i_a})·other_{i_b}` over
    /// the amplitude pairs `(i_0, i_1)` that a gate on `target`
    /// (controlled on `control`, if any) mixes. For a single-qubit gate
    /// `g`, `⟨self|G|other⟩ = Σ_ab g_ab·C_ab`; for a controlled one the sum
    /// is the control-set part, the only part that depends on `g`. Pairs
    /// are visited in ascending index order, like the apply kernels.
    pub(crate) fn pair_overlaps(
        &self,
        other: &State<S>,
        control: Option<usize>,
        target: usize,
    ) -> [[Cplx<S>; 2]; 2] {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit counts differ");
        assert!(target < self.n_qubits, "target {target} out of range");
        let mut c = [[Cplx::zero(); 2]; 2];
        let mut add = |i0: usize, i1: usize| {
            let (l0, l1) = (self.amps[i0].conj(), self.amps[i1].conj());
            let (p0, p1) = (other.amps[i0], other.amps[i1]);
            c[0][0] += l0 * p0;
            c[0][1] += l0 * p1;
            c[1][0] += l1 * p0;
            c[1][1] += l1 * p1;
        };
        let tbit = 1usize << target;
        match control {
            None => {
                for base in (0..self.amps.len()).step_by(2 * tbit) {
                    for i0 in base..base + tbit {
                        add(i0, i0 | tbit);
                    }
                }
            }
            Some(control) => {
                assert!(control < self.n_qubits && control != target);
                let cbit = 1usize << control;
                let (lo_bit, hi_bit) = if cbit < tbit {
                    (cbit, tbit)
                } else {
                    (tbit, cbit)
                };
                for k in 0..self.amps.len() / 4 {
                    let i0 = insert_zero_bit(insert_zero_bit(k, lo_bit), hi_bit) | cbit;
                    add(i0, i0 | tbit);
                }
            }
        }
        c
    }

    /// Expectation value `⟨Z_q⟩ = Σ (−1)^{bit q} |ψ_i|²`.
    ///
    /// Accumulation runs in ascending basis order (within each `2·2^q`
    /// chunk the `+` half precedes the `−` half, exactly as a full index
    /// scan would visit them), so the sum is bit-deterministic.
    pub fn expectation_z(&self, q: usize) -> S {
        assert!(q < self.n_qubits);
        let bit = 1usize << q;
        let mut acc = S::zero();
        for chunk in self.amps.chunks_exact(2 * bit) {
            let (lo, hi) = chunk.split_at(bit);
            for a in lo {
                acc += a.norm_sqr();
            }
            for a in hi {
                acc -= a.norm_sqr();
            }
        }
        acc
    }

    /// All per-qubit Z expectations.
    ///
    /// The `|ψ_i|²` values are computed once into a scratch buffer and
    /// reused for every qubit's signed sum (the naive per-qubit scan
    /// recomputes them `n` times). Accumulation order per qubit matches
    /// [`State::expectation_z`] exactly.
    pub fn all_expectations_z(&self) -> Vec<S> {
        let probs: Vec<S> = self.amps.iter().map(|a| a.norm_sqr()).collect();
        (0..self.n_qubits)
            .map(|q| {
                let bit = 1usize << q;
                let mut acc = S::zero();
                for chunk in probs.chunks_exact(2 * bit) {
                    let (lo, hi) = chunk.split_at(bit);
                    for &p in lo {
                        acc += p;
                    }
                    for &p in hi {
                        acc -= p;
                    }
                }
                acc
            })
            .collect()
    }
}

impl State<f64> {
    /// Measurement probabilities in basis order.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }
}

/// AVX2 single-qubit gate kernel over interleaved `[re, im]` doubles, for
/// targets with `bit ≥ 2` (two complex amplitudes per 256-bit register).
///
/// Complex multiply by a broadcast gate element `g = gr + i·gi` is
/// `addsub(gr·v, gi·swap(v))`: lane-wise that is `gr·ar − gi·ai` and
/// `gr·ai + gi·ar` with every product and the final add/sub rounded once —
/// the identical operation sequence to the scalar `Cplx` multiply, so the
/// results are bit-for-bit equal to the generic loop. No FMA anywhere.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_1q_f64_avx2(amps: &mut [f64], bit: usize, g: &[[Cplx<f64>; 2]; 2]) {
    use core::arch::x86_64::*;
    debug_assert!(bit >= 2 && bit.is_power_of_two());
    let g00r = _mm256_set1_pd(g[0][0].re);
    let g00i = _mm256_set1_pd(g[0][0].im);
    let g01r = _mm256_set1_pd(g[0][1].re);
    let g01i = _mm256_set1_pd(g[0][1].im);
    let g10r = _mm256_set1_pd(g[1][0].re);
    let g10i = _mm256_set1_pd(g[1][0].im);
    let g11r = _mm256_set1_pd(g[1][1].re);
    let g11i = _mm256_set1_pd(g[1][1].im);
    let half = 2 * bit; // doubles per lo/hi half of a chunk
    let mut base = 0;
    while base < amps.len() {
        let mut j = 0;
        while j < half {
            let p0 = amps.as_mut_ptr().add(base + j);
            let p1 = amps.as_mut_ptr().add(base + half + j);
            let x0 = _mm256_loadu_pd(p0);
            let x1 = _mm256_loadu_pd(p1);
            // Swap re/im within each complex slot for the cross terms.
            let x0s = _mm256_permute_pd(x0, 0b0101);
            let x1s = _mm256_permute_pd(x1, 0b0101);
            let a0 = _mm256_add_pd(
                _mm256_addsub_pd(_mm256_mul_pd(g00r, x0), _mm256_mul_pd(g00i, x0s)),
                _mm256_addsub_pd(_mm256_mul_pd(g01r, x1), _mm256_mul_pd(g01i, x1s)),
            );
            let a1 = _mm256_add_pd(
                _mm256_addsub_pd(_mm256_mul_pd(g10r, x0), _mm256_mul_pd(g10i, x0s)),
                _mm256_addsub_pd(_mm256_mul_pd(g11r, x1), _mm256_mul_pd(g11i, x1s)),
            );
            _mm256_storeu_pd(p0, a0);
            _mm256_storeu_pd(p1, a1);
            j += 4;
        }
        base += 2 * half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use qpinn_dual::Complex64;

    type St = State<f64>;

    #[test]
    fn zero_state_is_normalized() {
        let s = St::zero(3);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(s.amplitudes()[0], Complex64::one());
    }

    #[test]
    fn x_gate_flips() {
        // RX(π) = −i X up to phase: |0⟩ → −i|1⟩.
        let mut s = St::zero(1);
        s.apply_1q(0, &gates::rx(std::f64::consts::PI));
        assert!(s.amplitudes()[0].abs() < 1e-12);
        assert!((s.amplitudes()[1].abs() - 1.0).abs() < 1e-12);
        assert!((s.expectation_z(0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_gives_equal_superposition() {
        let mut s = St::zero(2);
        s.apply_1q(0, &gates::hadamard());
        s.apply_1q(1, &gates::hadamard());
        for a in s.amplitudes() {
            assert!((a.re - 0.5).abs() < 1e-12 && a.im.abs() < 1e-12);
        }
        assert!(s.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_via_h_cnot() {
        let mut s = St::zero(2);
        s.apply_1q(0, &gates::hadamard());
        s.apply_cnot(0, 1);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12); // |00⟩
        assert!((p[3] - 0.5).abs() < 1e-12); // |11⟩
        assert!(p[1].abs() < 1e-15 && p[2].abs() < 1e-15);
    }

    #[test]
    fn rx_rotation_expectation_is_cos_theta() {
        for &theta in &[0.0, 0.4, 1.1, 2.7] {
            let mut s = St::zero(1);
            s.apply_1q(0, &gates::rx(theta));
            assert!(
                (s.expectation_z(0) - theta.cos()).abs() < 1e-12,
                "θ = {theta}"
            );
        }
    }

    #[test]
    fn controlled_gate_ignores_zero_control() {
        let mut s = St::zero(2);
        s.apply_controlled_1q(0, 1, &gates::rx(1.3));
        // control qubit 0 is |0⟩ → nothing happens
        assert!((s.amplitudes()[0].re - 1.0).abs() < 1e-15);
    }

    #[test]
    fn crz_applies_phase_only_on_11() {
        let mut s = St::zero(2);
        s.apply_1q(0, &gates::hadamard());
        s.apply_1q(1, &gates::hadamard());
        s.apply_controlled_1q(0, 1, &gates::rz(1.0));
        // |11⟩ picks up e^{+i/2}, |01⟩… wait: rz applies phases to target
        // basis; on the controlled subspace (control=1): |10⟩ (target 1 = 0)
        // gets e^{-i/2}, |11⟩ gets e^{+i/2}. Norm unchanged everywhere.
        let p = s.probabilities();
        for v in p {
            assert!((v - 0.25).abs() < 1e-12);
        }
        assert!((s.amplitudes()[3].arg() - 0.5).abs() < 1e-12);
        assert!((s.amplitudes()[1].arg() - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn gates_preserve_norm() {
        let mut s = St::zero(3);
        s.apply_1q(0, &gates::rx(0.7));
        s.apply_1q(1, &gates::ry(1.2));
        s.apply_1q(2, &gates::rz(-0.5));
        s.apply_cnot(0, 2);
        s.apply_controlled_1q(2, 1, &gates::rz(0.9));
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_free_kernels_match_naive_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for nq in [2usize, 3, 5] {
            // A normalized random state shared by both implementations.
            let amps: Vec<Complex64> = (0..1usize << nq)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            let scale = Complex64::from_real(1.0 / norm);
            let amps: Vec<Complex64> = amps.iter().map(|a| *a * scale).collect();
            let g = gates::rot(0.8, -1.3, 0.4);
            for c in 0..nq {
                for t in 0..nq {
                    if c == t {
                        continue;
                    }
                    let mut fast = St::zero(nq);
                    fast.amps.copy_from_slice(&amps);
                    fast.apply_controlled_1q(c, t, &g);
                    // Naive reference: scan all indices, test bits.
                    let mut want = amps.clone();
                    let (cbit, tbit) = (1usize << c, 1usize << t);
                    for i0 in 0..want.len() {
                        if i0 & cbit != 0 && i0 & tbit == 0 {
                            let i1 = i0 | tbit;
                            let (a0, a1) = (want[i0], want[i1]);
                            want[i0] = g[0][0] * a0 + g[0][1] * a1;
                            want[i1] = g[1][0] * a0 + g[1][1] * a1;
                        }
                    }
                    for (got, w) in fast.amplitudes().iter().zip(&want) {
                        assert_eq!(got.re.to_bits(), w.re.to_bits(), "c={c} t={t}");
                        assert_eq!(got.im.to_bits(), w.im.to_bits(), "c={c} t={t}");
                    }
                    // CNOT against the same naive pattern.
                    let mut fast = St::zero(nq);
                    fast.amps.copy_from_slice(&amps);
                    fast.apply_cnot(c, t);
                    let mut want = amps.clone();
                    for i in 0..want.len() {
                        if i & cbit != 0 && i & tbit == 0 {
                            want.swap(i, i | tbit);
                        }
                    }
                    assert_eq!(fast.amps, want, "cnot c={c} t={t}");
                }
            }
            // all_expectations_z agrees bit-for-bit with per-qubit scans.
            let mut s = St::zero(nq);
            s.amps.copy_from_slice(&amps);
            let all = s.all_expectations_z();
            for (q, &e) in all.iter().enumerate() {
                assert_eq!(e.to_bits(), s.expectation_z(q).to_bits(), "qubit {q}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_apply_1q_matches_generic_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let det = qpinn_tensor::simd::detected_width();
        if det < 4 {
            return; // no AVX fast path on this host; nothing to compare
        }
        let restore = qpinn_tensor::simd::width();
        let mut rng = StdRng::seed_from_u64(21);
        for nq in [2usize, 3, 5, 8] {
            let amps: Vec<Complex64> = (0..1usize << nq)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            for g in [
                gates::rot(0.8, -1.3, 0.4),
                gates::hadamard(),
                gates::ry(2.2),
                gates::rz(-0.7),
            ] {
                for t in 0..nq {
                    let mut fast = St::zero(nq);
                    fast.amps.copy_from_slice(&amps);
                    qpinn_tensor::simd::set_width(det);
                    fast.apply_1q(t, &g);
                    let mut want = St::zero(nq);
                    want.amps.copy_from_slice(&amps);
                    qpinn_tensor::simd::set_width(1);
                    want.apply_1q(t, &g);
                    for (got, w) in fast.amplitudes().iter().zip(want.amplitudes()) {
                        assert_eq!(got.re.to_bits(), w.re.to_bits(), "nq={nq} t={t}");
                        assert_eq!(got.im.to_bits(), w.im.to_bits(), "nq={nq} t={t}");
                    }
                }
            }
        }
        qpinn_tensor::simd::set_width(restore);
    }

    #[test]
    fn little_endian_indexing() {
        // Flip qubit 1 of |000⟩ → index 2.
        let mut s = St::zero(3);
        s.apply_1q(1, &gates::rx(std::f64::consts::PI));
        let p = s.probabilities();
        assert!((p[2] - 1.0).abs() < 1e-12);
    }
}
