//! Variational circuit templates.
//!
//! Each ansatz is `layers` repetitions of a single-qubit rotation block
//! followed by an entangling block. The templates mirror the designs
//! ablated in the QPINN literature (and PennyLane's template library):
//!
//! * [`Ansatz::BasicEntangling`] — `Rot` per qubit + nearest-neighbour
//!   CNOT ring ("hardware-efficient");
//! * [`Ansatz::StronglyEntangling`] — `Rot` per qubit + CNOT ring whose
//!   control-target distance grows with the layer index;
//! * [`Ansatz::CrossMeshCrz`] — `RX` per qubit + parametrized `CRZ`
//!   between every ordered qubit pair ("fully connected");
//! * [`Ansatz::NoEntangling`] — `Rot` per qubit only (the classical-like
//!   control);
//! * [`Ansatz::Cascade`] — `RY` per qubit + downward CNOT cascade (the
//!   cheapest entangling template: one parameter per qubit per layer);
//! * [`Ansatz::Layered`] — `RY`+`RZ` per qubit + open CNOT chain;
//! * [`Ansatz::Farhi`] — `RX` per qubit followed by parametrized ZZ
//!   blocks (`CNOT·RZ·CNOT`) on adjacent pairs, after Farhi–Neven-style
//!   learning circuits;
//! * [`Ansatz::SimCirc15`] — two `RY` sweeps separated by
//!   counter-rotating CNOT rings (circuit 15 of the Sim et al.
//!   expressibility study).
//!
//! Templates are addressable by their stable report name through
//! [`Ansatz::from_name`] — the same key the bench `--ansatz` flag and the
//! serve training API accept. All templates parametrize only plain
//! single-qubit Pauli rotations (the `CRZ`s of [`Ansatz::CrossMeshCrz`]
//! are the one exception), so the two-term parameter-shift rule is an
//! exact gradient oracle for every family except `cross-mesh-crz`, which
//! needs the four-term controlled-rotation rule in [`crate::shift`].

use crate::circuit::{GateSink, Var};
use crate::gates::{self, Mat2};
use crate::state::State;
use qpinn_dual::Scalar;

/// The ansatz family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ansatz {
    /// Rot + nearest-neighbour CNOT ring.
    BasicEntangling,
    /// Rot + layer-dependent-range CNOT ring.
    StronglyEntangling,
    /// RX + all-pairs parametrized CRZ.
    CrossMeshCrz,
    /// Rot only, no two-qubit gates.
    NoEntangling,
    /// RY + downward CNOT cascade.
    Cascade,
    /// RY + RZ + open CNOT chain.
    Layered,
    /// RX + parametrized adjacent-pair ZZ blocks.
    Farhi,
    /// RY, CNOT ring, RY, counter-rotated CNOT ring.
    SimCirc15,
}

impl Ansatz {
    /// All templates, for ablation sweeps.
    pub fn all() -> [Ansatz; 8] {
        [
            Ansatz::BasicEntangling,
            Ansatz::StronglyEntangling,
            Ansatz::CrossMeshCrz,
            Ansatz::NoEntangling,
            Ansatz::Cascade,
            Ansatz::Layered,
            Ansatz::Farhi,
            Ansatz::SimCirc15,
        ]
    }

    /// All report names, sorted exactly like [`Ansatz::all`].
    pub fn names() -> Vec<&'static str> {
        Ansatz::all().iter().map(|a| a.name()).collect()
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            Ansatz::BasicEntangling => "basic-entangling",
            Ansatz::StronglyEntangling => "strongly-entangling",
            Ansatz::CrossMeshCrz => "cross-mesh-crz",
            Ansatz::NoEntangling => "no-entangling",
            Ansatz::Cascade => "cascade",
            Ansatz::Layered => "layered",
            Ansatz::Farhi => "farhi",
            Ansatz::SimCirc15 => "sim-circ-15",
        }
    }

    /// Resolve a report name (as printed by [`Ansatz::name`]) back to the
    /// template. Underscores are accepted in place of dashes so shell-
    /// quoted flags like `sim_circ_15` also resolve. Unknown names return
    /// `None`, never panic.
    pub fn from_name(name: &str) -> Option<Ansatz> {
        let normalized = name.replace('_', "-");
        Ansatz::all().into_iter().find(|a| a.name() == normalized)
    }

    /// Number of trainable parameters for `n_qubits` qubits and `layers`
    /// layers.
    pub fn n_params(&self, n_qubits: usize, layers: usize) -> usize {
        match self {
            Ansatz::BasicEntangling | Ansatz::StronglyEntangling | Ansatz::NoEntangling => {
                3 * n_qubits * layers
            }
            // RX per qubit + CRZ per ordered pair
            Ansatz::CrossMeshCrz => layers * (n_qubits + n_qubits * (n_qubits - 1)),
            Ansatz::Cascade => n_qubits * layers,
            Ansatz::Layered | Ansatz::SimCirc15 => 2 * n_qubits * layers,
            // RX per qubit + one ZZ angle per adjacent pair
            Ansatz::Farhi => layers * (n_qubits + n_qubits.saturating_sub(1)),
        }
    }

    /// Parameters consumed by a single layer on `n_qubits` qubits.
    pub fn params_per_layer(&self, n_qubits: usize) -> usize {
        self.n_params(n_qubits, 1)
    }

    /// Apply one ansatz layer (`layer` is the 0-based layer index, which
    /// selects the entangling wiring for the strongly entangling template).
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch.
    pub fn apply_layer<S: Scalar>(&self, state: &mut State<S>, layer: usize, params: &[S]) {
        self.emit_layer(state, layer, params, 0, None);
    }

    /// Apply one ansatz layer with a per-qubit **pre-gate** fused into the
    /// layer's leading single-qubit rotation: the two 2×2 matrices are
    /// pre-multiplied, so the state sees one gate sweep instead of two.
    /// `pre[q]` is applied *before* the layer's rotation on qubit `q`
    /// (matrix product `rotation · pre`). Used by data re-uploading, where
    /// every layer is preceded by an `RX` embedding on each qubit.
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch or when `pre` does not hold
    /// one gate per qubit.
    pub fn apply_layer_fused<S: Scalar>(
        &self,
        state: &mut State<S>,
        layer: usize,
        params: &[S],
        pre: &[Mat2<S>],
    ) {
        self.emit_layer(state, layer, params, 0, Some(pre));
    }

    /// Apply the full ansatz to `state` using `params` (length must equal
    /// [`Ansatz::n_params`]).
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch.
    pub fn apply<S: Scalar>(&self, state: &mut State<S>, layers: usize, params: &[S]) {
        self.emit(state, layers, params);
    }

    /// Emit the full ansatz into `c`; `params[p]` is `θ_p`.
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch.
    pub(crate) fn emit<S: Scalar>(&self, c: &mut impl GateSink<S>, layers: usize, params: &[S]) {
        let nq = c.n_qubits();
        assert_eq!(
            params.len(),
            self.n_params(nq, layers),
            "{}: wrong parameter count",
            self.name()
        );
        let per = self.params_per_layer(nq);
        if matches!(self, Ansatz::NoEntangling) {
            // Cross-layer gate fusion: with no entangler between layers,
            // each qubit sees `layers` consecutive `Rot` gates. Their 2×2
            // product is computed once and applied in a single sweep over
            // the state — `nq` gate applications total instead of
            // `nq · layers`.
            for q in 0..nq {
                let pq = 3 * q;
                let mut g = gates::rot(params[pq], params[pq + 1], params[pq + 2]);
                for layer in 1..layers {
                    let p = layer * per + pq;
                    g = gates::mat_mul(&gates::rot(params[p], params[p + 1], params[p + 2]), &g);
                }
                let deps =
                    (0..layers).flat_map(|l| (0..3).map(move |k| Var::Theta(l * per + pq + k)));
                c.push_1q(q, g, deps);
            }
            return;
        }
        for layer in 0..layers {
            let slice = &params[layer * per..(layer + 1) * per];
            self.emit_layer(c, layer, slice, layer * per, None);
        }
    }

    /// Emit one ansatz layer into `c`; `params[i]` is `θ_{offset+i}`.
    /// With `pre`, `pre[q]` is fused into the layer's leading rotation on
    /// qubit `q` (see [`Ansatz::apply_layer_fused`]) and taken to be qubit
    /// `q`'s embedding gate, so the fused gate also depends on
    /// [`Var::Angle`]`(q)`.
    ///
    /// # Panics
    /// Panics on a parameter-count mismatch or when `pre` does not hold
    /// one gate per qubit.
    pub(crate) fn emit_layer<S: Scalar, C: GateSink<S>>(
        &self,
        c: &mut C,
        layer: usize,
        params: &[S],
        offset: usize,
        pre: Option<&[Mat2<S>]>,
    ) {
        let nq = c.n_qubits();
        assert_eq!(
            params.len(),
            self.params_per_layer(nq),
            "{}: wrong per-layer parameter count",
            self.name()
        );
        if let Some(pre) = pre {
            assert_eq!(pre.len(), nq, "one pre-gate per qubit");
        }
        let th = |i: usize| Var::Theta(offset + i);
        // The layer's leading rotation on qubit q, with its pre-gate fused.
        let lead = |c: &mut C, q: usize, g: Mat2<S>, deps: &[Var]| match pre {
            Some(pre) => c.push_1q(
                q,
                gates::mat_mul(&g, &pre[q]),
                std::iter::once(Var::Angle(q)).chain(deps.iter().copied()),
            ),
            None => c.push_1q(q, g, deps.iter().copied()),
        };
        match self {
            Ansatz::BasicEntangling | Ansatz::StronglyEntangling | Ansatz::NoEntangling => {
                for q in 0..nq {
                    let p = 3 * q;
                    let g = gates::rot(params[p], params[p + 1], params[p + 2]);
                    lead(c, q, g, &[th(p), th(p + 1), th(p + 2)]);
                }
                let range = match self {
                    Ansatz::BasicEntangling => 1,
                    Ansatz::StronglyEntangling => 1 + layer % (nq - 1).max(1),
                    _ => 0,
                };
                if range > 0 && nq > 1 {
                    for q in 0..nq {
                        c.push_cnot(q, (q + range) % nq);
                    }
                }
            }
            Ansatz::CrossMeshCrz => {
                for (q, &p) in params[..nq].iter().enumerate() {
                    lead(c, q, gates::rx(p), &[th(q)]);
                }
                let mut p = nq;
                for ctl in 0..nq {
                    for tgt in 0..nq {
                        if ctl != tgt {
                            c.push_controlled(ctl, tgt, gates::rz(params[p]), [th(p)]);
                            p += 1;
                        }
                    }
                }
            }
            Ansatz::Cascade => {
                for (q, &p) in params[..nq].iter().enumerate() {
                    lead(c, q, gates::ry(p), &[th(q)]);
                }
                for q in 0..nq.saturating_sub(1) {
                    c.push_cnot(q, q + 1);
                }
            }
            Ansatz::Layered => {
                // The per-qubit RY then RZ collapse into one fused 2×2.
                for q in 0..nq {
                    let g = gates::mat_mul(&gates::rz(params[nq + q]), &gates::ry(params[q]));
                    lead(c, q, g, &[th(q), th(nq + q)]);
                }
                for q in 0..nq.saturating_sub(1) {
                    c.push_cnot(q, q + 1);
                }
            }
            Ansatz::Farhi => {
                for (q, &p) in params[..nq].iter().enumerate() {
                    lead(c, q, gates::rx(p), &[th(q)]);
                }
                // exp(−iθ ZZ/2) on (q, q+1) as CNOT · RZ(target) · CNOT
                for q in 0..nq.saturating_sub(1) {
                    c.push_cnot(q, q + 1);
                    c.push_1q(q + 1, gates::rz(params[nq + q]), [th(nq + q)]);
                    c.push_cnot(q, q + 1);
                }
            }
            Ansatz::SimCirc15 => {
                for (q, &p) in params[..nq].iter().enumerate() {
                    lead(c, q, gates::ry(p), &[th(q)]);
                }
                if nq > 1 {
                    for q in 0..nq {
                        c.push_cnot(q, (q + 1) % nq);
                    }
                }
                for q in 0..nq {
                    c.push_1q(q, gates::ry(params[nq + q]), [th(nq + q)]);
                }
                if nq > 1 {
                    for q in 0..nq {
                        c.push_cnot(q, (q + nq - 1) % nq);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_params(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect()
    }

    #[test]
    fn parameter_counts() {
        assert_eq!(Ansatz::BasicEntangling.n_params(7, 4), 84);
        assert_eq!(Ansatz::StronglyEntangling.n_params(7, 4), 84);
        assert_eq!(Ansatz::NoEntangling.n_params(7, 4), 84);
        // 7 RX + 42 CRZ per layer × 4 layers = 196
        assert_eq!(Ansatz::CrossMeshCrz.n_params(7, 4), 196);
        assert_eq!(Ansatz::Cascade.n_params(7, 4), 28);
        assert_eq!(Ansatz::Layered.n_params(7, 4), 56);
        assert_eq!(Ansatz::SimCirc15.n_params(7, 4), 56);
        // 7 RX + 6 ZZ per layer × 4 layers = 52
        assert_eq!(Ansatz::Farhi.n_params(7, 4), 52);
        // degenerate single-qubit circuits still have well-defined counts
        assert_eq!(Ansatz::Farhi.n_params(1, 3), 3);
        assert_eq!(Ansatz::Cascade.n_params(1, 3), 3);
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for a in Ansatz::all() {
            assert_eq!(Ansatz::from_name(a.name()), Some(a));
        }
        // underscore spelling resolves too
        assert_eq!(Ansatz::from_name("sim_circ_15"), Some(Ansatz::SimCirc15));
        assert_eq!(Ansatz::from_name("no-such-ansatz"), None);
    }

    #[test]
    fn cascade_and_layered_entangle_neighbours() {
        for a in [Ansatz::Cascade, Ansatz::Layered, Ansatz::Farhi, Ansatz::SimCirc15] {
            // Farhi's entanglers are diagonal, so ⟨Z₂⟩ is exactly blind to
            // qubit 0's angles at any depth; probe the q0→q1 coupling
            // there and the full q0→q2 chain everywhere else.
            let probe = if a == Ansatz::Farhi { 1 } else { 2 };
            let mut p = random_params(a.n_params(3, 3), 11);
            let mut s1: State<f64> = State::zero(3);
            a.apply(&mut s1, 3, &p);
            let z_before = s1.expectation_z(probe);
            // perturbing qubit 0's leading angle must reach the probe qubit
            // through the entangler
            p[0] += 0.9;
            let mut s2: State<f64> = State::zero(3);
            a.apply(&mut s2, 3, &p);
            assert!(
                (s2.expectation_z(probe) - z_before).abs() > 1e-6,
                "{} failed to couple qubit 0 to qubit {probe}",
                a.name()
            );
        }
    }

    #[test]
    fn farhi_zz_block_matches_exact_zz_evolution() {
        // On 2 qubits with zero RX angles, one Farhi layer is exactly
        // exp(−iθ Z⊗Z/2): ⟨Z⟩ stays 1 on |00⟩ and the acquired phase is
        // diag(e^{−iθ/2}, e^{iθ/2}, e^{iθ/2}, e^{−iθ/2}).
        let theta = 0.73f64;
        let mut s: State<f64> = State::zero(2);
        // superpose first so phases are visible: H⊗H via RY(π/2) up to sign
        let h_like = gates::ry(std::f64::consts::FRAC_PI_2);
        s.apply_1q(0, &h_like);
        s.apply_1q(1, &h_like);
        Ansatz::Farhi.apply(&mut s, 1, &[0.0, 0.0, theta]);
        let amps = s.amplitudes().to_vec();
        for (i, a) in amps.iter().enumerate() {
            let parity = ((i.count_ones() % 2) as f64) * 2.0 - 1.0; // +1 odd, −1 even
            let expect_phase = 0.5 * theta * parity;
            let rotated = *a * qpinn_dual::Cplx::cis(-expect_phase);
            assert!(
                rotated.im.abs() < 1e-12,
                "amp {i} phase mismatch: {:?}",
                a
            );
        }
    }

    #[test]
    fn all_ansaetze_preserve_norm() {
        for a in Ansatz::all() {
            let mut s: State<f64> = State::zero(4);
            let params = random_params(a.n_params(4, 3), 42);
            a.apply(&mut s, 3, &params);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10, "{}", a.name());
        }
    }

    #[test]
    fn no_entangling_keeps_product_structure() {
        // With a product ansatz, ⟨Z_q⟩ depends only on qubit q's own
        // parameters: changing qubit 0's parameters must not affect ⟨Z_1⟩.
        let a = Ansatz::NoEntangling;
        let mut p1 = random_params(a.n_params(3, 2), 1);
        let mut s1: State<f64> = State::zero(3);
        a.apply(&mut s1, 2, &p1);
        let z1_before = s1.expectation_z(1);
        // perturb qubit 0's parameters in both layers (indices 0..3, 9..12)
        p1[0] += 0.7;
        p1[9] -= 0.3;
        let mut s2: State<f64> = State::zero(3);
        a.apply(&mut s2, 2, &p1);
        assert!((s2.expectation_z(1) - z1_before).abs() < 1e-12);
    }

    #[test]
    fn entangling_ansatz_couples_qubits() {
        // In contrast, the basic entangler propagates changes across qubits.
        let a = Ansatz::BasicEntangling;
        let mut p = random_params(a.n_params(3, 2), 2);
        let mut s1: State<f64> = State::zero(3);
        a.apply(&mut s1, 2, &p);
        let z1_before = s1.expectation_z(1);
        // perturb qubit 0's RY angle (the leading RZ on |0⟩ is a pure phase)
        p[1] += 0.9;
        let mut s2: State<f64> = State::zero(3);
        a.apply(&mut s2, 2, &p);
        assert!((s2.expectation_z(1) - z1_before).abs() > 1e-4);
    }

    #[test]
    fn strongly_entangling_differs_from_basic_beyond_first_layer() {
        let nq = 4;
        let layers = 2;
        let p = random_params(Ansatz::BasicEntangling.n_params(nq, layers), 3);
        let mut sb: State<f64> = State::zero(nq);
        Ansatz::BasicEntangling.apply(&mut sb, layers, &p);
        let mut ss: State<f64> = State::zero(nq);
        Ansatz::StronglyEntangling.apply(&mut ss, layers, &p);
        let diff: f64 = sb
            .amplitudes()
            .iter()
            .zip(ss.amplitudes())
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum();
        assert!(diff > 1e-6, "layer-2 wiring should differ: {diff}");
    }

    #[test]
    fn single_qubit_edge_case() {
        for a in Ansatz::all() {
            let mut s: State<f64> = State::zero(1);
            let params = random_params(a.n_params(1, 2), 4);
            a.apply(&mut s, 2, &params);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-12, "{}", a.name());
        }
    }
}
