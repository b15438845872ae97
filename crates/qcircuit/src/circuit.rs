//! The circuit as data: one gate list per evaluation point, generic over
//! the scalar. One emitter per template writes it into a [`GateSink`]: a
//! recorded [`Circuit`] for the adjoint reverse sweep, or a [`State`] that
//! applies each gate as it comes for the forward run and the forward-mode
//! oracles — there is no second simulator.
//!
//! Every entry is a single-qubit, controlled-single-qubit or CNOT gate
//! with its 2×2 matrix and the circuit variables ([`Var`]: embedding
//! angles and θ indices) the matrix depends on. A fused gate — a `Rot`,
//! a re-upload pre-gate times the layer rotation, the product-state
//! ansatz's cross-layer product — is one entry that depends on several
//! variables.
//!
//! # The adjoint method
//!
//! For the readout `s = Σ_k c_k ⟨ψ|Z_k|ψ⟩` of `ψ = G_N ⋯ G_1 |0⟩`
//! (Jones & Gacon 2020), `∂s/∂v = Σ_i 2·Re⟨λ_i|∂G_i/∂v|ψ_{i−1}⟩` with
//! `λ_N = Σ_k c_k Z_k ψ` and `λ_{i−1} = G_i† λ_i`. [`Circuit::adjoint`]
//! walks the list backwards once, un-applying each gate to both `ψ` and
//! `λ`. Each parameterised gate contributes through its 2×2 pair overlap
//! `C_ab = Σ_pairs conj(λ_a)·ψ_b` ([`State::pair_overlaps`]), contracted
//! with the gate's derivative matrices from
//! [`Circuit::dep_derivatives`] — 2×2 work, however many variables the
//! gate fuses. Run at `S = Dual64` with the embedding angles carrying a
//! tangent, the same sweep differentiates the gradient along that tangent
//! (forward-over-reverse).

use crate::gates::{self, Mat2};
use crate::state::State;
use core::ops::Range;
use qpinn_dual::{Cplx, Dual, Scalar};

/// A circuit variable a gate matrix can depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Var {
    /// The embedding angle of qubit `q`.
    Angle(usize),
    /// The circuit parameter `θ_p`.
    Theta(usize),
}

/// The qubits a gate acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wires {
    /// A single-qubit gate on the given qubit.
    One(usize),
    /// A single-qubit gate on `target`, controlled on `control`.
    Controlled {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// CNOT; the gate's matrix is unused.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
}

/// Where an emitter puts its gates: a [`Circuit`] records them with their
/// dependencies, a [`State`] applies them on the spot. Every gate list in
/// this crate is produced by one emitter written against this trait, so
/// the recorded list and the directly applied run are the same circuit.
pub trait GateSink<S: Scalar> {
    /// Number of qubits.
    fn n_qubits(&self) -> usize;

    /// Take one gate with the variables its matrix depends on.
    fn gate(&mut self, wires: Wires, m: Mat2<S>, deps: impl IntoIterator<Item = Var>);

    /// A single-qubit gate.
    fn push_1q(&mut self, target: usize, m: Mat2<S>, deps: impl IntoIterator<Item = Var>) {
        self.gate(Wires::One(target), m, deps);
    }

    /// A controlled single-qubit gate.
    fn push_controlled(
        &mut self,
        control: usize,
        target: usize,
        m: Mat2<S>,
        deps: impl IntoIterator<Item = Var>,
    ) {
        self.gate(Wires::Controlled { control, target }, m, deps);
    }

    /// A CNOT.
    fn push_cnot(&mut self, control: usize, target: usize) {
        self.gate(Wires::Cnot { control, target }, [[Cplx::zero(); 2]; 2], []);
    }
}

impl<S: Scalar> GateSink<S> for State<S> {
    fn n_qubits(&self) -> usize {
        State::n_qubits(self)
    }

    fn gate(&mut self, wires: Wires, m: Mat2<S>, _deps: impl IntoIterator<Item = Var>) {
        apply_gate(self, wires, &m);
    }
}

/// One entry of a [`Circuit`]: where it acts, its 2×2 matrix (the target
/// block of a controlled gate) and its range in [`Circuit`]'s dependency
/// list.
struct Gate<S> {
    wires: Wires,
    m: Mat2<S>,
    deps: Range<usize>,
}

/// A recorded gate list on `n_qubits` qubits.
pub struct Circuit<S> {
    n_qubits: usize,
    gates: Vec<Gate<S>>,
    deps: Vec<Var>,
}

impl<S: Scalar> GateSink<S> for Circuit<S> {
    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn gate(&mut self, wires: Wires, m: Mat2<S>, deps: impl IntoIterator<Item = Var>) {
        let start = self.deps.len();
        self.deps.extend(deps);
        let deps = start..self.deps.len();
        self.gates.push(Gate { wires, m, deps });
    }
}

impl<S: Scalar> Circuit<S> {
    /// An empty circuit.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// The variables `gate`'s matrix depends on.
    fn deps(&self, gate: &Gate<S>) -> &[Var] {
        &self.deps[gate.deps.clone()]
    }

    /// The state this circuit prepares from `|0…0⟩`.
    fn run(&self) -> State<S> {
        let mut state = State::zero(self.n_qubits);
        for g in &self.gates {
            apply_gate(&mut state, g.wires, &g.m);
        }
        state
    }

    /// `∂m/∂v` of every gate for each variable `v` it depends on, flat in
    /// dependency order (the layout [`Circuit::adjoint`] reads).
    ///
    /// `emit(sink, angles, θ)` must emit this circuit again at `Dual<S>`.
    /// A variable's *slot* is its position in the dependency list of the
    /// gates that read it; call `r` seeds every variable in slot `r`, so
    /// each gate sees exactly one seeded variable and one call
    /// differentiates the `r`-th dependency of every gate at once. The
    /// number of calls is the longest dependency list (1 for
    /// `sim-circ-15`, 3 for the `Rot` templates), not the number of
    /// variables, and the sink keeps only the derivative matrices.
    ///
    /// # Panics
    /// Panics when a variable sits in different slots of two gates.
    pub fn dep_derivatives(
        &self,
        angles: &[S],
        theta: &[S],
        emit: impl Fn(&mut DerivativeSink<'_, S>, &[Dual<S>], &[Dual<S>]),
    ) -> Vec<Mat2<S>> {
        let mut angle_slot = vec![usize::MAX; angles.len()];
        let mut theta_slot = vec![usize::MAX; theta.len()];
        let mut rounds = 0;
        for g in &self.gates {
            rounds = rounds.max(g.deps.len());
            for (k, &v) in self.deps(g).iter().enumerate() {
                let slot = match v {
                    Var::Angle(q) => &mut angle_slot[q],
                    Var::Theta(p) => &mut theta_slot[p],
                };
                assert!(
                    *slot == usize::MAX || *slot == k,
                    "{v:?} sits in two dependency slots"
                );
                *slot = k;
            }
        }
        let seed = |x: &[S], slots: &[usize], r: usize| -> Vec<Dual<S>> {
            x.iter()
                .zip(slots)
                .map(|(&v, &s)| {
                    if s == r {
                        Dual::variable(v)
                    } else {
                        Dual::constant(v)
                    }
                })
                .collect()
        };
        let mut out = vec![[[Cplx::zero(); 2]; 2]; self.deps.len()];
        for round in 0..rounds {
            let mut sink = DerivativeSink {
                circuit: self,
                next: 0,
                round,
                out: &mut out,
            };
            emit(
                &mut sink,
                &seed(angles, &angle_slot, round),
                &seed(theta, &theta_slot, round),
            );
            assert_eq!(sink.next, self.gates.len(), "emitted a different circuit");
        }
        out
    }

    /// One forward run, then the adjoint reverse sweep: for per-qubit
    /// readout weights `cot`, returns `(∂s/∂angle, ∂s/∂θ)` for
    /// `s = Σ_k cot_k ⟨Z_k⟩`. `dmats` comes from
    /// [`Circuit::dep_derivatives`]; `n_theta` sizes the θ gradient.
    pub fn adjoint(&self, cot: &[f64], dmats: &[Mat2<S>], n_theta: usize) -> (Vec<S>, Vec<S>) {
        assert_eq!(
            dmats.len(),
            self.deps.len(),
            "one derivative per dependency"
        );
        let mut psi = self.run();
        let mut lambda = psi.clone();
        lambda.apply_z_sum(cot);
        let mut g_angle = vec![S::zero(); self.n_qubits];
        let mut g_theta = vec![S::zero(); n_theta];
        let two = S::from_f64(2.0);
        for g in self.gates.iter().rev() {
            let gd = gates::dagger(&g.m);
            apply_gate(&mut psi, g.wires, &gd);
            if !g.deps.is_empty() {
                // ψ is now the state before the gate, λ still the one after.
                let c = match g.wires {
                    Wires::One(t) => lambda.pair_overlaps(&psi, None, t),
                    Wires::Controlled { control, target } => {
                        lambda.pair_overlaps(&psi, Some(control), target)
                    }
                    Wires::Cnot { .. } => unreachable!("CNOT has no parameters"),
                };
                for (&v, dm) in self.deps(g).iter().zip(&dmats[g.deps.clone()]) {
                    // Re Σ_ab ∂m_ab · C_ab = Re⟨λ|∂G|ψ⟩
                    let mut re = S::zero();
                    for (drow, crow) in dm.iter().zip(&c) {
                        for (d, x) in drow.iter().zip(crow) {
                            re += d.re * x.re - d.im * x.im;
                        }
                    }
                    let slot = match v {
                        Var::Angle(q) => &mut g_angle[q],
                        Var::Theta(p) => &mut g_theta[p],
                    };
                    *slot += two * re;
                }
            }
            apply_gate(&mut lambda, g.wires, &gd);
        }
        (g_angle, g_theta)
    }
}

/// The sink [`Circuit::dep_derivatives`] emits the seeded circuit into:
/// of the `i`-th gate it keeps the ε part of the matrix, as the
/// derivative for the dependency in the current slot.
pub struct DerivativeSink<'a, S> {
    circuit: &'a Circuit<S>,
    next: usize,
    round: usize,
    out: &'a mut [Mat2<S>],
}

impl<S: Scalar> GateSink<Dual<S>> for DerivativeSink<'_, S> {
    fn n_qubits(&self) -> usize {
        self.circuit.n_qubits
    }

    fn gate(&mut self, wires: Wires, m: Mat2<Dual<S>>, _deps: impl IntoIterator<Item = Var>) {
        let g = &self.circuit.gates[self.next];
        debug_assert_eq!(g.wires, wires, "emitted a different circuit");
        if self.round < g.deps.len() {
            let eps = m.map(|row| row.map(|z| Cplx::new(z.re.eps, z.im.eps)));
            self.out[g.deps.start + self.round] = eps;
        }
        self.next += 1;
    }
}

fn apply_gate<S: Scalar>(state: &mut State<S>, wires: Wires, m: &Mat2<S>) {
    match wires {
        Wires::One(t) => state.apply_1q(t, m),
        Wires::Controlled { control, target } => state.apply_controlled_1q(control, target, m),
        Wires::Cnot { control, target } => state.apply_cnot(control, target),
    }
}
