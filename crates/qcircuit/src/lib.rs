//! # qpinn-qcircuit
//!
//! An analytic (noiseless, statevector) quantum-circuit simulator, generic
//! over the [`qpinn_dual::Scalar`] type so the *same* gate code yields
//! values (`f64`), exact first derivatives (`Dual64`), and exact mixed
//! second derivatives (`HyperDual64`) — no nested tapes, no finite
//! differences.
//!
//! On top of the simulator sit the pieces a hybrid quantum-classical PINN
//! needs:
//!
//! * `circuit` (crate-internal) — the circuit as a gate list (each gate's
//!   2×2 matrix and the variables it depends on) and the adjoint reverse
//!   sweep that turns it into gradients: one backward pass per sample,
//!   however many parameters; `Dual`/`HyperDual` scalars differentiate the
//!   2×2 gate matrices;
//! * [`ansatz`] — the standard variational circuit templates (basic
//!   entangling, strongly entangling, cross-mesh CRZ, no-entanglement),
//!   each one emitter of that gate list;
//! * [`encoding`] — angle embedding of classical activations with the five
//!   input scalings studied in the QPINN literature;
//! * [`layer`] — a batched "quantum layer" (angle embedding → ansatz →
//!   per-qubit Pauli-Z readout) with adjoint-method VJPs and
//!   forward-over-reverse jet gradients, spliced into the autodiff tape by
//!   `qpinn-core`; its forward-mode dual-number Jacobians are the oracle
//!   the adjoint is tested against;
//! * [`shift`] — the parameter-shift rule, used on hardware and kept here
//!   as an independent gradient oracle;
//! * [`entanglement`] — the Meyer–Wallach global entanglement measure.
//!
//! ```
//! use qpinn_qcircuit::{gates, State};
//! // Bell pair: H on qubit 0, CNOT(0 → 1)
//! let mut s: State<f64> = State::zero(2);
//! s.apply_1q(0, &gates::hadamard());
//! s.apply_cnot(0, 1);
//! let p = s.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod ansatz;
mod circuit;
pub mod encoding;
pub mod entanglement;
pub mod gates;
pub mod layer;
pub mod measure;
pub mod shift;
pub mod state;

pub use ansatz::Ansatz;
pub use encoding::InputScaling;
pub use layer::QuantumLayer;
pub use state::State;
