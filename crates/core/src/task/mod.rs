//! Ready-to-train task objects. [`ZooTask`] trains any registered PDE
//! problem (the Schrödinger families included); [`EigenTask`] and
//! [`InverseTdseTask`] cover the stationary-eigenvalue and
//! parameter-identification settings. Each task owns its collocation
//! points, curriculum state, loss weights, and reference solution, and
//! implements [`crate::trainer::PinnTask`].

pub mod eigen;
pub mod inverse;
pub mod zoo;

pub use eigen::{EigenTask, EigenTaskConfig};
pub use inverse::{InverseTaskConfig, InverseTdseTask};
pub use zoo::{net_config_for, ZooTask, ZooTaskConfig};
