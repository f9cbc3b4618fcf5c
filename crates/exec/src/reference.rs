//! The oracle backend: exactly the shared reference kernels.

use crate::Backend;

/// Executes every kernel with the reference loops in [`crate::kernels`],
/// which define the bits every backend reproduces: a fused multiply-add per
/// GEMM term, the workspace `exp` under the sigmoid. Every trait default
/// already delegates there, so the impl is empty; this type is the living
/// proof that [`Backend`]'s defaults *are* the reference semantics. Tests
/// name it as the oracle; nothing runs on it by default, because on a target
/// whose baseline lacks FMA (x86-64's) its GEMM makes a library call per
/// term.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }
}
