//! Dense tensor library with reverse-mode autograd for the MEGA GNN stack.
//!
//! The paper's models (GatedGCN and Graph Transformer) are trained in this
//! workspace on the CPU; this crate is the numeric substrate:
//!
//! * [`tensor`] — a row-major 2-D [`Tensor`] of `f32` with the raw kernels
//!   (matmul, elementwise maps, reductions, row gather/scatter).
//! * [`tape`] — a reverse-mode autograd [`Tape`]: build a computation with
//!   tape methods, call [`Tape::backward`], read gradients per variable.
//!   Includes the graph-specific differentiable ops GNNs need (row gather,
//!   scatter-add, segment softmax, segment mean) so both the DGL-style
//!   baseline engine and MEGA's banded engine are expressible.
//! * [`init`] — Xavier/He initializers.
//! * [`optim`] — a parameter store and the Adam optimizer.
//!
//! # Example
//!
//! ```
//! use mega_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Tensor::from_rows(&[&[3.0], &[4.0]]));
//! let y = tape.matmul(x, w); // [[11.0]]
//! let loss = tape.sum(y);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.wrt(x).as_slice(), &[3.0, 4.0]);
//! assert_eq!(grads.wrt(w).as_slice(), &[1.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod optim;
pub mod tape;
pub mod tensor;

pub use optim::{Adam, ParamId, ParamStore};
pub use tape::{Band, Gradients, Tape, Var};
pub use tensor::Tensor;
