//! # recmod-eval
//!
//! A call-by-value evaluator for *phase-split* programs of the
//! recursive-module calculus: after `recmod-phase` has translated
//! recursive modules into core-calculus `μ` and `fix` (paper Figure 4),
//! the dynamic part is an ordinary term, and this crate runs it.
//!
//! Recursive values (`fix`) are implemented by backpatching; the value
//! restriction enforced by `recmod-kernel` guarantees the recursive
//! binding is never demanded before it is constructed. The interpreter
//! counts steps, which the benchmark harness uses to reproduce the
//! paper's §3.1 claim that the *opaque* recursive-module implementation
//! of lists "leads to poor behavior in practice" (each `cons`/`uncons`
//! traverses the whole list) while the §4 transparent implementation has
//! constant-time operations.
//!
//! # Example
//!
//! ```
//! use recmod_eval::Interp;
//! use recmod_syntax::ast::{Con, PrimOp};
//! use recmod_syntax::dsl::*;
//!
//! let mut interp = Interp::new();
//! let program = app(lam(tcon(Con::Int), prim(PrimOp::Add, var(0), int(1))), int(41));
//! let v = interp.run(&program).unwrap();
//! assert_eq!(v.as_int().unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
pub mod error;
pub mod interp;
pub mod value;

pub use code::Code;
pub use error::{EvalError, EvalResult};
pub use interp::{run_big_stack, EvalStats, Interp, DEFAULT_EVAL_FUEL};
pub use value::{Env, Value};
