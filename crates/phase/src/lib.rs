//! # recmod-phase
//!
//! The phase-splitting interpretations of Crary, Harper, and Puri's
//! *"What is a Recursive Module?"* (PLDI 1999):
//!
//! * [`split`] — Figure 4 (recursive modules → `μ` + term-level `fix`)
//!   and Figure 5 (recursively-dependent signatures → ordinary
//!   signatures), as executable translations into the pure structure
//!   calculus;
//! * [`hom`] — the Harper–Mitchell–Moggi encoding of functors as
//!   constructor-function/polymorphic-function pairs, which the paper
//!   appeals to for higher-order modules;
//! * [`iso`] — the §5 elimination of equi-recursive constructors via
//!   Shao's equation (`μα.μβ.c(α,β) ≃ μβ.c(β,β)`);
//! * [`verify`] — instance-by-instance validation that the translation
//!   preserves typing, the algorithmic reading of the paper's
//!   definitional-extension theorems.
//!
//! # Example
//!
//! Split a recursive module and observe the Figure-4 shape:
//!
//! ```
//! use recmod_kernel::{Tc, Ctx};
//! use recmod_phase::split::split_module;
//! use recmod_syntax::ast::{Con, Term, Ty};
//! use recmod_syntax::dsl::*;
//!
//! let tc = Tc::new();
//! let mut ctx = Ctx::new();
//! // fix(s : [α:T. int ⇀ Con(α)] . [int ⇀ Fst(s), λx:int. fail])
//! let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
//! let body = strct(
//!     carrow(Con::Int, fst(0)),
//!     lam(tcon(Con::Int), fail(tcon(fst(1)))),
//! );
//! let s = split_module(&tc, &mut ctx, mfix(ann, body)).unwrap();
//! assert!(matches!(s.con, Con::Mu(_, _)));     // static: μα:κ.c(α)
//! assert!(matches!(s.term, Term::Fix(_, _)));  // dynamic: fix(x:σ.e(α,x))
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hom;
pub mod iso;
pub mod split;
pub mod verify;

pub use split::{split_module, split_sig, Split};
pub use verify::check_split;
