//! # recmod-syntax
//!
//! Abstract syntax for the internal language of Crary, Harper, and Puri's
//! *"What is a Recursive Module?"* (PLDI 1999): the phase-distinction
//! calculus of Harper–Mitchell–Moggi extended with singleton kinds,
//! equi-recursive constructors, a valuability-restricted term fixed point,
//! recursive modules `fix(s:S.M)`, and recursively-dependent signatures
//! `ρs.S`.
//!
//! This crate provides:
//!
//! * the six syntactic classes ([`Kind`], [`Con`], [`Ty`], [`Term`],
//!   [`Sig`], [`Module`]) with de Bruijn binding ([`ast`]);
//! * a generic variable-occurrence traversal ([`map`]);
//! * shifting and the three substitution forms — constructor, term, and
//!   structure ([`subst`]);
//! * a bounded per-thread memo that remembers those rewrites across
//!   calls, keyed by node id ([`memo`]);
//! * a pretty-printer in the paper's notation ([`pretty`]);
//! * ergonomic construction helpers ([`dsl`]).
//!
//! # Example
//!
//! Build and print the paper's deceptive singleton example
//! `μα:Q(int).α` (§2.1), which is definitionally equal to `int`:
//!
//! ```
//! use recmod_syntax::dsl::{mu, q, cvar};
//! use recmod_syntax::ast::Con;
//! use recmod_syntax::pretty::{con_to_string, Names};
//!
//! let c = mu(q(Con::Int), cvar(0));
//! assert_eq!(con_to_string(&c, &mut Names::new()), "μa:Q(int).a");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod dsl;
pub mod fxhash;
pub mod intern;
pub mod map;
pub mod memo;
pub mod pretty;
pub mod size;
pub mod subst;

pub use ast::{Con, Index, Kind, Module, PrimOp, Sig, Term, Ty};
