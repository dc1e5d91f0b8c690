//! The elaboration environment: what surface names denote.
//!
//! Every entity that owns internal syntax stores it together with the
//! internal-context depth at which it was created; uses at a deeper
//! context shift the syntax by the depth difference. This keeps all de
//! Bruijn bookkeeping in one place ([`StructEntity::statics_at`] and friends).

use std::rc::Rc;

use recmod_syntax::ast::{Con, Kind, Term, Ty};
use recmod_syntax::subst::{shift_con, shift_kind, shift_term, shift_ty};

use crate::ast::Name;
use crate::shape::{DataInfo, Shape};

/// An elaborated signature: the pieces of an internal `[α:κ.σ]` plus the
/// field layout. For a recursively-dependent signature (`rds` = true),
/// both `kind` and `ty` sit under one extra *structure* binder (the `ρ`
/// binder), mirroring `Sig::Rds`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigTemplate {
    /// The static kind (under the ρ binder when `rds`).
    pub kind: Kind,
    /// The dynamic type, under the signature's constructor binder (and
    /// the ρ binder when `rds`).
    pub ty: Ty,
    /// The field layout.
    pub shape: Shape,
    /// Context depth at which the template's syntax is expressed.
    pub depth: usize,
    /// Is this a recursively-dependent signature?
    pub rds: bool,
}

impl SigTemplate {
    /// The internal signature, shifted for use at context depth `at`.
    ///
    /// The template's `kind` and `ty` carry *implicit* binders (the ρ
    /// binder when `rds`, and always the signature's α binder on `ty`);
    /// shifting uses cutoffs so those stay fixed while genuinely free
    /// references move with the context.
    pub fn instantiate(&self, at: usize) -> recmod_syntax::ast::Sig {
        let delta = depth_delta(self.depth, at);
        let rho = usize::from(self.rds);
        let inner = recmod_syntax::ast::Sig::Struct(
            recmod_syntax::intern::hc(shift_kind(&self.kind, delta, rho)),
            recmod_syntax::intern::hc(shift_ty(&self.ty, delta, rho + 1)),
        );
        if self.rds {
            recmod_syntax::ast::Sig::Rds(Box::new(inner))
        } else {
            inner
        }
    }
}

/// A structure denotation: layout plus the two phase-split access
/// expressions (e.g. `Fst(s)`/`snd(s)` with projections, or inline
/// constructor/term tuples for locally-defined structures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructEntity {
    /// The field layout.
    pub shape: Shape,
    /// The static tuple, at depth `depth`.
    pub statics: Con,
    /// The dynamic tuple, at depth `depth`.
    pub dynamics: Term,
    /// Context depth at which `statics`/`dynamics` are expressed.
    pub depth: usize,
}

impl StructEntity {
    /// The static tuple shifted for use at context depth `at`.
    pub fn statics_at(&self, at: usize) -> Con {
        shift_con(&self.statics, depth_delta(self.depth, at), 0)
    }

    /// The dynamic tuple shifted for use at context depth `at`.
    pub fn dynamics_at(&self, at: usize) -> Term {
        shift_term(&self.dynamics, depth_delta(self.depth, at), 0)
    }
}

/// A functor denotation (the HMM pair plus its interface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctorEntity {
    /// The static part (a constructor function), at depth `depth`.
    pub statics: Con,
    /// The dynamic part (a polymorphic function), at depth `depth`.
    pub dynamics: Term,
    /// Context depth of the above.
    pub depth: usize,
    /// The parameter's elaborated signature (non-rds or rds; at `depth`).
    pub param: SigTemplate,
    /// The body's layout (the result shape of applications).
    pub result_shape: Shape,
    /// The raw body split, under one structure binder for the parameter,
    /// expressed at depth `body_depth`. Applications are β-reduced at
    /// elaboration time (the HMM equational rule), which in particular
    /// keeps `fix(s. F(s))` bodies syntactically valuable — required for
    /// the paper's §4 functorized recursive bindings.
    pub body_con: Con,
    /// See [`FunctorEntity::body_con`].
    pub body_term: Term,
    /// Context depth of the body (the parameter binder is index 0 there).
    pub body_depth: usize,
}

/// A datatype-constructor denotation (for locally-declared datatypes;
/// constructors of structure components are found through shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorEntity {
    /// Context position of the constructor's value binding.
    pub pos: usize,
    /// The datatype's `μ` constructor, at depth `depth`.
    pub data_con: Con,
    /// Context depth of `data_con`.
    pub depth: usize,
    /// The constructor's index within the datatype's sum.
    pub index: usize,
    /// Whether the constructor takes an argument.
    pub has_arg: bool,
    /// The constructors of the datatype (for exhaustiveness checks).
    pub info: DataInfo,
}

/// What a surface name denotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entity {
    /// A term variable at a context position.
    Val {
        /// Absolute context position (from the bottom).
        pos: usize,
    },
    /// A datatype constructor.
    Ctor(CtorEntity),
    /// A type abbreviation (`type t = ty`, signature type components,
    /// and `μ`-bound datatype self-references).
    TyAlias {
        /// The definition, at depth `depth`.
        con: Con,
        /// Context depth of `con`.
        depth: usize,
    },
    /// A locally-declared datatype's type name.
    Data {
        /// The `μ` constructor, at depth `depth`.
        con: Con,
        /// Context depth of `con`.
        depth: usize,
        /// Constructor metadata.
        info: DataInfo,
    },
    /// A structure.
    Struct(StructEntity),
    /// A functor, shared: an application reads it while it elaborates
    /// the argument in the same environment.
    Functor(Rc<FunctorEntity>),
    /// A named signature.
    SigDef(SigTemplate),
}

/// Converts a stored depth and a use-site depth into a shift amount.
pub fn depth_delta(stored: usize, at: usize) -> isize {
    at as isize - stored as isize
}

/// A name → entity map with block scoping.
#[derive(Debug, Default)]
pub struct ElabEnv {
    entries: Vec<(Name, Entity)>,
}

impl ElabEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` (shadowing any previous binding).
    pub fn insert(&mut self, name: Name, entity: Entity) {
        self.entries.push((name, entity));
    }

    /// Looks a name up, innermost binding first.
    pub fn lookup(&self, name: &str) -> Option<&Entity> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| **n == *name)
            .map(|(_, e)| e)
    }

    /// A scope marker to pass to [`ElabEnv::reset`].
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Discards bindings made since `mark`.
    pub fn reset(&mut self, mark: usize) {
        self.entries.truncate(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_prefers_inner_bindings() {
        let mut env = ElabEnv::new();
        env.insert("x".into(), Entity::Val { pos: 0 });
        let m = env.mark();
        env.insert("x".into(), Entity::Val { pos: 5 });
        assert_eq!(env.lookup("x"), Some(&Entity::Val { pos: 5 }));
        env.reset(m);
        assert_eq!(env.lookup("x"), Some(&Entity::Val { pos: 0 }));
    }

    #[test]
    fn struct_entity_shifts_to_use_site() {
        let s = StructEntity {
            shape: Shape::new(),
            statics: Con::Fst(0),
            dynamics: Term::Snd(0),
            depth: 3,
        };
        assert_eq!(s.statics_at(5), Con::Fst(2));
        assert_eq!(s.dynamics_at(5), Term::Snd(2));
        assert_eq!(s.statics_at(3), Con::Fst(0));
    }

    #[test]
    fn rds_template_keeps_self_reference_fixed_when_shifted() {
        // kind = Q(int ⇀ Fst(ρ-binder)) with one free outer ref Fst(1).
        let t = SigTemplate {
            kind: Kind::Singleton(recmod_syntax::intern::hc(Con::Arrow(
                recmod_syntax::intern::hc(Con::Int),
                recmod_syntax::intern::hc(Con::Fst(0)),
            ))),
            ty: Ty::con(Con::Fst(1)),
            shape: Shape::new(),
            depth: 1,
            rds: true,
        };
        let s = t.instantiate(4);
        let recmod_syntax::ast::Sig::Rds(inner) = s else {
            panic!()
        };
        let recmod_syntax::ast::Sig::Struct(k, ty) = *inner else {
            panic!()
        };
        // The ρ-bound Fst(0) in the kind did not move.
        assert_eq!(
            *k,
            Kind::Singleton(recmod_syntax::intern::hc(Con::Arrow(
                recmod_syntax::intern::hc(Con::Int),
                recmod_syntax::intern::hc(Con::Fst(0))
            )))
        );
        // In ty, index 0 = α, index 1 = ρ binder: both stay fixed; had it
        // been 2+ it would shift by 3.
        assert_eq!(*ty, Ty::con(Con::Fst(1)));
    }

    #[test]
    fn plain_template_shifts_free_refs_only() {
        // ty = Con(Var 0) references the α binder — fixed under shifting;
        // kind references a free variable — it moves.
        let t = SigTemplate {
            kind: Kind::Singleton(recmod_syntax::intern::hc(Con::Var(2))),
            ty: Ty::con(Con::Var(0)),
            shape: Shape::new(),
            depth: 3,
            rds: false,
        };
        let recmod_syntax::ast::Sig::Struct(k, ty) = t.instantiate(5) else {
            panic!()
        };
        assert_eq!(*k, Kind::Singleton(recmod_syntax::intern::hc(Con::Var(4))));
        assert_eq!(*ty, Ty::con(Con::Var(0)));
    }
}
