//! Higher-order modules as structures (Harper–Mitchell–Moggi).
//!
//! HMM's main result — which the paper leans on to avoid discussing
//! functors primitively — is that a functor
//!
//! ```text
//! λs:[α:κ.σ]. M     where  M splits as (c_b(Fst s), e_b(Fst s, snd s))
//! ```
//!
//! is *already present* in the structure calculus as the pair
//!
//! ```text
//! [ λα:κ. c_b(α),  Λα:κ. λx:σ. e_b(α, x) ]
//! ```
//!
//! of a constructor-level function and a polymorphic term function, with
//! functor application becoming constructor application paired with
//! type-then-term application. This module provides the two directions as
//! reusable combinators for the elaborator and for tests.

use recmod_syntax::ast::{Con, Kind, Module, Sig, Term, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::map::{map_con, map_term, VarMap};

use crate::split::Split;

/// The signature of a phase-split functor from `[α:κ₁.σ₁]` to the split
/// result `(κ₂, σ₂)`: static part `Πα:κ₁.κ₂`, dynamic part
/// `∀α:κ₁. σ₁ ⇀ σ₂`.
///
/// `k2` is under the parameter binder; `t1` is under the parameter binder
/// (the signature's own binder re-used); `t2` is under the parameter
/// binder followed by nothing else (the value argument binder is *not*
/// counted — types never mention term variables).
pub fn functor_sig(k1: Kind, t1: Ty, k2: Kind, t2: Ty) -> Sig {
    Sig::Struct(
        hc(Kind::Pi(hc(k1.clone()), hc(k2))),
        hc(Ty::Forall(
            hc(recmod_syntax::subst::shift_kind(&k1, 1, 0)),
            hc(Ty::Partial(hc(t1), hc(t2))),
        )),
    )
}

/// Rewrites a functor *body* split `(c_b, e_b)` — expressed under one
/// structure binder for the parameter — into the HMM pair
/// `[λα:κ.c_b(α), Λα:κ.λx:σ.e_b(α,x)]`.
///
/// `param_kind`/`param_ty` are the split parameter signature; `param_ty`
/// is under the signature's constructor binder (which becomes the `Λ`
/// binder).
pub fn functor_pair(param_kind: &Kind, param_ty: &Ty, body: Split) -> Split {
    // Static: the structure binder is re-read as the λ's constructor binder.
    let static_body = map_con(&body.con, 0, &mut ParamRedirect { extra: 0 });
    let static_part = Con::Lam(hc(param_kind.clone()), hc(static_body));
    // Dynamic: the structure binder splits into the Λ binder (static
    // occurrences) and the λ binder (dynamic occurrences): one binder
    // becomes two, so all other indices shift up by one.
    let dyn_body = map_term(&body.term, 0, &mut ParamSplit);
    let dynamic = Term::TLam(
        hc(param_kind.clone()),
        Box::new(Term::Lam(hc(param_ty.clone()), Box::new(dyn_body))),
    );
    Split {
        con: static_part,
        term: dynamic,
    }
}

/// Applies a phase-split functor to a phase-split argument:
/// `F M  =  [ c_F c_M ,  e_F [c_M] e_M ]`.
pub fn apply_functor(f: &Split, arg: &Split) -> Split {
    Split {
        con: Con::App(hc(f.con.clone()), hc(arg.con.clone())),
        term: Term::App(
            Box::new(Term::TApp(Box::new(f.term.clone()), arg.con.clone())),
            Box::new(arg.term.clone()),
        ),
    }
}

/// Re-reads the structure binder at index `extra` as a constructor
/// binder (for the static half — occurrences of `snd` are forbidden).
struct ParamRedirect {
    extra: usize,
}

impl VarMap for ParamRedirect {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(i, self.extra + d);
        Con::Var(i)
    }
    fn tvar(&mut self, _d: usize, i: usize) -> Term {
        Term::Var(i)
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        if i == self.extra + d {
            Con::Var(i)
        } else {
            Con::Fst(i)
        }
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, self.extra + d, "dynamic occurrence in static part");
        Term::Snd(i)
    }
    fn mvar(&mut self, d: usize, i: usize) -> Module {
        debug_assert_ne!(i, self.extra + d);
        Module::Var(i)
    }
}

/// Splits the structure binder (index 0 at the root) into *two* binders:
/// the inner λ binder (index `d`) for dynamic occurrences and the outer
/// `Λ` binder (index `d+1`) for static occurrences. All other free
/// indices move up by one.
struct ParamSplit;

impl VarMap for ParamSplit {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(i, d);
        Con::Var(if i > d { i + 1 } else { i })
    }
    fn tvar(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, d);
        Term::Var(if i > d { i + 1 } else { i })
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        if i == d {
            Con::Var(d + 1)
        } else {
            Con::Fst(if i > d { i + 1 } else { i })
        }
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        if i == d {
            Term::Var(d)
        } else {
            Term::Snd(if i > d { i + 1 } else { i })
        }
    }
    fn mvar(&mut self, d: usize, i: usize) -> Module {
        debug_assert_ne!(i, d);
        Module::Var(if i > d { i + 1 } else { i })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_kernel::{Ctx, Tc};
    use recmod_syntax::dsl::*;

    /// The identity functor on [α:T. Con(α)]: body is just the parameter.
    #[test]
    fn identity_functor_pair_typechecks() {
        let body = Split {
            con: fst(0),
            term: snd(0),
        };
        let pair = functor_pair(&tkind(), &tcon(cvar(0)), body);
        assert_eq!(pair.con, clam(tkind(), cvar(0)));
        assert_eq!(pair.term, tlam(tkind(), lam(tcon(cvar(0)), var(0))));
        // The pair typechecks in the kernel.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = strct(pair.con, pair.term);
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        assert!(mt.valuable);
    }

    #[test]
    fn application_beta_reduces_to_argument() {
        let body = Split {
            con: fst(0),
            term: snd(0),
        };
        let f = functor_pair(&tkind(), &tcon(cvar(0)), body);
        let arg = Split {
            con: Con::Int,
            term: int(5),
        };
        let applied = apply_functor(&f, &arg);
        // Statically: (λα:T.α) int — whnf's to int.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(tc.whnf(&mut ctx, &applied.con).unwrap(), Con::Int);
        // Dynamically it typechecks at int.
        let t = tc.synth_term(&mut ctx, &applied.term).unwrap();
        tc.ty_eq(&mut ctx, &t.ty, &tcon(Con::Int)).unwrap();
    }

    #[test]
    fn functor_body_using_both_phases() {
        // F(X : [α:T. Con(α)]) = [Fst X × int, (snd X, 7)]
        let body = Split {
            con: cprod(fst(0), Con::Int),
            term: pair(snd(0), int(7)),
        };
        let f = functor_pair(&tkind(), &tcon(cvar(0)), body);
        // Static: λα:T. α × int.
        assert_eq!(f.con, clam(tkind(), cprod(cvar(0), Con::Int)));
        // Dynamic: Λα:T. λx:Con(α). (x, 7).
        assert_eq!(
            f.term,
            tlam(tkind(), lam(tcon(cvar(0)), pair(var(0), int(7))))
        );
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let mt = tc.synth_module(&mut ctx, &strct(f.con, f.term)).unwrap();
        assert!(mt.valuable);
    }

    #[test]
    fn functor_sig_shape() {
        let s = functor_sig(tkind(), tcon(cvar(0)), tkind(), tcon(cvar(1)));
        let Sig::Struct(k, t) = &s else { panic!() };
        assert_eq!(**k, pi(tkind(), tkind()));
        assert_eq!(**t, forall(tkind(), partial(tcon(cvar(0)), tcon(cvar(1)))));
    }

    #[test]
    fn outer_references_survive_param_split() {
        // Body refers to an outer structure variable (index 1 from inside
        // the functor): [Fst(1), snd(1)] — after pairing, static index is
        // still 1 (one binder replaced by one), dynamic index becomes 2
        // (one binder became two).
        let body = Split {
            con: fst(1),
            term: snd(1),
        };
        let f = functor_pair(&tkind(), &tcon(cvar(0)), body);
        assert_eq!(f.con, clam(tkind(), fst(1)));
        assert_eq!(f.term, tlam(tkind(), lam(tcon(cvar(0)), snd(2))));
    }
}
