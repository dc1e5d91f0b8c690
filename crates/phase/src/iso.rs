//! Elimination of equi-recursive constructors (paper §5).
//!
//! Section 5 observes that if recursive modules are restricted to
//! datatypes (implicitly iso-recursive) and the transparent
//! interpretation of §4 is adopted, then the equi-recursive constructors
//! introduced by phase splitting are *eliminable*, provided the target
//! calculus adopts **Shao's equation**
//!
//! ```text
//! μα.c(α) ≡ μα.c(μα.c(α))
//! ```
//!
//! The crux: after translation, datatype implementation types have the
//! two-level form `μα.μβ.c(α,β)` (an *outer* equi-`μ` from the recursive
//! module's static part wrapped around the *inner* iso-`μ` of the
//! datatype). Under a bisimilarity reading of equality plus Shao's
//! equation this collapses to the purely iso-recursive `μβ.c(β,β)`.
//! [`collapse_mu`] performs the collapse syntactically, and the tests
//! (plus `tests/paper_examples.rs`) verify the two sides are equal in
//! [`RecMode::IsoShao`](recmod_kernel::RecMode::IsoShao) and in equi mode.

use recmod_syntax::ast::{Con, Module, Term};
use recmod_syntax::intern::hc;
use recmod_syntax::map::{map_con, VarMap};

/// Merges the two binders of a nested `μα:κ.μβ:κ.c(α,β)` into one:
/// returns `μβ:κ.c(β,β)`. Returns `None` when `c` does not have the
/// nested shape or the two kinds differ (the collapse is only justified
/// kind-homogeneously).
pub fn collapse_mu(c: &Con) -> Option<Con> {
    let Con::Mu(k_outer, body) = c else {
        return None;
    };
    let Con::Mu(k_inner, inner_body) = &**body else {
        return None;
    };
    // The inner kind is under the outer binder; for the collapse we need
    // it to be the same (closed) kind, e.g. both T.
    if **k_inner != recmod_syntax::subst::shift_kind(k_outer, 1, 0) {
        return None;
    }
    // inner_body is under [outer(1), inner(0)]: identify the outer
    // variable with the inner one and drop the outer binder.
    let merged = map_con(inner_body, 0, &mut MergeOuter);
    Some(Con::Mu(k_outer.clone(), hc(merged)))
}

/// Replaces the variable at index `d+1` (the outer `μ` binder) with the
/// one at `d` (the inner binder) and removes the outer binder.
struct MergeOuter;

impl VarMap for MergeOuter {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        if i == d + 1 {
            Con::Var(d)
        } else {
            Con::Var(if i > d + 1 { i - 1 } else { i })
        }
    }
    fn tvar(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, d + 1);
        Term::Var(if i > d + 1 { i - 1 } else { i })
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(i, d + 1);
        Con::Fst(if i > d + 1 { i - 1 } else { i })
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, d + 1);
        Term::Snd(if i > d + 1 { i - 1 } else { i })
    }
    fn mvar(&mut self, d: usize, i: usize) -> Module {
        debug_assert_ne!(i, d + 1);
        Module::Var(if i > d + 1 { i - 1 } else { i })
    }
}

/// Recursively applies [`collapse_mu`] everywhere in a constructor,
/// bottom-up, producing a constructor with no directly-nested `μμ`
/// towers. This is the §5 elimination pass for the static parts produced
/// by phase-splitting datatype-only recursive modules.
pub fn eliminate_nested_mu(c: &Con) -> Con {
    let rebuilt = match c {
        Con::Var(_) | Con::Fst(_) | Con::Star | Con::Int | Con::Bool | Con::UnitTy => c.clone(),
        Con::Lam(k, b) => Con::Lam(k.clone(), hc(eliminate_nested_mu(b))),
        Con::App(f, a) => Con::App(hc(eliminate_nested_mu(f)), hc(eliminate_nested_mu(a))),
        Con::Pair(a, b) => Con::Pair(hc(eliminate_nested_mu(a)), hc(eliminate_nested_mu(b))),
        Con::Proj1(a) => Con::Proj1(hc(eliminate_nested_mu(a))),
        Con::Proj2(a) => Con::Proj2(hc(eliminate_nested_mu(a))),
        Con::Mu(k, b) => Con::Mu(k.clone(), hc(eliminate_nested_mu(b))),
        Con::Arrow(a, b) => Con::Arrow(hc(eliminate_nested_mu(a)), hc(eliminate_nested_mu(b))),
        Con::Prod(a, b) => Con::Prod(hc(eliminate_nested_mu(a)), hc(eliminate_nested_mu(b))),
        Con::Sum(cs) => Con::Sum(cs.iter().map(|c| hc(eliminate_nested_mu(c))).collect()),
    };
    match collapse_mu(&rebuilt) {
        Some(collapsed) => eliminate_nested_mu(&collapsed),
        None => rebuilt,
    }
}

/// Counts directly-nested `μμ` towers remaining in a constructor (zero
/// after [`eliminate_nested_mu`] for kind-homogeneous towers).
pub fn nested_mu_count(c: &Con) -> usize {
    let here = match c {
        Con::Mu(_, b) => usize::from(matches!(**b, Con::Mu(_, _))),
        _ => 0,
    };
    here + children(c).into_iter().map(nested_mu_count).sum::<usize>()
}

fn children(c: &Con) -> Vec<&Con> {
    match c {
        Con::Var(_) | Con::Fst(_) | Con::Star | Con::Int | Con::Bool | Con::UnitTy => vec![],
        Con::Lam(_, b) | Con::Mu(_, b) | Con::Proj1(b) | Con::Proj2(b) => vec![&**b],
        Con::App(a, b) | Con::Pair(a, b) | Con::Arrow(a, b) | Con::Prod(a, b) => {
            vec![&**a, &**b]
        }
        Con::Sum(cs) => cs.iter().map(|c| &**c).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_kernel::{Ctx, RecMode, Tc};
    use recmod_syntax::dsl::*;

    #[test]
    fn collapse_produces_section_5_form() {
        // μα:T.μβ:T. α ⇀ β   ↦   μβ:T. β ⇀ β
        let nested = mu(tkind(), mu(tkind(), carrow(cvar(1), cvar(0))));
        let flat = collapse_mu(&nested).unwrap();
        assert_eq!(flat, mu(tkind(), carrow(cvar(0), cvar(0))));
    }

    #[test]
    fn collapse_preserves_equi_equality() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let nested = mu(
            tkind(),
            mu(tkind(), csum([Con::UnitTy, cprod(cvar(1), cvar(0))])),
        );
        let flat = collapse_mu(&nested).unwrap();
        tc.con_equiv(&mut ctx, &hc(nested.clone()), &hc(flat.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn iso_shao_proves_the_residual_datatype_equation() {
        // §5's division of labour: the *collapse* `μα.μβ.c(α,β) ≃
        // μβ.c(β,β)` is proved once, semantically, by bisimilarity (our
        // equi engine — see `collapse_preserves_equi_equality`). What the
        // iso target calculus then needs day-to-day is the Shao-style
        // equation between the collapsed datatype F = μβ.c(F-as-seen-
        // from-inside, β) and itself: F ≡ μβ.c(F, β). That instance IS
        // derivable in IsoShao mode.
        let tc = Tc::with_mode(RecMode::IsoShao);
        let mut ctx = Ctx::new();
        let flat = mu(tkind(), carrow(cvar(0), cvar(0))); // F = μβ.β⇀β
        let inside = mu(
            tkind(),
            carrow(recmod_syntax::subst::shift_con(&flat, 1, 0), cvar(0)),
        ); // μβ.F⇀β
        tc.con_equiv(&mut ctx, &hc(flat.clone()), &hc(inside.clone()), &tkind())
            .unwrap();
        // Plain iso mode cannot derive it.
        let iso = Tc::with_mode(RecMode::Iso);
        assert!(iso
            .con_equiv(&mut ctx, &hc(flat.clone()), &hc(inside.clone()), &tkind())
            .is_err());
    }

    #[test]
    fn plain_iso_mode_rejects_the_collapse() {
        // Without Shao's equation the two sides are *not* iso-equal —
        // which is exactly why §5 needs the equation.
        let tc = Tc::with_mode(RecMode::Iso);
        let mut ctx = Ctx::new();
        let nested = mu(tkind(), mu(tkind(), carrow(cvar(1), cvar(0))));
        let flat = collapse_mu(&nested).unwrap();
        assert!(tc
            .con_equiv(&mut ctx, &hc(nested.clone()), &hc(flat.clone()), &tkind())
            .is_err());
    }

    #[test]
    fn non_nested_mu_is_unchanged() {
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(collapse_mu(&m), None);
        assert_eq!(eliminate_nested_mu(&m), m);
    }

    #[test]
    fn elimination_clears_all_towers() {
        let nested = mu(tkind(), mu(tkind(), carrow(cvar(1), cvar(0))));
        let deep = cprod(nested.clone(), carrow(Con::Int, nested));
        assert_eq!(nested_mu_count(&deep), 2);
        let out = eliminate_nested_mu(&deep);
        assert_eq!(nested_mu_count(&out), 0);
    }

    #[test]
    fn triple_tower_collapses_fully() {
        // μα.μβ.μγ. α ⇀ (β × γ)  —  collapse twice.
        let c = mu(
            tkind(),
            mu(
                tkind(),
                mu(tkind(), carrow(cvar(2), cprod(cvar(1), cvar(0)))),
            ),
        );
        let out = eliminate_nested_mu(&c);
        assert_eq!(nested_mu_count(&out), 0);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.con_equiv(&mut ctx, &hc(c.clone()), &hc(out.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn outer_free_variables_survive_collapse() {
        // μα.μβ. γ ⇀ β  with γ free (index 2 inside): after the collapse
        // γ must be index 1.
        let c = mu(tkind(), mu(tkind(), carrow(cvar(2), cvar(0))));
        let out = collapse_mu(&c).unwrap();
        assert_eq!(out, mu(tkind(), carrow(cvar(1), cvar(0))));
    }
}
