//! Abstract-type extrusion (paper §4).
//!
//! An rds must be *fully transparent*, so a signature like
//!
//! ```text
//! rec S : sig type t
//!             type u = S.u -> t
//!         end
//! ```
//!
//! — whose `t` is opaque — is not directly acceptable as, e.g., a
//! functor parameter. The paper's elaborator "must name any abstract
//! types within the signature and pull them out":
//!
//! ```text
//! sig type t'
//!     structure rec S : sig type t = t'
//!                           type u = S.u -> t
//!                       end
//! end
//! ```
//!
//! [`extrude`] performs exactly that rewriting on internal signatures:
//! each opaque slot of the rds's static kind is hoisted to a fresh outer
//! `Σ` binder, the slot is redefined as a singleton of that binder, and
//! the now fully transparent inner rds is resolved per Figure 5. The
//! result is an ordinary signature with the abstract types in front.

use recmod_kernel::{raise, Ctx, Entry, Tc, TcResult, TypeError};
use recmod_syntax::ast::{Con, Kind, Sig, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::subst::{shift_kind, shift_ty};

/// The result of extrusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extruded {
    /// How many abstract types were hoisted.
    pub hoisted: usize,
    /// The rewritten, rds-free signature: `[α : Σ β₁:T…βₘ:T. κ' . σ']`
    /// with `κ'` the Figure-5 resolution of the transparentized rds.
    pub sig: Sig,
}

/// Extrudes the opaque type components of a recursively-dependent
/// signature (see module docs).
///
/// # Errors
///
/// Fails if `s` is not an rds over a flat signature, or if resolution of
/// the transparentized signature fails.
pub fn extrude(tc: &Tc, ctx: &mut Ctx, s: &Sig) -> TcResult<Extruded> {
    let Sig::Rds(inner) = s else {
        return raise(TypeError::Other(
            "extrude expects a recursively-dependent signature".into(),
        ));
    };
    let Sig::Struct(kappa, sigma) = &**inner else {
        return raise(TypeError::Other(
            "extrude expects an rds over a flat signature".into(),
        ));
    };

    // Count the opaque leaves.
    let m = count_opaque(kappa);
    if m == 0 {
        // Nothing to do: resolve directly.
        let resolved = recmod_telemetry::stage("stage.kernel", || tc.resolve_sig(ctx, s))?;
        return Ok(Extruded {
            hoisted: 0,
            sig: resolved,
        });
    }

    // Insert m binders *outside* the ρ binder: the rds self-variable
    // (index 0 at the kind's root) stays fixed; genuinely free indices
    // move up by m.
    let shifted_kind = shift_kind(kappa, m as isize, 1);
    let shifted_ty = shift_ty(sigma, m as isize, 2);

    // Replace each opaque leaf (left-to-right) with a singleton of the
    // corresponding hoisted binder.
    let mut next = 0usize;
    let filled = fill(&shifted_kind, m, 0, &mut next);
    debug_assert_eq!(next, m);

    let transparent_rds = Sig::Rds(Box::new(Sig::Struct(hc(filled), hc(shifted_ty))));

    // Resolve under the hoisted binders.
    let base = ctx.len();
    for _ in 0..m {
        ctx.push(Entry::Con(Kind::Type));
    }
    let resolved =
        recmod_telemetry::stage("stage.kernel", || tc.resolve_sig(ctx, &transparent_rds));
    let wf = resolved
        .as_ref()
        .ok()
        .map(|r| recmod_telemetry::stage("stage.kernel", || tc.wf_sig(ctx, r)))
        .unwrap_or(Ok(()));
    ctx.truncate(base);
    let resolved = resolved?;
    wf?;
    let Sig::Struct(rk, rt) = resolved else {
        unreachable!("resolve_sig returns flat signatures")
    };

    // Assemble: Σ β₁:T. … Σ βₘ:T. κ_resolved, with σ under one α.
    let mut kind = rk.take();
    for _ in 0..m {
        kind = Kind::Sigma(hc(Kind::Type), hc(kind));
    }
    // The dynamic part: the resolved σ is under [β…, α_inner]; in the
    // combined signature the single α binds the whole Σ tuple, and the
    // inner components are projections. For the demonstration purposes
    // of this transformation we expose the dynamic part of the rds
    // unchanged except that its α now projects past the hoisted types.
    let ty = reproject_ty(&rt, m);
    Ok(Extruded {
        hoisted: m,
        sig: Sig::Struct(hc(kind), hc(ty)),
    })
}

fn count_opaque(k: &Kind) -> usize {
    match k {
        Kind::Type => 1,
        Kind::Unit | Kind::Singleton(_) => 0,
        Kind::Pi(_, k2) => count_opaque(k2),
        Kind::Sigma(k1, k2) => count_opaque(k1) + count_opaque(k2),
    }
}

/// Replaces opaque leaves with singletons of the hoisted binders.
/// `crossed` counts binders crossed inside the kind; the hoisted binder
/// `j` is reached at index `crossed + 1 (ρ) + (m − 1 − j)`.
fn fill(k: &Kind, m: usize, crossed: usize, next: &mut usize) -> Kind {
    match k {
        Kind::Type => {
            let j = *next;
            *next += 1;
            Kind::Singleton(hc(Con::Var(crossed + 1 + (m - 1 - j))))
        }
        Kind::Unit | Kind::Singleton(_) => k.clone(),
        Kind::Pi(k1, k2) => Kind::Pi(k1.clone(), hc(fill(k2, m, crossed + 1, next))),
        Kind::Sigma(k1, k2) => {
            let l = fill(k1, m, crossed, next);
            let r = fill(k2, m, crossed + 1, next);
            Kind::Sigma(hc(l), hc(r))
        }
    }
}

/// Rewrites the resolved dynamic part so its references to the hoisted
/// binders `β_j` become projections of the single α: `β_j ↦ π_j(α)` and
/// the old α becomes the trailing projection.
fn reproject_ty(t: &Ty, m: usize) -> Ty {
    use recmod_syntax::ast::{Module, Term};
    use recmod_syntax::map::VarMap;
    struct Reproject {
        m: usize,
    }
    impl Reproject {
        fn remap(&self, d: usize, i: usize) -> Result<usize, Con> {
            // Original context at the root: [outer…, β_{0}…β_{m−1}, α_inner].
            // Target: [outer…, α] with the tuple ⟨β…, inner⟩ behind α.
            let rel = i as isize - d as isize;
            if rel < 0 {
                return Ok(i);
            }
            let rel = rel as usize;
            if rel == 0 {
                // α_inner ↦ the trailing projection of α.
                Err(crate::shape::con_proj(Con::Var(d), self.m, self.m + 1))
            } else if rel <= self.m {
                // β_{m−rel} ↦ projection (m − rel) of α.
                Err(crate::shape::con_proj(
                    Con::Var(d),
                    self.m - rel,
                    self.m + 1,
                ))
            } else {
                Ok(i - self.m)
            }
        }
    }
    impl VarMap for Reproject {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            match self.remap(d, i) {
                Ok(j) => Con::Var(j),
                Err(c) => c,
            }
        }
        fn tvar(&mut self, d: usize, i: usize) -> Term {
            match self.remap(d, i) {
                Ok(j) => Term::Var(j),
                Err(_) => unreachable!("term occurrence of a hoisted type"),
            }
        }
        fn fst(&mut self, d: usize, i: usize) -> Con {
            match self.remap(d, i) {
                Ok(j) => Con::Fst(j),
                Err(_) => unreachable!("Fst occurrence of a hoisted type"),
            }
        }
        fn snd(&mut self, d: usize, i: usize) -> Term {
            match self.remap(d, i) {
                Ok(j) => Term::Snd(j),
                Err(_) => unreachable!("snd occurrence of a hoisted type"),
            }
        }
        fn mvar(&mut self, d: usize, i: usize) -> Module {
            match self.remap(d, i) {
                Ok(j) => Module::Var(j),
                Err(_) => unreachable!("module occurrence of a hoisted type"),
            }
        }
    }
    recmod_syntax::map::map_ty(t, 0, &mut Reproject { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    /// The paper's §4 example:
    /// `rec S : sig type t; type u = S.u -> t end`.
    fn paper_example() -> Sig {
        // κ = Σ α_t:T. Q(π₂(Fst ρ) ⇀ α_t); inside the Σ slot, ρ = 1.
        let u_def = carrow(cproj2(fst(1)), cvar(0));
        rds(Sig::Struct(
            recmod_syntax::intern::hc(sigma(tkind(), q(u_def))),
            hc(Ty::Unit),
        ))
    }

    #[test]
    fn rejects_non_rds() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = sig(tkind(), Ty::Unit);
        assert!(extrude(&tc, &mut ctx, &s).is_err());
    }

    #[test]
    fn plain_rds_resolves_without_hoisting() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = rds(Sig::Struct(
            recmod_syntax::intern::hc(q(carrow(Con::Int, fst(0)))),
            hc(Ty::Unit),
        ));
        let out = extrude(&tc, &mut ctx, &s).unwrap();
        assert_eq!(out.hoisted, 0);
        assert!(matches!(out.sig, Sig::Struct(_, _)));
    }

    #[test]
    fn paper_example_hoists_one_abstract_type() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let out = extrude(&tc, &mut ctx, &paper_example()).unwrap();
        assert_eq!(out.hoisted, 1);
        // Result kind: Σ β:T. (resolved, fully transparent).
        let Sig::Struct(k, _) = &out.sig else {
            panic!()
        };
        let Kind::Sigma(k1, k2) = &**k else {
            panic!("{k:?}")
        };
        assert_eq!(**k1, Kind::Type);
        assert!(
            recmod_kernel::singleton::fully_transparent(k2),
            "inner part must be fully transparent after extrusion: {k2:?}"
        );
        // And the rewritten signature is well-formed.
        tc.wf_sig(&mut ctx, &out.sig).unwrap();
    }

    #[test]
    fn extruded_t_slot_equals_hoisted_binder() {
        // The inner `t` slot must be Q(projection of the μ …) such that it
        // definitionally equals the hoisted β. Check by resolving and
        // comparing under a context with β:T.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let out = extrude(&tc, &mut ctx, &paper_example()).unwrap();
        let Sig::Struct(k, _) = &out.sig else {
            panic!()
        };
        let Kind::Sigma(_, inner) = &**k else {
            panic!()
        };
        // inner is under the β binder; its first slot is t.
        let Kind::Sigma(t_slot, _) = &**inner else {
            panic!("{inner:?}")
        };
        let Kind::Singleton(t_def) = &**t_slot else {
            panic!("{t_slot:?}")
        };
        ctx.with_con(Kind::Type, |ctx| {
            tc.con_equiv(ctx, t_def, &cvar(0), &Kind::Type).unwrap();
        });
    }
}
