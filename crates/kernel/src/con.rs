//! Constructor kinding (paper appendix A.1).
//!
//! [`Tc::synth_con`] computes a *principal* kind: variables, `Fst`
//! projections, and the monotype formers are selfified (given their
//! most-transparent singleton kind, per Figure 2), so that all available
//! type-sharing information is retained. [`Tc::check_con`] combines
//! synthesis with subkinding. Both take and return interned pointers.

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::subst::{shift_kind_hc, subst_con_kind_hc};

use crate::ctx::Ctx;
use crate::error::TcResult;
use crate::show;
use crate::singleton::selfify_hc;
use crate::Tc;

impl Tc {
    /// `Γ ⊢ c : κ` — synthesizes the principal kind of `c`.
    ///
    /// Under the NbE engine, results are memoized per `(context stamp,
    /// constructor)` — the key holds `c`'s own pointer, so a lookup
    /// interns nothing — exactly like weak-head normal forms: synthesis
    /// is deterministic, a stamp names one exact declaration stack, and
    /// an interned node one exact constructor, so a cached kind is always
    /// the kind the rules below would recompute. Equivalence checking
    /// re-synthesizes the same paths constantly (selfification, natural
    /// kinds, `check_con` at every application), which made this
    /// judgement the profile's hottest — the memo is where most of the
    /// S17 `synth_con` win comes from.
    pub fn synth_con(&self, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Kind>> {
        let _j = recmod_telemetry::judgement_span("kernel.synth_con");
        let _depth = self.descend("synth_con")?;
        self.burn(crate::stats::FuelOp::ConKinding)?;
        // The substitution engine never consults the memo, so it counts
        // neither hits nor misses.
        if self.engine() != crate::EquivEngine::Nbe {
            return self.synth_con_uncached(ctx, c);
        }
        let key = (ctx.stamp(), c.clone());
        if let Some(k) = self.synth_cached(&key) {
            crate::stats::TcStats::bump(&self.stat_cells().synth_cache_hits);
            recmod_telemetry::count("kernel.synth_cache_hit", 1);
            return Ok(k);
        }
        crate::stats::TcStats::bump(&self.stat_cells().synth_cache_misses);
        recmod_telemetry::count("kernel.synth_cache_miss", 1);
        let out = self.synth_con_uncached(ctx, c)?;
        self.synth_remember(key, out.clone());
        Ok(out)
    }

    /// The synthesis rules behind [`Tc::synth_con`].
    fn synth_con_uncached(&self, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Kind>> {
        let _trace = recmod_telemetry::trace_span(|| format!("{} : ?", show::con(c)));
        match &**c {
            Con::Var(i) => {
                let k = ctx.lookup_con(*i)?;
                Ok(selfify_hc(c, &k))
            }
            Con::Fst(i) => {
                let k = ctx.lookup_fst_kind(*i)?;
                Ok(selfify_hc(c, &k))
            }
            Con::Star => Ok(hc(Kind::Unit)),
            Con::Lam(k, body) => {
                self.wf_kind(ctx, k)?;
                let k2 = ctx.with_con(k.clone(), |ctx| self.synth_con(ctx, body))?;
                Ok(hc(Kind::Pi(k.clone(), k2)))
            }
            Con::App(f, a) => {
                let fk = self.synth_con(ctx, f)?;
                let (k1, k2) = self.expect_pi(&fk)?;
                self.check_con(ctx, a, &k1)?;
                Ok(subst_con_kind_hc(&k2, a))
            }
            Con::Pair(a, b) => {
                let ka = self.synth_con(ctx, a)?;
                let kb = self.synth_con(ctx, b)?;
                Ok(hc(Kind::Sigma(ka, shift_kind_hc(&kb, 1, 0))))
            }
            Con::Proj1(p) => {
                let pk = self.synth_con(ctx, p)?;
                let (k1, _) = self.expect_sigma(&pk)?;
                Ok(k1)
            }
            Con::Proj2(p) => {
                let pk = self.synth_con(ctx, p)?;
                let (_, k2) = self.expect_sigma(&pk)?;
                Ok(subst_con_kind_hc(&k2, &hc(Con::Proj1(p.clone()))))
            }
            Con::Mu(k, body) => {
                // Γ ⊢ κ kind   Γ[α:κ] ⊢ c : κ   ⟹   Γ ⊢ μα:κ.c : κ
                self.wf_kind(ctx, k)?;
                ctx.with_con(k.clone(), |ctx| {
                    let kin = shift_kind_hc(k, 1, 0);
                    self.check_con(ctx, body, &kin)
                })?;
                Ok(selfify_hc(c, k))
            }
            Con::Int | Con::Bool | Con::UnitTy => Ok(hc(Kind::Singleton(c.clone()))),
            Con::Arrow(a, b) | Con::Prod(a, b) => {
                self.check_con(ctx, a, self.type_kind())?;
                self.check_con(ctx, b, self.type_kind())?;
                Ok(hc(Kind::Singleton(c.clone())))
            }
            Con::Sum(cs) => {
                for summand in cs {
                    self.check_con(ctx, summand, self.type_kind())?;
                }
                Ok(hc(Kind::Singleton(c.clone())))
            }
        }
    }

    /// `Γ ⊢ c : κ` — checks `c` against a given kind via subkinding.
    pub fn check_con(&self, ctx: &mut Ctx, c: &HC<Con>, k: &HC<Kind>) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.check_con");
        let _depth = self.descend("check_con")?;
        let found = self.synth_con(ctx, c)?;
        self.subkind(ctx, &found, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TypeError;
    use recmod_syntax::dsl::*;

    #[test]
    fn base_types_are_singletons() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(Con::Int)).unwrap(),
            hc(q(Con::Int))
        );
    }

    /// Interner probes (hits + misses) made so far by this thread.
    fn probes() -> u64 {
        let s = recmod_syntax::intern::intern_stats();
        s.hits + s.misses
    }

    #[test]
    fn a_repeated_synthesis_is_a_memo_hit_that_interns_nothing() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(pi(tkind(), tkind())), |ctx| {
            let c = hc(carrow(capp(cvar(0), Con::Int), Con::Bool));
            let first = tc.synth_con(ctx, &c).unwrap();
            let hits = tc.stats().synth_cache_hits;
            let before = probes();
            let again = tc.synth_con(ctx, &c).unwrap();
            assert_eq!(probes(), before, "a memo hit makes no intern probe");
            assert_eq!(tc.stats().synth_cache_hits, hits + 1);
            assert!(HC::ptr_eq(&first, &again));
        });
    }

    #[test]
    fn monotype_kinds_hold_the_argument_pointer() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        for c in [hc(Con::Int), hc(carrow(Con::Int, Con::Bool))] {
            let k = tc.synth_con(&mut ctx, &c).unwrap();
            let Kind::Singleton(def) = &*k else {
                panic!("{c:?} : {k:?} is not a singleton")
            };
            assert!(HC::ptr_eq(def, &c), "Q(c) holds the argument's pointer");
        }
    }

    #[test]
    fn variables_are_selfified() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(tkind()), |ctx| {
            assert_eq!(tc.synth_con(ctx, &hc(cvar(0))).unwrap(), hc(q(cvar(0))));
        });
    }

    #[test]
    fn lambda_gets_pi_kind() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let id = clam(tkind(), cvar(0));
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(id.clone())).unwrap(),
            hc(pi(tkind(), q(cvar(0))))
        );
    }

    #[test]
    fn application_checks_domain() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let id = clam(tkind(), cvar(0));
        // id int : Q(int) via substitution into the selfified codomain.
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(capp(id.clone(), Con::Int)))
                .unwrap(),
            hc(q(Con::Int))
        );
        // id * fails: kind 1 is not a subkind of T.
        assert!(tc.synth_con(&mut ctx, &hc(capp(id, Con::Star))).is_err());
    }

    #[test]
    fn mu_checks_body_at_annotation() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let good = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(good.clone())).unwrap(),
            hc(q(good.clone()))
        );
        // μα:T.* is ill-kinded: * has kind 1, not T.
        let bad = mu(tkind(), Con::Star);
        assert!(tc.synth_con(&mut ctx, &hc(bad.clone())).is_err());
    }

    #[test]
    fn mu_at_singleton_kind_is_wellformed_and_collapses() {
        // μα:Q(int).α : Q(int) — the paper's §2.1 example.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(q(Con::Int), cvar(0));
        let k = tc.synth_con(&mut ctx, &hc(c.clone())).unwrap();
        assert_eq!(k, hc(q(Con::Int)));
    }

    #[test]
    fn pair_and_projections() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let p = cpair(Con::Int, Con::Bool);
        let k = tc.synth_con(&mut ctx, &hc(p.clone())).unwrap();
        assert_eq!(k, hc(Kind::times(q(Con::Int), q(Con::Bool))));
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(cproj1(p.clone()))).unwrap(),
            hc(q(Con::Int))
        );
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(cproj2(p))).unwrap(),
            hc(q(Con::Bool))
        );
    }

    #[test]
    fn star_has_unit_kind() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(
            tc.synth_con(&mut ctx, &hc(Con::Star)).unwrap(),
            hc(unit_kind())
        );
    }

    #[test]
    fn arrow_requires_monotype_components() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let bad = carrow(Con::Star, Con::Int);
        assert!(tc.synth_con(&mut ctx, &hc(bad.clone())).is_err());
    }

    #[test]
    fn unbound_variable_reported() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert!(matches!(
            tc.synth_con(&mut ctx, &hc(cvar(0))),
            Err(TypeError::Unbound { .. })
        ));
    }

    #[test]
    fn higher_order_sharing_deduction_of_figure_2() {
        // If c has kind Πα:T.Q(list α) then c = list : T→T. We model
        // `list` as an opaque variable l and take c's declared kind to be
        // Πα:T.Q(l α); then c must be equivalent to l at Πα:T.T.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(pi(tkind(), tkind())), |ctx| {
            // l is index 0 here.
            let k_c = pi(tkind(), q(capp(cvar(1), cvar(0))));
            ctx.with_con(hc(k_c.clone()), |ctx| {
                // Now c is index 0, l is index 1.
                tc.con_equiv(ctx, &hc(cvar(0)), &hc(cvar(1)), &pi(tkind(), tkind()))
                    .unwrap();
            });
        });
    }
}
