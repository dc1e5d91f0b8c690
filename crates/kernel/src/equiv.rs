//! Constructor equivalence.
//!
//! Equivalence is *kind-directed* (Stone–Harper): at kind `1` and at
//! singleton kinds every pair of well-kinded constructors is equal; at
//! `Π` and `Σ` kinds comparison is extensional; at kind `T` the
//! constructors are weak-head normalized and compared structurally.
//!
//! Equi-recursive constructors are handled coinductively in the style of
//! Amadio–Cardelli / Brandt–Henglein: when a `μ` appears at the head, the
//! pair under comparison is added to a set of assumptions and the `μ` is
//! unrolled; if the same pair recurs the comparison succeeds. For regular
//! (first-order) recursive monotypes this is a decision procedure; at
//! higher kinds (whose decidability the paper leaves open, §5) the fuel
//! bound turns potential divergence into an explicit error.
//!
//! The [`crate::RecMode`] in force changes only the `μ` cases:
//!
//! * `Equi` — a `μ` is equal to its unrolling (either side may unroll);
//! * `Iso` — `μ`s are compared by congruence only;
//! * `IsoShao` — two `μ`s are compared by unrolling both under an
//!   assumption (validating Shao's equation, paper §5), but a `μ` is
//!   never equal to a non-`μ`.

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::subst::{shift_con_hc, shift_kind_hc, subst_con_kind_hc};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::{RecMode, Tc};

/// The set of constructor pairs currently assumed equal (coinduction),
/// keyed by interned nodes, which hash and compare by id: id equality is
/// structural equality, so membership costs two id reads instead of a
/// deep hash of both trees.
/// The de Bruijn caveat still applies — ids name *syntax*, and the same
/// syntax under a new binder denotes different variables — so every
/// comparison that descends under a binder starts a fresh set (see the
/// `Pi` and iso-`μ` cases).
type Seen = recmod_syntax::fxhash::FxHashSet<(HC<Con>, HC<Con>)>;

impl Tc {
    /// `Γ ⊢ c₁ = c₂ : κ` — constructor equivalence at kind `κ`.
    ///
    /// Both constructors are assumed well-kinded at `κ`; the algorithm is
    /// sound and complete for well-kinded inputs within the fuel budget.
    /// On success at kind `T`, the pair — and every coinductive
    /// assumption the run relied on — is promoted to the persistent
    /// proven-pair table, so the next query over the same ids is O(1).
    pub fn con_equiv(&self, ctx: &mut Ctx, c1: &HC<Con>, c2: &HC<Con>, k: &Kind) -> TcResult<()> {
        let mut seen = Seen::default();
        self.con_equiv_at(ctx, c1, c2, k, &mut seen)?;
        // The run closed, so its assumptions form a valid bisimulation
        // (Brandt–Henglein): record them as facts. Everything in `seen`
        // was compared at kind `T` in *this* context — binder-crossing
        // comparisons use fresh sets that never reach this point.
        let stamp = ctx.stamp();
        for (a, b) in seen.drain() {
            self.equiv_remember(stamp, a, b);
        }
        if matches!(k, Kind::Type) {
            self.equiv_remember(stamp, c1.clone(), c2.clone());
        }
        Ok(())
    }

    fn con_equiv_at(
        &self,
        ctx: &mut Ctx,
        c1: &HC<Con>,
        c2: &HC<Con>,
        k: &Kind,
        seen: &mut Seen,
    ) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.con_equiv");
        let _depth = self.descend("con_equiv")?;
        self.burn(crate::stats::FuelOp::ConEquiv)?;
        let _trace = recmod_telemetry::trace_span(|| {
            format!("{} = {} : {}", show::con(c1), show::con(c2), show::kind(k))
        });
        // Interned-id ("pointer") equality: equivalence is reflexive at
        // every kind, and with hash-consing the structural check is one
        // integer comparison.
        if c1 == c2 {
            crate::stats::TcStats::bump(&self.stat_cells().equiv_ptr_eqs);
            recmod_telemetry::count("kernel.equiv_ptr_eq", 1);
            return Ok(());
        }
        match k {
            // At kind 1 the only inhabitant is *, so anything equals anything.
            Kind::Unit => Ok(()),
            // At a singleton kind both sides equal the (same) definition.
            Kind::Singleton(_) => {
                crate::stats::TcStats::bump(&self.stat_cells().singleton_shortcuts);
                Ok(())
            }
            Kind::Pi(k1, k2) => ctx.with_con(k1.clone(), |ctx| {
                let a1 = hc(Con::App(shift_con_hc(c1, 1, 0), hc(Con::Var(0))));
                let a2 = hc(Con::App(shift_con_hc(c2, 1, 0), hc(Con::Var(0))));
                // Coinductive assumptions are de Bruijn syntax; under a new
                // binder the same syntax denotes different variables, so
                // start a fresh set rather than shift the old one.
                step(
                    self.con_equiv_at(ctx, &a1, &a2, k2, &mut Seen::default()),
                    "apply",
                )
            }),
            Kind::Sigma(k1, k2) => {
                let p1 = hc(Con::Proj1(c1.clone()));
                let p2 = hc(Con::Proj1(c2.clone()));
                step(self.con_equiv_at(ctx, &p1, &p2, k1, seen), "fst")?;
                let k2i = subst_con_kind_hc(k2, &p1);
                step(
                    self.con_equiv_at(
                        ctx,
                        &hc(Con::Proj2(c1.clone())),
                        &hc(Con::Proj2(c2.clone())),
                        &k2i,
                        seen,
                    ),
                    "snd",
                )
            }
            Kind::Type => self.con_eq_type(ctx, c1, c2, seen),
        }
    }

    /// Structural comparison at kind `T`, after weak-head normalization,
    /// under the coinductive assumption set.
    fn con_eq_type(
        &self,
        ctx: &mut Ctx,
        c1: &HC<Con>,
        c2: &HC<Con>,
        seen: &mut Seen,
    ) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.con_equiv");
        let _depth = self.descend("con_equiv")?;
        self.burn(crate::stats::FuelOp::MonoEquiv)?;
        let a = self.whnf(ctx, c1)?;
        let b = self.whnf(ctx, c2)?;
        if a == b {
            crate::stats::TcStats::bump(&self.stat_cells().equiv_ptr_eqs);
            recmod_telemetry::count("kernel.equiv_ptr_eq", 1);
            return Ok(());
        }
        let key = (a.clone(), b.clone());
        if seen.contains(&key) {
            return Ok(());
        }
        if self.equiv_cached(&(ctx.stamp(), key.0.clone(), key.1.clone())) {
            crate::stats::TcStats::bump(&self.stat_cells().equiv_cache_hits);
            recmod_telemetry::count("kernel.equiv_cache_hit", 1);
            return Ok(());
        }
        match (&*a, &*b) {
            // Only *contractive* μs participate in coinductive unrolling;
            // vacuous constructors like μα:T.α are inert (equal only to
            // themselves, which the syntactic fast path already handled).
            (Con::Mu(ka, ba), Con::Mu(kb, bb)) => match self.mode() {
                RecMode::Equi | RecMode::IsoShao
                    if self.is_contractive_cached(&a) && self.is_contractive_cached(&b) =>
                {
                    self.note_assumption(seen, key);
                    let st = self.stat_cells();
                    st.mu_unrolls.set(st.mu_unrolls.get() + 2);
                    let ua = self.unroll_mu_cached(&a)?;
                    let ub = self.unroll_mu_cached(&b)?;
                    step(self.con_eq_type(ctx, &ua, &ub, seen), "unroll")
                }
                RecMode::Iso => {
                    step(self.kind_eq(ctx, ka, kb), "μ kind")?;
                    ctx.with_con(ka.clone(), |ctx| {
                        let kin = shift_kind_hc(ka, 1, 0);
                        // Fresh assumptions under the binder (see Pi case).
                        step(
                            self.con_equiv_at(ctx, ba, bb, &kin, &mut Seen::default()),
                            "μ body",
                        )
                    })
                }
                _ => raise(TypeError::ConMismatch {
                    left: show::con(&a),
                    right: show::con(&b),
                    at: "T".to_string(),
                }),
            },
            (Con::Mu(_, _), _)
                if self.mode() == RecMode::Equi && self.is_contractive_cached(&a) =>
            {
                self.note_assumption(seen, key);
                crate::stats::TcStats::bump(&self.stat_cells().mu_unrolls);
                let ua = self.unroll_mu_cached(&a)?;
                step(self.con_eq_type(ctx, &ua, &b, seen), "unroll")
            }
            (_, Con::Mu(_, _))
                if self.mode() == RecMode::Equi && self.is_contractive_cached(&b) =>
            {
                self.note_assumption(seen, key);
                crate::stats::TcStats::bump(&self.stat_cells().mu_unrolls);
                let ub = self.unroll_mu_cached(&b)?;
                step(self.con_eq_type(ctx, &a, &ub, seen), "unroll")
            }
            (Con::Arrow(a1, a2), Con::Arrow(b1, b2)) => {
                step(self.con_eq_type(ctx, a1, b1, seen), "domain")?;
                step(self.con_eq_type(ctx, a2, b2, seen), "codomain")
            }
            (Con::Prod(a1, a2), Con::Prod(b1, b2)) => {
                step(self.con_eq_type(ctx, a1, b1, seen), "fst")?;
                step(self.con_eq_type(ctx, a2, b2, seen), "snd")
            }
            (Con::Sum(xs), Con::Sum(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    step(self.con_eq_type(ctx, x, y, seen), "summand")?;
                }
                Ok(())
            }
            (Con::Int, Con::Int) | (Con::Bool, Con::Bool) | (Con::UnitTy, Con::UnitTy) => Ok(()),
            _ if is_path(&a) && is_path(&b) => self.path_equiv(ctx, &a, &b, seen).map(|_| ()),
            _ => raise(TypeError::ConMismatch {
                left: show::con(&a),
                right: show::con(&b),
                at: "T".to_string(),
            }),
        }
    }

    /// Adds a pair to the coinductive assumption set, recording the
    /// insert and the set's high-water mark.
    fn note_assumption(&self, seen: &mut Seen, key: (HC<Con>, HC<Con>)) {
        seen.insert(key);
        let st = self.stat_cells();
        crate::stats::TcStats::bump(&st.assumption_inserts);
        crate::stats::TcStats::raise(&st.assumption_hwm, seen.len() as u64);
    }

    /// Structural equivalence of stuck paths, returning their common
    /// natural kind (used to compare spine arguments at the right kind).
    fn path_equiv(&self, ctx: &mut Ctx, p1: &Con, p2: &Con, seen: &mut Seen) -> TcResult<HC<Kind>> {
        self.burn(crate::stats::FuelOp::PathEquiv)?;
        match (p1, p2) {
            (Con::Var(i), Con::Var(j)) if i == j => ctx.lookup_con(*i),
            (Con::Fst(i), Con::Fst(j)) if i == j => match self.natural_kind(ctx, p1)? {
                Some(k) => Ok(k),
                None => raise(TypeError::Internal(
                    "natural_kind returned None for a Fst path".to_string(),
                )),
            },
            (Con::App(f1, a1), Con::App(f2, a2)) => {
                let fk = step(self.path_equiv(ctx, f1, f2, seen), "spine function")?;
                let (k1, k2) = self.expect_pi(&fk)?;
                step(self.con_equiv_at(ctx, a1, a2, &k1, seen), "spine argument")?;
                Ok(subst_con_kind_hc(&k2, a1))
            }
            (Con::Proj1(q1), Con::Proj1(q2)) => {
                let qk = step(self.path_equiv(ctx, q1, q2, seen), "fst")?;
                let (k1, _) = self.expect_sigma(&qk)?;
                Ok(k1)
            }
            (Con::Proj2(q1), Con::Proj2(q2)) => {
                let qk = step(self.path_equiv(ctx, q1, q2, seen), "snd")?;
                let (_, k2) = self.expect_sigma(&qk)?;
                Ok(subst_con_kind_hc(&k2, &Con::Proj1(q1.clone())))
            }
            _ => raise(TypeError::ConMismatch {
                left: show::con(p1),
                right: show::con(p2),
                at: "T".to_string(),
            }),
        }
    }
}

/// Tags a failing recursive equivalence check with the structural step
/// it descended through (`domain`, `unroll`, `snd`, …). Steps accumulate
/// innermost-first on the pending failure snapshot, giving diagnostics
/// the path from the failing equation back to the equation the user
/// asked about.
#[inline]
fn step<T>(r: TcResult<T>, s: &'static str) -> TcResult<T> {
    if r.is_err() {
        recmod_telemetry::diag::note_step(s);
    }
    r
}

fn is_path(c: &Con) -> bool {
    matches!(
        c,
        Con::Var(_) | Con::Fst(_) | Con::App(_, _) | Con::Proj1(_) | Con::Proj2(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    fn equi() -> Tc {
        Tc::new()
    }

    #[test]
    fn mu_equals_unrolling_in_equi_mode() {
        // μα:T.int ⇀ α  =  int ⇀ μα:T.int ⇀ α
        let tc = equi();
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let u = carrow(Con::Int, m.clone());
        tc.con_equiv(&mut ctx, &hc(m.clone()), &hc(u.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn mu_not_unrolled_in_iso_mode() {
        let tc = Tc::with_mode(RecMode::Iso);
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let u = carrow(Con::Int, m.clone());
        assert!(tc
            .con_equiv(&mut ctx, &hc(m.clone()), &hc(u.clone()), &tkind())
            .is_err());
        // ...but a μ is still equal to itself.
        tc.con_equiv(&mut ctx, &hc(m.clone()), &hc(m.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn shao_equation_holds_in_iso_shao_mode() {
        // μα.c(α) ≡ μα.c(μα.c(α))  with c(α) = int ⇀ α    (paper §5)
        let tc = Tc::with_mode(RecMode::IsoShao);
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let m2 = mu(
            tkind(),
            carrow(Con::Int, recmod_syntax::subst::shift_con(&m, 1, 0)),
        );
        tc.con_equiv(&mut ctx, &hc(m.clone()), &hc(m2.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn shao_mode_still_distinguishes_mu_from_unrolling() {
        let tc = Tc::with_mode(RecMode::IsoShao);
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let u = carrow(Con::Int, m.clone());
        assert!(tc
            .con_equiv(&mut ctx, &hc(m.clone()), &hc(u.clone()), &tkind())
            .is_err());
    }

    #[test]
    fn distinct_recursive_types_are_distinguished() {
        // μα.int ⇀ α  ≠  μα.bool ⇀ α
        let tc = equi();
        let mut ctx = Ctx::new();
        let m1 = mu(tkind(), carrow(Con::Int, cvar(0)));
        let m2 = mu(tkind(), carrow(Con::Bool, cvar(0)));
        assert!(tc
            .con_equiv(&mut ctx, &hc(m1.clone()), &hc(m2.clone()), &tkind())
            .is_err());
    }

    #[test]
    fn bisimilar_but_syntactically_distinct_mus_are_equal() {
        // μα.int ⇀ (int ⇀ α)  =  μα.int ⇀ α unrolled two ways:
        // compare μα.int⇀α with μα.int⇀(int⇀α).
        let tc = equi();
        let mut ctx = Ctx::new();
        let m1 = mu(tkind(), carrow(Con::Int, cvar(0)));
        let m2 = mu(tkind(), carrow(Con::Int, carrow(Con::Int, cvar(0))));
        tc.con_equiv(&mut ctx, &hc(m1.clone()), &hc(m2.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn everything_equal_at_unit_kind() {
        let tc = equi();
        let mut ctx = Ctx::new();
        tc.con_equiv(
            &mut ctx,
            &hc(Con::Star),
            &hc(cproj1(cpair(Con::Star, Con::Star))),
            &unit_kind(),
        )
        .unwrap();
    }

    #[test]
    fn everything_equal_at_singleton_kind() {
        // Both sides of kind Q(int) are equal without looking at them.
        let tc = equi();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(q(Con::Int)), |ctx| {
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(Con::Int), &q(Con::Int))
                .unwrap();
        });
    }

    #[test]
    fn extensionality_at_pi_kind() {
        // λα:T.α  =  λβ:T.β applied pointwise; also a variable f of kind
        // Πα:T.Q(int) equals λα:T.int.
        let tc = equi();
        let mut ctx = Ctx::new();
        let k = pi(tkind(), q(Con::Int));
        ctx.with_con(hc(k.clone()), |ctx| {
            let f = cvar(0);
            let g = clam(tkind(), Con::Int);
            tc.con_equiv(ctx, &hc(f.clone()), &hc(g.clone()), &k)
                .unwrap();
        });
    }

    #[test]
    fn extensionality_at_sigma_kind() {
        // p : Q(int)×Q(bool) equals ⟨int, bool⟩.
        let tc = equi();
        let mut ctx = Ctx::new();
        let k = Kind::times(q(Con::Int), q(Con::Bool));
        ctx.with_con(hc(k.clone()), |ctx| {
            let p = cvar(0);
            let lit = cpair(Con::Int, Con::Bool);
            tc.con_equiv(ctx, &hc(p.clone()), &hc(lit.clone()), &k)
                .unwrap();
        });
    }

    #[test]
    fn path_spines_compare_argumentwise() {
        // f : T → T (opaque); f int = f int but f int ≠ f bool.
        let tc = equi();
        let mut ctx = Ctx::new();
        let k = pi(tkind(), tkind());
        ctx.with_con(hc(k.clone()), |ctx| {
            let fi = capp(cvar(0), Con::Int);
            let fb = capp(cvar(0), Con::Bool);
            tc.con_equiv(ctx, &hc(fi.clone()), &hc(fi.clone()), &tkind())
                .unwrap();
            assert!(tc
                .con_equiv(ctx, &hc(fi.clone()), &hc(fb.clone()), &tkind())
                .is_err());
        });
    }

    #[test]
    fn singleton_sharing_propagates_through_variables() {
        // α:Q(int ⇀ int) ⊢ α = int ⇀ int : T
        let tc = equi();
        let mut ctx = Ctx::new();
        let def = carrow(Con::Int, Con::Int);
        ctx.with_con(hc(q(def.clone())), |ctx| {
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(def.clone()), &tkind())
                .unwrap();
        });
    }

    #[test]
    fn mu_mu_collapse_of_section_5() {
        // μα.μβ.c(α,β) ≃ μβ.c(β,β)  with c(α,β) = α ⇀ β  — the paper's §5
        // observation justifying the elimination of equi-recursive types.
        let tc = equi();
        let mut ctx = Ctx::new();
        // μα:T.μβ:T. α ⇀ β   (inside: α is index 1, β is index 0)
        let nested = mu(tkind(), mu(tkind(), carrow(cvar(1), cvar(0))));
        // μβ:T. β ⇀ β
        let flat = mu(tkind(), carrow(cvar(0), cvar(0)));
        tc.con_equiv(&mut ctx, &hc(nested.clone()), &hc(flat.clone()), &tkind())
            .unwrap();
    }

    #[test]
    fn seen_set_does_not_leak_across_binders() {
        // Regression (review finding): in ctx [d:Q(int)], comparing the
        // pairs ⟨m1, λb:T.m1⟩ and ⟨m2, λb:T.m2⟩ at Σ(T, Πb:T.T) — where
        // the λ bodies were built WITHOUT shifting, so inside the λ the
        // index that meant `d` now means the opaque `b` — must fail: the
        // coinductive assumption recorded for the first components (where
        // Var(1) = d = int) must not leak into the λ comparison (where the
        // same syntax denotes b).
        let tc = equi();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(q(Con::Int)), |ctx| {
            let m1 = mu(tkind(), carrow(cvar(1), cvar(0))); // μa. d ⇀ a (at depth 0)
            let m2 = mu(tkind(), carrow(Con::Int, cvar(0))); // μa. int ⇀ a
            let p1 = cpair(m1.clone(), clam(tkind(), m1.clone()));
            let p2 = cpair(m2.clone(), clam(tkind(), m2.clone()));
            let k = Kind::times(tkind(), pi(tkind(), tkind()));
            // The λ components alone are inequivalent…
            assert!(tc
                .con_equiv(
                    ctx,
                    &hc(clam(tkind(), m1)),
                    &hc(clam(tkind(), m2)),
                    &pi(tkind(), tkind())
                )
                .is_err());
            // …so the pairs must be too, regardless of comparison order.
            assert!(tc
                .con_equiv(ctx, &hc(p1.clone()), &hc(p2.clone()), &k)
                .is_err());
        });
    }

    #[test]
    fn vacuous_mu_distinct_from_int_but_equal_to_itself() {
        let tc = equi();
        let mut ctx = Ctx::new();
        let bot = mu(tkind(), cvar(0));
        tc.con_equiv(&mut ctx, &hc(bot.clone()), &hc(bot.clone()), &tkind())
            .unwrap();
        assert!(tc
            .con_equiv(&mut ctx, &hc(bot.clone()), &hc(Con::Int), &tkind())
            .is_err());
    }
}
