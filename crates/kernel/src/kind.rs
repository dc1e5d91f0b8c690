//! Kind formation, equivalence, and subkinding (paper appendix A.1).

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::intern::HC;

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::Tc;

impl Tc {
    /// `Γ ⊢ κ kind` — kind formation.
    pub fn wf_kind(&self, ctx: &mut Ctx, k: &Kind) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.wf_kind");
        let _depth = self.descend("wf_kind")?;
        match k {
            Kind::Type | Kind::Unit => Ok(()),
            Kind::Singleton(c) => self.check_con(ctx, c, self.type_kind()),
            Kind::Pi(k1, k2) | Kind::Sigma(k1, k2) => {
                self.wf_kind(ctx, k1)?;
                ctx.with_con(k1.clone(), |ctx| self.wf_kind(ctx, k2))
            }
        }
    }

    /// `Γ ⊢ κ₁ = κ₂ kind` — kind equivalence.
    pub fn kind_eq(&self, ctx: &mut Ctx, k1: &HC<Kind>, k2: &HC<Kind>) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.kind_eq");
        let _depth = self.descend("kind_eq")?;
        match (&**k1, &**k2) {
            (Kind::Type, Kind::Type) | (Kind::Unit, Kind::Unit) => Ok(()),
            (Kind::Singleton(c1), Kind::Singleton(c2)) => self.con_equiv(ctx, c1, c2, &Kind::Type),
            (Kind::Pi(a1, b1), Kind::Pi(a2, b2)) | (Kind::Sigma(a1, b1), Kind::Sigma(a2, b2)) => {
                self.kind_eq(ctx, a1, a2)?;
                ctx.with_con(a1.clone(), |ctx| self.kind_eq(ctx, b1, b2))
            }
            _ => raise(TypeError::KindMismatch {
                expected: show::kind(k1),
                found: show::kind(k2),
            }),
        }
    }

    /// `Γ ⊢ κ₁ ≤ κ₂ kind` — subkinding. The key axiom is `Q(c) ≤ T`
    /// (forgetting a definition); `Π` is contravariant in its domain and
    /// `Σ` is covariant in both components.
    pub fn subkind(&self, ctx: &mut Ctx, k1: &HC<Kind>, k2: &HC<Kind>) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.subkind");
        let _depth = self.descend("subkind")?;
        match (&**k1, &**k2) {
            (Kind::Type, Kind::Type) | (Kind::Unit, Kind::Unit) => Ok(()),
            (Kind::Singleton(_), Kind::Type) => Ok(()),
            (Kind::Singleton(c1), Kind::Singleton(c2)) => self.con_equiv(ctx, c1, c2, &Kind::Type),
            (Kind::Pi(a1, b1), Kind::Pi(a2, b2)) => {
                self.subkind(ctx, a2, a1)?;
                // The common context uses the smaller domain (a2).
                ctx.with_con(a2.clone(), |ctx| self.subkind(ctx, b1, b2))
            }
            (Kind::Sigma(a1, b1), Kind::Sigma(a2, b2)) => {
                self.subkind(ctx, a1, a2)?;
                ctx.with_con(a1.clone(), |ctx| self.subkind(ctx, b1, b2))
            }
            _ => raise(TypeError::NotASubkind {
                expected: show::kind(k2),
                found: show::kind(k1),
            }),
        }
    }

    /// Checks that `k` has the shape `Πα:κ₁.κ₂`, returning the pieces.
    pub(crate) fn expect_pi(&self, k: &Kind) -> TcResult<(HC<Kind>, HC<Kind>)> {
        match k {
            Kind::Pi(k1, k2) => Ok((k1.clone(), k2.clone())),
            _ => raise(TypeError::NotAPiKind(show::kind(k))),
        }
    }

    /// Checks that `k` has the shape `Σα:κ₁.κ₂`, returning the pieces.
    pub(crate) fn expect_sigma(&self, k: &Kind) -> TcResult<(HC<Kind>, HC<Kind>)> {
        match k {
            Kind::Sigma(k1, k2) => Ok((k1.clone(), k2.clone())),
            _ => raise(TypeError::NotASigmaKind(show::kind(k))),
        }
    }
}

/// Does the kind `k` mention the variable bound at absolute index
/// `target` (counting binders inside `k`)? Used to enforce that the
/// *stripped* static kind of an rds does not itself depend on the
/// recursive structure variable.
pub fn kind_mentions(k: &Kind, target: usize) -> bool {
    struct Probe {
        target: usize,
        hit: bool,
    }
    impl recmod_syntax::map::VarMap for Probe {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                self.hit = true;
            }
            Con::Var(i)
        }
        fn tvar(&mut self, d: usize, i: usize) -> recmod_syntax::ast::Term {
            if i == self.target + d {
                self.hit = true;
            }
            recmod_syntax::ast::Term::Var(i)
        }
        fn fst(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                self.hit = true;
            }
            Con::Fst(i)
        }
        fn snd(&mut self, d: usize, i: usize) -> recmod_syntax::ast::Term {
            if i == self.target + d {
                self.hit = true;
            }
            recmod_syntax::ast::Term::Snd(i)
        }
        fn mvar(&mut self, d: usize, i: usize) -> recmod_syntax::ast::Module {
            if i == self.target + d {
                self.hit = true;
            }
            recmod_syntax::ast::Module::Var(i)
        }
    }
    let mut probe = Probe { target, hit: false };
    let _ = recmod_syntax::map::map_kind(k, 0, &mut probe);
    probe.hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;
    use recmod_syntax::intern::hc;

    #[test]
    fn singleton_below_type() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.subkind(&mut ctx, &hc(q(Con::Int)), &hc(Kind::Type))
            .unwrap();
        assert!(tc
            .subkind(&mut ctx, &hc(Kind::Type), &hc(q(Con::Int)))
            .is_err());
    }

    #[test]
    fn pi_contravariant_domain() {
        // Πα:T.T ≤ Πα:Q(int).T  (a function on all types is a function on int)
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let gen = pi(tkind(), tkind());
        let spec = pi(q(Con::Int), tkind());
        tc.subkind(&mut ctx, &hc(gen.clone()), &hc(spec.clone()))
            .unwrap();
        assert!(tc
            .subkind(&mut ctx, &hc(spec.clone()), &hc(gen.clone()))
            .is_err());
    }

    #[test]
    fn sigma_covariant() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let transparent = sigma(q(Con::Int), q(Con::Bool));
        let opaque = sigma(tkind(), tkind());
        tc.subkind(&mut ctx, &hc(transparent.clone()), &hc(opaque.clone()))
            .unwrap();
        assert!(tc
            .subkind(&mut ctx, &hc(opaque.clone()), &hc(transparent.clone()))
            .is_err());
    }

    #[test]
    fn singleton_kinds_equal_iff_definitions_equal() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.kind_eq(&mut ctx, &hc(q(Con::Int)), &hc(q(Con::Int)))
            .unwrap();
        assert!(tc
            .kind_eq(&mut ctx, &hc(q(Con::Int)), &hc(q(Con::Bool)))
            .is_err());
    }

    #[test]
    fn wf_rejects_non_monotype_singleton() {
        // Q(λα:T.α) is ill-formed: the lambda has kind Π, not T.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let k = q(clam(tkind(), cvar(0)));
        assert!(tc.wf_kind(&mut ctx, &k).is_err());
    }

    #[test]
    fn kind_mentions_detects_fst() {
        let k = q(carrow(Con::Int, fst(0)));
        assert!(kind_mentions(&k, 0));
        assert!(!kind_mentions(&k, 1));
    }

    #[test]
    fn kind_mentions_counts_binders() {
        // Πα:T.Q(Fst(s)) with s at outer index 0: inside the Π, s is index 1.
        let k = pi(tkind(), q(fst(1)));
        assert!(kind_mentions(&k, 0));
    }
}
