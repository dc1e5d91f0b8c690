//! Singleton-kind machinery.
//!
//! * [`selfify_hc`] — the higher-order singleton `Q(c : κ)` of paper
//!   Figure 2, extended to `Σ` kinds in the standard (Stone–Harper) way.
//!   The paper's footnote restricts `Q(c:κ)` to non-`Σ` kinds to keep the
//!   construct *definable*; selfification is the algorithmic counterpart
//!   and extends to `Σ` without difficulty.
//! * [`strip_kind`] — erases the singleton information (used by the rds
//!   formation rule: "`S'` is obtained from `S` by stripping out the
//!   singleton kinds specifying the identity of the static component").
//! * [`fully_transparent`] — is every type component of the kind given by
//!   an explicit definition? (The rds formation precondition, §4.1.)
//! * [`kind_definition`] — the canonical inhabitant of a fully
//!   transparent kind (the constructor `c` such that `κ = Q(c : strip κ)`).

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::dsl::{clam, cpair};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::memo::{self, Key, Op};
use recmod_syntax::subst::{shift_con_hc, shift_kind_hc, subst_con_kind, subst_con_kind_hc};

/// Computes the principal (most transparent) kind `Q(c : κ)` of a
/// constructor `c` already known to have kind `κ`. A Π or Σ result is
/// remembered in the per-thread [`memo`] table under `(c id, κ id)`:
/// the kernel selfifies the same variable at the same kind from many
/// judgement calls, and a Σ of width k re-selfifies every later
/// component after each substitution.
///
/// ```
/// use recmod_syntax::ast::{Con, Kind};
/// use recmod_syntax::intern::hc;
/// use recmod_kernel::singleton::selfify_hc;
///
/// // Q(int : T) = Q(int)
/// let int = hc(Con::Int);
/// assert_eq!(*selfify_hc(&int, &hc(Kind::Type)), Kind::Singleton(int));
/// ```
pub fn selfify_hc(c: &HC<Con>, k: &HC<Kind>) -> HC<Kind> {
    let (k1, k2) = match &**k {
        Kind::Type => return hc(Kind::Singleton(c.clone())),
        Kind::Unit | Kind::Singleton(_) => return k.clone(),
        Kind::Pi(k1, k2) | Kind::Sigma(k1, k2) => (k1, k2),
    };
    let key = Key {
        op: Op::Selfify,
        base: 0,
        param: c.id(),
        node: k.id(),
    };
    if let Some(hit) = memo::lookup(&key) {
        return hit;
    }
    let out = if let Kind::Pi(..) = &**k {
        // Q(c : Πα:κ₁.κ₂) = Πα:κ₁.Q(c α : κ₂)    (paper Figure 2)
        let app = hc(Con::App(shift_con_hc(c, 1, 0), hc(Con::Var(0))));
        hc(Kind::Pi(k1.clone(), selfify_hc(&app, k2)))
    } else {
        // Q(c : Σα:κ₁.κ₂) = Q(π₁c : κ₁) × Q(π₂c : κ₂[π₁c/α])
        let p1 = Con::Proj1(c.clone());
        let k2i = subst_con_kind_hc(k2, &p1);
        let l = selfify_hc(&hc(p1), k1);
        let r = selfify_hc(&hc(Con::Proj2(c.clone())), &k2i);
        hc(Kind::Sigma(l, shift_kind_hc(&r, 1, 0)))
    };
    memo::insert(key, out.clone());
    out
}

/// Erases singleton information: `strip(Q(c)) = T`, congruently elsewhere.
/// Domains of `Π` kinds are left intact (they classify *inputs*, not the
/// static component being defined).
pub fn strip_kind(k: &Kind) -> Kind {
    match k {
        Kind::Type => Kind::Type,
        Kind::Unit => Kind::Unit,
        Kind::Singleton(_) => Kind::Type,
        Kind::Pi(k1, k2) => Kind::Pi(k1.clone(), hc(strip_kind(k2))),
        Kind::Sigma(k1, k2) => Kind::Sigma(hc(strip_kind(k1)), hc(strip_kind(k2))),
    }
}

/// Is every type component of `k` specified by an explicit definition?
///
/// This is the precondition for rds formation (paper §4.1): "we require
/// that the static component of `S` be fully transparent, that is, that it
/// completely specify the identity of its static component using singleton
/// kinds."
pub fn fully_transparent(k: &Kind) -> bool {
    match k {
        Kind::Type => false,
        Kind::Unit => true,
        Kind::Singleton(_) => true,
        Kind::Pi(_, k2) => fully_transparent(k2),
        Kind::Sigma(k1, k2) => fully_transparent(k1) && fully_transparent(k2),
    }
}

/// The canonical inhabitant of a fully transparent kind: the `c` with
/// `κ = Q(c : strip κ)`. Returns `None` when `k` has an opaque (`T`)
/// component.
pub fn kind_definition(k: &Kind) -> Option<Con> {
    match k {
        Kind::Type => None,
        Kind::Unit => Some(Con::Star),
        Kind::Singleton(c) => Some(c.take()),
        Kind::Pi(k1, k2) => Some(clam((**k1).clone(), kind_definition(k2)?)),
        Kind::Sigma(k1, k2) => {
            let d1 = kind_definition(k1)?;
            let k2i = subst_con_kind(k2, &d1);
            let d2 = kind_definition(&k2i)?;
            Some(cpair(d1, d2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::{capp, cproj1, cproj2, cvar, pi, q, sigma, tkind};

    #[test]
    fn selfify_at_type_is_singleton() {
        assert_eq!(*selfify_hc(&hc(Con::Bool), &hc(tkind())), q(Con::Bool));
    }

    #[test]
    fn selfify_at_singleton_keeps_definition() {
        // Q(c : Q(int)) = Q(int) — the declared identity wins.
        assert_eq!(*selfify_hc(&hc(cvar(0)), &hc(q(Con::Int))), q(Con::Int));
    }

    #[test]
    fn selfify_pi_is_figure_2() {
        // Q(c : Πα:T.T) = Πα:T.Q(c α)
        let k = pi(tkind(), tkind());
        let out = selfify_hc(&hc(cvar(3)), &hc(k));
        assert_eq!(*out, pi(tkind(), q(capp(cvar(4), cvar(0)))));
    }

    #[test]
    fn selfify_sigma_projects() {
        // Q(c : T×T) = Q(π₁c) × Q(π₂c)
        let k = sigma(tkind(), tkind());
        let out = selfify_hc(&hc(cvar(0)), &hc(k));
        assert_eq!(*out, Kind::times(q(cproj1(cvar(0))), q(cproj2(cvar(0)))));
    }

    #[test]
    fn a_repeated_sigma_selfify_is_answered_by_the_memo() {
        use recmod_syntax::intern::intern_stats;
        let probes = || {
            let s = intern_stats();
            s.hits + s.misses
        };
        // Σα:T.Πβ:T.Q(α): a dependent Σ, so the rebuild substitutes.
        // Held interned, as the kernel's contexts hold their kinds: a
        // re-interned dead node would get a fresh id, hence a new key.
        let k = hc(sigma(tkind(), pi(tkind(), q(cvar(1)))));
        let c = hc(cvar(2));
        let first = selfify_hc(&c, &k);
        let before = probes();
        let again = selfify_hc(&c, &k);
        // Both arguments are already interned: the memo hit is free.
        assert_eq!(probes(), before);
        assert!(HC::ptr_eq(&first, &again));
    }

    #[test]
    fn strip_inverts_selfify_shape() {
        let k = sigma(q(Con::Int), pi(tkind(), q(Con::Bool)));
        assert_eq!(strip_kind(&k), sigma(tkind(), pi(tkind(), tkind())));
    }

    #[test]
    fn transparency() {
        assert!(fully_transparent(&q(Con::Int)));
        assert!(fully_transparent(&sigma(q(Con::Int), q(Con::Bool))));
        assert!(fully_transparent(&pi(tkind(), q(cvar(0)))));
        assert!(!fully_transparent(&tkind()));
        assert!(!fully_transparent(&sigma(q(Con::Int), tkind())));
    }

    #[test]
    fn definition_of_sigma_of_singletons() {
        let k = sigma(q(Con::Int), q(Con::Bool));
        assert_eq!(kind_definition(&k), Some(cpair(Con::Int, Con::Bool)));
    }

    #[test]
    fn definition_of_dependent_sigma_substitutes() {
        // Σα:Q(int).Q(α ⇀ α): definition is ⟨int, int ⇀ int⟩.
        let k = sigma(q(Con::Int), q(Con::Arrow(hc(cvar(0)), hc(cvar(0)))));
        assert_eq!(
            kind_definition(&k),
            Some(cpair(Con::Int, Con::Arrow(hc(Con::Int), hc(Con::Int))))
        );
    }

    #[test]
    fn definition_of_pi_is_lambda() {
        let k = pi(tkind(), q(cvar(0)));
        assert_eq!(kind_definition(&k), Some(clam(tkind(), cvar(0))));
    }

    #[test]
    fn opaque_kind_has_no_definition() {
        assert_eq!(kind_definition(&tkind()), None);
        assert_eq!(kind_definition(&sigma(tkind(), q(Con::Int))), None);
    }
}
