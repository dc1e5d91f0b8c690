//! Shifting and capture-avoiding substitution.
//!
//! All operations are instances of the [`VarMap`] traversal. Because the
//! binding space is unified (see [`crate::ast`]), shifting moves indices
//! of *every* sort uniformly, and substituting away a binder decrements
//! every index that pointed past it.
//!
//! # Sharing
//!
//! Constructor, kind and type subtrees that provably cannot mention the shifted or
//! substituted variable (their cached [`fv_bound`](crate::intern::HC::fv_bound)
//! lies below the map's [`VarMap::floor`]) are returned as the *same*
//! hash-consed pointer without being traversed; rebuilt subtrees are
//! re-interned, so unchanged structure always comes back
//! pointer-identical. See [`crate::map`] for the mechanism.
//!
//! That bounds one call, not the kernel's many calls on the same nodes.
//! Shifts and constructor substitutions therefore declare a
//! [`VarMap::identity`] — `(cutoff, by)` and `(target, replacement id)`
//! — and every constructor, kind or type pointer they rebuild is remembered
//! in the per-thread [`crate::memo`] table under that identity, the
//! depth and the input's node id. A repeat of the same rewrite on the
//! same node, in this call or a later one, is one table probe instead
//! of a rebuild. Term and structure substitutions stay memo-free: their
//! replacements are not interned.
//!
//! # Panics
//!
//! Eliminating a binder that is referenced at the *wrong sort* (e.g. a
//! term-variable occurrence pointing at a constructor binder) is a
//! compiler bug; what happens depends on the substitution form and the
//! build profile:
//!
//! * [`SubstCon`]-based functions (`subst_con_*`) panic **in every
//!   profile** — a wrong-sort hit would otherwise splice a constructor
//!   into term position.
//! * `subst_mod_*` functions panic **in every profile** when a
//!   dynamic/whole-module occurrence hits a target substituted with
//!   [`ModParts::snd`]` = None` (see that field's contract).
//! * `subst_term_term` and the shift functions check wrong-sort hits
//!   with `debug_assert!` only: debug builds panic; release builds
//!   proceed (the occurrence is renumbered like any other index, never
//!   replaced by a wrong-sort payload).
//!
//! Well-sorted syntax, which is all the kernel ever produces, triggers
//! none of these. Per the no-panic policy (`DESIGN.md` §5a), any such
//! panic is caught at the `recmodc` boundary and reported as an internal
//! error rather than a crash.

use crate::ast::{Con, Index, Kind, Module, Sig, Term, Ty};
use crate::intern::{hc, HC};
use crate::map::{
    map_con, map_con_hc, map_kind, map_kind_hc, map_module, map_sig, map_term, map_ty, map_ty_hc,
    VarMap,
};
use crate::memo::Op;

// ---------------------------------------------------------------------------
// Shifting
// ---------------------------------------------------------------------------

struct Shift {
    by: isize,
    cutoff: usize,
}

impl Shift {
    fn adjust(&self, d: usize, i: Index) -> Index {
        if i >= self.cutoff + d {
            let j = i as isize + self.by;
            debug_assert!(j >= d as isize, "shift produced a dangling index");
            j as Index
        } else {
            i
        }
    }
}

impl VarMap for Shift {
    fn cvar(&mut self, d: usize, i: Index) -> Con {
        Con::Var(self.adjust(d, i))
    }
    fn tvar(&mut self, d: usize, i: Index) -> Term {
        Term::Var(self.adjust(d, i))
    }
    fn fst(&mut self, d: usize, i: Index) -> Con {
        Con::Fst(self.adjust(d, i))
    }
    fn snd(&mut self, d: usize, i: Index) -> Term {
        Term::Snd(self.adjust(d, i))
    }
    fn mvar(&mut self, d: usize, i: Index) -> Module {
        Module::Var(self.adjust(d, i))
    }
    fn floor(&self) -> Option<usize> {
        // Indices below the cutoff are untouched.
        Some(self.cutoff)
    }
    fn identity(&mut self) -> Option<(Op, u64)> {
        // At depth d the shift moves every index ≥ cutoff + d by `by`.
        Some((Op::Shift, self.by as u64))
    }
}

/// Shifts all free indices `≥ cutoff` in `k` by `by`.
pub fn shift_kind(k: &Kind, by: isize, cutoff: usize) -> Kind {
    if by == 0 {
        return k.clone();
    }
    map_kind(k, 0, &mut Shift { by, cutoff })
}

/// Shifts all free indices `≥ cutoff` in `c` by `by`.
pub fn shift_con(c: &Con, by: isize, cutoff: usize) -> Con {
    if by == 0 {
        return c.clone();
    }
    map_con(c, 0, &mut Shift { by, cutoff })
}

/// Shifts all free indices `≥ cutoff` in `t` by `by`.
pub fn shift_ty(t: &Ty, by: isize, cutoff: usize) -> Ty {
    if by == 0 {
        return t.clone();
    }
    map_ty(t, 0, &mut Shift { by, cutoff })
}

/// Shifts all free indices `≥ cutoff` in `e` by `by`.
pub fn shift_term(e: &Term, by: isize, cutoff: usize) -> Term {
    if by == 0 {
        return e.clone();
    }
    map_term(e, 0, &mut Shift { by, cutoff })
}

/// Shifts all free indices `≥ cutoff` in `s` by `by`.
pub fn shift_sig(s: &Sig, by: isize, cutoff: usize) -> Sig {
    if by == 0 {
        return s.clone();
    }
    map_sig(s, 0, &mut Shift { by, cutoff })
}

/// Shifts all free indices `≥ cutoff` in `m` by `by`.
pub fn shift_module(m: &Module, by: isize, cutoff: usize) -> Module {
    if by == 0 {
        return m.clone();
    }
    map_module(m, 0, &mut Shift { by, cutoff })
}

/// [`shift_con`] at the pointer level: a shift that cannot touch the
/// subtree returns the identical pointer.
pub fn shift_con_hc(c: &HC<Con>, by: isize, cutoff: usize) -> HC<Con> {
    if by == 0 {
        return c.clone();
    }
    map_con_hc(c, 0, &mut Shift { by, cutoff })
}

/// [`shift_kind`] at the pointer level.
pub fn shift_kind_hc(k: &HC<Kind>, by: isize, cutoff: usize) -> HC<Kind> {
    if by == 0 {
        return k.clone();
    }
    map_kind_hc(k, 0, &mut Shift { by, cutoff })
}

/// [`shift_ty`] at the pointer level.
pub fn shift_ty_hc(t: &HC<Ty>, by: isize, cutoff: usize) -> HC<Ty> {
    if by == 0 {
        return t.clone();
    }
    map_ty_hc(t, 0, &mut Shift { by, cutoff })
}

// ---------------------------------------------------------------------------
// Substitution for a constructor binder
// ---------------------------------------------------------------------------

/// Substitutes for the constructor binder at index `target` (counted from
/// the root of the traversal) and removes that binder.
struct SubstCon<'a> {
    target: usize,
    replacement: &'a Con,
    /// The replacement's canonical pointer: the caller's own, or interned
    /// on the first memo probe of the call; it also keeps the
    /// replacement's id live.
    interned: Option<HC<Con>>,
}

impl<'a> SubstCon<'a> {
    /// Substitution of `replacement` for index `0`.
    fn new(replacement: &'a Con) -> Self {
        SubstCon {
            target: 0,
            replacement,
            interned: None,
        }
    }

    /// Substitution of an interned `replacement` for index `0`: the memo
    /// keys by the caller's pointer, so the call interns nothing for it.
    fn held(replacement: &'a HC<Con>) -> Self {
        SubstCon {
            target: 0,
            replacement,
            interned: Some(replacement.clone()),
        }
    }

    fn index(&self, d: usize, i: Index) -> Option<Index> {
        let t = self.target + d;
        if i == t {
            None // hit: caller substitutes
        } else if i > t {
            Some(i - 1)
        } else {
            Some(i)
        }
    }
}

// Sort invariant: a constructor substitution can only meet term/module
// occurrences of its target index in ill-sorted IR, which the kernel
// rejects before any substitution runs. A violation here is a compiler
// bug; the `recmodc` catch_unwind boundary reports it as an internal
// error rather than crashing.
#[allow(clippy::panic)]
impl VarMap for SubstCon<'_> {
    fn cvar(&mut self, d: usize, i: Index) -> Con {
        match self.index(d, i) {
            Some(j) => Con::Var(j),
            None => shift_con(self.replacement, (self.target + d) as isize, 0),
        }
    }
    fn tvar(&mut self, d: usize, i: Index) -> Term {
        match self.index(d, i) {
            Some(j) => Term::Var(j),
            None => panic!("term variable occurrence at a constructor binder"),
        }
    }
    fn fst(&mut self, d: usize, i: Index) -> Con {
        match self.index(d, i) {
            Some(j) => Con::Fst(j),
            None => panic!("Fst occurrence at a constructor binder"),
        }
    }
    fn snd(&mut self, d: usize, i: Index) -> Term {
        match self.index(d, i) {
            Some(j) => Term::Snd(j),
            None => panic!("snd occurrence at a constructor binder"),
        }
    }
    fn mvar(&mut self, d: usize, i: Index) -> Module {
        match self.index(d, i) {
            Some(j) => Module::Var(j),
            None => panic!("module variable occurrence at a constructor binder"),
        }
    }
    fn floor(&self) -> Option<usize> {
        // Indices below the target are untouched; the target is hit and
        // everything above it is decremented.
        Some(self.target)
    }
    fn identity(&mut self) -> Option<(Op, u64)> {
        let rep = self
            .interned
            .get_or_insert_with(|| hc(self.replacement.clone()));
        Some((Op::SubstCon, rep.id()))
    }
}

/// `k[c/α]` where `α` is the innermost binder of `k`'s context
/// (index `0`); the binder is removed.
pub fn subst_con_kind(k: &Kind, c: &Con) -> Kind {
    map_kind(k, 0, &mut SubstCon::new(c))
}

/// `body[c/α]` for constructors (index `0`; removes the binder).
pub fn subst_con_con(body: &Con, c: &Con) -> Con {
    map_con(body, 0, &mut SubstCon::new(c))
}

/// [`subst_con_con`] at the pointer level: a body that does not mention
/// the binder comes back as the identical pointer.
pub fn subst_con_con_hc(body: &HC<Con>, c: &HC<Con>) -> HC<Con> {
    map_con_hc(body, 0, &mut SubstCon::held(c))
}

/// [`subst_con_kind`] at the pointer level.
pub fn subst_con_kind_hc(k: &HC<Kind>, c: &HC<Con>) -> HC<Kind> {
    map_kind_hc(k, 0, &mut SubstCon::held(c))
}

/// `t[c/α]` for types (index `0`; removes the binder).
pub fn subst_con_ty(t: &Ty, c: &Con) -> Ty {
    map_ty(t, 0, &mut SubstCon::new(c))
}

/// [`subst_con_ty`] at the pointer level: a type that does not mention
/// the binder comes back as the identical pointer.
pub fn subst_con_ty_hc(t: &HC<Ty>, c: &HC<Con>) -> HC<Ty> {
    map_ty_hc(t, 0, &mut SubstCon::held(c))
}

/// `e[c/α]` for terms (index `0`; removes the binder).
pub fn subst_con_term(e: &Term, c: &Con) -> Term {
    map_term(e, 0, &mut SubstCon::new(c))
}

/// `s[c/α]` for signatures (index `0`; removes the binder).
pub fn subst_con_sig(s: &Sig, c: &Con) -> Sig {
    map_sig(s, 0, &mut SubstCon::new(c))
}

// ---------------------------------------------------------------------------
// Substitution for a term binder
// ---------------------------------------------------------------------------

struct SubstTerm<'a> {
    replacement: &'a Term,
}

impl VarMap for SubstTerm<'_> {
    fn cvar(&mut self, d: usize, i: Index) -> Con {
        debug_assert_ne!(i, d, "constructor occurrence at a term binder");
        Con::Var(if i > d { i - 1 } else { i })
    }
    fn tvar(&mut self, d: usize, i: Index) -> Term {
        if i == d {
            shift_term(self.replacement, d as isize, 0)
        } else if i > d {
            Term::Var(i - 1)
        } else {
            Term::Var(i)
        }
    }
    fn fst(&mut self, d: usize, i: Index) -> Con {
        debug_assert_ne!(i, d, "Fst occurrence at a term binder");
        Con::Fst(if i > d { i - 1 } else { i })
    }
    fn snd(&mut self, d: usize, i: Index) -> Term {
        debug_assert_ne!(i, d, "snd occurrence at a term binder");
        Term::Snd(if i > d { i - 1 } else { i })
    }
    fn mvar(&mut self, d: usize, i: Index) -> Module {
        debug_assert_ne!(i, d, "module occurrence at a term binder");
        Module::Var(if i > d { i - 1 } else { i })
    }
    fn floor(&self) -> Option<usize> {
        // The eliminated binder is index 0 at the root.
        Some(0)
    }
}

/// `body[e/x]` where `x` is the innermost binder (index `0`; removed).
pub fn subst_term_term(body: &Term, e: &Term) -> Term {
    map_term(body, 0, &mut SubstTerm { replacement: e })
}

// ---------------------------------------------------------------------------
// Substitution for a structure binder
// ---------------------------------------------------------------------------

/// Replaces the structure binder at index `0`: occurrences of `Fst(s)`
/// become `fst`, occurrences of `snd(s)` become `snd`, and whole-module
/// occurrences of `s` become `[fst, snd]`.
pub struct ModParts {
    /// What `Fst(s)` becomes.
    pub fst: Con,
    /// What `snd(s)` becomes. `None` is permitted when the target is
    /// known to occur only in static positions (e.g. inside signatures,
    /// whose types cannot mention terms); a dynamic occurrence then
    /// panics.
    pub snd: Option<Term>,
}

struct SubstMod<'a> {
    parts: &'a ModParts,
}

// The `expect`s below enforce the `ModParts::snd` contract documented
// above: callers pass `None` only when the target cannot occur
// dynamically. A violation is a compiler bug, reported as an internal
// error by the `recmodc` catch_unwind boundary.
#[allow(clippy::expect_used)]
impl VarMap for SubstMod<'_> {
    fn cvar(&mut self, d: usize, i: Index) -> Con {
        debug_assert_ne!(i, d, "constructor occurrence at a structure binder");
        Con::Var(if i > d { i - 1 } else { i })
    }
    fn tvar(&mut self, d: usize, i: Index) -> Term {
        debug_assert_ne!(i, d, "term occurrence at a structure binder");
        Term::Var(if i > d { i - 1 } else { i })
    }
    fn fst(&mut self, d: usize, i: Index) -> Con {
        if i == d {
            shift_con(&self.parts.fst, d as isize, 0)
        } else if i > d {
            Con::Fst(i - 1)
        } else {
            Con::Fst(i)
        }
    }
    fn snd(&mut self, d: usize, i: Index) -> Term {
        if i == d {
            let e = self
                .parts
                .snd
                .as_ref()
                .expect("dynamic occurrence of a statically-substituted structure variable");
            shift_term(e, d as isize, 0)
        } else if i > d {
            Term::Snd(i - 1)
        } else {
            Term::Snd(i)
        }
    }
    fn mvar(&mut self, d: usize, i: Index) -> Module {
        if i == d {
            let fst = shift_con(&self.parts.fst, d as isize, 0);
            let snd = self
                .parts
                .snd
                .as_ref()
                .map(|e| shift_term(e, d as isize, 0))
                .expect("whole-module occurrence of a statically-substituted structure variable");
            Module::Struct(fst, snd)
        } else if i > d {
            Module::Var(i - 1)
        } else {
            Module::Var(i)
        }
    }
    fn floor(&self) -> Option<usize> {
        // The eliminated structure binder is index 0 at the root.
        Some(0)
    }
}

/// `s[M/s₀]` for signatures, where `M`'s phase-split parts are `parts`
/// (index `0`; removes the binder). Signatures can only mention `Fst(s)`,
/// so `parts.snd` may be `None`.
pub fn subst_mod_sig(s: &Sig, parts: &ModParts) -> Sig {
    map_sig(s, 0, &mut SubstMod { parts })
}

/// `c[M/s₀]` for constructors (index `0`; removes the binder).
pub fn subst_mod_con(c: &Con, parts: &ModParts) -> Con {
    map_con(c, 0, &mut SubstMod { parts })
}

/// `t[M/s₀]` for types (index `0`; removes the binder).
pub fn subst_mod_ty(t: &Ty, parts: &ModParts) -> Ty {
    map_ty(t, 0, &mut SubstMod { parts })
}

/// `e[M/s₀]` for terms (index `0`; removes the binder).
pub fn subst_mod_term(e: &Term, parts: &ModParts) -> Term {
    map_term(e, 0, &mut SubstMod { parts })
}

/// `m[M/s₀]` for modules (index `0`; removes the binder).
pub fn subst_mod_module(m: &Module, parts: &ModParts) -> Module {
    map_module(m, 0, &mut SubstMod { parts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{carrow, clam, cvar, fst, mu, q, sig, tcon, tkind};

    #[test]
    fn shift_respects_cutoff() {
        let c = carrow(cvar(0), cvar(3));
        let shifted = shift_con(&c, 2, 1);
        assert_eq!(shifted, carrow(cvar(0), cvar(5)));
    }

    #[test]
    fn shift_crosses_binders() {
        // λα:T. α → β where β is free (index 1 inside the lambda).
        let c = clam(tkind(), carrow(cvar(0), cvar(1)));
        let shifted = shift_con(&c, 1, 0);
        assert_eq!(shifted, clam(tkind(), carrow(cvar(0), cvar(2))));
    }

    #[test]
    fn shift_zero_is_identity() {
        let c = mu(tkind(), cvar(0));
        assert_eq!(shift_con(&c, 0, 0), c);
    }

    #[test]
    fn subst_con_beta() {
        // (λα:T. α ⇀ β)[int] where β is the next binder out: the body is
        // α(0) ⇀ β(1); substituting int for index 0 gives int ⇀ β(0).
        let body = carrow(cvar(0), cvar(1));
        let out = subst_con_con(&body, &Con::Int);
        assert_eq!(out, carrow(Con::Int, cvar(0)));
    }

    #[test]
    fn subst_con_avoids_capture() {
        // body = λγ:T. α(1) ; substituting `β(0)` (a free var) for α must
        // shift the replacement under the λ: result λγ:T. β(1).
        let body = clam(tkind(), cvar(1));
        let out = subst_con_con(&body, &cvar(0));
        assert_eq!(out, clam(tkind(), cvar(1)));
    }

    #[test]
    fn untouched_subtrees_come_back_pointer_identical() {
        // shift by 1 at cutoff 1 of (β(0) ⇀ γ(2)): the left child is
        // below the cutoff and must be the *same* node, not a rebuild.
        let c = crate::intern::hc(carrow(cvar(0), cvar(2)));
        let Con::Arrow(l0, _) = &*c else {
            unreachable!()
        };
        let shifted = shift_con_hc(&c, 1, 1);
        let Con::Arrow(l1, r1) = &*shifted else {
            panic!("shift changed the head")
        };
        assert!(HC::ptr_eq(l0, l1));
        assert_eq!(**r1, cvar(3));
        // A shift that cannot touch anything returns the root unchanged.
        let noop = shift_con_hc(&c, 5, 3);
        assert!(HC::ptr_eq(&c, &noop));
    }

    #[test]
    fn noop_subst_returns_identical_pointer() {
        // Substituting for a binder the body never mentions.
        let body = crate::intern::hc(carrow(Con::Int, cvar(1)));
        let out = subst_con_con_hc(&body, &crate::intern::hc(Con::Bool));
        // Not pointer-identical (index 1 decrements to 0), but a body
        // strictly below the binder is:
        let closed = crate::intern::hc(carrow(Con::Int, cvar(0)));
        // fv_bound = 1 > 0 → the var *is* the target; rebuilds.
        assert_eq!(*out, carrow(Con::Int, cvar(0)));
        let fully_closed = crate::intern::hc(carrow(Con::Int, Con::Bool));
        let same = subst_con_con_hc(&fully_closed, &crate::intern::hc(Con::Bool));
        assert!(HC::ptr_eq(&fully_closed, &same));
        drop(closed);
    }

    fn probes() -> u64 {
        let s = crate::intern::intern_stats();
        s.hits + s.misses
    }

    #[test]
    fn a_repeated_rewrite_is_answered_by_the_memo() {
        // λα:T. α ⇀ β(1): a shift at cutoff 0 rebuilds the whole spine.
        let c = crate::intern::hc(clam(tkind(), carrow(cvar(0), cvar(1))));
        let first = shift_con_hc(&c, 2, 0);
        let before = probes();
        let again = shift_con_hc(&c, 2, 0);
        assert_eq!(probes(), before, "a repeat makes no intern probe");
        assert!(HC::ptr_eq(&first, &again));
        // Another amount is another key.
        assert_eq!(
            *shift_con_hc(&c, 3, 0),
            clam(tkind(), carrow(cvar(0), cvar(4)))
        );
        // A substitution keys by the caller's pointer to its
        // replacement, so a repeat makes no probe either.
        let body = crate::intern::hc(carrow(cvar(0), cvar(0)));
        let int = crate::intern::hc(Con::Int);
        let first = subst_con_con_hc(&body, &int);
        let before = probes();
        let again = subst_con_con_hc(&body, &int);
        assert_eq!(probes(), before, "a repeat makes no intern probe");
        assert!(HC::ptr_eq(&first, &again));
        assert_eq!(*again, carrow(Con::Int, Con::Int));
    }

    #[test]
    fn term_shifts_cross_every_binder() {
        use crate::dsl::*;
        // One of every term former, with indices on both sides of the
        // cutoff under each kind of binder.
        let sum = csum([Con::Int, cvar(2)]);
        let term = |v: [usize; 9]| {
            let_(
                app(
                    lam(tcon(cvar(v[0])), pair(var(0), var(v[1]))),
                    tapp(tlam(tkind(), proj1(snd(v[2]))), fst(v[3])),
                ),
                fix(
                    partial(tcon(Con::Int), tcon(cvar(v[4]))),
                    ite(
                        prim(crate::ast::PrimOp::Lt, int(1), var(v[5])),
                        case(inj(1, sum.clone(), var(v[6])), [var(0), proj2(var(v[7]))]),
                        unroll(roll(sum.clone(), fail(tcon(fst(v[8]))))),
                    ),
                ),
            )
        };
        let t = term([1, 3, 2, 4, 5, 2, 7, 9, 6]);
        let shifted = term([3, 5, 4, 6, 7, 2, 9, 11, 8]);
        assert_eq!(shift_term(&t, 2, 1), shifted);
        let mut in_place = t;
        crate::map::map_term_mut(&mut in_place, 0, &mut Shift { by: 2, cutoff: 1 });
        assert_eq!(in_place, shifted);
    }

    #[test]
    fn closed_types_come_back_pointer_identical() {
        // ∀α:T. (α ⇀ int) × 1 has no free index: no shift or
        // substitution can touch it.
        let t = crate::intern::hc(crate::dsl::forall(
            tkind(),
            crate::dsl::tprod(crate::dsl::partial(tcon(cvar(0)), tcon(Con::Int)), Ty::Unit),
        ));
        assert_eq!(t.fv_bound(), 0);
        for by in [-3, -1, 1, 7] {
            assert!(HC::ptr_eq(&shift_ty_hc(&t, by, 0), &t));
        }
        assert!(HC::ptr_eq(
            &subst_con_ty_hc(&t, &crate::intern::hc(Con::Bool)),
            &t
        ));
        assert!(HC::ptr_eq(
            &subst_con_ty_hc(&t, &crate::intern::hc(cvar(4))),
            &t
        ));
    }

    #[test]
    fn a_type_shifted_up_and_back_is_the_input_pointer() {
        // ∀α:Q(β). α ⇀ γ with β, γ free (indices 1 and 3 under α).
        let t = crate::intern::hc(crate::dsl::forall(
            q(cvar(0)),
            crate::dsl::partial(tcon(cvar(0)), tcon(cvar(3))),
        ));
        for k in [1, 2, 5] {
            let up = shift_ty_hc(&t, k, 0);
            assert!(!HC::ptr_eq(&up, &t));
            assert!(HC::ptr_eq(&shift_ty_hc(&up, -k, 0), &t));
            // The same round trip above the first free index.
            let above = shift_ty_hc(&t, k, 1);
            assert!(HC::ptr_eq(&shift_ty_hc(&above, -k, 1), &t));
        }
    }

    #[test]
    fn subst_term_under_lambda() {
        // body = λy:1. x(1); substitute 42 for x.
        let body = Term::Lam(hc(Ty::Unit), Box::new(Term::Var(1)));
        let out = subst_term_term(&body, &Term::IntLit(42));
        assert_eq!(out, Term::Lam(hc(Ty::Unit), Box::new(Term::IntLit(42))));
    }

    #[test]
    fn subst_mod_redirects_fst_and_snd() {
        // e = snd(s₀) applied to Fst-typed thing… keep it simple:
        // e = (snd(0), snd(1)); substituting [int, 42] for s₀ gives (42, snd(0)).
        let e = Term::Pair(Box::new(Term::Snd(0)), Box::new(Term::Snd(1)));
        let parts = ModParts {
            fst: Con::Int,
            snd: Some(Term::IntLit(42)),
        };
        let out = subst_mod_term(&e, &parts);
        assert_eq!(
            out,
            Term::Pair(Box::new(Term::IntLit(42)), Box::new(Term::Snd(0)))
        );
    }

    #[test]
    fn subst_mod_whole_module() {
        let m = Module::Var(0);
        let parts = ModParts {
            fst: Con::Int,
            snd: Some(Term::IntLit(7)),
        };
        let out = subst_mod_module(&m, &parts);
        assert_eq!(out, Module::Struct(Con::Int, Term::IntLit(7)));
    }

    #[test]
    fn subst_mod_sig_static_only() {
        // S = [α:Q(Fst(s₀)) . 1]; substituting fst=int gives [α:Q(int).1].
        let s = sig(q(fst(0)), Ty::Unit);
        let out = subst_mod_sig(
            &s,
            &ModParts {
                fst: Con::Int,
                snd: None,
            },
        );
        assert_eq!(out, sig(q(Con::Int), Ty::Unit));
    }

    #[test]
    fn subst_mod_under_sig_binder_shifts() {
        // S = [α:T . Con(Fst(s₀+1 under α = index 1))]: the type component
        // sits under the α binder, so s₀ appears as index 1 there.
        let s = sig(tkind(), tcon(fst(1)));
        let out = subst_mod_sig(
            &s,
            &ModParts {
                fst: Con::Bool,
                snd: None,
            },
        );
        assert_eq!(out, sig(tkind(), tcon(Con::Bool)));
    }
}
