//! Typing contexts.
//!
//! A context `Γ` is a stack of declarations over the unified de Bruijn
//! space of `recmod-syntax`: constructor variables `α:κ`, term variables
//! `x:σ` (valuable) or `x↑σ` (typeable but not valuable — the paper's
//! notation for recursively-bound variables inside their own definition),
//! and structure variables `s:S` / `s↑S`.
//!
//! Stored classifiers are expressed in the *prefix* of the context strictly
//! before the entry; lookups shift them by `index + 1` so they make sense
//! at the use site.
//!
//! Invariant: structure-variable entries always carry a *flat* signature
//! (`Sig::Struct`); recursively-dependent signatures are resolved to their
//! Figure-5 interpretation before being pushed.

use std::cell::Cell;

use recmod_syntax::ast::{Kind, Sig, Ty};
use recmod_syntax::intern::HC;
use recmod_syntax::subst::{shift_kind, shift_kind_hc, shift_sig, shift_ty_hc};

use crate::error::{raise, TcResult, TypeError};

thread_local! {
    /// Source of fresh context stamps; `0` is reserved for the empty
    /// context, so the counter starts at 1.
    static NEXT_STAMP: Cell<u64> = const { Cell::new(1) };
}

fn fresh_stamp() -> u64 {
    NEXT_STAMP.with(|c| {
        let s = c.get();
        c.set(s + 1);
        s
    })
}

/// One context declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// `α : κ` — a constructor variable.
    Con(Kind),
    /// `x : σ` (valuable = `true`) or `x ↑ σ` (valuable = `false`).
    Term(HC<Ty>, bool),
    /// `s : S` (valuable = `true`) or `s ↑ S` (valuable = `false`).
    Struct(Sig, bool),
}

/// A typing context.
///
/// Besides the declaration stack itself, the context carries a parallel
/// stack of *stamps*: every [`Ctx::push`] draws a fresh stamp from a
/// thread-local counter, and popping restores the previous one. Because
/// pushes are the only way to grow a context and stamps are never
/// reused, **equal stamps imply identical declaration stacks** (within
/// one thread) — the property the kernel's memo tables key on. The
/// empty context always has stamp `0`.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    entries: Vec<Entry>,
    stamps: Vec<u64>,
}

impl PartialEq for Ctx {
    fn eq(&self, other: &Self) -> bool {
        // Stamps are identity bookkeeping, not part of the context's
        // mathematical content.
        self.entries == other.entries
    }
}
impl Eq for Ctx {}

impl Ctx {
    /// The empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the context is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stamp identifying this exact declaration stack (see the type
    /// docs): `0` for the empty context, otherwise the stamp drawn when
    /// the innermost entry was pushed.
    pub fn stamp(&self) -> u64 {
        self.stamps.last().copied().unwrap_or(0)
    }

    /// Raw access to an entry by de Bruijn index (0 = innermost).
    pub fn entry(&self, index: usize) -> TcResult<&Entry> {
        let len = self.entries.len();
        if index < len {
            Ok(&self.entries[len - 1 - index])
        } else {
            raise(TypeError::Unbound {
                what: "variable",
                index,
            })
        }
    }

    /// Looks up a constructor variable, shifting its kind to the use site.
    pub fn lookup_con(&self, index: usize) -> TcResult<Kind> {
        match self.entry(index)? {
            Entry::Con(k) => Ok(shift_kind(k, (index + 1) as isize, 0)),
            _ => raise(TypeError::Unbound {
                what: "constructor variable",
                index,
            }),
        }
    }

    /// Looks up a term variable, shifting its type to the use site.
    /// Returns the type and the valuability of the variable.
    pub fn lookup_term(&self, index: usize) -> TcResult<(HC<Ty>, bool)> {
        match self.entry(index)? {
            Entry::Term(t, v) => Ok((shift_ty_hc(t, (index + 1) as isize, 0), *v)),
            _ => raise(TypeError::Unbound {
                what: "term variable",
                index,
            }),
        }
    }

    /// Looks up a structure variable, shifting its signature to the use
    /// site. Returns the signature and the valuability of the variable.
    pub fn lookup_struct(&self, index: usize) -> TcResult<(Sig, bool)> {
        match self.entry(index)? {
            Entry::Struct(s, v) => Ok((shift_sig(s, (index + 1) as isize, 0), *v)),
            _ => raise(TypeError::Unbound {
                what: "structure variable",
                index,
            }),
        }
    }

    /// Looks up the kind of a structure variable's static part, shifted
    /// to the use site: all that `Fst(s)` depends on. Unlike
    /// [`Ctx::lookup_struct`] it leaves the run-time type alone, so a
    /// lookup costs one memoized kind shift.
    pub fn lookup_fst_kind(&self, index: usize) -> TcResult<HC<Kind>> {
        let by = (index + 1) as isize;
        match self.entry(index)? {
            Entry::Struct(Sig::Struct(k, _), _) => Ok(shift_kind_hc(k, by, 0)),
            Entry::Struct(s, _) => raise(TypeError::Other(format!(
                "structure variable with unresolved signature {}",
                crate::show::sig(&shift_sig(s, by, 0))
            ))),
            _ => raise(TypeError::Unbound {
                what: "structure variable",
                index,
            }),
        }
    }

    /// Pushes a declaration. Callers that interleave pushes with other
    /// work (e.g. the elaborator, which mirrors surface scopes) must
    /// restore the context with [`Ctx::truncate`]; prefer [`Ctx::with`]
    /// when the extent is lexical.
    pub fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
        self.stamps.push(fresh_stamp());
    }

    /// Drops entries until only `len` remain.
    ///
    /// # Panics
    ///
    /// Panics if the context is already shorter than `len`.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            self.entries.len() >= len,
            "context shorter than truncation target"
        );
        self.entries.truncate(len);
        self.stamps.truncate(len);
    }

    /// Runs `f` with `entry` pushed, popping it afterwards (also on error).
    pub fn with<T>(&mut self, entry: Entry, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.push(entry);
        let out = f(self);
        self.entries.pop();
        self.stamps.pop();
        out
    }

    /// Convenience: `with` for a constructor declaration `α:κ`.
    pub fn with_con<T>(&mut self, k: Kind, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.with(Entry::Con(k), f)
    }

    /// Convenience: `with` for a term declaration.
    pub fn with_term<T>(&mut self, t: HC<Ty>, valuable: bool, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.with(Entry::Term(t, valuable), f)
    }

    /// Convenience: `with` for a structure declaration.
    ///
    /// # Panics
    ///
    /// Debug-asserts the invariant that pushed signatures are flat (rds
    /// must be resolved first).
    pub fn with_struct<T>(&mut self, s: Sig, valuable: bool, f: impl FnOnce(&mut Ctx) -> T) -> T {
        debug_assert!(
            matches!(s, Sig::Struct(_, _)),
            "context invariant: structure entries carry flat signatures"
        );
        self.with(Entry::Struct(s, valuable), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::Con;
    use recmod_syntax::intern::hc;

    #[test]
    fn lookup_shifts_to_use_site() {
        let mut ctx = Ctx::new();
        // Γ = α:T, β:Q(α)
        ctx.with_con(Kind::Type, |ctx| {
            ctx.with_con(
                Kind::Singleton(recmod_syntax::intern::hc(Con::Var(0))),
                |ctx| {
                    // β is index 0; its kind mentions α, which from here is index 1.
                    assert_eq!(
                        ctx.lookup_con(0).unwrap(),
                        Kind::Singleton(recmod_syntax::intern::hc(Con::Var(1)))
                    );
                    assert_eq!(ctx.lookup_con(1).unwrap(), Kind::Type);
                },
            )
        });
    }

    #[test]
    fn lookup_wrong_sort_fails() {
        let mut ctx = Ctx::new();
        ctx.with_term(hc(Ty::Unit), true, |ctx| {
            assert!(ctx.lookup_con(0).is_err());
            assert!(ctx.lookup_struct(0).is_err());
            assert!(ctx.lookup_term(0).is_ok());
        });
    }

    #[test]
    fn lookup_out_of_range_fails() {
        let ctx = Ctx::new();
        assert_eq!(
            ctx.lookup_con(0),
            raise(TypeError::Unbound {
                what: "variable",
                index: 0
            })
        );
    }

    #[test]
    fn with_pops_after_use() {
        let mut ctx = Ctx::new();
        ctx.with_con(Kind::Type, |_| ());
        assert!(ctx.is_empty());
    }

    #[test]
    fn stamps_identify_declaration_stacks() {
        let mut ctx = Ctx::new();
        assert_eq!(ctx.stamp(), 0);
        let s1 = ctx.with_con(Kind::Type, |ctx| {
            let s = ctx.stamp();
            assert_ne!(s, 0);
            s
        });
        // Back to empty, and a re-push gets a *fresh* stamp: the old one
        // is retired with the stack it named.
        assert_eq!(ctx.stamp(), 0);
        let s2 = ctx.with_con(Kind::Type, |ctx| ctx.stamp());
        assert_ne!(s1, s2);
    }

    #[test]
    fn fst_kind_lookup_agrees_with_the_full_signature() {
        use recmod_syntax::dsl::{carrow, cvar, q, sig, sigma, tcon};
        let mut ctx = Ctx::new();
        // Γ = α:T, s:[β:Σγ:Q(α).Q(γ ⇀ α) . β ⇀ int], x:1, y:1
        ctx.with_con(Kind::Type, |ctx| {
            let k = sigma(q(cvar(0)), q(carrow(cvar(0), cvar(1))));
            let s = sig(k, tcon(carrow(cvar(0), Con::Int)));
            ctx.with_struct(s, true, |ctx| {
                ctx.with_term(hc(Ty::Unit), true, |ctx| {
                    ctx.with_term(hc(Ty::Unit), true, |ctx| {
                        let (full, _) = ctx.lookup_struct(2).unwrap();
                        let Sig::Struct(want, _) = &full else {
                            panic!("flat signature expected")
                        };
                        let got = ctx.lookup_fst_kind(2).unwrap();
                        assert!(HC::ptr_eq(&got, want));
                        assert_eq!(*got, sigma(q(cvar(3)), q(carrow(cvar(0), cvar(4)))));
                        // Wrong sorts and unbound indices fail as before.
                        assert!(ctx.lookup_fst_kind(0).is_err());
                        assert!(ctx.lookup_fst_kind(3).is_err());
                        assert!(ctx.lookup_fst_kind(4).is_err());
                    })
                })
            })
        });
    }

    #[test]
    fn a_closed_term_lookup_is_the_stored_pointer() {
        let t = hc(recmod_syntax::dsl::partial(
            recmod_syntax::dsl::tcon(Con::Int),
            recmod_syntax::dsl::tcon(Con::Bool),
        ));
        let mut ctx = Ctx::new();
        ctx.with_term(t.clone(), true, |ctx| {
            ctx.with_con(Kind::Type, |ctx| {
                let (got, _) = ctx.lookup_term(1).unwrap();
                assert!(HC::ptr_eq(&got, &t));
            })
        });
    }

    #[test]
    fn valuability_flag_round_trips() {
        let mut ctx = Ctx::new();
        ctx.with_term(hc(Ty::Unit), false, |ctx| {
            let (_, v) = ctx.lookup_term(0).unwrap();
            assert!(!v);
        });
    }
}
