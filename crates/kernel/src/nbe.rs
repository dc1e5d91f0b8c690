//! NbE-style environment machine for weak-head normalization (S17).
//!
//! The substitution engine in [`crate::whnf`] re-walks constructor
//! spines on every β-step: `App(Lam(_, b), a)` builds `b[a/0]`
//! eagerly, shifting and re-interning along the way, and a long
//! elimination spine pays that cost once per frame. This module
//! replaces the hot path with a small environment machine in the
//! normalization-by-evaluation style: the machine state is
//!
//! * `code` — a hash-consed constructor fragment, *not yet* closed,
//! * `env` — an environment mapping the de Bruijn indices eliminated
//!   so far to *closures* (suspended arguments paired with the
//!   environment they close over), and
//! * `spine` — a stack of pending elimination frames (applications
//!   and projections).
//!
//! β-redexes never substitute: `App(Lam(_, b), a)` just conses the
//! closure of `a` onto the environment and continues into `b`.
//! Syntax is *quoted back* (read back) only where the machine stops —
//! at a stuck path, a head-normal form, or a `μ` that must be
//! consulted by the contractiveness test — via a single simultaneous
//! substitution ([`EnvSubst`]) that rides the sharing-preserving
//! `fv_bound` fast path of [`recmod_syntax::map`].
//!
//! # Exact agreement with the substitution engine
//!
//! The machine maintains the invariant that the eager engine's
//! current term is always `spine[readback(code, env)]`, and readback
//! is exactly the composition of the single-variable substitutions the
//! eager engine would have performed. Every transition below mirrors
//! one step of [`Tc::whnf`]'s substitution loop — including the order
//! in which `natural_kind` is consulted during stuck rebuilding, the
//! singleton head-expansion steps, the `μ`-collapse at fully
//! transparent kinds, and contractive `μ`-unrolling (which runs on the
//! *quoted* `μ`, so [`crate::whnf::is_contractive`] sees the very same
//! syntax either engine would test). The `nbe-differential` fuzz
//! class holds the two engines to identical verdicts, error codes,
//! and diagnostics.
//!
//! # Arena lifetime rules
//!
//! Environment nodes live in a per-[`Tc`] bump-style [`Arena`]: a
//! plain `Vec` that is cleared (capacity retained) whenever the
//! machine is entered at nesting depth 0, so steady-state runs
//! allocate nothing and **no transient node is ever interned** into
//! the S12 tables — only quoted roots are. No `EnvRef` escapes a run:
//! the machine's result is ordinary quoted syntax, and the memo
//! caches on [`Tc`] store only that. [`Tc::renew`] additionally
//! resets the arena, with the caches, so no stale environment can
//! survive a worker re-arm.

use std::cell::{Cell, RefCell};

use recmod_syntax::ast::{Con, Index, Kind, Module, Term};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::map::{map_con, map_con_hc, map_kind, VarMap};
use recmod_syntax::subst::shift_con;

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::singleton::{fully_transparent, kind_definition};
use crate::stats::{FuelOp, TcStats};
use crate::Tc;

/// Index of an environment node in the arena; [`ENV_NIL`] is the empty
/// environment.
pub(crate) type EnvRef = u32;

/// The empty environment.
pub(crate) const ENV_NIL: EnvRef = u32::MAX;

/// One cons cell of a machine environment: a suspended argument
/// (a closure) plus the tail of the list.
#[derive(Debug)]
struct EnvNode {
    /// The suspended argument's code.
    code: HC<Con>,
    /// The environment the argument closes over.
    env: EnvRef,
    /// The rest of this environment.
    tail: EnvRef,
    /// `1 + length(tail)`: the number of eliminated binders this
    /// environment accounts for.
    len: u32,
    /// Cached depth-0 readback of `(code, env)`. A closure is shared
    /// by every occurrence of the variable it binds, so the first
    /// quote is remembered here and later occurrences only pay the
    /// per-site shift.
    quoted: Option<Con>,
}

/// A bump-style arena of environment nodes, owned by a [`Tc`].
///
/// See the module docs for the lifetime rules: nodes are transient,
/// cleared between machine runs, and never interned.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    nodes: RefCell<Vec<EnvNode>>,
    /// Machine nesting depth; the vector is cleared only at depth 0.
    depth: Cell<u32>,
}

impl Arena {
    /// Drops all nodes (capacity retained) and zeroes the nesting
    /// depth. Called between machine runs and by [`Tc::renew`] so no
    /// stale environment survives a re-arm
    /// (even after a panicking run abandoned mid-machine).
    pub(crate) fn reset(&self) {
        self.nodes.borrow_mut().clear();
        self.depth.set(0);
    }

    /// Conses the closure `(code, env)` onto `tail`.
    fn alloc(&self, code: HC<Con>, env: EnvRef, tail: EnvRef, stats: &TcStats) -> EnvRef {
        let mut nodes = self.nodes.borrow_mut();
        let len = if tail == ENV_NIL {
            1
        } else {
            nodes[tail as usize].len + 1
        };
        let id = nodes.len() as EnvRef;
        nodes.push(EnvNode {
            code,
            env,
            tail,
            len,
            quoted: None,
        });
        TcStats::bump(&stats.env_allocs);
        id
    }

    /// The number of binders `env` accounts for.
    fn env_len(&self, env: EnvRef) -> usize {
        if env == ENV_NIL {
            0
        } else {
            self.nodes.borrow()[env as usize].len as usize
        }
    }

    /// The `i`-th closure of `env` (0 = most recently bound), or `None`
    /// when `i` runs past the end of the list (a free variable).
    fn lookup(&self, env: EnvRef, i: usize) -> Option<(HC<Con>, EnvRef)> {
        let nodes = self.nodes.borrow();
        let mut cur = env;
        let mut i = i;
        loop {
            if cur == ENV_NIL {
                return None;
            }
            let node = &nodes[cur as usize];
            if i == 0 {
                return Some((node.code.clone(), node.env));
            }
            i -= 1;
            cur = node.tail;
        }
    }
}

/// A pending elimination frame. The spine is a stack: the *last*
/// element is the innermost elimination.
#[derive(Debug)]
enum Frame {
    /// An application's suspended argument.
    App {
        /// The argument's code.
        code: HC<Con>,
        /// The environment the argument closes over.
        env: EnvRef,
    },
    /// A pending first projection.
    Proj1,
    /// A pending second projection.
    Proj2,
}

/// Mirrors `SubstCon`'s wrong-sort policy (see `recmod_syntax::subst`):
/// a non-constructor occurrence captured by a constructor environment
/// can only arise from ill-sorted syntax, which the substitution engine
/// also rejects by panicking inside `subst_con_con`; the panic is
/// caught at the `recmodc` boundary and reported as a crash bundle.
/// Unreachable from constructor traversals: terms and modules never
/// occur inside `Con`/`Kind`, and `Fst` indices name structure
/// variables, which `Lam` never binds in well-sorted syntax.
#[allow(clippy::panic)]
fn wrong_sort() -> ! {
    panic!("readback: substituting a constructor environment at a non-constructor variable")
}

/// Readback: the simultaneous substitution that turns machine code
/// under an environment of `n` closures back into ordinary syntax.
/// At traversal depth `d`:
///
/// * `i < d` — bound inside the code: untouched;
/// * `d ≤ i < d + n` — eliminated binder: replaced by the closure's
///   own readback, shifted by `d` (exactly what a chain of
///   single-variable `SubstCon`s would have produced);
/// * `i ≥ d + n` — free: decremented by `n`, the number of binders
///   the machine consumed.
struct EnvSubst<'a> {
    arena: &'a Arena,
    stats: &'a TcStats,
    env: EnvRef,
    /// Length of `env`: the number of binders this readback removes.
    n: usize,
}

impl EnvSubst<'_> {
    /// Readback of the `rel`-th closure of the environment, memoized
    /// on its arena node.
    fn entry(&self, rel: usize) -> Con {
        let (idx, code, cenv) = {
            let nodes = self.arena.nodes.borrow();
            let mut cur = self.env;
            let mut rel = rel;
            loop {
                let node = &nodes[cur as usize];
                if rel == 0 {
                    if let Some(q) = &node.quoted {
                        return q.clone();
                    }
                    break (cur as usize, node.code.clone(), node.env);
                }
                rel -= 1;
                cur = node.tail;
            }
        };
        // The borrow is released before recursing: the closure's own
        // readback may consult (and memoize into) other arena nodes.
        let q = quote_con(self.arena, self.stats, &code, cenv);
        self.arena.nodes.borrow_mut()[idx].quoted = Some(q.clone());
        q
    }
}

impl VarMap for EnvSubst<'_> {
    fn cvar(&mut self, d: usize, i: Index) -> Con {
        if i < d {
            Con::Var(i)
        } else if i - d < self.n {
            let q = self.entry(i - d);
            shift_con(&q, d as isize, 0)
        } else {
            Con::Var(i - self.n)
        }
    }

    fn fst(&mut self, d: usize, i: Index) -> Con {
        if i < d {
            Con::Fst(i)
        } else if i - d < self.n {
            wrong_sort()
        } else {
            Con::Fst(i - self.n)
        }
    }

    fn tvar(&mut self, d: usize, i: Index) -> Term {
        if i < d {
            Term::Var(i)
        } else if i - d < self.n {
            wrong_sort()
        } else {
            Term::Var(i - self.n)
        }
    }

    fn snd(&mut self, d: usize, i: Index) -> Term {
        if i < d {
            Term::Snd(i)
        } else if i - d < self.n {
            wrong_sort()
        } else {
            Term::Snd(i - self.n)
        }
    }

    fn mvar(&mut self, d: usize, i: Index) -> Module {
        if i < d {
            Module::Var(i)
        } else if i - d < self.n {
            wrong_sort()
        } else {
            Module::Var(i - self.n)
        }
    }

    fn floor(&self) -> Option<usize> {
        Some(0)
    }
}

/// Quotes `c` under `env` back into ordinary syntax.
fn quote_con(arena: &Arena, stats: &TcStats, c: &Con, env: EnvRef) -> Con {
    if env == ENV_NIL {
        return c.clone();
    }
    TcStats::bump(&stats.quote_nodes);
    let n = arena.env_len(env);
    map_con(
        c,
        0,
        &mut EnvSubst {
            arena,
            stats,
            env,
            n,
        },
    )
}

/// Quotes a hash-consed constructor, preserving sharing (closed
/// subtrees come back pointer-identical).
fn quote_hc(arena: &Arena, stats: &TcStats, c: &HC<Con>, env: EnvRef) -> HC<Con> {
    if env == ENV_NIL {
        return c.clone();
    }
    TcStats::bump(&stats.quote_nodes);
    let n = arena.env_len(env);
    map_con_hc(
        c,
        0,
        &mut EnvSubst {
            arena,
            stats,
            env,
            n,
        },
    )
}

/// Quotes a kind under `env` (used for the `μ`-collapse test, whose
/// [`kind_definition`] must run on environment-free syntax).
fn quote_kind(arena: &Arena, stats: &TcStats, k: &Kind, env: EnvRef) -> Kind {
    if env == ENV_NIL {
        return k.clone();
    }
    TcStats::bump(&stats.quote_nodes);
    let n = arena.env_len(env);
    map_kind(
        k,
        0,
        &mut EnvSubst {
            arena,
            stats,
            env,
            n,
        },
    )
}

/// Runs the environment machine to weak-head normal form. This is the
/// NbE engine behind [`Tc::whnf`]; it produces exactly the syntax (and
/// exactly the errors, in the same order) that the substitution engine
/// would.
pub(crate) fn machine_whnf(tc: &Tc, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Con>> {
    let arena = tc.nbe_arena();
    if arena.depth.get() == 0 {
        // Fresh run: recycle the arena (capacity retained — this is
        // the "bump" in bump arena).
        arena.nodes.borrow_mut().clear();
    }
    arena.depth.set(arena.depth.get() + 1);
    let out = machine_loop(tc, ctx, c);
    arena.depth.set(arena.depth.get().saturating_sub(1));
    out
}

fn machine_loop(tc: &Tc, ctx: &mut Ctx, root: &HC<Con>) -> TcResult<HC<Con>> {
    let arena = tc.nbe_arena();
    let stats = tc.stat_cells();
    let mut code: HC<Con> = root.clone();
    let mut env: EnvRef = ENV_NIL;
    let mut spine: Vec<Frame> = Vec::new();
    'machine: loop {
        tc.burn(FuelOp::Whnf)?;
        TcStats::bump(&stats.eval_steps);
        // The substitution engine holds one recursion level per spine
        // frame; the machine is iterative, so it re-imposes the same
        // structural bound explicitly.
        if spine.len() >= tc.limits().max_depth {
            return raise(TypeError::Limit(tc.limits().depth_error("whnf")));
        }
        // Each arm either steps the machine (`continue 'machine`) or
        // produces the quoted head of a stuck / head-normal form and
        // falls through to the rebuild loop below.
        let head: HC<Con> = match &*code {
            Con::App(f, a) => {
                spine.push(Frame::App {
                    code: a.clone(),
                    env,
                });
                code = f.clone();
                continue 'machine;
            }
            Con::Proj1(p) => {
                spine.push(Frame::Proj1);
                code = p.clone();
                continue 'machine;
            }
            Con::Proj2(p) => {
                spine.push(Frame::Proj2);
                code = p.clone();
                continue 'machine;
            }
            Con::Lam(_, body) => match spine.pop() {
                Some(Frame::App { code: a, env: aenv }) => {
                    // β: no substitution — extend the environment.
                    env = arena.alloc(a, aenv, env, stats);
                    code = body.clone();
                    continue 'machine;
                }
                fr => {
                    // λ in head position (or under a projection frame,
                    // where it is stuck): quote and rebuild.
                    if let Some(fr) = fr {
                        spine.push(fr);
                    }
                    quote_hc(arena, stats, &code, env)
                }
            },
            Con::Pair(l, r) => match spine.pop() {
                Some(Frame::Proj1) => {
                    code = l.clone();
                    continue 'machine;
                }
                Some(Frame::Proj2) => {
                    code = r.clone();
                    continue 'machine;
                }
                fr => {
                    if let Some(fr) = fr {
                        spine.push(fr);
                    }
                    quote_hc(arena, stats, &code, env)
                }
            },
            Con::Var(i) => match arena.lookup(env, *i) {
                Some((ccode, cenv)) => {
                    // Jump into the closure the machine bound here.
                    code = ccode;
                    env = cenv;
                    continue 'machine;
                }
                None if env == ENV_NIL => code.clone(),
                None => hc(Con::Var(i - arena.env_len(env))),
            },
            Con::Fst(i) => {
                let n = arena.env_len(env);
                if *i < n {
                    wrong_sort();
                }
                if n == 0 {
                    code.clone()
                } else {
                    hc(Con::Fst(i - n))
                }
            }
            Con::Mu(k, _) => {
                if fully_transparent(k) {
                    // μα:κ.b = the canonical inhabitant of κ when κ is
                    // fully transparent (paper §2.1). Transparency is
                    // invariant under substitution, so the test runs on
                    // the raw kind; the definition must be read back.
                    let kq = quote_kind(arena, stats, k, env);
                    code = hc(kind_definition(&kq).ok_or_else(|| {
                        TypeError::Internal(format!(
                            "fully transparent kind without a definition: {}",
                            show::kind(&kq)
                        ))
                    })?);
                    env = ENV_NIL;
                    continue 'machine;
                }
                let m = quote_hc(arena, stats, &code, env);
                if !spine.is_empty() && tc.is_contractive_cached(&m) {
                    // Elimination position: one definitional unroll.
                    TcStats::bump(&stats.mu_unrolls);
                    code = tc.unroll_mu_cached(&m)?;
                    env = ENV_NIL;
                    continue 'machine;
                }
                // Head-normal (opaque kind, no elimination) or inert
                // (non-contractive under elimination): stuck.
                m
            }
            // Star and the monotype formers are head-normal; under an
            // incompatible frame they are stuck and rebuild below.
            Con::Star
            | Con::Int
            | Con::Bool
            | Con::UnitTy
            | Con::Arrow(..)
            | Con::Prod(..)
            | Con::Sum(..) => quote_hc(arena, stats, &code, env),
        };
        // Stuck rebuild. Mirrors the substitution engine exactly: a
        // bare variable head consults its natural kind first; then
        // each pending frame is re-applied innermost-first, asking for
        // the natural kind of the partial spine at every level, and a
        // singleton answer restarts the machine on the definition with
        // the *remaining* spine (Stone–Harper head expansion).
        if matches!(*head, Con::Var(_) | Con::Fst(_)) {
            if let Some(next) = singleton_definition(tc, ctx, &head)? {
                code = next;
                env = ENV_NIL;
                continue 'machine;
            }
        }
        let mut h = head;
        loop {
            let Some(fr) = spine.pop() else {
                return Ok(h);
            };
            let partial = match fr {
                Frame::App { code: a, env: aenv } => Con::App(h, quote_hc(arena, stats, &a, aenv)),
                Frame::Proj1 => Con::Proj1(h),
                Frame::Proj2 => Con::Proj2(h),
            };
            if let Some(next) = singleton_definition(tc, ctx, &partial)? {
                code = next;
                env = ENV_NIL;
                continue 'machine;
            }
            h = hc(partial);
        }
    }
}

/// The definition `c` of a path whose natural kind is `Q(c)`, if any.
fn singleton_definition(tc: &Tc, ctx: &mut Ctx, path: &Con) -> TcResult<Option<HC<Con>>> {
    Ok(match tc.natural_kind(ctx, path)?.as_deref() {
        Some(Kind::Singleton(next)) => Some(next.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use crate::ctx::Ctx;
    use crate::{EquivEngine, Limits, RecMode, Tc};
    use recmod_syntax::ast::Con;
    use recmod_syntax::dsl::*;
    use recmod_syntax::intern::hc;

    fn engines() -> (Tc, Tc) {
        (
            Tc::with_engine(EquivEngine::Nbe, RecMode::Equi, Limits::default()),
            Tc::with_engine(EquivEngine::Subst, RecMode::Equi, Limits::default()),
        )
    }

    /// Both engines must produce byte-identical weak-head normal forms.
    fn agree(ctx: &mut Ctx, c: &Con) {
        let (nbe, subst) = engines();
        let a = nbe.whnf(ctx, &hc(c.clone()));
        let b = subst.whnf(ctx, &hc(c.clone()));
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "engines disagree on {c:?}"),
            (Err(x), Err(y)) => assert_eq!(
                format!("{x}"),
                format!("{y}"),
                "engines disagree on the error for {c:?}"
            ),
            _ => panic!("verdict mismatch on {c:?}: nbe={a:?} subst={b:?}"),
        }
    }

    #[test]
    fn closure_shift_matches_sequential_substitution() {
        // (λα:T. λβ:T. α → β) int  ⇒  λβ:T. int → β — the captured
        // argument must be shifted under the surviving binder exactly
        // as SubstCon would shift it.
        let mut ctx = Ctx::new();
        let c = capp(
            clam(tkind(), clam(tkind(), carrow(cvar(1), cvar(0)))),
            Con::Int,
        );
        let (nbe, _) = engines();
        assert_eq!(
            nbe.whnf(&mut ctx, &hc(c.clone())).unwrap(),
            hc(clam(tkind(), carrow(Con::Int, cvar(0))))
        );
        agree(&mut ctx, &c);
    }

    #[test]
    fn nested_redexes_agree() {
        // ((λα. λβ. β × α) int) bool
        let mut ctx = Ctx::new();
        let c = capp(
            capp(
                clam(tkind(), clam(tkind(), cprod(cvar(0), cvar(1)))),
                Con::Int,
            ),
            Con::Bool,
        );
        let (nbe, _) = engines();
        assert_eq!(
            nbe.whnf(&mut ctx, &hc(c.clone())).unwrap(),
            hc(cprod(Con::Bool, Con::Int))
        );
        agree(&mut ctx, &c);
    }

    #[test]
    fn free_variables_decrement_past_the_environment() {
        // Under Γ = α:T (a stuck opaque variable), (λβ:T. β → α) int
        // must quote the free α back to index 0, not leave it at 1.
        let (nbe, subst) = engines();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(tkind()), |ctx| {
            let c = capp(clam(tkind(), carrow(cvar(0), cvar(1))), Con::Int);
            let expect = hc(carrow(Con::Int, cvar(0)));
            assert_eq!(nbe.whnf(ctx, &hc(c.clone())).unwrap(), expect);
            assert_eq!(subst.whnf(ctx, &hc(c.clone())).unwrap(), expect);
        });
    }

    #[test]
    fn argument_closures_do_not_leak_between_binders() {
        // (λα. (λβ. β) (α → α)) int — the inner argument closes over
        // the outer environment and must be read back through it.
        let mut ctx = Ctx::new();
        let c = capp(
            clam(
                tkind(),
                capp(clam(tkind(), cvar(0)), carrow(cvar(0), cvar(0))),
            ),
            Con::Int,
        );
        let (nbe, _) = engines();
        assert_eq!(
            nbe.whnf(&mut ctx, &hc(c.clone())).unwrap(),
            hc(carrow(Con::Int, Con::Int))
        );
        agree(&mut ctx, &c);
    }

    #[test]
    fn singleton_step_discards_the_environment() {
        // c : Πα:T.Q(α ⇀ α) applied under a β-redex: the machine takes
        // the singleton step with a non-empty spine and must restart
        // with a clean environment.
        let (nbe, subst) = engines();
        let mut ctx = Ctx::new();
        let k = pi(tkind(), q(carrow(cvar(0), cvar(0))));
        ctx.with_con(hc(k.clone()), |ctx| {
            let c = capp(clam(tkind(), capp(cvar(1), cvar(0))), Con::Int);
            let expect = hc(carrow(Con::Int, Con::Int));
            assert_eq!(nbe.whnf(ctx, &hc(c.clone())).unwrap(), expect);
            assert_eq!(subst.whnf(ctx, &hc(c.clone())).unwrap(), expect);
        });
    }

    #[test]
    fn mu_under_environment_unrolls_on_quoted_syntax() {
        // (λα:T. μf:T→T. λβ:T. α ⇀ f β) int, then applied: the μ is
        // quoted (int replaces α) before contractiveness/unrolling.
        let mut ctx = Ctx::new();
        let m = capp(
            clam(
                tkind(),
                mu(
                    pi(tkind(), tkind()),
                    clam(tkind(), carrow(cvar(2), capp(cvar(1), cvar(0)))),
                ),
            ),
            Con::Int,
        );
        let c = capp(m, Con::Bool);
        agree(&mut ctx, &c);
    }

    #[test]
    fn stuck_spines_agree_with_eager_rebuild() {
        let (nbe, subst) = engines();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(pi(tkind(), sigma(tkind(), tkind()))), |ctx| {
            let c = cproj2(capp(cvar(0), Con::Int));
            let a = nbe.whnf(ctx, &hc(c.clone())).unwrap();
            let b = subst.whnf(ctx, &hc(c.clone())).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, hc(c));
        });
    }

    #[test]
    fn ill_kinded_elimination_errors_identically() {
        // π₁ int is stuck with a non-Σ natural kind… but int is not a
        // path, so both engines return it stuck; applying a variable of
        // non-Π kind must raise the same NotAPiKind from both.
        let (nbe, subst) = engines();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(tkind()), |ctx| {
            let c = capp(cvar(0), Con::Int);
            let a = nbe.whnf(ctx, &hc(c.clone()));
            let b = subst.whnf(ctx, &hc(c.clone()));
            let (Err(ea), Err(eb)) = (a, b) else {
                panic!("expected NotAPiKind from both engines");
            };
            assert_eq!(format!("{ea}"), format!("{eb}"));
            assert_eq!(ea.code(), eb.code());
        });
    }

    #[test]
    fn machine_reports_eval_counters_and_subst_does_not() {
        let (nbe, subst) = engines();
        let mut ctx = Ctx::new();
        let c = capp(clam(tkind(), carrow(cvar(0), cvar(0))), Con::Int);
        nbe.whnf(&mut ctx, &hc(c.clone())).unwrap();
        subst.whnf(&mut ctx, &hc(c.clone())).unwrap();
        let (sn, ss) = (nbe.stats(), subst.stats());
        assert!(sn.eval_steps > 0 && sn.env_allocs > 0);
        assert_eq!(sn.whnf_steps, 0, "whnf_steps is the subst engine's counter");
        assert_eq!(ss.eval_steps, 0);
        assert!(ss.whnf_steps > 0);
    }

    #[test]
    fn arena_is_recycled_between_runs() {
        let (nbe, _) = engines();
        let mut ctx = Ctx::new();
        let c = capp(clam(tkind(), carrow(cvar(0), cvar(0))), Con::Int);
        nbe.whnf(&mut ctx, &hc(c.clone())).unwrap();
        nbe.whnf(&mut ctx, &hc(c.clone())).unwrap();
        // Second run is answered by the whnf memo without re-running
        // the machine; a cold equivalent still must not accumulate.
        let d = capp(clam(tkind(), carrow(cvar(0), Con::Bool)), Con::Int);
        nbe.whnf(&mut ctx, &hc(d.clone())).unwrap();
        assert!(nbe.nbe_arena().nodes.borrow().len() <= 1);
    }
}
