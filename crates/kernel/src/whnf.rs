//! Weak-head normalization of constructors.
//!
//! The reduction relation performs:
//!
//! * β-reduction for constructor functions and pairs;
//! * unrolling of `μ` constructors *in elimination position* (a `μ` of
//!   `Π` kind that is applied, or of `Σ` kind that is projected) — these
//!   unrollings are definitional in every [`RecMode`](crate::RecMode),
//!   since iso-recursion in this development concerns only monotypes;
//! * *singleton head expansion* (Stone–Harper): a stuck path whose
//!   natural kind is `Q(c)` steps to `c` — this is how declared type
//!   sharing (including the sharing recorded by a resolved rds)
//!   propagates;
//! * collapse of `μ` at a fully transparent kind: `μα:Q(c).b = c`, the
//!   paper's §2.1 observation that `μα:Q(int).α` equals `int`.
//!
//! Heads that remain are: `λ`, pairs, `*`, the monotype formers, `μ` at
//! an opaque kind, and stuck paths of non-singleton natural kind.
//!
//! Two engines implement this relation (see [`crate::EquivEngine`]):
//! the NbE-style environment machine in [`crate::nbe`] (the default,
//! S17) and the substitution loop in this module ([`Tc::whnf_uncached`]
//! internally), kept as the reference for differential testing (selected
//! only through [`crate::set_thread_engine`] or [`Tc::with_engine`]).
//! Both are held to identical outputs and errors; they differ only in
//! fuel/counter accounting (`whnf_steps` counts the substitution loop,
//! `eval_steps`/`quote_nodes`/`env_allocs` the machine).

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::subst::{subst_con_con_hc, subst_con_kind_hc};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::singleton::{fully_transparent, kind_definition};
use crate::Tc;

/// Unrolls a `μ` constructor once: `μα:κ.c ↦ c[μα:κ.c/α]`.
///
/// # Errors
///
/// Returns [`TypeError::Internal`] if `c` is not a `μ` — every caller
/// matches on `Con::Mu` first, so reaching the error indicates a bug in
/// the caller, reported as a diagnostic instead of a panic.
pub fn unroll_mu(c: &HC<Con>) -> TcResult<HC<Con>> {
    match &**c {
        Con::Mu(_, body) => Ok(subst_con_con_hc(body, c)),
        _ => raise(TypeError::Internal(format!(
            "unroll_mu: not a μ constructor: {}",
            show::con(c)
        ))),
    }
}

/// Is the `μ` constructor *contractive* — does every elimination of it
/// make progress? Unrolling a non-contractive `μ` (such as `μα:κ.α`,
/// `μα.μβ.α`, `μp.⟨π₁p, int⟩`, or `μf.λα.f α`) reproduces the redex, so
/// normalization and equivalence treat such constructors as inert: they
/// are equal only to themselves. This generalizes the Amadio–Cardelli
/// condition to `Σ`/`Π`-kinded `μ`s: a pair component may *defer* to a
/// sibling component through a projection of the recursive variable
/// (which terminates), but a **cycle** of such deferrals — or a bare
/// head occurrence — does not.
///
/// A non-`μ` argument is (vacuously) not a contractive `μ`, so the
/// function answers `false` rather than panicking.
pub fn is_contractive(c: &Con) -> bool {
    let Con::Mu(_, body) = c else {
        return false;
    };
    // Flatten the body's pair tree into components; record, for each, the
    // sibling components its head defers to.
    let mut tree = Tree::default();
    let mut heads: Vec<HeadInfo> = Vec::new();
    build_tree(body, &mut tree, &mut heads, &[]);
    // Bare head occurrence → no progress possible.
    if heads.iter().any(|h| h.self_var) {
        return false;
    }
    // Cycle detection over deferral edges (conservatively treating an
    // unresolvable projection path as a deferral to the nearest leaf).
    let n = heads.len();
    let edges: Vec<Vec<usize>> = heads
        .iter()
        .map(|h| h.defers.iter().filter_map(|p| tree.resolve(p)).collect())
        .collect();
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    fn dfs(v: usize, edges: &[Vec<usize>], state: &mut [u8]) -> bool {
        state[v] = 1;
        for &w in &edges[v] {
            if state[w] == 1 {
                return false; // cycle
            }
            if state[w] == 0 && !dfs(w, edges, state) {
                return false;
            }
        }
        state[v] = 2;
        true
    }
    (0..n).all(|v| state[v] != 0 || dfs(v, &edges, &mut state))
}

/// The pair tree of a μ body: internal nodes are pairs, leaves are
/// component indices.
#[derive(Debug, Default)]
enum Tree {
    #[default]
    Empty,
    Leaf(usize),
    Pair(Box<Tree>, Box<Tree>),
}

impl Tree {
    /// Follows a projection path (innermost projection first: `π₁(π₂ α)`
    /// is `[right, left]`). A path that stops inside an internal node or
    /// runs past a leaf resolves to the nearest leaf (conservative).
    fn resolve(&self, path: &[bool]) -> Option<usize> {
        match (self, path.split_first()) {
            (Tree::Leaf(i), _) => Some(*i),
            (Tree::Pair(l, r), Some((&step, rest))) => {
                if step {
                    r.resolve(rest)
                } else {
                    l.resolve(rest)
                }
            }
            // Path exhausted at an internal node: the reference grabs a
            // whole subtree; defer to every leaf underneath (handled by
            // the caller resolving each side) — conservatively pick the
            // leftmost leaf, which shares the subtree's cycle structure.
            (Tree::Pair(l, _), None) => l.resolve(&[]),
            (Tree::Empty, _) => None,
        }
    }
}

/// Head analysis of one component.
#[derive(Debug, Default)]
struct HeadInfo {
    /// The recursive variable appears bare in head position.
    self_var: bool,
    /// Projection paths of the recursive variable appearing in head
    /// position (innermost projection first).
    defers: Vec<Vec<bool>>,
}

/// Splits `body` into pair-tree leaves, analysing each leaf's head.
fn build_tree(body: &Con, tree: &mut Tree, heads: &mut Vec<HeadInfo>, _path: &[bool]) {
    match body {
        Con::Pair(a, b) => {
            let mut l = Tree::Empty;
            let mut r = Tree::Empty;
            build_tree(a, &mut l, heads, _path);
            build_tree(b, &mut r, heads, _path);
            *tree = Tree::Pair(Box::new(l), Box::new(r));
        }
        leaf => {
            let mut info = HeadInfo::default();
            analyze_head(leaf, 0, &mut Vec::new(), &mut info);
            let idx = heads.len();
            heads.push(info);
            *tree = Tree::Leaf(idx);
        }
    }
}

/// Records head occurrences of the μ variable (at index `target`) in `c`.
/// `projs` accumulates the projection spine outside the current position
/// (innermost first once reversed at the variable).
fn analyze_head(c: &Con, target: usize, projs: &mut Vec<bool>, info: &mut HeadInfo) {
    match c {
        Con::Var(i) if *i == target => {
            if projs.is_empty() {
                info.self_var = true;
            } else {
                // projs were pushed outermost-first while descending;
                // resolution wants innermost-first.
                info.defers.push(projs.iter().rev().copied().collect());
            }
        }
        Con::Var(_) => {}
        Con::Proj1(p) => {
            projs.push(false);
            analyze_head(p, target, projs, info);
            projs.pop();
        }
        Con::Proj2(p) => {
            projs.push(true);
            analyze_head(p, target, projs, info);
            projs.pop();
        }
        Con::App(f, _) => {
            // Applying a component: a projection spine beneath an
            // application is progress-opaque; treat a reached variable as
            // a bare head occurrence (conservative).
            let mut sub = HeadInfo::default();
            let mut empty = Vec::new();
            analyze_head(f, target, &mut empty, &mut sub);
            if sub.self_var || !sub.defers.is_empty() {
                info.self_var = true;
            }
        }
        Con::Mu(_, b) | Con::Lam(_, b) => {
            // Descending under a binder: the target shifts. Projections
            // applied *outside* don't commute with the binder, so restart
            // the spine.
            let mut inner = Vec::new();
            analyze_head(b, target + 1, &mut inner, info);
        }
        Con::Pair(a, b) => {
            if let Some(step) = projs.pop() {
                // A projection applied to a literal pair is a redex:
                // analyse only the selected component (the innermost
                // projection, i.e. the most recently pushed step).
                let chosen = if step { b } else { a };
                analyze_head(chosen, target, projs, info);
                projs.push(step);
            } else {
                // A bare pair in head position (e.g. inside an inner μ):
                // both components are reachable by projection.
                analyze_head(a, target, &mut Vec::new(), info);
                analyze_head(b, target, &mut Vec::new(), info);
            }
        }
        // Monotype formers guard their contents.
        _ => {}
    }
}

impl Tc {
    /// Weak-head normalizes `c`.
    ///
    /// Results are memoized per `(context stamp, constructor)`, keyed by
    /// `c`'s own pointer: a stamp names one exact declaration stack and
    /// an interned node one exact constructor, so a cached answer is
    /// always the answer this function would recompute (see S12 in
    /// DESIGN.md). Only successful normalizations are recorded — errors
    /// (fuel, limits, ill-sorted input) always re-run.
    ///
    /// # Errors
    ///
    /// Fails on fuel exhaustion or on ill-sorted input (e.g. applying a
    /// constructor whose natural kind is not a `Π`).
    pub fn whnf(&self, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Con>> {
        let _j = recmod_telemetry::judgement_span("kernel.whnf");
        let _depth = self.descend("whnf")?;
        let _trace = recmod_telemetry::trace_span(|| format!("whnf {}", crate::show::con(c)));
        let key = (ctx.stamp(), c.clone());
        if let Some(w) = self.whnf_cached(&key) {
            crate::stats::TcStats::bump(&self.stat_cells().whnf_cache_hits);
            recmod_telemetry::count("kernel.whnf_cache_hit", 1);
            return Ok(w);
        }
        crate::stats::TcStats::bump(&self.stat_cells().whnf_cache_misses);
        recmod_telemetry::count("kernel.whnf_cache_miss", 1);
        let out = match self.engine() {
            crate::EquivEngine::Nbe => crate::nbe::machine_whnf(self, ctx, c)?,
            crate::EquivEngine::Subst => self.whnf_uncached(ctx, c)?,
        };
        self.whnf_remember(key, out.clone());
        Ok(out)
    }

    /// The reduction loop behind [`Tc::whnf`].
    fn whnf_uncached(&self, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Con>> {
        let mut c = c.clone();
        loop {
            self.burn(crate::stats::FuelOp::Whnf)?;
            let next = match &*c {
                Con::App(f, a) => {
                    let f = self.whnf(ctx, f)?;
                    match &*f {
                        Con::Lam(_, body) => subst_con_con_hc(body, a),
                        Con::Mu(_, _) if self.is_contractive_cached(&f) => {
                            crate::stats::TcStats::bump(&self.stat_cells().mu_unrolls);
                            hc(Con::App(self.unroll_mu_cached(&f)?, a.clone()))
                        }
                        _ => {
                            let stuck = Con::App(f.clone(), a.clone());
                            match self.natural_kind(ctx, &stuck)?.as_deref() {
                                Some(Kind::Singleton(next)) => next.clone(),
                                _ => return Ok(hc(stuck)),
                            }
                        }
                    }
                }
                Con::Proj1(p) => {
                    let p = self.whnf(ctx, p)?;
                    match &*p {
                        Con::Pair(l, _) => l.clone(),
                        Con::Mu(_, _) if self.is_contractive_cached(&p) => {
                            crate::stats::TcStats::bump(&self.stat_cells().mu_unrolls);
                            hc(Con::Proj1(self.unroll_mu_cached(&p)?))
                        }
                        _ => {
                            let stuck = Con::Proj1(p.clone());
                            match self.natural_kind(ctx, &stuck)?.as_deref() {
                                Some(Kind::Singleton(next)) => next.clone(),
                                _ => return Ok(hc(stuck)),
                            }
                        }
                    }
                }
                Con::Proj2(p) => {
                    let p = self.whnf(ctx, p)?;
                    match &*p {
                        Con::Pair(_, r) => r.clone(),
                        Con::Mu(_, _) if self.is_contractive_cached(&p) => {
                            crate::stats::TcStats::bump(&self.stat_cells().mu_unrolls);
                            hc(Con::Proj2(self.unroll_mu_cached(&p)?))
                        }
                        _ => {
                            let stuck = Con::Proj2(p.clone());
                            match self.natural_kind(ctx, &stuck)?.as_deref() {
                                Some(Kind::Singleton(next)) => next.clone(),
                                _ => return Ok(hc(stuck)),
                            }
                        }
                    }
                }
                Con::Var(_) | Con::Fst(_) => match self.natural_kind(ctx, &c)?.as_deref() {
                    Some(Kind::Singleton(next)) => next.clone(),
                    _ => return Ok(c),
                },
                Con::Mu(k, _) if fully_transparent(k) => {
                    // μα:κ.b = the canonical inhabitant of κ when κ pins
                    // down its inhabitant completely (e.g. μα:Q(int).α = int).
                    hc(kind_definition(k).ok_or_else(|| {
                        TypeError::Internal(format!(
                            "fully transparent kind without a definition: {}",
                            show::kind(k)
                        ))
                    })?)
                }
                _ => return Ok(c),
            };
            c = next;
            // Every arm either returned (head normal / stuck) or reduced
            // and fell through to here: count one head-reduction step.
            crate::stats::TcStats::bump(&self.stat_cells().whnf_steps);
        }
    }

    /// The *natural kind* of a path (variable, `Fst`, application, or
    /// projection chain): the kind obtained from the declared kind of its
    /// head by the elimination rules, without any singleton promotion.
    ///
    /// Returns `Ok(None)` if `c` is not a path. The path itself is only
    /// inspected, so it may be an uninterned node over interned children.
    pub fn natural_kind(&self, ctx: &mut Ctx, c: &Con) -> TcResult<Option<HC<Kind>>> {
        let _j = recmod_telemetry::judgement_span("kernel.natural_kind");
        let _depth = self.descend("natural_kind")?;
        match c {
            Con::Var(i) => Ok(Some(ctx.lookup_con(*i)?)),
            Con::Fst(i) => Ok(Some(ctx.lookup_fst_kind(*i)?)),
            Con::App(f, a) => {
                let Some(fk) = self.natural_kind(ctx, f)? else {
                    return Ok(None);
                };
                match &*fk {
                    Kind::Pi(_, k2) => Ok(Some(subst_con_kind_hc(k2, a))),
                    k => raise(TypeError::NotAPiKind(show::kind(k))),
                }
            }
            Con::Proj1(p) => {
                let Some(pk) = self.natural_kind(ctx, p)? else {
                    return Ok(None);
                };
                match &*pk {
                    Kind::Sigma(k1, _) => Ok(Some(k1.clone())),
                    k => raise(TypeError::NotASigmaKind(show::kind(k))),
                }
            }
            Con::Proj2(p) => {
                let Some(pk) = self.natural_kind(ctx, p)? else {
                    return Ok(None);
                };
                match &*pk {
                    Kind::Sigma(_, k2) => {
                        Ok(Some(subst_con_kind_hc(k2, &hc(Con::Proj1(p.clone())))))
                    }
                    k => raise(TypeError::NotASigmaKind(show::kind(k))),
                }
            }
            _ => Ok(None),
        }
    }

    /// Weak-head normalizes under the assumption that `c` is a monotype
    /// and unrolls a leading `μ` once (used by `roll`/`unroll` checking).
    pub fn whnf_unroll(&self, ctx: &mut Ctx, c: &HC<Con>) -> TcResult<HC<Con>> {
        let w = self.whnf(ctx, c)?;
        match &*w {
            Con::Mu(_, _) => self.unroll_mu_cached(&w),
            _ => raise(TypeError::NotAMu(show::con(&w))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Entry;
    use recmod_syntax::ast::Sig;
    use recmod_syntax::dsl::*;

    #[test]
    fn beta_reduces() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = capp(clam(tkind(), carrow(cvar(0), cvar(0))), Con::Int);
        assert_eq!(
            tc.whnf(&mut ctx, &hc(c.clone())).unwrap(),
            hc(carrow(Con::Int, Con::Int))
        );
    }

    #[test]
    fn a_repeated_whnf_is_a_memo_hit_that_interns_nothing() {
        let probes = || {
            let s = recmod_syntax::intern::intern_stats();
            s.hits + s.misses
        };
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(q(carrow(Con::Int, Con::Bool))), |ctx| {
            // (λα:T. β) int, with β : Q(int ⇀ bool): a β-step and a
            // singleton expansion.
            let c = hc(capp(clam(tkind(), cvar(1)), Con::Int));
            let first = tc.whnf(ctx, &c).unwrap();
            assert_eq!(*first, carrow(Con::Int, Con::Bool));
            let hits = tc.stats().whnf_cache_hits;
            let before = probes();
            let again = tc.whnf(ctx, &c).unwrap();
            assert_eq!(probes(), before, "a memo hit makes no intern probe");
            assert_eq!(tc.stats().whnf_cache_hits, hits + 1);
            assert!(HC::ptr_eq(&first, &again));
        });
    }

    #[test]
    fn projects_pairs() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(
            tc.whnf(&mut ctx, &hc(cproj2(cpair(Con::Int, Con::Bool))))
                .unwrap(),
            hc(Con::Bool)
        );
    }

    #[test]
    fn singleton_variable_expands() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(q(Con::Int)), |ctx| {
            assert_eq!(tc.whnf(ctx, &hc(cvar(0))).unwrap(), hc(Con::Int));
        });
    }

    #[test]
    fn opaque_variable_is_stuck() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(tkind()), |ctx| {
            assert_eq!(tc.whnf(ctx, &hc(cvar(0))).unwrap(), hc(cvar(0)));
        });
    }

    #[test]
    fn mu_at_singleton_kind_collapses() {
        // μα:Q(int).α = int    (paper §2.1)
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(q(Con::Int), cvar(0));
        assert_eq!(tc.whnf(&mut ctx, &hc(c.clone())).unwrap(), hc(Con::Int));
    }

    #[test]
    fn mu_at_type_kind_is_head_normal() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(tc.whnf(&mut ctx, &hc(c.clone())).unwrap(), hc(c));
    }

    #[test]
    fn vacuous_mu_is_head_normal() {
        // μα:T.α — uninhabited but well-formed; must not loop.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(tkind(), cvar(0));
        assert_eq!(tc.whnf(&mut ctx, &hc(c.clone())).unwrap(), hc(c));
    }

    #[test]
    fn mu_at_sigma_kind_unrolls_under_projection() {
        // π₁(μp:T×T.⟨int ⇀ π₂p, bool⟩) — unrolls once, then projects.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let body = cpair(carrow(Con::Int, cproj2(cvar(0))), Con::Bool);
        let m = mu(sigma(tkind(), tkind()), body);
        let out = tc.whnf(&mut ctx, &hc(cproj1(m.clone()))).unwrap();
        assert_eq!(out, hc(carrow(Con::Int, cproj2(m))));
    }

    #[test]
    fn fst_of_transparent_structure_expands() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = Sig::Struct(hc(q(Con::Int)), hc(tcon(cvar(0))));
        ctx.with(Entry::Struct(s, true), |ctx| {
            assert_eq!(tc.whnf(ctx, &hc(fst(0))).unwrap(), hc(Con::Int));
        });
    }

    #[test]
    fn higher_order_singleton_expands_under_application() {
        // c : Πα:T.Q(α ⇀ α)  ⇒  c int whnf's to int ⇀ int.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let k = pi(tkind(), q(carrow(cvar(0), cvar(0))));
        ctx.with_con(hc(k.clone()), |ctx| {
            let out = tc.whnf(ctx, &hc(capp(cvar(0), Con::Int))).unwrap();
            assert_eq!(out, hc(carrow(Con::Int, Con::Int)));
        });
    }

    #[test]
    fn mu_reaching_itself_through_a_pair_is_inert() {
        // μp:T×T.⟨π₁p, int⟩ makes no progress when projected: unrolling
        // reproduces the projection. The contractiveness check must see
        // through the pair and leave the projection stuck (not spin fuel).
        let tc = Tc::new();
        tc.set_fuel(1_000);
        let mut ctx = Ctx::new();
        let m = mu(sigma(tkind(), tkind()), cpair(cproj1(cvar(0)), Con::Int));
        assert!(!is_contractive(&m));
        let stuck = tc.whnf(&mut ctx, &hc(cproj1(m.clone()))).unwrap();
        assert_eq!(stuck, hc(cproj1(m)));
    }

    #[test]
    fn mu_reaching_itself_through_a_lambda_is_inert() {
        // μf:T→T.λα.f α — unrolling under application loops; inert instead.
        let tc = Tc::new();
        tc.set_fuel(1_000);
        let mut ctx = Ctx::new();
        let m = mu(pi(tkind(), tkind()), clam(tkind(), capp(cvar(1), cvar(0))));
        assert!(!is_contractive(&m));
        let stuck = tc.whnf(&mut ctx, &hc(capp(m.clone(), Con::Int))).unwrap();
        assert_eq!(stuck, hc(capp(m, Con::Int)));
    }

    #[test]
    fn guarded_higher_kind_mu_stays_contractive() {
        // μf:T→T.λα. int ⇀ f α — the self-reference is guarded by the
        // arrow, so elimination makes progress.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = mu(
            pi(tkind(), tkind()),
            clam(tkind(), carrow(Con::Int, capp(cvar(1), cvar(0)))),
        );
        assert!(is_contractive(&m));
        let out = tc.whnf(&mut ctx, &hc(capp(m.clone(), Con::Bool))).unwrap();
        // One unroll + β: int ⇀ (μf.… bool).
        assert_eq!(out, hc(carrow(Con::Int, capp(m, Con::Bool))));
    }

    #[test]
    fn fuel_exhaustion_is_an_error_not_a_hang() {
        let tc = Tc::new();
        tc.set_fuel(10);
        let mut ctx = Ctx::new();
        // A self-application loop cannot be kinded, but whnf is syntax-driven;
        // build ω = (λα:T.α α)(λα:T.α α) to exercise the bound.
        let omega_half = clam(tkind(), capp(cvar(0), cvar(0)));
        let omega = capp(omega_half.clone(), omega_half);
        assert!(matches!(
            tc.whnf(&mut ctx, &hc(omega.clone())),
            Err(TypeError::FuelExhausted { .. })
        ));
    }
}
