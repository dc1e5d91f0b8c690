//! # recmod-kernel
//!
//! The typechecker for the internal language of Crary, Harper, and Puri's
//! *"What is a Recursive Module?"* (PLDI 1999): the phase-distinction
//! calculus (a predicative variant of Fω with singleton kinds) extended
//! with equi-recursive constructors, a valuability-restricted term-level
//! fixed point, the structure calculus, recursive modules `fix(s:S.M)`,
//! and recursively-dependent signatures `ρs.S`.
//!
//! The entry point is [`Tc`], which carries the recursion mode and a fuel
//! budget and exposes one method per judgement of the paper's appendix:
//!
//! | Paper judgement | Method |
//! |---|---|
//! | `Γ ⊢ κ kind` | [`Tc::wf_kind`] |
//! | `Γ ⊢ κ₁ = κ₂` | [`Tc::kind_eq`] |
//! | `Γ ⊢ κ₁ ≤ κ₂` | [`Tc::subkind`] |
//! | `Γ ⊢ c : κ` | [`Tc::synth_con`] / [`Tc::check_con`] |
//! | `Γ ⊢ c₁ = c₂ : κ` | [`Tc::con_equiv`] |
//! | `Γ ⊢ σ type` | [`Tc::wf_ty`] |
//! | `Γ ⊢ σ₁ = σ₂ type` | [`Tc::ty_eq`] |
//! | `Γ ⊢ e : σ` and `Γ ⊢ e ⇓ σ` | [`Tc::synth_term`] (returns valuability) |
//! | `Γ ⊢ S sig`, `Γ ⊢ S₁ ≤ S₂` | [`Tc::wf_sig`], [`Tc::sig_sub`] |
//! | `Γ ⊢ M : S` and `Γ ⊢ M ⇓ S` | [`Tc::synth_module`] |
//!
//! # Example
//!
//! The paper's §2.1 observation that `μα:Q(int).α` is equal to `int`:
//!
//! ```
//! use recmod_kernel::{Tc, Ctx};
//! use recmod_syntax::ast::{Con, Kind};
//! use recmod_syntax::dsl::{mu, q, cvar};
//!
//! let tc = Tc::new();
//! let mut ctx = Ctx::new();
//! let c = mu(q(Con::Int), cvar(0));
//! tc.con_equiv(&mut ctx, &c, &Con::Int, &Kind::Type).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod con;
pub mod ctx;
pub mod equiv;
pub mod error;
pub mod kind;
pub mod module;
pub mod nbe;
pub mod sig;
pub mod singleton;
pub mod stats;
pub mod term;
pub mod termeq;
pub mod ty;
pub mod whnf;

use recmod_syntax::fxhash::{FxHashMap, FxHashSet};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

use recmod_syntax::ast::{Con, Kind};
use recmod_syntax::intern::NodeId;

pub use ctx::{Ctx, Entry};
pub use error::{raise, TcResult, TypeError};
pub use recmod_telemetry::{LimitExceeded, LimitKind, Limits};
pub use stats::{FuelOp, KernelStats, TcStats};

/// How recursive constructors are treated by definitional equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecMode {
    /// Equi-recursive (the paper's primary system, §2.1): `μα:κ.c` is
    /// definitionally equal to its unrolling.
    #[default]
    Equi,
    /// Iso-recursive without Shao's equation: `μ` constructors are equal
    /// only by congruence; `roll`/`unroll` are required coercions.
    Iso,
    /// Iso-recursive *with* Shao's equation (paper §5):
    /// `μα.c(α) ≡ μα.c(μα.c(α))`, realized by a bisimulation that
    /// compares the unrollings of two `μ` constructors — but never
    /// equates a `μ` with a non-`μ`.
    IsoShao,
}

/// Which weak-head normalization engine drives equivalence checking.
///
/// Both engines implement the same reduction relation and are held to
/// identical verdicts, error codes, and diagnostics by the
/// `nbe-differential` fuzz class; they differ only in *how* they reduce
/// (and therefore in fuel and counter accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivEngine {
    /// The NbE-style environment machine ([`nbe`], S17): β never
    /// substitutes, arguments are suspended as closures in a per-`Tc`
    /// bump arena, and syntax is quoted back only at stuck points.
    /// Also enables the kind-synthesis memo. The default.
    #[default]
    Nbe,
    /// The substitution-driven reference engine (pre-S17), kept alive
    /// behind `RECMOD_EQUIV=subst` for differential testing.
    Subst,
}

impl EquivEngine {
    /// The engine's stable name, as reported in `--stats` output.
    pub fn name(self) -> &'static str {
        match self {
            EquivEngine::Nbe => "nbe",
            EquivEngine::Subst => "subst",
        }
    }
}

thread_local! {
    static ENGINE_OVERRIDE: Cell<Option<EquivEngine>> = const { Cell::new(None) };
}

/// Forces every subsequently constructed [`Tc`] **on this thread** to
/// use `engine`; pass `None` to restore the `RECMOD_EQUIV` / default
/// resolution. Used by the differential fuzzer, which must run both
/// engines in one process.
pub fn set_thread_engine(engine: Option<EquivEngine>) {
    ENGINE_OVERRIDE.with(|c| c.set(engine));
}

fn env_default_engine() -> EquivEngine {
    static FROM_ENV: OnceLock<EquivEngine> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("RECMOD_EQUIV") {
        Ok(v) if v.eq_ignore_ascii_case("subst") => EquivEngine::Subst,
        _ => EquivEngine::Nbe,
    })
}

/// The engine a fresh [`Tc`] would use right now: the thread override
/// if set, else `RECMOD_EQUIV` (read once per process), else
/// [`EquivEngine::Nbe`].
pub fn resolve_engine() -> EquivEngine {
    ENGINE_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_default_engine)
}

/// The default fuel budget for normalization and equivalence checking.
pub const DEFAULT_FUEL: u64 = 5_000_000;

/// The typechecker: recursion mode plus a fuel budget.
///
/// Fuel bounds the total number of weak-head steps and coinductive
/// equivalence expansions across a checking run; exhausting it yields
/// [`TypeError::FuelExhausted`] rather than divergence. (Decidability of
/// equi-recursive equivalence at higher kinds is open — paper §5.)
#[derive(Debug)]
pub struct Tc {
    mode: RecMode,
    engine: EquivEngine,
    fuel: Cell<u64>,
    budget: Cell<u64>,
    limits: Limits,
    depth: Cell<usize>,
    deadline_tick: Cell<u32>,
    stats: stats::TcStats,
    /// Transient environment nodes for the NbE machine — recycled
    /// between runs, never interned (see [`nbe`]).
    nbe: nbe::Arena,
    /// Weak-head normal forms, keyed by (context stamp, constructor id).
    /// Sound because a stamp names one exact declaration stack and
    /// interned ids name one exact constructor (see [`Ctx::stamp`]).
    whnf_cache: RefCell<FxHashMap<(u64, NodeId), Con>>,
    /// Proven kind-`T` equalities, keyed by (context stamp, lhs id,
    /// rhs id). Only populated from *successful* root equivalence runs
    /// (a coinductive assumption is a fact once the run it served in
    /// closes — Brandt–Henglein), and only at kind `T`: at `1` and
    /// singleton kinds everything is equal, so caching there would be
    /// vacuous, and `Π`/`Σ` comparisons decompose before reaching the
    /// table.
    equiv_cache: RefCell<FxHashSet<(u64, NodeId, NodeId)>>,
    /// Memoized kind synthesis, keyed like the whnf cache. Only
    /// consulted under [`EquivEngine::Nbe`] (the substitution engine
    /// stays byte-for-byte the pre-S17 reference): synthesis is
    /// deterministic and a stamp names one exact declaration stack, so
    /// a cached kind is always the kind synthesis would recompute.
    /// Errors are never cached.
    synth_cache: RefCell<FxHashMap<(u64, NodeId), Kind>>,
    /// Memoized contractiveness verdicts, keyed by μ constructor id
    /// alone — [`whnf::is_contractive`] is a pure function of the node,
    /// independent of context, mode, and engine. Brandt–Henglein
    /// re-tests the same μ on every coinductive step, and each raw test
    /// rebuilds the body's deferral graph, so this single bit per node
    /// is one of the larger S17 wins on μ-heavy programs.
    mu_contractive: RefCell<FxHashMap<NodeId, bool>>,
    /// Memoized one-step μ-unrollings (`μα:κ.c ↦ c[μα:κ.c/α]`), keyed
    /// by μ constructor id. Also context-free. Interned ids are never
    /// reused, so an id that hits always names the identical live node;
    /// both tables therefore stay warm across [`Tc::renew`] (bounded by
    /// [`CACHE_CAP`]) — exactly what a serve worker re-checking the
    /// same recursive signatures wants.
    mu_unroll: RefCell<FxHashMap<NodeId, Con>>,
}

/// Caches are cleared once they pass this many entries — a crude bound
/// that keeps a long-lived [`Tc`] from growing without limit while
/// leaving the steady-state hit rate intact for realistic sessions.
const CACHE_CAP: usize = 1 << 16;

impl Default for Tc {
    fn default() -> Self {
        Self::new()
    }
}

impl Tc {
    /// A checker in equi-recursive mode with the default fuel budget.
    pub fn new() -> Self {
        Self::with_mode(RecMode::Equi)
    }

    /// A checker with an explicit recursion mode.
    pub fn with_mode(mode: RecMode) -> Self {
        Self::with_mode_and_fuel(mode, DEFAULT_FUEL)
    }

    /// A checker in equi-recursive mode with an explicit fuel budget.
    pub fn with_fuel(fuel: u64) -> Self {
        Self::with_mode_and_fuel(RecMode::Equi, fuel)
    }

    /// A checker with both an explicit mode and an explicit fuel budget.
    pub fn with_mode_and_fuel(mode: RecMode, fuel: u64) -> Self {
        Self::with_mode_and_limits(mode, Limits::default().with_fuel(fuel))
    }

    /// A checker in equi-recursive mode with explicit [`Limits`].
    pub fn with_limits(limits: Limits) -> Self {
        Self::with_mode_and_limits(RecMode::Equi, limits)
    }

    /// A checker with an explicit mode and explicit [`Limits`]. The
    /// kernel honors the fuel, recursion-depth, and deadline bounds.
    /// The equivalence engine comes from [`resolve_engine`].
    pub fn with_mode_and_limits(mode: RecMode, limits: Limits) -> Self {
        Self::with_engine(resolve_engine(), mode, limits)
    }

    /// A checker with every knob explicit, forcing a particular
    /// [`EquivEngine`] regardless of `RECMOD_EQUIV` or the thread
    /// override (used by the differential rigs).
    pub fn with_engine(engine: EquivEngine, mode: RecMode, limits: Limits) -> Self {
        Tc {
            mode,
            engine,
            fuel: Cell::new(limits.fuel),
            budget: Cell::new(limits.fuel),
            limits,
            depth: Cell::new(0),
            deadline_tick: Cell::new(0),
            stats: stats::TcStats::default(),
            nbe: nbe::Arena::default(),
            whnf_cache: RefCell::new(FxHashMap::default()),
            equiv_cache: RefCell::new(FxHashSet::default()),
            synth_cache: RefCell::new(FxHashMap::default()),
            mu_contractive: RefCell::new(FxHashMap::default()),
            mu_unroll: RefCell::new(FxHashMap::default()),
        }
    }

    /// The recursion mode in force.
    pub fn mode(&self) -> RecMode {
        self.mode
    }

    /// The equivalence engine in force (fixed at construction).
    pub fn engine(&self) -> EquivEngine {
        self.engine
    }

    /// The resource limits in force.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Remaining fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel.get()
    }

    /// The budget fuel was last reset to (reported on exhaustion).
    pub fn fuel_budget(&self) -> u64 {
        self.budget.get()
    }

    /// Resets the fuel budget (e.g. between top-level declarations).
    pub fn set_fuel(&self, fuel: u64) {
        self.fuel.set(fuel);
        self.budget.set(fuel);
    }

    /// A snapshot of the judgement counters accumulated so far.
    pub fn stats(&self) -> stats::KernelStats {
        self.stats.snapshot()
    }

    /// Zeroes the judgement counters (fuel itself is left alone).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    pub(crate) fn burn(&self, op: stats::FuelOp) -> TcResult<()> {
        self.stats.record_fuel(op);
        let f = self.fuel.get();
        if f == 0 {
            return raise(TypeError::FuelExhausted {
                op: op.name(),
                budget: self.budget.get(),
                top: self.stats.top_fuel(3),
            });
        }
        self.fuel.set(f - 1);
        // Deadlines are wall-clock, so amortize the clock read over many
        // fuel units; 1024 keeps the added latency under a millisecond
        // even for very short deadlines.
        let tick = self.deadline_tick.get().wrapping_add(1);
        self.deadline_tick.set(tick);
        if tick.is_multiple_of(1024) && self.limits.deadline_passed() {
            return raise(TypeError::Limit(self.limits.deadline_error("kernel")));
        }
        Ok(())
    }

    /// Enters one level of structural recursion in judgement `stage`,
    /// returning a guard that leaves it again on drop. Every recursive
    /// judgement of the kernel calls this, so arbitrarily deep input
    /// syntax produces [`TypeError::Limit`] instead of exhausting the
    /// host stack.
    ///
    /// # Errors
    ///
    /// Fails with [`TypeError::Limit`] once `max_depth` levels are live.
    pub fn descend(&self, stage: &'static str) -> TcResult<DepthGuard<'_>> {
        let d = self.depth.get();
        if d >= self.limits.max_depth {
            return raise(TypeError::Limit(self.limits.depth_error(stage)));
        }
        self.depth.set(d + 1);
        Ok(DepthGuard { depth: &self.depth })
    }

    pub(crate) fn stat_cells(&self) -> &stats::TcStats {
        &self.stats
    }

    pub(crate) fn nbe_arena(&self) -> &nbe::Arena {
        &self.nbe
    }

    /// Looks up a memoized synthesized kind (NbE engine only).
    pub(crate) fn synth_cached(&self, key: (u64, NodeId)) -> Option<Kind> {
        if self.engine != EquivEngine::Nbe {
            return None;
        }
        self.synth_cache.borrow().get(&key).cloned()
    }

    /// Records a synthesized kind (NbE engine only; clearing the table
    /// first when it has outgrown [`CACHE_CAP`]).
    pub(crate) fn synth_remember(&self, key: (u64, NodeId), value: Kind) {
        if self.engine != EquivEngine::Nbe {
            return;
        }
        let mut t = self.synth_cache.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(key, value);
    }

    /// Looks up a memoized weak-head normal form.
    pub(crate) fn whnf_cached(&self, key: (u64, NodeId)) -> Option<Con> {
        self.whnf_cache.borrow().get(&key).cloned()
    }

    /// Records a weak-head normal form (clearing the table first when it
    /// has outgrown [`CACHE_CAP`]).
    pub(crate) fn whnf_remember(&self, key: (u64, NodeId), value: Con) {
        let mut t = self.whnf_cache.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(key, value);
    }

    /// [`whnf::is_contractive`], memoized per interned node. The raw
    /// test walks the μ body to build its deferral graph; every
    /// equivalence step and every elimination-position unroll re-asks,
    /// so the answer is cached under the node's id (contractiveness is
    /// a pure function of the node — no context, mode, or engine in
    /// play). A non-μ answers `false` without touching the table.
    pub(crate) fn is_contractive_cached(&self, c: &Con) -> bool {
        if !matches!(c, Con::Mu(_, _)) {
            return false;
        }
        let id = recmod_syntax::intern::hc(c.clone()).id();
        if let Some(&v) = self.mu_contractive.borrow().get(&id) {
            return v;
        }
        let v = whnf::is_contractive(c);
        let mut t = self.mu_contractive.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(id, v);
        v
    }

    /// [`whnf::unroll_mu`], memoized per interned node — the unrolling
    /// substitution is likewise context-free, and Brandt–Henglein
    /// unrolls the same μ once per coinductive assumption that involves
    /// it.
    ///
    /// # Errors
    ///
    /// As for [`whnf::unroll_mu`]: `c` must be a μ (errors are not
    /// cached; the non-μ case is a caller bug surfaced as a
    /// diagnostic).
    pub(crate) fn unroll_mu_cached(&self, c: &Con) -> error::TcResult<Con> {
        let id = recmod_syntax::intern::hc(c.clone()).id();
        if let Some(u) = self.mu_unroll.borrow().get(&id) {
            return Ok(u.clone());
        }
        let u = whnf::unroll_mu(c)?;
        let mut t = self.mu_unroll.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(id, u.clone());
        Ok(u)
    }

    /// Has this kind-`T` equality already been proven?
    pub(crate) fn equiv_cached(&self, key: (u64, NodeId, NodeId)) -> bool {
        self.equiv_cache.borrow().contains(&key)
    }

    /// Records proven kind-`T` equalities (both orientations — the
    /// judgement is symmetric).
    pub(crate) fn equiv_remember(&self, stamp: u64, a: NodeId, b: NodeId) {
        let mut t = self.equiv_cache.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert((stamp, a, b));
        t.insert((stamp, b, a));
    }

    /// Drops every memoized whnf/equivalence/synthesis entry and the
    /// NbE transient arena (the interning tables in `recmod-syntax`
    /// are untouched).
    pub fn clear_caches(&self) {
        self.whnf_cache.borrow_mut().clear();
        self.equiv_cache.borrow_mut().clear();
        self.synth_cache.borrow_mut().clear();
        self.mu_contractive.borrow_mut().clear();
        self.mu_unroll.borrow_mut().clear();
        self.nbe.reset();
    }

    /// Re-arms the checker for a fresh run under new [`Limits`] while
    /// keeping its memo tables **warm**: fuel and the live recursion
    /// depth reset, the deadline is the new one, but the whnf,
    /// equivalence, and kind-synthesis caches (and the judgement
    /// counters) carry over. The NbE environment arena, by contrast,
    /// is *reset* — environments are transients of a single machine
    /// run and must never survive a re-arm (a run abandoned by a
    /// worker panic could otherwise leave nodes behind).
    ///
    /// This is the batch driver's per-file reset. Reuse is sound
    /// because all three caches are keyed by context stamps: the empty
    /// context is always stamp `0` (the same context in every file),
    /// and non-empty stamps are drawn from a thread-local counter that
    /// never repeats, so entries recorded under a previous file's
    /// non-empty contexts can never be looked up again.
    ///
    /// Because those non-zero-stamp entries are unreachable, `renew`
    /// *prunes* them: every surviving hit a warm run could ever see is
    /// on a stamp-`0` entry, and the dead entries' `HC` pointers would
    /// otherwise pin interned nodes forever — a long-lived serve
    /// worker's tables would ratchet upward with every request even
    /// though its live working set is flat.
    /// The μ-memo tables (contractiveness, unrollings) are keyed by
    /// node id alone — context-free facts — so they carry over without
    /// pruning; [`CACHE_CAP`] bounds them instead.
    pub fn renew(&mut self, limits: Limits) {
        self.fuel.set(limits.fuel);
        self.budget.set(limits.fuel);
        self.depth.set(0);
        self.deadline_tick.set(0);
        self.limits = limits;
        self.nbe.reset();
        self.whnf_cache.borrow_mut().retain(|(s, _), _| *s == 0);
        self.equiv_cache.borrow_mut().retain(|(s, _, _)| *s == 0);
        self.synth_cache.borrow_mut().retain(|(s, _), _| *s == 0);
    }
}

/// RAII token for one level of kernel recursion (see [`Tc::descend`]).
#[derive(Debug)]
pub struct DepthGuard<'a> {
    depth: &'a Cell<usize>,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.depth.set(self.depth.get().saturating_sub(1));
    }
}

pub(crate) mod show {
    //! Pretty-printing helpers for error payloads.
    use recmod_syntax::ast::{Con, Kind, Module, Sig, Term, Ty};
    use recmod_syntax::pretty;

    pub fn kind(k: &Kind) -> String {
        pretty::kind_to_string(k, &mut pretty::Names::new())
    }
    pub fn con(c: &Con) -> String {
        pretty::con_to_string(c, &mut pretty::Names::new())
    }
    pub fn ty(t: &Ty) -> String {
        pretty::ty_to_string(t, &mut pretty::Names::new())
    }
    pub fn term(e: &Term) -> String {
        pretty::term_to_string(e, &mut pretty::Names::new())
    }
    pub fn sig(s: &Sig) -> String {
        pretty::sig_to_string(s, &mut pretty::Names::new())
    }
    pub fn module(m: &Module) -> String {
        pretty::module_to_string(m, &mut pretty::Names::new())
    }
}

#[cfg(test)]
mod renew_tests {
    use super::*;
    use recmod_syntax::ast::Kind;
    use recmod_syntax::dsl::{cvar, mu, q};

    #[test]
    fn renew_resets_budget_but_keeps_caches_warm() {
        let mut tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(q(Con::Int), cvar(0));
        tc.con_equiv(&mut ctx, &c, &Con::Int, &Kind::Type).unwrap();
        let spent = DEFAULT_FUEL - tc.fuel();
        assert!(spent > 0, "the check must burn fuel");

        tc.renew(Limits::default().with_fuel(1_000));
        assert_eq!(tc.fuel(), 1_000);
        assert_eq!(tc.fuel_budget(), 1_000);

        // The same empty-context query again: the warm caches answer it
        // with a cache hit rather than re-deriving.
        let before = tc.stats();
        tc.con_equiv(&mut ctx, &c, &Con::Int, &Kind::Type).unwrap();
        let delta = tc.stats().delta_since(&before);
        assert!(
            delta.equiv_cache_hits > 0 || delta.whnf_cache_hits > 0,
            "renew must not clear the memo tables: {delta:?}"
        );
    }

    #[test]
    fn renew_prunes_dead_stamp_entries_but_keeps_the_empty_context_warm() {
        let mut tc = Tc::new();
        let mut ctx = Ctx::new();
        // Empty-context work populates stamp-0 entries …
        let c = mu(q(Con::Int), cvar(0));
        tc.con_equiv(&mut ctx, &c, &Con::Int, &Kind::Type).unwrap();
        // … and work under a binder records dead-stamp entries.
        ctx.with_con(q(Con::Bool), |ctx| {
            tc.con_equiv(ctx, &cvar(0), &Con::Bool, &Kind::Type)
                .unwrap();
        });
        let dead = tc.whnf_cache.borrow().keys().any(|(s, _)| *s != 0)
            || tc.synth_cache.borrow().keys().any(|(s, _)| *s != 0)
            || tc.equiv_cache.borrow().iter().any(|(s, _, _)| *s != 0);
        assert!(dead, "a binder-scoped query must record non-zero stamps");

        tc.renew(Limits::default());
        assert!(tc.whnf_cache.borrow().keys().all(|(s, _)| *s == 0));
        assert!(tc.synth_cache.borrow().keys().all(|(s, _)| *s == 0));
        assert!(tc.equiv_cache.borrow().iter().all(|(s, _, _)| *s == 0));
        let warm = !tc.whnf_cache.borrow().is_empty()
            || !tc.equiv_cache.borrow().is_empty()
            || !tc.synth_cache.borrow().is_empty();
        assert!(warm, "stamp-0 entries must survive the pruning");
    }

    #[test]
    fn renewed_checker_does_not_reuse_entries_from_a_previous_run_context() {
        let mut tc = Tc::new();
        let mut ctx = Ctx::new();
        // Run 1: under α : Q(int), α ≡ int holds and is memoized.
        ctx.with_con(q(Con::Int), |ctx| {
            tc.con_equiv(ctx, &cvar(0), &Con::Int, &Kind::Type).unwrap();
        });
        tc.renew(Limits::default());
        // Run 2: the same query *shape* under α : Q(bool) must fail. A
        // memo entry surviving renew in a form the new run can hit
        // (e.g. keyed without a fresh context stamp) would accept it.
        let mut ctx2 = Ctx::new();
        ctx2.with_con(q(Con::Bool), |ctx| {
            assert!(
                tc.con_equiv(ctx, &cvar(0), &Con::Int, &Kind::Type).is_err(),
                "stale equivalence survived Tc::renew"
            );
        });
    }

    #[test]
    fn renew_resets_live_depth() {
        let mut tc = Tc::new();
        {
            // Simulates a worker abandoning an aborted file mid-guard:
            // leak the guards so the live depth stays raised.
            let g1 = tc.descend("test").unwrap();
            let g2 = tc.descend("test").unwrap();
            std::mem::forget((g1, g2));
        }
        assert_eq!(tc.depth.get(), 2);
        tc.renew(Limits::default());
        assert_eq!(tc.depth.get(), 0);
        assert!(tc.descend("test").is_ok());
    }
}
