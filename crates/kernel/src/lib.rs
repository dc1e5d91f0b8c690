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
//! use recmod_syntax::intern::hc;
//!
//! let tc = Tc::new();
//! let mut ctx = Ctx::new();
//! let c = hc(mu(q(Con::Int), cvar(0)));
//! tc.con_equiv(&mut ctx, &c, &hc(Con::Int), &Kind::Type).unwrap();
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

use recmod_syntax::ast::{Con, Kind, Ty};
use recmod_syntax::intern::{hc, HC};

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
    /// The substitution-driven reference engine (pre-S17), kept as the
    /// differential-testing oracle: only [`set_thread_engine`] and
    /// [`Tc::with_engine`] select it.
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
/// use `engine`; pass `None` to restore the default. Used by the
/// differential fuzzer, which must run both engines in one process.
pub fn set_thread_engine(engine: Option<EquivEngine>) {
    ENGINE_OVERRIDE.with(|c| c.set(engine));
}

/// The engine a fresh [`Tc`] would use right now: the thread override
/// if set, else [`EquivEngine::Nbe`].
pub fn resolve_engine() -> EquivEngine {
    ENGINE_OVERRIDE.with(Cell::get).unwrap_or_default()
}

/// A memo key: a context stamp and an interned constructor.
type StampedCon = (u64, HC<Con>);

/// An equivalence-cache key: a context stamp and two constructors.
type ProvenPair = (u64, HC<Con>, HC<Con>);

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
    /// Weak-head normal forms, keyed by (context stamp, constructor).
    /// Sound because a stamp names one exact declaration stack and an
    /// interned node one exact constructor (see [`Ctx::stamp`]). Every
    /// table below holds the node it is keyed by, so a key's id stays
    /// live while its entry does, and a lookup hits exactly when this
    /// run inserted that structure — whatever else the thread holds.
    whnf_cache: RefCell<FxHashMap<StampedCon, HC<Con>>>,
    /// Proven kind-`T` equalities, keyed by (context stamp, lhs, rhs).
    /// Only populated from *successful* root equivalence runs
    /// (a coinductive assumption is a fact once the run it served in
    /// closes — Brandt–Henglein), and only at kind `T`: at `1` and
    /// singleton kinds everything is equal, so caching there would be
    /// vacuous, and `Π`/`Σ` comparisons decompose before reaching the
    /// table.
    equiv_cache: RefCell<FxHashSet<ProvenPair>>,
    /// Memoized kind synthesis, keyed like the whnf cache. Only
    /// consulted under [`EquivEngine::Nbe`] (the substitution engine
    /// stays byte-for-byte the pre-S17 reference): synthesis is
    /// deterministic and a stamp names one exact declaration stack, so
    /// a cached kind is always the kind synthesis would recompute.
    /// Errors are never cached.
    synth_cache: RefCell<FxHashMap<StampedCon, HC<Kind>>>,
    /// Memoized contractiveness verdicts, keyed by the μ node alone —
    /// [`whnf::is_contractive`] is a pure function of the node,
    /// independent of context, mode, and engine. Brandt–Henglein
    /// re-tests the same μ on every coinductive step, and each raw test
    /// rebuilds the body's deferral graph, so this single bit per node
    /// is one of the larger S17 wins on μ-heavy programs.
    mu_contractive: RefCell<FxHashMap<HC<Con>, bool>>,
    /// Memoized one-step μ-unrollings (`μα:κ.c ↦ c[μα:κ.c/α]`), keyed
    /// by the μ node. Also context-free; like every table here it lives
    /// for one run and [`Tc::renew`] empties it.
    mu_unroll: RefCell<FxHashMap<HC<Con>, HC<Con>>>,
    /// The kind `T`, interned once: the kernel checks constructors
    /// against it at every monotype position.
    type_kind: HC<Kind>,
    /// The types `int` and `bool`, interned once: every literal,
    /// primitive and `if` is typed at them.
    int_ty: HC<Ty>,
    bool_ty: HC<Ty>,
}

/// Caches are cleared once they pass this many entries — a crude bound
/// that keeps one long run from growing without limit while leaving
/// the steady-state hit rate intact for realistic programs.
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
    /// [`EquivEngine`] regardless of the thread override (used by the
    /// differential rigs).
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
            type_kind: hc(Kind::Type),
            int_ty: hc(Ty::Con(hc(Con::Int))),
            bool_ty: hc(Ty::Con(hc(Con::Bool))),
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

    /// A snapshot of the judgement counters accumulated since the
    /// checker was built or last renewed.
    pub fn stats(&self) -> stats::KernelStats {
        self.stats.snapshot()
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

    /// The interned kind `T`.
    pub(crate) fn type_kind(&self) -> &HC<Kind> {
        &self.type_kind
    }

    /// The interned type `int`.
    pub(crate) fn int_ty(&self) -> &HC<Ty> {
        &self.int_ty
    }

    /// The interned type `bool`.
    pub(crate) fn bool_ty(&self) -> &HC<Ty> {
        &self.bool_ty
    }

    /// Looks up a memoized synthesized kind (NbE engine only).
    pub(crate) fn synth_cached(&self, key: &StampedCon) -> Option<HC<Kind>> {
        if self.engine != EquivEngine::Nbe {
            return None;
        }
        self.synth_cache.borrow().get(key).cloned()
    }

    /// Records a synthesized kind (NbE engine only; clearing the table
    /// first when it has outgrown [`CACHE_CAP`]).
    pub(crate) fn synth_remember(&self, key: StampedCon, value: HC<Kind>) {
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
    pub(crate) fn whnf_cached(&self, key: &StampedCon) -> Option<HC<Con>> {
        self.whnf_cache.borrow().get(key).cloned()
    }

    /// Records a weak-head normal form (clearing the table first when it
    /// has outgrown [`CACHE_CAP`]).
    pub(crate) fn whnf_remember(&self, key: StampedCon, value: HC<Con>) {
        let mut t = self.whnf_cache.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(key, value);
    }

    /// [`whnf::is_contractive`], memoized per interned node. The raw
    /// test walks the μ body to build its deferral graph; every
    /// equivalence step and every elimination-position unroll re-asks,
    /// so the answer is cached under the node (contractiveness is a
    /// pure function of the node — no context, mode, or engine in
    /// play). A non-μ answers `false` without touching the table.
    pub(crate) fn is_contractive_cached(&self, c: &HC<Con>) -> bool {
        if !matches!(**c, Con::Mu(_, _)) {
            return false;
        }
        if let Some(&v) = self.mu_contractive.borrow().get(c) {
            return v;
        }
        let v = whnf::is_contractive(c);
        let mut t = self.mu_contractive.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(c.clone(), v);
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
    pub(crate) fn unroll_mu_cached(&self, c: &HC<Con>) -> error::TcResult<HC<Con>> {
        if let Some(u) = self.mu_unroll.borrow().get(c) {
            return Ok(u.clone());
        }
        let u = whnf::unroll_mu(c)?;
        let mut t = self.mu_unroll.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert(c.clone(), u.clone());
        Ok(u)
    }

    /// Has this kind-`T` equality already been proven?
    pub(crate) fn equiv_cached(&self, key: &ProvenPair) -> bool {
        self.equiv_cache.borrow().contains(key)
    }

    /// Records proven kind-`T` equalities (both orientations — the
    /// judgement is symmetric).
    pub(crate) fn equiv_remember(&self, stamp: u64, a: HC<Con>, b: HC<Con>) {
        let mut t = self.equiv_cache.borrow_mut();
        if t.len() >= CACHE_CAP {
            t.clear();
        }
        t.insert((stamp, a.clone(), b.clone()));
        t.insert((stamp, b, a));
    }

    /// Re-arms the checker for a fresh run under new [`Limits`],
    /// returning it to exactly the state of a fresh one: fuel, the live
    /// recursion depth and the judgement counters reset, the deadline is
    /// the new one, and every memo table and the NbE environment arena
    /// is emptied (capacity kept). A run's fuel, verdict and diagnostics
    /// therefore depend only on its own input and limits, never on what
    /// the checker ran before.
    ///
    /// This is the batch driver's and the compile service's per-file
    /// reset. It also discards whatever a run abandoned by a worker
    /// panic left behind in the arena or the tables.
    pub fn renew(&mut self, limits: Limits) {
        self.fuel.set(limits.fuel);
        self.budget.set(limits.fuel);
        self.depth.set(0);
        self.deadline_tick.set(0);
        self.limits = limits;
        self.stats.reset();
        self.nbe.reset();
        self.whnf_cache.get_mut().clear();
        self.equiv_cache.get_mut().clear();
        self.synth_cache.get_mut().clear();
        self.mu_contractive.get_mut().clear();
        self.mu_unroll.get_mut().clear();
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
    use recmod_syntax::dsl::{carrow, cvar, mu, q, tkind};

    /// Y: `μα:Q(int).α ≡ int` in the empty context, then `α ≡ int`
    /// under `α : Q(int)` — work that X below has already memoized.
    fn check_y(tc: &Tc) -> (bool, bool, KernelStats) {
        let mut ctx = Ctx::new();
        let c = mu(q(Con::Int), cvar(0));
        let top = tc
            .con_equiv(&mut ctx, &hc(c.clone()), &hc(Con::Int), &Kind::Type)
            .is_ok();
        let under = ctx.with_con(hc(q(Con::Int)), |ctx| {
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(Con::Int), &Kind::Type)
                .is_ok()
        });
        (top, under, tc.stats())
    }

    #[test]
    fn renewed_checker_behaves_as_a_fresh_one() {
        let mut tc = Tc::new();
        // X: Y's queries plus a μ equivalence under a binder, so every
        // memo table holds entries Y could hit if they survived.
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let unrolled = carrow(Con::Int, m.clone());
        tc.con_equiv(&mut ctx, &hc(m.clone()), &hc(unrolled.clone()), &Kind::Type)
            .unwrap();
        ctx.with_con(hc(q(Con::Bool)), |ctx| {
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(Con::Bool), &Kind::Type)
                .unwrap();
        });
        check_y(&tc);
        assert!(tc.fuel() < DEFAULT_FUEL, "X must burn fuel");

        tc.renew(Limits::default().with_fuel(1_000));
        assert_eq!(tc.fuel(), 1_000);
        assert_eq!(tc.fuel_budget(), 1_000);
        assert_eq!(tc.stats(), KernelStats::default());
        let fresh = Tc::with_limits(Limits::default().with_fuel(1_000));
        let (renewed, fresh) = (check_y(&tc), check_y(&fresh));
        assert_eq!(renewed, fresh);
        assert!(renewed.0 && renewed.1, "both queries of Y hold");
        assert_eq!(tc.fuel(), 1_000 - renewed.2.fuel_used());
    }

    #[test]
    fn renewed_checker_does_not_reuse_entries_from_a_previous_run_context() {
        let mut tc = Tc::new();
        let mut ctx = Ctx::new();
        // Run 1: under α : Q(int), α ≡ int holds and is memoized.
        ctx.with_con(hc(q(Con::Int)), |ctx| {
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(Con::Int), &Kind::Type)
                .unwrap();
        });
        tc.renew(Limits::default());
        // Run 2: the same query *shape* under α : Q(bool) must fail. A
        // memo entry surviving renew in a form the new run can hit
        // (e.g. keyed without a fresh context stamp) would accept it.
        let mut ctx2 = Ctx::new();
        ctx2.with_con(hc(q(Con::Bool)), |ctx| {
            assert!(
                tc.con_equiv(ctx, &hc(cvar(0)), &hc(Con::Int), &Kind::Type)
                    .is_err(),
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
