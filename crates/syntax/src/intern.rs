//! Hash-consed, reference-counted syntax nodes.
//!
//! The recursive spine of [`Con`](crate::ast::Con),
//! [`Kind`](crate::ast::Kind) and [`Ty`](crate::ast::Ty) is built from
//! [`HC<T>`] pointers instead of `Box<T>`: every structurally-distinct
//! node is interned once in its thread's table and assigned a stable
//! [`NodeId`]. (Terms, signatures and modules stay `Box` trees; they
//! hold interned types, kinds and constructors.) Consequences:
//!
//! * **O(1) equality** — two `HC` pointers are equal iff their ids are
//!   equal, which (by the interning invariant) holds iff the subtrees
//!   are structurally equal. The derived `PartialEq`/`Hash` on `Con`,
//!   `Kind` and `Ty` therefore touch only the root variant plus child
//!   ids, never the whole tree.
//! * **O(1) clone** — `clone()` is a refcount bump.
//! * **Cached binding data** — each node carries `fv_bound`, an upper
//!   bound on its free de Bruijn indices, computed shallowly at intern
//!   time from the children's cached bounds. Shifting and substitution
//!   use it to return the *same pointer* for subtrees they cannot touch
//!   (see [`crate::map`]).
//!
//! # One table per thread
//!
//! Each thread interns into its own tables, one per syntax class, and
//! draws ids from its own counter. `HC` wraps an `Rc`, so it is neither
//! `Send` nor `Sync`: a node never leaves the thread that interned it,
//! and a `NodeId` names a node only on that thread. Every table keyed
//! by ids is per-thread as well: the rewrite memo ([`crate::memo`]) and
//! the kernel's whnf, equivalence, synthesis and μ tables. `--jobs N`
//! workers therefore share nothing; each builds its own spine.
//!
//! What this buys is history independence across threads: whether a
//! re-interned node keeps its id depends only on what the interning
//! thread itself still holds, never on another thread. Within a thread,
//! the kernel's tables hold the nodes they are keyed by and are emptied
//! between runs, so which kernel lookups hit — and how much fuel a
//! compile spends — does not depend on what else the thread holds
//! either. Only the interner's own hit and miss counts and the rewrite
//! memo's hits still move with it.
//!
//! `NodeId`s are **never persisted**: the driver's on-disk artifact
//! cache stores rendered verdicts keyed by source hashes, never ids,
//! because every thread assigns ids in its own first-intern order.
//!
//! The table holds weak references: dropping the last strong `HC` to a
//! node makes its entry collectable, and dead entries are swept when
//! the table doubles past a high-water mark, so long sessions do not
//! leak.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::thread::LocalKey;

use crate::ast::{Con, Kind, Ty};

/// A stable identifier for one structurally-distinct syntax node.
///
/// Ids are unique on their thread for the thread's lifetime (they are
/// never reused, even after a node is collected and re-interned — the
/// counter only moves forward; a re-interned node gets a fresh id,
/// which is sound because stale ids no longer have live holders).
pub type NodeId = u64;

struct Node<T> {
    id: NodeId,
    fv_bound: usize,
    value: T,
}

/// A hash-consed pointer to an interned syntax node.
///
/// Build one with [`hc`] (or [`Internable::intern`]); pattern-match
/// through it with `&*` / autoderef, exactly like the `Box` it replaces.
pub struct HC<T: Internable>(Rc<Node<T>>);

impl<T: Internable> HC<T> {
    /// The node's interning id. Equal ids ⟺ structurally equal subtrees
    /// (on the thread that interned both).
    pub fn id(&self) -> NodeId {
        self.0.id
    }

    /// An upper bound on the free de Bruijn indices of this subtree:
    /// every free index is strictly below `fv_bound()` (`0` ⟺ closed).
    pub fn fv_bound(&self) -> usize {
        self.0.fv_bound
    }

    /// Pointer identity (implies — and with interning, is implied by —
    /// structural equality).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The underlying node by reference.
    pub fn get(&self) -> &T {
        &self.0.value
    }

    /// Extracts an owned copy of the node (a shallow clone: children are
    /// refcount bumps).
    pub fn take(&self) -> T {
        self.0.value.clone()
    }
}

impl<T: Internable> Clone for HC<T> {
    fn clone(&self) -> Self {
        HC(Rc::clone(&self.0))
    }
}

impl<T: Internable> Deref for HC<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Internable> PartialEq for HC<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl<T: Internable> Eq for HC<T> {}

impl<T: Internable> Hash for HC<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl<T: Internable + fmt::Debug> fmt::Debug for HC<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

/// Syntax classes that participate in hash-consing.
pub trait Internable: Clone + Eq + Hash + Sized + 'static {
    /// Computes this node's free-variable upper bound from its children's
    /// *cached* bounds — must not recurse into subtrees.
    fn fv_bound_shallow(&self) -> usize;

    /// Interns the node in this thread's table, returning the canonical
    /// pointer for its structure.
    fn intern(self) -> HC<Self>;
}

/// Interns a node: the canonical constructor for [`HC`] pointers.
pub fn hc<T: Internable>(t: T) -> HC<T> {
    t.intern()
}

// ---------------------------------------------------------------------------
// The per-thread tables
// ---------------------------------------------------------------------------

/// A table sweeps its dead entries once it holds this many, and after a
/// sweep once it holds twice the survivors (but never fewer than this).
/// A dead entry's key still holds its children, so the schedule decides
/// which re-interned children keep their ids; 2¹⁴ is the 16 × 1 024 of
/// the sharded table this replaced, and gave the same intern hit and
/// miss counts as that table on a `--jobs 1` batch of generated files.
const SWEEP_FLOOR: usize = 1 << 14;

/// One thread's table for one syntax class, with its activity counters.
struct Table<T: Internable> {
    map: crate::fxhash::FxHashMap<T, Weak<Node<T>>>,
    sweep_at: usize,
    hits: u64,
    misses: u64,
    sweeps: u64,
}

impl<T: Internable> Table<T> {
    fn new() -> Self {
        Table {
            map: crate::fxhash::FxHashMap::default(),
            sweep_at: SWEEP_FLOOR,
            hits: 0,
            misses: 0,
            sweeps: 0,
        }
    }

    fn intern(&mut self, t: T) -> HC<T> {
        match self.map.get(&t).and_then(Weak::upgrade) {
            Some(rc) => {
                self.hits += 1;
                recmod_telemetry::count("syntax.intern_hit", 1);
                HC(rc)
            }
            None => {
                self.misses += 1;
                recmod_telemetry::count("syntax.intern_miss", 1);
                let id = NEXT_ID.with(|n| n.replace(n.get() + 1));
                let rc = Rc::new(Node {
                    id,
                    fv_bound: t.fv_bound_shallow(),
                    value: t.clone(),
                });
                self.map.insert(t, Rc::downgrade(&rc));
                if self.map.len() >= self.sweep_at {
                    self.sweep();
                }
                HC(rc)
            }
        }
    }

    /// Drops the dead entries and resets the high-water mark to fit the
    /// survivors; returns how many entries went.
    fn sweep(&mut self) -> u64 {
        let before = self.map.len();
        self.map.retain(|_, w| w.strong_count() > 0);
        self.sweeps += 1;
        self.sweep_at = (self.map.len() * 2).max(SWEEP_FLOOR);
        (before - self.map.len()) as u64
    }
}

thread_local! {
    static CONS: RefCell<Table<Con>> = RefCell::new(Table::new());
    static KINDS: RefCell<Table<Kind>> = RefCell::new(Table::new());
    static TYS: RefCell<Table<Ty>> = RefCell::new(Table::new());
    /// Ids start at 1 so 0 can serve as an "absent" sentinel in debug
    /// dumps.
    static NEXT_ID: Cell<NodeId> = const { Cell::new(1) };
}

impl Internable for Con {
    fn fv_bound_shallow(&self) -> usize {
        fn under(b: &HC<Con>) -> usize {
            b.fv_bound().saturating_sub(1)
        }
        match self {
            Con::Var(i) | Con::Fst(i) => i + 1,
            Con::Star | Con::Int | Con::Bool | Con::UnitTy => 0,
            Con::Lam(k, b) | Con::Mu(k, b) => k.fv_bound().max(under(b)),
            Con::App(a, b) | Con::Pair(a, b) | Con::Arrow(a, b) | Con::Prod(a, b) => {
                a.fv_bound().max(b.fv_bound())
            }
            Con::Proj1(a) | Con::Proj2(a) => a.fv_bound(),
            Con::Sum(cs) => cs.iter().map(HC::fv_bound).max().unwrap_or(0),
        }
    }

    fn intern(self) -> HC<Con> {
        CONS.with(|t| t.borrow_mut().intern(self))
    }
}

impl Internable for Kind {
    fn fv_bound_shallow(&self) -> usize {
        match self {
            Kind::Type | Kind::Unit => 0,
            Kind::Singleton(c) => c.fv_bound(),
            Kind::Pi(k1, k2) | Kind::Sigma(k1, k2) => {
                k1.fv_bound().max(k2.fv_bound().saturating_sub(1))
            }
        }
    }

    fn intern(self) -> HC<Kind> {
        KINDS.with(|t| t.borrow_mut().intern(self))
    }
}

impl Internable for Ty {
    fn fv_bound_shallow(&self) -> usize {
        match self {
            Ty::Con(c) => c.fv_bound(),
            Ty::Unit => 0,
            Ty::Total(a, b) | Ty::Partial(a, b) | Ty::Prod(a, b) => a.fv_bound().max(b.fv_bound()),
            Ty::Forall(k, b) => k.fv_bound().max(b.fv_bound().saturating_sub(1)),
        }
    }

    fn intern(self) -> HC<Ty> {
        TYS.with(|t| t.borrow_mut().intern(self))
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// A snapshot of this thread's interning activity and table sizes
/// (plain data, `Send`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Interning requests answered by an existing node.
    pub hits: u64,
    /// Interning requests that allocated a fresh node.
    pub misses: u64,
    /// Dead-entry sweeps performed (each table's sweep counts once).
    pub sweeps: u64,
    /// Entries currently in the constructor table (live + uncollected).
    pub con_entries: u64,
    /// Entries currently in the kind table (live + uncollected).
    pub kind_entries: u64,
    /// Entries currently in the type table (live + uncollected).
    pub ty_entries: u64,
}

impl InternStats {
    /// Entries in all three tables together.
    pub fn entries(&self) -> u64 {
        self.con_entries + self.kind_entries + self.ty_entries
    }

    /// Hit rate in `[0, 1]`; `0` when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One table's `(hits, misses, sweeps, entries)`.
fn table_stats<T: Internable>(table: &'static LocalKey<RefCell<Table<T>>>) -> [u64; 4] {
    table.with(|t| {
        let t = t.borrow();
        [t.hits, t.misses, t.sweeps, t.map.len() as u64]
    })
}

/// Snapshots this thread's interning counters and table sizes.
pub fn intern_stats() -> InternStats {
    let [con_hits, con_misses, con_sweeps, con_entries] = table_stats(&CONS);
    let [kind_hits, kind_misses, kind_sweeps, kind_entries] = table_stats(&KINDS);
    let [ty_hits, ty_misses, ty_sweeps, ty_entries] = table_stats(&TYS);
    InternStats {
        hits: con_hits + kind_hits + ty_hits,
        misses: con_misses + kind_misses + ty_misses,
        sweeps: con_sweeps + kind_sweeps + ty_sweeps,
        con_entries,
        kind_entries,
        ty_entries,
    }
}

/// This thread's entry count (live + uncollected), all three tables
/// together, as a one-element array.
///
/// It outlives the sharded table whose per-shard counts it used to
/// return only because the frozen benchmark tracer
/// (`perfbench/traced`) sums it; new code reads [`intern_stats`].
pub fn shard_occupancy() -> [u64; 1] {
    [intern_stats().entries()]
}

/// Sweeps dead entries from this thread's tables immediately, without
/// waiting for the doubling high-water mark, and resets each table's
/// mark to fit its surviving population.
///
/// Long-lived worker threads (`recmodc serve`) call this between
/// requests: each compile drops its strong `HC` pointers when the
/// per-request syntax dies, so the weak table is mostly tombstones at
/// request boundaries. Sweeping there bounds steady-state occupancy by
/// the *live* working set instead of the doubling schedule's high-water
/// mark. Returns the number of entries reclaimed across the tables.
pub fn sweep_now() -> u64 {
    // Types hold constructors and kinds, and kinds hold constructors:
    // sweeping outer classes first lets their dead keys release the
    // inner nodes in the same pass.
    TYS.with(|t| t.borrow_mut().sweep())
        + KINDS.with(|t| t.borrow_mut().sweep())
        + CONS.with(|t| t.borrow_mut().sweep())
}

/// Zeroes this thread's interning hit/miss/sweep counters (table
/// contents are left alone — canonical nodes stay canonical).
pub fn reset_intern_stats() {
    fn reset<T: Internable>(table: &'static LocalKey<RefCell<Table<T>>>) {
        table.with(|t| {
            let mut t = t.borrow_mut();
            (t.hits, t.misses, t.sweeps) = (0, 0, 0);
        });
    }
    reset(&CONS);
    reset(&KINDS);
    reset(&TYS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn equal_structure_interns_to_equal_ids() {
        let a = hc(carrow(Con::Int, Con::Bool));
        let b = hc(carrow(Con::Int, Con::Bool));
        assert_eq!(a.id(), b.id());
        assert!(HC::ptr_eq(&a, &b));
        let c = hc(carrow(Con::Bool, Con::Int));
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn fv_bound_tracks_binders() {
        assert_eq!(hc(cvar(3)).fv_bound(), 4);
        assert_eq!(hc(Con::Int).fv_bound(), 0);
        // μα.α: the bound variable does not escape.
        assert_eq!(hc(mu(tkind(), cvar(0))).fv_bound(), 0);
        // μα.β(1): one free variable survives the binder.
        assert_eq!(hc(mu(tkind(), cvar(1))).fv_bound(), 1);
        // Πα:Q(γ).Q(α): the domain's free var dominates.
        assert_eq!(hc(pi(q(cvar(2)), q(cvar(0)))).fv_bound(), 3);
    }

    #[test]
    fn derived_eq_on_con_is_shallow_but_correct() {
        let deep1 = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::UnitTy));
        let deep2 = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::UnitTy));
        assert_eq!(deep1, deep2);
        let other = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::Int));
        assert_ne!(deep1, other);
    }

    #[test]
    fn sweep_now_reclaims_dead_entries_and_keeps_live_ones() {
        let live = hc(cprod(cvar(271_828), cvar(271_828)));
        {
            let _dead = hc(carrow(cvar(314_159), cvar(271_828)));
        }
        let reclaimed = sweep_now();
        assert!(reclaimed >= 1, "dropped node should be reclaimed");
        // The live node survives: re-interning finds the same id.
        let again = hc(cprod(cvar(271_828), cvar(271_828)));
        assert_eq!(live.id(), again.id());
        // A second sweep may still reclaim the children that the dead
        // entry's key kept alive; the live id stays stable.
        sweep_now();
        assert_eq!(live.id(), hc(cprod(cvar(271_828), cvar(271_828))).id());
    }

    #[test]
    fn stats_move() {
        reset_intern_stats();
        let before = intern_stats();
        let _x = hc(cprod(cvar(41), cvar(41)));
        let after = intern_stats();
        assert!(after.misses > before.misses || after.hits > before.hits);
    }
}
