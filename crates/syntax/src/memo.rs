//! A bounded, per-thread memo for pure syntactic rewrites.
//!
//! The kernel applies the same few rewrites — a shift, a constructor
//! substitution, a selfification — to the same interned nodes over and
//! over, from many different judgement calls. Each such rewrite is a
//! pure function of the input node and a few integers, so its result
//! can be remembered *across* calls, keyed by the input's [`NodeId`].
//!
//! # Key and soundness
//!
//! A key is `(op, base, param, node)`: which rewrite, two integers that
//! fix its behaviour (for a shift, the effective cutoff and the amount;
//! see [`crate::map::VarMap::identity`]), and the input node's id.
//! `NodeId`s are never reused (see [`crate::intern`]): an id names
//! exactly one structure for the life of its thread, and the memo is
//! per-thread like the interner, so a key can only
//! match the node it was computed for, even after that node dies and an
//! equal one is re-interned under a fresh id. A hit returns the very
//! pointer a rebuild would have interned — the memo holds it alive, so
//! the interner's entry for that structure is live too — and callers
//! cannot tell a hit from a rebuild except by the intern probes saved.
//!
//! # Shape
//!
//! Three direct-mapped tables per thread, one each for [`Con`], [`Kind`]
//! and [`Ty`] results, each [`SLOTS`] slots. A key hashes to one slot;
//! an insert overwrites whatever lived there. Memory is therefore
//! bounded by construction (the slots plus the result trees they keep
//! alive), no lock is taken, and nothing needs tuning.

use std::cell::RefCell;
use std::hash::BuildHasher;

use crate::ast::{Con, Kind, Ty};
use crate::fxhash::FxBuildHasher;
use crate::intern::{Internable, NodeId, HC};

/// Slots per table. A power of two so the slot is a bit slice of the
/// key's hash.
pub const SLOTS: usize = 4096;

/// Which rewrite a memo entry records. The tag keeps two rewrites with
/// equal integer parameters apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Shift of every index at or above `base` by `param` (two's
    /// complement of an `isize`).
    Shift,
    /// Substitution of the interned constructor `param` for index
    /// `base`, removing that binder.
    SubstCon,
    /// Selfification `Q(c : κ)` of the constructor `param` at the kind
    /// `node` (`base` is `0`).
    Selfify,
}

/// A memo key: the rewrite, its two integers, and the input node's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// The rewrite.
    pub op: Op,
    /// Its first integer parameter.
    pub base: u64,
    /// Its second integer parameter.
    pub param: u64,
    /// The id of the node it is applied to.
    pub node: NodeId,
}

impl Key {
    fn slot(&self) -> usize {
        let h = FxBuildHasher::default().hash_one(self);
        (h >> (64 - SLOTS.trailing_zeros())) as usize
    }
}

/// One thread's direct-mapped table for results of type `T`.
pub struct Table<T: Internable> {
    slots: Vec<Option<(Key, HC<T>)>>,
}

impl<T: Internable> Table<T> {
    const fn new() -> Self {
        Table { slots: Vec::new() }
    }

    fn get(&self, key: &Key) -> Option<HC<T>> {
        match self.slots.get(key.slot()) {
            Some(Some((k, v))) if k == key => Some(v.clone()),
            _ => None,
        }
    }

    fn put(&mut self, key: Key, value: HC<T>) -> Option<(Key, HC<T>)> {
        if self.slots.is_empty() {
            self.slots.resize_with(SLOTS, || None);
        }
        let slot = key.slot();
        self.slots[slot].replace((key, value))
    }
}

thread_local! {
    static CON: RefCell<Table<Con>> = const { RefCell::new(Table::new()) };
    static KIND: RefCell<Table<Kind>> = const { RefCell::new(Table::new()) };
    static TY: RefCell<Table<Ty>> = const { RefCell::new(Table::new()) };
}

/// Result types with a per-thread memo table.
pub trait Memoized: Internable {
    /// Runs `f` on this thread's table for `Self`.
    fn with_table<R>(f: impl FnOnce(&RefCell<Table<Self>>) -> R) -> R;
}

impl Memoized for Con {
    fn with_table<R>(f: impl FnOnce(&RefCell<Table<Con>>) -> R) -> R {
        CON.with(f)
    }
}

impl Memoized for Kind {
    fn with_table<R>(f: impl FnOnce(&RefCell<Table<Kind>>) -> R) -> R {
        KIND.with(f)
    }
}

impl Memoized for Ty {
    fn with_table<R>(f: impl FnOnce(&RefCell<Table<Ty>>) -> R) -> R {
        TY.with(f)
    }
}

/// The remembered result for `key`, if its slot still holds it.
pub fn lookup<T: Memoized>(key: &Key) -> Option<HC<T>> {
    T::with_table(|t| t.borrow().get(key))
}

/// Remembers `value` as the result for `key`, evicting the slot's
/// previous entry.
pub fn insert<T: Memoized>(key: Key, value: HC<T>) {
    // The evicted tree is dropped after the borrow ends.
    let _evicted = T::with_table(|t| t.borrow_mut().put(key, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::hc;

    fn key(node: NodeId, param: u64) -> Key {
        Key {
            op: Op::Shift,
            base: 0,
            param,
            node,
        }
    }

    #[test]
    fn hit_returns_the_stored_pointer_and_other_keys_miss() {
        let v = hc(Con::Int);
        insert(key(7, 1), v.clone());
        assert!(HC::ptr_eq(&lookup::<Con>(&key(7, 1)).unwrap(), &v));
        assert!(lookup::<Con>(&key(7, 2)).is_none());
        assert!(lookup::<Kind>(&key(7, 1)).is_none());
    }

    #[test]
    fn a_colliding_insert_overwrites_the_slot() {
        let first = key(1, 0);
        let rival = (2..)
            .map(|n| key(n, 0))
            .find(|k| k.slot() == first.slot())
            .unwrap();
        insert(first, hc(Con::Int));
        insert(rival, hc(Con::Bool));
        assert!(lookup::<Con>(&first).is_none());
        assert_eq!(*lookup::<Con>(&rival).unwrap(), Con::Bool);
    }
}
