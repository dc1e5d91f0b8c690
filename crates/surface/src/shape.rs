//! Shapes: the named-field layout of elaborated structures.
//!
//! The internal language has *anonymous* structures `[c, e]`; the
//! elaborator lays a surface structure's components out as right-nested
//! tuples — the static (type) components in the constructor, the dynamic
//! (value) components in the term — and keeps a [`Shape`] describing
//! which field lives where. Field access compiles to projection chains;
//! signature matching compiles to re-tupling coercions.
//!
//! A shape is built once and then copied into every entity and template
//! that mentions the structure, so both [`Shape`] and [`DataInfo`] keep
//! their contents behind an `Rc`: a clone is a reference-count bump.

use std::rc::Rc;

use recmod_syntax::ast::{Con, Term, Ty};
use recmod_syntax::intern::hc;

/// Metadata for a datatype component: its constructors in declaration
/// order. Shapes must stay free of de Bruijn indices (they travel across
/// binding depths), so only names and arities are recorded; argument
/// types are recovered from the datatype's `μ` constructor on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataInfo {
    /// `(constructor name, takes an argument)`, in declaration order.
    pub ctors: Rc<[(String, bool)]>,
}

impl DataInfo {
    /// The index and arity of a constructor, if present.
    pub fn find(&self, name: &str) -> Option<(usize, bool)> {
        self.ctors
            .iter()
            .enumerate()
            .find(|(_, (n, _))| n == name)
            .map(|(i, (_, has_arg))| (i, *has_arg))
    }
}

/// What kind of component a field is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A type component (contributes one static slot).
    Ty,
    /// A datatype's type component (one static slot, plus constructor
    /// metadata; the constructors themselves are separate `Val` fields).
    Data(DataInfo),
    /// A value component (one dynamic slot).
    Val,
    /// A substructure (one static and one dynamic slot, each a nested
    /// tuple laid out by the nested shape).
    Struct(Shape),
}

/// The layout of an elaborated structure or signature.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Shape {
    /// The named fields, in declaration order.
    pub fields: Rc<[(String, Item)]>,
}

impl Shape {
    /// An empty shape.
    pub fn new() -> Self {
        Shape::default()
    }

    /// Looks up a field by name.
    pub fn find(&self, name: &str) -> Option<&Item> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, i)| i)
    }

    /// The position of `name` among the *static* slots, if it has one.
    pub fn static_slot(&self, name: &str) -> Option<usize> {
        let mut slot = 0;
        for (n, item) in self.fields.iter() {
            let has_static = matches!(item, Item::Ty | Item::Data(_) | Item::Struct(_));
            if n == name {
                return has_static.then_some(slot);
            }
            if has_static {
                slot += 1;
            }
        }
        None
    }

    /// The position of `name` among the *dynamic* slots, if it has one.
    pub fn dyn_slot(&self, name: &str) -> Option<usize> {
        let mut slot = 0;
        for (n, item) in self.fields.iter() {
            let has_dyn = matches!(item, Item::Val | Item::Struct(_));
            if n == name {
                return has_dyn.then_some(slot);
            }
            if has_dyn {
                slot += 1;
            }
        }
        None
    }

    /// Number of static slots.
    pub fn static_len(&self) -> usize {
        self.fields
            .iter()
            .filter(|(_, i)| matches!(i, Item::Ty | Item::Data(_) | Item::Struct(_)))
            .count()
    }

    /// Number of dynamic slots.
    pub fn dyn_len(&self) -> usize {
        self.fields
            .iter()
            .filter(|(_, i)| matches!(i, Item::Val | Item::Struct(_)))
            .count()
    }

    /// Iterates `(name, item, static_slot)` over fields with static slots.
    pub fn static_fields(&self) -> impl Iterator<Item = (&str, &Item, usize)> {
        self.fields
            .iter()
            .filter(|(_, i)| matches!(i, Item::Ty | Item::Data(_) | Item::Struct(_)))
            .enumerate()
            .map(|(slot, (n, i))| (n.as_str(), i, slot))
    }

    /// Iterates `(name, item, dyn_slot)` over fields with dynamic slots.
    pub fn dyn_fields(&self) -> impl Iterator<Item = (&str, &Item, usize)> {
        self.fields
            .iter()
            .filter(|(_, i)| matches!(i, Item::Val | Item::Struct(_)))
            .enumerate()
            .map(|(slot, (n, i))| (n.as_str(), i, slot))
    }

    /// Finds the datatype (if any) that declares constructor `ctor`,
    /// returning the datatype field name and its info.
    pub fn data_of_ctor(&self, ctor: &str) -> Option<(&str, &DataInfo)> {
        self.fields.iter().find_map(|(n, item)| match item {
            Item::Data(info) if info.find(ctor).is_some() => Some((n.as_str(), info)),
            _ => None,
        })
    }
}

/// Projects the `slot`-th of `arity` components out of a right-nested
/// constructor tuple.
pub fn con_proj(base: Con, slot: usize, arity: usize) -> Con {
    debug_assert!(slot < arity.max(1));
    if arity <= 1 {
        return base;
    }
    let mut cur = base;
    for _ in 0..slot {
        cur = Con::Proj2(hc(cur));
    }
    if slot < arity - 1 {
        Con::Proj1(hc(cur))
    } else {
        cur
    }
}

/// Projects the `slot`-th of `arity` components out of a right-nested
/// term tuple.
pub fn term_proj(base: Term, slot: usize, arity: usize) -> Term {
    debug_assert!(slot < arity.max(1));
    if arity <= 1 {
        return base;
    }
    let mut cur = base;
    for _ in 0..slot {
        cur = Term::Proj2(Box::new(cur));
    }
    if slot < arity - 1 {
        Term::Proj1(Box::new(cur))
    } else {
        cur
    }
}

/// Builds a right-nested constructor tuple (`*` when empty).
pub fn con_tuple(parts: Vec<Con>) -> Con {
    let mut rev = parts.into_iter().rev();
    match rev.next() {
        None => Con::Star,
        Some(last) => rev.fold(last, |acc, c| Con::Pair(hc(c), hc(acc))),
    }
}

/// Builds a right-nested term tuple (`*` when empty).
pub fn term_tuple(parts: Vec<Term>) -> Term {
    Term::tuple(parts)
}

/// Builds a right-nested product type (`1` when empty).
pub fn ty_tuple(parts: Vec<Ty>) -> Ty {
    let mut rev = parts.into_iter().rev();
    match rev.next() {
        None => Ty::Unit,
        Some(last) => rev.fold(last, |acc, t| Ty::prod(t, acc)),
    }
}

/// Builds a right-nested `Σ` kind (`1` when empty).
pub fn kind_tuple(parts: Vec<recmod_syntax::ast::Kind>) -> recmod_syntax::ast::Kind {
    use recmod_syntax::ast::Kind;
    let mut rev = parts.into_iter().rev();
    match rev.next() {
        None => Kind::Unit,
        Some(last) => rev.fold(last, |acc, k| Kind::Sigma(hc(k), hc(acc))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Shape {
        Shape {
            fields: vec![
                (
                    "t".into(),
                    Item::Data(DataInfo {
                        ctors: vec![("NIL".into(), false), ("CONS".into(), true)].into(),
                    }),
                ),
                ("NIL".into(), Item::Val),
                ("CONS".into(), Item::Val),
                ("u".into(), Item::Ty),
                ("cons".into(), Item::Val),
                (
                    "Sub".into(),
                    Item::Struct(Shape {
                        fields: vec![("v".into(), Item::Ty)].into(),
                    }),
                ),
            ]
            .into(),
        }
    }

    #[test]
    fn slot_positions() {
        let s = sample();
        assert_eq!(s.static_slot("t"), Some(0));
        assert_eq!(s.static_slot("u"), Some(1));
        assert_eq!(s.static_slot("Sub"), Some(2));
        assert_eq!(s.static_slot("cons"), None);
        assert_eq!(s.dyn_slot("NIL"), Some(0));
        assert_eq!(s.dyn_slot("CONS"), Some(1));
        assert_eq!(s.dyn_slot("cons"), Some(2));
        assert_eq!(s.dyn_slot("Sub"), Some(3));
        assert_eq!(s.static_len(), 3);
        assert_eq!(s.dyn_len(), 4);
    }

    #[test]
    fn ctor_lookup() {
        let s = sample();
        let (dt, info) = s.data_of_ctor("CONS").unwrap();
        assert_eq!(dt, "t");
        assert_eq!(info.find("CONS"), Some((1, true)));
        assert_eq!(info.find("NIL"), Some((0, false)));
        assert!(s.data_of_ctor("nope").is_none());
    }

    #[test]
    fn projections_match_tuple_layout() {
        // A 3-tuple ⟨a, ⟨b, c⟩⟩: slot 0 = π1, slot 1 = π1 π2, slot 2 = π2 π2.
        let base = Con::Var(0);
        assert_eq!(
            con_proj(base.clone(), 0, 3),
            Con::Proj1(recmod_syntax::intern::hc(base.clone()))
        );
        assert_eq!(
            con_proj(base.clone(), 1, 3),
            Con::Proj1(recmod_syntax::intern::hc(Con::Proj2(
                recmod_syntax::intern::hc(base.clone())
            )))
        );
        assert_eq!(
            con_proj(base.clone(), 2, 3),
            Con::Proj2(recmod_syntax::intern::hc(Con::Proj2(
                recmod_syntax::intern::hc(base.clone())
            )))
        );
        // Arity 1: identity.
        assert_eq!(con_proj(base.clone(), 0, 1), base);
    }

    #[test]
    fn tuple_builders() {
        assert_eq!(con_tuple(vec![]), Con::Star);
        assert_eq!(con_tuple(vec![Con::Int]), Con::Int);
        assert_eq!(
            con_tuple(vec![Con::Int, Con::Bool]),
            Con::Pair(
                recmod_syntax::intern::hc(Con::Int),
                recmod_syntax::intern::hc(Con::Bool)
            )
        );
        assert_eq!(ty_tuple(vec![]), Ty::Unit);
    }
}
