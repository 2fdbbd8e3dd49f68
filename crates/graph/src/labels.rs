//! Interned label tables for nodes and edges.
//!
//! Labels in the paper's data model (§2.1) come from a finite alphabet; we
//! intern the strings once and refer to them by dense `u16` ids everywhere
//! else, so per-node and per-edge label storage is two bytes.

use std::collections::HashMap;

/// An interning table mapping label strings to dense ids.
#[derive(Debug, Clone, Default)]
pub struct LabelTable {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

impl LabelTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct labels are interned; the
    /// paper's alphabets are tiny (relationship types, attribute values).
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("label alphabet exceeds u16 space");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, name: &str) -> Option<u16> {
        self.index.get(name).copied()
    }

    /// Resolves an id back to its string.
    pub fn name(&self, id: u16) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = LabelTable::new();
        let a = t.intern("founded");
        let b = t.intern("founded");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut t = LabelTable::new();
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.intern("b"), 1);
        assert_eq!(t.intern("c"), 2);
        assert_eq!(t.name(1), Some("b"));
        assert_eq!(t.get("c"), Some(2));
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.name(99), None);
    }

    #[test]
    fn empty_table() {
        let t = LabelTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
