//! Compact identifier newtypes for nodes and labels.

/// Identifier of a node in the graph.
///
/// Stored as `u32`: the paper's largest graph (WebGraph) has ~106 M nodes,
/// and this reproduction scales graphs down, so 32 bits are ample while
/// halving adjacency-array memory versus `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Interned identifier of a node label (entity attribute, §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeLabelId(pub u16);

impl NodeLabelId {
    /// Creates a label id from a raw index.
    #[inline]
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned identifier of an edge label (relationship type, §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct EdgeLabelId(pub u16);

impl EdgeLabelId {
    /// Creates a label id from a raw index.
    #[inline]
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Label used when the graph carries no edge labels.
    pub const UNLABELED: EdgeLabelId = EdgeLabelId(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.raw(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(n.to_string(), "n42");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeLabelId::new(0) < NodeLabelId::new(3));
    }

    #[test]
    fn ids_are_compact() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<NodeLabelId>(), 2);
        assert_eq!(std::mem::size_of::<EdgeLabelId>(), 2);
    }
}
