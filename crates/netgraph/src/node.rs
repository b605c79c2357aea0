//! Dense `u32` node identifiers.

use std::fmt;

/// Identifier of a node in a [`Graph`](crate::Graph).
///
/// Node ids are dense indices `0..n`; they index directly into the
/// per-node state vectors kept by the simulator, which is why the type
/// is a thin `u32` newtype rather than an opaque handle.
///
/// # Example
///
/// ```
/// use netgraph::NodeId;
///
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the raw index as a `usize`, suitable for indexing
    /// per-node state vectors.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(value: NodeId) -> Self {
        value.0
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(value: NodeId) -> Self {
        value.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        let v = NodeId::new(42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(NodeId::from(42u32), v);
    }

    #[test]
    fn index_conversions() {
        let v = NodeId::from_index(7);
        assert_eq!(v.index(), 7);
        assert_eq!(usize::from(v), 7);
        assert_eq!(v.raw(), 7);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(0).to_string(), "v0");
        assert_eq!(NodeId::new(123).to_string(), "v123");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
