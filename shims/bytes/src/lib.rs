//! Offline subset of `bytes`: a cheaply clonable, immutable byte container.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted contiguous byte buffer. Clones share the
/// underlying storage, so handing payloads between protocol layers is O(1)
/// — the property the FUSE splice path relies on.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

/// Where a buffer's bytes live.
#[derive(Clone)]
enum Storage {
    /// Counts and bytes in one allocation: what a copy builds.
    Inline(Arc<[u8]>),
    /// A `Vec` or `Box` taken over as it is: its allocation holds the bytes
    /// and a small one of its own holds the counts, so nothing is copied.
    Adopted(Arc<Box<[u8]>>),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Inline(data) => data,
            Storage::Adopted(data) => data,
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from_arc(Arc::from([] as [u8; 0]))
    }

    /// Wraps a static slice (no copy in upstream `bytes`; here one copy at
    /// construction, still O(1) per clone afterwards).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::from_arc(Arc::from(data))
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_arc(Arc::from(data))
    }

    fn from_arc(data: Arc<[u8]>) -> Bytes {
        Bytes::from_storage(Storage::Inline(data))
    }

    fn from_storage(data: Storage) -> Bytes {
        let end = data.as_slice().len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-buffer sharing storage with `self`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

/// Takes the vector's allocation over without copying, as upstream `bytes`
/// does (spare capacity is given back first).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from(v.into_boxed_slice())
    }
}

/// Takes the allocation over without copying.
impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from_storage(Storage::Adopted(Arc::new(b)))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from_static(v.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        let c = Bytes::copy_from_slice(b"hello");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 5);
        assert_eq!(a.to_vec(), b"hello");
    }

    #[test]
    fn slices_share_storage() {
        let a = Bytes::from_static(b"hello world");
        let w = a.slice(6..);
        assert_eq!(&w[..], b"world");
        assert_eq!(w.slice(..2), Bytes::from_static(b"wo"));
        assert!(Bytes::new().is_empty());
    }

    /// A `Vec` or `Box` becomes a buffer in place: the buffer, its slices
    /// and its clones all point into the allocation handed over.
    #[test]
    fn from_vec_and_box_keep_the_allocation() {
        let v: Vec<u8> = (0..=255).collect();
        let ptr = v.as_ptr() as usize;
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr() as usize, ptr);
        assert_eq!(b.clone().as_ptr() as usize, ptr);
        assert_eq!(b.slice(16..).as_ptr() as usize, ptr + 16);
        assert_eq!(b[200], 200);
        let boxed: Box<[u8]> = vec![5u8; 4096].into_boxed_slice();
        let ptr = boxed.as_ptr() as usize;
        assert_eq!(Bytes::from(boxed).as_ptr() as usize, ptr);
        // A copy is a copy.
        assert_ne!(Bytes::copy_from_slice(&b).as_ptr(), b.as_ptr());
    }
}
