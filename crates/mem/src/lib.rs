//! Shared-ownership slices and read-only memory mappings.
//!
//! This is the one crate in the workspace whose *job* is unsafe code,
//! kept deliberately tiny so it can be audited in one sitting. It
//! exists because serving a million-node ICS1 store means the graph
//! arrays must be able to *borrow* a file mapping instead of being
//! copied into fresh `Vec`s — but `ic-graph` is `forbid(unsafe_code)`
//! and should stay that way. The two exports:
//!
//! * [`SharedSlice<T>`] — an owned-or-borrowed immutable slice: a
//!   `(owner, ptr, len)` triple where `owner` is an `Arc<dyn Any>`
//!   keeping the backing storage (a `Vec`, an [`Mmap`], an aligned
//!   store buffer) alive for as long as any clone of the slice lives.
//!   Cloning is an `Arc` bump; `Deref<Target = [T]>` makes it a
//!   drop-in replacement for `Vec<T>` in read-only data structures.
//! * [`Mmap`] — a minimal read-only, private, whole-file mapping for
//!   unix (`mmap(2)` declared directly; the container vendors no libc
//!   crate, but std already links the platform libc). Non-unix builds
//!   get a typed error and callers fall back to buffered reads.
//!
//! Safety argument for [`SharedSlice`]: the constructor takes the
//! owner *by value*, moves it into an `Arc`, and only then projects a
//! slice out of the heap-pinned value via a HRTB closure — so the
//! pointer it stores refers to memory whose address can no longer
//! change (neither `Vec`'s buffer nor an `Mmap`'s pages move while the
//! `Arc` holds them) and whose lifetime is exactly the `Arc`'s. No
//! `&mut` access to the owner is ever handed out afterwards.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable slice that shares ownership of its backing storage.
///
/// ```
/// use ic_mem::SharedSlice;
/// let s: SharedSlice<u32> = vec![1, 2, 3].into();
/// let t = s.clone(); // Arc bump, no copy
/// assert_eq!(&*s, &[1, 2, 3]);
/// assert_eq!(s, t);
/// ```
pub struct SharedSlice<T> {
    /// Keeps the storage behind `ptr` alive. `Arc<dyn Any>` rather
    /// than a concrete type so one slice type can borrow from a
    /// `Vec`, an mmap, or a whole store buffer without generics
    /// leaking into every downstream signature.
    owner: Arc<dyn Any + Send + Sync>,
    ptr: *const T,
    len: usize,
}

// SAFETY: the slice is immutable and the owner is `Send + Sync`; a
// `SharedSlice<T>` is therefore exactly as thread-safe as `&[T]` plus
// an `Arc`, i.e. `Send + Sync` whenever `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Moves `owner` onto the heap and stores the slice `project`
    /// returns from it. The HRTB bound forces `project` to derive the
    /// slice from the pinned owner itself (it cannot smuggle in a
    /// shorter-lived reference), which is what makes the stored raw
    /// pointer sound for the owner's lifetime.
    pub fn new<O, F>(owner: O, project: F) -> Self
    where
        O: Send + Sync + 'static,
        F: for<'a> FnOnce(&'a O) -> &'a [T],
    {
        let owner: Arc<O> = Arc::new(owner);
        let slice: &[T] = project(&owner);
        let ptr = slice.as_ptr();
        let len = slice.len();
        SharedSlice { owner, ptr, len }
    }

    /// Like [`new`](Self::new), but shares an owner that is *already*
    /// in an `Arc` — several slices (offsets, targets, weights…) can
    /// borrow disjoint windows of one mapping without re-wrapping it.
    pub fn project_arc<O, F>(owner: Arc<O>, project: F) -> Self
    where
        O: Send + Sync + 'static,
        F: for<'a> FnOnce(&'a O) -> &'a [T],
    {
        let slice: &[T] = project(&owner);
        let ptr = slice.as_ptr();
        let len = slice.len();
        SharedSlice { owner, ptr, len }
    }

    /// An empty slice with a trivial owner.
    pub fn empty() -> Self {
        SharedSlice {
            owner: Arc::new(()),
            ptr: std::ptr::NonNull::<T>::dangling().as_ptr(),
            len: 0,
        }
    }

    /// The view as a plain slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were derived from a real slice borrowed
        // out of `owner`, which the `Arc` keeps alive and un-moved.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Whether this slice and `other` share the same backing owner
    /// (used by tests to prove the zero-copy path really borrowed).
    pub fn same_owner(&self, other: &SharedSlice<T>) -> bool {
        Arc::ptr_eq(&self.owner, &other.owner)
    }
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice {
            owner: Arc::clone(&self.owner),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> AsRef<[T]> for SharedSlice<T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Send + Sync + 'static> From<Vec<T>> for SharedSlice<T> {
    fn from(vec: Vec<T>) -> Self {
        SharedSlice::new(vec, |v| v.as_slice())
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for SharedSlice<T> {}

impl<T: std::hash::Hash> std::hash::Hash for SharedSlice<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<'a, T: PartialEq> PartialEq<&'a [T]> for SharedSlice<T> {
    fn eq(&self, other: &&'a [T]) -> bool {
        self.as_slice() == *other
    }
}

/// A read-only, private, whole-file memory mapping.
///
/// The mapping is `MAP_PRIVATE | PROT_READ`: the kernel pages bytes in
/// on demand, writes by other processes after open are not observed
/// in already-resident pages, and unlinking the file while mapped is
/// safe on unix. Page-aligned by the kernel, so the 8-byte alignment
/// the `cast.rs` views demand always holds at offset 0.
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) and private; sharing
// references across threads is no different from sharing `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

/// Why a mapping could not be created.
#[derive(Debug)]
pub enum MapError {
    /// `mmap(2)` (or the metadata query before it) failed.
    Io(std::io::Error),
    /// Zero-length files cannot be mapped; callers should treat the
    /// file as an empty buffer instead.
    Empty,
    /// The target platform has no mmap support compiled in; callers
    /// fall back to buffered reads.
    Unsupported,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Io(e) => write!(f, "mmap failed: {e}"),
            MapError::Empty => write!(f, "cannot map an empty file"),
            MapError::Unsupported => write!(f, "memory mapping is not supported on this platform"),
        }
    }
}

impl std::error::Error for MapError {}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    // std already links the platform libc on unix; declaring the two
    // symbols we need avoids vendoring a libc crate into the offline
    // workspace. Signatures per POSIX with 64-bit off_t (the container
    // is linux x86-64; a 32-bit off_t platform would need
    // mmap64 — gated out by the pointer-width guard in ic-store).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    #[cfg(unix)]
    pub fn map_readonly(file: &std::fs::File) -> Result<Mmap, MapError> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata().map_err(MapError::Io)?.len();
        if len == 0 {
            return Err(MapError::Empty);
        }
        let len = usize::try_from(len).map_err(|_| {
            MapError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "file exceeds the address space",
            ))
        })?;
        // SAFETY: fd is a valid open file descriptor for `file`, len
        // is non-zero, and we request a fresh private read-only
        // mapping at a kernel-chosen address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(MapError::Io(std::io::Error::last_os_error()));
        }
        Ok(Mmap { ptr, len })
    }

    /// Maps `file` read-only in its entirety (unsupported platform).
    #[cfg(not(unix))]
    pub fn map_readonly(_file: &std::fs::File) -> Result<Mmap, MapError> {
        Err(MapError::Unsupported)
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until `munmap` in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a live mapping).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: `ptr`/`len` describe a mapping we own; unmapping it
        // exactly once in Drop is the contract of mmap/munmap.
        unsafe {
            let _ = sys::munmap(self.ptr, self.len);
        }
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn shared_slice_from_vec_roundtrips() {
        let s: SharedSlice<u64> = vec![3, 1, 4, 1, 5].into();
        assert_eq!(&*s, &[3, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        let t = s.clone();
        assert!(s.same_owner(&t));
        assert_eq!(s, t);
    }

    #[test]
    fn shared_slice_projects_windows_of_one_owner() {
        let owner = Arc::new(vec![0u32, 1, 2, 3, 4, 5]);
        let lo = SharedSlice::project_arc(Arc::clone(&owner), |v| &v[..3]);
        let hi = SharedSlice::project_arc(owner, |v| &v[3..]);
        assert_eq!(&*lo, &[0, 1, 2]);
        assert_eq!(&*hi, &[3, 4, 5]);
        assert!(lo.same_owner(&hi));
    }

    #[test]
    fn shared_slice_survives_source_drop() {
        let s = {
            let v = vec![9u8; 1024];
            SharedSlice::from(v)
        };
        assert!(s.iter().all(|&b| b == 9));
    }

    #[test]
    fn empty_slice_works() {
        let s: SharedSlice<f64> = SharedSlice::empty();
        assert!(s.is_empty());
        assert_eq!(&*s, &[] as &[f64]);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_reads_file_contents() {
        let dir = ScratchDir::new("mem-test");
        let path = dir.join("data");
        std::fs::write(&path, b"hello mapping").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Mmap::map_readonly(&file).unwrap();
        assert_eq!(map.as_bytes(), b"hello mapping");
        // Unlinking while mapped is safe on unix; the pages stay valid.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(map.as_bytes(), b"hello mapping");
    }

    #[cfg(unix)]
    #[test]
    fn mmap_rejects_empty_file() {
        let dir = ScratchDir::new("mem-empty");
        let path = dir.join("data");
        std::fs::write(&path, b"").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        match Mmap::map_readonly(&file) {
            Err(MapError::Empty) => {}
            other => panic!("expected MapError::Empty, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn mmap_backs_shared_slices() {
        let dir = ScratchDir::new("mem-slice");
        let path = dir.join("data");
        let words: Vec<u64> = (0..64u64).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Arc::new(Mmap::map_readonly(&file).unwrap());
        std::fs::remove_file(&path).unwrap();
        let view = SharedSlice::project_arc(map, |m| {
            let b = m.as_bytes();
            // Page alignment guarantees this cast is sound; real
            // callers go through the checked cast.rs views.
            unsafe { std::slice::from_raw_parts(b.as_ptr() as *const u64, b.len() / 8) }
        });
        assert_eq!(view.len(), 64);
        assert!(view.iter().enumerate().all(|(i, &w)| w == i as u64));
    }
}

/// The suites' self-removing scratch directory, shared with this
/// crate's unit tests.
#[cfg(test)]
#[path = "../../../tests/common/scratch.rs"]
mod scratch;
