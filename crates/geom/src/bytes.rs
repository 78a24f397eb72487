//! Byte-level primitives of the persistent Step-0 store: a page-aligned
//! buffer (heap or file mapping), the store's checksum, the FNV-1a
//! digest, the trim-before-free idiom, and the
//! little-endian [`Enc`] / [`Dec`] cursor every artifact image is written
//! with.
//!
//! Each Step-0 artifact — [`Relation`](crate::Relation), the R*-tree,
//! the conservative / progressive columns, the raster signatures — is its
//! own persistent image: `to_bytes` streams the live columns through an
//! [`Enc`], a validating `from_bytes` lifts them back out of a [`Dec`].
//! The cursor lives here, below every artifact crate, so the format of an
//! artifact is known to exactly one module (the artifact's own) and
//! `msj-store` stays a container of opaque checksummed sections.
//!
//! Every multi-byte value is little-endian; `f64`s go through
//! `to_bits`/`from_bits`, so NaN sentinels (the progressive stores' empty
//! slots) and every other bit pattern round-trip exactly. Columns carry a
//! `u64` element-count prefix; the decoder checks each count against
//! the bytes that remain before anything is sized from it, so a corrupted
//! count is a decode error, never an over-allocation. A decoded column is
//! a [`Col`] borrowed from the payload; those decoders copy it into the
//! live structure, element by element.
//!
//! One image is not decoded at all: the TR* arena's is already its
//! resident layout, so its loader validates the section and keeps it
//! where it lies. [`SharedBytes`] is such a section — a byte range of an
//! `Arc`-shared [`AlignedBuf`] that outlives the segment read — and
//! [`cast_slice`] views an aligned range of it as `&[T]` for a [`Plain`]
//! record type. `cast_slice` checks alignment and record length, and
//! builds only on little-endian targets, where native order is the
//! image's.
//!
//! [`AlignedBuf`] is a payload that starts on a [`PAGE_SIZE`] boundary:
//! a `Vec<u8>` offset to its first aligned byte, or — how a segment file
//! is opened — a private, unpopulated mapping of the file
//! ([`AlignedBuf::map`]), so a cold open neither allocates nor copies
//! the segment: its pages come from the page cache as the checksums
//! touch them, and the TR* arena stays in them. Outside the SIMD kernels
//! this module holds the crate's only `unsafe`: `cast_slice`, and the
//! mapping's `extern` declaration, `mmap` and `munmap` (the repo links no
//! libc); off 64-bit Linux `map` reads the file instead.
//!
//! Two 64-bit hashes live here, for two different jobs:
//!
//! * [`checksum`] is the **integrity check**: recorded per section and
//!   for the manifest in every segment file, re-verified on every load.
//!   It runs on every cold open, so it must run at memory speed: four
//!   independent lanes each fold one little-endian `u64` per 32-byte
//!   stripe through an xxh64-style multiply–rotate round — ≈ 13 GB/s on
//!   one x86-64 core where byte-serial FNV-1a manages ≈ 0.85 (`repro
//!   kernels` prints both). Its value is part of the store format:
//!   changing the function is a `STORE_VERSION` bump.
//! * [`fnv1a64`] is the **digest**: a short, stable, byte-serial name for
//!   an answer or an image (the benchmark's response digests, golden image
//!   sums in tests, the engine's configuration tag). Its values are pinned
//!   in tests and in recorded results across many commits, and what it
//!   hashes is small, so it stays.
//!
//! Every round of the checksum is a bijection in its lane state and in its
//! input word, each lane is finalised by a bijection, and the lanes are
//! xor-combined with the length: inputs of equal length that differ inside
//! one 8-byte word — in particular every single-bit flip — always sum
//! differently.

use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The store's page size in bytes. Matches the paper's 4 KB R*-tree page
/// (§3.4) and the common OS page, so an aligned buffer is also
/// mmap-compatible.
pub const PAGE_SIZE: usize = 4096;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes` — the digest (see the module docs; the
/// store's integrity check is [`checksum`]). Same constants as
/// [`fnv1a64_update`] seeded with [`FNV_OFFSET`].
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a state `h` — for digesting data
/// that arrives in chunks.
#[inline]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// xxh64's five primes: odd, so every multiply below is a bijection.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Independent lanes; each stripe hands every lane one word.
const LANES: usize = 4;
/// Bytes per stripe.
const STRIPE: usize = 8 * LANES;
/// Distinct lane start states, so equal lanes are not the rule.
const LANE_SEEDS: [u64; LANES] = [P1.wrapping_add(P2), P2, P3, P4];

/// One lane step: bijective in `lane` for a fixed `word` and in `word`
/// for a fixed `lane` (odd multiplies, an add, a rotate).
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A lane's finaliser: xor-shifts and odd multiplies, a bijection.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The store's 64-bit integrity checksum of `bytes` (see the module docs).
/// The words of a last, partial stripe go to the first lanes in order, the
/// final one zero-padded; the length tells a padded input from its zero
/// extension.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut stripes = bytes.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        *lane = round(*lane, word(&padded));
    }
    let len = bytes.len() as u64;
    lanes
        .into_iter()
        .fold(len.wrapping_mul(P5), |h, lane| h ^ avalanche(lane))
}

/// A buffer whose payload starts on a [`PAGE_SIZE`]-aligned address: a
/// heap block ([`AlignedBuf::zeroed`]) or a private mapping of a file
/// ([`AlignedBuf::map`]). It is fixed-size after construction.
pub struct AlignedBuf(Backing);

enum Backing {
    /// A `Vec<u8>` over-allocated by one page, the payload offset to the
    /// first aligned byte — no `unsafe`, no allocator APIs.
    Heap {
        raw: Vec<u8>,
        offset: usize,
        len: usize,
    },
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped(map::Mapping),
}

impl AlignedBuf {
    /// A zeroed buffer of `len` bytes starting on a page boundary.
    pub fn zeroed(len: usize) -> Self {
        let raw = vec![0u8; len + PAGE_SIZE];
        let offset = {
            let addr = raw.as_ptr() as usize;
            (PAGE_SIZE - addr % PAGE_SIZE) % PAGE_SIZE
        };
        AlignedBuf(Backing::Heap { raw, offset, len })
    }

    /// The whole of `file`, sized from this handle's own metadata (not
    /// from its path, which a rename may point at another file by then).
    ///
    /// On 64-bit Linux the file is mapped `MAP_PRIVATE` with read and
    /// write access and not populated: a page is read from the page cache
    /// when first touched, and a write copies that one page for this
    /// buffer alone — the file is never written. Populating the mapping
    /// up front would copy every page, since it is writable. Elsewhere
    /// the file is read into a [`AlignedBuf::zeroed`] buffer.
    ///
    /// The mapping holds the inode, so a file renamed over or unlinked
    /// after the call leaves the buffer as it was. The buffer assumes,
    /// like every file mapping, that nothing **writes or truncates that
    /// inode in place** while it lives: unwritten pages show the file, so
    /// such an edit changes bytes under a shared borrow, and a truncated
    /// page faults with `SIGBUS`. The store never edits a segment in
    /// place; it replaces one through a rename.
    pub fn map(file: &File) -> io::Result<Self> {
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds memory"))?;
        if len == 0 {
            return Ok(Self::zeroed(0));
        }
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        let buf = AlignedBuf(Backing::Mapped(map::Mapping::private(file, len)?));
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        let buf = {
            let mut buf = Self::zeroed(len);
            io::Read::read_exact(&mut &*file, buf.as_mut_slice())?;
            buf
        };
        Ok(buf)
    }

    /// Number of payload bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload, starting on a page-aligned address.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Backing::Heap { raw, offset, len } => &raw[*offset..*offset + *len],
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Backing::Mapped(map) => map.bytes(),
        }
    }

    /// Mutable payload, starting on a page-aligned address. Writing to a
    /// mapped buffer copies the pages written, never the file.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Backing::Heap { raw, offset, len } => &mut raw[*offset..*offset + *len],
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Backing::Mapped(map) => map.bytes_mut(),
        }
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mapped = !matches!(self.0, Backing::Heap { .. });
        f.debug_struct("AlignedBuf")
            .field("len", &self.len())
            .field("mapped", &mapped)
            .finish()
    }
}

/// The one mapping [`AlignedBuf::map`] makes. The repo links no libc, so
/// the two calls are declared here; the constants are Linux's on every
/// architecture.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod map {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    // SAFETY: the C library's `mmap(2)` and `munmap(2)` with their
    // signatures on a 64-bit Linux target (`off_t` is `i64`).
    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A private, writable mapping of a whole file, unmapped on drop. The
    /// slice is the mapping: it is only ever lent out for the lifetime of
    /// a borrow of the `Mapping`, never for `'static`.
    pub(super) struct Mapping(&'static mut [u8]);

    impl Mapping {
        /// Maps the first `len > 0` bytes of `file`, which has `len` bytes.
        pub(super) fn private(file: &File, len: usize) -> io::Result<Self> {
            // SAFETY: `mmap` with a null hint picks fresh pages of its own,
            // so the mapping aliases no Rust object, and `file`'s
            // descriptor is open for the call. On success the result is a
            // page-aligned, readable and writable range of `len` bytes,
            // backed by the file's `len` bytes (the last page's tail
            // reads as zeros), that stays valid until `munmap` in `drop`.
            // `MAP_PRIVATE` makes writes through the slice this process's
            // own copies; no other process's writes reach the pages this
            // process has written. Pages not yet written show the file,
            // so the slice stays as mapped only while nothing edits or
            // truncates that inode in place — the contract of
            // `AlignedBuf::map`, which the store keeps by replacing
            // segment files through a rename.
            let bytes = unsafe {
                let ptr = mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                );
                (ptr != MAP_FAILED).then(|| std::slice::from_raw_parts_mut(ptr.cast::<u8>(), len))
            };
            bytes.map(Mapping).ok_or_else(io::Error::last_os_error)
        }

        pub(super) fn bytes(&self) -> &[u8] {
            &self.0[..]
        }

        pub(super) fn bytes_mut(&mut self) -> &mut [u8] {
            &mut self.0[..]
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            let map = std::mem::take(&mut self.0);
            // SAFETY: `map` is exactly the range `private` mapped; it was
            // taken out of `self`, so nothing can reach it after this
            // call, and every slice lent out borrowed `self`, which is
            // being dropped. A failing `munmap` leaves the pages mapped,
            // which only leaks them.
            unsafe { munmap(map.as_mut_ptr().cast(), map.len()) };
        }
    }
}

/// Empties `column` and shrinks it to room for one element, so that its
/// allocation is given back through a shrinking `realloc` rather than freed
/// whole. Call it on a multi-MB `Vec` just before it goes.
///
/// glibc serves a block of a few MB with `mmap`, and *freeing* an mmapped
/// block raises its mmap threshold to that block's size for the rest of
/// the process. After that, every allocation below the new threshold
/// comes from the heap: a later 5–10 MB buffer that grows by doubling is
/// copied with both copies resident instead of moved by `mremap`, and
/// blocks freed under a long-lived one stay resident. Freeing a dropped
/// relation's TR* arena whole flipped a serving process's peak resident
/// set by 5 MB from run to run; freeing a write-through's section images
/// whole (≈ 4 MB of TR* image per 2k objects) left `ingest_reopen`'s peak
/// at 22.8–23.0 MB against 17.9–18.2 with this trim. A shrinking
/// `realloc` hands the pages back without the side effect; under any
/// other allocator it is one cheap call.
pub fn shrink_before_free<T>(column: &mut Vec<T>) {
    column.clear();
    column.shrink_to(1);
}

/// A byte range of an `Arc`-shared [`AlignedBuf`]: a verified store
/// section that an artifact can keep where it lies — in a segment's
/// mapping, so in the page cache. Cloning shares the buffer; the buffer
/// is freed (or unmapped) with its last range.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<AlignedBuf>,
    range: Range<usize>,
}

impl SharedBytes {
    /// The bytes `range` of `buf`. Panics when `range` is not inside it.
    pub fn new(buf: Arc<AlignedBuf>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "range outside the buffer"
        );
        SharedBytes { buf, range }
    }

    /// A copy of `bytes` in a buffer of its own, starting on a page
    /// boundary — how a caller holding only a `&[u8]` reaches a loader
    /// that adopts in place.
    pub fn copy_of(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        SharedBytes::new(Arc::new(buf), 0..bytes.len())
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf.as_slice()[self.range.clone()]
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBytes")
            .field("range", &self.range)
            .field("buffer_len", &self.buf.len())
            .finish()
    }
}

/// A record type that [`cast_slice`] may view image bytes as, in place.
///
/// # Safety
///
/// An implementor is a primitive integer or float, or a `#[repr(C)]`
/// struct of `Plain` fields with no padding bytes and no interior
/// mutability. Then every initialised pattern of `size_of::<Self>()`
/// bytes is a valid value, and a shared `&[Self]` over shared bytes
/// aliases nothing mutable. Library invariants a value must also hold
/// (ordered rectangle bounds, say) are the adopting loader's to check:
/// breaking them is a wrong answer, never undefined behaviour. Each
/// implementor pins its size, alignment and field offsets to its image
/// record with compile-time assertions next to the `unsafe impl`.
pub unsafe trait Plain: Copy + Send + Sync + 'static {}

// SAFETY: four bytes, every pattern a valid `u32`, no padding, no
// interior mutability.
unsafe impl Plain for u32 {}

/// Views `bytes` as `bytes.len() / size_of::<T>()` records of `T`, in
/// place. Refuses a start that is not aligned for `T` and a length that is
/// not a whole number of records; zero bytes are an empty slice. The
/// records are read in native byte order, so the helper builds only on
/// little-endian targets, where that is the images' order.
#[cfg(target_endian = "little")]
pub fn cast_slice<T: Plain>(bytes: &[u8]) -> DecResult<&[T]> {
    let size = const {
        assert!(std::mem::size_of::<T>() > 0, "zero-sized record");
        std::mem::size_of::<T>()
    };
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err("column misaligned for its record type");
    }
    if !bytes.len().is_multiple_of(size) {
        return Err("column is not a whole number of records");
    }
    // SAFETY: the pointer is non-null and aligned for `T` (checked
    // above); the `bytes.len() / size` records cover exactly `bytes`
    // (checked above), which is initialised, in one allocation, and
    // borrowed shared for the returned lifetime; `T: Plain` makes every
    // byte pattern a valid `T` with nothing interior-mutable (trait
    // contract), and native order is little-endian (`cfg`).
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

/// Append-only little-endian encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An encoder whose buffer already holds room for `bytes` bytes — an
    /// image knows its size before it writes its first column.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// `N` scalars in a row — one record of a fixed-width column.
    pub fn f64x<const N: usize>(&mut self, vs: [f64; N]) {
        for v in vs {
            self.f64(v);
        }
    }

    /// The element-count prefix of a column whose `n` elements the caller
    /// writes next, one scalar at a time.
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A counted `u32` column.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.count(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
}

/// Why a [`Dec`] read — or an artifact's `from_bytes` built on it —
/// rejected a payload.
pub type DecResult<T> = Result<T, &'static str>;

/// Cursor-style decoder over a section payload. All reads are checked;
/// a truncated payload or an oversized count yields `Err`, never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let s = self.buf.get(self.pos..end).ok_or("payload truncated")?;
        self.pos = end;
        Ok(s)
    }

    pub fn u32(&mut self) -> DecResult<u32> {
        self.take(4).map(u32::read)
    }

    pub fn u64(&mut self) -> DecResult<u64> {
        self.take(8).map(u64::read)
    }

    pub fn f64(&mut self) -> DecResult<f64> {
        self.take(8).map(f64::read)
    }

    /// Reads a column's element-count prefix and checks that `count`
    /// elements of `elem_bytes` bytes each are still in the payload —
    /// the one place a stored length may become an allocation size.
    fn count(&mut self, elem_bytes: usize) -> DecResult<usize> {
        let n = usize::try_from(self.u64()?).map_err(|_| "count overflow")?;
        let bytes = n.checked_mul(elem_bytes).ok_or("count overflow")?;
        if bytes > self.buf.len() - self.pos {
            return Err("count exceeds payload");
        }
        Ok(n)
    }

    fn col<T: Le>(&mut self) -> DecResult<Col<'a, T>> {
        let n = self.count(T::BYTES)?;
        Ok(Col {
            bytes: self.take(n * T::BYTES)?,
            elem: PhantomData,
        })
    }

    /// A counted `u32` column, borrowed from the payload.
    pub fn u32s(&mut self) -> DecResult<Col<'a, u32>> {
        self.col()
    }

    /// A counted `f64` column, borrowed from the payload.
    pub fn f64s(&mut self) -> DecResult<Col<'a, f64>> {
        self.col()
    }

    /// Asserts the payload is fully consumed — trailing garbage means a
    /// malformed section.
    pub fn finish(self) -> DecResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in payload")
        }
    }
}

/// A scalar with a fixed little-endian encoding — what a [`Col`] holds.
pub trait Le: Copy + 'static {
    const BYTES: usize;
    /// Decodes exactly [`Le::BYTES`] bytes.
    fn read(bytes: &[u8]) -> Self;
}

impl Le for u32 {
    const BYTES: usize = 4;
    fn read(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4-byte slice"))
    }
}

impl Le for u64 {
    const BYTES: usize = 8;
    fn read(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
    }
}

impl Le for f64 {
    const BYTES: usize = 8;
    fn read(bytes: &[u8]) -> Self {
        f64::from_bits(u64::read(bytes))
    }
}

/// A decoded column: `len` little-endian scalars still sitting in the
/// payload they were read from. Indexing panics out of range, like a
/// slice; decoders check their offsets against [`Col::len`] first.
#[derive(Debug, Clone, Copy)]
pub struct Col<'a, T> {
    bytes: &'a [u8],
    elem: PhantomData<T>,
}

impl<'a, T: Le> Col<'a, T> {
    pub fn len(&self) -> usize {
        self.bytes.len() / T::BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::read(&self.bytes[i * T::BYTES..(i + 1) * T::BYTES])
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a {
        self.bytes.chunks_exact(T::BYTES).map(T::read)
    }

    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_page_aligned_and_sized() {
        for len in [0usize, 1, 17, PAGE_SIZE, PAGE_SIZE + 1, 3 * PAGE_SIZE] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().len(), len);
            if len > 0 {
                assert_eq!(buf.as_slice().as_ptr() as usize % PAGE_SIZE, 0);
                buf.as_mut_slice()[len - 1] = 0xAB;
                assert_eq!(buf.as_slice()[len - 1], 0xAB);
            }
        }
    }

    #[test]
    fn a_mapped_file_is_its_bytes_and_keeps_its_writes_to_itself() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("msj_geom_map_{}", std::process::id()));
        let bytes = pattern(3 * PAGE_SIZE + 17);
        std::fs::write(&path, &bytes).unwrap();
        let file = File::open(&path).unwrap();
        let mut buf = AlignedBuf::map(&file).unwrap();
        let other = AlignedBuf::map(&file).unwrap();
        assert_eq!(buf.as_slice(), &bytes[..]);
        assert_eq!(buf.as_slice().as_ptr() as usize % PAGE_SIZE, 0);
        // A write copies its page for this buffer alone.
        buf.as_mut_slice()[PAGE_SIZE + 5] ^= 0xFF;
        assert_eq!(buf.as_slice()[PAGE_SIZE + 5], bytes[PAGE_SIZE + 5] ^ 0xFF);
        assert_eq!(buf.as_slice()[PAGE_SIZE + 6..], bytes[PAGE_SIZE + 6..]);
        assert_eq!(other.as_slice(), &bytes[..]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the file is untouched"
        );
        drop(buf);
        // A mapping holds its inode: unlinking the name changes nothing.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(other.as_slice(), &bytes[..]);
        let shared = SharedBytes::new(Arc::new(other), PAGE_SIZE..2 * PAGE_SIZE);
        assert_eq!(&shared[..], &bytes[PAGE_SIZE..2 * PAGE_SIZE]);
        drop(shared);

        std::fs::write(&path, b"").unwrap();
        let empty = AlignedBuf::map(&File::open(&path).unwrap()).unwrap();
        assert!(empty.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cast_slice_refuses_misaligned_and_partial_columns() {
        let mut buf = AlignedBuf::zeroed(64);
        for (i, b) in buf.as_mut_slice().iter_mut().enumerate() {
            *b = i as u8;
        }
        let bytes = buf.as_slice();
        for start in 1..4 {
            let err = cast_slice::<u32>(&bytes[start..start + 8]);
            assert_eq!(
                err,
                Err("column misaligned for its record type"),
                "start {start}"
            );
        }
        for len in [1, 2, 3, 5, 7] {
            let err = cast_slice::<u32>(&bytes[..len]);
            assert_eq!(
                err,
                Err("column is not a whole number of records"),
                "len {len}"
            );
        }
        assert_eq!(cast_slice::<u32>(&bytes[4..4]), Ok(&[][..]));
        let words = cast_slice::<u32>(&bytes[4..12]).expect("exact fit");
        assert_eq!(words, [0x0706_0504, 0x0b0a_0908]);
        let shared = SharedBytes::new(std::sync::Arc::new(buf), 8..24);
        assert_eq!(shared.len(), 16);
        assert_eq!(shared[0], 8);
        assert_eq!(SharedBytes::copy_of(&shared).as_slice(), &shared[..]);
        assert_eq!(
            SharedBytes::copy_of(&shared).as_ptr() as usize % PAGE_SIZE,
            0
        );
    }

    #[test]
    fn cursor_round_trips_scalars_and_columns() {
        let mut e = Enc::with_capacity(64);
        e.u32(7);
        e.u64(u64::MAX - 1);
        e.f64(f64::NAN);
        e.u32s(&[1, 2, 3]);
        e.count(2);
        e.f64x([-0.0, 1.5]);
        e.count(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32(), Ok(7));
        assert_eq!(d.u64(), Ok(u64::MAX - 1));
        assert_eq!(d.f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        let col = d.u32s().unwrap();
        assert_eq!((col.len(), col.get(2), col.to_vec()), (3, 3, vec![1, 2, 3]));
        let col = d.f64s().unwrap();
        assert_eq!(col.get(0).to_bits(), (-0.0f64).to_bits());
        assert!(d.u32s().unwrap().is_empty());
        assert_eq!(d.finish(), Ok(()));
        assert!(Dec::new(&bytes[..bytes.len() - 1]).finish().is_err());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_that_remain() {
        // A count of 2^61 f64s: refused before anything is sized from it,
        // and without overflowing the byte computation.
        let mut e = Enc::default();
        e.u64(1 << 61);
        e.f64(0.0);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).f64s().err(), Some("count overflow"));
        let mut e = Enc::default();
        e.count(2);
        e.u32(0);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).u32s().err(), Some("count exceeds payload"));
        assert_eq!(
            Dec::new(&bytes[..7]).u32s().err(),
            Some("payload truncated")
        );
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_update_chunks_agree_with_one_shot() {
        let data = b"multi-step processing of spatial joins";
        let whole = fnv1a64(data);
        let mut h = FNV_OFFSET;
        for chunk in data.chunks(7) {
            h = fnv1a64_update(h, chunk);
        }
        assert_eq!(h, whole);
    }

    /// `len` bytes of a fixed pseudo-random pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8 ^ i as u8)
            .collect()
    }

    #[test]
    fn checksum_matches_pinned_vectors() {
        // The store format: a change here is a `STORE_VERSION` bump.
        // Every tail shape: empty, a partial word, one word, a stripe less
        // a byte, one stripe, a stripe and a byte, whole pages.
        let pinned: [(usize, u64); 8] = [
            (0, 0x2004_dfb2_e1b9_a8b1),
            (1, 0x2359_4355_3625_5b98),
            (7, 0xc9d7_a54c_6bbf_6d02),
            (8, 0x6da4_7da5_b575_0575),
            (31, 0x0884_5031_2eb9_ee14),
            (32, 0x5092_4113_2deb_eff8),
            (33, 0x1e03_ecb6_6cd7_3f78),
            (4096, 0x0b2d_61f7_31fd_c094),
        ];
        for (len, sum) in pinned {
            assert_eq!(checksum(&pattern(len)), sum, "{len} bytes");
        }
        assert_eq!(
            checksum(b"multi-step processing of spatial joins"),
            0xfcd6_4c91_431c_2a34
        );
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // Every tail length, and stripes on both sides of a lane boundary.
        for len in 0..=130 {
            let mut bytes = pattern(len);
            let sum = checksum(&bytes);
            for at in 0..len {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    assert_ne!(checksum(&bytes), sum, "len {len}, byte {at}, bit {bit}");
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn checksum_tells_an_input_from_its_zero_extension() {
        for len in 0..=130 {
            let mut bytes = pattern(len);
            let sum = checksum(&bytes);
            for extra in 1..=40 {
                bytes.push(0);
                assert_ne!(checksum(&bytes), sum, "len {len} + {extra} zeros");
            }
        }
        assert_ne!(checksum(&[]), checksum(&[0; 32]));
    }
}
