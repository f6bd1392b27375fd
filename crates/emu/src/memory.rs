use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte-addressed little-endian memory, paged so sparse address spaces
/// (text at 0, data at 4 MB, stack near the top) stay cheap.
///
/// Reads from pages that were never written return `None`, which the
/// emulator turns into an [`UnmappedRead`](crate::EmuError::UnmappedRead)
/// fault — catching workload bugs instead of silently reading zeros.
///
/// Pages live in `frames` in the order they were mapped; `index` maps
/// each page number to its frame in ascending page order, and a small
/// direct-mapped cache of recent lookups sits in front of it, so most
/// accesses find their page without walking the map.
#[derive(Debug, Default)]
pub struct Memory {
    /// Page number → slot in `frames`, in ascending page order.
    index: BTreeMap<u32, u32>,
    /// The mapped pages, in mapping order. Pages are never unmapped, so
    /// a slot names the same page for the memory's lifetime.
    frames: Vec<Box<Page>>,
    /// Recent `index` lookups: entry [`recent_entry`] of a page holds
    /// `slot << 32 | (page + 1)`, or 0 when empty. Reads through `&self`
    /// fill it, hence atomics; `Relaxed` suffices because an entry
    /// publishes nothing but a slot, and slots never move.
    recent: [AtomicU64; RECENT],
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Entries in [`Memory`]'s cache of recent page lookups.
const RECENT: usize = 8;

/// Size of one memory page in bytes; the granularity at which
/// checkpoints serialize memory.
pub const PAGE_BYTES: usize = PAGE_SIZE;

type Page = [u8; PAGE_SIZE];

/// The cache entry a page number uses. Folding in bits 8 and up keeps
/// text (page 0), data (page 0x400) and the stack (page 0xEFF) apart.
fn recent_entry(page: u32) -> usize {
    (page ^ (page >> 8)) as usize % RECENT
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Self {
            index: self.index.clone(),
            frames: self.frames.clone(),
            recent: std::array::from_fn(|i| AtomicU64::new(self.recent[i].load(Ordering::Relaxed))),
        }
    }
}

/// Two memories are equal when they map the same pages with the same
/// bytes, whatever order the pages were mapped in.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.pages().eq(other.pages())
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `bytes` into memory starting at `base`, mapping pages as
    /// needed — one page lookup per page touched. Addresses wrap at the
    /// top of the address space, as every effective address does.
    pub fn load(&mut self, base: u32, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = addr as usize & (PAGE_SIZE - 1);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - offset));
            self.page_mut(addr)[offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
    }

    /// The frame slot of page number `page`, when mapped: from the
    /// cache of recent lookups when it holds the page, else from the
    /// map, which then refills the cache entry.
    #[inline]
    fn slot(&self, page: u32) -> Option<usize> {
        let entry = &self.recent[recent_entry(page)];
        let cached = entry.load(Ordering::Relaxed);
        // Page numbers have 20 bits, so `page + 1` never wraps.
        if cached as u32 == page + 1 {
            return Some((cached >> 32) as usize);
        }
        let slot = *self.index.get(&page)?;
        entry.store(
            (u64::from(slot) << 32) | u64::from(page + 1),
            Ordering::Relaxed,
        );
        Some(slot as usize)
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let slot = self.slot(addr >> PAGE_BITS)?;
        Some(&self.frames[slot])
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let page = addr >> PAGE_BITS;
        let slot = match self.slot(page) {
            Some(slot) => slot,
            None => self.map(page),
        };
        &mut self.frames[slot]
    }

    /// Maps page number `page`, zero-filled, and returns its slot.
    #[cold]
    fn map(&mut self, page: u32) -> usize {
        let slot = self.frames.len();
        self.frames.push(Box::new([0u8; PAGE_SIZE]));
        self.index.insert(page, slot as u32);
        slot
    }

    /// Reads `N` consecutive bytes: one page lookup when they stay
    /// inside one page, byte by byte (wrapping at the top of the
    /// address space) when they straddle a page boundary. `None` if any
    /// byte's page was never mapped.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let offset = addr as usize & (PAGE_SIZE - 1);
        if offset + N <= PAGE_SIZE {
            return self.page(addr)?[offset..].first_chunk().copied();
        }
        let mut bytes = [0u8; N];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u32))?;
        }
        Some(bytes)
    }

    /// Writes `bytes` at `addr`, mapping pages on demand — the write
    /// half of [`read_bytes`](Self::read_bytes).
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let offset = addr as usize & (PAGE_SIZE - 1);
        if offset + N <= PAGE_SIZE {
            self.page_mut(addr)[offset..offset + N].copy_from_slice(&bytes);
            return;
        }
        for (i, byte) in bytes.into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), byte);
        }
    }

    /// Reads one byte; `None` if the page was never mapped.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Option<u8> {
        self.page(addr)
            .map(|p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte, mapping the page on demand.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian halfword. The caller checks alignment.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Option<u16> {
        self.read_bytes(addr).map(u16::from_le_bytes)
    }

    /// Writes a little-endian halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian word. The caller checks alignment.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        self.read_bytes(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Number of mapped pages (for resource accounting in tests).
    pub fn mapped_pages(&self) -> usize {
        self.index.len()
    }

    /// Iterates `(page_index, page_bytes)` for every mapped page in
    /// ascending page-index order — a deterministic order, so memory
    /// serializes identically across runs. A page's base address is
    /// `page_index << 12`.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8; PAGE_BYTES])> + '_ {
        self.index
            .iter()
            .map(|(&index, &slot)| (index, &*self.frames[slot as usize]))
    }

    /// Installs a full page at `page_index`, replacing any existing
    /// mapping — the rebuild half of [`pages`](Self::pages).
    pub fn install_page(&mut self, page_index: u32, bytes: &[u8; PAGE_BYTES]) {
        let slot = match self.index.get(&page_index) {
            Some(&slot) => slot as usize,
            None => self.map(page_index),
        };
        *self.frames[slot] = *bytes;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn unmapped_reads_are_none() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), None);
        assert_eq!(m.read_u32(0x123456), None);
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        m.write_u8(addr, 0);
        assert_eq!(m.read_u32(addr), None, "the second page is unmapped");
        assert_eq!(m.read_u16(addr + 1), None);
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), Some(0xAABB_CCDD));
        assert_eq!(m.read_u8(addr), Some(0xDD)); // little-endian
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn load_places_bytes() {
        let mut m = Memory::new();
        m.load(0x100, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0x100), Some(0x0403_0201));
    }

    #[test]
    fn sparse_mapping_is_cheap() {
        let mut m = Memory::new();
        m.write_u8(0, 1);
        m.write_u8(0x00FF_FFF0, 2);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn load_copies_across_pages_and_wraps() {
        let mut m = Memory::new();
        let bytes: Vec<u8> = (0..=255).cycle().take(2 * PAGE_SIZE + 3).collect();
        m.load(PAGE_SIZE as u32 - 1, &bytes);
        assert_eq!(m.mapped_pages(), 4);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(PAGE_SIZE as u32 - 1 + i as u32), Some(b));
        }
        let mut top = Memory::new();
        top.load(u32::MAX - 1, &[1, 2, 3]);
        assert_eq!(top.read_u8(0), Some(3), "the copy wraps to address 0");
        assert_eq!(top.read_u16(u32::MAX - 1), Some(0x0201));
        assert_eq!(top.read_u32(u32::MAX - 1), Some(0x0003_0201));
        let indices: Vec<u32> = top.pages().map(|(index, _)| index).collect();
        assert_eq!(indices, [0, u32::MAX >> PAGE_BITS]);
    }

    /// The reference the word-wide paths are checked against: one map
    /// entry per written byte, plus the set of mapped pages.
    #[derive(Debug, Default)]
    struct ByteModel {
        bytes: HashMap<u32, u8>,
        pages: BTreeSet<u32>,
    }

    impl ByteModel {
        fn write(&mut self, addr: u32, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                let at = addr.wrapping_add(i as u32);
                self.pages.insert(at >> PAGE_BITS);
                self.bytes.insert(at, b);
            }
        }

        fn read(&self, addr: u32, width: u32) -> Option<u32> {
            let mut value = 0;
            for i in 0..width {
                let at = addr.wrapping_add(i);
                if !self.pages.contains(&(at >> PAGE_BITS)) {
                    return None;
                }
                value |= u32::from(self.bytes.get(&at).copied().unwrap_or(0)) << (8 * i);
            }
            Some(value)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read { width: u32, addr: u32 },
        Write { width: u32, addr: u32, value: u32 },
        Load { addr: u32, bytes: Vec<u8> },
    }

    fn width() -> impl Strategy<Value = u32> {
        (0u32..3).prop_map(|log| 1 << log)
    }

    fn addr() -> impl Strategy<Value = u32> {
        prop_oneof![
            // The last bytes of one of a few low pages: accesses
            // straddle into the next page.
            (1u32..5, 1u32..8).prop_map(|(page, back)| (page << PAGE_BITS) - back),
            // The top of the address space, where accesses wrap to 0.
            (0u32..8).prop_map(|back| u32::MAX - back),
            // Anywhere in those low pages, so reads find earlier writes.
            0u32..(5 << PAGE_BITS),
            // Anywhere at all: mostly pages never written.
            any::<u32>(),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (width(), addr()).prop_map(|(width, addr)| Op::Read { width, addr }),
            (width(), addr(), any::<u32>()).prop_map(|(width, addr, value)| Op::Write {
                width,
                addr,
                value
            }),
            (addr(), collection::vec(any::<u8>(), 0..(2 * PAGE_SIZE + 8)))
                .prop_map(|(addr, bytes)| Op::Load { addr, bytes }),
        ]
    }

    proptest! {
        #[test]
        fn word_paths_match_a_byte_model(ops in collection::vec(op(), 1..40)) {
            let mut m = Memory::new();
            let mut model = ByteModel::default();
            for op in ops {
                match op {
                    Op::Read { width, addr } => {
                        let got = match width {
                            1 => m.read_u8(addr).map(u32::from),
                            2 => m.read_u16(addr).map(u32::from),
                            _ => m.read_u32(addr),
                        };
                        prop_assert_eq!(got, model.read(addr, width), "read{} at {:#x}", width * 8, addr);
                    }
                    Op::Write { width, addr, value } => {
                        match width {
                            1 => m.write_u8(addr, value as u8),
                            2 => m.write_u16(addr, value as u16),
                            _ => m.write_u32(addr, value),
                        }
                        model.write(addr, &value.to_le_bytes()[..width as usize]);
                    }
                    Op::Load { addr, bytes } => {
                        m.load(addr, &bytes);
                        model.write(addr, &bytes);
                    }
                }
            }
            // Pages come out in ascending index order, exactly the
            // mapped set, holding the written bytes and zeros elsewhere.
            let indices: Vec<u32> = m.pages().map(|(index, _)| index).collect();
            prop_assert_eq!(&indices, &model.pages.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(m.mapped_pages(), model.pages.len());
            let pages: HashMap<u32, &[u8; PAGE_BYTES]> = m.pages().collect();
            for (&at, &b) in &model.bytes {
                prop_assert_eq!(pages[&(at >> PAGE_BITS)][at as usize & (PAGE_SIZE - 1)], b);
            }
            let nonzero: usize = pages.values().map(|p| p.iter().filter(|&&b| b != 0).count()).sum();
            prop_assert_eq!(nonzero, model.bytes.values().filter(|&&b| b != 0).count());
        }
    }
}
