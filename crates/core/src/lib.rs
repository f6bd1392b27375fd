//! # CCRP — the Compressed Code RISC Processor
//!
//! Reproduction of the core contribution of Wolfe & Chanin, *"Executing
//! Compressed Programs on An Embedded RISC Architecture"* (MICRO-25,
//! 1992): a standard RISC core whose **instruction-cache refill engine
//! decompresses code on demand**, so programs are stored compressed in
//! EPROM yet execute unmodified.
//!
//! The pieces, mapping one-to-one onto the paper's figures:
//!
//! * [`addr`] — instruction-address decomposition (Fig. 7);
//! * [`LatEntry`] / [`LineAddressTable`] — the Line Address Table that
//!   maps program line addresses to compressed block locations, 8 bytes
//!   per 8 lines = 3.125% overhead (Figs. 3 & 6);
//! * [`Clb`] — the Cache Line Address Lookaside Buffer, a fully
//!   associative LRU cache of LAT entries (Fig. 8), and [`ClbStack`],
//!   the LRU stack pass that gives its outcome at every capacity at once;
//! * [`CompressedImage`] — the packed compressed program plus in-memory
//!   LAT (Fig. 4);
//! * [`RefillEngine`] — the cache-miss path with a bit-exact model of the
//!   2-byte-per-cycle pipelined decoder (§3.4);
//! * [`CompactLatEntry`] — an *extension* implementing §5's "further
//!   research into LAT compaction": 4-bit word-length records cut the
//!   table to 2.73% of program size for word-aligned images.
//!
//! Compression itself (bounded Huffman codes, the bypass rule) lives in
//! [`ccrp_compress`]; cache and memory-system simulation live in
//! `ccrp-sim`, which implements [`MemoryTiming`] for the paper's three
//! memory models.
//!
//! # Examples
//!
//! Compress a program and refill a line through the engine:
//!
//! ```
//! use ccrp::{Burst, CompressedImage, MemoryTiming, RefillConfig, RefillEngine};
//! use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
//!
//! // EPROM-like timing: 3 cycles per word, no burst mode.
//! struct Eprom;
//! impl MemoryTiming for Eprom {
//!     fn read_burst(&mut self, _words: u32, now: u64) -> Burst {
//!         Burst { first: now + 3, interval: 3 }
//!     }
//! }
//!
//! let text = vec![0u8; 1024];
//! let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
//! let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
//! let mut engine = RefillEngine::new(RefillConfig::default())?;
//! let outcome = engine.refill(&image, 0x40, 0, &mut Eprom)?;
//! assert!(outcome.ready_at > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
mod budget;
mod clb;
mod compact_lat;
mod container;
mod crc;
mod error;
mod fault;
mod image;
mod lat;
mod refill;
mod rng;
mod snapshot;

pub use budget::{BudgetExhausted, StepBudget};
pub use clb::{Clb, ClbStack, ClbStats};
pub use compact_lat::{CompactLatEntry, COMPACT_ENTRY_BYTES};
pub use crc::crc32;
pub use error::CcrpError;
pub use fault::{ContainerLayout, Fault, FaultInjector, FaultKind, FaultPlan, FaultRegion};
pub use image::{CompressedImage, LineLocation};
pub use lat::{LatEntry, LineAddressTable, ENTRY_BYTES, RECORDS_PER_ENTRY};
pub use refill::{
    Burst, DegradePolicy, IntegrityCheck, MemoryTiming, RefillConfig, RefillEngine, RefillOutcome,
};
pub use rng::SplitMix64;
pub use snapshot::{
    read_frame, write_frame, ByteReader, ByteWriter, SnapshotError, SnapshotHeader,
    SNAPSHOT_HEADER_BYTES, SNAPSHOT_MAGIC,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any program image, under either alignment, verifies: LAT
        /// arithmetic matches the packed layout and every line expands to
        /// the original bytes.
        #[test]
        fn image_invariants(
            seed in any::<u64>(),
            lines in 1usize..40,
            byte_aligned in any::<bool>(),
        ) {
            let mut x = seed | 1;
            let text: Vec<u8> = (0..lines * 32)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // Mix of compressible and hostile bytes.
                    if x & 0x30000 == 0 { (x >> 33) as u8 } else { (x >> 62) as u8 }
                })
                .collect();
            let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
            let alignment = if byte_aligned { BlockAlignment::Byte } else { BlockAlignment::Word };
            let image = CompressedImage::build(0, &text, code, alignment).unwrap();
            prop_assert!(image.verify().is_ok());
            // Stored size never exceeds original + LAT overhead.
            prop_assert!(
                image.total_stored_bytes(false)
                    <= image.original_bytes() + image.lat().storage_bytes()
            );
        }
    }
}
