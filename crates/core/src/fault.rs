//! Seeded, deterministic fault injection for container images.
//!
//! CCRP stores its instruction stream compressed in ROM, so a single
//! flipped EPROM bit can corrupt a variable-length Huffman stream, a LAT
//! length record, the code table, or the container header. This module
//! generalizes the ad-hoc
//! [`corrupt_lat_length`](crate::CompressedImage::corrupt_lat_length)
//! injector into a campaign API: a [`FaultInjector`] seeded with a
//! `u64` produces [`FaultPlan`]s that flip bits or stomp bytes in a
//! chosen [`FaultRegion`] of a serialized container, and every plan is a
//! pure function of `(seed, layout, region, count)` — campaigns are
//! reproducible bit-for-bit across runs and worker counts.

use std::ops::Range;

use ccrp_compress::CodecId;

use crate::error::CcrpError;
use crate::SplitMix64;

/// A region of the serialized container a fault can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultRegion {
    /// The 24-byte fixed header (magic, version, bases, sizes).
    Header,
    /// The 256-byte Huffman code-length table.
    CodeTable,
    /// The packed compressed blocks.
    Blocks,
    /// The encoded Line Address Table.
    Lat,
    /// The CRC section (version-2 containers only; empty on v1).
    Crc,
    /// Anywhere in the container.
    Any,
}

impl FaultRegion {
    /// Every region, in container order.
    pub const ALL: [FaultRegion; 6] = [
        FaultRegion::Header,
        FaultRegion::CodeTable,
        FaultRegion::Blocks,
        FaultRegion::Lat,
        FaultRegion::Crc,
        FaultRegion::Any,
    ];

    /// A stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultRegion::Header => "header",
            FaultRegion::CodeTable => "code-table",
            FaultRegion::Blocks => "blocks",
            FaultRegion::Lat => "lat",
            FaultRegion::Crc => "crc",
            FaultRegion::Any => "any",
        }
    }

    /// The byte range this region occupies in `layout`.
    pub fn range(self, layout: &ContainerLayout) -> Range<usize> {
        match self {
            FaultRegion::Header => layout.header.clone(),
            // The codec-parameter section (when present) is more code
            // table, so the region spans both.
            FaultRegion::CodeTable => layout.code_table.start..layout.codec_params.end,
            FaultRegion::Blocks => layout.blocks.clone(),
            FaultRegion::Lat => layout.lat.clone(),
            FaultRegion::Crc => layout.crc.clone(),
            FaultRegion::Any => 0..layout.total,
        }
    }
}

/// How a fault mutates its target byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR one bit (a radiation- or wear-induced single-event upset).
    BitFlip {
        /// Bit index 0..8 within the byte.
        bit: u8,
    },
    /// Overwrite the whole byte (a stuck or misprogrammed ROM cell).
    ByteStomp {
        /// The replacement value.
        value: u8,
    },
}

/// One planned mutation of a container byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Absolute byte offset into the serialized container.
    pub offset: usize,
    /// The mutation applied there.
    pub kind: FaultKind,
    /// The region the offset was drawn from.
    pub region: FaultRegion,
}

/// Byte ranges of each section of a serialized container, parsed from
/// its header. Computed once from the pristine bytes; plans built
/// against it are then applied to corrupted copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerLayout {
    /// Total container size in bytes.
    pub total: usize,
    /// The fixed header fields (magic through LAT base).
    pub header: Range<usize>,
    /// The 256-byte code-length table.
    pub code_table: Range<usize>,
    /// Extra codec parameters following the fixed header (empty for
    /// codecs that fit their tables in `code_table`).
    pub codec_params: Range<usize>,
    /// The line codec the container's blocks are encoded with.
    pub codec: CodecId,
    /// The packed compressed blocks.
    pub blocks: Range<usize>,
    /// The encoded LAT.
    pub lat: Range<usize>,
    /// The CRC section (empty for version-1 containers).
    pub crc: Range<usize>,
    /// The container format version (1 or 2).
    pub version: u16,
}

/// A seeded generator of [`FaultPlan`]s.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// Creates an injector; equal seeds produce equal plan sequences.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Draws a plan of `count` faults inside `region`. An empty region
    /// (e.g. [`FaultRegion::Crc`] on a version-1 container) yields an
    /// empty plan — there is nothing there to corrupt.
    pub fn plan(
        &mut self,
        layout: &ContainerLayout,
        region: FaultRegion,
        count: usize,
    ) -> FaultPlan {
        self.draw(region.range(layout), region, count)
    }

    /// Draws a plan of `count` faults anywhere in a raw `len`-byte
    /// buffer, for corrupting artifacts that are not containers —
    /// checkpoint files, report blobs. Faults are tagged
    /// [`FaultRegion::Any`]; an empty buffer yields an empty plan.
    pub fn plan_raw(&mut self, len: usize, count: usize) -> FaultPlan {
        self.draw(0..len, FaultRegion::Any, count)
    }

    /// Draws `count` faults at offsets in `range`, each tagged `region`;
    /// an empty range yields an empty plan.
    fn draw(&mut self, range: Range<usize>, region: FaultRegion, count: usize) -> FaultPlan {
        let mut faults = Vec::with_capacity(count);
        if range.is_empty() {
            return FaultPlan { faults };
        }
        for _ in 0..count {
            let offset = range.start + self.rng.below(range.len() as u64) as usize;
            let kind = if self.rng.next_u64() & 1 == 0 {
                FaultKind::BitFlip {
                    bit: (self.rng.next_u64() & 7) as u8,
                }
            } else {
                FaultKind::ByteStomp {
                    value: (self.rng.next_u64() & 0xFF) as u8,
                }
            };
            faults.push(Fault {
                offset,
                kind,
                region,
            });
        }
        FaultPlan { faults }
    }
}

/// A deterministic list of byte mutations to apply to container bytes.
///
/// # Examples
///
/// ```
/// use ccrp::{CompressedImage, ContainerLayout, FaultPlan, FaultRegion};
/// use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
///
/// let text = vec![0u8; 512];
/// let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
/// let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
/// let pristine = image.to_bytes();
/// let layout = ContainerLayout::of(&pristine)?;
/// let plan = FaultPlan::seeded(42, &layout, FaultRegion::Blocks, 2);
/// let mut corrupt = pristine.clone();
/// plan.apply(&mut corrupt);
/// // Same seed, same plan, same corruption — campaigns are reproducible.
/// let mut again = pristine.clone();
/// FaultPlan::seeded(42, &layout, FaultRegion::Blocks, 2).apply(&mut again);
/// assert_eq!(corrupt, again);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Convenience constructor: a fresh [`FaultInjector`] seeded with
    /// `seed`, asked for one plan.
    pub fn seeded(
        seed: u64,
        layout: &ContainerLayout,
        region: FaultRegion,
        count: usize,
    ) -> FaultPlan {
        FaultInjector::new(seed).plan(layout, region, count)
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies every fault to `bytes`, returning how many actually
    /// changed a byte (a bit flip always does; a stomp whose value
    /// equals the original is a no-op and classified `benign` by
    /// campaigns). Offsets beyond `bytes` are skipped.
    pub fn apply(&self, bytes: &mut [u8]) -> usize {
        let mut changed = 0;
        for fault in &self.faults {
            let Some(byte) = bytes.get_mut(fault.offset) else {
                continue;
            };
            let before = *byte;
            match fault.kind {
                FaultKind::BitFlip { bit } => *byte ^= 1 << bit,
                FaultKind::ByteStomp { value } => *byte = value,
            }
            if *byte != before {
                changed += 1;
            }
        }
        changed
    }
}

impl ContainerLayout {
    /// Parses the section ranges out of serialized container bytes.
    ///
    /// # Errors
    ///
    /// [`CcrpError::BadContainer`] when `bytes` is not a structurally
    /// well-formed container (this is meant for the *pristine* image a
    /// campaign perturbs, not for corrupted copies).
    pub fn of(bytes: &[u8]) -> Result<ContainerLayout, CcrpError> {
        crate::container::layout_of(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::CompressedImage;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    fn sample_container() -> Vec<u8> {
        let text: Vec<u8> = (0..1024u32).map(|i| (i % 7) as u8).collect();
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        CompressedImage::build(0, &text, code, BlockAlignment::Word)
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn layout_partitions_the_container() {
        let bytes = sample_container();
        let layout = ContainerLayout::of(&bytes).unwrap();
        assert_eq!(layout.version, 1);
        assert_eq!(layout.header, 0..24);
        assert_eq!(layout.code_table, 24..280);
        assert_eq!(layout.codec, CodecId::ByteHuffman);
        assert!(layout.codec_params.is_empty());
        assert_eq!(layout.blocks.start, 280);
        assert_eq!(layout.blocks.end, layout.lat.start);
        assert_eq!(layout.lat.end, layout.total);
        assert!(layout.crc.is_empty());
        assert_eq!(layout.total, bytes.len());
    }

    #[test]
    fn plans_are_deterministic_and_land_in_region() {
        let bytes = sample_container();
        let layout = ContainerLayout::of(&bytes).unwrap();
        for region in [
            FaultRegion::Header,
            FaultRegion::CodeTable,
            FaultRegion::Blocks,
            FaultRegion::Lat,
            FaultRegion::Any,
        ] {
            let a = FaultPlan::seeded(7, &layout, region, 5);
            let b = FaultPlan::seeded(7, &layout, region, 5);
            assert_eq!(a, b, "{region:?}");
            let range = region.range(&layout);
            for fault in a.faults() {
                assert!(range.contains(&fault.offset), "{region:?} {fault:?}");
            }
        }
        // Different seeds diverge.
        assert_ne!(
            FaultPlan::seeded(1, &layout, FaultRegion::Any, 8),
            FaultPlan::seeded(2, &layout, FaultRegion::Any, 8)
        );
    }

    #[test]
    fn empty_region_yields_empty_plan() {
        let bytes = sample_container();
        let layout = ContainerLayout::of(&bytes).unwrap();
        assert!(FaultPlan::seeded(3, &layout, FaultRegion::Crc, 4)
            .faults()
            .is_empty());
    }

    #[test]
    fn bit_flips_always_change_stomps_may_not() {
        let bytes = sample_container();
        let layout = ContainerLayout::of(&bytes).unwrap();
        let plan = FaultPlan::seeded(99, &layout, FaultRegion::Blocks, 16);
        let mut corrupt = bytes.clone();
        let changed = plan.apply(&mut corrupt);
        let flips = plan
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::BitFlip { .. }))
            .count();
        assert!(changed >= 1);
        assert!(changed <= plan.faults().len());
        // Every bit flip at a distinct offset changes its byte; stomps
        // may restore the original value, so `changed` can exceed or
        // trail `flips` but never the plan size.
        let _ = flips;
        assert_ne!(corrupt, bytes);
    }

    #[test]
    fn layout_rejects_junk() {
        assert!(ContainerLayout::of(b"not a container").is_err());
    }
}
