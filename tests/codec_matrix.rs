//! Cross-codec acceptance properties for the pluggable [`LineCodec`]
//! backends: every paper workload must round-trip through the container
//! under every codec, corrupted v2 streams must be rejected (never
//! silently decoded, never a panic), and the positional code must honor
//! §5's promise against the plain byte-Huffman baseline.

use std::sync::Arc;

use ccrp::{CompressedImage, ContainerLayout, FaultPlan, FaultRegion};
use ccrp_bench::codecs::codec_instance;
use ccrp_bitstream::BitWriter;
use ccrp_compress::{BlockAlignment, CodecId, LineCodec, LINE_SIZE};
use ccrp_workloads::{preselected_code, preselected_positional_code, TracedWorkload};
use proptest::prelude::*;

/// Builds `workload`'s image under the corpus-trained instance of `id`.
fn build(text: &[u8], id: CodecId) -> CompressedImage {
    CompressedImage::build_with_codec(0, text, codec_instance(id), BlockAlignment::Word)
        .unwrap_or_else(|e| panic!("image must build under {id}: {e}"))
}

#[test]
fn every_workload_round_trips_under_every_codec() {
    for workload in TracedWorkload::ALL {
        let text = workload.padded_text().expect("workload assembles");
        for id in CodecId::ALL {
            let image = build(&text, id);
            for (container, label) in [(image.to_bytes(), "v1"), (image.to_bytes_v2(), "v2")] {
                let loaded = CompressedImage::from_bytes(&container)
                    .unwrap_or_else(|e| panic!("{} {label} under {id}: {e}", workload.name()));
                assert_eq!(loaded.codec().id(), id, "{label} preserves the codec id");
                loaded.verify().expect("loaded image verifies");
                let mut line = [0u8; 32];
                for (index, chunk) in text.chunks(32).enumerate() {
                    loaded
                        .expand_line_into(index as u32 * 32, &mut line)
                        .unwrap_or_else(|e| {
                            panic!("{} {label} line {index} under {id}: {e}", workload.name())
                        });
                    assert_eq!(
                        &line[..chunk.len()],
                        chunk,
                        "{} {label} line {index} miscompares under {id}",
                        workload.name()
                    );
                }
            }
        }
    }
}

/// Corrupts every section of a v2 container (the CodeTable region spans
/// the codec-params bytes too) under each codec: the loader either
/// refuses the bytes outright or the CRC records catch the damage at
/// verify time. Nothing may panic, and nothing may verify clean.
#[test]
fn corrupted_v2_streams_are_rejected_under_every_codec() {
    let text = TracedWorkload::ALL[0].padded_text().expect("assembles");
    for id in CodecId::ALL {
        let pristine = build(&text, id).to_bytes_v2();
        let layout = ContainerLayout::of(&pristine).expect("layout parses");
        for region in FaultRegion::ALL {
            for seed in 0..32u64 {
                let plan = FaultPlan::seeded(seed, &layout, region, 2);
                let mut corrupt = pristine.clone();
                if plan.apply(&mut corrupt) == 0 {
                    continue; // value-stomp no-op: nothing to detect
                }
                let verdict = CompressedImage::from_bytes(&corrupt).and_then(|image| {
                    image.verify()?;
                    let mut line = [0u8; 32];
                    for index in 0..image.line_count() {
                        image.expand_line_into(index as u32 * 32, &mut line)?;
                    }
                    Ok(())
                });
                assert!(
                    verdict.is_err(),
                    "{id}: seed {seed} corruption in {} went undetected",
                    region.name()
                );
            }
        }
    }
}

/// §5's differential: on every paper workload the per-byte-offset
/// positional code spends no more bits than the plain byte code trained
/// on the same pooled corpus, and both agree exactly on symbol
/// boundaries (the per-byte cumulative-bit profile is strictly
/// increasing and lands on the total).
#[test]
fn positional_code_never_loses_to_plain_huffman_on_the_corpus() {
    let plain = preselected_code();
    let positional = preselected_positional_code();
    for workload in TracedWorkload::ALL {
        let text = workload.padded_text().expect("assembles");
        let mut plain_bits = 0u64;
        let mut positional_bits = 0u64;
        for chunk in text.chunks(32) {
            plain_bits += LineCodec::encoded_bits(plain, chunk);
            positional_bits += LineCodec::encoded_bits(positional, chunk);
        }
        assert!(
            positional_bits <= plain_bits,
            "{}: positional {positional_bits} bits > plain {plain_bits}",
            workload.name()
        );
    }
}

/// One codec's line-level contract, for arbitrary line bytes: encode →
/// decode is the identity, `encoded_bits` matches the bits actually
/// written, and the bit profile is monotone, byte-aligned with the
/// decode order, and ends exactly at `encoded_bits`.
fn check_line_contract(codec: &dyn LineCodec, line: &[u8; LINE_SIZE]) {
    let mut writer = BitWriter::new();
    codec.encode_into(line, &mut writer);
    let bits = codec.encoded_bits(line);
    assert_eq!(
        writer.bit_len(),
        bits,
        "encoded_bits must match encode_into"
    );

    let stored = writer.into_bytes();
    let mut decoded = [0u8; LINE_SIZE];
    codec
        .decode_into(&stored, &mut decoded)
        .unwrap_or_else(|e| panic!("{} must decode its own output: {e}", codec.id()));
    assert_eq!(&decoded, line, "{} round-trip", codec.id());

    let mut profile = [0u64; LINE_SIZE];
    codec.bit_profile(line, &mut profile);
    let mut previous = 0u64;
    for (i, &cumulative) in profile.iter().enumerate() {
        assert!(cumulative >= previous, "profile regresses at byte {i}");
        previous = cumulative;
    }
    assert_eq!(
        profile[LINE_SIZE - 1],
        bits,
        "profile must end at the total"
    );
}

/// Low-entropy 32-byte lines: two- or three-symbol alphabets, all-zero
/// lines and one or two repeated words. Uniform bytes almost never
/// repeat a (code, byte) pair, so these are what drive LZW's dictionary
/// chains, its KwKwK case, and Huffman's shortest codewords.
fn low_entropy_line() -> impl Strategy<Value = [u8; LINE_SIZE]> {
    prop_oneof![
        (
            2u8..=3,
            any::<u8>(),
            any::<u8>(),
            proptest::array::uniform32(any::<u8>()),
        )
            .prop_map(|(symbols, base, step, picks)| {
                picks.map(|pick| base.wrapping_add((pick % symbols).wrapping_mul(step | 1)))
            }),
        Just([0u8; LINE_SIZE]),
        (any::<u32>(), any::<u32>(), 1usize..=2).prop_map(|(a, b, period)| {
            let mut line = [0u8; LINE_SIZE];
            for (i, word) in line.chunks_exact_mut(4).enumerate() {
                let value = if i % period == 0 { a } else { b };
                word.copy_from_slice(&value.to_le_bytes());
            }
            line
        }),
    ]
}

proptest! {
    /// The line contract holds for every codec on arbitrary 32-byte
    /// lines, and on low-entropy ones — the preselected Huffman tables
    /// are complete (every byte has a codeword), so no input is out of
    /// alphabet.
    #[test]
    fn all_codecs_honor_the_line_contract(
        line in proptest::array::uniform32(any::<u8>()),
        low in low_entropy_line(),
    ) {
        for id in CodecId::ALL {
            let codec = codec_instance(id);
            check_line_contract(codec.as_ref(), &line);
            check_line_contract(codec.as_ref(), &low);
        }
    }

    /// Positional and plain Huffman decode the same line from their own
    /// streams to the same bytes — a differential over the two table
    /// layouts (pooled vs per-byte-offset) that would catch any
    /// offset-indexing slip in either decoder.
    #[test]
    fn positional_and_plain_agree_on_arbitrary_lines(
        line in proptest::array::uniform32(any::<u8>()),
    ) {
        let codecs: [Arc<dyn LineCodec>; 2] = [
            Arc::new(preselected_code().clone()),
            Arc::new(preselected_positional_code().clone()),
        ];
        let mut outputs = Vec::new();
        for codec in &codecs {
            let mut writer = BitWriter::new();
            codec.encode_into(&line, &mut writer);
            let mut decoded = [0u8; LINE_SIZE];
            codec.decode_into(&writer.into_bytes(), &mut decoded).unwrap();
            outputs.push(decoded);
        }
        prop_assert_eq!(outputs[0], line);
        prop_assert_eq!(outputs[1], line);
    }
}
