use std::collections::BTreeMap;

/// An assembled embedded program: text and data segments plus symbols.
///
/// Matches the paper's system model: a contiguous instruction space
/// (the compressed-code experiments index the Line Address Table by a
/// shifted text address, which requires contiguous text) and a separate
/// data region. Instruction words are stored little-endian, as on the
/// DECstation 3100 the paper's programs came from.
///
/// # Examples
///
/// ```
/// use ccrp_asm::assemble;
///
/// let image = assemble("
///     .text
///     main: addiu $v0, $zero, 10
///           syscall
/// ")?;
/// assert_eq!(image.text_words().count(), 2);
/// assert_eq!(image.symbol("main"), Some(image.text_base()));
/// # Ok::<(), ccrp_asm::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    text_base: u32,
    text: Vec<u8>,
    data_base: u32,
    data: Vec<u8>,
    entry: u32,
    symbols: BTreeMap<String, u32>,
}

impl ProgramImage {
    /// An image from assembled segments; `text` is whole words (the
    /// assembler rejects a source that leaves a partial one).
    pub(crate) fn new(
        text_base: u32,
        text: Vec<u8>,
        data_base: u32,
        data: Vec<u8>,
        entry: u32,
        symbols: BTreeMap<String, u32>,
    ) -> Self {
        Self {
            text_base,
            text,
            data_base,
            data,
            entry,
            symbols,
        }
    }

    /// Builds an image directly from instruction words (no assembly),
    /// useful for synthetic code generators.
    pub fn from_words(text_base: u32, words: &[u32]) -> Self {
        let mut text = Vec::with_capacity(words.len() * 4);
        for w in words {
            text.extend_from_slice(&w.to_le_bytes());
        }
        Self {
            text_base,
            text,
            data_base: 0,
            data: Vec::new(),
            entry: text_base,
            symbols: BTreeMap::new(),
        }
    }

    /// First address of the text segment.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// The raw text segment, little-endian byte order.
    pub fn text_bytes(&self) -> &[u8] {
        &self.text
    }

    /// Size of the text segment in bytes.
    pub fn text_size(&self) -> u32 {
        self.text.len() as u32
    }

    /// First address of the data segment.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The raw data segment bytes.
    pub fn data_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The entry point (the `main` symbol if defined, else the text base).
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Looks up a label address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All defined symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.symbols.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates the text segment as instruction words.
    pub fn text_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.text
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Number of 32-byte cache lines the text segment spans, counting
    /// the partial line at each end. This is the footprint that decides
    /// how many Line Address Table records a compressed build of this
    /// image needs, so program generators can size code to stress
    /// multi-entry / eviction behavior.
    pub fn text_lines(&self) -> u32 {
        if self.text.is_empty() {
            return 0;
        }
        let first = self.text_base / 32;
        let last = (self.text_base + self.text.len() as u32 - 1) / 32;
        last - first + 1
    }

    /// Fetches the instruction word at `addr`.
    ///
    /// Returns `None` when `addr` is outside the text segment or not
    /// word-aligned.
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) || addr < self.text_base {
            return None;
        }
        let off = (addr - self.text_base) as usize;
        let bytes = self.text.get(off..off + 4)?;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_words_roundtrips() {
        let image = ProgramImage::from_words(0x1000, &[0xDEAD_BEEF, 0x0000_000C]);
        assert_eq!(image.text_size(), 8);
        assert_eq!(image.word_at(0x1000), Some(0xDEAD_BEEF));
        assert_eq!(image.word_at(0x1004), Some(0x0000_000C));
        assert_eq!(image.word_at(0x1008), None);
        assert_eq!(image.word_at(0x1001), None);
        assert_eq!(image.word_at(0x0FFC), None);
        let words: Vec<u32> = image.text_words().collect();
        assert_eq!(words, vec![0xDEAD_BEEF, 0x0000_000C]);
    }

    #[test]
    fn little_endian_layout() {
        let image = ProgramImage::from_words(0, &[0x1122_3344]);
        assert_eq!(image.text_bytes(), &[0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn text_lines_counts_partial_lines() {
        assert_eq!(ProgramImage::from_words(0, &[]).text_lines(), 0);
        assert_eq!(ProgramImage::from_words(0, &[1]).text_lines(), 1);
        assert_eq!(ProgramImage::from_words(0, &[0; 8]).text_lines(), 1);
        assert_eq!(ProgramImage::from_words(0, &[0; 9]).text_lines(), 2);
        // A misaligned base straddles one extra line.
        assert_eq!(ProgramImage::from_words(28, &[0; 8]).text_lines(), 2);
    }
}
