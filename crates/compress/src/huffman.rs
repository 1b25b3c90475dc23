//! A real canonical Huffman codec for encoded-layer storage.
//!
//! Deep Compression's final stage Huffman-codes the quantized weights and
//! relative indices for *storage* (the datapath always decodes back to
//! the fixed-width form before execution — EIE never touches Huffman
//! bits, paper §VIII "Model Compression"). [`EncodingStats`] estimates
//! the benefit from symbol entropy; this module implements the actual
//! codec so the estimate is verified by construction: encode → decode is
//! the identity, and the bitstream length matches the estimator exactly.
//!
//! The format is canonical Huffman over the 8-bit packed `(z, v)` entry
//! symbols of one PE slice: code lengths are derived from symbol
//! frequencies, codes assigned in (length, symbol) order, and the header
//! stores just the 256 code lengths.
//!
//! [`EncodingStats`]: crate::EncodingStats

use std::collections::HashMap;

/// A canonical Huffman code over byte symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Canonical code value per symbol.
    codes: [u32; 256],
}

impl HuffmanCode {
    /// Builds the optimal prefix code for a symbol stream.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &[u8]) -> Self {
        assert!(!data.is_empty(), "cannot fit a code to empty data");
        let mut freq: HashMap<u8, usize> = HashMap::new();
        for &b in data {
            *freq.entry(b).or_insert(0) += 1;
        }
        let mut lengths = [0u8; 256];
        if freq.len() == 1 {
            // Single-symbol streams get a 1-bit code.
            let (&sym, _) = freq.iter().next().expect("one symbol");
            lengths[sym as usize] = 1;
            return Self::from_lengths(lengths);
        }
        // Huffman merge tracking depths per symbol group.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, Vec<u8>)>> = freq
            .iter()
            .map(|(&s, &c)| std::cmp::Reverse((c, vec![s])))
            .collect();
        while heap.len() > 1 {
            let std::cmp::Reverse((c1, s1)) = heap.pop().expect("len > 1");
            let std::cmp::Reverse((c2, s2)) = heap.pop().expect("len > 1");
            let mut merged = s1;
            merged.extend_from_slice(&s2);
            for &s in &merged {
                lengths[s as usize] += 1;
            }
            heap.push(std::cmp::Reverse((c1 + c2, merged)));
        }
        Self::from_lengths(lengths)
    }

    /// Reconstructs the canonical code from its length table.
    pub fn from_lengths(lengths: [u8; 256]) -> Self {
        // Canonical assignment: sort by (length, symbol), count upward.
        let mut symbols: Vec<u8> = (0u16..256)
            .map(|s| s as u8)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = [0u32; 256];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        Self { lengths, codes }
    }

    /// The code-length table (the decoder header).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Total encoded payload length in bits for a stream.
    pub fn encoded_bits(&self, data: &[u8]) -> usize {
        data.iter()
            .map(|&b| self.lengths[b as usize] as usize)
            .sum()
    }

    /// Encodes a stream into a bit vector (MSB-first per code).
    ///
    /// # Panics
    ///
    /// Panics if `data` contains a symbol absent from the code.
    pub fn encode(&self, data: &[u8]) -> BitVec {
        let mut out = BitVec::new();
        for &b in data {
            let len = self.lengths[b as usize];
            assert!(len > 0, "symbol {b:#04x} not in code");
            out.push_code(self.codes[b as usize], len);
        }
        out
    }

    /// Decodes `count` symbols from a bit vector.
    ///
    /// Returns `None` if the stream is malformed (runs out of bits or
    /// hits an impossible prefix).
    pub fn decode(&self, bits: &BitVec, count: usize) -> Option<Vec<u8>> {
        // Build a (length, code) → symbol map; fine for 256 symbols.
        let mut table: HashMap<(u8, u32), u8> = HashMap::new();
        for s in 0u16..256 {
            let len = self.lengths[s as usize];
            if len > 0 {
                table.insert((len, self.codes[s as usize]), s as u8);
            }
        }
        // Every symbol costs at least one bit, so `count` past the bit
        // length is corrupt; never reserve more than the bits can hold.
        let mut out = Vec::with_capacity(count.min(bits.len()));
        let mut pos = 0usize;
        for _ in 0..count {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                code = (code << 1) | bits.get(pos)? as u32;
                pos += 1;
                len += 1;
                if let Some(&sym) = table.get(&(len, code)) {
                    out.push(sym);
                    break;
                }
                if len >= 32 {
                    return None;
                }
            }
        }
        Some(out)
    }
}

/// A growable MSB-first bit vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a bit vector from a packed buffer produced by
    /// [`BitVec::as_bytes`].
    ///
    /// Returns `None` if the byte count disagrees with `len_bits` or any
    /// padding bit past the end is set (the buffer is not canonical).
    pub fn from_bytes(bytes: &[u8], len_bits: usize) -> Option<Self> {
        if bytes.len() != len_bits.div_ceil(8) {
            return None;
        }
        if !len_bits.is_multiple_of(8) {
            let pad_mask = (1u8 << (8 - len_bits % 8)) - 1;
            if bytes.last()? & pad_mask != 0 {
                return None;
            }
        }
        Some(Self {
            bytes: bytes.to_vec(),
            len_bits,
        })
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// True if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Appends the low `len` bits of `code`, most-significant first.
    pub fn push_code(&mut self, code: u32, len: u8) {
        for i in (0..len).rev() {
            self.push_bit((code >> i) & 1 == 1);
        }
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.len_bits.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let byte = self.len_bits / 8;
            self.bytes[byte] |= 0x80 >> (self.len_bits % 8);
        }
        self.len_bits += 1;
    }

    /// The bit at `pos`, or `None` past the end.
    pub fn get(&self, pos: usize) -> Option<bool> {
        if pos >= self.len_bits {
            return None;
        }
        Some(self.bytes[pos / 8] & (0x80 >> (pos % 8)) != 0)
    }

    /// The packed byte buffer (last byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressConfig};
    use eie_nn::zoo::random_sparse;

    #[test]
    fn roundtrip_random_stream() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        assert_eq!(bits.len(), code.encoded_bits(&data));
        let back = code.decode(&bits, data.len()).expect("decodes");
        assert_eq!(back, data);
    }

    #[test]
    fn skewed_stream_compresses() {
        // 90% one symbol → strong compression vs 8 bits/symbol.
        let mut data = vec![7u8; 900];
        data.extend((0..100u32).map(|i| (i % 50) as u8));
        let code = HuffmanCode::fit(&data);
        let bits = code.encoded_bits(&data);
        assert!(
            bits < data.len() * 4,
            "skewed stream took {bits} bits for {} symbols",
            data.len()
        );
        let enc = code.encode(&data);
        assert_eq!(code.decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn single_symbol_stream() {
        let data = vec![42u8; 100];
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        assert_eq!(bits.len(), 100); // 1 bit per symbol
        assert_eq!(code.decode(&bits, 100).unwrap(), data);
    }

    #[test]
    fn canonical_roundtrip_through_lengths() {
        // A decoder can be rebuilt from the length table alone.
        let data: Vec<u8> = (0..512u32).map(|i| (i % 37) as u8).collect();
        let code = HuffmanCode::fit(&data);
        let rebuilt = HuffmanCode::from_lengths(*code.lengths());
        assert_eq!(rebuilt, code);
        let bits = code.encode(&data);
        assert_eq!(rebuilt.decode(&bits, data.len()).unwrap(), data);
    }

    #[test]
    fn matches_stats_estimator_on_real_layer() {
        // The EncodingStats Huffman estimate must equal the real codec's
        // payload (both are optimal prefix codes over the same symbols).
        let m = random_sparse(96, 64, 0.12, 9);
        let enc = compress(&m, CompressConfig::with_pes(4));
        let stats = enc.stats();

        let mut actual_bits = 0usize;
        for slice in enc.slices() {
            let stream: Vec<u8> = slice.entries().iter().map(|e| e.packed()).collect();
            if stream.is_empty() {
                continue;
            }
            let code = HuffmanCode::fit(&stream);
            let bits = code.encode(&stream);
            // Verify losslessness while we're here.
            assert_eq!(code.decode(&bits, stream.len()).unwrap(), stream);
            actual_bits += bits.len();
        }
        assert_eq!(stats.huffman_spmat_bytes, actual_bits.div_ceil(8));
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let data = vec![1u8, 2, 3, 1, 2, 3, 1, 1];
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        // Ask for more symbols than encoded.
        assert_eq!(code.decode(&bits, data.len() + 1), None);
    }

    #[test]
    fn bitvec_from_bytes_validates_padding() {
        let mut bv = BitVec::new();
        bv.push_code(0b1011, 4);
        let back = BitVec::from_bytes(bv.as_bytes(), bv.len()).unwrap();
        assert_eq!(back, bv);
        // Wrong byte count for the declared bit length.
        assert!(BitVec::from_bytes(&[0xB0, 0x00], 4).is_none());
        // A set padding bit past the end is not canonical.
        assert!(BitVec::from_bytes(&[0xB1], 4).is_none());
    }

    #[test]
    fn bitvec_semantics() {
        let mut bv = BitVec::new();
        assert!(bv.is_empty());
        bv.push_code(0b101, 3);
        assert_eq!(bv.len(), 3);
        assert_eq!(bv.get(0), Some(true));
        assert_eq!(bv.get(1), Some(false));
        assert_eq!(bv.get(2), Some(true));
        assert_eq!(bv.get(3), None);
        assert_eq!(bv.as_bytes(), &[0b1010_0000]);
    }
}
