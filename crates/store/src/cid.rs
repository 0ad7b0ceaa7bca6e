//! Content identifiers: stable 256-bit keys with a canonical encoder.
//!
//! A [`Cid`] names one store entry. It is the SHA-256 digest of a
//! *canonical byte encoding* of whatever identifies the entry — for the
//! evaluation store, the structural fields a trace depends on (program
//! shape, placement addresses, seed, limits), written through a [`KeyWriter`] so the encoding is unambiguous:
//! every field is either fixed-width little-endian or length-prefixed,
//! and every key starts with a domain tag so keys of different kinds
//! (trace artifact vs. per-config result) can never collide by layout.

use crate::sha::{sha256, Sha256};

/// A 256-bit content identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cid(pub [u8; 32]);

impl Cid {
    /// Digest of raw bytes (no canonical framing — caller guarantees
    /// the bytes themselves are canonical, e.g. an HTTP request body).
    #[must_use]
    pub fn of(data: &[u8]) -> Self {
        Cid(sha256(data))
    }

    /// Lowercase 64-character hex rendering.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
            s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
        }
        s
    }

    /// Parses a 64-character hex rendering back into a `Cid`.
    #[must_use]
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *slot = ((hi << 4) | lo) as u8;
        }
        Some(Cid(out))
    }
}

impl std::fmt::Display for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Debug for Cid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cid({})", self.to_hex())
    }
}

/// Canonical key encoder: feeds an unambiguous byte stream straight into
/// SHA-256. Integers are fixed-width little-endian; variable-length data
/// is length-prefixed; the constructor writes a length-prefixed domain
/// tag. Two field sequences produce the same digest only if they are
/// identical field-for-field within the same domain.
pub struct KeyWriter {
    hasher: Sha256,
}

impl KeyWriter {
    /// Starts a key in `domain` (e.g. `"impact.artifact.v1"`). Bump the
    /// domain suffix whenever the field layout behind it changes — old
    /// entries then simply miss instead of decoding wrongly.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut w = KeyWriter {
            hasher: Sha256::new(),
        };
        w.bytes(domain.as_bytes());
        w
    }

    /// Fixed-width field.
    pub fn u64(&mut self, v: u64) {
        self.hasher.update(&v.to_le_bytes());
    }

    /// Fixed-width field.
    pub fn u32(&mut self, v: u32) {
        self.hasher.update(&v.to_le_bytes());
    }

    /// Single-byte field.
    pub fn u8(&mut self, v: u8) {
        self.hasher.update(&[v]);
    }

    /// `None` ⇒ tag 0; `Some(v)` ⇒ tag 1 then `v`.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Length-prefixed byte field.
    pub fn bytes(&mut self, data: &[u8]) {
        self.u64(data.len() as u64);
        self.hasher.update(data);
    }

    /// Length-prefixed UTF-8 field.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Finalizes the digest into a key.
    #[must_use]
    pub fn finish(self) -> Cid {
        Cid(self.hasher.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let cid = Cid::of(b"hello");
        let hex = cid.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(Cid::parse_hex(&hex), Some(cid));
        assert_eq!(Cid::parse_hex("zz"), None);
        assert_eq!(Cid::parse_hex(&"g".repeat(64)), None);
        // Uppercase input parses too (hex digits, either case).
        assert_eq!(Cid::parse_hex(&hex.to_uppercase()), Some(cid));
    }

    #[test]
    fn domains_separate_and_fields_frame() {
        let k = |domain: &str, s: &str| {
            let mut w = KeyWriter::new(domain);
            w.str(s);
            w.finish()
        };
        assert_eq!(k("a", "x"), k("a", "x"));
        assert_ne!(k("a", "x"), k("b", "x"));
        // Length prefixes keep adjacent fields from bleeding together:
        // ("ab","c") must differ from ("a","bc").
        let two = |x: &str, y: &str| {
            let mut w = KeyWriter::new("d");
            w.str(x);
            w.str(y);
            w.finish()
        };
        assert_ne!(two("ab", "c"), two("a", "bc"));
    }

    #[test]
    fn option_tags_disambiguate() {
        let enc = |v: Option<u64>| {
            let mut w = KeyWriter::new("opt");
            w.opt_u64(v);
            w.finish()
        };
        assert_ne!(enc(None), enc(Some(0)));
        assert_ne!(enc(Some(0)), enc(Some(1)));
    }
}
