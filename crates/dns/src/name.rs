//! Domain names: validation, wire encoding, and decompression.
//!
//! Implements the RFC 1035 name representation used by every query and
//! response in the simulation, including message-compression pointers on
//! decode (responses from real root servers compress aggressively, and
//! response *size* matters for Table 3's bandwidth estimates).

use bytes::{BufMut, BytesMut};
use std::fmt;

/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total wire length of a name (including length octets and root).
pub const MAX_NAME_LEN: usize = 255;

/// Errors arising from name parsing or construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    EmptyLabel,
    LabelTooLong(usize),
    NameTooLong(usize),
    /// A compression pointer points at or after its own location, or the
    /// pointer chain is too deep.
    BadPointer,
    /// Ran off the end of the buffer.
    Truncated,
    /// A label length octet uses the reserved 0b10/0b01 prefixes.
    BadLabelType(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} bytes exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} bytes exceeds 255"),
            NameError::BadPointer => write!(f, "invalid compression pointer"),
            NameError::Truncated => write!(f, "truncated name"),
            NameError::BadLabelType(b) => write!(f, "reserved label type {b:#04x}"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name, stored as lowercase labels.
///
/// DNS names are case-insensitive; we canonicalize to lowercase at
/// construction so equality and hashing behave.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name `.`.
    pub fn root() -> Name {
        Name { labels: Vec::new() }
    }

    /// Parse from presentation format (`www.example.com`, trailing dot
    /// optional). Empty string or `.` yields the root.
    pub fn parse(s: &str) -> Result<Name, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for label in s.split('.') {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            labels.push(label.to_ascii_lowercase().into_bytes());
        }
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(Vec::as_slice)
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Uncompressed wire length: each label costs `1 + len`, plus the
    /// terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| 1 + l.len()).sum::<usize>() + 1
    }

    /// Append in uncompressed wire format.
    pub fn encode(&self, buf: &mut BytesMut) {
        for label in &self.labels {
            buf.put_u8(label.len() as u8);
            buf.put_slice(label);
        }
        buf.put_u8(0);
    }

    /// Decode a name starting at `pos` within `msg` (the whole message is
    /// needed to chase compression pointers). Returns the name and the
    /// position just past the name's *first* encoding (i.e. where the
    /// caller continues reading).
    pub fn decode(msg: &[u8], pos: usize) -> Result<(Name, usize), NameError> {
        let mut labels = Vec::new();
        let mut cursor = pos;
        // Where parsing resumes; set at the first pointer jump only.
        let mut resume: Option<usize> = None;
        let mut jumps = 0usize;
        let mut total_len = 1usize; // terminating zero

        loop {
            let &len_byte = msg.get(cursor).ok_or(NameError::Truncated)?;
            match len_byte {
                0 => {
                    cursor += 1;
                    break;
                }
                l if l & 0xC0 == 0xC0 => {
                    // Compression pointer: 14-bit offset.
                    let &lo = msg.get(cursor + 1).ok_or(NameError::Truncated)?;
                    let target = ((usize::from(l & 0x3F)) << 8) | usize::from(lo);
                    // Pointers must go strictly backwards to terminate.
                    if target >= cursor {
                        return Err(NameError::BadPointer);
                    }
                    jumps += 1;
                    if jumps > 32 {
                        return Err(NameError::BadPointer);
                    }
                    if resume.is_none() {
                        resume = Some(cursor + 2);
                    }
                    cursor = target;
                }
                l if l & 0xC0 != 0 => return Err(NameError::BadLabelType(l)),
                l => {
                    let l = usize::from(l);
                    let start = cursor + 1;
                    let end = start + l;
                    let label = msg.get(start..end).ok_or(NameError::Truncated)?;
                    total_len += 1 + l;
                    if total_len > MAX_NAME_LEN {
                        return Err(NameError::NameTooLong(total_len));
                    }
                    labels.push(label.to_ascii_lowercase());
                    cursor = end;
                }
            }
        }
        let next = resume.unwrap_or(cursor);
        Ok((Name { labels }, next))
    }

    /// The parent name (root's parent is root).
    pub fn parent(&self) -> Name {
        if self.labels.is_empty() {
            return Name::root();
        }
        Name {
            labels: self.labels[1..].to_vec(),
        }
    }

    /// True if `self` is `other` or a subdomain of it.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - other.labels.len();
        self.labels[skip..] == other.labels[..]
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for label in &self.labels {
            for &b in label {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let n = Name::parse("www.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com.");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn root_forms() {
        assert!(Name::parse("").unwrap().is_root());
        assert!(Name::parse(".").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&long),
            Err(NameError::LabelTooLong(64))
        ));
        let huge = (0..50).map(|_| "abcde").collect::<Vec<_>>().join(".");
        assert!(matches!(Name::parse(&huge), Err(NameError::NameTooLong(_))));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let n = Name::parse("e.root-servers.net").unwrap();
        let mut buf = BytesMut::new();
        n.encode(&mut buf);
        assert_eq!(buf.len(), n.wire_len());
        let (decoded, next) = Name::decode(&buf, 0).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn decode_follows_compression_pointer() {
        // Message: name "example.com" at 0, then "www" + pointer to 0.
        let mut buf = BytesMut::new();
        Name::parse("example.com").unwrap().encode(&mut buf);
        let ptr_at = buf.len();
        buf.put_u8(3);
        buf.put_slice(b"www");
        buf.put_u8(0xC0);
        buf.put_u8(0);
        let (n, next) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(n, Name::parse("www.example.com").unwrap());
        assert_eq!(next, buf.len());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at 0 pointing to itself.
        let buf = [0xC0u8, 0x00];
        assert_eq!(Name::decode(&buf, 0), Err(NameError::BadPointer));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [5u8, b'a', b'b'];
        assert_eq!(Name::decode(&buf, 0), Err(NameError::Truncated));
        let empty: [u8; 0] = [];
        assert_eq!(Name::decode(&empty, 0), Err(NameError::Truncated));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x80u8, 0x00];
        assert_eq!(Name::decode(&buf, 0), Err(NameError::BadLabelType(0x80)));
    }

    #[test]
    fn every_prefix_of_a_compressed_name_parses_or_errors() {
        // Truncation sweep over a pointer-compressed encoding: no prefix
        // may panic, and decoding at any in-range start offset must also
        // return cleanly.
        let mut buf = BytesMut::new();
        Name::parse("example.com").unwrap().encode(&mut buf);
        let ptr_at = buf.len();
        buf.put_u8(3);
        buf.put_slice(b"www");
        buf.put_u8(0xC0);
        buf.put_u8(0);
        for cut in 0..buf.len() {
            let _ = Name::decode(&buf[..cut], ptr_at.min(cut.saturating_sub(1)));
        }
        for start in 0..buf.len() + 2 {
            let _ = Name::decode(&buf, start);
        }
        assert!(Name::decode(&buf, ptr_at).is_ok());
    }

    #[test]
    fn pointer_loop_is_rejected_not_infinite() {
        // a chain of strictly-backwards pointers longer than the jump
        // budget must error out, not hang.
        let mut buf = BytesMut::new();
        buf.put_u8(0); // offset 0: root, a valid terminator
        for i in 0..40u16 {
            // each pointer at offset 1+2i targets the previous pointer
            let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
            buf.put_u8(0xC0 | (target >> 8) as u8);
            buf.put_u8((target & 0xFF) as u8);
        }
        let last = buf.len() - 2;
        assert_eq!(Name::decode(&buf, last), Err(NameError::BadPointer));
    }

    #[test]
    fn subdomain_relationships() {
        let root = Name::root();
        let com = Name::parse("com").unwrap();
        let www = Name::parse("www.example.com").unwrap();
        assert!(www.is_subdomain_of(&com));
        assert!(www.is_subdomain_of(&root));
        assert!(com.is_subdomain_of(&com));
        assert!(!com.is_subdomain_of(&www));
        assert_eq!(www.parent(), Name::parse("example.com").unwrap());
        assert_eq!(root.parent(), root);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            Name::parse("WWW.ORG").unwrap(),
            Name::parse("www.org").unwrap()
        );
    }
}
