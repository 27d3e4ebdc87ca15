//! DNS message wire format: header, questions, resource records.
//!
//! The simulation moves traffic as fluid rates, not packets, but it sizes
//! that traffic by encoding real queries and responses, so Table 3's
//! query/response byte accounting (84/85-byte queries, 493/494-byte
//! responses) rests on an actual codec rather than constants.
//!
//! Scope: everything the root service and the paper's measurements need —
//! IN and CHAOS classes; A, AAAA, NS, SOA, TXT and OPT (EDNS0) types;
//! full RFC 1035 name compression on both encode and decode (question
//! names, owner names, and NS/SOA rdata), matching the compression
//! profile of real root servers so referral responses land in the same
//! size band the paper reports.

use crate::name::{Name, NameError};
use bytes::{BufMut, BytesMut};
use std::fmt;

/// DNS RR/QTYPE values we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrType {
    A,
    Ns,
    Soa,
    Txt,
    Aaaa,
    Opt,
    /// Anything else, carried numerically.
    Other(u16),
}

impl RrType {
    pub fn code(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Soa => 6,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Other(c) => c,
        }
    }

    pub fn from_code(c: u16) -> RrType {
        match c {
            1 => RrType::A,
            2 => RrType::Ns,
            6 => RrType::Soa,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            other => RrType::Other(other),
        }
    }
}

/// DNS classes. CHAOS matters: `hostname.bind TXT CH` is the query the
/// paper (and RIPE Atlas) uses to identify which site and server answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    In,
    Chaos,
    Other(u16),
}

impl RrClass {
    pub fn code(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Chaos => 3,
            RrClass::Other(c) => c,
        }
    }

    pub fn from_code(c: u16) -> RrClass {
        match c {
            1 => RrClass::In,
            3 => RrClass::Chaos,
            other => RrClass::Other(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1 plus common extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Other(u8),
}

impl Rcode {
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c,
        }
    }

    pub fn from_code(c: u8) -> Rcode {
        match c {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Other(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// Record data for the types we model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    A([u8; 4]),
    Aaaa([u8; 16]),
    Ns(Name),
    Soa {
        mname: Name,
        rname: Name,
        serial: u32,
        refresh: u32,
        retry: u32,
        expire: u32,
        minimum: u32,
    },
    /// TXT: one or more character-strings.
    Txt(Vec<Vec<u8>>),
    /// Opaque bytes for types we carry but do not interpret.
    Raw(Vec<u8>),
}

/// Name-compression state for one message being encoded: maps each name
/// suffix already emitted to its offset, per RFC 1035 §4.1.4. Compression
/// inside rdata is applied only for NS and SOA, the "well-known" types
/// where it is unambiguously legal.
#[derive(Debug, Default)]
struct Compressor {
    offsets: std::collections::HashMap<Vec<Vec<u8>>, u16>,
}

impl Compressor {
    /// Encode `name` at the current buffer position, emitting a pointer
    /// for the longest already-seen suffix and recording new suffixes.
    fn encode_name(&mut self, buf: &mut BytesMut, name: &Name) {
        let labels: Vec<Vec<u8>> = name.labels().map(<[u8]>::to_vec).collect();
        for i in 0..labels.len() {
            let suffix = labels[i..].to_vec();
            if let Some(&off) = self.offsets.get(&suffix) {
                buf.put_u8(0xC0 | (off >> 8) as u8);
                buf.put_u8((off & 0xFF) as u8);
                return;
            }
            // Pointers can only address the first 16 KiB.
            if buf.len() <= 0x3FFF {
                self.offsets.insert(suffix, buf.len() as u16);
            }
            buf.put_u8(labels[i].len() as u8);
            buf.put_slice(&labels[i]);
        }
        buf.put_u8(0);
    }
}

impl Rdata {
    fn encode(&self, buf: &mut BytesMut, comp: &mut Compressor) {
        match self {
            Rdata::A(addr) => buf.put_slice(addr),
            Rdata::Aaaa(addr) => buf.put_slice(addr),
            Rdata::Ns(name) => comp.encode_name(buf, name),
            Rdata::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                comp.encode_name(buf, mname);
                comp.encode_name(buf, rname);
                buf.put_u32(*serial);
                buf.put_u32(*refresh);
                buf.put_u32(*retry);
                buf.put_u32(*expire);
                buf.put_u32(*minimum);
            }
            Rdata::Txt(strings) => {
                for s in strings {
                    buf.put_u8(s.len() as u8);
                    buf.put_slice(s);
                }
            }
            Rdata::Raw(bytes) => buf.put_slice(bytes),
        }
    }

    fn decode(rtype: RrType, msg: &[u8], pos: usize, rdlen: usize) -> Result<Rdata, WireError> {
        let end = pos + rdlen;
        let slice = msg.get(pos..end).ok_or(WireError::Truncated)?;
        Ok(match rtype {
            RrType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdata);
                }
                Rdata::A(slice.try_into().expect("checked length"))
            }
            RrType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdata);
                }
                Rdata::Aaaa(slice.try_into().expect("checked length"))
            }
            RrType::Ns => {
                let (name, _) = Name::decode(msg, pos)?;
                Rdata::Ns(name)
            }
            RrType::Soa => {
                let (mname, p) = Name::decode(msg, pos)?;
                let (rname, p) = Name::decode(msg, p)?;
                let fixed = msg.get(p..p + 20).ok_or(WireError::Truncated)?;
                let u =
                    |i: usize| u32::from_be_bytes(fixed[i..i + 4].try_into().expect("fixed slice"));
                Rdata::Soa {
                    mname,
                    rname,
                    serial: u(0),
                    refresh: u(4),
                    retry: u(8),
                    expire: u(12),
                    minimum: u(16),
                }
            }
            RrType::Txt => {
                let mut strings = Vec::new();
                let mut cursor = 0usize;
                while cursor < slice.len() {
                    let l = usize::from(slice[cursor]);
                    let s = slice
                        .get(cursor + 1..cursor + 1 + l)
                        .ok_or(WireError::Truncated)?;
                    strings.push(s.to_vec());
                    cursor += 1 + l;
                }
                Rdata::Txt(strings)
            }
            RrType::Opt | RrType::Other(_) => Rdata::Raw(slice.to_vec()),
        })
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub qname: Name,
    pub qtype: RrType,
    pub qclass: RrClass,
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub name: Name,
    pub rtype: RrType,
    pub class: RrClass,
    pub ttl: u32,
    pub rdata: Rdata,
}

/// The EDNS0 OPT pseudo-record (RFC 6891): root owner name, TYPE=OPT,
/// CLASS carrying the requester's UDP payload size, empty RDATA. On the
/// wire this is exactly 11 bytes — name (1) + type (2) + class (2) +
/// ttl (4) + rdlength (2).
pub fn edns0_opt(udp_payload_size: u16) -> Record {
    Record {
        name: Name::root(),
        rtype: RrType::Opt,
        class: RrClass::Other(udp_payload_size),
        ttl: 0,
        rdata: Rdata::Raw(Vec::new()),
    }
}

/// Message header flags we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    pub response: bool,
    pub authoritative: bool,
    pub truncated: bool,
    pub recursion_desired: bool,
    pub recursion_available: bool,
    pub rcode: u8,
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub id: u16,
    pub flags: Flags,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadRdata,
    Name(NameError),
    /// More records claimed in the header than present in the body.
    CountMismatch,
}

impl From<NameError> for WireError {
    fn from(e: NameError) -> Self {
        WireError::Name(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadRdata => write!(f, "malformed rdata"),
            WireError::Name(e) => write!(f, "bad name: {e}"),
            WireError::CountMismatch => write!(f, "header counts exceed body"),
        }
    }
}

impl std::error::Error for WireError {}

impl Message {
    /// A query for `qname`/`qtype`/`qclass` with the given id.
    pub fn query(id: u16, qname: Name, qtype: RrType, qclass: RrClass) -> Message {
        Message {
            id,
            flags: Flags {
                recursion_desired: false,
                ..Flags::default()
            },
            questions: vec![Question {
                qname,
                qtype,
                qclass,
            }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Start a response to this query, copying id and question.
    pub fn response_to(&self, rcode: Rcode) -> Message {
        Message {
            id: self.id,
            flags: Flags {
                response: true,
                authoritative: true,
                rcode: rcode.code(),
                ..Flags::default()
            },
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The response code as an enum.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_code(self.flags.rcode)
    }

    /// Encode to wire format with full RFC 1035 name compression for
    /// question names, record owner names, and NS/SOA rdata names — the
    /// same compression profile real root servers use, which is what
    /// keeps a 13-NS `.com` referral under ~500 bytes (Table 3's
    /// response-size band).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(512);
        buf.put_u16(self.id);
        let f = &self.flags;
        let mut b1: u8 = 0;
        if f.response {
            b1 |= 0x80;
        }
        // OPCODE 0 (QUERY).
        if f.authoritative {
            b1 |= 0x04;
        }
        if f.truncated {
            b1 |= 0x02;
        }
        if f.recursion_desired {
            b1 |= 0x01;
        }
        let mut b2: u8 = f.rcode & 0x0F;
        if f.recursion_available {
            b2 |= 0x80;
        }
        buf.put_u8(b1);
        buf.put_u8(b2);
        buf.put_u16(self.questions.len() as u16);
        buf.put_u16(self.answers.len() as u16);
        buf.put_u16(self.authorities.len() as u16);
        buf.put_u16(self.additionals.len() as u16);

        let mut comp = Compressor::default();
        for q in &self.questions {
            comp.encode_name(&mut buf, &q.qname);
            buf.put_u16(q.qtype.code());
            buf.put_u16(q.qclass.code());
        }
        let put_record = |buf: &mut BytesMut, comp: &mut Compressor, r: &Record| {
            comp.encode_name(buf, &r.name);
            buf.put_u16(r.rtype.code());
            buf.put_u16(r.class.code());
            buf.put_u32(r.ttl);
            let rdlen_pos = buf.len();
            buf.put_u16(0);
            let before = buf.len();
            r.rdata.encode(buf, comp);
            let rdlen = (buf.len() - before) as u16;
            buf[rdlen_pos..rdlen_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        };
        for r in &self.answers {
            put_record(&mut buf, &mut comp, r);
        }
        for r in &self.authorities {
            put_record(&mut buf, &mut comp, r);
        }
        for r in &self.additionals {
            put_record(&mut buf, &mut comp, r);
        }
        buf.to_vec()
    }

    /// Wire size in bytes without encoding twice.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }

    /// Decode from wire format.
    pub fn decode(msg: &[u8]) -> Result<Message, WireError> {
        if msg.len() < 12 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([msg[0], msg[1]]);
        let b1 = msg[2];
        let b2 = msg[3];
        let flags = Flags {
            response: b1 & 0x80 != 0,
            authoritative: b1 & 0x04 != 0,
            truncated: b1 & 0x02 != 0,
            recursion_desired: b1 & 0x01 != 0,
            recursion_available: b2 & 0x80 != 0,
            rcode: b2 & 0x0F,
        };
        let qd = u16::from_be_bytes([msg[4], msg[5]]) as usize;
        let an = u16::from_be_bytes([msg[6], msg[7]]) as usize;
        let ns = u16::from_be_bytes([msg[8], msg[9]]) as usize;
        let ar = u16::from_be_bytes([msg[10], msg[11]]) as usize;

        let mut pos = 12usize;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let (qname, p) = Name::decode(msg, pos)?;
            let rest = msg.get(p..p + 4).ok_or(WireError::Truncated)?;
            questions.push(Question {
                qname,
                qtype: RrType::from_code(u16::from_be_bytes([rest[0], rest[1]])),
                qclass: RrClass::from_code(u16::from_be_bytes([rest[2], rest[3]])),
            });
            pos = p + 4;
        }
        let read_records = |pos: &mut usize, count: usize| -> Result<Vec<Record>, WireError> {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let (name, p) = Name::decode(msg, *pos)?;
                let fixed = msg.get(p..p + 10).ok_or(WireError::Truncated)?;
                let rtype = RrType::from_code(u16::from_be_bytes([fixed[0], fixed[1]]));
                let class = RrClass::from_code(u16::from_be_bytes([fixed[2], fixed[3]]));
                let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
                let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
                let rd_start = p + 10;
                if msg.len() < rd_start + rdlen {
                    return Err(WireError::Truncated);
                }
                let rdata = Rdata::decode(rtype, msg, rd_start, rdlen)?;
                out.push(Record {
                    name,
                    rtype,
                    class,
                    ttl,
                    rdata,
                });
                *pos = rd_start + rdlen;
            }
            Ok(out)
        };
        let answers = read_records(&mut pos, an)?;
        let authorities = read_records(&mut pos, ns)?;
        let additionals = read_records(&mut pos, ar)?;
        Ok(Message {
            id,
            flags,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

/// Sizes of the non-DNS headers on the wire: IPv4 (20) + UDP (8).
pub const IP_UDP_HEADER_BYTES: usize = 28;

/// Ethernet-independent "packet size" used for bitrate estimates:
/// DNS payload + IP + UDP headers. The paper adds 40 bytes for
/// "IP, UDP, and DNS headers" to payload-only sizes; our accounting
/// carries the DNS header inside the payload, so we add 28.
pub fn packet_bytes(dns_payload: usize) -> usize {
    dns_payload + IP_UDP_HEADER_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_query() -> Message {
        Message::query(
            0x1234,
            Name::parse("www.336901.com").unwrap(),
            RrType::A,
            RrClass::In,
        )
    }

    #[test]
    fn query_roundtrip() {
        let q = a_query();
        let wire = q.encode();
        let d = Message::decode(&wire).unwrap();
        assert_eq!(q, d);
    }

    #[test]
    fn edns0_opt_adds_exactly_eleven_bytes() {
        let bare = a_query();
        let mut with_opt = bare.clone();
        with_opt.additionals.push(edns0_opt(4096));
        assert_eq!(with_opt.wire_size(), bare.wire_size() + 11);
        // And it survives a wire round-trip with the payload size intact.
        let decoded = Message::decode(&with_opt.encode()).unwrap();
        assert_eq!(decoded.additionals.len(), 1);
        let opt = &decoded.additionals[0];
        assert_eq!(opt.rtype, RrType::Opt);
        assert_eq!(opt.class, RrClass::Other(4096));
        assert_eq!(opt.name, Name::root());
        assert_eq!(opt.rdata, Rdata::Raw(Vec::new()));
    }

    #[test]
    fn attack_query_size_matches_paper() {
        // §3.1: full attack query packets were 84/85 bytes including
        // IP/UDP headers. www.336901.com A IN: 12 (header) + 16 (qname)
        // + 4 = 32 DNS bytes, + 28 IP/UDP = 60; with EDNS0 OPT (11
        // bytes) = 71. The paper's 84 bytes includes a longer qname
        // (www.916yy.com is 15) and EDNS; we assert the right ballpark
        // (56..=90) rather than an exact constant.
        let q = a_query();
        let sz = packet_bytes(q.wire_size());
        assert!((56..=90).contains(&sz), "attack query size {sz}");
    }

    #[test]
    fn response_with_records_roundtrips() {
        let q = a_query();
        let mut r = q.response_to(Rcode::NoError);
        let com = Name::parse("com").unwrap();
        for i in 0..13u8 {
            let ns = Name::parse(&format!("{}.gtld-servers.net", (b'a' + i) as char)).unwrap();
            r.authorities.push(Record {
                name: com.clone(),
                rtype: RrType::Ns,
                class: RrClass::In,
                ttl: 172800,
                rdata: Rdata::Ns(ns.clone()),
            });
            r.additionals.push(Record {
                name: ns,
                rtype: RrType::A,
                class: RrClass::In,
                ttl: 172800,
                rdata: Rdata::A([192, 5, 6, 30 + i]),
            });
        }
        let wire = r.encode();
        let d = Message::decode(&wire).unwrap();
        assert_eq!(d.authorities.len(), 13);
        assert_eq!(d.additionals.len(), 13);
        assert_eq!(d.rcode(), Rcode::NoError);
        // A .com referral is a few hundred bytes — the order of
        // magnitude behind the paper's 493-byte responses.
        assert!(wire.len() > 300, "referral size {}", wire.len());
    }

    #[test]
    fn txt_rdata_roundtrip() {
        let q = Message::query(
            7,
            Name::parse("hostname.bind").unwrap(),
            RrType::Txt,
            RrClass::Chaos,
        );
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: q.questions[0].qname.clone(),
            rtype: RrType::Txt,
            class: RrClass::Chaos,
            ttl: 0,
            rdata: Rdata::Txt(vec![b"k1.ams-ix.k.ripe.net".to_vec()]),
        });
        let d = Message::decode(&r.encode()).unwrap();
        match &d.answers[0].rdata {
            Rdata::Txt(strings) => {
                assert_eq!(strings[0], b"k1.ams-ix.k.ripe.net");
            }
            other => panic!("wrong rdata {other:?}"),
        }
    }

    #[test]
    fn soa_roundtrip() {
        let rec = Record {
            name: Name::root(),
            rtype: RrType::Soa,
            class: RrClass::In,
            ttl: 86400,
            rdata: Rdata::Soa {
                mname: Name::parse("a.root-servers.net").unwrap(),
                rname: Name::parse("nstld.verisign-grs.com").unwrap(),
                serial: 2015113000,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            },
        };
        let q = Message::query(1, Name::root(), RrType::Soa, RrClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(rec.clone());
        let d = Message::decode(&r.encode()).unwrap();
        assert_eq!(d.answers[0], rec);
    }

    #[test]
    fn compression_pointer_used_for_answer_owner() {
        let q = Message::query(
            1,
            Name::parse("example.com").unwrap(),
            RrType::A,
            RrClass::In,
        );
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: q.questions[0].qname.clone(),
            rtype: RrType::A,
            class: RrClass::In,
            ttl: 60,
            rdata: Rdata::A([1, 2, 3, 4]),
        });
        let wire = r.encode();
        // Owner name is a 2-byte pointer, not 13 bytes of labels:
        // total = 12 header + 17 question + (2+2+2+4+2+4) record = 45.
        assert_eq!(wire.len(), 45);
        let d = Message::decode(&wire).unwrap();
        assert_eq!(d.answers[0].name, q.questions[0].qname);
    }

    #[test]
    fn truncated_messages_rejected() {
        let wire = a_query().encode();
        for cut in [0, 5, 11, wire.len() - 1] {
            assert!(
                Message::decode(&wire[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    /// A complex message exercising every rdata decoder and the name
    /// compressor: SOA + 13-NS referral + glue + TXT + OPT.
    fn complex_message() -> Message {
        let q = a_query();
        let mut r = q.response_to(Rcode::NoError);
        let com = Name::parse("com").unwrap();
        r.answers.push(Record {
            name: Name::root(),
            rtype: RrType::Soa,
            class: RrClass::In,
            ttl: 86400,
            rdata: Rdata::Soa {
                mname: Name::parse("a.root-servers.net").unwrap(),
                rname: Name::parse("nstld.verisign-grs.com").unwrap(),
                serial: 2015113000,
                refresh: 1800,
                retry: 900,
                expire: 604800,
                minimum: 86400,
            },
        });
        r.answers.push(Record {
            name: com.clone(),
            rtype: RrType::Txt,
            class: RrClass::Chaos,
            ttl: 0,
            rdata: Rdata::Txt(vec![b"k1.ams-ix.k.ripe.net".to_vec(), b"x".to_vec()]),
        });
        for i in 0..13u8 {
            let ns = Name::parse(&format!("{}.gtld-servers.net", (b'a' + i) as char)).unwrap();
            r.authorities.push(Record {
                name: com.clone(),
                rtype: RrType::Ns,
                class: RrClass::In,
                ttl: 172800,
                rdata: Rdata::Ns(ns.clone()),
            });
            r.additionals.push(Record {
                name: ns.clone(),
                rtype: RrType::A,
                class: RrClass::In,
                ttl: 172800,
                rdata: Rdata::A([192, 5, 6, 30 + i]),
            });
            r.additionals.push(Record {
                name: ns,
                rtype: RrType::Aaaa,
                class: RrClass::In,
                ttl: 172800,
                rdata: Rdata::Aaaa([0x20, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, i]),
            });
        }
        r.additionals.push(edns0_opt(4096));
        r
    }

    #[test]
    fn every_prefix_of_a_valid_packet_parses_or_errors() {
        // Fuzz-style truncation sweep: decoding any prefix of a valid
        // packet must return Ok or Err — never panic (slice-index or
        // otherwise). The full message must still round-trip.
        let msg = complex_message();
        let wire = msg.encode();
        for cut in 0..wire.len() {
            let _ = Message::decode(&wire[..cut]);
        }
        assert_eq!(Message::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        // Flip every byte position to a handful of adversarial values
        // (pointer prefixes, max label length, zero). Decode may accept
        // or reject, but must not panic.
        let wire = complex_message().encode();
        for pos in 0..wire.len() {
            for val in [0x00, 0x3F, 0x40, 0x80, 0xC0, 0xFF] {
                let mut bad = wire.clone();
                bad[pos] = val;
                let _ = Message::decode(&bad);
            }
        }
    }

    #[test]
    fn flags_roundtrip() {
        let mut m = a_query();
        m.flags = Flags {
            response: true,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            rcode: Rcode::Refused.code(),
        };
        let d = Message::decode(&m.encode()).unwrap();
        assert_eq!(d.flags, m.flags);
        assert_eq!(d.rcode(), Rcode::Refused);
    }
}
