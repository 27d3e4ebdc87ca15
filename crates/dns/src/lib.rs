//! # rootcast-dns
//!
//! DNS machinery for the rootcast reproduction of *"Anycast vs. DDoS"*
//! (IMC 2016): a real wire-format codec, the 13 root letters with their
//! CHAOS identification conventions, Response Rate Limiting, and a
//! minimal authoritative root zone.
//!
//! * [`name`] — RFC 1035 domain names with compression-pointer decoding;
//! * [`wire`] — message encode/decode (IN + CHAOS classes; A/AAAA/NS/
//!   SOA/TXT/OPT), used to give legitimate and attack traffic exact
//!   byte sizes for Table 3;
//! * [`chaos`] — [`Letter`] (A–M) and [`ServerIdentity`]: per-operator
//!   `hostname.bind` formats and the parser that maps TXT replies back to
//!   (letter, site, server) — the instrument behind every catchment
//!   figure in the paper;
//! * [`rrl`] — Response Rate Limiting in the analytic steady-state form
//!   used by the fluid traffic model;
//! * [`rootzone`] — priming responses, `.com`-shaped referrals (the
//!   ~490-byte responses of Table 3) and NXDOMAIN.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod name;
pub mod rootzone;
pub mod rrl;
pub mod wire;

pub use chaos::{Letter, ServerIdentity};
pub use name::{Name, NameError};
pub use rootzone::RootZone;
pub use wire::{
    edns0_opt, packet_bytes, Flags, Message, Question, Rcode, Rdata, Record, RrClass, RrType,
    WireError,
};
