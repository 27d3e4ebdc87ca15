//! A minimal authoritative root zone.
//!
//! Enough of the root to serve the traffic classes in the events: priming
//! queries (`. NS`), TLD referrals (the attack queried `www.336901.com`
//! and `www.916yy.com`, both answered with a `.com` referral) and
//! negative answers for nonexistent TLDs. CHAOS identification lives in
//! [`crate::chaos`]: probes carry the identity string, not a packet.
//!
//! Response sizes produced here feed Table 3's bandwidth estimates, so the
//! referral shape (13 NS + glue) matches the real root's.

use crate::chaos::Letter;
use crate::name::Name;
use crate::wire::{Message, Rcode, Rdata, Record, RrClass, RrType};

/// TTL used for root NS/referral records (2 days, as in the real zone).
const REFERRAL_TTL: u32 = 172_800;
/// Negative TTL from the root SOA.
const NEGATIVE_TTL: u32 = 86_400;

/// The authoritative root zone content: delegated TLDs.
#[derive(Debug, Clone)]
pub struct RootZone {
    /// Sorted list of delegated TLD labels (lowercase).
    tlds: Vec<String>,
    /// Serial for the SOA record.
    pub serial: u32,
}

impl Default for RootZone {
    fn default() -> Self {
        Self::nov2015()
    }
}

impl RootZone {
    /// The delegation set relevant to the Nov/Dec 2015 events (a subset
    /// of the ~1000 real TLDs; behaviourally only `com` and `nl` matter,
    /// the rest exist so random legitimate traffic resolves).
    pub fn nov2015() -> RootZone {
        let mut tlds: Vec<String> = [
            "com", "net", "org", "edu", "gov", "mil", "arpa", "info", "biz", "io", "nl", "de",
            "uk", "fr", "jp", "cn", "ru", "br", "au", "it", "se", "ch", "at", "pl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        tlds.sort();
        RootZone {
            tlds,
            serial: 2_015_113_000,
        }
    }

    /// Whether `tld` is delegated.
    pub fn is_delegated(&self, tld: &str) -> bool {
        self.tlds
            .binary_search_by(|t| t.as_str().cmp(&tld.to_ascii_lowercase()))
            .is_ok()
    }

    fn soa_record(&self) -> Record {
        Record {
            name: Name::root(),
            rtype: RrType::Soa,
            class: RrClass::In,
            ttl: NEGATIVE_TTL,
            rdata: Rdata::Soa {
                mname: Name::parse("a.root-servers.net").expect("static name"),
                rname: Name::parse("nstld.verisign-grs.com").expect("static name"),
                serial: self.serial,
                refresh: 1800,
                retry: 900,
                expire: 604_800,
                minimum: NEGATIVE_TTL,
            },
        }
    }

    /// Answer an IN-class query as this root letter would.
    ///
    /// * `. NS` → the 13 root NS records plus glue (priming response);
    /// * `<name under delegated TLD>` → referral: TLD NS set + glue;
    /// * `<name under unknown TLD>` → NXDOMAIN with SOA;
    /// * non-IN class → REFUSED.
    pub fn answer(&self, query: &Message) -> Message {
        let Some(q) = query.questions.first() else {
            let mut r = query.response_to(Rcode::FormErr);
            r.flags.authoritative = false;
            return r;
        };
        if q.qclass != RrClass::In {
            let mut r = query.response_to(Rcode::Refused);
            r.flags.authoritative = false;
            return r;
        }
        if q.qname.is_root() {
            return self.priming_response(query);
        }
        // The TLD is the last label.
        let tld: String = q
            .qname
            .labels()
            .last()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .expect("non-root name has labels");
        if self.is_delegated(&tld) {
            self.referral_response(query, &tld)
        } else {
            let mut r = query.response_to(Rcode::NxDomain);
            r.authorities.push(self.soa_record());
            r
        }
    }

    /// The priming response: `. NS` for all 13 letters, with A glue.
    fn priming_response(&self, query: &Message) -> Message {
        let mut r = query.response_to(Rcode::NoError);
        for letter in Letter::ALL {
            let fqdn = Name::parse(&letter.fqdn()).expect("letter fqdn");
            r.answers.push(Record {
                name: Name::root(),
                rtype: RrType::Ns,
                class: RrClass::In,
                ttl: REFERRAL_TTL,
                rdata: Rdata::Ns(fqdn.clone()),
            });
            r.additionals.push(Record {
                name: fqdn,
                rtype: RrType::A,
                class: RrClass::In,
                ttl: REFERRAL_TTL,
                rdata: Rdata::A(letter.service_addr()),
            });
        }
        r
    }

    /// A referral to `tld`'s name servers (13 NS + glue, the real root's
    /// `.com` shape, which produces the ~490-byte responses in Table 3).
    fn referral_response(&self, query: &Message, tld: &str) -> Message {
        let mut r = query.response_to(Rcode::NoError);
        // Referrals are not authoritative answers.
        r.flags.authoritative = false;
        let tld_name = Name::parse(tld).expect("valid tld label");
        let n_servers = if tld == "com" || tld == "net" { 13 } else { 8 };
        for i in 0..n_servers {
            let ns = Name::parse(&format!("{}.{}-servers.example", (b'a' + i) as char, tld))
                .expect("constructed ns name");
            r.authorities.push(Record {
                name: tld_name.clone(),
                rtype: RrType::Ns,
                class: RrClass::In,
                ttl: REFERRAL_TTL,
                rdata: Rdata::Ns(ns.clone()),
            });
            r.additionals.push(Record {
                name: ns,
                rtype: RrType::A,
                class: RrClass::In,
                ttl: REFERRAL_TTL,
                rdata: Rdata::A([192, 5, 6, 30 + i]),
            });
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::packet_bytes;

    fn zone() -> RootZone {
        RootZone::nov2015()
    }

    fn query(name: &str, rtype: RrType) -> Message {
        Message::query(42, Name::parse(name).unwrap(), rtype, RrClass::In)
    }

    #[test]
    fn attack_name_gets_com_referral() {
        let z = zone();
        let q = query("www.336901.com", RrType::A);
        let r = z.answer(&q);
        assert_eq!(r.rcode(), Rcode::NoError);
        assert!(r.answers.is_empty(), "referral has no answers");
        assert_eq!(r.authorities.len(), 13);
        assert_eq!(r.additionals.len(), 13);
        assert!(!r.flags.authoritative);
        // Response size near the paper's 493-byte attack responses.
        let sz = packet_bytes(r.encode().len());
        assert!(
            (380..=620).contains(&sz),
            "referral packet size {sz} out of expected band"
        );
    }

    #[test]
    fn both_event_qnames_resolve_identically() {
        let z = zone();
        let r1 = z.answer(&query("www.336901.com", RrType::A));
        let r2 = z.answer(&query("www.916yy.com", RrType::A));
        assert_eq!(r1.authorities.len(), r2.authorities.len());
        // Sizes differ only by the qname length difference (1 byte).
        let d = (r1.encode().len() as i64 - r2.encode().len() as i64).abs();
        assert!(d <= 2, "size delta {d}");
    }

    #[test]
    fn priming_response_lists_all_letters() {
        let z = zone();
        let q = Message::query(1, Name::root(), RrType::Ns, RrClass::In);
        let r = z.answer(&q);
        assert_eq!(r.answers.len(), 13);
        assert_eq!(r.additionals.len(), 13);
        assert!(r.flags.authoritative);
    }

    #[test]
    fn unknown_tld_is_nxdomain_with_soa() {
        let z = zone();
        let r = z.answer(&query("foo.nosuchtld", RrType::A));
        assert_eq!(r.rcode(), Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1);
        assert!(matches!(r.authorities[0].rdata, Rdata::Soa { .. }));
    }

    #[test]
    fn non_in_class_refused_by_answer() {
        let z = zone();
        let q = Message::query(
            9,
            Name::parse("hostname.bind").unwrap(),
            RrType::Txt,
            RrClass::Chaos,
        );
        assert_eq!(z.answer(&q).rcode(), Rcode::Refused);
    }

    #[test]
    fn delegation_lookup_is_case_insensitive() {
        let z = zone();
        assert!(z.is_delegated("COM"));
        assert!(z.is_delegated("nl"));
        assert!(!z.is_delegated("example"));
    }
}
