//! Root letters and CHAOS-class server identification.
//!
//! The 13 root services ("letters") answer `hostname.bind TXT CH` queries
//! (RFC 4892) with an identifier naming the responding site and server.
//! Each operator uses its own format — the paper exploits this to map
//! anycast catchments from RIPE Atlas (§2.1), and notes the formats "can
//! be inferred". We give each letter a distinct, parseable style modeled
//! on the operators' conventions, and a parser that recovers
//! `(letter, site, server)` — or fails, which is exactly the signal the
//! cleaning pipeline uses to flag hijacked vantage points (§2.4.1).

use std::fmt;

/// The 13 DNS root letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Letter {
    A,
    B,
    C,
    D,
    E,
    F,
    G,
    H,
    I,
    J,
    K,
    L,
    M,
}

impl Letter {
    /// All letters in order.
    pub const ALL: [Letter; 13] = [
        Letter::A,
        Letter::B,
        Letter::C,
        Letter::D,
        Letter::E,
        Letter::F,
        Letter::G,
        Letter::H,
        Letter::I,
        Letter::J,
        Letter::K,
        Letter::L,
        Letter::M,
    ];

    /// The operator of this letter (Table 2).
    pub fn operator(self) -> &'static str {
        match self {
            Letter::A => "Verisign",
            Letter::B => "USC/ISI",
            Letter::C => "Cogent",
            Letter::D => "U. Maryland",
            Letter::E => "NASA",
            Letter::F => "ISC",
            Letter::G => "U.S. DoD",
            Letter::H => "ARL",
            Letter::I => "Netnod",
            Letter::J => "Verisign",
            Letter::K => "RIPE",
            Letter::L => "ICANN",
            Letter::M => "WIDE",
        }
    }

    /// Lowercase letter char.
    pub fn ch(self) -> char {
        (b'a' + self as u8) as char
    }

    /// Uppercase letter char.
    pub fn ch_upper(self) -> char {
        (b'A' + self as u8) as char
    }

    /// Parse from a single letter character.
    pub fn from_char(c: char) -> Option<Letter> {
        let idx = (c.to_ascii_uppercase() as u8).wrapping_sub(b'A');
        Letter::ALL.get(idx as usize).copied()
    }

    /// The letter's service address (a stand-in unique IPv4 per letter;
    /// not the real root addresses).
    pub fn service_addr(self) -> [u8; 4] {
        [198, 41, 10 + self as u8, 4]
    }

    /// `<letter>.root-servers.net`.
    pub fn fqdn(self) -> String {
        format!("{}.root-servers.net", self.ch())
    }
}

impl fmt::Display for Letter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ch_upper())
    }
}

/// Identity of one physical server at one site of one letter —
/// the paper's Figure 1 hierarchy: letter → site → server.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServerIdentity {
    pub letter: Letter,
    /// Three-letter airport code of the site, uppercase (`AMS`).
    pub site: String,
    /// Server ordinal within the site, 1-based.
    pub server: u16,
}

impl ServerIdentity {
    pub fn new(letter: Letter, site: &str, server: u16) -> ServerIdentity {
        assert!(
            site.len() == 3 && site.chars().all(|c| c.is_ascii_alphabetic()),
            "site must be a 3-letter airport code, got {site:?}"
        );
        assert!(server >= 1, "server ordinals are 1-based");
        ServerIdentity {
            letter,
            site: site.to_ascii_uppercase(),
            server,
        }
    }

    /// `X-APT` site label used throughout the paper ("K-AMS").
    pub fn site_label(&self) -> String {
        format!("{}-{}", self.letter, self.site)
    }

    /// Format the `hostname.bind` TXT string in this letter's style.
    ///
    /// Styles are distinct per operator, mirroring the real-world zoo:
    ///
    /// | letter | example |
    /// |--------|---------|
    /// | A | `nnn1-ams2` |
    /// | B | `b3-lax` |
    /// | C | `ams1b.c.root-servers.org` |
    /// | D | `ams1.droot.maxgigapop.net` |
    /// | E | `e2.ams.eroot` |
    /// | F | `ams2a.f.root-servers.org` |
    /// | G | `groot-ams-2` |
    /// | H | `h1.bwi.hroot` |
    /// | I | `s2.ams.i.root` |
    /// | J | `rootns-ams2.j` |
    /// | K | `k2.ams-ix.k.ripe.net` |
    /// | L | `ams1.l.root-servers.org` |
    /// | M | `m2.ams.wide` |
    pub fn format_txt(&self) -> String {
        let site = self.site.to_ascii_lowercase();
        let n = self.server;
        match self.letter {
            Letter::A => format!("nnn1-{site}{n}"),
            Letter::B => format!("b{n}-{site}"),
            Letter::C => format!("{site}{n}b.c.root-servers.org"),
            Letter::D => format!("{site}{n}.droot.maxgigapop.net"),
            Letter::E => format!("e{n}.{site}.eroot"),
            Letter::F => format!("{site}{n}a.f.root-servers.org"),
            Letter::G => format!("groot-{site}-{n}"),
            Letter::H => format!("h{n}.{site}.hroot"),
            Letter::I => format!("s{n}.{site}.i.root"),
            Letter::J => format!("rootns-{site}{n}.j"),
            Letter::K => format!("k{n}.{site}-ix.k.ripe.net"),
            Letter::L => format!("{site}{n}.l.root-servers.org"),
            Letter::M => format!("m{n}.{site}.wide"),
        }
    }

    /// Parse a TXT identity string claimed to come from `letter`.
    ///
    /// Returns `None` when the string does not match the letter's known
    /// pattern — the hijack signal used in data cleaning.
    pub fn parse_txt(letter: Letter, txt: &str) -> Option<ServerIdentity> {
        let mk = |site: &str, n: &str| -> Option<ServerIdentity> {
            if site.len() != 3 || !site.chars().all(|c| c.is_ascii_alphabetic()) {
                return None;
            }
            let server: u16 = n.parse().ok()?;
            if server == 0 {
                return None;
            }
            Some(ServerIdentity::new(letter, site, server))
        };
        // Split "<3 letters><digits>" like "ams12".
        fn split_site_num(s: &str) -> Option<(&str, &str)> {
            if s.len() < 4 {
                return None;
            }
            let (site, num) = s.split_at(3);
            if num.is_empty() || !num.chars().all(|c| c.is_ascii_digit()) {
                return None;
            }
            Some((site, num))
        }
        match letter {
            Letter::A => {
                let rest = txt.strip_prefix("nnn1-")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::B => {
                let rest = txt.strip_prefix('b')?;
                let (n, site) = rest.split_once('-')?;
                mk(site, n)
            }
            Letter::C => {
                let rest = txt.strip_suffix("b.c.root-servers.org")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::D => {
                let rest = txt.strip_suffix(".droot.maxgigapop.net")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::E => {
                let rest = txt.strip_prefix('e')?;
                let mut parts = rest.splitn(3, '.');
                let n = parts.next()?;
                let site = parts.next()?;
                if parts.next()? != "eroot" {
                    return None;
                }
                mk(site, n)
            }
            Letter::F => {
                let rest = txt.strip_suffix("a.f.root-servers.org")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::G => {
                let rest = txt.strip_prefix("groot-")?;
                let (site, n) = rest.split_once('-')?;
                mk(site, n)
            }
            Letter::H => {
                let rest = txt.strip_prefix('h')?;
                let mut parts = rest.splitn(3, '.');
                let n = parts.next()?;
                let site = parts.next()?;
                if parts.next()? != "hroot" {
                    return None;
                }
                mk(site, n)
            }
            Letter::I => {
                let rest = txt.strip_prefix('s')?;
                let mut parts = rest.splitn(3, '.');
                let n = parts.next()?;
                let site = parts.next()?;
                if parts.next()? != "i.root" {
                    return None;
                }
                mk(site, n)
            }
            Letter::J => {
                let rest = txt.strip_prefix("rootns-")?.strip_suffix(".j")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::K => {
                let rest = txt.strip_prefix('k')?;
                let (n, tail) = rest.split_once('.')?;
                let site = tail.strip_suffix("-ix.k.ripe.net")?;
                mk(site, n)
            }
            Letter::L => {
                let rest = txt.strip_suffix(".l.root-servers.org")?;
                let (site, n) = split_site_num(rest)?;
                mk(site, n)
            }
            Letter::M => {
                let rest = txt.strip_prefix('m')?;
                let mut parts = rest.splitn(3, '.');
                let n = parts.next()?;
                let site = parts.next()?;
                if parts.next()? != "wide" {
                    return None;
                }
                mk(site, n)
            }
        }
    }
}

impl fmt::Display for ServerIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}-s{}", self.letter, self.site, self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_letters_roundtrip_identity() {
        for letter in Letter::ALL {
            for (site, server) in [("AMS", 1), ("NRT", 12), ("lhr", 3)] {
                let id = ServerIdentity::new(letter, site, server);
                let txt = id.format_txt();
                let parsed = ServerIdentity::parse_txt(letter, &txt)
                    .unwrap_or_else(|| panic!("{letter}: failed to parse {txt:?}"));
                assert_eq!(parsed, id, "letter {letter} mangled {txt:?}");
            }
        }
    }

    #[test]
    fn parse_rejects_cross_letter_strings() {
        // A K-style identity must not parse as any other letter, etc.
        for src in Letter::ALL {
            let txt = ServerIdentity::new(src, "AMS", 2).format_txt();
            for dst in Letter::ALL {
                if dst == src {
                    continue;
                }
                assert!(
                    ServerIdentity::parse_txt(dst, &txt).is_none(),
                    "{dst} wrongly parsed {src}'s identity {txt:?}"
                );
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for letter in Letter::ALL {
            for garbage in ["", "hello", "k1..k.ripe.net", "resolver.local", "1234"] {
                assert!(
                    ServerIdentity::parse_txt(letter, garbage).is_none(),
                    "{letter} parsed garbage {garbage:?}"
                );
            }
        }
    }

    #[test]
    fn site_label_matches_paper_convention() {
        let id = ServerIdentity::new(Letter::K, "ams", 1);
        assert_eq!(id.site_label(), "K-AMS");
        assert_eq!(id.to_string(), "K-AMS-s1");
    }

    #[test]
    fn letters_have_unique_addresses() {
        let mut addrs: Vec<[u8; 4]> = Letter::ALL.iter().map(|l| l.service_addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 13);
    }

    #[test]
    fn letter_char_roundtrip() {
        for letter in Letter::ALL {
            assert_eq!(Letter::from_char(letter.ch()), Some(letter));
            assert_eq!(Letter::from_char(letter.ch_upper()), Some(letter));
        }
        assert_eq!(Letter::from_char('z'), None);
    }

    #[test]
    fn operators_match_table2() {
        assert_eq!(Letter::B.operator(), "USC/ISI");
        assert_eq!(Letter::K.operator(), "RIPE");
        assert_eq!(Letter::A.operator(), Letter::J.operator());
    }

    #[test]
    fn multi_digit_servers_roundtrip() {
        let id = ServerIdentity::new(Letter::L, "FRA", 42);
        let parsed = ServerIdentity::parse_txt(Letter::L, &id.format_txt()).unwrap();
        assert_eq!(parsed.server, 42);
    }
}
