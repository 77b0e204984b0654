//! IPv4 prefixes (`a.b.c.d/len`) with canonical network-address storage.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation.
///
/// The stored network address always has its host bits zeroed, so two
/// `Ipv4Prefix` values compare equal iff they denote the same prefix.
///
/// ```
/// use flatnet_prefixdb::Ipv4Prefix;
/// let p: Ipv4Prefix = "10.1.2.3/16".parse().unwrap();
/// assert_eq!(p.to_string(), "10.1.0.0/16");
/// assert!(p.contains("10.1.255.255".parse().unwrap()));
/// assert!(!p.contains("10.2.0.0".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    /// Network address bits (host bits zero).
    network: u32,
    /// Prefix length, 0..=32.
    len: u8,
}

/// Error parsing a CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Missing or malformed `/len` part.
    BadLength(String),
    /// Malformed dotted-quad address.
    BadAddress(String),
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::BadLength(s) => write!(f, "bad prefix length in {s:?}"),
            PrefixParseError::BadAddress(s) => write!(f, "bad IPv4 address in {s:?}"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl Ipv4Prefix {
    /// Creates a prefix from an address and length, zeroing host bits.
    /// Lengths above 32 are clamped to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        let len = len.min(32);
        let bits = u32::from(addr);
        Ipv4Prefix { network: bits & Self::mask(len), len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub(crate) fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Raw network bits.
    #[inline]
    pub fn network_bits(&self) -> u32 {
        self.network
    }

    /// Prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether `ip` falls inside this prefix.
    #[inline]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask(self.len)) == self.network
    }

    /// Whether `other` is fully contained in `self` (equality counts).
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.network & Self::mask(self.len)) == self.network
    }

    /// Number of addresses in the prefix (2^(32-len)), as u64 so `/0` fits.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The `i`-th address of the prefix (0 = network address). Panics if out
    /// of range; callers always index within [`Ipv4Prefix::size`].
    pub fn addr(&self, i: u64) -> Ipv4Addr {
        assert!(i < self.size(), "address index {i} out of range for {self}");
        Ipv4Addr::from(self.network.wrapping_add(i as u32))
    }

    /// Splits into the two `len+1` halves; `None` for a `/32`.
    pub(crate) fn split(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Ipv4Prefix { network: self.network, len };
        let hi = Ipv4Prefix { network: self.network | (1u32 << (32 - len)), len };
        Some((lo, hi))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError::BadLength(s.to_string()))?;
        let addr: Ipv4Addr = addr_s
            .trim()
            .parse()
            .map_err(|_| PrefixParseError::BadAddress(s.to_string()))?;
        let len: u8 = len_s
            .trim()
            .parse()
            .map_err(|_| PrefixParseError::BadLength(s.to_string()))?;
        if len > 32 {
            return Err(PrefixParseError::BadLength(s.to_string()));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        assert_eq!(p("10.1.2.3/16"), p("10.1.0.0/16"));
        assert_eq!(p("10.1.2.3/16").to_string(), "10.1.0.0/16");
        assert_eq!(p("255.255.255.255/0"), p("0.0.0.0/0"));
    }

    #[test]
    fn contains_and_covers() {
        let net = p("192.0.2.0/24");
        assert!(net.contains("192.0.2.0".parse().unwrap()));
        assert!(net.contains("192.0.2.255".parse().unwrap()));
        assert!(!net.contains("192.0.3.0".parse().unwrap()));
        assert!(p("192.0.2.0/24").covers(&p("192.0.2.128/25")));
        assert!(p("192.0.2.0/24").covers(&p("192.0.2.0/24")));
        assert!(!p("192.0.2.128/25").covers(&p("192.0.2.0/24")));
        assert!(p("0.0.0.0/0").covers(&p("8.8.8.0/24")));
    }

    #[test]
    fn sizes_and_addresses() {
        assert_eq!(p("10.0.0.0/8").size(), 1 << 24);
        assert_eq!(p("1.2.3.4/32").size(), 1);
        assert_eq!(p("0.0.0.0/0").size(), 1u64 << 32);
        assert_eq!(p("192.0.2.0/24").addr(5), "192.0.2.5".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn addr_out_of_range_panics() {
        p("1.2.3.4/32").addr(1);
    }

    #[test]
    fn split_halves() {
        let (lo, hi) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert!(p("1.1.1.1/32").split().is_none());
    }

    #[test]
    fn parse_errors() {
        assert!(matches!("10.0.0.0".parse::<Ipv4Prefix>(), Err(PrefixParseError::BadLength(_))));
        assert!(matches!("10.0.0.0/33".parse::<Ipv4Prefix>(), Err(PrefixParseError::BadLength(_))));
        assert!(matches!("10.0.0/8".parse::<Ipv4Prefix>(), Err(PrefixParseError::BadAddress(_))));
        assert!(matches!("10.0.0.0/x".parse::<Ipv4Prefix>(), Err(PrefixParseError::BadLength(_))));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![p("10.0.0.0/8"), p("9.0.0.0/8"), p("10.0.0.0/16")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }
}
