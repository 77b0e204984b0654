//! The traceroute data model.

use flatnet_asgraph::AsId;
use std::net::Ipv4Addr;

/// A measurement vantage point: a VM in one of a cloud's datacenters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VantagePoint {
    /// The cloud the VM runs in.
    pub cloud: AsId,
    /// Metro of the hosting datacenter (index into
    /// [`flatnet_geo::cities::CITIES`]).
    pub city: usize,
}

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// TTL of the probe that elicited this hop (1-based).
    pub ttl: u8,
    /// Responding address; `None` renders as `*` (no reply).
    pub addr: Option<Ipv4Addr>,
    /// Round-trip time in milliseconds (absent for unresponsive hops).
    pub rtt_ms: Option<f64>,
}

/// One traceroute measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Traceroute {
    /// Where it was launched from.
    pub vp: VantagePoint,
    /// Probed destination address.
    pub dst: Ipv4Addr,
    /// The AS originating the destination prefix (ground truth bookkeeping;
    /// inference never reads it).
    pub dst_asn: AsId,
    /// Hops in TTL order.
    pub hops: Vec<Hop>,
    /// Whether the probe reached the destination AS.
    pub completed: bool,
}
