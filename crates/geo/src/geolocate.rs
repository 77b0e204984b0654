//! Appendix-D active geolocation: candidate facilities + RTT verification.
//!
//! The paper geolocates traceroute IPs by (1) deriving candidate
//! ⟨facility, city⟩ locations from PeeringDB for the address's AS,
//! filtered by any rDNS location hint, (2) picking a RIPE-Atlas-style
//! vantage point near each candidate city, and (3) pinging: an RTT of at
//! most 1 ms bounds the distance to ~100 km (speed of light in fibre), so
//! the address is accepted as being in that city.

use crate::coords::GeoPoint;

/// Speed-of-light-in-fibre distance bound for a 1 ms RTT, in km.
pub(crate) const RTT_1MS_DISTANCE_KM: f64 = 100.0;

/// A successful geolocation.
#[derive(Debug, Clone, PartialEq)]
pub struct GeolocationResult {
    /// City code of the accepted candidate.
    pub city: String,
    /// Candidate coordinates.
    pub point: GeoPoint,
    /// The verifying RTT in milliseconds.
    pub rtt_ms: f64,
}

/// Runs the Appendix-D procedure.
///
/// * `candidates` — ⟨city code, coordinates⟩ pairs derived from PeeringDB
///   facilities of the target's AS.
/// * `rdns_hint` — a city code extracted from the hostname; when present,
///   only matching candidates are probed ("If there are location hints in
///   rDNS, we only use candidate locations that match it").
/// * `probe` — measures RTT (ms) from a vantage point near the given
///   candidate; `None` models "no VP within 40 km in a suitable AS".
///
/// Candidates are probed in order; the first with RTT ≤ 1 ms wins.
pub fn geolocate(
    candidates: &[(String, GeoPoint)],
    rdns_hint: Option<&str>,
    mut probe: impl FnMut(&GeoPoint) -> Option<f64>,
) -> Option<GeolocationResult> {
    for (city, point) in candidates {
        if let Some(hint) = rdns_hint {
            if city != hint {
                continue;
            }
        }
        if let Some(rtt) = probe(point) {
            if rtt <= 1.0 {
                return Some(GeolocationResult { city: city.clone(), point: *point, rtt_ms: rtt });
            }
        }
    }
    None
}

/// A physically grounded probe model: RTT implied by the great-circle
/// distance between the vantage point and the target's *true* location,
/// at ~2/3 c in fibre with a small constant overhead. Useful to drive
/// [`geolocate`] in simulation.
pub fn fiber_rtt_ms(vp: GeoPoint, true_location: GeoPoint) -> f64 {
    let km = vp.distance_km(&true_location);
    // ~200 km per ms one-way in fibre => RTT = 2 * km / 200 = km / 100.
    km / RTT_1MS_DISTANCE_KM + 0.05
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::by_code;

    fn cand(code: &str) -> (String, GeoPoint) {
        (code.to_string(), by_code(code).unwrap().point())
    }

    #[test]
    fn accepts_the_true_city() {
        let true_loc = by_code("ams").unwrap().point();
        let candidates = vec![cand("fra"), cand("ams"), cand("lon")];
        let got = geolocate(&candidates, None, |vp| Some(fiber_rtt_ms(*vp, true_loc))).unwrap();
        assert_eq!(got.city, "ams");
        assert!(got.rtt_ms <= 1.0);
    }

    #[test]
    fn rdns_hint_restricts_candidates() {
        let true_loc = by_code("ams").unwrap().point();
        let candidates = vec![cand("fra"), cand("ams")];
        // Hint says Frankfurt: the Amsterdam candidate is never probed, and
        // Frankfurt fails the RTT test -> no result (conservative).
        let got = geolocate(&candidates, Some("fra"), |vp| Some(fiber_rtt_ms(*vp, true_loc)));
        assert!(got.is_none());
        // Correct hint still succeeds.
        let got = geolocate(&candidates, Some("ams"), |vp| Some(fiber_rtt_ms(*vp, true_loc)));
        assert_eq!(got.unwrap().city, "ams");
    }

    #[test]
    fn unavailable_vantage_points_are_skipped() {
        let true_loc = by_code("ams").unwrap().point();
        let candidates = vec![cand("ams"), cand("fra")];
        // No VP at Amsterdam: nothing verifies.
        let got = geolocate(&candidates, None, |vp| {
            if vp.distance_km(&true_loc) < 10.0 {
                None
            } else {
                Some(fiber_rtt_ms(*vp, true_loc))
            }
        });
        assert!(got.is_none());
    }

    #[test]
    fn far_targets_never_verify() {
        let true_loc = by_code("syd").unwrap().point();
        let candidates = vec![cand("ams"), cand("fra"), cand("nyc")];
        let got = geolocate(&candidates, None, |vp| Some(fiber_rtt_ms(*vp, true_loc)));
        assert!(got.is_none());
    }

    #[test]
    fn empty_candidates() {
        assert!(geolocate(&[], None, |_| Some(0.1)).is_none());
    }

    #[test]
    fn fiber_rtt_scale() {
        let a = by_code("ams").unwrap().point();
        let b = by_code("fra").unwrap().point();
        // ~360 km apart -> ~3.7 ms RTT in this model.
        let rtt = fiber_rtt_ms(a, b);
        assert!(rtt > 2.0 && rtt < 6.0, "rtt {rtt}");
        // Same point: just the overhead.
        assert!(fiber_rtt_ms(a, a) < 0.1);
    }
}
