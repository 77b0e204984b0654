//! Geographic points, great-circle distance, continents.

use std::fmt;

/// Mean Earth radius in kilometres (WGS-84 mean).
pub(crate) const EARTH_RADIUS_KM: f64 = 6371.0;

/// A latitude/longitude point in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude, −90..=90.
    pub lat: f64,
    /// Longitude, −180..=180.
    pub lon: f64,
}

impl GeoPoint {
    /// A point from degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to another point in km.
    pub(crate) fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(*self, *other)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.lat, self.lon)
    }
}

/// Haversine great-circle distance between two points, in kilometres.
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// The continents used in the paper's Fig. 12 grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Africa.
    Africa,
    /// Asia (incl. the Middle East, as in the paper's discussion).
    Asia,
    /// Europe.
    Europe,
    /// North and Central America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Oceania (the paper spells it "Oceana" in Fig. 12).
    Oceania,
}

impl Continent {
    /// Report label (matching the paper's figure labels).
    pub fn name(self) -> &'static str {
        match self {
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::SouthAmerica => "South America",
            Continent::Oceania => "Oceania",
        }
    }

    /// All continents in report order.
    pub const ALL: [Continent; 6] = [
        Continent::Africa,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::SouthAmerica,
        Continent::Oceania,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        // London <-> New York ≈ 5570 km.
        let london = GeoPoint::new(51.5074, -0.1278);
        let nyc = GeoPoint::new(40.7128, -74.0060);
        let d = haversine_km(london, nyc);
        assert!((d - 5570.0).abs() < 50.0, "got {d}");
        // Sydney <-> Singapore ≈ 6300 km.
        let syd = GeoPoint::new(-33.8688, 151.2093);
        let sin = GeoPoint::new(1.3521, 103.8198);
        let d = haversine_km(syd, sin);
        assert!((d - 6300.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-35.0, 150.0);
        assert_eq!(haversine_km(a, a), 0.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    fn antimeridian_crossing() {
        // 179.5°E to 179.5°W at the equator is ~111 km, not ~39,800 km.
        let a = GeoPoint::new(0.0, 179.5);
        let b = GeoPoint::new(0.0, -179.5);
        let d = haversine_km(a, b);
        assert!((d - 111.0).abs() < 2.0, "got {d}");
    }

    #[test]
    fn continent_labels() {
        assert_eq!(Continent::NorthAmerica.name(), "North America");
        assert_eq!(Continent::ALL.len(), 6);
    }

    #[test]
    fn display_formats() {
        let p = GeoPoint::new(52.3676, 4.9041);
        assert_eq!(p.to_string(), "(52.368, 4.904)");
    }
}
