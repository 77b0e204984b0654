//! A built-in table of major world metropolitan areas.
//!
//! The paper overlays PoP deployments on GPWv4 gridded world population and
//! measures proximity to population centres. GPWv4 itself is a large
//! licensed dataset; we substitute a synthetic grid seeded from this table
//! of ~120 real metro areas with public coordinates and approximate metro
//! populations (in millions, circa 2020). Airport-style codes drive router
//! hostname generation and rDNS location extraction.

use crate::coords::{Continent, GeoPoint};

/// One metro area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// Three-letter location code (airport-style), lowercase.
    pub code: &'static str,
    /// Metro name.
    pub name: &'static str,
    /// ISO-ish country code.
    pub country: &'static str,
    /// Continent grouping used by Fig. 12.
    pub continent: Continent,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Approximate metro population, millions.
    pub population_m: f64,
}

impl City {
    /// The city's coordinates.
    pub fn point(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }
}

macro_rules! city {
    ($code:literal, $name:literal, $country:literal, $cont:ident, $lat:literal, $lon:literal, $pop:literal) => {
        City {
            code: $code,
            name: $name,
            country: $country,
            continent: Continent::$cont,
            lat: $lat,
            lon: $lon,
            population_m: $pop,
        }
    };
}

/// The metro table, ordered by descending population within each continent
/// block. Codes are unique.
pub const CITIES: &[City] = &[
    // --- Asia ---
    city!("tyo", "Tokyo", "JP", Asia, 35.6762, 139.6503, 37.4),
    city!("del", "Delhi", "IN", Asia, 28.7041, 77.1025, 30.3),
    city!("sha", "Shanghai", "CN", Asia, 31.2304, 121.4737, 27.1),
    city!("dac", "Dhaka", "BD", Asia, 23.8103, 90.4125, 21.0),
    city!("bom", "Mumbai", "IN", Asia, 19.0760, 72.8777, 20.4),
    city!("bjs", "Beijing", "CN", Asia, 39.9042, 116.4074, 20.5),
    city!("osa", "Osaka", "JP", Asia, 34.6937, 135.5023, 19.2),
    city!("krc", "Karachi", "PK", Asia, 24.8607, 67.0011, 16.1),
    city!("cgk", "Jakarta", "ID", Asia, -6.2088, 106.8456, 10.8),
    city!("mnl", "Manila", "PH", Asia, 14.5995, 120.9842, 13.9),
    city!("ccu", "Kolkata", "IN", Asia, 22.5726, 88.3639, 14.9),
    city!("sel", "Seoul", "KR", Asia, 37.5665, 126.9780, 9.9),
    city!("can", "Guangzhou", "CN", Asia, 23.1291, 113.2644, 13.3),
    city!("szx", "Shenzhen", "CN", Asia, 22.5431, 114.0579, 12.4),
    city!("maa", "Chennai", "IN", Asia, 13.0827, 80.2707, 11.0),
    city!("blr", "Bangalore", "IN", Asia, 12.9716, 77.5946, 12.3),
    city!("bkk", "Bangkok", "TH", Asia, 13.7563, 100.5018, 10.5),
    city!("hyd", "Hyderabad", "IN", Asia, 17.3850, 78.4867, 10.0),
    city!("lhe", "Lahore", "PK", Asia, 31.5204, 74.3587, 12.6),
    city!("sgn", "Ho Chi Minh City", "VN", Asia, 10.8231, 106.6297, 8.6),
    city!("han", "Hanoi", "VN", Asia, 21.0278, 105.8342, 8.0),
    city!("chg", "Chongqing", "CN", Asia, 29.4316, 106.9123, 15.9),
    city!("che", "Chengdu", "CN", Asia, 30.5728, 104.0668, 9.1),
    city!("sin", "Singapore", "SG", Asia, 1.3521, 103.8198, 5.7),
    city!("hkg", "Hong Kong", "HK", Asia, 22.3193, 114.1694, 7.5),
    city!("tpe", "Taipei", "TW", Asia, 25.0330, 121.5654, 7.0),
    city!("kul", "Kuala Lumpur", "MY", Asia, 3.1390, 101.6869, 7.6),
    city!("ist", "Istanbul", "TR", Asia, 41.0082, 28.9784, 15.5),
    city!("thr", "Tehran", "IR", Asia, 35.6892, 51.3890, 9.1),
    city!("bgw", "Baghdad", "IQ", Asia, 33.3152, 44.3661, 7.1),
    city!("ryd", "Riyadh", "SA", Asia, 24.7136, 46.6753, 7.0),
    city!("dxb", "Dubai", "AE", Asia, 25.2048, 55.2708, 3.4),
    city!("tlv", "Tel Aviv", "IL", Asia, 32.0853, 34.7818, 3.9),
    city!("ygn", "Yangon", "MM", Asia, 16.8661, 96.1951, 5.2),
    // --- Europe ---
    city!("mow", "Moscow", "RU", Europe, 55.7558, 37.6173, 12.5),
    city!("par", "Paris", "FR", Europe, 48.8566, 2.3522, 11.0),
    city!("lon", "London", "GB", Europe, 51.5074, -0.1278, 9.3),
    city!("mad", "Madrid", "ES", Europe, 40.4168, -3.7038, 6.6),
    city!("bcn", "Barcelona", "ES", Europe, 41.3851, 2.1734, 5.6),
    city!("ber", "Berlin", "DE", Europe, 52.5200, 13.4050, 3.6),
    city!("mil", "Milan", "IT", Europe, 45.4642, 9.1900, 3.1),
    city!("rom", "Rome", "IT", Europe, 41.9028, 12.4964, 4.3),
    city!("ams", "Amsterdam", "NL", Europe, 52.3676, 4.9041, 2.5),
    city!("fra", "Frankfurt", "DE", Europe, 50.1109, 8.6821, 2.3),
    city!("muc", "Munich", "DE", Europe, 48.1351, 11.5820, 2.9),
    city!("ham", "Hamburg", "DE", Europe, 53.5511, 9.9937, 2.7),
    city!("vie", "Vienna", "AT", Europe, 48.2082, 16.3738, 2.6),
    city!("waw", "Warsaw", "PL", Europe, 52.2297, 21.0122, 3.1),
    city!("bud", "Budapest", "HU", Europe, 47.4979, 19.0402, 3.0),
    city!("buh", "Bucharest", "RO", Europe, 44.4268, 26.1025, 2.1),
    city!("ath", "Athens", "GR", Europe, 37.9838, 23.7275, 3.1),
    city!("lis", "Lisbon", "PT", Europe, 38.7223, -9.1393, 2.9),
    city!("dub", "Dublin", "IE", Europe, 53.3498, -6.2603, 2.0),
    city!("brs", "Brussels", "BE", Europe, 50.8503, 4.3517, 2.1),
    city!("zrh", "Zurich", "CH", Europe, 47.3769, 8.5417, 1.4),
    city!("gva", "Geneva", "CH", Europe, 46.2044, 6.1432, 0.6),
    city!("cph", "Copenhagen", "DK", Europe, 55.6761, 12.5683, 2.1),
    city!("sto", "Stockholm", "SE", Europe, 59.3293, 18.0686, 2.4),
    city!("osl", "Oslo", "NO", Europe, 59.9139, 10.7522, 1.7),
    city!("hel", "Helsinki", "FI", Europe, 60.1699, 24.9384, 1.5),
    city!("prg", "Prague", "CZ", Europe, 50.0755, 14.4378, 2.7),
    city!("kbp", "Kyiv", "UA", Europe, 50.4501, 30.5234, 3.0),
    city!("led", "St Petersburg", "RU", Europe, 59.9311, 30.3609, 5.4),
    city!("man", "Manchester", "GB", Europe, 53.4808, -2.2426, 2.8),
    city!("mrs", "Marseille", "FR", Europe, 43.2965, 5.3698, 1.8),
    // --- North America ---
    city!("nyc", "New York", "US", NorthAmerica, 40.7128, -74.0060, 18.8),
    city!("mex", "Mexico City", "MX", NorthAmerica, 19.4326, -99.1332, 21.8),
    city!("lax", "Los Angeles", "US", NorthAmerica, 34.0522, -118.2437, 12.4),
    city!("chi", "Chicago", "US", NorthAmerica, 41.8781, -87.6298, 8.9),
    city!("dfw", "Dallas", "US", NorthAmerica, 32.7767, -96.7970, 7.6),
    city!("hou", "Houston", "US", NorthAmerica, 29.7604, -95.3698, 7.1),
    city!("was", "Washington DC", "US", NorthAmerica, 38.9072, -77.0369, 6.3),
    city!("mia", "Miami", "US", NorthAmerica, 25.7617, -80.1918, 6.2),
    city!("phl", "Philadelphia", "US", NorthAmerica, 39.9526, -75.1652, 6.1),
    city!("atl", "Atlanta", "US", NorthAmerica, 33.7490, -84.3880, 6.0),
    city!("phx", "Phoenix", "US", NorthAmerica, 33.4484, -112.0740, 4.9),
    city!("bos", "Boston", "US", NorthAmerica, 42.3601, -71.0589, 4.9),
    city!("sfo", "San Francisco", "US", NorthAmerica, 37.7749, -122.4194, 4.7),
    city!("sjc", "San Jose", "US", NorthAmerica, 37.3382, -121.8863, 2.0),
    city!("sea", "Seattle", "US", NorthAmerica, 47.6062, -122.3321, 4.0),
    city!("den", "Denver", "US", NorthAmerica, 39.7392, -104.9903, 3.0),
    city!("det", "Detroit", "US", NorthAmerica, 42.3314, -83.0458, 4.3),
    city!("min", "Minneapolis", "US", NorthAmerica, 44.9778, -93.2650, 3.7),
    city!("tor", "Toronto", "CA", NorthAmerica, 43.6532, -79.3832, 6.2),
    city!("mtl", "Montreal", "CA", NorthAmerica, 45.5017, -73.5673, 4.2),
    city!("van", "Vancouver", "CA", NorthAmerica, 49.2827, -123.1207, 2.6),
    city!("gdl", "Guadalajara", "MX", NorthAmerica, 20.6597, -103.3496, 5.3),
    city!("mty", "Monterrey", "MX", NorthAmerica, 25.6866, -100.3161, 5.3),
    city!("hav", "Havana", "CU", NorthAmerica, 23.1136, -82.3666, 2.1),
    city!("gua", "Guatemala City", "GT", NorthAmerica, 14.6349, -90.5069, 3.0),
    city!("pty", "Panama City", "PA", NorthAmerica, 8.9824, -79.5199, 1.9),
    city!("slc", "Salt Lake City", "US", NorthAmerica, 40.7608, -111.8910, 1.2),
    city!("las", "Las Vegas", "US", NorthAmerica, 36.1699, -115.1398, 2.3),
    // --- South America ---
    city!("sao", "Sao Paulo", "BR", SouthAmerica, -23.5505, -46.6333, 22.0),
    city!("bue", "Buenos Aires", "AR", SouthAmerica, -34.6037, -58.3816, 15.2),
    city!("rio", "Rio de Janeiro", "BR", SouthAmerica, -22.9068, -43.1729, 13.5),
    city!("bog", "Bogota", "CO", SouthAmerica, 4.7110, -74.0721, 10.9),
    city!("lim", "Lima", "PE", SouthAmerica, -12.0464, -77.0428, 10.7),
    city!("scl", "Santiago", "CL", SouthAmerica, -33.4489, -70.6693, 6.8),
    city!("ccs", "Caracas", "VE", SouthAmerica, 10.4806, -66.9036, 2.9),
    city!("uio", "Quito", "EC", SouthAmerica, -0.1807, -78.4678, 1.9),
    city!("mvd", "Montevideo", "UY", SouthAmerica, -34.9011, -56.1645, 1.7),
    city!("asu", "Asuncion", "PY", SouthAmerica, -25.2637, -57.5759, 2.3),
    city!("for", "Fortaleza", "BR", SouthAmerica, -3.7319, -38.5267, 4.1),
    city!("poa", "Porto Alegre", "BR", SouthAmerica, -30.0346, -51.2177, 4.3),
    city!("mde", "Medellin", "CO", SouthAmerica, 6.2442, -75.5812, 4.0),
    // --- Africa ---
    city!("cai", "Cairo", "EG", Africa, 30.0444, 31.2357, 20.9),
    city!("los", "Lagos", "NG", Africa, 6.5244, 3.3792, 14.4),
    city!("jnb", "Johannesburg", "ZA", Africa, -26.2041, 28.0473, 9.6),
    city!("cpt", "Cape Town", "ZA", Africa, -33.9249, 18.4241, 4.6),
    city!("nbo", "Nairobi", "KE", Africa, -1.2921, 36.8219, 4.7),
    city!("add", "Addis Ababa", "ET", Africa, 9.0320, 38.7469, 4.8),
    city!("dar", "Dar es Salaam", "TZ", Africa, -6.7924, 39.2083, 6.7),
    city!("acc", "Accra", "GH", Africa, 5.6037, -0.1870, 2.5),
    city!("abj", "Abidjan", "CI", Africa, 5.3600, -4.0083, 5.2),
    city!("cas", "Casablanca", "MA", Africa, 33.5731, -7.5898, 3.7),
    city!("alg", "Algiers", "DZ", Africa, 36.7538, 3.0588, 2.7),
    city!("tun", "Tunis", "TN", Africa, 36.8065, 10.1815, 2.3),
    city!("dkr", "Dakar", "SN", Africa, 14.7167, -17.4677, 3.1),
    city!("kan", "Kano", "NG", Africa, 12.0022, 8.5920, 4.1),
    city!("lua", "Luanda", "AO", Africa, -8.8390, 13.2894, 8.3),
    city!("khi", "Khartoum", "SD", Africa, 15.5007, 32.5599, 5.8),
    // --- Oceania ---
    city!("syd", "Sydney", "AU", Oceania, -33.8688, 151.2093, 5.3),
    city!("mel", "Melbourne", "AU", Oceania, -37.8136, 144.9631, 5.1),
    city!("bne", "Brisbane", "AU", Oceania, -27.4698, 153.0251, 2.6),
    city!("per", "Perth", "AU", Oceania, -31.9505, 115.8605, 2.1),
    city!("akl", "Auckland", "NZ", Oceania, -36.8485, 174.7633, 1.7),
    city!("wlg", "Wellington", "NZ", Oceania, -41.2866, 174.7756, 0.4),
    city!("adl", "Adelaide", "AU", Oceania, -34.9285, 138.6007, 1.4),
];

/// Looks a city up by its code.
pub fn by_code(code: &str) -> Option<&'static City> {
    CITIES.iter().find(|c| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_lowercase() {
        let mut codes: Vec<&str> = CITIES.iter().map(|c| c.code).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate city code");
        for c in CITIES {
            assert_eq!(c.code.len(), 3);
            assert!(c.code.chars().all(|ch| ch.is_ascii_lowercase()));
        }
    }

    #[test]
    fn coordinates_in_range() {
        for c in CITIES {
            assert!(c.lat.abs() <= 90.0, "{}", c.name);
            assert!(c.lon.abs() <= 180.0, "{}", c.name);
            assert!(c.population_m > 0.0);
        }
    }

    #[test]
    fn has_all_continents_and_reasonable_size() {
        for cont in Continent::ALL {
            let n = CITIES.iter().filter(|c| c.continent == cont).count();
            assert!(n >= 5, "{}", cont.name());
        }
        assert!(CITIES.len() >= 110, "table has {} cities", CITIES.len());
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(by_code("ams").unwrap().name, "Amsterdam");
        assert!(by_code("zzz").is_none());
    }

    #[test]
    fn total_population_plausible() {
        let t: f64 = CITIES.iter().map(|c| c.population_m).sum();
        // Order of magnitude: hundreds of millions up to ~1B in metros.
        assert!(t > 500.0 && t < 2000.0, "total {t}");
    }
}
