//! Geography: cities, great-circle distances, propagation delay.
//!
//! Root-server sites are conventionally named by nearby airport code
//! (`K-AMS`, `E-NRT`, ...); the paper keeps that convention and so do we.
//! Every AS, vantage point, site, and botnet member is pinned to a city,
//! and wide-area latency is modeled as great-circle distance at two-thirds
//! of the speed of light (fiber) plus a small per-hop processing overhead
//! added by the routing layer.

use rootcast_netsim::SimDuration;
use std::fmt;
use std::sync::OnceLock;

/// Mean Earth radius in kilometers.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Speed of light in fiber, km per millisecond (≈ 2/3 · c).
const FIBER_KM_PER_MS: f64 = 200.0;

/// Broad world region; used to apply the RIPE-Atlas European bias and to
/// distribute botnet sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    Europe,
    NorthAmerica,
    SouthAmerica,
    Asia,
    Oceania,
    Africa,
    MiddleEast,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 7] = [
        Region::Europe,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Asia,
        Region::Oceania,
        Region::Africa,
        Region::MiddleEast,
    ];
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Europe => "Europe",
            Region::NorthAmerica => "North America",
            Region::SouthAmerica => "South America",
            Region::Asia => "Asia",
            Region::Oceania => "Oceania",
            Region::Africa => "Africa",
            Region::MiddleEast => "Middle East",
        };
        f.write_str(s)
    }
}

/// A city that can host anycast sites, ASes, and vantage points.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// Three-letter airport code, e.g. `AMS`.
    pub code: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    pub region: Region,
    /// Degrees north.
    pub lat: f64,
    /// Degrees east.
    pub lon: f64,
    /// Relative weight for Internet population (stub-AS placement and
    /// legitimate client density).
    pub population_weight: f64,
}

/// Index into the city catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u16);

/// Great-circle (haversine) distance between two points, km.
pub fn great_circle_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (la1, lo1, la2, lo2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

impl City {
    /// Distance from this city to another, km.
    pub fn distance_km(&self, other: &City) -> f64 {
        great_circle_km(self.lat, self.lon, other.lat, other.lon)
    }

    /// One-way propagation delay to another city over fiber.
    pub fn propagation_delay(&self, other: &City) -> SimDuration {
        SimDuration::from_secs_f64(self.distance_km(other) / FIBER_KM_PER_MS / 1000.0)
    }
}

/// The built-in city catalog. Contains every airport code appearing in the
/// paper's figures (E-root and K-root site lists, H's two coasts, B's Los
/// Angeles home) plus enough additional cities to place all 500+ sites of
/// the thirteen letters.
///
/// Population weights are coarse (order-of-magnitude) Internet-user
/// weights; they shape where stub ASes, clients, and attackers live.
pub const fn city_catalog() -> &'static [City] {
    use Region::*;
    // (code, name, region, lat, lon, weight)
    const CITIES: &[City] = &[
        // --- Europe (RIPE Atlas home turf; the VP bias lives here) ---
        City {
            code: "AMS",
            name: "Amsterdam",
            region: Europe,
            lat: 52.31,
            lon: 4.77,
            population_weight: 3.0,
        },
        City {
            code: "FRA",
            name: "Frankfurt",
            region: Europe,
            lat: 50.04,
            lon: 8.56,
            population_weight: 3.0,
        },
        City {
            code: "LHR",
            name: "London",
            region: Europe,
            lat: 51.47,
            lon: -0.45,
            population_weight: 3.0,
        },
        City {
            code: "CDG",
            name: "Paris",
            region: Europe,
            lat: 49.01,
            lon: 2.55,
            population_weight: 2.5,
        },
        City {
            code: "VIE",
            name: "Vienna",
            region: Europe,
            lat: 48.11,
            lon: 16.57,
            population_weight: 1.2,
        },
        City {
            code: "ZRH",
            name: "Zurich",
            region: Europe,
            lat: 47.46,
            lon: 8.55,
            population_weight: 1.0,
        },
        City {
            code: "WAW",
            name: "Warsaw",
            region: Europe,
            lat: 52.17,
            lon: 20.97,
            population_weight: 1.2,
        },
        City {
            code: "BER",
            name: "Berlin",
            region: Europe,
            lat: 52.56,
            lon: 13.29,
            population_weight: 1.5,
        },
        City {
            code: "MAN",
            name: "Manchester",
            region: Europe,
            lat: 53.35,
            lon: -2.28,
            population_weight: 0.8,
        },
        City {
            code: "LBA",
            name: "Leeds",
            region: Europe,
            lat: 53.87,
            lon: -1.66,
            population_weight: 0.4,
        },
        City {
            code: "TRN",
            name: "Turin",
            region: Europe,
            lat: 45.20,
            lon: 7.65,
            population_weight: 0.6,
        },
        City {
            code: "MIL",
            name: "Milan",
            region: Europe,
            lat: 45.63,
            lon: 8.72,
            population_weight: 1.0,
        },
        City {
            code: "PRG",
            name: "Prague",
            region: Europe,
            lat: 50.10,
            lon: 14.26,
            population_weight: 0.8,
        },
        City {
            code: "GVA",
            name: "Geneva",
            region: Europe,
            lat: 46.24,
            lon: 6.11,
            population_weight: 0.5,
        },
        City {
            code: "ATH",
            name: "Athens",
            region: Europe,
            lat: 37.94,
            lon: 23.94,
            population_weight: 0.6,
        },
        City {
            code: "RIX",
            name: "Riga",
            region: Europe,
            lat: 56.92,
            lon: 23.97,
            population_weight: 0.3,
        },
        City {
            code: "BUD",
            name: "Budapest",
            region: Europe,
            lat: 47.44,
            lon: 19.26,
            population_weight: 0.6,
        },
        City {
            code: "BEG",
            name: "Belgrade",
            region: Europe,
            lat: 44.82,
            lon: 20.31,
            population_weight: 0.4,
        },
        City {
            code: "HEL",
            name: "Helsinki",
            region: Europe,
            lat: 60.32,
            lon: 24.96,
            population_weight: 0.5,
        },
        City {
            code: "POZ",
            name: "Poznan",
            region: Europe,
            lat: 52.42,
            lon: 16.83,
            population_weight: 0.3,
        },
        City {
            code: "KBP",
            name: "Kyiv",
            region: Europe,
            lat: 50.34,
            lon: 30.89,
            population_weight: 0.8,
        },
        City {
            code: "LED",
            name: "St. Petersburg",
            region: Europe,
            lat: 59.80,
            lon: 30.26,
            population_weight: 1.0,
        },
        City {
            code: "OVB",
            name: "Novosibirsk",
            region: Europe,
            lat: 55.01,
            lon: 82.65,
            population_weight: 0.4,
        },
        City {
            code: "ARC",
            name: "Archangelsk",
            region: Europe,
            lat: 64.60,
            lon: 40.72,
            population_weight: 0.3,
        },
        City {
            code: "REY",
            name: "Reykjavik",
            region: Europe,
            lat: 64.13,
            lon: -21.94,
            population_weight: 0.15,
        },
        City {
            code: "OSL",
            name: "Oslo",
            region: Europe,
            lat: 60.19,
            lon: 11.10,
            population_weight: 0.5,
        },
        City {
            code: "ARN",
            name: "Stockholm",
            region: Europe,
            lat: 59.65,
            lon: 17.92,
            population_weight: 0.7,
        },
        City {
            code: "CPH",
            name: "Copenhagen",
            region: Europe,
            lat: 55.62,
            lon: 12.65,
            population_weight: 0.6,
        },
        City {
            code: "MAD",
            name: "Madrid",
            region: Europe,
            lat: 40.47,
            lon: -3.56,
            population_weight: 1.2,
        },
        City {
            code: "BCN",
            name: "Barcelona",
            region: Europe,
            lat: 41.30,
            lon: 2.08,
            population_weight: 0.8,
        },
        City {
            code: "LIS",
            name: "Lisbon",
            region: Europe,
            lat: 38.77,
            lon: -9.13,
            population_weight: 0.5,
        },
        City {
            code: "DUB",
            name: "Dublin",
            region: Europe,
            lat: 53.42,
            lon: -6.27,
            population_weight: 0.5,
        },
        City {
            code: "BRU",
            name: "Brussels",
            region: Europe,
            lat: 50.90,
            lon: 4.48,
            population_weight: 0.7,
        },
        City {
            code: "ROM",
            name: "Rome",
            region: Europe,
            lat: 41.80,
            lon: 12.25,
            population_weight: 1.0,
        },
        City {
            code: "SOF",
            name: "Sofia",
            region: Europe,
            lat: 42.70,
            lon: 23.41,
            population_weight: 0.4,
        },
        City {
            code: "BUH",
            name: "Bucharest",
            region: Europe,
            lat: 44.57,
            lon: 26.09,
            population_weight: 0.5,
        },
        City {
            code: "IST",
            name: "Istanbul",
            region: Europe,
            lat: 41.26,
            lon: 28.74,
            population_weight: 1.2,
        },
        City {
            code: "MOW",
            name: "Moscow",
            region: Europe,
            lat: 55.97,
            lon: 37.41,
            population_weight: 1.5,
        },
        City {
            code: "PLX",
            name: "Semey",
            region: Europe,
            lat: 50.35,
            lon: 80.23,
            population_weight: 0.1,
        },
        City {
            code: "KAE",
            name: "Kajaani",
            region: Europe,
            lat: 64.29,
            lon: 27.69,
            population_weight: 0.1,
        },
        City {
            code: "AVN",
            name: "Avignon",
            region: Europe,
            lat: 43.91,
            lon: 4.90,
            population_weight: 0.2,
        },
        // --- North America ---
        City {
            code: "IAD",
            name: "Washington DC",
            region: NorthAmerica,
            lat: 38.94,
            lon: -77.46,
            population_weight: 2.0,
        },
        City {
            code: "LGA",
            name: "New York",
            region: NorthAmerica,
            lat: 40.78,
            lon: -73.87,
            population_weight: 2.5,
        },
        City {
            code: "ORD",
            name: "Chicago",
            region: NorthAmerica,
            lat: 41.98,
            lon: -87.90,
            population_weight: 1.8,
        },
        City {
            code: "ATL",
            name: "Atlanta",
            region: NorthAmerica,
            lat: 33.64,
            lon: -84.43,
            population_weight: 1.5,
        },
        City {
            code: "MIA",
            name: "Miami",
            region: NorthAmerica,
            lat: 25.79,
            lon: -80.29,
            population_weight: 1.2,
        },
        City {
            code: "SEA",
            name: "Seattle",
            region: NorthAmerica,
            lat: 47.45,
            lon: -122.31,
            population_weight: 1.2,
        },
        City {
            code: "PAO",
            name: "Palo Alto",
            region: NorthAmerica,
            lat: 37.46,
            lon: -122.12,
            population_weight: 1.5,
        },
        City {
            code: "BUR",
            name: "Burbank",
            region: NorthAmerica,
            lat: 34.20,
            lon: -118.36,
            population_weight: 0.8,
        },
        City {
            code: "LAX",
            name: "Los Angeles",
            region: NorthAmerica,
            lat: 33.94,
            lon: -118.41,
            population_weight: 2.0,
        },
        City {
            code: "SAN",
            name: "San Diego",
            region: NorthAmerica,
            lat: 32.73,
            lon: -117.19,
            population_weight: 0.8,
        },
        City {
            code: "BWI",
            name: "Baltimore",
            region: NorthAmerica,
            lat: 39.18,
            lon: -76.67,
            population_weight: 0.7,
        },
        City {
            code: "SNA",
            name: "Santa Ana",
            region: NorthAmerica,
            lat: 33.68,
            lon: -117.87,
            population_weight: 0.5,
        },
        City {
            code: "MKC",
            name: "Kansas City",
            region: NorthAmerica,
            lat: 39.12,
            lon: -94.59,
            population_weight: 0.5,
        },
        City {
            code: "RNO",
            name: "Reno",
            region: NorthAmerica,
            lat: 39.50,
            lon: -119.77,
            population_weight: 0.3,
        },
        City {
            code: "NLV",
            name: "Las Vegas",
            region: NorthAmerica,
            lat: 36.21,
            lon: -115.20,
            population_weight: 0.6,
        },
        City {
            code: "DFW",
            name: "Dallas",
            region: NorthAmerica,
            lat: 32.90,
            lon: -97.04,
            population_weight: 1.2,
        },
        City {
            code: "DEN",
            name: "Denver",
            region: NorthAmerica,
            lat: 39.86,
            lon: -104.67,
            population_weight: 0.8,
        },
        City {
            code: "YYZ",
            name: "Toronto",
            region: NorthAmerica,
            lat: 43.68,
            lon: -79.63,
            population_weight: 1.0,
        },
        City {
            code: "YVR",
            name: "Vancouver",
            region: NorthAmerica,
            lat: 49.19,
            lon: -123.18,
            population_weight: 0.6,
        },
        City {
            code: "MEX",
            name: "Mexico City",
            region: NorthAmerica,
            lat: 19.44,
            lon: -99.07,
            population_weight: 1.2,
        },
        // --- South America ---
        City {
            code: "GRU",
            name: "Sao Paulo",
            region: SouthAmerica,
            lat: -23.44,
            lon: -46.47,
            population_weight: 1.5,
        },
        City {
            code: "EZE",
            name: "Buenos Aires",
            region: SouthAmerica,
            lat: -34.82,
            lon: -58.54,
            population_weight: 0.9,
        },
        City {
            code: "BOG",
            name: "Bogota",
            region: SouthAmerica,
            lat: 4.70,
            lon: -74.15,
            population_weight: 0.7,
        },
        City {
            code: "SCL",
            name: "Santiago",
            region: SouthAmerica,
            lat: -33.39,
            lon: -70.79,
            population_weight: 0.6,
        },
        // --- Asia ---
        City {
            code: "NRT",
            name: "Tokyo",
            region: Asia,
            lat: 35.76,
            lon: 140.39,
            population_weight: 2.2,
        },
        City {
            code: "QPG",
            name: "Singapore",
            region: Asia,
            lat: 1.36,
            lon: 103.91,
            population_weight: 1.2,
        },
        City {
            code: "SIN",
            name: "Singapore Changi",
            region: Asia,
            lat: 1.36,
            lon: 103.99,
            population_weight: 1.0,
        },
        City {
            code: "HKG",
            name: "Hong Kong",
            region: Asia,
            lat: 22.31,
            lon: 113.91,
            population_weight: 1.5,
        },
        City {
            code: "ICN",
            name: "Seoul",
            region: Asia,
            lat: 37.46,
            lon: 126.44,
            population_weight: 1.5,
        },
        City {
            code: "PEK",
            name: "Beijing",
            region: Asia,
            lat: 40.08,
            lon: 116.58,
            population_weight: 3.0,
        },
        City {
            code: "PVG",
            name: "Shanghai",
            region: Asia,
            lat: 31.14,
            lon: 121.81,
            population_weight: 3.0,
        },
        City {
            code: "DEL",
            name: "Delhi",
            region: Asia,
            lat: 28.57,
            lon: 77.10,
            population_weight: 2.5,
        },
        City {
            code: "BOM",
            name: "Mumbai",
            region: Asia,
            lat: 19.09,
            lon: 72.87,
            population_weight: 2.2,
        },
        City {
            code: "TPE",
            name: "Taipei",
            region: Asia,
            lat: 25.08,
            lon: 121.23,
            population_weight: 1.0,
        },
        City {
            code: "KUL",
            name: "Kuala Lumpur",
            region: Asia,
            lat: 2.75,
            lon: 101.71,
            population_weight: 0.8,
        },
        City {
            code: "BKK",
            name: "Bangkok",
            region: Asia,
            lat: 13.69,
            lon: 100.75,
            population_weight: 1.0,
        },
        City {
            code: "CGK",
            name: "Jakarta",
            region: Asia,
            lat: -6.13,
            lon: 106.66,
            population_weight: 1.5,
        },
        // --- Oceania ---
        City {
            code: "SYD",
            name: "Sydney",
            region: Oceania,
            lat: -33.95,
            lon: 151.18,
            population_weight: 0.9,
        },
        City {
            code: "PER",
            name: "Perth",
            region: Oceania,
            lat: -31.94,
            lon: 115.97,
            population_weight: 0.3,
        },
        City {
            code: "BNE",
            name: "Brisbane",
            region: Oceania,
            lat: -27.38,
            lon: 153.12,
            population_weight: 0.4,
        },
        City {
            code: "AKL",
            name: "Auckland",
            region: Oceania,
            lat: -37.01,
            lon: 174.79,
            population_weight: 0.3,
        },
        // --- Africa ---
        City {
            code: "JNB",
            name: "Johannesburg",
            region: Africa,
            lat: -26.14,
            lon: 28.25,
            population_weight: 0.7,
        },
        City {
            code: "NBO",
            name: "Nairobi",
            region: Africa,
            lat: -1.32,
            lon: 36.93,
            population_weight: 0.5,
        },
        City {
            code: "KGL",
            name: "Kigali",
            region: Africa,
            lat: -1.97,
            lon: 30.14,
            population_weight: 0.15,
        },
        City {
            code: "LAD",
            name: "Luanda",
            region: Africa,
            lat: -8.86,
            lon: 13.23,
            population_weight: 0.2,
        },
        City {
            code: "CAI",
            name: "Cairo",
            region: Africa,
            lat: 30.12,
            lon: 31.41,
            population_weight: 0.9,
        },
        City {
            code: "LOS",
            name: "Lagos",
            region: Africa,
            lat: 6.58,
            lon: 3.32,
            population_weight: 0.8,
        },
        // --- Middle East ---
        City {
            code: "DXB",
            name: "Dubai",
            region: MiddleEast,
            lat: 25.25,
            lon: 55.36,
            population_weight: 0.7,
        },
        City {
            code: "DOH",
            name: "Doha",
            region: MiddleEast,
            lat: 25.27,
            lon: 51.61,
            population_weight: 0.3,
        },
        City {
            code: "THR",
            name: "Tehran",
            region: MiddleEast,
            lat: 35.69,
            lon: 51.31,
            population_weight: 0.9,
        },
        City {
            code: "ABO",
            name: "Abu Dhabi",
            region: MiddleEast,
            lat: 24.43,
            lon: 54.65,
            population_weight: 0.3,
        },
        City {
            code: "TLV",
            name: "Tel Aviv",
            region: MiddleEast,
            lat: 32.01,
            lon: 34.89,
            population_weight: 0.5,
        },
        City {
            code: "NLV2",
            name: "Nicosia",
            region: MiddleEast,
            lat: 35.15,
            lon: 33.28,
            population_weight: 0.2,
        },
    ];
    CITIES
}

/// Look up a city by airport code. Codes are unique in the catalog.
pub fn city_by_code(code: &str) -> Option<(CityId, &'static City)> {
    city_catalog()
        .iter()
        .enumerate()
        .find(|(_, c)| c.code == code)
        .map(|(i, c)| (CityId(i as u16), c))
}

/// The city at `id`.
///
/// # Panics
/// Panics if the id is out of range (ids are only produced by this module).
pub fn city(id: CityId) -> &'static City {
    &city_catalog()[id.0 as usize]
}

/// Number of cities in the catalog.
const N_CITIES: usize = city_catalog().len();

/// [`City::distance_km`] and [`City::propagation_delay`] for every pair
/// of catalog cities, built once per process. Topology generation and
/// every BGP edge relaxation ask for these, so each pair's haversine
/// runs once instead of once per call. Both are symmetric bit for bit
/// (the haversine's terms are even in the coordinate differences), so
/// only the lower triangle is kept: pair `(a, b)` with `a >= b` at
/// `a * (a + 1) / 2 + b`, 4,465 pairs. Delays are kept as `u32`
/// nanoseconds, 12 bytes a pair, about 54 KB in all.
struct CityPairs {
    km: Vec<f64>,
    delay_ns: Vec<u32>,
}

/// No great-circle delay reaches `u32::MAX` nanoseconds (4.29 s): half
/// the Earth's circumference over fiber is about 100 ms.
const _: () =
    assert!(std::f64::consts::PI * EARTH_RADIUS_KM / FIBER_KM_PER_MS * 1e6 < u32::MAX as f64);

fn city_pairs() -> &'static CityPairs {
    static PAIRS: OnceLock<CityPairs> = OnceLock::new();
    PAIRS.get_or_init(|| {
        let cat = city_catalog();
        let n_pairs = N_CITIES * (N_CITIES + 1) / 2;
        let mut pairs = CityPairs {
            km: Vec::with_capacity(n_pairs),
            delay_ns: Vec::with_capacity(n_pairs),
        };
        for (a, ca) in cat.iter().enumerate() {
            for cb in &cat[..=a] {
                pairs.km.push(ca.distance_km(cb));
                // Lossless: every delay fits (asserted above).
                pairs
                    .delay_ns
                    .push(ca.propagation_delay(cb).as_nanos() as u32);
            }
        }
        pairs
    })
}

/// Index of the unordered pair `{a, b}` in [`CityPairs`]. Out of the
/// table's range when either id is out of the catalog's.
#[inline]
fn pair_index(a: CityId, b: CityId) -> usize {
    let (hi, lo) = if a >= b { (a.0, b.0) } else { (b.0, a.0) };
    let hi = usize::from(hi);
    hi * (hi + 1) / 2 + usize::from(lo)
}

/// `city(a).distance_km(city(b))`, from the pair table.
///
/// # Panics
/// Panics if either id is out of range, like [`city`].
#[inline]
pub(crate) fn city_distance_km(a: CityId, b: CityId) -> f64 {
    city_pairs().km[pair_index(a, b)]
}

/// `city(a).propagation_delay(city(b))`, from the pair table.
///
/// # Panics
/// Panics if either id is out of range, like [`city`].
#[inline]
pub(crate) fn city_propagation_delay(a: CityId, b: CityId) -> SimDuration {
    SimDuration::from_nanos(u64::from(city_pairs().delay_ns[pair_index(a, b)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique() {
        let cat = city_catalog();
        let mut codes: Vec<&str> = cat.iter().map(|c| c.code).collect();
        codes.sort_unstable();
        let before = codes.len();
        codes.dedup();
        assert_eq!(before, codes.len(), "duplicate airport codes in catalog");
    }

    #[test]
    fn catalog_covers_paper_sites() {
        // Every site code named in the paper's figures must exist.
        for code in [
            "AMS", "FRA", "LHR", "ARC", "CDG", "VIE", "QPG", "ORD", "KBP", "ZRH", "IAD", "PAO",
            "WAW", "ATL", "BER", "SYD", "SEA", "NLV", "MIA", "NRT", "TRN", "AKL", "MAN", "BUR",
            "LGA", "PER", "SNA", "LBA", "SIN", "DXB", "KGL", "LAD", "LED", "MIL", "BNE", "PRG",
            "GVA", "ATH", "MKC", "RIX", "THR", "BUD", "KAE", "BEG", "HEL", "PLX", "OVB", "POZ",
            "ABO", "AVN", "BCN", "REY", "DOH", "RNO", "DEL", "BWI", "SAN", "LAX",
        ] {
            assert!(city_by_code(code).is_some(), "missing city {code}");
        }
    }

    #[test]
    fn distances_are_sane() {
        let (_, ams) = city_by_code("AMS").unwrap();
        let (_, lhr) = city_by_code("LHR").unwrap();
        let (_, nrt) = city_by_code("NRT").unwrap();
        let d_ams_lhr = ams.distance_km(lhr);
        let d_ams_nrt = ams.distance_km(nrt);
        assert!((300.0..500.0).contains(&d_ams_lhr), "AMS-LHR {d_ams_lhr}");
        assert!(
            (9000.0..10500.0).contains(&d_ams_nrt),
            "AMS-NRT {d_ams_nrt}"
        );
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let cat = city_catalog();
        let a = &cat[0];
        let b = &cat[40];
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
        assert!(a.distance_km(a) < 1e-9);
    }

    #[test]
    fn propagation_delay_scales_with_distance() {
        let (_, ams) = city_by_code("AMS").unwrap();
        let (_, syd) = city_by_code("SYD").unwrap();
        let d = ams.propagation_delay(syd);
        // ~16,600 km at 200 km/ms ≈ 83 ms one way.
        assert!(d.as_millis() > 60 && d.as_millis() < 110, "delay {d}");
    }

    #[test]
    fn pair_table_matches_city_methods_bit_for_bit() {
        let cat = city_catalog();
        assert_eq!(cat.len(), N_CITIES);
        assert_eq!(city_pairs().km.len(), N_CITIES * (N_CITIES + 1) / 2);
        for (i, a) in cat.iter().enumerate() {
            for (j, b) in cat.iter().enumerate() {
                let (ia, ib) = (CityId(i as u16), CityId(j as u16));
                assert_eq!(
                    city_distance_km(ia, ib).to_bits(),
                    a.distance_km(b).to_bits(),
                    "{} -> {} km",
                    a.code,
                    b.code
                );
                assert_eq!(
                    city_propagation_delay(ia, ib),
                    a.propagation_delay(b),
                    "{} -> {} delay",
                    a.code,
                    b.code
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn pair_table_rejects_out_of_range_ids() {
        city_distance_km(CityId(0), CityId(N_CITIES as u16));
    }

    #[test]
    fn region_display_names() {
        assert_eq!(Region::Europe.to_string(), "Europe");
        assert_eq!(Region::NorthAmerica.to_string(), "North America");
    }
}
