//! A GPWv4-like gridded population model.
//!
//! The paper computes "the percentage of population that falls within a
//! 500, 700, and 1000 km radius of each PoP" (§9, Fig. 12) from per-km²
//! gridded population. We substitute a deterministic synthetic grid seeded
//! from the built-in metro table: every metro spreads its population over a
//! small patch of cells with distance-decaying weights, which preserves the
//! only property those analyses need — population mass concentrated around
//! real population centres.

use crate::cities::{City, CITIES};
use crate::coords::{haversine_km, Continent, GeoPoint};

/// One grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Cell centre.
    pub center: GeoPoint,
    /// Population in the cell (absolute persons).
    pub population: f64,
    /// Continent inherited from the seeding metro.
    pub continent: Continent,
}

/// The gridded population model.
#[derive(Debug, Clone, Default)]
pub struct PopulationGrid {
    cells: Vec<Cell>,
}

impl PopulationGrid {
    /// Builds the default grid from the built-in city table: each metro is
    /// expanded into a (2r+1)×(2r+1) patch of cells at `spacing_deg`
    /// spacing with inverse-distance weights (`r = patch_radius`).
    pub fn from_cities(spacing_deg: f64, patch_radius: i32) -> Self {
        Self::from_city_list(CITIES, spacing_deg, patch_radius)
    }

    /// As [`PopulationGrid::from_cities`] over an explicit city list.
    pub(crate) fn from_city_list(cities: &[City], spacing_deg: f64, patch_radius: i32) -> Self {
        let mut cells = Vec::new();
        for city in cities {
            let mut weights = Vec::new();
            let mut total = 0.0f64;
            for di in -patch_radius..=patch_radius {
                for dj in -patch_radius..=patch_radius {
                    // Inverse-square-ish decay from the centre cell.
                    let w = 1.0 / (1.0 + (di * di + dj * dj) as f64);
                    weights.push((di, dj, w));
                    total += w;
                }
            }
            for (di, dj, w) in weights {
                let lat = (city.lat + di as f64 * spacing_deg).clamp(-89.9, 89.9);
                let mut lon = city.lon + dj as f64 * spacing_deg;
                if lon > 180.0 {
                    lon -= 360.0;
                } else if lon < -180.0 {
                    lon += 360.0;
                }
                cells.push(Cell {
                    center: GeoPoint::new(lat, lon),
                    population: city.population_m * 1.0e6 * w / total,
                    continent: city.continent,
                });
            }
        }
        PopulationGrid { cells }
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Total population of the grid.
    pub(crate) fn total_population(&self) -> f64 {
        self.cells.iter().map(|c| c.population).sum()
    }

    /// Total population per continent, in [`Continent::ALL`] order.
    pub fn population_by_continent(&self) -> [(Continent, f64); 6] {
        let mut totals = Continent::ALL.map(|c| (c, 0.0f64));
        for cell in &self.cells {
            let slot = totals.iter_mut().find(|(c, _)| *c == cell.continent).unwrap();
            slot.1 += cell.population;
        }
        totals
    }

    /// Population living within `radius_km` of **any** of `sites`.
    pub(crate) fn population_within(&self, sites: &[GeoPoint], radius_km: f64) -> f64 {
        self.cells
            .iter()
            .filter(|cell| sites.iter().any(|s| haversine_km(cell.center, *s) <= radius_km))
            .map(|c| c.population)
            .sum()
    }

    /// Population within `radius_km` of any site, split by continent
    /// (absolute persons), in [`Continent::ALL`] order.
    pub fn population_within_by_continent(
        &self,
        sites: &[GeoPoint],
        radius_km: f64,
    ) -> [(Continent, f64); 6] {
        let mut totals = Continent::ALL.map(|c| (c, 0.0f64));
        for cell in &self.cells {
            if sites.iter().any(|s| haversine_km(cell.center, *s) <= radius_km) {
                let slot = totals.iter_mut().find(|(c, _)| *c == cell.continent).unwrap();
                slot.1 += cell.population;
            }
        }
        totals
    }

    /// Fraction (0..=1) of world population within `radius_km` of any site.
    pub fn coverage_fraction(&self, sites: &[GeoPoint], radius_km: f64) -> f64 {
        let total = self.total_population();
        if total == 0.0 {
            return 0.0;
        }
        self.population_within(sites, radius_km) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::by_code;

    fn grid() -> PopulationGrid {
        PopulationGrid::from_cities(0.5, 2)
    }

    #[test]
    fn conserves_total_population() {
        let g = grid();
        let want = crate::cities::CITIES.iter().map(|c| c.population_m).sum::<f64>() * 1.0e6;
        let got = g.total_population();
        assert!((got - want).abs() / want < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn city_center_dominates_its_patch() {
        let g = PopulationGrid::from_city_list(&[*by_code("ams").unwrap()], 0.5, 2);
        // 25 cells; centre cell has the largest share.
        assert_eq!(g.cells().len(), 25);
        let max = g.cells().iter().cloned().fold(g.cells()[0], |a, b| {
            if b.population > a.population {
                b
            } else {
                a
            }
        });
        let ams = by_code("ams").unwrap().point();
        assert!(haversine_km(max.center, ams) < 1.0);
    }

    #[test]
    fn coverage_near_city_is_full_far_is_zero() {
        let g = PopulationGrid::from_city_list(&[*by_code("ams").unwrap()], 0.5, 2);
        let ams = by_code("ams").unwrap().point();
        assert!((g.coverage_fraction(&[ams], 500.0) - 1.0).abs() < 1e-9);
        let nowhere = GeoPoint::new(-60.0, -120.0);
        assert_eq!(g.coverage_fraction(&[nowhere], 500.0), 0.0);
        // No sites at all: zero coverage.
        assert_eq!(g.coverage_fraction(&[], 1000.0), 0.0);
    }

    #[test]
    fn coverage_monotone_in_radius_and_sites() {
        let g = grid();
        let ams = by_code("ams").unwrap().point();
        let nyc = by_code("nyc").unwrap().point();
        let c500 = g.coverage_fraction(&[ams], 500.0);
        let c1000 = g.coverage_fraction(&[ams], 1000.0);
        assert!(c1000 >= c500);
        let two = g.coverage_fraction(&[ams, nyc], 500.0);
        assert!(two >= c500);
    }

    #[test]
    fn continent_split_sums_to_total() {
        let g = grid();
        let by_cont = g.population_by_continent();
        let sum: f64 = by_cont.iter().map(|(_, p)| p).sum();
        let total = g.total_population();
        assert!((sum - total).abs() / total < 1e-9, "{sum} vs {total}");
        // Asia has the most people.
        let asia = by_cont.iter().find(|(c, _)| *c == Continent::Asia).unwrap().1;
        for (c, p) in by_cont {
            if c != Continent::Asia {
                assert!(asia >= p, "{} outweighs Asia", c.name());
            }
        }
    }

    #[test]
    fn within_by_continent_only_counts_near_cells() {
        let g = grid();
        let syd = by_code("syd").unwrap().point();
        let within = g.population_within_by_continent(&[syd], 500.0);
        let europe = within.iter().find(|(c, _)| *c == Continent::Europe).unwrap().1;
        assert_eq!(europe, 0.0);
        let oceania = within.iter().find(|(c, _)| *c == Continent::Oceania).unwrap().1;
        assert!(oceania > 0.0);
    }
}
