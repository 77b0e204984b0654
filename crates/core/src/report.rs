//! Plain-text table rendering for experiment reports.
//!
//! The `repro` harness prints every table and figure of the paper as text;
//! these helpers keep the formatting consistent and dependency-free.

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut [usize]| {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&self.header, &mut widths);
        for r in &self.rows {
            measure(r, &mut widths);
        }
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a count with thousands separators (paper style: `69,488`).
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders an ASCII CDF sparkline (for leak figures in terminal reports):
/// `values` must be sorted ascending in [0, 1].
pub fn ascii_cdf(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut out = String::with_capacity(width);
    for i in 0..width {
        let x = (i as f64 + 0.5) / width as f64;
        let frac = values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64;
        let g = ((frac * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1);
        out.push(glyphs[g]);
    }
    out
}

/// Renders an equirectangular ASCII world map.
///
/// `background` supplies a density value per (lat, lon) sample — e.g.
/// population mass — shaded with ` .:+#`; `markers` are plotted on top
/// (later markers win a cell). Latitude is clipped to ±72° (the paper's
/// Fig. 11 projection has no PoPs beyond that either).
pub fn ascii_world_map(
    width: usize,
    height: usize,
    background: impl Fn(f64, f64) -> f64,
    markers: &[(f64, f64, char)],
) -> String {
    if width == 0 || height == 0 {
        return String::new();
    }
    const LAT_MAX: f64 = 72.0;
    let shades = [' ', '.', ':', '+', '#'];
    // Sample the background and normalize against its own maximum.
    let mut values = vec![0.0f64; width * height];
    let mut max = 0.0f64;
    for (row, value_row) in values.chunks_mut(width).enumerate() {
        let lat = LAT_MAX - (row as f64 + 0.5) * (2.0 * LAT_MAX / height as f64);
        for (col, v) in value_row.iter_mut().enumerate() {
            let lon = -180.0 + (col as f64 + 0.5) * (360.0 / width as f64);
            *v = background(lat, lon).max(0.0);
            max = max.max(*v);
        }
    }
    let mut grid: Vec<char> = values
        .iter()
        .map(|&v| {
            if max == 0.0 {
                ' '
            } else {
                // Sqrt scaling keeps sparse density visible.
                let t = (v / max).sqrt();
                shades[((t * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1)]
            }
        })
        .collect();
    for &(lat, lon, c) in markers {
        let lat = lat.clamp(-LAT_MAX + 0.01, LAT_MAX - 0.01);
        let row = ((LAT_MAX - lat) / (2.0 * LAT_MAX) * height as f64) as usize;
        let col = (((lon + 180.0).rem_euclid(360.0)) / 360.0 * width as f64) as usize;
        grid[row.min(height - 1) * width + col.min(width - 1)] = c;
    }
    let mut out = String::with_capacity((width + 1) * height);
    for row in grid.chunks(width) {
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(["net", "reach"]);
        t.row(["Google", "12345"]);
        t.row(["HE", "9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("net"));
        assert!(lines[2].starts_with("Google  12345"));
        assert!(lines[3].starts_with("HE"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(69488), "69,488");
        assert_eq!(thousands(1234567), "1,234,567");
    }

    #[test]
    fn world_map_renders_markers_over_background() {
        let map = ascii_world_map(
            72,
            18,
            |lat, lon| {
                // One density blob near (40N, 100W).
                let d = ((lat - 40.0).powi(2) + (lon + 100.0).powi(2)).sqrt();
                (50.0 - d).max(0.0)
            },
            &[(52.4, 4.9, 'C'), (-33.9, 151.2, 'T')],
        );
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 18);
        assert!(lines.iter().all(|l| l.chars().count() == 72));
        assert!(map.contains('C'));
        assert!(map.contains('T'));
        assert!(map.contains('#')); // the blob's core
        // Marker positions: C (Amsterdam) in the upper half, east of centre.
        let crow = lines.iter().position(|l| l.contains('C')).unwrap();
        assert!(crow < 9, "C at row {crow}");
        let trow = lines.iter().position(|l| l.contains('T')).unwrap();
        assert!(trow >= 9, "T at row {trow}");
    }

    #[test]
    fn world_map_degenerate_inputs() {
        assert!(ascii_world_map(0, 10, |_, _| 1.0, &[]).is_empty());
        assert!(ascii_world_map(10, 0, |_, _| 1.0, &[]).is_empty());
        let blank = ascii_world_map(8, 4, |_, _| 0.0, &[]);
        assert!(blank.chars().all(|c| c == ' ' || c == '\n'));
    }

    #[test]
    fn cdf_sparkline() {
        let v = vec![0.1, 0.2, 0.9];
        let s = ascii_cdf(&v, 10);
        assert_eq!(s.chars().count(), 10);
        // Early columns below later columns in density glyphs.
        assert!(ascii_cdf(&[], 10).is_empty());
        assert!(ascii_cdf(&v, 0).is_empty());
    }
}
