//! The one table of the bench binaries: rows declared once that render as
//! aligned text and, for the `BENCH_*.json` every binary writes, as JSON
//! ([`Table`]).

/// One value of a [`Table`]. Text and JSON spell it the same way, so a
/// figure's stdout shows exactly what its `BENCH_*.json` holds.
pub enum Cell {
    /// A count.
    U(u64),
    /// A float at a fixed number of decimals (must be finite: JSON has no
    /// `inf` or `NaN`).
    F(f64, usize),
    /// A flag.
    B(bool),
    /// A label (quoted in JSON; must need no escaping).
    S(&'static str),
    /// No value: `-` in text, `null` in JSON.
    Null,
}

impl Cell {
    /// A float at `prec` decimals, or [`Cell::Null`] when there is none.
    pub fn opt(v: Option<f64>, prec: usize) -> Cell {
        v.map_or(Cell::Null, |v| Cell::F(v, prec))
    }

    fn render(&self, json: bool) -> String {
        match self {
            Cell::U(v) => v.to_string(),
            Cell::F(v, prec) => {
                assert!(v.is_finite(), "float cell is not finite: {v}");
                format!("{v:.prec$}")
            }
            Cell::B(v) => v.to_string(),
            Cell::S(s) => {
                assert!(!s.contains(['"', '\\']), "label needs escaping: {s}");
                if json {
                    format!("\"{s}\"")
                } else {
                    s.to_string()
                }
            }
            Cell::Null => if json { "null" } else { "-" }.into(),
        }
    }
}

/// Rows under named columns, declared once and rendered twice: as aligned
/// text, and as the JSON of a `BENCH_*.json` — an array of one object per
/// row ([`Table::json_rows`]) or one keyed object per row
/// ([`Table::json_keyed`]). Column names are the JSON keys.
pub struct Table {
    columns: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Start a table with the given columns.
    pub fn new(columns: &[&'static str]) -> Self {
        Table {
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Add a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// The aligned text: the header, a rule, then one line per row, every
    /// column right-aligned to its widest cell, two spaces apart.
    fn render(&self) -> String {
        let n = self.columns.len();
        let header = self.columns.iter().map(|c| c.to_string());
        let cells: Vec<String> = header
            .chain(self.rows.iter().flatten().map(|c| c.render(false)))
            .collect();
        let width = |i: usize| cells.iter().skip(i).step_by(n).map(String::len).max();
        let widths: Vec<usize> = (0..n).map(|i| width(i).unwrap_or(0)).collect();
        let mut out = String::new();
        for (i, line) in cells.chunks(n).enumerate() {
            let fields: Vec<String> = (line.iter().zip(&widths))
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&fields.join("  "));
            out.push('\n');
            if i == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n - 1)));
                out.push('\n');
            }
        }
        out
    }

    /// Print the aligned text to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// `{ "column": value, .. }` of one row, from column `from` on.
    fn object(&self, row: &[Cell], from: usize) -> String {
        let fields: Vec<String> = self.columns[from..]
            .iter()
            .zip(&row[from..])
            .map(|(k, c)| format!("\"{k}\": {}", c.render(true)))
            .collect();
        format!("{{ {} }}", fields.join(", "))
    }

    /// The rows as a JSON array of objects, laid out as the value of a
    /// top-level key of the file.
    pub fn json_rows(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", self.object(r, 0)))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }

    /// The rows as `"<first cell>": { <the other columns> }` members, one a
    /// line at `indent` spaces, for the enclosing object the caller writes.
    pub fn json_keyed(&self, indent: usize) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{:indent$}{}: {}", "", r[0].render(true), self.object(r, 1)))
            .collect();
        rows.join(",\n")
    }
}

/// How far a simulated cell is from the paper's value, `sim / paper - 1`;
/// [`Cell::Null`] where the paper quotes none.
pub fn paper_err(sim: f64, paper: impl Into<Option<f64>>) -> Cell {
    Cell::opt(paper.into().map(|paper| sim / paper - 1.0), 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec![Cell::U(1), Cell::Null]);
        t.row(vec![Cell::U(100), Cell::U(2_000_000)]);
        assert_eq!(
            t.render(),
            "  a     bbbb\n------------\n  1        -\n100  2000000\n"
        );
    }

    #[test]
    #[should_panic]
    fn wrong_arity_rejected() {
        let mut t = Table::new(&["a"]);
        t.row(vec![Cell::U(1), Cell::U(2)]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn a_non_finite_float_never_reaches_json() {
        let mut t = Table::new(&["ratio"]);
        t.row(vec![Cell::F(f64::INFINITY, 2)]);
        t.json_rows();
    }

    #[test]
    fn one_declaration_renders_as_text_and_as_both_json_shapes() {
        let mut t = Table::new(&["mode", "n", "mibps", "ok", "parent"]);
        t.row(vec![
            Cell::S("a"),
            Cell::U(7),
            Cell::F(1.256, 2),
            Cell::B(true),
            Cell::Null,
        ]);
        t.row(vec![
            Cell::S("b"),
            Cell::U(8),
            Cell::F(2.0, 0),
            Cell::B(false),
            Cell::F(0.5, 1),
        ]);
        assert_eq!(
            t.json_rows(),
            "[\n    { \"mode\": \"a\", \"n\": 7, \"mibps\": 1.26, \"ok\": true, \"parent\": null },\n    \
             { \"mode\": \"b\", \"n\": 8, \"mibps\": 2, \"ok\": false, \"parent\": 0.5 }\n  ]"
        );
        assert_eq!(
            t.json_keyed(2),
            "  \"a\": { \"n\": 7, \"mibps\": 1.26, \"ok\": true, \"parent\": null },\n  \
             \"b\": { \"n\": 8, \"mibps\": 2, \"ok\": false, \"parent\": 0.5 }"
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(Cell::F(1.23456, 2).render(false), "1.23");
        assert_eq!(Cell::opt(None, 2).render(false), "-");
        assert_eq!(Cell::opt(Some(2.0), 1).render(true), "2.0");
        assert_eq!(paper_err(3.0, 2.0).render(true), "0.5000");
        assert_eq!(paper_err(3.0, None).render(true), "null");
    }
}
