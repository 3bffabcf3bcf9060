//! Table rendering for the bench binaries: aligned text ([`TablePrinter`])
//! and, for the figures that write a `BENCH_*.json`, rows declared once
//! that render as both ([`Table`]).

/// A simple aligned-column table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TablePrinter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a row (cells will be right-aligned).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// One value of a [`Table`]. Text and JSON spell it the same way, so a
/// figure's stdout shows exactly what its `BENCH_*.json` holds.
pub enum Cell {
    /// A count.
    U(u64),
    /// A float at a fixed number of decimals.
    F(f64, usize),
    /// A flag.
    B(bool),
    /// A label (quoted in JSON; must need no escaping).
    S(&'static str),
    /// No value: `-` in text, `null` in JSON.
    Null,
}

impl Cell {
    fn render(&self, json: bool) -> String {
        match self {
            Cell::U(v) => v.to_string(),
            Cell::F(v, prec) => f(*v, *prec),
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

    /// Print the aligned text to stdout.
    pub fn print(&self) {
        let mut t = TablePrinter::new(&self.columns);
        for row in &self.rows {
            t.row(row.iter().map(|c| c.render(false)).collect());
        }
        t.print();
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

/// Format a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// A size as the paper's axes label it: `2TB`, and `0.5TB` below one.
pub fn tb(bytes: u64) -> String {
    use debar_simio::models::TIB;
    if bytes >= TIB {
        format!("{}TB", bytes / TIB)
    } else {
        format!("{:.1}TB", bytes as f64 / TIB as f64)
    }
}

/// Format an optional float, "-" when absent.
pub fn opt_f(v: Option<f64>, prec: usize) -> String {
    v.map(|x| f(x, prec)).unwrap_or_else(|| "-".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TablePrinter::new(&["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "2000000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a'));
        assert!(lines[3].ends_with("2000000"));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_rejected() {
        let mut t = TablePrinter::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
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
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(opt_f(None, 2), "-");
        assert_eq!(opt_f(Some(2.0), 1), "2.0");
        assert_eq!((tb(1 << 39), tb(8 << 40)), ("0.5TB".into(), "8TB".into()));
    }
}
