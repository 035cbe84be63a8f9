//! Terminal table and CSV rendering for the figure regenerators.

/// Format a bandwidth in GB/s with two decimals.
pub fn fmt_gbps(v: f64) -> String {
    format!("{v:.2}")
}

/// Print an aligned table: `headers` then `rows`.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Print a CSV block (machine-readable twin of the table) between
/// `# begin csv <tag>` / `# end csv` markers.
pub fn print_csv(tag: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("# begin csv {tag}");
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
    println!("# end csv");
}

/// Render CDF points as rows `(value, percentile)`.
pub fn cdf_rows(points: &[(f64, f64)]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|&(v, p)| vec![format!("{v:.3}"), format!("{p:.4}")])
        .collect()
}

/// One table cell as a JSON value: a bare number when it parses as a
/// finite float, a quoted (escaped) string otherwise.
fn json_cell(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if v.is_finite() => cell.to_owned(),
        _ => format!("\"{}\"", cell.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

/// Serialize a CSV-shaped table as a JSON array of row objects keyed by
/// `headers` — the machine-readable twin every figure binary embeds in
/// its `results/BENCH_*.json` record.
pub fn json_rows(headers: &[&str], rows: &[Vec<String>]) -> String {
    let objs: Vec<String> = rows
        .iter()
        .map(|row| {
            assert_eq!(row.len(), headers.len(), "ragged json row");
            let fields: Vec<String> = headers
                .iter()
                .zip(row)
                .map(|(h, c)| format!("\"{h}\":{}", json_cell(c)))
                .collect();
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    format!("[{}]", objs.join(","))
}

/// Write the machine-readable record of a figure run to
/// `results/BENCH_<bench>.json`: `{"bench":"<bench>",<body>}`. Creates
/// `results/` if needed; failure to write is reported, not fatal (the
/// human-readable report already went to stdout).
pub fn write_bench_json(bench: &str, body: &str) {
    let json = format!("{{\"bench\":\"{bench}\",{body}}}\n");
    let out = format!("results/BENCH_{bench}.json");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        std::fs::write(&out, &json)
    };
    match write() {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["col", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
        print_csv("t", &["col", "value"], &[vec!["a".into(), "1".into()]]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        print_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn gbps_formatting() {
        assert_eq!(fmt_gbps(4.1666), "4.17");
    }

    #[test]
    fn cdf_rows_shape() {
        let rows = cdf_rows(&[(1.0, 0.5), (2.0, 1.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], "1.0000");
    }

    #[test]
    fn json_rows_types_cells() {
        let j = json_rows(
            &["name", "value"],
            &[
                vec!["alpha \"x\"".into(), "1.25".into()],
                vec!["beta".into(), "12.3%".into()],
            ],
        );
        assert_eq!(
            j,
            "[{\"name\":\"alpha \\\"x\\\"\",\"value\":1.25},\
             {\"name\":\"beta\",\"value\":\"12.3%\"}]"
        );
    }

    #[test]
    fn json_rows_rejects_non_finite_numbers() {
        let j = json_rows(&["v"], &[vec!["NaN".into()], vec!["inf".into()]]);
        // NaN/inf parse as floats but are not valid JSON numbers.
        assert_eq!(j, "[{\"v\":\"NaN\"},{\"v\":\"inf\"}]");
    }
}
