//! Bench-regression gate: compare freshly regenerated `BENCH_*.json`
//! records against the committed baselines and fail beyond tolerance.
//!
//! The figure regenerators are deterministic (pinned seeds, virtual
//! time), so every *simulated* metric must reproduce within a small
//! tolerance; only `wall_clock*` fields are machine-dependent and
//! skipped. The JSON is hand-rolled throughout the workspace (no serde),
//! so this reader is too: it flattens each record into
//! `dotted.path[i] -> leaf` pairs and diffs the two maps.
//!
//! Run: `bench_check <baseline_dir> <candidate_dir> [rel_tolerance]`
//! (default tolerance 0.05). Exits non-zero listing every violation.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// A JSON scalar at some path.
#[derive(Clone, Debug, PartialEq)]
enum Leaf {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leaf::Num(v) => write!(f, "{v}"),
            Leaf::Str(s) => write!(f, "{s:?}"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Null => write!(f, "null"),
        }
    }
}

/// Minimal recursive-descent JSON reader producing `(path, leaf)` pairs
/// in document order. Rejects malformed input with a positioned error.
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn flatten(text: &'a str) -> Result<Vec<(String, Leaf)>, String> {
        let mut r = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let mut out = Vec::new();
        r.value("", &mut out)?;
        r.ws();
        if r.i != r.s.len() {
            return Err(format!("trailing bytes at offset {}", r.i));
        }
        Ok(out)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char, self.i, self.s[self.i] as char
            ))
        }
    }

    fn value(&mut self, path: &str, out: &mut Vec<(String, Leaf)>) -> Result<(), String> {
        match self.peek()? {
            b'{' => self.object(path, out),
            b'[' => self.array(path, out),
            b'"' => {
                let s = self.string()?;
                out.push((path.to_owned(), Leaf::Str(s)));
                Ok(())
            }
            b't' | b'f' => {
                let v = self.keyword()?;
                out.push((path.to_owned(), Leaf::Bool(v == "true")));
                Ok(())
            }
            b'n' => {
                self.keyword()?;
                out.push((path.to_owned(), Leaf::Null));
                Ok(())
            }
            _ => {
                let v = self.number()?;
                out.push((path.to_owned(), Leaf::Num(v)));
                Ok(())
            }
        }
    }

    fn object(&mut self, path: &str, out: &mut Vec<(String, Leaf)>) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let sub = if path.is_empty() {
                key
            } else {
                format!("{path}.{key}")
            };
            self.value(&sub, out)?;
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(());
                }
                c => return Err(format!("expected ',' or '}}', found {:?}", c as char)),
            }
        }
    }

    fn array(&mut self, path: &str, out: &mut Vec<(String, Leaf)>) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(());
        }
        let mut idx = 0usize;
        loop {
            self.value(&format!("{path}[{idx}]"), out)?;
            idx += 1;
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(());
                }
                c => return Err(format!("expected ',' or ']', found {:?}", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err("unterminated string".to_owned());
            };
            self.i += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            // The records only emit ASCII; keep the raw
                            // escape rather than decoding surrogates.
                            s.push_str("\\u");
                        }
                        other => s.push(other as char),
                    }
                }
                other => s.push(other as char),
            }
        }
    }

    fn keyword(&mut self) -> Result<String, String> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_alphabetic() {
            self.i += 1;
        }
        let word = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
        match word {
            "true" | "false" | "null" => Ok(word.to_owned()),
            _ => Err(format!("unknown keyword {word:?} at offset {start}")),
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("malformed number at offset {start}"))
    }
}

/// Machine-dependent fields excluded from the diff.
fn skipped(path: &str) -> bool {
    path.contains("wall_clock")
}

/// Diff two flattened records; returns human-readable violations.
fn diff(base: &[(String, Leaf)], cand: &[(String, Leaf)], tol: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let lookup: std::collections::HashMap<&str, &Leaf> =
        cand.iter().map(|(p, l)| (p.as_str(), l)).collect();
    for (path, b) in base {
        if skipped(path) {
            continue;
        }
        let Some(c) = lookup.get(path.as_str()) else {
            violations.push(format!("{path}: present in baseline, missing in candidate"));
            continue;
        };
        match (b, c) {
            (Leaf::Num(bv), Leaf::Num(cv)) => {
                let denom = bv.abs().max(1e-12);
                let rel = (cv - bv).abs() / denom;
                if rel > tol {
                    violations.push(format!(
                        "{path}: {bv} -> {cv} ({:+.1}% > {:.1}% tolerance)",
                        (cv - bv) / denom * 100.0,
                        tol * 100.0
                    ));
                }
            }
            (b, c) if b != *c => {
                violations.push(format!("{path}: {b} -> {c}"));
            }
            _ => {}
        }
    }
    // New fields in the candidate are fine (benches grow); removed ones
    // are caught above.
    violations
}

fn check_file(base_path: &Path, cand_path: &Path, tol: f64) -> Result<Vec<String>, String> {
    let base = std::fs::read_to_string(base_path)
        .map_err(|e| format!("read {}: {e}", base_path.display()))?;
    let cand = std::fs::read_to_string(cand_path)
        .map_err(|e| format!("read {}: {e}", cand_path.display()))?;
    let base = Reader::flatten(&base).map_err(|e| format!("{}: {e}", base_path.display()))?;
    let cand = Reader::flatten(&cand).map_err(|e| format!("{}: {e}", cand_path.display()))?;
    Ok(diff(&base, &cand, tol))
}

/// Sorted `BENCH_*.json` file names in a directory.
fn bench_records(dir: &str) -> Result<Vec<String>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let mut names: Vec<String> = rd
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(base_dir), Some(cand_dir)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_check <baseline_dir> <candidate_dir> [rel_tolerance]");
        return ExitCode::from(2);
    };
    let tol: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.05);

    let (baselines, candidates) = match (bench_records(base_dir), bench_records(cand_dir)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if baselines.is_empty() {
        eprintln!("no BENCH_*.json baselines in {base_dir}");
        return ExitCode::from(2);
    }

    // The record *sets* must match exactly before any contents are
    // compared: a regenerator that stopped producing a record, or a new
    // bench without a committed baseline, is a failure in itself — and
    // one a per-file read error would report far less legibly.
    let mut failed = false;
    for name in baselines.iter().filter(|n| !candidates.contains(n)) {
        failed = true;
        println!("FAIL {name}: in baseline {base_dir} but not regenerated in {cand_dir}");
    }
    for name in candidates.iter().filter(|n| !baselines.contains(n)) {
        failed = true;
        println!(
            "FAIL {name}: regenerated in {cand_dir} but no baseline in {base_dir} (commit one)"
        );
    }

    for name in baselines.iter().filter(|n| candidates.contains(n)) {
        let base_path = Path::new(base_dir).join(name);
        let cand_path = Path::new(cand_dir).join(name);
        match check_file(&base_path, &cand_path, tol) {
            Ok(v) if v.is_empty() => {
                println!("OK   {name}");
            }
            Ok(v) => {
                failed = true;
                println!("FAIL {name}");
                for line in v {
                    println!("     {line}");
                }
            }
            Err(e) => {
                failed = true;
                println!("FAIL {name}: {e}");
            }
        }
    }
    if failed {
        eprintln!("\nbench regression check failed (tolerance {tol})");
        ExitCode::FAILURE
    } else {
        println!("\nall bench records within {tol} relative tolerance");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_walks_nested_records() {
        let leaves = Reader::flatten(
            r#"{"bench":"x","m":{"a":1.5,"b":"7%"},"rows":[{"v":1},{"v":2}],"ok":true,"none":null}"#,
        )
        .expect("valid");
        assert_eq!(
            leaves,
            vec![
                ("bench".into(), Leaf::Str("x".into())),
                ("m.a".into(), Leaf::Num(1.5)),
                ("m.b".into(), Leaf::Str("7%".into())),
                ("rows[0].v".into(), Leaf::Num(1.0)),
                ("rows[1].v".into(), Leaf::Num(2.0)),
                ("ok".into(), Leaf::Bool(true)),
                ("none".into(), Leaf::Null),
            ]
        );
    }

    #[test]
    fn flatten_rejects_garbage() {
        assert!(Reader::flatten("{\"a\":}").is_err());
        assert!(Reader::flatten("{\"a\":1}x").is_err());
        assert!(Reader::flatten("\"unterminated").is_err());
    }

    #[test]
    fn diff_tolerates_small_drift_and_flags_large() {
        let base = Reader::flatten(r#"{"m":10.0,"s":"x"}"#).expect("valid");
        let ok = Reader::flatten(r#"{"m":10.4,"s":"x"}"#).expect("valid");
        let bad = Reader::flatten(r#"{"m":11.0,"s":"x"}"#).expect("valid");
        assert!(diff(&base, &ok, 0.05).is_empty());
        let v = diff(&base, &bad, 0.05);
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("m:"), "{}", v[0]);
    }

    #[test]
    fn diff_flags_missing_and_changed_strings() {
        let base = Reader::flatten(r#"{"a":1,"s":"old"}"#).expect("valid");
        let cand = Reader::flatten(r#"{"s":"new","extra":5}"#).expect("valid");
        let v = diff(&base, &cand, 0.05);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("missing in candidate")));
        assert!(v.iter().any(|m| m.contains("\"old\" -> \"new\"")));
    }

    #[test]
    fn bench_records_filters_and_sorts() {
        let dir = std::env::temp_dir().join(format!("bench_check_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["BENCH_b.json", "BENCH_a.json", "fig1.txt", "BENCH_x.txt"] {
            std::fs::write(dir.join(name), "{}").expect("write");
        }
        let names = bench_records(dir.to_str().expect("utf8")).expect("list");
        assert_eq!(names, vec!["BENCH_a.json", "BENCH_b.json"]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn wall_clock_fields_are_skipped() {
        let base = Reader::flatten(r#"{"wall_clock_s":1.0,"jct":2.0}"#).expect("valid");
        let cand = Reader::flatten(r#"{"wall_clock_s":9.0,"jct":2.0}"#).expect("valid");
        assert!(diff(&base, &cand, 0.05).is_empty());
    }
}
