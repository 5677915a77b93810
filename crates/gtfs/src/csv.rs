//! Minimal RFC-4180 CSV reader/writer.
//!
//! GTFS files are plain comma-separated tables with an obligatory header
//! row, optional quoted fields (quotes doubled inside), and no embedded
//! newlines in practice — though quoted newlines are handled anyway. A
//! purpose-built ~100-line codec avoids pulling a full CSV dependency into
//! the workspace (see DESIGN.md).

/// A parsed CSV table: header plus records, all owned strings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Column names from the header row.
    pub header: Vec<String>,
    /// Data rows; every row has exactly `header.len()` fields.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Index of the column named `name`.
    pub fn col(&self, name: &str) -> Result<usize, String> {
        self.header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("missing column {name:?} (have {:?})", self.header))
    }
}

/// Parses CSV text into a [`Table`].
///
/// Errors on: empty input, unterminated quotes, or rows whose field count
/// differs from the header's. One leading UTF-8 byte-order mark, which the
/// GTFS reference permits, is skipped so it cannot become part of the first
/// column name.
pub fn parse(text: &str) -> Result<Table, String> {
    let mut records = parse_records(text.strip_prefix('\u{feff}').unwrap_or(text))?;
    if records.is_empty() {
        return Err("empty CSV: no header row".into());
    }
    let header = records.remove(0);
    let ncols = header.len();
    for (i, row) in records.iter().enumerate() {
        if row.len() != ncols {
            return Err(format!("row {} has {} fields, header has {ncols}", i + 2, row.len()));
        }
    }
    Ok(Table { header, rows: records })
}

fn parse_records(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut out: Vec<Vec<String>> = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Consumed as part of CRLF; a stray CR is treated as EOL too.
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    row.push(std::mem::take(&mut field));
                    out.push(std::mem::take(&mut row));
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    out.push(std::mem::take(&mut row));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".into());
    }
    // Final record without trailing newline.
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        out.push(row);
    }
    if !saw_any {
        return Err("empty CSV: no header row".into());
    }
    // Drop fully-blank trailing lines (a common artifact of editors).
    out.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    Ok(out)
}

/// Serializes a header and rows to CSV text with `\n` line endings, quoting
/// only when needed.
pub fn write(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    write_row_borrowed(&mut s, header);
    for row in rows {
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        write_row_borrowed(&mut s, &refs);
    }
    s
}

fn write_row_borrowed(out: &mut String, fields: &[&str]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains(',') || f.contains('"') || f.contains('\n') || f.contains('\r') {
            out.push('"');
            for c in f.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_table() {
        let t = parse("a,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(t.header, vec!["a", "b", "c"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1], vec!["4", "5", "6"]);
    }

    #[test]
    fn handles_crlf_and_missing_final_newline() {
        let t = parse("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(t.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let t = parse("name,desc\n\"Smith, John\",\"said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.rows[0][0], "Smith, John");
        assert_eq!(t.rows[0][1], "said \"hi\"");
    }

    #[test]
    fn quoted_newline_inside_field() {
        let t = parse("a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(t.rows[0][0], "line1\nline2");
    }

    #[test]
    fn empty_fields_preserved() {
        let t = parse("a,b,c\n,,\n").unwrap();
        assert_eq!(t.rows[0], vec!["", "", ""]);
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(parse("a,b\n1,2,3\n").is_err());
        assert!(parse("a,b\n1\n").is_err());
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse("a,b\n\"oops,2\n").is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
    }

    #[test]
    fn col_lookup() {
        let t = parse("x,y\n1,2\n").unwrap();
        assert_eq!(t.col("y").unwrap(), 1);
        assert!(t.col("z").is_err());
    }

    #[test]
    fn write_quotes_only_when_needed() {
        let text = write(
            &["a", "b"],
            &[
                vec!["plain".into(), "needs,quote".into()],
                vec!["has\"q".into(), "multi\nline".into()],
            ],
        );
        assert_eq!(text, "a,b\nplain,\"needs,quote\"\n\"has\"\"q\",\"multi\nline\"\n");
    }

    #[test]
    fn roundtrip_through_parse() {
        let rows = vec![
            vec!["1".to_string(), "He said \"no\", twice".to_string()],
            vec!["2".to_string(), "".to_string()],
        ];
        let text = write(&["id", "note"], &rows);
        for text in [text.clone(), format!("\u{feff}{text}")] {
            let t = parse(&text).unwrap();
            assert_eq!(t.header, vec!["id", "note"]);
            assert_eq!(t.rows, rows);
        }
    }

    #[test]
    fn trailing_blank_lines_ignored() {
        let t = parse("a,b\n1,2\n\n\n").unwrap();
        assert_eq!(t.rows.len(), 1);
    }
}
