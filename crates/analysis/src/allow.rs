//! The `analysis/allow.toml` waiver file: every lint exception is
//! committed, attributed, and reviewed.
//!
//! A hand-rolled parser for the TOML subset the file needs — `[[allow]]`
//! array-of-tables with string keys — so the linter stays dependency-free:
//!
//! ```toml
//! [[allow]]
//! code = "L3"                         # required: which lint
//! file = "crates/core/src/engine.rs"  # required: exact relative path
//! type = "RefCell"                    # optional: restrict to one ident
//! reason = "why this is sound"        # required, non-empty
//! ```
//!
//! Waivers that match nothing are themselves an error (`STALE`): a waiver
//! must die with the code it excused, or it silently re-opens the hole.

use crate::lints::Finding;

/// One parsed `[[allow]]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waiver {
    pub code: String,
    pub file: String,
    /// `None` waives every ident the lint flags in `file`.
    pub ident: Option<String>,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: u32,
}

impl Waiver {
    /// Whether this waiver excuses `f`.
    pub fn matches(&self, f: &Finding) -> bool {
        self.code == f.code
            && self.file == f.file
            && self.ident.as_ref().is_none_or(|t| *t == f.ident)
    }
}

fn unquote(raw: &str, line_no: u32) -> Result<String, String> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| {
            format!("allow.toml:{line_no}: expected a double-quoted string, got `{raw}`")
        })?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!(
            "allow.toml:{line_no}: escapes are not supported in waiver strings"
        ));
    }
    Ok(inner.to_string())
}

/// Parses the waiver file contents. Unknown keys, bare tables, and
/// malformed entries are hard errors — the allowlist is security-adjacent
/// configuration and must not fail open.
pub fn parse(src: &str) -> Result<Vec<Waiver>, String> {
    struct Partial {
        code: Option<String>,
        file: Option<String>,
        ident: Option<String>,
        reason: Option<String>,
        line: u32,
    }
    let mut out: Vec<Waiver> = Vec::new();
    let mut cur: Option<Partial> = None;

    let mut finish = |cur: &mut Option<Partial>| -> Result<(), String> {
        if let Some(p) = cur.take() {
            let missing =
                |k: &str| format!("allow.toml:{}: [[allow]] entry is missing `{k}`", p.line);
            let w = Waiver {
                code: p.code.ok_or_else(|| missing("code"))?,
                file: p.file.ok_or_else(|| missing("file"))?,
                ident: p.ident,
                reason: p.reason.ok_or_else(|| missing("reason"))?,
                line: p.line,
            };
            if w.reason.trim().is_empty() {
                return Err(format!("allow.toml:{}: `reason` must not be empty", w.line));
            }
            if !matches!(
                w.code.as_str(),
                "L1" | "L2" | "L3" | "L4" | "L5" | "L6" | "L7"
            ) {
                return Err(format!(
                    "allow.toml:{}: unknown lint code `{}`",
                    w.line, w.code
                ));
            }
            out.push(w);
        }
        Ok(())
    };

    for (i, raw_line) in src.lines().enumerate() {
        let line_no = (i + 1) as u32;
        let line = match raw_line.find('#') {
            // A `#` outside quotes starts a comment; inside quotes it is
            // content. Quotes in this file never contain `#` (checked in
            // unquote), so a simple scan suffices.
            Some(pos)
                if !raw_line[..pos].contains('"')
                    || raw_line[..pos].matches('"').count() % 2 == 0 =>
            {
                &raw_line[..pos]
            }
            _ => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut cur)?;
            cur = Some(Partial {
                code: None,
                file: None,
                ident: None,
                reason: None,
                line: line_no,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "allow.toml:{line_no}: only [[allow]] tables are supported, got `{line}`"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("allow.toml:{line_no}: expected `key = \"value\"`"));
        };
        let Some(p) = cur.as_mut() else {
            return Err(format!(
                "allow.toml:{line_no}: `{}` outside an [[allow]] entry",
                key.trim()
            ));
        };
        let value = unquote(value, line_no)?;
        match key.trim() {
            "code" => p.code = Some(value),
            "file" => p.file = Some(value),
            "type" => p.ident = Some(value),
            "reason" => p.reason = Some(value),
            other => {
                return Err(format!("allow.toml:{line_no}: unknown key `{other}`"));
            }
        }
    }
    finish(&mut cur)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_minimal_entries() {
        let src = r#"
# workspace waivers
[[allow]]
code = "L3"
file = "crates/core/src/engine.rs"
type = "RefCell"
reason = "EvalSession is a single-threaded build-phase object"

[[allow]]
code = "L4"
file = "crates/core/src/engine.rs"
reason = "build-phase session types are intentionally !Sync"
"#;
        let ws = parse(src).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].ident.as_deref(), Some("RefCell"));
        assert_eq!(ws[1].ident, None);
    }

    #[test]
    fn comment_only_file_has_no_waivers() {
        // What `analysis/allow.toml` is when nothing is waived.
        let src = "# Workspace lint waivers\n# (none)\n\n   # indented comment\n";
        assert_eq!(parse(src), Ok(Vec::new()));
        assert_eq!(parse(""), Ok(Vec::new()));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let src = "[[allow]]\ncode = \"L3\"\nfile = \"x.rs\"\n";
        assert!(parse(src).unwrap_err().contains("missing `reason`"));
    }

    #[test]
    fn unknown_keys_and_codes_are_errors() {
        let bad_key = "[[allow]]\ncode = \"L3\"\nfile = \"x\"\nreason = \"r\"\nwho = \"me\"\n";
        assert!(parse(bad_key).unwrap_err().contains("unknown key"));
        let bad_code = "[[allow]]\ncode = \"L9\"\nfile = \"x\"\nreason = \"r\"\n";
        assert!(parse(bad_code).unwrap_err().contains("unknown lint code"));
    }

    #[test]
    fn waiver_matching_respects_type_restriction() {
        use crate::lints::Finding;
        let w = parse("[[allow]]\ncode = \"L3\"\nfile = \"a.rs\"\ntype = \"Rc\"\nreason = \"r\"\n")
            .unwrap();
        let f = |ident: &str| Finding {
            code: "L3",
            file: "a.rs".to_string(),
            line: 1,
            ident: ident.to_string(),
            message: String::new(),
        };
        assert!(w[0].matches(&f("Rc")));
        assert!(!w[0].matches(&f("RefCell")));
    }
}
