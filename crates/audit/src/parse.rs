//! Item extraction over masked source: function items with owners, doc
//! comments, `#[cfg(test)]` regions, and the `audit:allow` suppression map.
//!
//! [`analyze_file`] turns one source file into a [`FileAnalysis`]: the
//! masked text (comments/literals blanked, line structure intact), every
//! `fn` item with its body span and owning `impl` type, and a per-line map
//! of suppressed lints. The call-graph pass ([`crate::callgraph`]) and the
//! lint passes ([`crate::lints`]) both consume this representation.
//!
//! # Suppression model
//!
//! `audit:allow(FWxxx): reason` markers are honored at three scopes:
//!
//! * **Line** — a marker on a line suppresses that line.
//! * **Statement** — a marker on (or directly above) the first line of a
//!   statement suppresses *every* line of the statement, tracked by
//!   delimiter depth so rustfmt-wrapped chains, multi-line argument lists
//!   and inline closures are all covered (the PR-4 gap where only the
//!   first line of a split chain was honored is fixed here).
//! * **Item** — a marker in the comment/attribute block above an item
//!   suppresses item-level lints (and, because the item body is one
//!   brace-delimited extent, line lints inside it).

use crate::lexer::{line_of, line_starts, mask_source, match_brace};

/// A function item extracted from one source file.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// `pub` visibility (any flavor).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's opening `{` (equal to `line` for
    /// single-line signatures; meaningless when `body` is empty).
    pub body_line: usize,
    /// Masked body text including braces (empty for bodyless trait-method
    /// declarations).
    pub body: String,
    /// Innermost `impl` type owning this fn, if any.
    pub owner: Option<String>,
    /// Doc-comment text collected from the lines directly above.
    pub doc: String,
    /// Lints suppressed at this item via `audit:allow(..)`.
    pub allowed: Vec<String>,
}

/// Per-file analysis: masked source plus extracted items.
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Original source lines.
    pub original_lines: Vec<String>,
    /// Masked source lines (same count as `original_lines`).
    pub masked_lines: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` region (1-based index).
    pub test_line: Vec<bool>,
    /// Lints suppressed per line (1-based index) via `audit:allow`.
    pub allow_lines: Vec<Vec<String>>,
    /// Every `fn` item in the file.
    pub fns: Vec<FnInfo>,
}

impl FileAnalysis {
    /// True when `line` (1-based) carries or inherits an
    /// `audit:allow(lint)` marker (line, statement, or item scope).
    pub fn line_allows(&self, line: usize, lint: &str) -> bool {
        self.allow_lines
            .get(line)
            .map(|ids| ids.iter().any(|a| a == lint))
            .unwrap_or(false)
    }

    /// True when `line` (1-based) is inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        *self.test_line.get(line).unwrap_or(&false)
    }
}

/// Marks lines covered by `#[cfg(test)] { .. }` regions.
fn test_lines(masked: &str, starts: &[usize], num_lines: usize) -> Vec<bool> {
    let bytes = masked.as_bytes();
    let mut flags = vec![false; num_lines + 2];
    let needle = "#[cfg(test)]";
    let mut from = 0usize;
    while let Some(found) = masked[from..].find(needle) {
        let at = from + found;
        from = at + needle.len();
        // The region is the next `{ .. }` block unless a `;` ends the item
        // first (e.g. a cfg'd `use`).
        let mut i = from;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => {}
            }
            i += 1;
        }
        if let Some(open) = open {
            if let Some(close) = match_brace(bytes, open) {
                let first = line_of(starts, at);
                let last = line_of(starts, close);
                for line in first..=last {
                    if line < flags.len() {
                        flags[line] = true;
                    }
                }
            }
        }
    }
    flags
}

/// `impl` blocks with their owning type name and body byte range.
fn impl_blocks(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut blocks = Vec::new();
    let mut from = 0usize;
    while let Some(found) = masked[from..].find("impl") {
        let at = from + found;
        from = at + 4;
        // Token boundary on both sides.
        let before_ok = at == 0
            || !crate::lexer::is_ident_char(masked[..at].chars().next_back().unwrap_or(' '));
        let after = masked[at + 4..].chars().next().unwrap_or(' ');
        if !before_ok || crate::lexer::is_ident_char(after) {
            continue;
        }
        // Collect header text up to the opening brace (or `;`).
        let mut i = at + 4;
        let mut header = String::new();
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => header.push(bytes[i] as char),
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let Some(close) = match_brace(bytes, open) else {
            continue;
        };
        if let Some(name) = impl_type_name(&header) {
            blocks.push((open, close, name));
        }
    }
    blocks
}

/// Extracts the implemented type's final identifier from an `impl` header,
/// e.g. `<T: Rng> Display for graph::Graph<T>` → `Graph`.
fn impl_type_name(header: &str) -> Option<String> {
    let mut rest = header.trim();
    // Skip leading generic parameter list.
    if rest.starts_with('<') {
        let mut depth = 0i64;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim();
    }
    // `impl Trait for Type` → the part after `for`.
    if let Some(pos) = find_token(rest, "for") {
        rest = rest[pos + 3..].trim();
    }
    // Drop generic arguments and `where` clauses, take the last path segment.
    let end = rest.find(['<', ' ', '\n']).unwrap_or(rest.len());
    let path = &rest[..end];
    let seg = path.rsplit("::").next().unwrap_or(path);
    let name: String = seg
        .chars()
        .filter(|c| crate::lexer::is_ident_char(*c))
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Position of `word` as a standalone token in `s`.
pub fn find_token(s: &str, word: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(found) = s[from..].find(word) {
        let at = from + found;
        from = at + word.len();
        let before_ok =
            at == 0 || !crate::lexer::is_ident_char(s[..at].chars().next_back().unwrap_or(' '));
        let after_ok = !s[at + word.len()..]
            .chars()
            .next()
            .map(crate::lexer::is_ident_char)
            .unwrap_or(false);
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

/// Collects doc comments and `audit:allow` annotations from the comment /
/// attribute block directly above `line` (1-based).
fn collect_doc_and_allows(original_lines: &[String], line: usize) -> (String, Vec<String>) {
    let mut doc = String::new();
    let mut allowed = Vec::new();
    // The signature line itself may carry a trailing annotation.
    if line >= 1 && line <= original_lines.len() {
        parse_allows(&original_lines[line - 1], &mut allowed);
    }
    let mut i = line.saturating_sub(1); // index of the line above, 1-based - 1
    while i >= 1 {
        let text = original_lines[i - 1].trim();
        if text.starts_with("///")
            || text.starts_with("//")
            || text.starts_with("#[")
            || text.starts_with("#!")
        {
            if let Some(stripped) = text.strip_prefix("///") {
                doc.insert_str(0, stripped);
                doc.insert(0, '\n');
            }
            parse_allows(text, &mut allowed);
            i -= 1;
        } else {
            break;
        }
    }
    (doc, allowed)
}

/// Appends every `FWxxx` id named in `audit:allow(...)` markers on `line`.
pub fn parse_allows(line: &str, out: &mut Vec<String>) {
    let mut from = 0usize;
    while let Some(found) = line[from..].find("audit:allow(") {
        let at = from + found + "audit:allow(".len();
        from = at;
        if let Some(close) = line[at..].find(')') {
            for id in line[at..at + close].split(',') {
                let id = id.trim().to_string();
                if !id.is_empty() {
                    out.push(id);
                }
            }
        }
    }
}

/// Longest extent (in lines) an `audit:allow` marker may cover; a backstop
/// against unbalanced delimiters in pathological files.
const ALLOW_EXTENT_CAP: usize = 400;

/// Builds the per-line suppression map: each `audit:allow` marker covers
/// its own line plus the full extent of the statement (or brace-delimited
/// item body) that starts at or directly below it. Extent is tracked by
/// delimiter depth over the masked text, so a marker above a
/// rustfmt-wrapped chain covers every line of the statement — including
/// lines past inline closures and multi-line argument lists.
fn allow_map(original_lines: &[String], masked_lines: &[String]) -> Vec<Vec<String>> {
    let num_lines = original_lines.len();
    let mut map: Vec<Vec<String>> = vec![Vec::new(); num_lines + 2];
    for (idx, original) in original_lines.iter().enumerate() {
        let marker_line = idx + 1;
        let mut ids = Vec::new();
        parse_allows(original, &mut ids);
        if ids.is_empty() {
            continue;
        }
        // The marker always covers its own line.
        for id in &ids {
            if !map[marker_line].contains(id) {
                map[marker_line].push(id.clone());
            }
        }
        // Statement extent: start at the first line at-or-below the marker
        // with any code on it, then walk delimiter depth forward until the
        // statement (or the brace-delimited body it opens) closes.
        let mut start = marker_line;
        while start <= num_lines
            && masked_lines
                .get(start - 1)
                .map(|l| l.trim().is_empty())
                .unwrap_or(true)
        {
            start += 1;
        }
        if start > num_lines {
            continue;
        }
        let mut depth = 0i64;
        let mut end = start;
        'extent: for line in start..=num_lines.min(start + ALLOW_EXTENT_CAP) {
            end = line;
            for c in masked_lines[line - 1].chars() {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '}' => {
                        depth -= 1;
                        if depth <= 0 {
                            // Closed the statement's own block (an item
                            // body, a trailing match/closure) — or stepped
                            // out of the enclosing block entirely.
                            break 'extent;
                        }
                    }
                    ';' if depth <= 0 => break 'extent,
                    _ => {}
                }
            }
        }
        for line in start..=end {
            for id in &ids {
                if !map[line].contains(id) {
                    map[line].push(id.clone());
                }
            }
        }
    }
    map
}

/// Parses one source file into masked lines, test regions, the suppression
/// map, and `fn` items.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let masked = mask_source(src);
    let starts = line_starts(&masked);
    let original_lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let masked_lines: Vec<String> = masked.lines().map(|l| l.to_string()).collect();
    let test_line = test_lines(&masked, &starts, original_lines.len());
    let allow_lines = allow_map(&original_lines, &masked_lines);
    let impls = impl_blocks(&masked);
    let bytes = masked.as_bytes();

    let mut fns = Vec::new();
    let mut from = 0usize;
    while let Some(found) = masked[from..].find("fn ") {
        let at = from + found;
        from = at + 3;
        let before_ok = at == 0
            || !crate::lexer::is_ident_char(masked[..at].chars().next_back().unwrap_or(' '));
        if !before_ok {
            continue;
        }
        // Function name.
        let mut i = at + 3;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && crate::lexer::is_ident_char(bytes[i] as char) {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name = masked[name_start..i].to_string();
        // Find the body: first `{` at paren depth 0, unless `;` ends the
        // declaration first.
        let mut paren = 0i64;
        let mut body = String::new();
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'{' if paren == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let line = line_of(&starts, at);
        let mut body_line = line;
        if let Some(open) = open {
            if let Some(close) = match_brace(bytes, open) {
                body = masked[open..=close].to_string();
                body_line = line_of(&starts, open);
                from = close + 1;
            }
        }
        // Visibility: the tokens on the line before the `fn` keyword.
        let line_start = starts[line - 1];
        let prefix = &masked[line_start..at];
        let is_pub = prefix.split_whitespace().any(|t| t == "pub");
        let owner = impls
            .iter()
            .filter(|(o, c, _)| *o < at && at < *c)
            .max_by_key(|(o, _, _)| *o)
            .map(|(_, _, n)| n.clone());
        let (doc, allowed) = collect_doc_and_allows(&original_lines, line);
        fns.push(FnInfo {
            name,
            is_pub,
            line,
            body_line,
            body,
            owner,
            doc,
            allowed,
        });
    }

    FileAnalysis {
        rel: rel.to_string(),
        original_lines,
        masked_lines,
        test_line,
        allow_lines,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_covers_wrapped_statement_with_closure() {
        let src = "\
/// Doc.
pub fn f() {
    // audit:allow(FW005): fixture
    let t = helper(|| {
        inner_call()
    });
    other();
}
";
        let fa = analyze_file("crates/demo/src/lib.rs", src);
        // Lines 3..=6 (marker through the closing `});`) are covered.
        for line in 3..=6 {
            assert!(
                fa.line_allows(line, "FW005"),
                "line {line} should inherit the allow"
            );
        }
        assert!(
            !fa.line_allows(7, "FW005"),
            "allow must not leak past the statement"
        );
    }

    #[test]
    fn allow_above_item_covers_item_body() {
        let src = "\
// audit:allow(FW006): fixture-wide
pub fn f() {
    let v = HashMap::new();
    v
}
pub fn g() {}
";
        let fa = analyze_file("crates/demo/src/lib.rs", src);
        assert!(fa.line_allows(3, "FW006"));
        assert!(!fa.line_allows(6, "FW006"));
    }

    #[test]
    fn fn_items_record_owner_and_body_line() {
        let src = "\
struct S;
impl S {
    pub fn long_sig(
        &self,
        x: u32,
    ) -> u32 {
        x
    }
}
";
        let fa = analyze_file("crates/demo/src/lib.rs", src);
        let f = &fa.fns[0];
        assert_eq!(f.name, "long_sig");
        assert_eq!(f.owner.as_deref(), Some("S"));
        assert_eq!(f.line, 3);
        assert_eq!(f.body_line, 6);
    }
}
