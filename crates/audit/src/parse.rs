//! Item extraction over masked source: function items with owners,
//! `#[cfg(test)]` regions, and item-level `audit:allow` markers.
//!
//! [`analyze_file`] turns one source file into a [`FileAnalysis`]: every
//! `fn` item with its body span and owning `impl` type, and the lines inside
//! `#[cfg(test)]` regions. The call-graph pass ([`crate::callgraph`]) and the
//! lint passes ([`crate::lints`]) both consume this representation.
//!
//! # Suppression model
//!
//! An `audit:allow(FWxxx): reason` marker in the comment/attribute block
//! directly above a `fn` item, or on its signature line, exempts that item
//! from the named lints ([`FnInfo::allowed`]). Every FW lint judges whole
//! items, so there is no line-level scope.

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
    /// Lints suppressed at this item via `audit:allow(..)`.
    pub allowed: Vec<String>,
}

/// Per-file analysis: test regions plus extracted items.
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// True for lines inside a `#[cfg(test)]` region (1-based index).
    pub test_line: Vec<bool>,
    /// Every `fn` item in the file.
    pub fns: Vec<FnInfo>,
}

impl FileAnalysis {
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

/// Collects the `audit:allow` annotations on the signature line (1-based)
/// and in the comment/attribute block directly above it.
fn collect_allows(original_lines: &[String], line: usize) -> Vec<String> {
    let mut allowed = Vec::new();
    // The signature line itself may carry a trailing annotation.
    if line >= 1 && line <= original_lines.len() {
        parse_allows(&original_lines[line - 1], &mut allowed);
    }
    for text in original_lines[..line.saturating_sub(1)].iter().rev() {
        let text = text.trim();
        if !(text.starts_with("//") || text.starts_with("#[") || text.starts_with("#!")) {
            break;
        }
        parse_allows(text, &mut allowed);
    }
    allowed
}

/// Appends every `FWxxx` id named in `audit:allow(...)` markers on `line`.
fn parse_allows(line: &str, out: &mut Vec<String>) {
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

/// Parses one source file into test regions and `fn` items.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let masked = mask_source(src);
    let starts = line_starts(&masked);
    let original_lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let test_line = test_lines(&masked, &starts, original_lines.len());
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
        let allowed = collect_allows(&original_lines, line);
        fns.push(FnInfo {
            name,
            is_pub,
            line,
            body_line,
            body,
            owner,
            allowed,
        });
    }

    FileAnalysis {
        rel: rel.to_string(),
        test_line,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_above_item_covers_item_body() {
        let src = "\
// audit:allow(FW004): fixture-wide
/// Doc.
pub fn f(m: &Matrix) -> f32 {
    m.as_slice()[0]
}
pub fn g() {}
";
        let fa = analyze_file("crates/demo/src/lib.rs", src);
        assert_eq!(fa.fns[0].allowed, ["FW004"]);
        assert!(fa.fns[1].allowed.is_empty());
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
