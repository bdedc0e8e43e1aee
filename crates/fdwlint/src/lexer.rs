//! A small Rust lexer for lint purposes: it does **not** build a syntax
//! tree, it separates a source file into the four channels the rules
//! care about —
//!
//! 1. *masked code*: the source with every comment and string/char
//!    literal replaced by spaces (newlines preserved), so pattern
//!    matching never fires on rule text quoted inside a literal or a
//!    comment;
//! 2. *comment text per line*: where `fdwlint::allow(...)` directives
//!    live;
//! 3. *string-literal contents per line*: what the literal-aware rules
//!    (`ulog-code-registry`, `dead-config-knob`) match against — each
//!    completed `"..."`/`r#"..."#` literal is attributed to the line it
//!    opened on;
//! 4. *test-region marks per line*: lines inside `#[cfg(test)]` items or
//!    `mod tests { ... }` blocks, which every rule skips (test code may
//!    unwrap, spawn threads, and iterate hash maps freely).
//!
//! Handled literal forms: line comments (`//`, `///`, `//!`), nested
//! block comments, `"..."` with escapes **including the `\`-newline line
//! continuation** (the escaped newline still flushes a line, so the
//! line numbers every rule reports never drift), raw
//! strings `r"..."` / `r#"..."#` (any hash depth), byte variants
//! `b"..."` / `br#"..."#`, char and byte-char literals including escapes
//! and the `'"'` / `'/'` forms that would otherwise derail string or
//! comment detection, and lifetimes (`'a` is code, not an unterminated
//! char).

/// The four channels of one lexed source file. All vectors have one
/// entry per source line.
#[derive(Debug)]
pub struct Masked {
    /// Source lines with comments and literal contents blanked to spaces.
    pub code: Vec<String>,
    /// Comment text found on each line (line + block, concatenated).
    pub comments: Vec<String>,
    /// Completed string-literal contents per line (the line the literal
    /// *opened* on; multi-line literals are attributed whole to that
    /// line). Char literals are not collected.
    pub strings: Vec<Vec<String>>,
    /// True for lines inside `#[cfg(test)]` items or `mod tests` blocks.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    /// Inside a `"` string, the char after a `\` (escape payload).
    StrEsc,
    RawStr(u32),
    Char,
    /// Inside a char literal, the char after a `\`.
    CharEsc,
}

/// Lex `source` into its masked channels.
pub fn mask(source: &str) -> Masked {
    let b: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(64);
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    // Completed literals as (0-based start line, content).
    let mut literals: Vec<(usize, String)> = Vec::new();
    let mut lit = String::new();
    let mut lit_start = 0usize;
    let mut st = State::Code;
    let mut i = 0usize;

    macro_rules! newline {
        () => {{
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
        }};
    }

    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            match st {
                // A line comment ends at the newline.
                State::LineComment => st = State::Code,
                // `\` + newline is the string line continuation: the
                // escape consumed the newline itself, the string goes on.
                State::StrEsc => st = State::Str,
                // Strings continue across lines; the content keeps the
                // newline so registry-style exact matches stay honest.
                State::Str | State::RawStr(_) => lit.push('\n'),
                _ => {}
            }
            newline!();
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    st = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = State::Str;
                    lit_start = code_lines.len();
                    code.push(' ');
                    i += 1;
                } else if is_raw_str_start(&b, i) {
                    // r / b / br prefix chars were already emitted as
                    // code; we stand on the `r`. Count hashes.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    // is_raw_str_start guarantees a quote at j.
                    st = State::RawStr(hashes);
                    lit_start = code_lines.len();
                    for _ in i..=j {
                        code.push(' ');
                    }
                    i = j + 1;
                } else if c == '\'' {
                    if is_char_literal(&b, i) {
                        st = State::Char;
                        code.push(' ');
                        i += 1;
                    } else {
                        // Lifetime: keep as code.
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(depth + 1);
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    lit.push(c);
                    code.push(' ');
                    st = State::StrEsc;
                } else if c == '"' {
                    literals.push((lit_start, std::mem::take(&mut lit)));
                    st = State::Code;
                    code.push(' ');
                } else {
                    lit.push(c);
                    code.push(' ');
                }
                i += 1;
            }
            State::StrEsc => {
                // The escape payload never opens or closes anything.
                lit.push(c);
                code.push(' ');
                st = State::Str;
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_str_closes(&b, i, hashes) {
                    literals.push((lit_start, std::mem::take(&mut lit)));
                    for _ in 0..=hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    st = State::Code;
                } else {
                    lit.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    code.push(' ');
                    st = State::CharEsc;
                } else {
                    if c == '\'' {
                        st = State::Code;
                    }
                    code.push(' ');
                }
                i += 1;
            }
            State::CharEsc => {
                code.push(' ');
                st = State::Char;
                i += 1;
            }
        }
    }
    // A trailing newline already flushed the last line; only flush the
    // buffer when the file ends mid-line (or is empty).
    if !source.ends_with('\n') || code_lines.is_empty() {
        newline!();
    }
    // An unterminated literal at EOF still surfaces (best effort).
    if !lit.is_empty() {
        literals.push((lit_start, lit));
    }

    let mut strings: Vec<Vec<String>> = vec![Vec::new(); code_lines.len()];
    for (line, text) in literals {
        strings[line.min(code_lines.len() - 1)].push(text);
    }

    let in_test = mark_test_regions(&code_lines);
    Masked {
        code: code_lines,
        comments: comment_lines,
        strings,
        in_test,
    }
}

/// Is `b[i]` the `r` of a raw-string opener (`r"`, `r#"`, with optional
/// preceding handled elsewhere)? Also accepts the `r` of `br"`.
fn is_raw_str_start(b: &[char], i: usize) -> bool {
    if b[i] != 'r' {
        return false;
    }
    // Don't fire inside identifiers like `for` or `var`: previous char
    // must not be ident-continue, except `b` (byte raw string) when the
    // char before *that* is not ident-continue.
    if i > 0 {
        let p = b[i - 1];
        let ident = p.is_alphanumeric() || p == '_';
        let byte_prefix = p == 'b' && (i < 2 || !(b[i - 2].is_alphanumeric() || b[i - 2] == '_'));
        if ident && !byte_prefix {
            return false;
        }
    }
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

/// Does the `"` at `b[i]` close a raw string opened with `hashes` hashes?
fn raw_str_closes(b: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| b.get(i + k) == Some(&'#'))
}

/// Distinguish a char literal from a lifetime at the `'` in `b[i]`:
/// `'x'` and `'\n'` are literals; `'a` followed by anything but `'` is a
/// lifetime (as in `&'a str` or `'static`).
fn is_char_literal(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => true,
        Some(c) if (c.is_alphanumeric() || *c == '_') => b.get(i + 2) == Some(&'\''),
        Some('\'') => false, // `''` is not valid; treat as code
        Some(_) => b.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Mark lines covered by `#[cfg(test)]` items and `mod tests { ... }`
/// blocks. Operates on masked code, so braces inside strings/comments
/// never unbalance the match.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    // Flatten with line indices for brace matching across lines.
    let joined: Vec<(usize, char)> = code
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.chars().map(move |c| (ln, c)).chain([(ln, '\n')]))
        .collect();
    let text: String = joined.iter().map(|(_, c)| *c).collect();

    let mut starts: Vec<usize> = Vec::new();
    for pat in ["#[cfg(test)]", "# [cfg (test)]"] {
        let mut from = 0;
        while let Some(p) = text[from..].find(pat) {
            starts.push(from + p);
            from += p + pat.len();
        }
    }
    // `mod tests` as a whole word (covers `pub mod tests`, `mod tests;`).
    let mut from = 0;
    while let Some(p) = text[from..].find("mod tests") {
        let abs = from + p;
        let before_ok = abs == 0
            || !text[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = text[abs + "mod tests".len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            starts.push(abs);
        }
        from = abs + "mod tests".len();
    }

    let chars: Vec<char> = text.chars().collect();
    for s in starts {
        let start_line = joined[s].0;
        // Find the item's opening `{`; a `;` first means a brace-less
        // item (`#[cfg(test)] use foo;`, `mod tests;`) — mark through it.
        let mut j = s;
        let mut open = None;
        while j < chars.len() {
            match chars[j] {
                '{' => {
                    open = Some(j);
                    break;
                }
                ';' => break,
                _ => j += 1,
            }
        }
        let end_line = match open {
            Some(o) => {
                let mut depth = 0i64;
                let mut k = o;
                loop {
                    match chars.get(k) {
                        Some('{') => depth += 1,
                        Some('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    k += 1;
                }
                joined.get(k).map_or(code.len() - 1, |(ln, _)| *ln)
            }
            None => joined.get(j).map_or(code.len() - 1, |(ln, _)| *ln),
        };
        for flag in in_test
            .iter_mut()
            .take(end_line.min(code.len() - 1) + 1)
            .skip(start_line)
        {
            *flag = true;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let m = mask("let x = 1; // Instant::now()\nlet s = \"SystemTime::now\";\n");
        assert!(!m.code[0].contains("Instant"));
        assert!(m.comments[0].contains("Instant::now()"));
        assert!(!m.code[1].contains("SystemTime"));
        assert!(m.code[1].contains("let s ="));
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let m = mask("let a = r#\"thread_rng\"#;\nlet b = br\"par_iter\";\nlet c = b\"x\";\n");
        assert!(!m.code.join("\n").contains("thread_rng"));
        assert!(!m.code.join("\n").contains("par_iter"));
    }

    #[test]
    fn raw_string_with_hash_quote_inside() {
        let m = mask("let a = r##\"quote \"# inside\"##; let after = unwrap_here();\n");
        assert!(m.code[0].contains("after"));
        assert!(!m.code[0].contains("inside"));
    }

    #[test]
    fn raw_string_containing_line_comment_and_quote_stays_masked() {
        // Regression (parser prerequisite): `//` and `"` inside a raw
        // string must neither start a comment nor end the literal, and
        // code after the literal must survive as code.
        let m = mask("let a = r#\"x // not a comment \" still\"#; call_site();\n");
        assert!(m.code[0].contains("call_site()"), "{:?}", m.code);
        assert!(!m.code[0].contains("not a comment"));
        assert!(m.comments[0].is_empty(), "{:?}", m.comments);
        assert_eq!(m.strings[0], vec!["x // not a comment \" still"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = mask("fn f<'a>(x: &'a str) -> &'static str { x }\nlet c = 'x'; let n = '\\n';\n");
        assert!(m.code[0].contains("'a"));
        assert!(m.code[0].contains("'static"));
        assert!(!m.code[1].contains('x'));
    }

    #[test]
    fn nested_block_comments() {
        let m = mask("/* outer /* inner */ still comment */ code()\n");
        assert!(m.code[0].contains("code()"));
        assert!(!m.code[0].contains("outer"));
        assert!(m.comments[0].contains("inner"));
    }

    #[test]
    fn deeply_nested_block_comments_terminate_exactly() {
        // Regression: three levels of nesting, with `*/` pairs inside —
        // code resumes only after the balanced close.
        let m = mask("/* 1 /* 2 /* 3 */ 2 */ 1 */ live(); /* x */ more();\n");
        assert!(m.code[0].contains("live()"), "{:?}", m.code);
        assert!(m.code[0].contains("more()"));
        assert!(!m.code[0].contains('1'));
        assert!(!m.code[0].contains('x'));
    }

    #[test]
    fn char_literals_with_quote_and_slash_do_not_derail_masking() {
        // Regression: `'"'` must not open a string and `'/'` twice must
        // not start a comment — the trailing call must stay code, the
        // trailing real comment must stay comment.
        let src = "let q = '\"'; let a = '/'; let b = '/'; after_chars(); // real comment\n";
        let m = mask(src);
        assert!(m.code[0].contains("after_chars()"), "{:?}", m.code);
        assert!(!m.code[0].contains('"'));
        assert!(m.comments[0].contains("real comment"));
        // And a string *after* a quote-char-literal still masks:
        let m = mask("let q = '\"'; let s = \"Instant::now\"; tail();\n");
        assert!(m.code[0].contains("tail()"));
        assert!(!m.code[0].contains("Instant"));
        assert_eq!(m.strings[0], vec!["Instant::now"]);
    }

    #[test]
    fn escaped_newline_keeps_line_accounting() {
        // Regression: the `\`-newline continuation used to swallow the
        // newline, shifting every later line number (and so every item
        // span the parser extracts). Three lines in, three lines out.
        let src = "let s = \"abc\\\n  def\";\nlet t = Instant::now();\n";
        let m = mask(src);
        assert_eq!(m.code.len(), 3, "{:?}", m.code);
        assert!(m.code[2].contains("Instant::now"), "{:?}", m.code);
        assert!(!m.code[1].contains("def"));
        // The literal is attributed to its opening line.
        assert_eq!(m.strings[0].len(), 1);
        assert!(m.strings[0][0].contains("def"));
    }

    #[test]
    fn string_closing_right_after_continuation_closes() {
        let src = "let s = \"x\\\n\"; after();\n";
        let m = mask(src);
        assert_eq!(m.code.len(), 2);
        assert!(m.code[1].contains("after()"), "{:?}", m.code);
    }

    #[test]
    fn strings_channel_collects_literals_per_line() {
        let m = mask("emit(\"000\", \"fault_nx\");\nlet raw = r#\"030\"#;\n");
        assert_eq!(m.strings[0], vec!["000", "fault_nx"]);
        assert_eq!(m.strings[1], vec!["030"]);
        assert!(m.code[0].contains("emit("));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn b() {}\n";
        let m = mask(src);
        assert_eq!(m.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn mod_tests_without_cfg_is_marked() {
        let src = "fn a() {}\nmod tests {\n  fn t() {}\n}\nfn b() {}\n";
        let m = mask(src);
        assert_eq!(m.in_test, vec![false, true, true, true, false]);
    }

    #[test]
    fn braceless_cfg_test_item_marks_through_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() {}\n";
        let m = mask(src);
        assert_eq!(m.in_test, vec![true, true, false]);
    }

    #[test]
    fn string_braces_do_not_unbalance_test_regions() {
        let src = "mod tests {\n  const S: &str = \"}\";\n  fn t() {}\n}\nfn live() {}\n";
        let m = mask(src);
        assert_eq!(m.in_test, vec![true, true, true, true, false]);
    }
}
