//! Item-level parsing over the masked token stream: `mod`/`fn`/`impl`/
//! `trait` spans and the call expressions inside each function body.
//!
//! This is deliberately **not** a Rust parser. It consumes the masked
//! code channel of [`crate::lexer::mask`] (literals and comments already
//! blanked), tokenizes it, and recovers just enough structure for the
//! workspace call graph (DESIGN.md §14): which functions exist, where
//! their bodies start and end, and which names they call. Macro bodies,
//! trait-object dispatch and calls through closure-typed locals are out
//! of model — [`crate::graph`] documents how each is approximated.

use crate::lexer::Masked;

/// One token of masked code: an identifier/keyword or one punctuation
/// glyph (`::` is a single token).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token text.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// True for identifier/keyword tokens.
    pub is_ident: bool,
}

/// Tokenize masked code lines. Whitespace separates; identifiers clump;
/// `::` is fused; every other char is its own token.
pub fn tokenize(code: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let ln = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: ln,
                    is_ident: !chars[start].is_ascii_digit(),
                });
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Token {
                    text: "::".into(),
                    line: ln,
                    is_ident: false,
                });
                i += 2;
            } else {
                out.push(Token {
                    text: c.to_string(),
                    line: ln,
                    is_ident: false,
                });
                i += 1;
            }
        }
    }
    out
}

/// A function definition recovered from one file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`UserLog` for
    /// `impl UserLog { fn record ... }`).
    pub self_type: Option<String>,
    /// Inline `mod` path inside the file (not including the file's own
    /// module as derived from its path).
    pub mods: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Calls made inside the body.
    pub calls: Vec<Call>,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments: `["par", "map_indexed"]` for `par::map_indexed(`,
    /// `["helper"]` for `helper(`, `["m"]` for `.m(`.
    pub path: Vec<String>,
    /// True for `.name(` method-call syntax.
    pub is_method: bool,
    /// 1-based source line of the callee name.
    pub line: usize,
}

impl Call {
    /// Last path segment — the callee's bare name.
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// An inline `mod name { ... }` span.
#[derive(Debug, Clone)]
pub struct ModSpan {
    /// Module name.
    pub name: String,
    /// 1-based first line (the `mod` keyword).
    pub start_line: usize,
    /// 1-based last line (closing brace).
    pub end_line: usize,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct FileSyntax {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Inline module spans, in source order.
    pub mods: Vec<ModSpan>,
}

/// What a brace frame on the scope stack was opened by.
#[derive(Debug)]
enum Frame {
    Mod(usize),      // index into FileSyntax::mods
    TypeCtx(String), // impl/trait block: self type name
    Fn(usize),       // index into FileSyntax::fns
    Block,           // everything else
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "mut", "ref", "impl", "dyn", "where", "use", "pub", "mod", "struct", "enum", "trait", "const",
    "static", "type", "unsafe", "async", "await", "break", "continue",
];

/// Parse one masked file into its item structure.
pub fn parse(masked: &Masked) -> FileSyntax {
    let toks = tokenize(&masked.code);
    let mut out = FileSyntax::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "mod" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|t| t.is_ident) {
                    if toks.get(i + 2).map(|t| t.text.as_str()) == Some("{") {
                        out.mods.push(ModSpan {
                            name: name_tok.text.clone(),
                            start_line: t.line,
                            end_line: t.line, // fixed when the frame pops
                        });
                        stack.push(Frame::Mod(out.mods.len() - 1));
                        i += 3;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            "impl" | "trait" => {
                let (ty, next) = parse_type_ctx_header(&toks, i);
                if toks.get(next).map(|t| t.text.as_str()) == Some("{") {
                    stack.push(Frame::TypeCtx(ty));
                    i = next + 1;
                } else {
                    // `impl Trait for X;`-like or parse miss: skip keyword.
                    i += 1;
                }
                continue;
            }
            "fn" => {
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.is_ident) else {
                    i += 1;
                    continue; // `fn(` type position (fn pointer type)
                };
                let name = name_tok.text.clone();
                let start_line = t.line;
                // Find the body `{` (or `;` for a bodiless signature) at
                // zero paren/angle depth.
                let mut j = i + 2;
                let mut paren = 0i64;
                let mut angle = 0i64;
                let mut body = None;
                while let Some(tk) = toks.get(j) {
                    match tk.text.as_str() {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "<" => angle += 1,
                        ">" => angle = (angle - 1).max(0),
                        "-" => {} // `->`
                        ";" if paren == 0 => break,
                        "{" if paren == 0 => {
                            body = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let Some(body_open) = body else {
                    i = j.max(i + 1);
                    continue; // trait/extern signature without a body
                };
                let self_type = stack.iter().rev().find_map(|f| match f {
                    Frame::TypeCtx(ty) => Some(ty.clone()),
                    _ => None,
                });
                let mods = stack
                    .iter()
                    .filter_map(|f| match f {
                        Frame::Mod(m) => Some(out.mods[*m].name.clone()),
                        _ => None,
                    })
                    .collect();
                out.fns.push(FnDef {
                    name,
                    self_type,
                    mods,
                    start_line,
                    end_line: start_line, // fixed when the frame pops
                    calls: Vec::new(),
                });
                stack.push(Frame::Fn(out.fns.len() - 1));
                i = body_open + 1;
                continue;
            }
            "{" => {
                stack.push(Frame::Block);
                i += 1;
                continue;
            }
            "}" => {
                match stack.pop() {
                    Some(Frame::Mod(m)) => out.mods[m].end_line = t.line,
                    Some(Frame::Fn(f)) => out.fns[f].end_line = t.line,
                    _ => {}
                }
                i += 1;
                continue;
            }
            _ => {}
        }

        // Call-expression extraction, only inside a function body.
        if t.is_ident
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && !KEYWORDS_NOT_CALLS.contains(&t.text.as_str())
        {
            if let Some(fi) = innermost_fn(&stack) {
                // `name!(` is a macro invocation — but `!` would sit
                // between `name` and `(`, so this pattern can't be one.
                // Collect a leading `a::b::` path.
                let mut path = vec![t.text.clone()];
                let mut k = i;
                while k >= 2
                    && toks[k - 1].text == "::"
                    && toks[k - 2].is_ident
                    && !KEYWORDS_NOT_CALLS.contains(&toks[k - 2].text.as_str())
                {
                    path.insert(0, toks[k - 2].text.clone());
                    k -= 2;
                }
                let is_method = path.len() == 1 && k >= 1 && toks[k - 1].text == ".";
                // A bare name immediately after `fn` is a definition,
                // handled above; after `.` with a longer path is
                // impossible. Struct-literal and tuple-variant noise is
                // filtered later by the resolver (no matching def).
                out.fns[fi].calls.push(Call {
                    path,
                    is_method,
                    line: t.line,
                });
            }
        }
        i += 1;
    }

    // Unclosed frames (truncated input): close at last line.
    let last = toks.last().map(|t| t.line).unwrap_or(1);
    for f in stack {
        match f {
            Frame::Mod(m) => out.mods[m].end_line = last,
            Frame::Fn(f) => out.fns[f].end_line = last,
            _ => {}
        }
    }
    out
}

/// Parse an `impl`/`trait` header starting at `toks[i]`; return the self
/// type name and the index of the opening `{` (or wherever scanning
/// stopped). For `impl Tr for Ty` the type is `Ty`; generics and where
/// clauses are skipped.
fn parse_type_ctx_header(toks: &[Token], i: usize) -> (String, usize) {
    let mut j = i + 1;
    let mut angle = 0i64;
    let mut after_for: Option<String> = None;
    let mut first: Option<String> = None;
    let mut in_where = false;
    let mut take_next_for = false;
    while let Some(tk) = toks.get(j) {
        match tk.text.as_str() {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "{" if angle == 0 => break,
            ";" if angle == 0 => break,
            "where" if angle == 0 => in_where = true,
            "for" if angle == 0 && !in_where => take_next_for = true,
            "&" | "mut" | "dyn" | "(" | ")" | "," | "'" => {}
            _ if tk.is_ident && angle == 0 && !in_where => {
                // Track the *last* segment of the current path: a path
                // like `lexer::Masked` visits both idents; keep the
                // later one by overwriting while `::` continues.
                if take_next_for {
                    after_for = Some(tk.text.clone());
                    if toks.get(j + 1).map(|t| t.text.as_str()) != Some("::") {
                        take_next_for = false;
                    }
                } else if after_for.is_none()
                    && (first.is_none()
                        || toks.get(j.wrapping_sub(1)).map(|t| t.text.as_str()) == Some("::"))
                {
                    first = Some(tk.text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(first).unwrap_or_default(), j)
}

/// Innermost enclosing function frame, if any.
fn innermost_fn(stack: &[Frame]) -> Option<usize> {
    stack.iter().rev().find_map(|f| match f {
        Frame::Fn(fi) => Some(*fi),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    fn parse_src(src: &str) -> FileSyntax {
        parse(&mask(src))
    }

    #[test]
    fn extracts_fns_with_spans_and_calls() {
        let src = "\
pub fn outer(x: u32) -> u32 {
    helper(x);
    deep::path::call(x)
}

fn helper(x: u32) -> u32 {
    x + 1
}
";
        let fx = parse_src(src);
        assert_eq!(fx.fns.len(), 2);
        let outer = &fx.fns[0];
        assert_eq!(outer.name, "outer");
        assert_eq!((outer.start_line, outer.end_line), (1, 4));
        let calls: Vec<_> = outer.calls.iter().map(|c| c.name().to_string()).collect();
        assert_eq!(calls, vec!["helper", "call"]);
        assert_eq!(outer.calls[1].path, vec!["deep", "path", "call"]);
    }

    #[test]
    fn impl_and_trait_methods_get_self_type() {
        let src = "\
struct Log;
impl Log {
    pub fn record(&mut self, ev: u32) {
        self.push_inner(ev);
    }
}
impl std::fmt::Display for Log {
    fn fmt(&self, f: &mut Fmt) -> Result {
        write_out(f)
    }
}
trait Model {
    fn handle(&mut self) {
        default_body();
    }
    fn required(&self);
}
impl<T: Clone> Wrap<T> {
    fn get(&self) -> T { self.0.clone() }
}
";
        let fx = parse_src(src);
        let by_name = |n: &str| fx.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("record").self_type.as_deref(), Some("Log"));
        assert_eq!(by_name("fmt").self_type.as_deref(), Some("Log"));
        assert_eq!(by_name("handle").self_type.as_deref(), Some("Model"));
        assert_eq!(by_name("get").self_type.as_deref(), Some("Wrap"));
        // `fn required(&self);` has no body — not a definition.
        assert!(fx.fns.iter().all(|f| f.name != "required"));
    }

    #[test]
    fn method_calls_and_macros() {
        let src = "\
fn f(log: &mut Log) {
    log.record(1);
    println!(\"not a call\");
    self.obs.observe(2.0);
    let v = vec![1];
    if cond(v) { }
}
";
        let fx = parse_src(src);
        let f = &fx.fns[0];
        let methods: Vec<_> = f
            .calls
            .iter()
            .filter(|c| c.is_method)
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(methods, vec!["record", "observe"]);
        // `println!` is a macro (the `!` breaks the ident-`(` pattern);
        // `if cond(v)` fires on `cond` but never on `if`.
        assert!(f.calls.iter().any(|c| c.name() == "cond"));
        assert!(f.calls.iter().all(|c| c.name() != "println"));
    }

    #[test]
    fn inline_mod_spans_and_fn_module_paths() {
        let src = "\
pub mod codes {
    pub fn lookup(c: u32) -> u32 { c }
}
fn top() { codes::lookup(1); }
";
        let fx = parse_src(src);
        assert_eq!(fx.mods.len(), 1);
        assert_eq!(fx.mods[0].name, "codes");
        assert_eq!((fx.mods[0].start_line, fx.mods[0].end_line), (1, 3));
        let lookup = fx.fns.iter().find(|f| f.name == "lookup").unwrap();
        assert_eq!(lookup.mods, vec!["codes"]);
        let top = fx.fns.iter().find(|f| f.name == "top").unwrap();
        assert!(top.mods.is_empty());
        assert_eq!(top.calls[0].path, vec!["codes", "lookup"]);
    }

    #[test]
    fn nested_fns_and_closures_attribute_calls_to_the_right_fn() {
        let src = "\
fn outer() {
    let c = |x: u32| inner_call(x);
    c(1);
    fn nested() { nested_call(); }
    outer_call();
}
";
        let fx = parse_src(src);
        let outer = fx.fns.iter().find(|f| f.name == "outer").unwrap();
        let nested = fx.fns.iter().find(|f| f.name == "nested").unwrap();
        let outer_calls: Vec<_> = outer.calls.iter().map(|c| c.name().to_string()).collect();
        assert!(outer_calls.contains(&"inner_call".to_string()));
        assert!(outer_calls.contains(&"outer_call".to_string()));
        assert!(outer_calls.contains(&"c".to_string()));
        assert_eq!(nested.calls.len(), 1);
        assert_eq!(nested.calls[0].name(), "nested_call");
    }

    #[test]
    fn generic_fn_headers_and_where_clauses() {
        let src = "\
pub fn timed<T, F: FnOnce() -> T>(obs: &Obs, f: F) -> T
where
    F: Send,
{
    f()
}
";
        let fx = parse_src(src);
        assert_eq!(fx.fns.len(), 1);
        assert_eq!(fx.fns[0].name, "timed");
        assert_eq!((fx.fns[0].start_line, fx.fns[0].end_line), (1, 6));
        assert_eq!(fx.fns[0].calls.len(), 1, "{:?}", fx.fns[0].calls);
        assert_eq!(fx.fns[0].calls[0].name(), "f");
    }

    #[test]
    fn struct_and_match_braces_are_plain_blocks() {
        let src = "\
struct S { a: u32 }
enum E { A, B(u32) }
fn f(e: E) -> u32 {
    match e {
        E::A => zero(),
        E::B(x) => x,
    }
}
";
        let fx = parse_src(src);
        assert_eq!(fx.fns.len(), 1);
        let f = &fx.fns[0];
        assert_eq!((f.start_line, f.end_line), (3, 8));
        assert!(f.calls.iter().any(|c| c.name() == "zero"));
        // `E::B(x)` in a pattern looks like a call; it resolves to no
        // workspace fn later, which is the documented approximation.
    }
}
