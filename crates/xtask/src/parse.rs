//! The one Rust item scanner of the xtask crate.
//!
//! The passes, the spec extractor, the `pub fn` surface parser
//! ([`crate::sig`]), the `#[cfg(test)]` mask and the `code-lines` count all
//! find items here: where the `impl` blocks are and whom they belong to,
//! which `fn`s a range declares, and where an item ends. Everything here
//! works on the comment/string-stripped code view of a
//! [`crate::source::SourceFile`], so string contents can never fake a
//! keyword or a bracket, and every offset maps back to a real line.

/// One `impl` block: the type it belongs to (the `Y` of `impl Y` and of
/// `impl X for Y`), the byte offset of the `impl` keyword, and the byte
/// range of the brace-balanced body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplBlock {
    /// The implemented type's name, generics stripped.
    pub owner: String,
    /// Whether the block is inherent (`impl Y`), not a trait's (`impl X for Y`).
    pub inherent: bool,
    /// Byte offset of the `impl` keyword in the code view.
    pub at: usize,
    /// Body range: from the opening `{` to just past its matching `}`.
    pub body: (usize, usize),
}

/// One `fn` item: its name, the byte offset of the `fn` keyword, and the
/// byte range of its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Byte offset of the `fn` keyword in the code view.
    pub at: usize,
    /// Body range: from the opening `{` to just past its matching `}`.
    pub body: (usize, usize),
}

/// Whether `b` can be part of an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier starting at `at` (empty if none).
pub fn ident_at(code: &str, at: usize) -> &str {
    let rest = code.get(at..).unwrap_or("");
    let len = rest.bytes().position(|b| !is_ident_byte(b)).unwrap_or(rest.len());
    &rest[..len]
}

/// The identifier tokens of `text`, in order, duplicates kept.
pub fn ident_tokens(text: &str) -> Vec<&str> {
    text.split(|c: char| !u8::try_from(c).is_ok_and(is_ident_byte))
        .filter(|t| !t.is_empty())
        .collect()
}

/// The first offset at or after `at` that holds no ASCII whitespace.
pub fn skip_ws(code: &str, at: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = at;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// The first occurrence of `word` at or after `from` with identifier
/// boundaries on both sides (so `stall` never matches `install`).
pub fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut at = from;
    while let Some(found) = code.get(at..)?.find(word) {
        let pos = at + found;
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        if before_ok && !bytes.get(pos + word.len()).copied().is_some_and(is_ident_byte) {
            return Some(pos);
        }
        at = pos + 1;
    }
    None
}

/// Whether `word` occurs in `text` with identifier boundaries on both
/// sides.
pub fn mentions_word(text: &str, word: &str) -> bool {
    !word.is_empty() && find_word(text, word, 0).is_some()
}

/// The offset just past the bracket that closes the `(`, `[`, `{` or `<`
/// at `at`, counting only brackets of that kind; `None` if `at` holds no
/// opening bracket or it never closes.
pub fn skip_balanced(code: &str, at: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let open = *bytes.get(at)?;
    let close = match open {
        b'(' => b')',
        b'[' => b']',
        b'{' => b'}',
        b'<' => b'>',
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Where the item whose head starts at `from` ends, as `(stop, end)`:
/// `stop` is the offset of the `{` that opens its body, or of the `;` that
/// ends a bodiless item (`use`, `mod m;`, a trait method's signature), and
/// `end` is just past the matching `}` or the `;`. The walk steps over
/// `(..)` and `[..]` groups bracket by bracket, so the `;` of an `[u8; 4]`
/// never ends a signature. Angle brackets are not tracked: `<` is also
/// less-than and shift in an initializer, and no `;` sits directly inside
/// one. `None` if the item never ends.
pub fn item_end(code: &str, from: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut i = from;
    loop {
        match *bytes.get(i)? {
            b'(' | b'[' => i = skip_balanced(code, i)?,
            b'{' => return Some((i, skip_balanced(code, i)?)),
            b';' => return Some((i, i + 1)),
            _ => i += 1,
        }
    }
}

/// The brace-balanced body of the item whose head starts at `from`: from
/// its `{` to just past the matching `}`. `None` for a bodiless item.
pub fn body_after(code: &str, from: usize) -> Option<(usize, usize)> {
    let (stop, end) = item_end(code, from)?;
    (code.as_bytes()[stop] == b'{').then_some((stop, end))
}

/// All `impl` blocks of a code view. Only `impl` keywords that open a
/// line (nothing but whitespace before them on their line) count, so
/// `-> impl Iterator` return types never start a phantom block. The owner
/// of `impl X for Y` is `Y`; generic parameter lists are skipped.
pub fn impl_blocks(code: &str) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = find_word(code, "impl", from) {
        from = at + 4;
        let line_start = code[..at].rfind('\n').map_or(0, |p| p + 1);
        if !code[line_start..at].chars().all(char::is_whitespace) {
            continue;
        }
        let mut i = skip_ws(code, from);
        if code[i..].starts_with('<') {
            let Some(end) = skip_balanced(code, i) else { continue };
            i = end;
        }
        let Some(brace) = code[i..].find('{').map(|p| i + p) else {
            continue;
        };
        let header = &code[i..brace];
        let (owner_text, inherent) = match header.find(" for ") {
            Some(f) => (&header[f + 5..], false),
            None => (header, true),
        };
        let owner = ident_at(owner_text.trim_start(), 0);
        if owner.is_empty() {
            continue;
        }
        let Some(body) = body_after(code, brace) else {
            continue;
        };
        out.push(ImplBlock { owner: owner.to_string(), inherent, at, body });
        from = body.1;
    }
    out
}

/// Every `fn` item with a body in `code`, at every depth (a fn nested in
/// another's body too), in source order. Bodiless signatures
/// (`fn f(&self);`) are skipped.
pub fn fn_items(code: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = find_word(code, "fn", from) {
        from = at + 2;
        let name_at = skip_ws(code, from);
        let name = ident_at(code, name_at);
        if name.is_empty() {
            continue;
        }
        if let Some(body) = body_after(code, name_at + name.len()) {
            out.push(FnItem { name: name.to_string(), at, body });
        }
    }
    out
}

/// The `fn` items declared inside `range` of the code view, leaving out
/// those nested in another listed fn's body.
pub fn fns_in(code: &str, range: (usize, usize)) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut end = 0;
    for f in fn_items(&code[range.0..range.1]) {
        if f.at < end {
            continue;
        }
        end = f.body.1;
        out.push(FnItem { at: range.0 + f.at, body: (range.0 + f.body.0, range.0 + end), ..f });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
struct Holder {
    hits: u64,
}

impl<E: Endpoint> Holder {
    pub fn hits(&self) -> u64 {
        self.hits
    }
    fn helper(&self) -> u64 {
        0
    }
}

impl Endpoint for Holder {
    fn poll(&mut self) {}
}
";

    #[test]
    fn finds_impls_with_generics_and_trait_targets() {
        let blocks = impl_blocks(SRC);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].owner, "Holder");
        assert_eq!(blocks[1].owner, "Holder");
        let fns = fns_in(SRC, blocks[0].body);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["hits", "helper"]);
    }

    #[test]
    fn return_position_impl_is_not_a_block() {
        let src = "fn iter() -> impl Iterator<Item = u8> {\n    std::iter::empty()\n}\n";
        assert!(impl_blocks(src).is_empty());
    }

    #[test]
    fn word_boundaries_hold() {
        assert!(mentions_word("self.stall = 0;", "stall"));
        assert!(!mentions_word("installed = true;", "stall"));
        assert_eq!(ident_tokens("Rc<RefCell<PoolInner>>"), vec!["Rc", "RefCell", "PoolInner"]);
    }

    #[test]
    fn fn_items_nest_and_fns_in_lists_only_the_outer() {
        let src = "fn outer() -> [u8; 2] {\n    fn inner() {}\n    [0; 2]\n}\nfn decl(&self);\nfn last() {}\n";
        let names = |fns: Vec<FnItem>| fns.into_iter().map(|f| f.name).collect::<Vec<_>>();
        assert_eq!(names(fn_items(src)), ["outer", "inner", "last"]);
        assert_eq!(names(fns_in(src, (0, src.len()))), ["outer", "last"]);
    }
}
