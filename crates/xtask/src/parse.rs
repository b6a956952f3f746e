//! Shared brace-level parsing helpers for the semantic passes.
//!
//! The codec-coverage pass and the spec extractor need the same
//! structural facts about a code view: where the `impl` blocks are and
//! whom they belong to, and which `fn`s a block declares. Everything here works on the comment/string-stripped code view
//! of a [`crate::source::SourceFile`], so string contents can never fake
//! a keyword, and every offset maps back to a real line.

/// One `impl` block: the type it belongs to (the `Y` of `impl Y` and of
/// `impl X for Y`), the byte offset of the `impl` keyword, and the byte
/// range of the brace-balanced body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplBlock {
    /// The implemented type's name, generics stripped.
    pub owner: String,
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

/// The brace-balanced body starting at the first `{` at or after `from`,
/// unless a `;` ends the item first.
pub fn body_after(code: &str, from: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut i = from;
    while i < bytes.len() && bytes[i] != b'{' {
        if bytes[i] == b';' {
            return None;
        }
        i += 1;
    }
    let start = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether the byte at `at` starts a keyword occurrence: preceded by a
/// non-identifier byte (or the file start) and — because the keywords
/// searched all end before whitespace — followed appropriately by the
/// caller's needle match.
fn keyword_at(code: &str, at: usize) -> bool {
    at == 0 || !is_ident_byte(code.as_bytes()[at - 1])
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the identifier starting at `at` (empty if none).
fn ident_at(code: &str, at: usize) -> String {
    code[at..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect()
}

/// All `impl` blocks of a code view. Only `impl` keywords that open a
/// line (nothing but whitespace before them on their line) count, so
/// `-> impl Iterator` return types never start a phantom block. The owner
/// of `impl X for Y` is `Y`; generic parameter lists are skipped.
pub fn impl_blocks(code: &str) -> Vec<ImplBlock> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(found) = code[from..].find("impl") {
        let at = from + found;
        from = at + 4;
        // Keyword boundary on both sides.
        if !keyword_at(code, at) || bytes.get(at + 4).copied().is_some_and(is_ident_byte) {
            continue;
        }
        // Must be the first token on its line.
        let line_start = code[..at].rfind('\n').map_or(0, |p| p + 1);
        if !code[line_start..at].chars().all(char::is_whitespace) {
            continue;
        }
        // Skip a generic parameter list.
        let mut i = at + 4;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) == Some(&b'<') {
            let mut depth = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        let Some(brace) = code[i..].find('{').map(|p| i + p) else {
            continue;
        };
        let header = &code[i..brace];
        let owner_text = match header.find(" for ") {
            Some(f) => &header[f + 5..],
            None => header,
        };
        let owner_at =
            i + (owner_text.as_ptr() as usize - header.as_ptr() as usize) + owner_text.len()
                - owner_text.trim_start().len();
        let owner = ident_at(code, owner_at);
        if owner.is_empty() {
            continue;
        }
        let Some(body) = body_after(code, brace) else {
            continue;
        };
        out.push(ImplBlock { owner, at, body });
        from = body.1;
    }
    out
}

/// All `fn` items declared inside `range` of the code view (any nesting
/// depth; bodiless trait-method signatures are skipped).
pub fn fns_in(code: &str, range: (usize, usize)) -> Vec<FnItem> {
    let slice = &code[range.0..range.1];
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(found) = slice[from..].find("fn ") {
        let at = from + found;
        from = at + 3;
        if !keyword_at(slice, at) {
            continue;
        }
        let name = ident_at(slice, at + 3);
        if name.is_empty() {
            continue;
        }
        let Some(body) = body_after(slice, at + 3 + name.len()) else {
            continue;
        };
        out.push(FnItem { name, at: range.0 + at, body: (range.0 + body.0, range.0 + body.1) });
        from = body.1;
    }
    out
}

/// Whether `word` occurs in `text` with identifier boundaries on both
/// sides (so `stall` never matches `install`).
pub fn mentions_word(text: &str, word: &str) -> bool {
    if word.is_empty() {
        return false;
    }
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(found) = text[from..].find(word) {
        let at = from + found;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// The identifier tokens of `text`, in order, duplicates kept.
pub fn ident_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
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
}
