//! Tokenizers for headers and cell values.

/// Split a header into lowercase word tokens.
///
/// Handles the header conventions found in database tables: `snake_case`,
/// `kebab-case`, `camelCase`, `PascalCase`, `SCREAMING_SNAKE`, spaces,
/// dots, and letter/digit boundaries (`col1` → `col`, `1`).
#[must_use]
pub fn header_tokens(header: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev: Option<char> = None;
    let chars: Vec<char> = header.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c.is_alphanumeric() {
            let boundary = match prev {
                Some(p) => {
                    // camelCase boundary: lower→Upper. ASCII-only: letters
                    // without a lowercase mapping (𝕀, ℵ) would otherwise
                    // make normalization non-idempotent.
                    (p.is_ascii_lowercase() && c.is_ascii_uppercase())
                        // Acronym end: "HTTPServer" → HTTP | Server
                        || (p.is_ascii_uppercase()
                            && c.is_ascii_uppercase()
                            && chars.get(i + 1).is_some_and(|n| n.is_ascii_lowercase()))
                        // letter↔digit boundary
                        || (p.is_ascii_digit() != c.is_ascii_digit()
                            && p.is_alphanumeric())
                }
                None => false,
            };
            if boundary && !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            current.extend(c.to_lowercase());
            prev = Some(c);
        } else {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            prev = None;
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Split free text into lowercase word tokens (alphanumeric runs).
#[must_use]
pub fn word_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Number of tokens [`word_tokens`] splits `text` into (its maximal
/// runs of alphanumeric characters), counted without building them.
#[must_use]
pub fn word_count(text: &str) -> usize {
    let mut count = 0;
    let mut in_word = false;
    for c in text.chars() {
        let alphanumeric = c.is_alphanumeric();
        if alphanumeric && !in_word {
            count += 1;
        }
        in_word = alphanumeric;
    }
    count
}

/// Character n-grams of a string, padded with `<` and `>` boundary markers
/// (the FastText convention), lowercased.
#[must_use]
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let padded: Vec<char> = std::iter::once('<')
        .chain(s.chars().flat_map(char::to_lowercase))
        .chain(std::iter::once('>'))
        .collect();
    if padded.len() < n {
        return vec![padded.iter().collect()];
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_and_kebab() {
        assert_eq!(header_tokens("order_id"), vec!["order", "id"]);
        assert_eq!(header_tokens("unit-price"), vec!["unit", "price"]);
        assert_eq!(header_tokens("  first name "), vec!["first", "name"]);
    }

    #[test]
    fn camel_and_pascal() {
        assert_eq!(header_tokens("orderId"), vec!["order", "id"]);
        assert_eq!(header_tokens("OrderDate"), vec!["order", "date"]);
        assert_eq!(
            header_tokens("HTTPServerPort"),
            vec!["http", "server", "port"]
        );
    }

    #[test]
    fn screaming_snake_and_digits() {
        assert_eq!(header_tokens("USER_ID"), vec!["user", "id"]);
        assert_eq!(header_tokens("col1"), vec!["col", "1"]);
        assert_eq!(header_tokens("q3Revenue"), vec!["q", "3", "revenue"]);
    }

    #[test]
    fn empty_and_symbols() {
        assert!(header_tokens("").is_empty());
        assert!(header_tokens("___").is_empty());
        assert_eq!(header_tokens("a.b.c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn words() {
        assert_eq!(word_tokens("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(word_tokens("  "), Vec::<String>::new());
    }

    #[test]
    fn word_count_matches_word_tokens() {
        for text in [
            "",
            "  ",
            "Hello, World!",
            "a1-b2 c3",
            "ΟΔΟΣ σ",
            "x\u{301}y z",
            "😀a😀",
        ] {
            assert_eq!(word_count(text), word_tokens(text).len(), "{text:?}");
        }
    }

    #[test]
    fn ngrams() {
        assert_eq!(char_ngrams("ab", 3), vec!["<ab", "ab>"]);
        assert_eq!(char_ngrams("a", 3), vec!["<a>"]);
        assert_eq!(char_ngrams("", 3), vec!["<>"]);
        assert_eq!(char_ngrams("AB", 2), vec!["<a", "ab", "b>"]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ngram_panics() {
        let _ = char_ngrams("x", 0);
    }
}
