//! Recursive-descent parser for the supported regex dialect.
//!
//! Supported syntax: literals, `.`, `[...]`/`[^...]` classes with ranges,
//! shorthand classes `\d \D \w \W \s \S`, escapes, grouping `(...)`,
//! alternation `|`, quantifiers `* + ? {m} {m,} {m,n}`, anchors `^ $`.

use crate::ast::{Ast, CharMatcher, ClassItem};

/// Largest count a quantifier (`{m}`, `{m,}`, `{m,n}`) may name. The
/// NFA expands counted repeats into copies, so the cap bounds the states
/// one quantifier can add; the synthesizer renders no larger count.
pub const MAX_REPEAT: u32 = 1_000;

/// Parse error with a byte position into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Character index in the pattern.
    pub position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            position: self.pos,
        })
    }

    fn parse_alternation(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.next();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alt(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, ParseError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("one item"),
            _ => Ast::Concat(items),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, ParseError> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.next();
                (0, None)
            }
            Some('+') => {
                self.next();
                (1, None)
            }
            Some('?') => {
                self.next();
                (0, Some(1))
            }
            Some('{') => {
                self.next();
                let min = self.parse_number()?;
                match self.peek() {
                    Some('}') => {
                        self.next();
                        (min, Some(min))
                    }
                    Some(',') => {
                        self.next();
                        if self.peek() == Some('}') {
                            self.next();
                            (min, None)
                        } else {
                            let max = self.parse_number()?;
                            if self.next() != Some('}') {
                                return self.err("expected '}'");
                            }
                            if max < min {
                                return self.err("quantifier max < min");
                            }
                            (min, Some(max))
                        }
                    }
                    _ => return self.err("expected '}' or ','"),
                }
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::StartAnchor | Ast::EndAnchor) {
            return self.err("quantifier on anchor");
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    fn parse_number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        let mut n: u32 = 0;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(d))
                    .ok_or(ParseError {
                        message: "quantifier too large".into(),
                        position: self.pos,
                    })?;
                self.next();
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected number");
        }
        if n > MAX_REPEAT {
            return self.err(format!("quantifier above {MAX_REPEAT} not supported"));
        }
        Ok(n)
    }

    fn parse_atom(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => self.err("unexpected end of pattern"),
            Some('(') => {
                self.next();
                // Non-capturing group marker is accepted and ignored.
                if self.peek() == Some('?') {
                    self.next();
                    if self.next() != Some(':') {
                        return self.err("only (?: groups supported");
                    }
                }
                let inner = self.parse_alternation()?;
                if self.next() != Some(')') {
                    return self.err("expected ')'");
                }
                Ok(inner)
            }
            Some('[') => {
                self.next();
                self.parse_class()
            }
            Some('.') => {
                self.next();
                Ok(Ast::Char(CharMatcher::Any))
            }
            Some('^') => {
                self.next();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.next();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.next();
                let m = self.parse_escape()?;
                Ok(Ast::Char(m))
            }
            Some(c @ ('*' | '+' | '?' | '{')) => self.err(format!("dangling quantifier '{c}'")),
            Some(c) => {
                self.next();
                Ok(Ast::Char(CharMatcher::Literal(c)))
            }
        }
    }

    fn parse_escape(&mut self) -> Result<CharMatcher, ParseError> {
        match self.next() {
            None => self.err("dangling escape"),
            Some('d') => Ok(CharMatcher::digit()),
            Some('D') => Ok(CharMatcher::digit().negate()),
            Some('w') => Ok(CharMatcher::word()),
            Some('W') => Ok(CharMatcher::word().negate()),
            Some('s') => Ok(CharMatcher::space()),
            Some('S') => Ok(CharMatcher::space().negate()),
            Some('n') => Ok(CharMatcher::Literal('\n')),
            Some('t') => Ok(CharMatcher::Literal('\t')),
            Some('r') => Ok(CharMatcher::Literal('\r')),
            // Any punctuation escapes itself: \. \\ \[ \( \+ …
            Some(c) if c.is_ascii_punctuation() => Ok(CharMatcher::Literal(c)),
            Some(c) => self.err(format!("unknown escape '\\{c}'")),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, ParseError> {
        let negated = if self.peek() == Some('^') {
            self.next();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated character class"),
                Some(']') if !items.is_empty() || negated => {
                    // `[]` is invalid but `[]]`-style first-position ] literal
                    // is not supported; require at least one item.
                    if items.is_empty() {
                        return self.err("empty character class");
                    }
                    self.next();
                    break;
                }
                Some(']') => return self.err("empty character class"),
                _ => {}
            }
            let lo = match self.next() {
                Some('\\') => match self.parse_escape()? {
                    CharMatcher::Literal(c) => ClassItem::Char(c),
                    CharMatcher::Class {
                        negated: false,
                        items: sub,
                    } => {
                        // Shorthand inside class: splice its items in.
                        items.extend(sub);
                        continue;
                    }
                    _ => return self.err("negated shorthand not allowed in class"),
                },
                Some(c) => ClassItem::Char(c),
                None => return self.err("unterminated character class"),
            };
            // Possible range `a-z` (a `-` before `]` is a literal).
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.next(); // consume '-'
                let hi = match self.next() {
                    Some('\\') => match self.parse_escape()? {
                        CharMatcher::Literal(c) => c,
                        _ => return self.err("class shorthand cannot end a range"),
                    },
                    Some(c) => c,
                    None => return self.err("unterminated character class"),
                };
                let ClassItem::Char(lo_c) = lo else {
                    return self.err("invalid range start");
                };
                if hi < lo_c {
                    return self.err("inverted class range");
                }
                items.push(ClassItem::Range(lo_c, hi));
            } else {
                items.push(lo);
            }
        }
        Ok(Ast::Char(CharMatcher::Class { negated, items }))
    }
}

/// Parse a pattern into an [`Ast`].
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
    };
    let ast = p.parse_alternation()?;
    if p.pos != p.chars.len() {
        return p.err("unbalanced ')'");
    }
    Ok(ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_and_concat() {
        assert_eq!(parse("ab").unwrap(), Ast::literal("ab"));
        assert_eq!(parse("").unwrap(), Ast::Empty);
    }

    #[test]
    fn alternation_and_groups() {
        let a = parse("a|b|c").unwrap();
        assert!(matches!(a, Ast::Alt(ref v) if v.len() == 3));
        let g = parse("(ab)+").unwrap();
        assert!(matches!(
            g,
            Ast::Repeat {
                min: 1,
                max: None,
                ..
            }
        ));
        assert_eq!(parse("(?:ab)").unwrap(), Ast::literal("ab"));
    }

    #[test]
    fn quantifiers() {
        assert!(matches!(
            parse("a*").unwrap(),
            Ast::Repeat {
                min: 0,
                max: None,
                ..
            }
        ));
        assert!(matches!(
            parse("a{3}").unwrap(),
            Ast::Repeat {
                min: 3,
                max: Some(3),
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: None,
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,5}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: Some(5),
                ..
            }
        ));
    }

    #[test]
    fn classes() {
        let c = parse("[a-z0-9_]").unwrap();
        match c {
            Ast::Char(CharMatcher::Class {
                negated: false,
                items,
            }) => {
                assert_eq!(items.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let n = parse("[^abc]").unwrap();
        assert!(matches!(
            n,
            Ast::Char(CharMatcher::Class { negated: true, .. })
        ));
        // Shorthand splicing and trailing literal dash.
        let s = parse(r"[\d-]").unwrap();
        match s {
            Ast::Char(CharMatcher::Class { items, .. }) => {
                assert!(items.contains(&ClassItem::Char('-')));
                assert!(items.contains(&ClassItem::Range('0', '9')));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn escapes() {
        assert_eq!(parse(r"\.").unwrap(), Ast::Char(CharMatcher::Literal('.')));
        assert_eq!(parse(r"\d").unwrap(), Ast::Char(CharMatcher::digit()));
        assert_eq!(parse(r"\t").unwrap(), Ast::Char(CharMatcher::Literal('\t')));
    }

    #[test]
    fn anchors() {
        let a = parse("^a$").unwrap();
        match a {
            Ast::Concat(v) => {
                assert_eq!(v[0], Ast::StartAnchor);
                assert_eq!(v[2], Ast::EndAnchor);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        for bad in [
            "(", ")", "a)", "(a", "[", "[]", "[z-a]", "a{2,1}", "*a", "a{99999}", r"\", r"\q",
            "a**", // second * quantifies a Repeat? no: dangling
            "^*",
        ] {
            assert!(parse(bad).is_err(), "pattern {bad:?} should fail");
        }
    }

    #[test]
    fn error_positions_reported() {
        let e = parse("ab[").unwrap_err();
        assert!(e.position >= 2, "position {}", e.position);
        assert!(e.to_string().contains("parse error"));
    }
}
