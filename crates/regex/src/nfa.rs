//! Thompson NFA construction and a Pike-style VM simulation.
//!
//! Linear-time matching in the input size: no backtracking, so the engine
//! is safe to run over untrusted cell values (a requirement for a lookup
//! step executed on every column of every customer table).

use crate::ast::{Ast, CharMatcher};
use std::cell::RefCell;

/// One NFA state.
#[derive(Debug, Clone)]
enum State {
    /// Consume a character matching the matcher, then go to `next`.
    Char(CharMatcher, usize),
    /// Epsilon-split to both targets.
    Split(usize, usize),
    /// Epsilon move valid only at input start.
    AssertStart(usize),
    /// Epsilon move valid only at input end.
    AssertEnd(usize),
    /// Accepting state.
    Match,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    states: Vec<State>,
    start: usize,
    pattern: String,
}

/// Sentinel for "not yet patched" transition targets.
const HOLE: usize = usize::MAX;

/// Per-thread buffers of the Pike VM, reused by every match on the
/// thread: the current and next state lists, the explicit stack of the
/// epsilon closure, and one visited stamp per state. A list's states are
/// marked with a fresh generation instead of clearing the stamps, which
/// are zeroed only when the counter wraps.
struct Scratch {
    current: Vec<usize>,
    next: Vec<usize>,
    stack: Vec<usize>,
    marks: Vec<u32>,
    generation: u32,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            current: Vec::new(),
            next: Vec::new(),
            stack: Vec::new(),
            marks: Vec::new(),
            generation: 0,
        }
    }

    /// Empty the next list and take a visited stamp no state carries
    /// yet, zeroing every stamp when the counter wraps.
    fn clear_next(&mut self) {
        self.next.clear();
        if self.generation == u32::MAX {
            self.marks.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

struct Compiler {
    states: Vec<State>,
}

/// A compiled fragment: entry state + list of dangling exits to patch.
struct Frag {
    start: usize,
    /// (state index, which branch: 0 = first/only, 1 = second of a split)
    outs: Vec<(usize, u8)>,
}

impl Compiler {
    fn push(&mut self, s: State) -> usize {
        self.states.push(s);
        self.states.len() - 1
    }

    fn patch(&mut self, outs: &[(usize, u8)], target: usize) {
        for &(idx, branch) in outs {
            match &mut self.states[idx] {
                State::Char(_, next) | State::AssertStart(next) | State::AssertEnd(next) => {
                    *next = target;
                }
                State::Split(a, b) => {
                    if branch == 0 {
                        *a = target;
                    } else {
                        *b = target;
                    }
                }
                State::Match => unreachable!("match state has no out"),
            }
        }
    }

    fn compile(&mut self, ast: &Ast) -> Frag {
        match ast {
            Ast::Empty => {
                // A split with both branches dangling to the same place acts
                // as a no-op epsilon node.
                let s = self.push(State::Split(HOLE, HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0), (s, 1)],
                }
            }
            Ast::Char(m) => {
                let s = self.push(State::Char(m.clone(), HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::StartAnchor => {
                let s = self.push(State::AssertStart(HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::EndAnchor => {
                let s = self.push(State::AssertEnd(HOLE));
                Frag {
                    start: s,
                    outs: vec![(s, 0)],
                }
            }
            Ast::Concat(items) => {
                let mut iter = items.iter();
                let first = match iter.next() {
                    Some(f) => self.compile(f),
                    None => return self.compile(&Ast::Empty),
                };
                let mut outs = first.outs;
                for item in iter {
                    let next = self.compile(item);
                    self.patch(&outs, next.start);
                    outs = next.outs;
                }
                Frag {
                    start: first.start,
                    outs,
                }
            }
            Ast::Alt(branches) => {
                assert!(!branches.is_empty(), "empty alternation");
                let mut starts = Vec::with_capacity(branches.len());
                let mut outs = Vec::new();
                for b in branches {
                    let f = self.compile(b);
                    starts.push(f.start);
                    outs.extend(f.outs);
                }
                // Chain splits: s1 = Split(b0, s2), s2 = Split(b1, b2)...
                let mut entry = *starts.last().expect("nonempty");
                for &s in starts.iter().rev().skip(1) {
                    entry = self.push(State::Split(s, entry));
                }
                Frag { start: entry, outs }
            }
            Ast::Repeat { node, min, max } => self.compile_repeat(node, *min, *max),
        }
    }

    fn compile_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) -> Frag {
        match max {
            None => {
                if min == 0 {
                    // node* : split(enter, exit); loop back.
                    let split = self.push(State::Split(HOLE, HOLE));
                    let body = self.compile(node);
                    match &mut self.states[split] {
                        State::Split(a, _) => *a = body.start,
                        _ => unreachable!(),
                    }
                    self.patch(&body.outs, split);
                    Frag {
                        start: split,
                        outs: vec![(split, 1)],
                    }
                } else {
                    // node{min,} = node{min-1 copies} node+
                    let mut prefix_outs: Vec<(usize, u8)> = Vec::new();
                    let mut start = None;
                    for _ in 0..min - 1 {
                        let f = self.compile(node);
                        if start.is_some() {
                            self.patch(&prefix_outs, f.start);
                        } else {
                            start = Some(f.start);
                        }
                        prefix_outs = f.outs;
                    }
                    // node+ : body; split(back to body, exit)
                    let body = self.compile(node);
                    let split = self.push(State::Split(body.start, HOLE));
                    self.patch(&body.outs, split);
                    if let Some(s) = start {
                        self.patch(&prefix_outs, body.start);
                        Frag {
                            start: s,
                            outs: vec![(split, 1)],
                        }
                    } else {
                        Frag {
                            start: body.start,
                            outs: vec![(split, 1)],
                        }
                    }
                }
            }
            Some(max) => {
                // Expand to min mandatory copies + (max-min) optional copies.
                let mut outs: Vec<(usize, u8)> = Vec::new();
                let mut start: Option<usize> = None;
                for _ in 0..min {
                    let f = self.compile(node);
                    if start.is_some() {
                        self.patch(&outs, f.start);
                    } else {
                        start = Some(f.start);
                    }
                    outs = f.outs;
                }
                let mut skip_outs: Vec<(usize, u8)> = Vec::new();
                for _ in min..max {
                    let split = self.push(State::Split(HOLE, HOLE));
                    if start.is_some() {
                        self.patch(&outs, split);
                    } else {
                        start = Some(split);
                    }
                    let f = self.compile(node);
                    match &mut self.states[split] {
                        State::Split(a, _) => *a = f.start,
                        _ => unreachable!(),
                    }
                    skip_outs.push((split, 1));
                    outs = f.outs;
                }
                outs.extend(skip_outs);
                match start {
                    Some(s) => Frag { start: s, outs },
                    None => self.compile(&Ast::Empty), // {0,0}
                }
            }
        }
    }
}

impl Regex {
    /// Compile a pattern string.
    pub fn new(pattern: &str) -> Result<Self, crate::parser::ParseError> {
        let ast = crate::parser::parse(pattern)?;
        Ok(Self::from_ast(&ast, pattern))
    }

    /// Compile an already-parsed AST (used by the synthesizer).
    #[must_use]
    pub fn from_ast(ast: &Ast, pattern: &str) -> Self {
        let mut c = Compiler { states: Vec::new() };
        let frag = c.compile(ast);
        let m = c.push(State::Match);
        c.patch(&frag.outs, m);
        Regex {
            states: c.states,
            start: frag.start,
            pattern: pattern.to_owned(),
        }
    }

    /// The original pattern string.
    #[must_use]
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of compiled states (used for testing/budgeting).
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Does the pattern match the **entire** input string?
    ///
    /// This is the semantics used by the value-lookup step: a cell either
    /// *is* a phone number or it is not; substring hits would inflate
    /// confidence.
    ///
    /// Runs the Pike VM shared with [`Regex::is_match`]: it walks
    /// `input.chars()` with one character of lookahead and keeps its two
    /// state lists and visited marks in a per-thread scratch, so a match
    /// allocates nothing per character, and nothing per call once the
    /// thread's buffers have grown to the largest regex it has run.
    #[must_use]
    pub fn is_full_match(&self, input: &str) -> bool {
        self.run(input, true)
    }

    /// Does the pattern match anywhere in the input (unanchored search)?
    ///
    /// The same allocation-free simulation as [`Regex::is_full_match`],
    /// restarting the pattern after every character.
    #[must_use]
    pub fn is_match(&self, input: &str) -> bool {
        self.run(input, false)
    }

    /// The Pike VM both matchers share. `anchored` asks for a full
    /// match: the simulation stops as soon as no thread is alive and
    /// answers at the end of input. Unanchored, it re-enters the start
    /// state after each character and answers at the first `Match`.
    fn run(&self, input: &str, anchored: bool) -> bool {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let s = &mut *scratch;
            if s.marks.len() < self.states.len() {
                s.marks.resize(self.states.len(), 0);
            }
            let mut chars = input.chars();
            let mut c = chars.next();
            s.clear_next();
            self.add_state(s, self.start, true, c.is_none());
            std::mem::swap(&mut s.current, &mut s.next);
            if !anchored && self.any_match(&s.current) {
                return true;
            }
            while let Some(ch) = c {
                c = chars.next();
                let at_end = c.is_none();
                s.clear_next();
                for i in 0..s.current.len() {
                    if let State::Char(m, to) = &self.states[s.current[i]] {
                        if m.matches(ch) {
                            self.add_state(s, *to, false, at_end);
                        }
                    }
                }
                if !anchored {
                    self.add_state(s, self.start, false, at_end);
                }
                std::mem::swap(&mut s.current, &mut s.next);
                if anchored {
                    if s.current.is_empty() {
                        return false;
                    }
                } else if self.any_match(&s.current) {
                    return true;
                }
            }
            anchored && self.any_match(&s.current)
        })
    }

    fn any_match(&self, list: &[usize]) -> bool {
        list.iter().any(|&s| matches!(self.states[s], State::Match))
    }

    /// Add `state` plus its epsilon closure to the scratch's next list,
    /// stamping each visited state with the current generation.
    /// Depth-first with an explicit stack, the second branch of a split
    /// after the whole closure of the first, so consuming states land in
    /// the list in the order a recursive walk would put them and no
    /// pattern can overflow the call stack.
    fn add_state(&self, s: &mut Scratch, state: usize, at_start: bool, at_end: bool) {
        s.stack.push(state);
        while let Some(state) = s.stack.pop() {
            if s.marks[state] == s.generation {
                continue;
            }
            s.marks[state] = s.generation;
            match &self.states[state] {
                State::Split(a, b) => {
                    s.stack.push(*b);
                    s.stack.push(*a);
                }
                State::AssertStart(next) => {
                    if at_start {
                        s.stack.push(*next);
                    }
                }
                State::AssertEnd(next) => {
                    if at_end {
                        s.stack.push(*next);
                    }
                }
                State::Char(..) | State::Match => s.next.push(state),
            }
        }
    }

    /// Fraction of `values` that fully match; `0.0` for an empty slice.
    #[must_use]
    pub fn match_fraction<S: AsRef<str>>(&self, values: &[S]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let hits = values
            .iter()
            .filter(|v| self.is_full_match(v.as_ref()))
            .count();
        hits as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn literal_full_match() {
        let r = re("abc");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("ab"));
        assert!(!r.is_full_match("abcd"));
        assert!(!r.is_full_match(""));
    }

    #[test]
    fn empty_pattern() {
        let r = re("");
        assert!(r.is_full_match(""));
        assert!(!r.is_full_match("a"));
        assert!(r.is_match("anything"));
    }

    #[test]
    fn star_plus_opt() {
        let r = re("ab*c");
        assert!(r.is_full_match("ac"));
        assert!(r.is_full_match("abbbc"));
        assert!(!r.is_full_match("abb"));
        let r = re("ab+c");
        assert!(!r.is_full_match("ac"));
        assert!(r.is_full_match("abc"));
        let r = re("ab?c");
        assert!(r.is_full_match("ac"));
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("abbc"));
    }

    #[test]
    fn counted_repeats() {
        let r = re(r"\d{3}-\d{4}");
        assert!(r.is_full_match("555-0199"));
        assert!(!r.is_full_match("55-0199"));
        let r = re("a{2,4}");
        assert!(!r.is_full_match("a"));
        assert!(r.is_full_match("aa"));
        assert!(r.is_full_match("aaaa"));
        assert!(!r.is_full_match("aaaaa"));
        let r = re("a{2,}");
        assert!(r.is_full_match("aaaaaa"));
        assert!(!r.is_full_match("a"));
        let r = re("a{0,2}");
        assert!(r.is_full_match(""));
        assert!(r.is_full_match("aa"));
        assert!(!r.is_full_match("aaa"));
    }

    #[test]
    fn alternation() {
        let r = re("cat|dog|bird");
        assert!(r.is_full_match("cat"));
        assert!(r.is_full_match("bird"));
        assert!(!r.is_full_match("catdog"));
        let r = re("(ab|cd)+");
        assert!(r.is_full_match("abcdab"));
        assert!(!r.is_full_match("abc"));
    }

    #[test]
    fn classes_and_shorthands() {
        let r = re("[a-f0-9]+");
        assert!(r.is_full_match("deadbeef42"));
        assert!(!r.is_full_match("xyz"));
        let r = re("[^0-9]+");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("ab1"));
        let r = re(r"\w+@\w+\.\w{2,3}");
        assert!(r.is_full_match("ada@sigma.com"));
        assert!(!r.is_full_match("ada@sigma"));
    }

    #[test]
    fn anchors_in_search() {
        let r = re("^abc");
        assert!(r.is_match("abcdef"));
        assert!(!r.is_match("xabc"));
        let r = re("xyz$");
        assert!(r.is_match("wxyz"));
        assert!(!r.is_match("xyzw"));
        let r = re("^only$");
        assert!(r.is_match("only"));
        assert!(!r.is_match("only "));
    }

    #[test]
    fn search_vs_full() {
        let r = re("bc");
        assert!(r.is_match("abcd"));
        assert!(!r.is_full_match("abcd"));
        assert!(r.is_match("bc"));
    }

    #[test]
    fn unicode_input() {
        let r = re("é+");
        assert!(r.is_full_match("ééé"));
        let r = re(".");
        assert!(r.is_full_match("漢"));
    }

    #[test]
    fn pathological_no_blowup() {
        // (a*)* style patterns are linear here, not exponential.
        let r = re("(a*)*b");
        let input = "a".repeat(200);
        assert!(!r.is_full_match(&input));
        let ok = format!("{input}b");
        assert!(r.is_full_match(&ok));
        // a?^n a^n — the classic backtracking killer.
        let n = 20;
        let patt = format!("{}{}", "a?".repeat(n), "a".repeat(n));
        let r = re(&patt);
        assert!(r.is_full_match(&"a".repeat(n)));
    }

    #[test]
    fn match_fraction() {
        let r = re(r"\d+");
        let vals = ["1", "22", "x", "333"];
        assert!((r.match_fraction(&vals) - 0.75).abs() < 1e-12);
        assert_eq!(r.match_fraction::<&str>(&[]), 0.0);
    }

    #[test]
    fn nested_repeats() {
        let r = re("(ab{2}){2}");
        assert!(r.is_full_match("abbabb"));
        assert!(!r.is_full_match("abab"));
    }

    /// A ~2,000-state regex: `\d{1000}` then one to 500 letters.
    fn big() -> Regex {
        let r = re(r"\d{1000}[a-z]{1,500}");
        assert!((1_900..=2_100).contains(&r.n_states()), "{}", r.n_states());
        r
    }

    /// Interleave a ~2-state and a ~2,000-state regex on one thread's
    /// scratch, checking every answer: buffers sized for one must not
    /// leak stale marks into the other.
    fn interleave(small: &Regex, big: &Regex) {
        let digits = "7".repeat(1000);
        assert!(big.is_match(&format!("--{digits}q")));
        for round in 0..20 {
            assert!(small.is_full_match("ab"));
            assert!(!small.is_full_match("abb"));
            assert!(big.is_full_match(&format!("{digits}xyz")));
            assert!(!big.is_full_match(&digits), "round {round}");
            assert!(small.is_match("zzabzz"));
            assert!(!big.is_full_match(&format!("{digits}x1")));
            assert!(!big.is_match("x1"));
            assert!(!small.is_match("ba"));
        }
    }

    #[test]
    fn small_and_large_regexes_share_scratch() {
        let small = re("ab");
        assert!(small.n_states() <= 3);
        let big = big();
        interleave(&small, &big);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| interleave(&small, &big));
            }
        });
        interleave(&small, &big);
    }

    #[test]
    fn generation_wraparound_clears_marks() {
        let small = re("ab");
        let big = big();
        // A fresh thread: its first match stamps states with the lowest
        // generations, which the counter hands out again once it wraps.
        std::thread::spawn(move || {
            let input = format!("{}xyz", "7".repeat(1000));
            assert!(big.is_full_match(&input));
            SCRATCH.with(|s| s.borrow_mut().generation = u32::MAX);
            assert!(big.is_full_match(&input), "stale stamps after the wrap");
            SCRATCH.with(|s| s.borrow_mut().generation = u32::MAX - 3);
            interleave(&small, &big);
            let generation = SCRATCH.with(|s| s.borrow().generation);
            assert!(generation < 1_000_000, "counter wrapped: {generation}");
        })
        .join()
        .expect("no panic");
    }

    #[test]
    fn pattern_accessor() {
        assert_eq!(re("a+").pattern(), "a+");
        assert!(re("a+").n_states() >= 2);
    }
}
