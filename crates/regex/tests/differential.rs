//! Differential testing: the Pike-VM engine must agree with the naive
//! backtracking oracle, and with a verbatim transcription of the engine
//! before its matcher reused per-thread buffers, on randomly generated
//! ASTs and inputs.

use proptest::prelude::*;
use tu_regex::ast::{Ast, CharMatcher, ClassItem};
use tu_regex::nfa::Regex;
use tu_regex::oracle::backtrack_full_match;

/// The engine as it stood before the matcher shared one simulation
/// loop and per-thread buffers: its Thompson compiler and its
/// `is_full_match` / `is_match`, transcribed verbatim (each character
/// collects a fresh state list and visited vector).
mod seed {
    use tu_regex::ast::{Ast, CharMatcher};

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

    /// Sentinel for "not yet patched" transition targets.
    const HOLE: usize = usize::MAX;

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

    /// A compiled seed regex.
    pub struct SeedRegex {
        states: Vec<State>,
        start: usize,
    }

    impl SeedRegex {
        pub fn from_ast(ast: &Ast) -> Self {
            let mut c = Compiler { states: Vec::new() };
            let frag = c.compile(ast);
            let m = c.push(State::Match);
            c.patch(&frag.outs, m);
            SeedRegex {
                states: c.states,
                start: frag.start,
            }
        }

        /// Add `state` plus its epsilon closure to `set`.
        fn add_state(
            &self,
            set: &mut Vec<usize>,
            on: &mut [bool],
            state: usize,
            at_start: bool,
            at_end: bool,
        ) {
            if on[state] {
                return;
            }
            on[state] = true;
            match &self.states[state] {
                State::Split(a, b) => {
                    let (a, b) = (*a, *b);
                    self.add_state(set, on, a, at_start, at_end);
                    self.add_state(set, on, b, at_start, at_end);
                }
                State::AssertStart(next) => {
                    let next = *next;
                    if at_start {
                        self.add_state(set, on, next, at_start, at_end);
                    }
                }
                State::AssertEnd(next) => {
                    let next = *next;
                    if at_end {
                        self.add_state(set, on, next, at_start, at_end);
                    }
                }
                State::Char(..) | State::Match => set.push(state),
            }
        }

        /// Does the pattern match the **entire** input string?
        ///
        /// This is the semantics used by the value-lookup step: a cell either
        /// *is* a phone number or it is not; substring hits would inflate
        /// confidence.
        pub fn is_full_match(&self, input: &str) -> bool {
            let chars: Vec<char> = input.chars().collect();
            let n = chars.len();
            let mut current: Vec<usize> = Vec::with_capacity(self.states.len());
            let mut on = vec![false; self.states.len()];
            self.add_state(&mut current, &mut on, self.start, true, n == 0);
            for (i, &c) in chars.iter().enumerate() {
                let at_end_next = i + 1 == n;
                let mut next: Vec<usize> = Vec::with_capacity(self.states.len());
                let mut on_next = vec![false; self.states.len()];
                for &s in &current {
                    if let State::Char(m, to) = &self.states[s] {
                        if m.matches(c) {
                            self.add_state(&mut next, &mut on_next, *to, false, at_end_next);
                        }
                    }
                }
                current = next;
                on = on_next;
                if current.is_empty() {
                    return false;
                }
            }
            let _ = on;
            current
                .iter()
                .any(|&s| matches!(self.states[s], State::Match))
        }

        /// Does the pattern match anywhere in the input (unanchored search)?
        pub fn is_match(&self, input: &str) -> bool {
            let chars: Vec<char> = input.chars().collect();
            let n = chars.len();
            let mut current: Vec<usize> = Vec::with_capacity(self.states.len());
            let mut on = vec![false; self.states.len()];
            self.add_state(&mut current, &mut on, self.start, true, n == 0);
            if current
                .iter()
                .any(|&s| matches!(self.states[s], State::Match))
            {
                return true;
            }
            for (i, &c) in chars.iter().enumerate() {
                let at_end_next = i + 1 == n;
                let mut next: Vec<usize> = Vec::with_capacity(self.states.len());
                let mut on_next = vec![false; self.states.len()];
                for &s in &current {
                    if let State::Char(m, to) = &self.states[s] {
                        if m.matches(c) {
                            self.add_state(&mut next, &mut on_next, *to, false, at_end_next);
                        }
                    }
                }
                // Unanchored: also restart the pattern at position i+1.
                self.add_state(&mut next, &mut on_next, self.start, false, at_end_next);
                current = next;
                on = on_next;
                if current
                    .iter()
                    .any(|&s| matches!(self.states[s], State::Match))
                {
                    return true;
                }
            }
            let _ = on;
            false
        }
    }
}

/// Strategy for a random AST over the alphabet {a, b, c}.
fn ast_strategy() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::Empty),
        prop_oneof![Just('a'), Just('b'), Just('c')]
            .prop_map(|c| Ast::Char(CharMatcher::Literal(c))),
        Just(Ast::Char(CharMatcher::Any)),
        Just(Ast::Char(CharMatcher::Class {
            negated: false,
            items: vec![ClassItem::Range('a', 'b')],
        })),
        Just(Ast::Char(CharMatcher::Class {
            negated: true,
            items: vec![ClassItem::Char('a')],
        })),
        Just(Ast::StartAnchor),
        Just(Ast::EndAnchor),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::Alt),
            (inner, 0u32..3, 0u32..3).prop_map(|(node, min, extra)| Ast::Repeat {
                node: Box::new(node),
                min,
                max: if extra == 0 { None } else { Some(min + extra) },
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn nfa_agrees_with_oracle(ast in ast_strategy(), input in "[abcd]{0,8}") {
        let regex = Regex::from_ast(&ast, "<generated>");
        let nfa = regex.is_full_match(&input);
        let oracle = backtrack_full_match(&ast, &input);
        prop_assert_eq!(nfa, oracle, "ast={:?} input={:?}", ast, input);
    }

    #[test]
    fn nfa_agrees_with_seed_engine(ast in ast_strategy(), input in "[abcd]{0,8}") {
        let regex = Regex::from_ast(&ast, "<generated>");
        let seed = seed::SeedRegex::from_ast(&ast);
        prop_assert_eq!(regex.is_full_match(&input), seed.is_full_match(&input),
            "full: ast={:?} input={:?}", ast, input);
        prop_assert_eq!(regex.is_match(&input), seed.is_match(&input),
            "search: ast={:?} input={:?}", ast, input);
    }

    #[test]
    fn search_agrees_with_oracle(ast in ast_strategy(), input in "[abcd]{0,8}") {
        // Unanchored search is a full match of `.*(ast).*`.
        let any = || Ast::Repeat {
            node: Box::new(Ast::Char(CharMatcher::Any)),
            min: 0,
            max: None,
        };
        let search = Ast::Concat(vec![any(), ast.clone(), any()]);
        let regex = Regex::from_ast(&ast, "<generated>");
        prop_assert_eq!(regex.is_match(&input), backtrack_full_match(&search, &input),
            "ast={:?} input={:?}", ast, input);
    }

    #[test]
    fn parse_then_match_agrees_with_oracle(
        pattern in r"[abc\.\*\+\?\|\(\)]{0,10}",
        input in "[abc]{0,6}",
    ) {
        // Only well-formed patterns are exercised; parse errors are fine.
        if let Ok(ast) = tu_regex::parse(&pattern) {
            let regex = Regex::from_ast(&ast, &pattern);
            prop_assert_eq!(
                regex.is_full_match(&input),
                backtrack_full_match(&ast, &input),
                "pattern={:?} input={:?}", pattern, input
            );
        }
    }

    #[test]
    fn full_match_implies_search_match(ast in ast_strategy(), input in "[abcd]{0,8}") {
        let regex = Regex::from_ast(&ast, "<generated>");
        if regex.is_full_match(&input) {
            prop_assert!(regex.is_match(&input));
        }
    }

    #[test]
    fn synthesized_regex_matches_all_examples(
        examples in prop::collection::vec("[a-z]{1,4}-?[0-9]{1,5}", 1..6)
    ) {
        let refs: Vec<&str> = examples.iter().map(String::as_str).collect();
        if let Some(s) = tu_regex::synthesize(&refs, &tu_regex::SynthesisConfig::default()) {
            for e in &refs {
                prop_assert!(s.regex.is_full_match(e), "pattern={} example={}", s.pattern, e);
            }
            // The rendered pattern must be re-parseable and equivalent on the examples.
            let reparsed = Regex::new(&s.pattern).unwrap();
            for e in &refs {
                prop_assert!(reparsed.is_full_match(e));
            }
        }
    }
}
