//! Seeded workload generator.
//!
//! Tables come straight from the `tu_corpus` templates; every choice
//! (template, rows, inflation, appended rows, corrections) is drawn
//! from RNGs derived from the benchmark's `--seed`, so one seed always
//! yields the same request bodies, byte for byte. The server only ever
//! sees these bodies.

use jsonshim::Json;
use rand::prelude::*;
use sigmatyper::StableHasher;
use std::sync::Arc;
use tu_corpus::corpus::generate_table;
use tu_corpus::headers::HeaderStyle;
use tu_corpus::{CorpusConfig, TableProfile, TEMPLATES};
use tu_ontology::{Ontology, TypeId};
use tu_table::{Column, Table, Value};

/// Share of crawl tables that are row-inflated.
pub const CRAWL_INFLATED_SHARE: f64 = 0.3;
/// Row multiplier of an inflated crawl table.
pub const CRAWL_INFLATION: usize = 8;
/// Share of crawl columns whose header is opaque (`field_3`, `c7`, …).
pub const CRAWL_OPAQUE_RATE: f64 = 0.5;
/// Share of pass-2 recrawls that append rows and send a `base`.
pub const CRAWL_APPEND_SHARE: f64 = 0.5;
/// Rows appended by a delta recrawl, as a share of the table's rows.
pub const CRAWL_APPEND_FRACTION: f64 = 0.01;

/// HTTP endpoint of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /annotate`.
    Annotate,
    /// `POST /annotate_batch`.
    Batch,
    /// `POST /feedback`.
    Feedback,
}

impl Endpoint {
    /// Request path.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Annotate => "/annotate",
            Endpoint::Batch => "/annotate_batch",
            Endpoint::Feedback => "/feedback",
        }
    }
}

/// Admission lane (`x-sigma-lane`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The default lane.
    Interactive,
    /// The background lane.
    Crawl,
}

/// A generated table: the table, its wire JSON and its ground truth.
#[derive(Debug, Clone)]
pub struct GenTable {
    /// The table as generated.
    pub table: Table,
    /// `{"name": …, "columns": […]}` as sent.
    pub json: Arc<str>,
    /// Ground-truth type per column (`UNKNOWN` for none).
    pub labels: Arc<[TypeId]>,
    /// Hash of `json`: the key under which an answer can be reused
    /// while the model is unchanged.
    pub key: u64,
}

impl GenTable {
    fn new(table: Table, labels: Arc<[TypeId]>) -> Self {
        let json: Arc<str> = table_json(&table).into();
        let mut hasher = StableHasher::new();
        hasher.write_str(&json);
        let key = hasher.finish128()[0];
        GenTable {
            table,
            json,
            labels,
            key,
        }
    }
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Where it goes.
    pub endpoint: Endpoint,
    /// Which lane it is admitted on.
    pub lane: Lane,
    /// The exact body sent.
    pub body: Arc<str>,
    /// Ground truth per returned outcome (none for feedback).
    pub labels: Vec<Arc<[TypeId]>>,
    /// Per returned outcome: the table key when the answer depends on
    /// the table and the model alone, `None` when a base is involved.
    pub memo: Vec<Option<u64>>,
}

impl Op {
    /// `POST /annotate` of one table.
    #[must_use]
    pub fn annotate(t: &GenTable, lane: Lane) -> Op {
        Op {
            endpoint: Endpoint::Annotate,
            lane,
            body: format!("{{\"table\":{}}}", t.json).into(),
            labels: vec![Arc::clone(&t.labels)],
            memo: vec![Some(t.key)],
        }
    }

    /// `POST /annotate` of a recrawl that sends its previous crawl.
    #[must_use]
    pub fn recrawl(t: &GenTable, base: &GenTable, lane: Lane) -> Op {
        Op {
            endpoint: Endpoint::Annotate,
            lane,
            body: format!("{{\"table\":{},\"base\":{}}}", t.json, base.json).into(),
            labels: vec![Arc::clone(&t.labels)],
            memo: vec![None],
        }
    }

    /// `POST /annotate_batch` of several tables.
    #[must_use]
    pub fn batch(ts: &[GenTable], lane: Lane) -> Op {
        let tables: Vec<&str> = ts.iter().map(|t| &*t.json).collect();
        Op {
            endpoint: Endpoint::Batch,
            lane,
            body: format!("{{\"tables\":[{}]}}", tables.join(",")).into(),
            labels: ts.iter().map(|t| Arc::clone(&t.labels)).collect(),
            memo: ts.iter().map(|t| Some(t.key)).collect(),
        }
    }

    /// `POST /feedback` labelling column `col_idx` of `t` as `type_name`.
    #[must_use]
    pub fn feedback(t: &GenTable, col_idx: usize, type_name: &str) -> Op {
        Op {
            endpoint: Endpoint::Feedback,
            lane: Lane::Interactive,
            body: format!(
                "{{\"table\":{},\"col_idx\":{col_idx},\"type\":{}}}",
                t.json,
                Json::from(type_name)
            )
            .into(),
            labels: Vec::new(),
            memo: Vec::new(),
        }
    }

    /// Number of tables the request annotates.
    #[must_use]
    pub fn tables(&self) -> usize {
        self.labels.len()
    }
}

/// An RNG for one purpose (`salt`) of one benchmark seed.
#[must_use]
pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Wire JSON of a table: cells rendered as strings, nulls as `null`.
#[must_use]
pub fn table_json(table: &Table) -> String {
    let columns = table
        .columns()
        .iter()
        .map(|c| {
            let values = c
                .values
                .iter()
                .map(|v| match v {
                    Value::Null => Json::Null,
                    v => Json::from(v.render()),
                })
                .collect();
            Json::object(vec![
                ("header", Json::from(c.name.as_str())),
                ("values", Json::Arr(values)),
            ])
        })
        .collect();
    Json::object(vec![
        ("name", Json::from(table.name.as_str())),
        ("columns", Json::Arr(columns)),
    ])
    .to_string()
}

/// Draws tables from the corpus templates, dealt from a shuffled deck
/// so that every template comes up once before any comes up again: the
/// mix of table shapes, and so the cost of a workload, varies little
/// between seeds.
pub struct TableGen<'o> {
    ontology: &'o Ontology,
    rng: StdRng,
    next_index: usize,
    /// Indices into `TEMPLATES` still to deal.
    deck: Vec<usize>,
}

impl<'o> TableGen<'o> {
    /// A generator over `ontology` seeded from `rng`.
    #[must_use]
    pub fn new(ontology: &'o Ontology, rng: StdRng) -> Self {
        TableGen {
            ontology,
            rng,
            next_index: 0,
            deck: Vec::new(),
        }
    }

    /// One database-like table with a share `opaque_rate` of opaque
    /// headers, inflated `inflation`× by cycling its rows.
    pub fn table(&mut self, opaque_rate: f64, inflation: usize) -> GenTable {
        let mut config = CorpusConfig::database_like(0, 1);
        config.opaque_header_rate = opaque_rate;
        let style = HeaderStyle::for_profile(TableProfile::DatabaseLike);
        if self.deck.is_empty() {
            self.deck = (0..TEMPLATES.len()).collect();
            self.deck.shuffle(&mut self.rng);
        }
        let template = self.deck.pop().expect("the corpus has templates");
        let at = generate_table(
            self.ontology,
            &mut self.rng,
            &TEMPLATES[template],
            &config,
            &style,
            self.next_index,
        );
        self.next_index += 1;
        let table = if inflation > 1 {
            cycle_rows(&at.table, at.table.n_rows() * inflation)
        } else {
            at.table
        };
        GenTable::new(table, at.labels.into())
    }

    /// `t` with about `fraction` of its rows appended (at least one),
    /// each a copy of a seeded pick among the existing rows.
    pub fn append_rows(&mut self, t: &GenTable, fraction: f64) -> GenTable {
        let rows = t.table.n_rows();
        let extra = ((rows as f64 * fraction).round() as usize).max(1);
        let picks: Vec<usize> = (0..extra)
            .map(|_| self.rng.random_range(0..rows.max(1)))
            .collect();
        let columns = t
            .table
            .columns()
            .iter()
            .map(|c| {
                let mut values = c.values.clone();
                values.extend(picks.iter().filter_map(|&r| c.values.get(r).cloned()));
                Column::new(c.name.clone(), values)
            })
            .collect();
        let table = Table::new(t.table.name.clone(), columns)
            .expect("appending whole rows keeps the table rectangular");
        GenTable::new(table, Arc::clone(&t.labels))
    }

    /// The generator's RNG, for choices outside table content.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// `table` cut or grown to `target` rows by cycling its rows.
fn cycle_rows(table: &Table, target: usize) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|c| {
            let values = (0..target)
                .map(|i| c.values[i % c.values.len()].clone())
                .collect();
            Column::new(c.name.clone(), values)
        })
        .collect();
    Table::new(table.name.clone(), columns).expect("cycling rows keeps the table rectangular")
}

/// Seeded draws of a yes/no choice at a fixed share, dealt from
/// shuffled blocks of ten so that every ten draws hold the share
/// exactly: the traffic mix, and so the figures, vary little between
/// seeds.
pub struct Deck {
    yes_per_ten: usize,
    cards: Vec<bool>,
}

impl Deck {
    /// A deck answering yes `share` of the time.
    #[must_use]
    pub fn new(share: f64) -> Self {
        Deck {
            yes_per_ten: (share * 10.0).round() as usize,
            cards: Vec::new(),
        }
    }

    /// The next draw.
    pub fn draw(&mut self, rng: &mut StdRng) -> bool {
        if self.cards.is_empty() {
            self.cards = (0..10).map(|i| i < self.yes_per_ten).collect();
            self.cards.shuffle(rng);
        }
        self.cards.pop().expect("refilled above")
    }
}

/// `crawl`: one cycle of `n` fresh database-like tables. Pass 1 sends
/// them in batches of `batch`; pass 2 recrawls each one, unchanged or
/// with appended rows and its pass-1 version as `base`.
pub struct CrawlCycle {
    /// `POST /annotate_batch` requests.
    pub pass1: Vec<Op>,
    /// `POST /annotate` recrawls.
    pub pass2: Vec<Op>,
}

/// `crawl`'s choices: which tables are inflated, which recrawls append.
pub struct CrawlMix {
    inflated: Deck,
    append: Deck,
}

impl CrawlMix {
    /// Decks at the documented shares.
    #[must_use]
    pub fn new() -> Self {
        CrawlMix {
            inflated: Deck::new(CRAWL_INFLATED_SHARE),
            append: Deck::new(CRAWL_APPEND_SHARE),
        }
    }
}

/// Generate one crawl cycle.
pub fn crawl_cycle(
    gen: &mut TableGen<'_>,
    mix: &mut CrawlMix,
    n: usize,
    batch: usize,
) -> CrawlCycle {
    let tables: Vec<GenTable> = (0..n)
        .map(|_| {
            let inflation = if mix.inflated.draw(gen.rng()) {
                CRAWL_INFLATION
            } else {
                1
            };
            gen.table(CRAWL_OPAQUE_RATE, inflation)
        })
        .collect();
    let pass1 = tables
        .chunks(batch)
        .map(|chunk| Op::batch(chunk, Lane::Crawl))
        .collect();
    let pass2 = tables
        .iter()
        .map(|t| {
            if mix.append.draw(gen.rng()) {
                let grown = gen.append_rows(t, CRAWL_APPEND_FRACTION);
                Op::recrawl(&grown, t, Lane::Crawl)
            } else {
                Op::annotate(t, Lane::Crawl)
            }
        })
        .collect();
    CrawlCycle { pass1, pass2 }
}

/// `adapt`: the fixed set of database-like tables it re-annotates. Their
/// row counts are spread evenly over the database-like range and dealt
/// in a seeded order, so the set holds the same number of rows for
/// every seed.
pub fn adapt_tables(gen: &mut TableGen<'_>, n: usize) -> Vec<GenTable> {
    let (lo, hi) = TableProfile::DatabaseLike.row_range();
    let mut rows: Vec<usize> = (0..n)
        .map(|k| lo + (hi - lo) * (2 * k + 1) / (2 * n))
        .collect();
    rows.shuffle(gen.rng());
    rows.into_iter()
        .map(|r| {
            let t = gen.table(0.3, 1);
            GenTable::new(cycle_rows(&t.table, r), t.labels)
        })
        .collect()
}

/// The correction to send after round `round`. Tables take turns in a
/// fixed rotation, so each is corrected equally often whatever the
/// answers, and the feedbacks refit the local model over the same rows
/// for every seed. The table's first labelled column whose latest
/// answer differs from its label (an abstention counts as wrong) is
/// corrected; when every one is right, one of its labelled columns, in
/// turn, is confirmed instead. `latest[t][c]` is the type name last
/// returned for column `c` of table `t`. Returns `(table, column,
/// label)`.
#[must_use]
pub fn choose_correction(
    tables: &[GenTable],
    latest: &[Vec<Option<String>>],
    ontology: &Ontology,
    round: usize,
) -> (usize, usize, String) {
    let t = round % tables.len();
    let labelled: Vec<(usize, &str)> = tables[t]
        .labels
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_unknown())
        .map(|(c, l)| (c, ontology.name(*l)))
        .collect();
    let (c, name) = labelled
        .iter()
        .find(|(c, name)| latest[t].get(*c).cloned().flatten().as_deref() != Some(*name))
        .copied()
        .unwrap_or(labelled[(round / tables.len()) % labelled.len()]);
    (t, c, name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_ontology::builtin_ontology;

    fn bodies(seed: u64) -> Vec<u8> {
        let ontology = builtin_ontology();
        let mut out = Vec::new();
        let mut gen = TableGen::new(&ontology, rng_for(seed, 3));
        let cycle = crawl_cycle(&mut gen, &mut CrawlMix::new(), 10, 5);
        for op in cycle.pass1.iter().chain(&cycle.pass2) {
            out.extend_from_slice(op.body.as_bytes());
        }
        let mut gen = TableGen::new(&ontology, rng_for(seed, 4));
        let tables = adapt_tables(&mut gen, 3);
        let latest: Vec<Vec<Option<String>>> =
            tables.iter().map(|t| vec![None; t.labels.len()]).collect();
        let (t, c, name) = choose_correction(&tables, &latest, &ontology, 0);
        out.extend_from_slice(Op::feedback(&tables[t], c, &name).body.as_bytes());
        out
    }

    #[test]
    fn one_seed_one_byte_stream_another_seed_another() {
        let a = bodies(11);
        assert!(a.len() > 100_000, "the stream covers real tables");
        assert_eq!(a, bodies(11), "the same seed must give identical bodies");
        assert_ne!(a, bodies(12), "another seed must give other bodies");
    }

    #[test]
    fn crawl_cycle_has_the_documented_shape() {
        let ontology = builtin_ontology();
        let mut gen = TableGen::new(&ontology, rng_for(5, 3));
        let cycle = crawl_cycle(&mut gen, &mut CrawlMix::new(), 20, 4);
        assert_eq!(cycle.pass1.len(), 5);
        assert_eq!(cycle.pass2.len(), 20);
        let recrawls = cycle.pass2.iter().filter(|o| o.memo[0].is_none()).count();
        assert_eq!(recrawls, 10, "half the recrawls append rows");
        // Unchanged recrawls reuse a pass-1 table verbatim.
        let pass1_keys: Vec<u64> = cycle
            .pass1
            .iter()
            .flat_map(|o| o.memo.clone())
            .flatten()
            .collect();
        for op in cycle.pass2.iter().filter(|o| o.memo[0].is_some()) {
            assert!(pass1_keys.contains(&op.memo[0].unwrap()));
        }
    }

    #[test]
    fn tables_take_turns_and_a_wrong_column_comes_first() {
        let ontology = builtin_ontology();
        let mut gen = TableGen::new(&ontology, rng_for(9, 4));
        let tables = adapt_tables(&mut gen, 2);
        let mut latest: Vec<Vec<Option<String>>> = tables
            .iter()
            .map(|t| {
                t.labels
                    .iter()
                    .map(|l| Some(ontology.name(*l).to_owned()))
                    .collect()
            })
            .collect();
        latest[1][0] = None;
        // Table 1's turn: its wrong column is corrected.
        let (t, c, name) = choose_correction(&tables, &latest, &ontology, 1);
        assert_eq!((t, c), (1, 0));
        assert_eq!(name, ontology.name(tables[1].labels[0]));
        // Table 0's turn: every column is right, so one is confirmed.
        let (t, c, name) = choose_correction(&tables, &latest, &ontology, 2);
        assert_eq!(t, 0);
        assert_eq!(latest[0][c].as_deref(), Some(name.as_str()));
    }
}
