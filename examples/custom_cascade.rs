//! Composing a custom cascade: insert the standalone regex-bank step,
//! reweight it, drop the embedding stage for a low-latency profile, and
//! register a fully custom user-defined step end to end.
//!
//! ```text
//! cargo run --release --example custom_cascade
//! ```

use sigmatyper::{
    train_global, AnnotationStep, Candidate, RegexOnlyStep, SigmaTyper, Step, StepContext, StepId,
    StepScores, TrainingConfig,
};
use std::sync::Arc;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_ontology, TypeId, ValueKind};
use tu_table::{Column, Table};

/// A deployment-specific step: this customer's ticket references all
/// carry a `TKT-` prefix, which no global signal knows about. The step
/// claims a column when every sampled value matches the prefix.
#[derive(Debug)]
struct TicketPrefixStep {
    ticket_type: TypeId,
}

impl AnnotationStep for TicketPrefixStep {
    fn id(&self) -> StepId {
        StepId::custom(0)
    }

    fn name(&self) -> &str {
        "ticket-prefix"
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        let values: Vec<String> = ctx
            .column()
            .sample(ctx.config.lookup_sample)
            .into_iter()
            .map(tu_table::Value::render)
            .collect();
        if !values.is_empty() && values.iter().all(|v| v.starts_with("TKT-")) {
            StepScores::from_candidates(vec![Candidate {
                ty: self.ticket_type,
                confidence: 0.99,
            }])
        } else {
            StepScores::default()
        }
    }
}

fn main() {
    // Shared global model, pretrained once (Figure 2).
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 60));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));

    // This customer wants: header matching, then the bare regex bank
    // (their schemas are pattern-heavy), then value lookup — and no
    // embedding model at all (latency budget). The regex step's vote is
    // slightly discounted because range rules are ambiguous.
    let mut typer = SigmaTyper::builder(global)
        .step_at(1, RegexOnlyStep)
        .step_weight(StepId::REGEX_ONLY, 0.9)
        .without_step(Step::Embedding)
        .build();
    println!("cascade: {:?}", typer.cascade().step_ids());

    // Register the customer's own semantic type and the custom step
    // that detects it, running before everything else.
    let ticket = typer
        .register_custom_type("ticket id", ValueKind::Identifier, &["ticket ref"])
        .expect("\"ticket id\" is not a built-in type");
    typer.cascade_mut().insert(
        0,
        TicketPrefixStep {
            ticket_type: ticket,
        },
    );
    println!("with custom step: {:?}\n", typer.cascade().step_ids());

    let table = Table::new(
        "support_tickets",
        vec![
            Column::from_raw("zz_ref", &["TKT-00017", "TKT-00018", "TKT-00019"]),
            Column::from_raw("contact", &["ada@x.com", "bob@y.org", "eve@z.net"]),
            Column::from_raw("Cities", &["Oslo", "Lima", "Kyiv"]),
        ],
    )
    .expect("valid table");

    let annotation = typer.annotate(&table);
    println!("annotations for `support_tickets`:");
    for col in &annotation.columns {
        println!(
            "  {:<8} → {:<12} ({:.0}% confident, resolved by {:?})",
            table.headers()[col.col_idx],
            typer.ontology().name(col.predicted),
            col.confidence * 100.0,
            col.resolving_step(typer.config().cascade_threshold),
        );
    }

    // Per-step telemetry covers every configured step — including the
    // user-registered one — in execution order.
    println!("\nper-step telemetry:");
    for t in &annotation.timings {
        println!(
            "  {:<14} {:>8.1}µs  ({} column{} run)",
            t.name,
            t.nanos as f64 / 1e3,
            t.columns,
            if t.columns == 1 { "" } else { "s" }
        );
    }
}
