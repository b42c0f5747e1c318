//! Experiment E4 — label filtering: §3.2 maps every (potentially
//! multi-word) CLC label to an ASCII character "thereby avoiding the
//! manipulation of long strings", and §3.1 defines the three label
//! operators.  This bench compares the three operators on the ASCII-coded
//! representation against the same queries over full label-name arrays.
//!
//! Note: these collections carry no attribute indexes, so both sides are
//! measured as pure scans — the representation cost alone.  On an indexed
//! collection the same label predicates compile to per-element posting
//! bitmaps and skip the scan entirely; that path is priced by
//! `bench_e2e --trace 1` (`eq_docstore.mask_resolve_us`, `filtered.*`).

use criterion::{criterion_group, criterion_main, Criterion};
use eq_bench::metadata;
use eq_bigearthnet::Label;
use eq_docstore::{Collection, Document, Filter, Value};
use eq_earthqube::schema::{fields, metadata_document};
use eq_earthqube::{LabelFilter, LabelOperator};
use std::hint::black_box;

const N: usize = 20_000;

/// Builds the paper's collection (ASCII-coded labels) and a variant that
/// stores the full label names as a string array.
fn build_collections() -> (Collection, Collection) {
    let metas = metadata(N, 44);
    let mut coded = Collection::new("metadata_coded", fields::NAME);
    let mut verbose = Collection::new("metadata_verbose", fields::NAME);
    for meta in &metas {
        coded.insert(metadata_document(meta)).unwrap();
        let names: Vec<Value> =
            meta.labels.iter().map(|l| Value::Str(l.name().to_string())).collect();
        verbose
            .insert(
                Document::new()
                    .with(fields::NAME, meta.name.as_str())
                    .with("label_names", Value::Array(names)),
            )
            .unwrap();
    }
    (coded, verbose)
}

fn verbose_filter(op: LabelOperator, labels: &[Label]) -> Filter {
    let names: Vec<Value> = labels.iter().map(|l| Value::Str(l.name().to_string())).collect();
    match op {
        LabelOperator::Some => Filter::ContainsAny("label_names".into(), names),
        LabelOperator::Exactly => Filter::ContainsExactly("label_names".into(), names),
        LabelOperator::AtLeastAndMore => Filter::ContainsAll("label_names".into(), names),
    }
}

fn bench_label_filtering(c: &mut Criterion) {
    let (coded, verbose) = build_collections();
    let selection = vec![Label::ConiferousForest, Label::BeachesDunesSands, Label::SeaAndOcean];

    for op in [LabelOperator::Some, LabelOperator::Exactly, LabelOperator::AtLeastAndMore] {
        let lf = LabelFilter::new(op, selection.clone());
        println!(
            "[E4] operator {:?}: {} of {N} images match (ASCII-coded path)",
            op,
            coded.count(&lf.to_filter())
        );
    }

    let mut group = c.benchmark_group("e4_label_filtering");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for (op, tag) in [
        (LabelOperator::Some, "some"),
        (LabelOperator::Exactly, "exactly"),
        (LabelOperator::AtLeastAndMore, "at_least_and_more"),
    ] {
        let coded_filter = LabelFilter::new(op, selection.clone()).to_filter();
        let verbose_f = verbose_filter(op, &selection);
        group.bench_function(format!("ascii_codes_{tag}"), |b| {
            b.iter(|| black_box(coded.count(black_box(&coded_filter))))
        });
        group.bench_function(format!("full_strings_{tag}"), |b| {
            b.iter(|| black_box(verbose.count(black_box(&verbose_f))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_label_filtering);
criterion_main!(benches);
