//! Property-based tests for the bitmap prefilter compiler: for random
//! corpora and random filter ASTs, the compiled plan must satisfy the
//! exactness contract
//!
//! ```text
//! filter.matches(doc) == bitmap.map_or(true, |b| b.contains(id))
//!                        && residual.matches(doc)
//! ```
//!
//! for every live document — i.e. resolving the bitmap and then running
//! the residual on its survivors yields exactly the naive full-scan match
//! set.  The corpus deliberately includes documents with missing fields
//! (`Ne` matches them, comparisons never do), a mixed int/float numeric
//! field whose values overlap numerically (where index-order equality and
//! `==` diverge, so equality leaves must resolve through the canonical
//! numeric postings to compile exactly) and multi-character element
//! needles (which can never match the per-character string elements).
//! Filters also land on the primary key (`Eq`/`In` there compile to point
//! lookups), and the last property pins [`Collection::find`] — the same
//! compiler, resolved — against the brute-force match list on corpora
//! grown by an insert-only stream.
//!
//! Filter ASTs are built from a drawn token stream by a small
//! recursive-descent constructor (the vendored proptest stub has no
//! `prop_recursive`), so every operator — leaves, supersets, uncompiled
//! fields and nested `And`/`Or`/`Not` — gets exercised.

use eq_docstore::{Collection, Document, Filter, Value};
use eq_geo::{haversine_km, BBox, Circle, GeoShape, Point};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Record {
    name: String,
    country: Option<&'static str>,
    labels: Option<String>,
    score: Option<Value>,
    lon: f64,
    lat: f64,
    date: i64,
}

fn arb_record(id: usize) -> impl Strategy<Value = Record> {
    (
        0u8..5,
        proptest::collection::vec(prop_oneof![Just('A'), Just('B'), Just('C')], 1..4),
        0u8..5,
        0u8..3,
        0i64..4,
        -9.0f64..25.0,
        37.0f64..65.0,
        0i64..1000,
    )
        .prop_map(move |(csel, lchars, lpresent, ssel, sval, lon, lat, date)| Record {
            name: format!("patch_{id}"),
            country: ["Portugal", "Austria", "Finland", "Serbia"].get(csel as usize).copied(),
            labels: (lpresent > 0).then(|| {
                let mut l = lchars;
                l.sort_unstable();
                l.dedup();
                l.into_iter().collect()
            }),
            // Half ints, half floats, overlapping numerically: Int(2) and
            // Float(2.0) land on the same B-tree key but are `!=`.
            score: match ssel {
                0 => None,
                1 => Some(Value::Int(sval)),
                _ => Some(Value::Float(sval as f64)),
            },
            lon,
            lat,
            date,
        })
}

fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    (1usize..32).prop_flat_map(|n| {
        let strategies: Vec<_> = (0..n).map(arb_record).collect();
        strategies
    })
}

fn to_doc(r: &Record) -> Document {
    let mut doc = Document::new()
        .with("name", r.name.as_str())
        .with("date", Value::Date(r.date))
        .with("location", Value::Array(vec![Value::Float(r.lon), Value::Float(r.lat)]));
    if let Some(c) = r.country {
        doc = doc.with("country", c);
    }
    if let Some(l) = &r.labels {
        doc = doc.with("labels", l.as_str());
    }
    if let Some(s) = &r.score {
        doc = doc.with("score", s.clone());
    }
    doc
}

fn build_collection(records: &[Record]) -> Collection {
    let mut coll = Collection::new("metadata", "name");
    coll.create_attribute_index("country");
    coll.create_attribute_index("labels");
    coll.create_attribute_index("date");
    coll.create_attribute_index("score");
    coll.create_geo_index("location").unwrap();
    for r in records {
        coll.insert(to_doc(r)).unwrap();
    }
    coll
}

/// One drawn token: `(op, field, value-kind, number, lon, lat)`.
type Tok = (u8, u8, u8, i64, f64, f64);

fn arb_tok() -> impl Strategy<Value = Tok> {
    (0u8..=255, 0u8..=255, 0u8..=255, 0i64..1000, -9.0f64..20.0, 37.0f64..60.0)
}

fn arb_toks() -> impl Strategy<Value = Vec<Tok>> {
    proptest::collection::vec(arb_tok(), 1..16)
}

fn token_value(kind: u8, num: i64) -> Value {
    match kind % 6 {
        0 => ["Portugal", "Austria", "Nowhere"][(num % 3) as usize].into(),
        1 => ["A", "B", "C", "AB", "Z"][(num % 5) as usize].into(),
        2 => Value::Date(num),
        3 => Value::Int(num % 4),
        4 => Value::Float((num % 4) as f64),
        // Primary keys, a few of them past the largest corpus.
        _ => format!("patch_{}", num % 36).into(),
    }
}

/// Recursive-descent filter constructor over the token stream.  `depth`
/// bounds nesting; an exhausted stream degrades to `Filter::All`.
fn build_filter(toks: &mut std::slice::Iter<'_, Tok>, depth: u32) -> Filter {
    let Some(&(op, field, kind, num, lon, lat)) = toks.next() else {
        return Filter::All;
    };
    let field = ["country", "labels", "date", "score", "unindexed", "name"][(field % 6) as usize];
    let value = token_value(kind, num);
    let list = |n: i64| -> Vec<Value> {
        (0..n % 3).map(|i| token_value(kind.wrapping_add(i as u8), num + i)).collect()
    };
    let ops = if depth == 0 { 14 } else { 17 };
    match op % ops {
        0 => Filter::All,
        1 => Filter::Eq(field.into(), value),
        2 => Filter::Ne(field.into(), value),
        3 => Filter::Lt(field.into(), value),
        4 => Filter::Lte(field.into(), value),
        5 => Filter::Gt(field.into(), value),
        6 => Filter::Gte(field.into(), value),
        7 => Filter::In(field.into(), list(num)),
        8 => Filter::ContainsAll(field.into(), list(num)),
        9 => Filter::ContainsAny(field.into(), list(num)),
        10 => Filter::ContainsExactly(field.into(), list(num)),
        11 => Filter::Exists(field.into()),
        12 => Filter::StartsWith(field.into(), ["Po", "A", "Z"][(num % 3) as usize].into()),
        13 => {
            let bbox = BBox::new(lon, lat, lon + 3.0, lat + 2.5).expect("box stays in range");
            Filter::GeoWithin("location".into(), GeoShape::Rect(bbox))
        }
        14 => Filter::And((0..1 + num % 3).map(|_| build_filter(toks, depth - 1)).collect()),
        15 => Filter::Or((0..1 + num % 3).map(|_| build_filter(toks, depth - 1)).collect()),
        _ => Filter::Not(Box::new(build_filter(toks, depth - 1))),
    }
}

/// Asserts the compiler contract over every live document of `coll`.
fn assert_contract(coll: &Collection, filter: &Filter) -> Result<(), TestCaseError> {
    let plan = coll.compile_prefilter(filter);
    for (id, doc) in coll.iter() {
        let naive = filter.matches(doc);
        let via_plan =
            plan.bitmap.as_ref().is_none_or(|b| b.contains(id)) && plan.residual.matches(doc);
        prop_assert!(
            naive == via_plan,
            "doc {} disagrees under {:?} (plan: {:?})",
            id,
            filter,
            plan
        );
    }
    // The candidate set never leaks dead documents.
    if let Some(bitmap) = &plan.bitmap {
        for id in bitmap.iter() {
            prop_assert!(coll.live_bitmap().contains(id), "dead doc {id} in bitmap");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_plans_satisfy_the_exactness_contract(
        records in arb_records(),
        toks in arb_toks(),
    ) {
        let coll = build_collection(&records);
        let mut it = toks.iter();
        while it.len() > 0 {
            let filter = build_filter(&mut it, 2);
            assert_contract(&coll, &filter)?;
        }
    }

    /// Indexes declared after some inserts post the documents already
    /// stored, then keep posting the ones inserted after them.
    #[test]
    fn the_contract_holds_for_indexes_declared_mid_stream(
        records in arb_records(),
        toks in arb_toks(),
        stored in 0usize..32,
    ) {
        let (before, after) = records.split_at(stored.min(records.len()));
        let mut coll = build_collection(&[]);
        let mut late = Collection::new("metadata", "name");
        for r in before {
            late.insert(to_doc(r)).unwrap();
        }
        for field in ["country", "labels", "date", "score"] {
            late.create_attribute_index(field);
        }
        late.create_geo_index("location").unwrap();
        for r in before.iter().chain(after) {
            coll.insert(to_doc(r)).unwrap();
        }
        for r in after {
            late.insert(to_doc(r)).unwrap();
        }
        let mut it = toks.iter();
        let filter = build_filter(&mut it, 2);
        assert_contract(&late, &filter)?;
        let (early, late) = (coll.compile_prefilter(&filter), late.compile_prefilter(&filter));
        prop_assert_eq!(early.bitmap, late.bitmap);
        prop_assert_eq!(early.residual, late.residual);
    }

    #[test]
    fn ne_bitmaps_keep_documents_missing_the_field(records in arb_records()) {
        let coll = build_collection(&records);
        for country in ["Portugal", "Austria", "Nowhere"] {
            let f = Filter::Ne("country".into(), country.into());
            let plan = coll.compile_prefilter(&f);
            prop_assert!(plan.is_exact(), "Ne on an indexed field compiles exactly");
            for (id, doc) in coll.iter() {
                if doc.get("country").is_none() {
                    prop_assert!(
                        plan.bitmap.as_ref().is_some_and(|b| b.contains(id)),
                        "doc {} missing `country` must survive Ne({})",
                        id,
                        country
                    );
                }
            }
            assert_contract(&coll, &f)?;
        }
    }

    #[test]
    fn numeric_scalar_equality_always_compiles_exactly(
        records in arb_records(),
        nums in proptest::collection::vec((0i64..6, 0u8..2), 1..8),
    ) {
        // The `score` field mixes Int and Float postings that overlap
        // numerically; equality on numeric *scalars* must nonetheless
        // compile to an exact bitmap via the canonical numeric postings.
        let coll = build_collection(&records);
        let scalar = |&(n, as_float): &(i64, u8)| {
            if as_float == 1 { Value::Float(n as f64) } else { Value::Int(n) }
        };
        for pair in &nums {
            let v = scalar(pair);
            for f in [
                Filter::Eq("score".into(), v.clone()),
                Filter::Ne("score".into(), v.clone()),
                Filter::In("score".into(), nums.iter().map(scalar).collect()),
                Filter::ContainsAny("score".into(), vec![v.clone()]),
            ] {
                let plan = coll.compile_prefilter(&f);
                prop_assert!(plan.is_exact(), "{:?} should compile exactly, got {:?}", f, plan);
                assert_contract(&coll, &f)?;
            }
            // Int(n) and Float(n.0) postings stay disjoint even though
            // they share one ordered-map key.
            let as_int = coll.compile_prefilter(&Filter::Eq("score".into(), Value::Int(pair.0)));
            let as_float =
                coll.compile_prefilter(&Filter::Eq("score".into(), Value::Float(pair.0 as f64)));
            if let (Some(a), Some(b)) = (&as_int.bitmap, &as_float.bitmap) {
                prop_assert!(a.and(b).is_empty(), "Int/Float postings must not overlap");
            }
        }
    }

    #[test]
    fn or_and_not_residuals_compose_correctly(
        records in arb_records(),
        toks in arb_toks(),
    ) {
        let coll = build_collection(&records);
        // Or over arbitrary leaves (some exact, some supersets, some
        // uncompiled) and Not over each single leaf: the compositions the
        // compiler must never get wrong by distributing residuals.
        let mut it = toks.iter();
        let mut leaves = Vec::new();
        while it.len() > 0 {
            leaves.push(build_filter(&mut it, 0));
        }
        assert_contract(&coll, &Filter::Or(leaves.clone()))?;
        assert_contract(&coll, &Filter::Not(Box::new(Filter::Or(leaves.clone()))))?;
        for leaf in &leaves {
            assert_contract(&coll, &Filter::Not(Box::new(leaf.clone())))?;
        }
    }

    #[test]
    fn resolving_the_plan_reproduces_the_naive_match_set(
        records in arb_records(),
        toks in arb_toks(),
    ) {
        let coll = build_collection(&records);
        let mut it = toks.iter();
        let filter = build_filter(&mut it, 2);
        let plan = coll.compile_prefilter(&filter);
        // Resolve: candidates (or all live docs) filtered by the residual.
        let mut resolved: Vec<u64> = match &plan.bitmap {
            Some(bitmap) => bitmap
                .iter()
                .filter(|id| coll.get(*id).is_some_and(|d| plan.residual.matches(d)))
                .collect(),
            None => coll
                .iter()
                .filter(|(_, d)| plan.residual.matches(d))
                .map(|(id, _)| id)
                .collect(),
        };
        resolved.sort_unstable();
        let mut naive: Vec<u64> =
            coll.iter().filter(|(_, d)| filter.matches(d)).map(|(id, _)| id).collect();
        naive.sort_unstable();
        prop_assert_eq!(resolved, naive);
    }

    #[test]
    fn find_equals_the_brute_force_match_list_on_mutated_corpora(
        records in arb_records(),
        toks in arb_toks(),
        stride in 2usize..5,
    ) {
        let mut coll = build_collection(&records);
        // An insert-only stream over the built corpus: every `stride`-th
        // record again, which the store refuses as it stands, and a twin of
        // the one after it under a fresh key at the end, with another
        // country and a numerically equal score of the other numeric type.
        for (i, r) in records.iter().enumerate() {
            if i % stride == 0 {
                prop_assert!(coll.insert(to_doc(r)).is_err(), "a stored key is refused");
            } else if i % stride == 1 {
                let score = match &r.score {
                    Some(Value::Int(n)) => Some(Value::Float(*n as f64)),
                    Some(Value::Float(f)) => Some(Value::Int(*f as i64)),
                    _ => Some(Value::Int(1)),
                };
                let name = format!("{}_twin", r.name);
                let twin = Record { name, country: Some("Serbia"), score, ..r.clone() };
                coll.insert(to_doc(&twin)).unwrap();
            }
        }
        let mut it = toks.iter();
        while it.len() > 0 {
            let filter = build_filter(&mut it, 2);
            let mut naive: Vec<u64> =
                coll.iter().filter(|(_, d)| filter.matches(d)).map(|(id, _)| id).collect();
            naive.sort_unstable();
            let found = coll.find(&filter);
            prop_assert!(found.ids == naive, "{:?}: {:?} vs brute force {:?}", filter, found, naive);
            prop_assert_eq!(found.plan.matched, found.ids.len());
            prop_assert!(found.plan.scanned >= found.plan.matched);
            prop_assert!(found.plan.scanned <= coll.len());
            // `None` names a full scan, and only a full scan.
            let compiled = coll.compile_prefilter(&filter).bitmap.is_some();
            prop_assert_eq!(found.plan.index_used.is_some(), compiled);
            prop_assert!(compiled || found.plan.scanned == coll.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `find` over a circle equals the brute-force haversine list, not
    /// merely the other engine: the geo index's cover of the circle's box
    /// loses no document on the rim.  Half the radii put a drawn document
    /// within 1e-4 of the rim, inside or out.  With `edge`, that document
    /// first moves a hair west of a geohash column boundary (every
    /// 1.406 25°, a boundary at every precision the index covers with) and
    /// the centre east of it, so its cell is covered only if the circle's
    /// box reaches it.
    #[test]
    fn find_within_a_circle_equals_the_brute_force_haversine_list(
        records in arb_records(),
        who in 0usize..32,
        dlon in -3.0f64..3.0,
        dlat in -2.0f64..2.0,
        scale in prop_oneof![0.999_9f64..1.000_1, 0.1f64..3.0],
        edge in 0u8..2,
    ) {
        let mut records = records;
        let nth = who % records.len();
        let (mut dlon, mut dlat) = (dlon, dlat);
        if edge == 1 {
            const COLUMN: f64 = 360.0 / 256.0;
            let target = &mut records[nth];
            target.lon = ((target.lon + 180.0) / COLUMN).round() * COLUMN - 180.0 - 1e-6;
            (dlon, dlat) = (dlon.abs() / 4.0 + 0.01, dlat / 100.0);
        }
        let coll = build_collection(&records);
        let at = |r: &Record| Point::new(r.lon, r.lat).unwrap();
        let target = &records[nth];
        let centre = Point::new(target.lon + dlon, target.lat + dlat).unwrap();
        let radius_km = haversine_km(centre, at(target)) * scale;
        prop_assume!(radius_km > 0.0);
        let circle = Circle::new(centre, radius_km).unwrap();
        let found = coll.find(&Filter::GeoWithin("location".into(), GeoShape::Circle(circle)));
        let naive: Vec<u64> = (0..records.len() as u64)
            .filter(|&id| haversine_km(centre, at(&records[id as usize])) <= radius_km)
            .collect();
        prop_assert!(found.ids == naive, "{:?}: {:?} vs brute force {:?}", circle, found, naive);
    }
}
