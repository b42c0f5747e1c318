//! Property-based tests: the indexed query paths must agree with a naive
//! full-scan reference evaluation, and ids must stay dense in insertion
//! order across random insert streams.

use eq_docstore::{Collection, Document, Filter, Value};
use eq_geo::{BBox, GeoShape};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Record {
    name: String,
    country: &'static str,
    lon: f64,
    lat: f64,
    date: i64,
    labels: String,
}

fn arb_record(id: usize) -> impl Strategy<Value = Record> {
    let countries = prop_oneof![
        Just("Portugal"),
        Just("Austria"),
        Just("Finland"),
        Just("Serbia"),
        Just("Ireland"),
    ];
    (
        countries,
        -9.0f64..25.0,
        37.0f64..65.0,
        0i64..1000,
        proptest::collection::vec(prop_oneof![Just('A'), Just('B'), Just('C'), Just('D')], 1..4),
    )
        .prop_map(move |(country, lon, lat, date, labels)| Record {
            name: format!("patch_{id}"),
            country,
            lon,
            lat,
            date,
            labels: {
                let mut l: Vec<char> = labels;
                l.sort_unstable();
                l.dedup();
                l.into_iter().collect()
            },
        })
}

fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    (1usize..40).prop_flat_map(|n| {
        let strategies: Vec<_> = (0..n).map(arb_record).collect();
        strategies
    })
}

fn to_doc(r: &Record) -> Document {
    Document::new()
        .with("name", r.name.as_str())
        .with("country", r.country)
        .with("date", Value::Date(r.date))
        .with("labels", r.labels.as_str())
        .with("location", Value::Array(vec![Value::Float(r.lon), Value::Float(r.lat)]))
}

fn build_collections(records: &[Record]) -> (Collection, Collection) {
    let mut indexed = Collection::new("metadata", "name");
    indexed.create_attribute_index("country");
    indexed.create_geo_index("location").unwrap();
    let mut plain = Collection::new("metadata", "name");
    for r in records {
        indexed.insert(to_doc(r)).unwrap();
        plain.insert(to_doc(r)).unwrap();
    }
    (indexed, plain)
}

fn matched_names(c: &Collection, f: &Filter) -> Vec<String> {
    let mut names: Vec<String> = c
        .find_docs(f)
        .iter()
        .map(|d| d.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    names.sort();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_and_unindexed_queries_agree(records in arb_records(), min_date in 0i64..1000) {
        let (indexed, plain) = build_collections(&records);

        let filters = vec![
            Filter::Eq("country".into(), "Portugal".into()),
            Filter::Eq("country".into(), "Austria".into()).and(Filter::Gt("date".into(), Value::Date(min_date))),
            Filter::GeoWithin("location".into(), GeoShape::Rect(BBox::new(-9.5, 36.0, 10.0, 55.0).unwrap())),
            Filter::GeoWithin("location".into(), GeoShape::Rect(BBox::new(10.0, 55.0, 26.0, 66.0).unwrap()))
                .and(Filter::ContainsAny("labels".into(), vec!["A".into()])),
            Filter::ContainsAll("labels".into(), vec!["A".into(), "B".into()]),
            Filter::Gt("date".into(), Value::Date(min_date)),
        ];
        for f in &filters {
            prop_assert_eq!(matched_names(&indexed, f), matched_names(&plain, f));
        }
    }

    #[test]
    fn query_plan_counts_are_consistent(records in arb_records()) {
        let (indexed, _) = build_collections(&records);
        let f = Filter::Eq("country".into(), "Portugal".into());
        let r = indexed.find(&f);
        prop_assert_eq!(r.plan.matched, r.ids.len());
        prop_assert!(r.plan.scanned >= r.plan.matched);
        prop_assert!(r.plan.scanned <= records.len());
    }

    #[test]
    fn primary_key_lookup_always_finds_inserted_documents(records in arb_records()) {
        let (indexed, _) = build_collections(&records);
        for r in &records {
            let res = indexed.find(&Filter::Eq("name".into(), r.name.as_str().into()));
            prop_assert_eq!(res.ids.len(), 1);
            prop_assert_eq!(res.plan.index_used.as_deref(), Some("pk"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ids are dense and handed out in insertion order, so iteration,
    /// which is insertion order, is ascending id order over `0..len`:
    /// across a random insert stream in which a key already stored is
    /// refused and changes nothing.
    #[test]
    fn iteration_is_insertion_order_and_ascending_live_ids(
        records in arb_records(),
        ops in proptest::collection::vec(0usize..40, 1..60),
    ) {
        let (mut coll, _) = build_collections(&[]);
        let mut order: Vec<String> = Vec::new();
        for nth in ops {
            let record = &records[nth % records.len()];
            let inserted = coll.insert(to_doc(record));
            if order.contains(&record.name) {
                prop_assert!(inserted.is_err(), "a stored key is refused");
            } else {
                prop_assert_eq!(inserted.ok(), Some(order.len() as u64));
                order.push(record.name.clone());
            }
            let ids: Vec<u64> = coll.iter().map(|(id, _)| id).collect();
            prop_assert_eq!(&ids, &(0..order.len() as u64).collect::<Vec<_>>());
            prop_assert_eq!(&ids, &coll.live_bitmap().iter().collect::<Vec<_>>());
            let names: Vec<&str> =
                coll.iter().map(|(_, doc)| doc.get("name").unwrap().as_str().unwrap()).collect();
            prop_assert_eq!(names, order.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }
}
