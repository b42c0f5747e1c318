//! The query-panel model (§3.1 of the paper).
//!
//! Users can restrict a search by a geospatial shape (rectangle, circle or
//! polygon), an acquisition-date range, satellites, seasons, and land-cover
//! labels with three operators: `Some`, `Exactly` and `At least & more`.

use eq_bigearthnet::labels::{Label, LabelSet};
use eq_bigearthnet::patch::{AcquisitionDate, PatchMetadata, Satellite, Season};
use eq_docstore::{Filter, Value};
use eq_geo::GeoShape;

use crate::schema::fields;
use crate::EarthQubeError;

/// The three label-filtering operators of the EarthQube query panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelOperator {
    /// `Some`: the image has **at least one** of the selected labels.
    Some,
    /// `Exactly`: the image has **exactly** the selected labels.
    Exactly,
    /// `At least & more`: the image has **all** the selected labels and
    /// possibly additional ones.
    AtLeastAndMore,
}

/// A label filter: an operator applied to a set of selected CLC labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelFilter {
    /// The operator.
    pub operator: LabelOperator,
    /// The selected Level-3 labels.
    pub labels: Vec<Label>,
}

impl LabelFilter {
    /// Creates a label filter.
    pub fn new(operator: LabelOperator, labels: Vec<Label>) -> Self {
        Self { operator, labels }
    }

    /// Translates the filter into a document-store predicate over the
    /// ASCII-coded label string.
    pub fn to_filter(&self) -> Filter {
        let codes: Vec<Value> =
            self.labels.iter().map(|l| Value::Str(l.ascii_code().to_string())).collect();
        match self.operator {
            LabelOperator::Some => Filter::ContainsAny(fields::LABELS.into(), codes),
            LabelOperator::Exactly => Filter::ContainsExactly(fields::LABELS.into(), codes),
            LabelOperator::AtLeastAndMore => Filter::ContainsAll(fields::LABELS.into(), codes),
        }
    }

    /// Whether a label set satisfies the filter, as
    /// [`to_filter`](Self::to_filter) decides it on the set's label codes.
    /// `Exactly` compares multisets there, and an image's labels are a set:
    /// a selection naming a label twice matches no image.
    pub fn matches(&self, labels: LabelSet) -> bool {
        let selected = LabelSet::from_labels(self.labels.iter().copied());
        match self.operator {
            LabelOperator::Some => labels.intersects(selected),
            LabelOperator::Exactly => labels == selected && selected.len() == self.labels.len(),
            LabelOperator::AtLeastAndMore => labels.is_superset(selected),
        }
    }
}

/// A query-panel request: every field is optional and all present fields
/// must hold simultaneously.  It hashes structurally (the shape's `Hash`
/// folds `-0.0` into `0.0`), so equal queries hash equal: the resolved-filter
/// cache keys on it.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct ImageQuery {
    /// Geospatial restriction (rectangle, circle or polygon drawn on the map).
    pub shape: Option<GeoShape>,
    /// Acquisition-date range (inclusive on both ends).
    pub date_range: Option<(AcquisitionDate, AcquisitionDate)>,
    /// Satellites of interest.  Every BigEarthNet record is a Sentinel-1 +
    /// Sentinel-2 pair, so this field never excludes records; it controls
    /// which modality downstream consumers render.
    pub satellites: Vec<Satellite>,
    /// Seasons of interest (empty = all seasons).
    pub seasons: Vec<Season>,
    /// Countries of interest (empty = all ten).
    pub countries: Vec<eq_bigearthnet::Country>,
    /// Label filter; `None` means the label switch is "on" (no filtering),
    /// as in the UI default.
    pub labels: Option<LabelFilter>,
}

impl ImageQuery {
    /// A query with no restrictions.
    pub fn all() -> Self {
        Self::default()
    }

    /// Builder: restrict to a geospatial shape.
    pub fn with_shape(mut self, shape: GeoShape) -> Self {
        self.shape = Some(shape);
        self
    }

    /// Builder: restrict to a date range.
    pub fn with_date_range(mut self, from: AcquisitionDate, to: AcquisitionDate) -> Self {
        self.date_range = Some((from, to));
        self
    }

    /// Builder: restrict to seasons.
    pub fn with_seasons(mut self, seasons: Vec<Season>) -> Self {
        self.seasons = seasons;
        self
    }

    /// Builder: restrict to countries.
    pub fn with_countries(mut self, countries: Vec<eq_bigearthnet::Country>) -> Self {
        self.countries = countries;
        self
    }

    /// Builder: apply a label filter.
    pub fn with_labels(mut self, filter: LabelFilter) -> Self {
        self.labels = Some(filter);
        self
    }

    /// Validates the query (date range ordering, non-empty label selection).
    pub fn validate(&self) -> Result<(), EarthQubeError> {
        if let Some((from, to)) = &self.date_range {
            if from > to {
                return Err(EarthQubeError::BadRequest(format!(
                    "date range is inverted: {from} > {to}"
                )));
            }
        }
        if let Some(lf) = &self.labels {
            if lf.labels.is_empty() {
                return Err(EarthQubeError::BadRequest(
                    "label filter with no labels selected".into(),
                ));
            }
        }
        Ok(())
    }

    /// Whether a patch's metadata satisfies the query: what
    /// [`to_filter`](Self::to_filter) decides on the patch's metadata
    /// document, evaluated on the typed row, with neither built.  The
    /// resolver runs it on every candidate row a filter's postings leave.
    pub fn matches(&self, meta: &PatchMetadata) -> bool {
        let date = meta.date.ordinal();
        self.shape.as_ref().is_none_or(|shape| shape.contains(meta.bbox.center()))
            && self
                .date_range
                .is_none_or(|(from, to)| from.ordinal() <= date && date <= to.ordinal())
            && (self.seasons.is_empty() || self.seasons.contains(&meta.season()))
            && (self.countries.is_empty() || self.countries.contains(&meta.country))
            && self.labels.as_ref().is_none_or(|labels| labels.matches(meta.labels))
    }

    /// Translates the query into a document-store filter over the metadata
    /// collection.
    pub fn to_filter(&self) -> Filter {
        let mut filter = Filter::All;
        if let Some(shape) = &self.shape {
            filter = filter.and(Filter::GeoWithin(fields::LOCATION.into(), shape.clone()));
        }
        if let Some((from, to)) = &self.date_range {
            filter = filter
                .and(Filter::Gte(fields::DATE.into(), Value::Date(from.ordinal())))
                .and(Filter::Lte(fields::DATE.into(), Value::Date(to.ordinal())));
        }
        if !self.seasons.is_empty() {
            filter = filter.and(Filter::In(
                fields::SEASON.into(),
                self.seasons.iter().map(|s| Value::Str(s.name().to_string())).collect(),
            ));
        }
        if !self.countries.is_empty() {
            filter = filter.and(Filter::In(
                fields::COUNTRY.into(),
                self.countries.iter().map(|c| Value::Str(c.name().to_string())).collect(),
            ));
        }
        if let Some(lf) = &self.labels {
            filter = filter.and(lf.to_filter());
        }
        filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::metadata_document;
    use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
    use eq_geo::{BBox, Point};
    use std::hash::{Hash, Hasher};

    #[test]
    fn label_operator_semantics_match_the_paper() {
        // The paper's example: an image with {Coniferous forest, Beaches,
        // dunes, sands, Sea and ocean, Bare rock}.
        let image = LabelSet::from_labels([
            Label::ConiferousForest,
            Label::BeachesDunesSands,
            Label::SeaAndOcean,
            Label::BareRock,
        ]);
        let selected = vec![Label::ConiferousForest, Label::BeachesDunesSands, Label::SeaAndOcean];

        assert!(LabelFilter::new(LabelOperator::Some, selected.clone()).matches(image));
        assert!(LabelFilter::new(LabelOperator::AtLeastAndMore, selected.clone()).matches(image));
        assert!(!LabelFilter::new(LabelOperator::Exactly, selected.clone()).matches(image));

        // An image with exactly the selected labels matches all three.
        let exact = LabelSet::from_labels(selected.clone());
        assert!(LabelFilter::new(LabelOperator::Exactly, selected.clone()).matches(exact));

        // An image with only one of the selected labels matches only `Some`.
        let partial = LabelSet::from_labels([Label::SeaAndOcean]);
        assert!(LabelFilter::new(LabelOperator::Some, selected.clone()).matches(partial));
        assert!(!LabelFilter::new(LabelOperator::AtLeastAndMore, selected.clone()).matches(partial));
        assert!(!LabelFilter::new(LabelOperator::Exactly, selected).matches(partial));
    }

    /// Also with a label selected twice, as a request may send it: the
    /// document predicate's multiset test matches no image under `Exactly`
    /// (an image's labels are a set), and a repeat changes nothing under
    /// the other two operators.
    #[test]
    fn label_filter_document_predicate_agrees_with_in_memory_matching() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(80, 21)).unwrap().generate_metadata_only();
        let operators =
            [LabelOperator::Some, LabelOperator::AtLeastAndMore, LabelOperator::Exactly];
        let mut filters = vec![
            LabelFilter::new(
                LabelOperator::Some,
                vec![Label::MixedForest, Label::ConiferousForest],
            ),
            LabelFilter::new(LabelOperator::AtLeastAndMore, vec![Label::MixedForest]),
            LabelFilter::new(LabelOperator::Exactly, vec![Label::MixedForest]),
        ];
        for operator in operators {
            let twice = vec![Label::MixedForest, Label::ConiferousForest, Label::MixedForest];
            filters.push(LabelFilter::new(operator, twice));
        }
        let agree = |lf: &LabelFilter, meta: &PatchMetadata| {
            let (document, typed) =
                (lf.to_filter().matches(&metadata_document(meta)), lf.matches(meta.labels));
            assert_eq!(document, typed, "operator {:?} disagreed on {}", lf.operator, meta.name);
            typed
        };
        for lf in &filters {
            for meta in &metas {
                agree(lf, meta);
            }
        }
        // Each image's own labels, and its own labels with one repeated.
        for meta in &metas {
            let own: Vec<Label> = meta.labels.iter().collect();
            let repeated = [&own[..], &own[..1]].concat();
            for operator in operators {
                assert!(agree(&LabelFilter::new(operator, own.clone()), meta));
                let matched = agree(&LabelFilter::new(operator, repeated.clone()), meta);
                assert_eq!(matched, operator != LabelOperator::Exactly, "{operator:?}");
            }
        }
    }

    #[test]
    fn query_builder_and_validation() {
        let from = AcquisitionDate::new(2017, 6, 1).unwrap();
        let to = AcquisitionDate::new(2018, 5, 31).unwrap();
        let q = ImageQuery::all()
            .with_shape(GeoShape::Rect(BBox::new(-9.5, 36.9, -6.2, 42.2).unwrap()))
            .with_date_range(from, to)
            .with_seasons(vec![Season::Summer])
            .with_countries(vec![Country::Portugal])
            .with_labels(LabelFilter::new(LabelOperator::Some, vec![Label::SeaAndOcean]));
        assert!(q.validate().is_ok());

        let inverted = ImageQuery::all().with_date_range(to, from);
        assert!(matches!(inverted.validate(), Err(EarthQubeError::BadRequest(_))));
        let empty_labels =
            ImageQuery::all().with_labels(LabelFilter::new(LabelOperator::Some, vec![]));
        assert!(matches!(empty_labels.validate(), Err(EarthQubeError::BadRequest(_))));
        assert!(ImageQuery::all().validate().is_ok());
    }

    /// `Hash` agrees with `==`: equal queries hash equal (signed zeros
    /// included), and every field takes part.
    #[test]
    fn equal_queries_hash_equal_and_every_field_counts() {
        fn hash_of(q: &ImageQuery) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        }
        let rect = |min_lat: f64| {
            ImageQuery::all().with_shape(GeoShape::Rect(BBox::new(1.0, min_lat, 9.0, 5.0).unwrap()))
        };
        assert_eq!(rect(0.0), rect(-0.0));
        assert_eq!(hash_of(&rect(0.0)), hash_of(&rect(-0.0)));

        let from = AcquisitionDate::new(2017, 6, 1).unwrap();
        let to = AcquisitionDate::new(2018, 5, 31).unwrap();
        let centre = Point::new(13.0, 52.0).unwrap();
        let triangle = |lat: f64| {
            let corners = [(0.0, 0.0), (4.0, 0.0), (2.0, lat)];
            let ring = corners.iter().map(|&(lon, lat)| Point::new(lon, lat).unwrap()).collect();
            GeoShape::Polygon(eq_geo::Polygon::new(ring).unwrap())
        };
        let variants = [
            ImageQuery::all(),
            rect(0.0),
            rect(1.0),
            ImageQuery::all()
                .with_shape(GeoShape::Circle(eq_geo::Circle::new(centre, 5.0).unwrap())),
            ImageQuery::all().with_shape(triangle(3.0)),
            ImageQuery::all().with_shape(triangle(3.5)),
            ImageQuery::all().with_date_range(from, to),
            ImageQuery::all().with_date_range(from, from),
            ImageQuery { satellites: vec![Satellite::Sentinel2], ..ImageQuery::all() },
            ImageQuery::all().with_seasons(vec![Season::Summer]),
            ImageQuery::all().with_countries(vec![Country::Portugal]),
            ImageQuery::all()
                .with_labels(LabelFilter::new(LabelOperator::Some, vec![Label::SeaAndOcean])),
            ImageQuery::all()
                .with_labels(LabelFilter::new(LabelOperator::Exactly, vec![Label::SeaAndOcean])),
        ];
        for (i, a) in variants.iter().enumerate() {
            assert_eq!(hash_of(a), hash_of(&a.clone()));
            for b in &variants[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn to_filter_composes_all_restrictions() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(120, 22)).unwrap().generate_metadata_only();
        let q = ImageQuery::all()
            .with_countries(vec![Country::Finland, Country::Portugal])
            .with_seasons(vec![Season::Summer, Season::Autumn]);
        let f = q.to_filter();
        for meta in &metas {
            let doc = metadata_document(meta);
            let expected = matches!(meta.country, Country::Finland | Country::Portugal)
                && matches!(meta.season(), Season::Summer | Season::Autumn);
            assert_eq!(f.matches(&doc), expected, "mismatch for {}", meta.name);
        }
    }

    #[test]
    fn unrestricted_query_matches_everything() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(10, 23)).unwrap().generate_metadata_only();
        let f = ImageQuery::all().to_filter();
        assert_eq!(f, Filter::All);
        for meta in &metas {
            assert!(f.matches(&metadata_document(meta)));
        }
    }

    #[test]
    fn date_range_filter_is_inclusive() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(100, 24)).unwrap().generate_metadata_only();
        let target = metas[0].date;
        let q = ImageQuery::all().with_date_range(target, target);
        let f = q.to_filter();
        let matches: Vec<&str> = metas
            .iter()
            .filter(|m| f.matches(&metadata_document(m)))
            .map(|m| m.name.as_str())
            .collect();
        assert!(matches.contains(&metas[0].name.as_str()));
        for m in &metas {
            assert_eq!(matches.contains(&m.name.as_str()), m.date == target);
        }
    }
}
