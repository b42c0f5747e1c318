//! The metadata document schema (§3.2 of the paper).
//!
//! Metadata documents have a `location` attribute (the patch centre used by
//! the 2-D geohash index, plus the bounding rectangle) and a `properties`
//! attribute with the queryable features: image name, ASCII-coded labels,
//! season, country and acquisition date.

use eq_bigearthnet::labels::LabelSet;
use eq_bigearthnet::patch::{AcquisitionDate, PatchId, PatchMetadata};
use eq_bigearthnet::Country;
use eq_docstore::{Document, Fields, Value};
use eq_geo::BBox;

/// The collection names: the store holds metadata and feedback, legacy checkpoints all four.
pub mod collections {
    /// Image metadata (the central collection).
    pub const METADATA: &str = "metadata";
    /// Raw image band data.
    pub const IMAGE_DATA: &str = "image_data";
    /// Rendered RGB images.
    pub const RENDERED: &str = "rendered_images";
    /// Anonymous user feedback.
    pub const FEEDBACK: &str = "feedback";
}

/// Field paths of the metadata document.
pub mod fields {
    /// Primary key: the BigEarthNet patch name.
    pub const NAME: &str = "name";
    /// `[lon, lat]` centre point, target of the 2-D geohash index.
    pub const LOCATION: &str = "location";
    /// Bounding rectangle `[min_lon, min_lat, max_lon, max_lat]`.
    pub const BBOX: &str = "bbox";
    /// Dense patch id (position in feature/code matrices).
    pub const PATCH_ID: &str = "patch_id";
    /// ASCII-coded label string.
    pub const LABELS: &str = "properties.labels";
    /// Country name.
    pub const COUNTRY: &str = "properties.country";
    /// Season name.
    pub const SEASON: &str = "properties.season";
    /// Acquisition date (ordinal).
    pub const DATE: &str = "properties.date";
    /// Acquisition date (ISO string, for display).
    pub const DATE_ISO: &str = "properties.date_iso";
}

/// Builds the metadata document for a patch.  Each field list is collected
/// from an array in key order, so it is one exactly sized allocation.
pub fn metadata_document(meta: &PatchMetadata) -> Document {
    let center = meta.bbox.center();
    let properties = Fields::from([
        ("country", Value::Str(meta.country.name().to_string())),
        ("date", Value::Date(meta.date.ordinal())),
        ("date_iso", Value::Str(meta.date.to_iso())),
        ("labels", Value::Str(meta.labels.to_ascii_codes())),
        ("season", Value::Str(meta.season().name().to_string())),
    ]);
    let bbox = [meta.bbox.min_lon, meta.bbox.min_lat, meta.bbox.max_lon, meta.bbox.max_lat];
    Document::from([
        (fields::BBOX, Value::Array(bbox.into_iter().map(Value::Float).collect())),
        (fields::LOCATION, Value::Array(vec![Value::Float(center.lon), Value::Float(center.lat)])),
        (fields::NAME, Value::Str(meta.name.clone())),
        (fields::PATCH_ID, Value::from(meta.id.0)),
        ("properties", Value::Doc(properties)),
    ])
}

/// Reconstructs patch metadata from a metadata document (the inverse of
/// [`metadata_document`]); returns `None` if the document is malformed.
pub fn metadata_from_document(doc: &Document) -> Option<PatchMetadata> {
    let name = doc.get(fields::NAME)?.as_str()?.to_string();
    let id = doc.get(fields::PATCH_ID)?.as_int()? as u32;
    let bbox = doc.get(fields::BBOX)?.as_array()?;
    if bbox.len() != 4 {
        return None;
    }
    let bbox = BBox::new(
        bbox[0].as_float()?,
        bbox[1].as_float()?,
        bbox[2].as_float()?,
        bbox[3].as_float()?,
    )
    .ok()?;
    let labels = LabelSet::from_ascii_codes(doc.get(fields::LABELS)?.as_str()?);
    let country = Country::from_name(doc.get(fields::COUNTRY)?.as_str()?)?;
    let date = AcquisitionDate::from_iso(doc.get(fields::DATE_ISO)?.as_str()?)?;
    Some(PatchMetadata { id: PatchId(id), name, bbox, labels, country, date })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};

    fn sample_meta() -> Vec<PatchMetadata> {
        ArchiveGenerator::new(GeneratorConfig::tiny(25, 11)).unwrap().generate_metadata_only()
    }

    #[test]
    fn document_roundtrip_preserves_metadata() {
        for meta in sample_meta() {
            let doc = metadata_document(&meta);
            let back = metadata_from_document(&doc).expect("roundtrip");
            assert_eq!(back.id, meta.id);
            assert_eq!(back.name, meta.name);
            assert_eq!(back.labels, meta.labels);
            assert_eq!(back.country, meta.country);
            assert_eq!(back.date, meta.date);
            assert!((back.bbox.min_lon - meta.bbox.min_lon).abs() < 1e-9);
            assert!((back.bbox.max_lat - meta.bbox.max_lat).abs() < 1e-9);
        }
    }

    #[test]
    fn document_has_the_papers_schema_shape() {
        let meta = &sample_meta()[0];
        let doc = metadata_document(meta);
        // location is a [lon, lat] pair inside the patch bbox.
        let loc = doc.get(fields::LOCATION).unwrap().as_array().unwrap();
        assert_eq!(loc.len(), 2);
        let lon = loc[0].as_float().unwrap();
        let lat = loc[1].as_float().unwrap();
        assert!(meta.bbox.contains(eq_geo::Point::new_unchecked(lon, lat)));
        // properties carries labels (ASCII codes), season, country, date.
        assert!(!doc.get(fields::LABELS).unwrap().as_str().unwrap().is_empty());
        assert!(doc.get(fields::SEASON).is_some());
        assert!(doc.get(fields::COUNTRY).is_some());
        assert!(doc.get(fields::DATE).unwrap().as_date().is_some());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(metadata_from_document(&Document::new()).is_none());
        let meta = &sample_meta()[0];
        let mut doc = metadata_document(meta);
        doc.set(fields::BBOX, Value::Array(vec![Value::Float(1.0)]));
        assert!(metadata_from_document(&doc).is_none());
        let mut doc = metadata_document(meta);
        doc.set("properties", Value::Doc(Default::default()));
        assert!(metadata_from_document(&doc).is_none());
    }

    #[test]
    fn collection_names_are_the_papers_four() {
        assert_eq!(collections::METADATA, "metadata");
        assert_eq!(collections::IMAGE_DATA, "image_data");
        assert_eq!(collections::RENDERED, "rendered_images");
        assert_eq!(collections::FEEDBACK, "feedback");
    }
}
