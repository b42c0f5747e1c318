//! Archive ingestion into the document-store collections.

use eq_bigearthnet::patch::{Patch, PatchMetadata};
use eq_bigearthnet::Archive;
use eq_docstore::{Database, Document, Value};

use crate::schema::{collections, fields, metadata_document};
use crate::EarthQubeError;

pub use eq_proto::IngestReport;

/// Creates the four collections and the metadata collection's indexes
/// (a no-op for those that exist).
pub(crate) fn prepare_collections(db: &mut Database) {
    let metadata = db.create_collection(collections::METADATA, fields::NAME);
    if !metadata.has_attribute_index(fields::COUNTRY) {
        metadata.create_attribute_index(fields::COUNTRY);
        metadata.create_attribute_index(fields::SEASON);
        metadata.create_attribute_index(fields::PATCH_ID);
        // Element postings over the ASCII label codes and value postings
        // over the acquisition date feed the bitmap prefilter (E13): label
        // and date predicates compile to posting-bitmap candidates instead
        // of post-filter scans.
        metadata.create_attribute_index(fields::LABELS);
        metadata.create_attribute_index(fields::DATE);
        metadata
            .create_geo_index(fields::LOCATION)
            // lint:allow(panic) infallible: the collection was created just above and cannot already carry a geo index
            .expect("fresh metadata collection accepts a geo index");
    }
    db.create_collection(collections::IMAGE_DATA, fields::NAME);
    db.create_collection(collections::RENDERED, fields::NAME);
    db.create_collection(collections::FEEDBACK, "id");
}

/// Ingests only patch metadata (no pixels); the path used for large-scale
/// metadata experiments.
///
/// # Errors
/// Propagates document-store errors (e.g. duplicate patch names).
pub fn ingest_metadata(
    db: &mut Database,
    metadata: &[PatchMetadata],
) -> Result<IngestReport, EarthQubeError> {
    prepare_collections(db);
    let coll = db.collection_mut(collections::METADATA)?;
    for meta in metadata {
        coll.insert(metadata_document(meta))?;
    }
    Ok(IngestReport { metadata_docs: metadata.len(), image_docs: 0, rendered_docs: 0 })
}

/// Ingests one patch into the metadata, image-data and rendered collections
/// (which must exist — see [`ingest_archive`] for the bulk path).
///
/// The metadata document is written from `meta` rather than `patch.meta` so
/// that callers appending to a live archive (the `QueryServer` write path)
/// can re-assign the dense patch id to the next free slot.
///
/// # Errors
/// Propagates document-store errors (e.g. duplicate patch names).  The
/// patch is ingested atomically: on any error, documents already written
/// for it are rolled back, so the three collections never hold a torn
/// patch.
pub fn ingest_patch(
    db: &mut Database,
    patch: &Patch,
    meta: &PatchMetadata,
) -> Result<(), EarthQubeError> {
    let (image_doc, rendered_doc) = prepare_patch_docs(patch, &meta.name);
    insert_patch_docs(db, meta, image_doc, rendered_doc)
}

/// Serialises a patch into its image-data and rendered documents — the
/// CPU-heavy half of [`ingest_patch`], needing no database access so the
/// concurrent write path can run it before taking the catalog write lock.
pub(crate) fn prepare_patch_docs(patch: &Patch, name: &str) -> (Document, Document) {
    // Image-data document: one bytes field per Sentinel-2 band plus the
    // two Sentinel-1 polarisations, exactly the layout §3.2 describes.
    let mut bands = std::collections::BTreeMap::new();
    for band in eq_bigearthnet::bands::SENTINEL2_BANDS {
        let data = patch.band(band);
        bands.insert(
            band.name().to_string(),
            Value::Bytes(data.pixels().iter().flat_map(|p| p.to_le_bytes()).collect()),
        );
    }
    let mut sar = std::collections::BTreeMap::new();
    for pol in eq_bigearthnet::bands::Polarization::ALL {
        let data = patch.polarization(pol);
        sar.insert(
            pol.name().to_string(),
            Value::Bytes(data.pixels().iter().flat_map(|p| p.to_le_bytes()).collect()),
        );
    }
    let image_doc = Document::new()
        .with(fields::NAME, name)
        .with("bands", Value::Doc(bands))
        .with("sar", Value::Doc(sar));

    // Rendered RGB document.
    let (size, rgb) = patch.render_rgb();
    let rendered_doc = Document::new()
        .with(fields::NAME, name)
        .with("size", size as i64)
        .with("rgb", Value::Bytes(rgb));
    (image_doc, rendered_doc)
}

/// Inserts a patch's three documents (the metadata document is built here
/// from `meta`, so the caller can assign the dense id at insert time),
/// rolling back on failure — the cheap half of [`ingest_patch`].
pub(crate) fn insert_patch_docs(
    db: &mut Database,
    meta: &PatchMetadata,
    image_doc: Document,
    rendered_doc: Document,
) -> Result<(), EarthQubeError> {
    db.collection_mut(collections::METADATA)?.insert(metadata_document(meta))?;

    // From here on, roll back the documents *this call* inserted if a later
    // insert fails, so the three collections never disagree about a patch.
    // Only freshly inserted documents are deleted — a failure caused by a
    // pre-existing duplicate must not take that duplicate down with it.
    let key = Value::Str(meta.name.clone());
    let rollback = |db: &mut Database, inserted: &[&str]| {
        for coll in inserted {
            if let Ok(c) = db.collection_mut(coll) {
                let _ = c.delete_by_key(&key);
            }
        }
    };

    let inserted = match db.collection_mut(collections::IMAGE_DATA) {
        Ok(c) => c.insert(image_doc).map(|_| ()).map_err(EarthQubeError::from),
        Err(e) => Err(e.into()),
    };
    if let Err(e) = inserted {
        rollback(db, &[collections::METADATA]);
        return Err(e);
    }

    let inserted = match db.collection_mut(collections::RENDERED) {
        Ok(c) => c.insert(rendered_doc).map(|_| ()).map_err(EarthQubeError::from),
        Err(e) => Err(e.into()),
    };
    if let Err(e) = inserted {
        rollback(db, &[collections::METADATA, collections::IMAGE_DATA]);
        return Err(e);
    }
    Ok(())
}

/// Ingests a full archive: metadata, raw band data and rendered RGB images,
/// populating the paper's four collections.
///
/// # Errors
/// Propagates document-store errors (e.g. duplicate patch names).
pub fn ingest_archive(
    db: &mut Database,
    archive: &Archive,
) -> Result<IngestReport, EarthQubeError> {
    prepare_collections(db);
    let mut report = IngestReport { metadata_docs: 0, image_docs: 0, rendered_docs: 0 };
    for patch in archive.patches() {
        ingest_patch(db, patch, &patch.meta)?;
        report.metadata_docs += 1;
        report.image_docs += 1;
        report.rendered_docs += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
    use eq_docstore::Filter;

    #[test]
    fn metadata_only_ingest_populates_the_metadata_collection() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(60, 13)).unwrap().generate_metadata_only();
        let mut db = Database::new();
        let report = ingest_metadata(&mut db, &metas).unwrap();
        assert_eq!(report.metadata_docs, 60);
        assert_eq!(report.image_docs, 0);
        let coll = db.collection(collections::METADATA).unwrap();
        assert_eq!(coll.len(), 60);
        // Indexes exist and are used.
        let r = coll.find(&Filter::Eq(fields::COUNTRY.into(), "Finland".into()));
        assert_eq!(r.plan.index_used.as_deref(), Some(fields::COUNTRY));
        // All four collections exist.
        assert_eq!(db.collection_names().len(), 4);
    }

    #[test]
    fn full_ingest_populates_all_four_collections() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 14)).unwrap().generate();
        let mut db = Database::new();
        let report = ingest_archive(&mut db, &archive).unwrap();
        assert_eq!(report.metadata_docs, 8);
        assert_eq!(report.image_docs, 8);
        assert_eq!(report.rendered_docs, 8);
        assert_eq!(db.collection(collections::IMAGE_DATA).unwrap().len(), 8);
        assert_eq!(db.collection(collections::RENDERED).unwrap().len(), 8);

        // The image-data document stores all 12 band buffers.
        let name = archive.patches()[0].meta.name.clone();
        let img = db
            .collection(collections::IMAGE_DATA)
            .unwrap()
            .get_by_key(&Value::Str(name.clone()))
            .unwrap();
        assert!(!img.get("bands.B02").unwrap().as_bytes().unwrap().is_empty());
        assert!(img.get("bands.B12").is_some());
        assert!(img.get("sar.VV").is_some());
        // The rendered document stores an RGB buffer of size² × 3 bytes.
        let rendered =
            db.collection(collections::RENDERED).unwrap().get_by_key(&Value::Str(name)).unwrap();
        let size = rendered.get("size").unwrap().as_int().unwrap() as usize;
        assert_eq!(rendered.get("rgb").unwrap().as_bytes().unwrap().len(), size * size * 3);
    }

    #[test]
    fn duplicate_ingest_is_rejected() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(5, 15)).unwrap().generate_metadata_only();
        let mut db = Database::new();
        ingest_metadata(&mut db, &metas).unwrap();
        let err = ingest_metadata(&mut db, &metas).unwrap_err();
        assert!(matches!(err, EarthQubeError::Store(_)));
    }

    #[test]
    fn failed_patch_ingest_rolls_back_without_touching_existing_docs() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(1, 17)).unwrap().generate();
        let patch = &archive.patches()[0];
        let mut db = Database::new();
        ingest_metadata(&mut db, &[]).unwrap(); // creates the collections
                                                // A pre-existing image-data document under the patch's name makes
                                                // the second of the three inserts fail.
        let squatter = Document::new().with(fields::NAME, patch.meta.name.as_str());
        db.collection_mut(collections::IMAGE_DATA).unwrap().insert(squatter).unwrap();

        let err = ingest_patch(&mut db, patch, &patch.meta).unwrap_err();
        assert!(matches!(err, EarthQubeError::Store(_)));
        // The metadata insert was rolled back; the squatter survived.
        assert_eq!(db.collection(collections::METADATA).unwrap().len(), 0);
        assert_eq!(db.collection(collections::IMAGE_DATA).unwrap().len(), 1);
        assert_eq!(db.collection(collections::RENDERED).unwrap().len(), 0);

        // With the conflict removed, the same patch ingests cleanly.
        let key = Value::Str(patch.meta.name.clone());
        db.collection_mut(collections::IMAGE_DATA).unwrap().delete_by_key(&key).unwrap();
        ingest_patch(&mut db, patch, &patch.meta).unwrap();
        for coll in [collections::METADATA, collections::IMAGE_DATA, collections::RENDERED] {
            assert_eq!(db.collection(coll).unwrap().len(), 1, "collection {coll}");
        }
    }

    #[test]
    fn ingest_is_incremental_across_calls() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(20, 16)).unwrap().generate_metadata_only();
        let mut db = Database::new();
        ingest_metadata(&mut db, &metas[..10]).unwrap();
        ingest_metadata(&mut db, &metas[10..]).unwrap();
        assert_eq!(db.collection(collections::METADATA).unwrap().len(), 20);
    }
}
