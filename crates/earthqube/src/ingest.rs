//! Archive ingestion into the document-store collections.

use eq_bigearthnet::patch::{Patch, PatchMetadata};
use eq_docstore::{Database, Document, Fields, Value};

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

/// Structural validation of a patch from outside the archive, an upload or
/// an ingest, on either façade.  `decode_patch` restores whatever band
/// layout the bytes declare; the engine, however, indexes the canonical
/// layout unconditionally (12 Sentinel-2 rasters, 2 polarisations,
/// non-empty pixels), so a short band list must be rejected here —
/// reaching the engine with one would panic on `Patch::band`'s index.
pub(crate) fn validate_patch(patch: &Patch) -> Result<(), EarthQubeError> {
    let bad = |message: String| {
        EarthQubeError::BadRequest(format!("invalid patch {:?}: {message}", patch.meta.name))
    };
    if patch.s2_bands.len() != eq_bigearthnet::Band::COUNT {
        return Err(bad(format!(
            "expected {} Sentinel-2 bands, got {}",
            eq_bigearthnet::Band::COUNT,
            patch.s2_bands.len()
        )));
    }
    if patch.s1_bands.len() != 2 {
        return Err(bad(format!(
            "expected 2 Sentinel-1 polarisations, got {}",
            patch.s1_bands.len()
        )));
    }
    if let Some(empty) =
        patch.s2_bands.iter().chain(&patch.s1_bands).position(|b| b.pixels().is_empty())
    {
        return Err(bad(format!("raster {empty} has no pixels")));
    }
    // `Patch::render_rgb` (the ingest path) writes one output buffer sized
    // by B04 from the pixels of all three RGB bands, so their sizes must
    // agree.  (Other engine paths use per-band statistics only, and the
    // canonical per-resolution sizes are deliberately *not* required:
    // uniformly scaled-down archives are legitimate.)
    let rgb = [eq_bigearthnet::Band::B02, eq_bigearthnet::Band::B03, eq_bigearthnet::Band::B04];
    let sizes = rgb.map(|b| patch.band(b).size());
    if sizes[0] != sizes[2] || sizes[1] != sizes[2] {
        return Err(bad(format!("RGB band sizes {sizes:?} disagree")));
    }
    Ok(())
}

/// Serialises a patch into its image-data and rendered documents, keyed by
/// `name` — the CPU-heavy half of an ingest, needing no database access so
/// the concurrent write path can run it before taking the catalog write
/// lock.
pub(crate) fn prepare_patch_docs(patch: &Patch, name: &str) -> (Document, Document) {
    // Image-data document: one bytes field per Sentinel-2 band plus the
    // two Sentinel-1 polarisations, exactly the layout §3.2 describes.
    // Each field list is collected from an exactly sized iterator, so it is
    // one allocation.
    let raster =
        |pixels: &[u16]| Value::Bytes(pixels.iter().flat_map(|p| p.to_le_bytes()).collect());
    let bands: Fields = eq_bigearthnet::bands::SENTINEL2_BANDS
        .into_iter()
        .map(|band| (band.name().to_string(), raster(patch.band(band).pixels())))
        .collect();
    let sar: Fields = eq_bigearthnet::bands::Polarization::ALL
        .into_iter()
        .map(|pol| (pol.name().to_string(), raster(patch.polarization(pol).pixels())))
        .collect();
    let image_doc = Document::from([
        ("bands", Value::Doc(bands)),
        (fields::NAME, Value::from(name)),
        ("sar", Value::Doc(sar)),
    ]);

    // Rendered RGB document.
    let (size, rgb) = patch.render_rgb();
    let rendered_doc = Document::from([
        (fields::NAME, Value::from(name)),
        ("rgb", Value::Bytes(rgb)),
        ("size", Value::Int(size as i64)),
    ]);
    (image_doc, rendered_doc)
}

/// Inserts a patch's three documents, which `Catalog::check_records`
/// passed: the metadata document built from `meta`, and the image-data and
/// rendered documents.
pub(crate) fn insert_patch_docs(
    db: &mut Database,
    meta: &PatchMetadata,
    image_doc: Document,
    rendered_doc: Document,
) {
    let docs = [
        (collections::METADATA, metadata_document(meta)),
        (collections::IMAGE_DATA, image_doc),
        (collections::RENDERED, rendered_doc),
    ];
    for (coll, doc) in docs {
        let inserted = db.collection_mut(coll).and_then(|c| c.insert(doc));
        // lint:allow(panic) Catalog::check_records found each collection and none holding the name
        inserted.expect("a checked patch inserts");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::persist::WalRecord;
    use crate::EarthQubeConfig;
    use eq_bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};
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

    fn untrained(seed: u64) -> EarthQubeConfig {
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        config
    }

    #[test]
    fn full_ingest_populates_all_four_collections() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 14)).unwrap().generate();
        let catalog = Catalog::build(&archive, &untrained(14)).unwrap();
        let db = &catalog.database;
        for coll in [collections::METADATA, collections::IMAGE_DATA, collections::RENDERED] {
            assert_eq!(db.collection(coll).unwrap().len(), 8, "collection {coll}");
        }
        assert_eq!(db.collection_names().len(), 4);

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
    fn a_refused_patch_ingest_leaves_existing_docs_untouched() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(1, 17)).unwrap().generate();
        let patch = &archive.patches()[0];
        let mut catalog = Catalog::build(&Archive::default(), &untrained(17)).unwrap();
        let code = catalog.cbir.model().hash_patch(patch);
        let record = || {
            let (image_doc, rendered_doc) = prepare_patch_docs(patch, &patch.meta.name);
            WalRecord::Ingest {
                meta: patch.meta.clone(),
                code: code.clone(),
                image_doc,
                rendered_doc,
            }
        };
        // A pre-existing image-data document under the patch's name makes
        // the record refused before any of its three inserts.
        let squatter = Document::new().with(fields::NAME, patch.meta.name.as_str());
        let images = catalog.database.collection_mut(collections::IMAGE_DATA).unwrap();
        let without_squatter = images.clone();
        images.insert(squatter).unwrap();

        let err = catalog.apply_record(record()).unwrap_err();
        assert!(matches!(err, EarthQubeError::Store(_)));
        // Nothing was inserted; the squatter survived.
        let len = |catalog: &Catalog, coll| catalog.database.collection(coll).unwrap().len();
        assert_eq!(len(&catalog, collections::METADATA), 0);
        assert_eq!(len(&catalog, collections::IMAGE_DATA), 1);
        assert_eq!(len(&catalog, collections::RENDERED), 0);
        assert!(catalog.metadata.is_empty() && catalog.cbir.is_empty());

        // With the squatter dropped (its collection as it was before it),
        // the same patch ingests cleanly, as dense id 0 and metadata
        // document 0.
        let key = Value::Str(patch.meta.name.clone());
        *catalog.database.collection_mut(collections::IMAGE_DATA).unwrap() = without_squatter;
        assert_eq!(catalog.apply_record(record()).unwrap(), 0);
        for coll in [collections::METADATA, collections::IMAGE_DATA, collections::RENDERED] {
            assert_eq!(len(&catalog, coll), 1, "collection {coll}");
        }
        let metadata = catalog.database.collection(collections::METADATA).unwrap();
        assert_eq!(metadata.get(0).unwrap().get(fields::NAME), Some(&key));
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
