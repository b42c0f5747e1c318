//! Archive ingestion: a patch's metadata document, and its raster bytes.

use eq_bigearthnet::patch::{Patch, PatchMetadata};
use eq_docstore::{Database, Document, Fields, Indexes, Value};

use crate::schema::{collections, fields, metadata_document};
use crate::{feedback, persist, EarthQubeError};

pub use eq_proto::IngestReport;

/// The metadata collection's indexes, declared over no document: attribute
/// indexes on country and season, element postings over the ASCII label
/// codes and value postings over the acquisition date (so label and date
/// predicates compile to posting-bitmap candidates, E13), and the geohash
/// index on the location.  The catalog keeps this value alone.
pub(crate) fn metadata_indexes() -> Indexes {
    let mut indexes = Indexes::new();
    for field in [fields::COUNTRY, fields::SEASON, fields::LABELS, fields::DATE] {
        indexes.create_attribute_index(field, &[]);
    }
    // lint:allow(panic) infallible: fresh indexes carry no geo index on another field
    indexes.create_geo_index(fields::LOCATION, &[]).expect("fresh indexes accept a geo index");
    indexes
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
    feedback::create_collection(db);
    let coll = db.create_collection(collections::METADATA, fields::NAME);
    if coll.indexes().attribute_index(fields::COUNTRY).is_none() {
        // The catalog's index declarations, on a collection that keeps its
        // documents.
        let declared = metadata_indexes();
        for field in declared.attribute_fields() {
            coll.create_attribute_index(field);
        }
        if let Some((field, _)) = declared.geo_index() {
            coll.create_geo_index(field)?;
        }
    }
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
/// `name`.
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

/// A patch's raster bytes, as its ingest record carries them: its
/// image-data and rendered documents keyed by `name`, encoded — the
/// CPU-heavy half of an ingest, needing no database access so the
/// concurrent write path can run it before taking the catalog write lock.
pub(crate) fn patch_rasters(patch: &Patch, name: &str) -> Box<[u8]> {
    let (image_doc, rendered_doc) = prepare_patch_docs(patch, name);
    persist::encode_rasters(&image_doc, &rendered_doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::persist::WalRecord;
    use crate::{EarthQubeConfig, QueryServer, ServeConfig};
    use eq_bigearthnet::patch::PatchId;
    use eq_bigearthnet::{Archive, ArchiveGenerator, GeneratorConfig};
    use eq_docstore::Filter;
    use eq_wire::Reader;

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
        // The metadata and feedback collections exist.
        assert_eq!(db.collection_names(), [collections::FEEDBACK, collections::METADATA]);
    }

    fn untrained(seed: u64) -> EarthQubeConfig {
        let mut config = EarthQubeConfig::fast(seed);
        config.train_model = false;
        config
    }

    /// A built catalog holds the metadata postings, the feedback
    /// collection alone, and each patch's rasters as bytes: decoded, they
    /// are the documents `prepare_patch_docs` makes of the patch, on a
    /// built server, after checkpoint → recover, and on a replica after a
    /// pull.
    #[test]
    fn full_ingest_keeps_metadata_postings_and_raster_bytes() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 14)).unwrap().generate();
        let assert_rasters = |srv: &QueryServer, what: &str| {
            let catalog = srv.catalog.read();
            assert_eq!(catalog.database.collection_names(), [collections::FEEDBACK]);
            assert_eq!(catalog.indexes.len(), 8, "{what}");
            assert_eq!(catalog.rasters.len(), 8, "{what}");
            for (patch, rasters) in archive.patches().iter().zip(&catalog.rasters) {
                let (name, mut r) = (&patch.meta.name, Reader::new(rasters));
                let docs = persist::read_rasters(&mut r, name).unwrap();
                assert!(r.is_empty(), "{what}: {name} holds more than its rasters");
                let prepared = <[Document; 2]>::from(prepare_patch_docs(patch, name));
                assert!(docs == prepared, "{what}: {name}");
            }
        };
        let srv = QueryServer::build(&archive, untrained(14), ServeConfig::default()).unwrap();
        assert_rasters(&srv, "built");

        // The image-data document stores all 12 band buffers.
        let name = &archive.patches()[0].meta.name;
        let [img, rendered] = {
            let catalog = srv.catalog.read();
            persist::read_rasters(&mut Reader::new(&catalog.rasters[0]), name).unwrap()
        };
        assert!(!img.get("bands.B02").unwrap().as_bytes().unwrap().is_empty());
        assert!(img.get("bands.B12").is_some());
        assert!(img.get("sar.VV").is_some());
        // The rendered document stores an RGB buffer of size² × 3 bytes.
        let size = rendered.get("size").unwrap().as_int().unwrap() as usize;
        assert_eq!(rendered.get("rgb").unwrap().as_bytes().unwrap().len(), size * size * 3);

        let dirs = ["primary", "replica"].map(|dir| {
            std::env::temp_dir().join(format!("eq_ingest_{dir}_{}", std::process::id()))
        });
        dirs.iter().for_each(|dir| _ = std::fs::remove_dir_all(dir));
        srv.checkpoint(&dirs[0]).unwrap();
        let pulled = srv.repl_pull(0, 0, 0, [0, 0], u64::MAX).unwrap();
        let replica = QueryServer::seed(&dirs[1], &pulled.static_chunk, pulled.generation).unwrap();
        assert_eq!(replica.apply_runs(&pulled.runs).unwrap(), 8);
        assert_rasters(&replica, "pulled");
        drop((srv, replica));
        assert_rasters(&QueryServer::recover(&dirs[0]).unwrap(), "recovered");
        dirs.iter().for_each(|dir| _ = std::fs::remove_dir_all(dir));
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
        let named = |name: &str, id: u32| WalRecord::Ingest {
            meta: PatchMetadata { name: name.to_string(), id: PatchId(id), ..patch.meta.clone() },
            code: code.clone(),
            rasters: patch_rasters(patch, name),
        };
        let record = || named(&patch.meta.name, 0);
        // A batch naming the patch twice is refused at its second record,
        // before anything is inserted.
        let (valid, refused) = catalog.check_records(&[record(), named(&patch.meta.name, 1)]);
        assert_eq!(valid, 1);
        assert!(matches!(refused, Err(EarthQubeError::BadRequest(_))), "{refused:?}");
        let len = |catalog: &Catalog| catalog.indexes.len();
        assert_eq!(len(&catalog), 0);
        assert!(catalog.metadata.is_empty() && catalog.cbir.is_empty());
        assert!(catalog.rasters.is_empty());

        // On its own, the patch ingests cleanly, as dense id 0 and posting
        // id 0.
        assert_eq!(catalog.apply_record(record()).unwrap(), 0);
        assert_eq!((len(&catalog), catalog.rasters.len()), (1, 1));
        // Its name, now indexed, is refused, and nothing is inserted.
        let err = catalog.apply_record(named(&patch.meta.name, 1)).unwrap_err();
        assert!(matches!(err, EarthQubeError::BadRequest(_)), "{err:?}");
        // Under another name, a record carrying dense id 0 is refused too:
        // the patch holds it.
        let err = catalog.apply_record(named("another-name", 0)).unwrap_err();
        assert!(matches!(err, EarthQubeError::Persist(_)), "{err:?}");
        assert_eq!((len(&catalog), catalog.metadata.len(), catalog.rasters.len()), (1, 1, 1));
        let countries = catalog.indexes.attribute_index(fields::COUNTRY).unwrap();
        let posting = countries.value_bitmap(&Value::from(patch.meta.country.name()));
        assert_eq!(posting.map(|ids| ids.iter().collect::<Vec<_>>()), Some(vec![0]));
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
