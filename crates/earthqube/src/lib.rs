//! The EarthQube back-end: query, visualise and reverse-search satellite
//! data (§3 of the paper).
//!
//! EarthQube follows a three-tier architecture; this crate is the back-end
//! tier.  It wires the other workspace crates together:
//!
//! * [`schema`] / [`ingest`] — turn a BigEarthNet archive into the four
//!   document-store collections of §3.2 (metadata, image data, rendered
//!   images, feedback),
//! * [`query`] — the query-panel model of §3.1: geospatial shape, date
//!   range, satellites, seasons, and label filtering with the `Some`,
//!   `Exactly` and `At least & more` operators over the CLC hierarchy,
//! * `catalog` (private) — the one query core: document store, dense-id
//!   metadata table and CBIR service as one value, with the single
//!   implementation of every query kind and of the write apply path; both
//!   façades below are configurations of it,
//! * [`cbir`] — the MiLaN-backed content-based image-retrieval service of
//!   §3.3, the core's CBIR half (the trained model, the in-memory
//!   name→code table and the dense-id code arena every k-NN scans),
//! * [`filtered`] — bitmap-prefiltered similarity search: query-panel
//!   filters compiled to posting-bitmap candidate masks so the Hamming
//!   kernels skip non-matching images before any distance work (E13),
//! * [`stats`] — the label-statistics view of Figure 2-4,
//! * [`results`] — the result panel: pagination, download cart, rendering,
//! * [`feedback`] — anonymous user feedback storage,
//! * [`engine`] — the [`EarthQube`] facade: the query core bare, with no
//!   lock and no cache,
//! * [`serve`] — the concurrent serving layer: a [`QueryServer`] owning the
//!   same core behind one lock and sharing it across worker threads, with
//!   one write section, LRU caches invalidated when the archive grows, and
//!   the primary/replica role,
//! * `durability` / `persist` (private) — the durable tier: one component
//!   owning a server's persistence attachment, the write-ahead log policy,
//!   the one checkpoint protocol and the checkpointer; and the file
//!   formats and file I/O under it,
//! * [`net`] — the network tier: a TCP [`NetServer`] speaking the
//!   `eq_proto` binary RPC protocol, and the blocking [`EqClient`] whose
//!   remote results are byte-identical to in-process calls,
//! * [`replicate`] — the replication tier: read replicas pulling the
//!   records past their own two record counts over the same RPC protocol
//!   (seeding is a pull from nothing), promotion/fencing on failover, and
//!   a retrying [`ClusterClient`]
//!   fanning reads across replicas while routing writes to the primary.
//!
//! # Example
//!
//! Build the back-end over a (tiny) synthetic archive, move its query core
//! into the concurrent server, and fan a small workload of wire requests
//! over two worker threads:
//!
//! ```
//! use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};
//! use eq_earthqube::net::{query_to_spec, response_to_payload};
//! use eq_earthqube::{
//!     EarthQube, EarthQubeConfig, ImageQuery, QueryServer, RequestBody, ResponseBody, ServeConfig,
//! };
//!
//! let archive = ArchiveGenerator::new(GeneratorConfig::tiny(16, 7)).unwrap().generate();
//! let mut config = EarthQubeConfig::fast(7);
//! config.train_model = false; // keep the doc-test fast
//!
//! // The facade: the query core bare, one query at a time.
//! let engine = EarthQube::build(&archive, config).unwrap();
//! let name = &archive.patches()[0].meta.name;
//! assert_eq!(engine.search(&ImageQuery::all()).unwrap().total(), 16);
//! let similar = engine.similar_to(name, 3).unwrap();
//!
//! // The server: the same core, moved behind a lock and a result cache,
//! // shared across threads.
//! let server = QueryServer::from_engine(engine, ServeConfig::default()).unwrap();
//! let requests = vec![
//!     RequestBody::Search(query_to_spec(&ImageQuery::all())),
//!     RequestBody::SimilarTo { name: name.clone(), k: 3 },
//! ];
//! let results = server.run_workload(&requests, 2);
//! assert!(matches!(&results[0], ResponseBody::Search(answer) if answer.rows.len() == 16));
//! assert_eq!(results[1], ResponseBody::Search(response_to_payload(&similar)));
//! assert!(server.stats().queries_served >= 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
pub mod cbir;
mod durability;
pub mod engine;
pub mod feedback;
pub mod filtered;
pub mod ingest;
mod legacy;
pub mod net;
mod persist;
pub mod query;
pub mod replicate;
pub mod results;
pub mod schema;
pub mod serve;
pub mod stats;

pub use cbir::CbirService;
pub use engine::{EarthQube, EarthQubeConfig, SearchResponse};
pub use feedback::FeedbackService;
pub use filtered::{FilterStrategy, FilteredPlan, FilteredResponse, PrefilterMode};
pub use ingest::{ingest_metadata, IngestReport};
pub use net::{EqClient, NetServer};
pub use query::{ImageQuery, LabelFilter, LabelOperator};
pub use replicate::{ClusterClient, Replica, ReplicaSync, RetryPolicy, SyncStatus};
pub use results::{DownloadCart, ResultEntry, ResultPage, ResultPanel};
pub use schema::{collections, metadata_document, metadata_from_document};
pub use serve::{
    CheckpointKind, CheckpointStats, CheckpointerStats, QueryServer, RequestBody, ResponseBody,
    ServeConfig, ServerStats,
};
pub use stats::LabelStatistics;

#[cfg(feature = "failpoints")]
pub use persist::failpoints;

/// Errors surfaced by the EarthQube back-end services.
#[derive(Debug, Clone, PartialEq)]
pub enum EarthQubeError {
    /// A referenced image patch does not exist in the archive.
    UnknownImage(String),
    /// The underlying document store reported an error.
    Store(String),
    /// The CBIR service has not been built yet (no trained model / index).
    CbirNotReady,
    /// The request was malformed (e.g. an inverted date range).
    BadRequest(String),
    /// The durable storage tier failed: an I/O error, or a snapshot/WAL
    /// that is missing, corrupt or from an incompatible version.
    Persist(String),
    /// The network tier failed: a transport error, a malformed frame, or a
    /// protocol violation between [`net::EqClient`] and [`net::NetServer`].
    Net(String),
    /// The server applied admission control: the request was rejected
    /// (never stalled, never executed) because the client exceeded its
    /// per-connection in-flight quota.  Retry after draining responses, or
    /// back off.
    Overloaded(String),
    /// A write reached a read replica.  Replicas apply only records
    /// replicated from the primary; the client should re-discover the
    /// primary (it may have moved after a failover) and retry there.
    NotPrimary(String),
}

impl std::fmt::Display for EarthQubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EarthQubeError::UnknownImage(n) => write!(f, "unknown image: {n}"),
            EarthQubeError::Store(e) => write!(f, "document store error: {e}"),
            EarthQubeError::CbirNotReady => write!(f, "CBIR service is not ready"),
            EarthQubeError::BadRequest(m) => write!(f, "bad request: {m}"),
            EarthQubeError::Persist(m) => write!(f, "persistence error: {m}"),
            EarthQubeError::Net(m) => write!(f, "network error: {m}"),
            EarthQubeError::Overloaded(m) => write!(f, "server overloaded: {m}"),
            EarthQubeError::NotPrimary(m) => write!(f, "not the primary: {m}"),
        }
    }
}

impl std::error::Error for EarthQubeError {}

impl From<eq_docstore::StoreError> for EarthQubeError {
    fn from(e: eq_docstore::StoreError) -> Self {
        EarthQubeError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        assert!(EarthQubeError::UnknownImage("p".into()).to_string().contains("unknown image"));
        assert!(EarthQubeError::CbirNotReady.to_string().contains("not ready"));
        assert!(EarthQubeError::BadRequest("x".into()).to_string().contains("bad request"));
        let e: EarthQubeError = eq_docstore::StoreError::NoSuchCollection("m".into()).into();
        assert!(matches!(e, EarthQubeError::Store(_)));
    }
}
