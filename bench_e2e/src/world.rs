//! What a request stream's indexes point at, how one request is executed
//! remotely and in process, and how its answer is checked.

use eq_bigearthnet::patch::{Patch, PatchMetadata};
use eq_earthqube::net::{filtered_to_payload, response_to_payload};
use eq_earthqube::{
    EarthQubeError, EqClient, FilteredResponse, LabelStatistics, PrefilterMode, QueryServer,
    ResultEntry, SearchResponse,
};
use eq_hashindex::BinaryCode;
use eq_milan::Milan;
use eq_proto::ResponseBody;

use crate::workloads::{knn, within, Op, PoolQuery, K, RADIUS};

/// The corpus as the oracle sees it, the held-out patches (never in the
/// corpus: uploads and ingests) and the query-panel pool.
pub struct World {
    /// Indexed by dense patch id.
    pub metas: Vec<PatchMetadata>,
    /// Indexed by dense patch id.
    pub codes: Vec<BinaryCode>,
    /// The model the server was built with.
    pub model: Milan,
    pub held: Vec<Patch>,
    pub pool: Vec<PoolQuery>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Plain(SearchResponse),
    Filtered(FilteredResponse),
}

impl Answer {
    pub fn response(&self) -> &SearchResponse {
        match self {
            Answer::Plain(response) => response,
            Answer::Filtered(filtered) => &filtered.response,
        }
    }

    /// The answer as the server puts it on the wire.
    pub fn body(&self) -> ResponseBody {
        match self {
            Answer::Plain(response) => ResponseBody::Search(response_to_payload(response)),
            Answer::Filtered(filtered) => ResponseBody::Filtered(filtered_to_payload(filtered)),
        }
    }
}

impl World {
    fn name(&self, id: u32) -> &str {
        &self.metas[id as usize].name
    }

    pub fn remote(&self, client: &mut EqClient, op: Op) -> Result<Answer, EarthQubeError> {
        match op {
            Op::Similar { name } => client.similar_to(self.name(name), K).map(Answer::Plain),
            Op::NewExample { held } => {
                client.search_by_new_example(&self.held[held as usize], K).map(Answer::Plain)
            }
            Op::Panel { query } => {
                client.search(&self.pool[query as usize].query).map(Answer::Plain)
            }
            Op::SimilarFiltered { name, query } => client
                .similar_to_filtered(
                    self.name(name),
                    K,
                    &self.pool[query as usize].query,
                    PrefilterMode::Auto,
                )
                .map(Answer::Filtered),
            Op::WithinFiltered { name, query } => client
                .similar_within_filtered(
                    self.name(name),
                    RADIUS,
                    &self.pool[query as usize].query,
                    PrefilterMode::Auto,
                )
                .map(Answer::Filtered),
        }
    }

    pub fn local(&self, server: &QueryServer, op: Op) -> Result<Answer, EarthQubeError> {
        match op {
            Op::Similar { name } => server.similar_to(self.name(name), K).map(Answer::Plain),
            Op::NewExample { held } => {
                server.search_by_new_example(&self.held[held as usize], K).map(Answer::Plain)
            }
            Op::Panel { query } => {
                server.search(&self.pool[query as usize].query).map(Answer::Plain)
            }
            Op::SimilarFiltered { name, query } => server
                .similar_to_filtered(
                    self.name(name),
                    K,
                    &self.pool[query as usize].query,
                    PrefilterMode::Auto,
                )
                .map(Answer::Filtered),
            Op::WithinFiltered { name, query } => server
                .similar_within_filtered(
                    self.name(name),
                    RADIUS,
                    &self.pool[query as usize].query,
                    PrefilterMode::Auto,
                )
                .map(Answer::Filtered),
        }
    }

    /// The ranked `(dense id, distance)` list the oracle expects for a
    /// similarity request; `None` for a query-panel search, whose matches
    /// the pool already holds.
    fn ranked(&self, op: Op) -> Option<Vec<(u32, u32)>> {
        let code = |name: u32| &self.codes[name as usize];
        let among = |query: u32| Some(self.pool[query as usize].matches.as_slice());
        match op {
            Op::Similar { name } => Some(knn(&self.codes, code(name), K, None, Some(name))),
            Op::NewExample { held } => {
                let code = self.model.hash_patch(&self.held[held as usize]);
                Some(knn(&self.codes, &code, K, None, None))
            }
            Op::Panel { .. } => None,
            Op::SimilarFiltered { name, query } => {
                Some(knn(&self.codes, code(name), K, among(query), Some(name)))
            }
            Op::WithinFiltered { name, query } => {
                Some(within(&self.codes, code(name), RADIUS, among(query), Some(name)))
            }
        }
    }

    /// How many entries the answer to `op` must hold.  It stays right while
    /// patches are ingested, because only k-NN requests run beside ingest.
    pub fn expected_total(&self, op: Op) -> usize {
        match op {
            Op::Similar { .. } => K.min(self.metas.len() - 1),
            Op::NewExample { .. } => K.min(self.metas.len()),
            Op::Panel { query } => self.pool[query as usize].matches.len(),
            Op::SimilarFiltered { name, query } => {
                let matches = &self.pool[query as usize].matches;
                K.min(matches.len() - usize::from(matches.binary_search(&name).is_ok()))
            }
            Op::WithinFiltered { .. } => self.ranked(op).map_or(0, |ranked| ranked.len()),
        }
    }

    /// Checks an answer against the brute-force oracle: every entry, the
    /// label statistics and the plan's match count.
    pub fn check(&self, op: Op, answer: &Answer) -> Result<(), String> {
        let entry =
            |id: u32, distance| ResultEntry::from_metadata(&self.metas[id as usize], distance);
        let mut got = answer.response().panel.entries().to_vec();
        let (mut want, ids): (Vec<ResultEntry>, Vec<u32>) = match self.ranked(op) {
            Some(ranked) => (
                ranked.iter().map(|&(id, distance)| entry(id, Some(distance))).collect(),
                ranked.iter().map(|&(id, _)| id).collect(),
            ),
            None => {
                let Op::Panel { query } = op else { unreachable!("only Panel has no ranking") };
                let ids = self.pool[query as usize].matches.clone();
                // The store returns matches in index order; compare as sets.
                got.sort_by(|a, b| a.name.cmp(&b.name));
                let mut want: Vec<ResultEntry> = ids.iter().map(|&id| entry(id, None)).collect();
                want.sort_by(|a, b| a.name.cmp(&b.name));
                (want, ids)
            }
        };
        if got != want {
            want.truncate(3);
            got.truncate(3);
            return Err(format!("{op:?}: entries differ, expected {want:?}..., got {got:?}..."));
        }
        let statistics =
            LabelStatistics::from_label_sets(ids.iter().map(|&id| self.metas[id as usize].labels));
        if answer.response().statistics != statistics {
            return Err(format!("{op:?}: label statistics differ"));
        }
        let matched = match (op, answer) {
            (Op::Panel { query }, Answer::Plain(r)) => {
                Some((r.plan.as_ref().map(|p| p.matched), query))
            }
            (
                Op::SimilarFiltered { query, .. } | Op::WithinFiltered { query, .. },
                Answer::Filtered(f),
            ) => Some((Some(f.plan.matching), query)),
            _ => None,
        };
        if let Some((matched, query)) = matched {
            let expected = self.pool[query as usize].matches.len();
            if matched != Some(expected) {
                return Err(format!(
                    "{op:?}: plan reports {matched:?} matches, expected {expected}"
                ));
            }
        }
        Ok(())
    }

    /// The correctness gate: each of `ops` must answer the same bytes
    /// remotely and in process, and that answer must be the oracle's.
    pub fn gate(
        &self,
        server: &QueryServer,
        client: &mut EqClient,
        ops: &[Op],
    ) -> Result<(), String> {
        for &op in ops {
            let local = self.local(server, op).map_err(|e| format!("{op:?} in process: {e}"))?;
            let remote = self.remote(client, op).map_err(|e| format!("{op:?} remote: {e}"))?;
            let encode = |a: &Answer| eq_proto::Response { id: 0, body: a.body() }.encode();
            if encode(&local) != encode(&remote) {
                return Err(format!("{op:?}: remote and in-process answers differ"));
            }
            self.check(op, &local)?;
            if local.response().total() != self.expected_total(op) {
                return Err(format!("{op:?}: expected_total disagrees with the oracle"));
            }
        }
        Ok(())
    }
}
