//! The anonymous user-feedback service (§3.2: "the collection feedback
//! stores anonymous user-provided text feedback, such as public reactions
//! and comments").

use eq_docstore::{Database, Document, Filter, Value};

use crate::schema::collections;
use crate::EarthQubeError;

/// A stored feedback entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackEntry {
    /// Sequential feedback id.
    pub id: i64,
    /// The free-text comment.
    pub text: String,
    /// Optional category chosen by the user (e.g. "reaction", "bug").
    pub category: Option<String>,
}

/// A comment as it is stored: trimmed, and refused when nothing is left.
pub(crate) fn trimmed(text: &str) -> Result<&str, EarthQubeError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(EarthQubeError::BadRequest("feedback text is empty".into()));
    }
    Ok(trimmed)
}

/// Stores and lists anonymous feedback in the `feedback` collection.
#[derive(Debug, Default, Clone, Copy)]
pub struct FeedbackService;

impl FeedbackService {
    /// Creates the service.
    pub fn new() -> Self {
        FeedbackService
    }

    /// Stores a feedback comment, returning its id.
    ///
    /// # Errors
    /// Fails if the text is empty or the store rejects the document.
    pub fn submit(
        &self,
        db: &mut Database,
        text: &str,
        category: Option<&str>,
    ) -> Result<i64, EarthQubeError> {
        let trimmed = trimmed(text)?;
        db.create_collection(collections::FEEDBACK, "id");
        let coll = db.collection_mut(collections::FEEDBACK)?;
        let id = coll.len() as i64;
        let mut doc = Document::new().with("id", id).with("text", trimmed);
        if let Some(c) = category {
            doc.set("category", c);
        }
        coll.insert(doc)?;
        Ok(id)
    }

    /// Lists all feedback entries in submission order.
    pub fn list(&self, db: &Database) -> Result<Vec<FeedbackEntry>, EarthQubeError> {
        let coll = db.collection(collections::FEEDBACK)?;
        Ok(coll
            .find_docs(&Filter::All)
            .into_iter()
            .filter_map(|d| {
                Some(FeedbackEntry {
                    id: d.get("id")?.as_int()?,
                    text: d.get("text")?.as_str()?.to_string(),
                    category: d.get("category").and_then(Value::as_str).map(str::to_string),
                })
            })
            .collect())
    }

    /// Lists feedback entries of one category.
    pub fn list_by_category(
        &self,
        db: &Database,
        category: &str,
    ) -> Result<Vec<FeedbackEntry>, EarthQubeError> {
        Ok(self.list(db)?.into_iter().filter(|e| e.category.as_deref() == Some(category)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_list_feedback() {
        let mut db = Database::new();
        let svc = FeedbackService::new();
        let id0 = svc.submit(&mut db, "Great tool!", Some("reaction")).unwrap();
        let id1 = svc.submit(&mut db, "Map is slow when zoomed out", Some("bug")).unwrap();
        let id2 = svc.submit(&mut db, "  anonymous note  ", None).unwrap();
        assert_eq!((id0, id1, id2), (0, 1, 2));
        let all = svc.list(&db).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].text, "Great tool!");
        assert_eq!(all[2].text, "anonymous note");
        assert_eq!(all[2].category, None);
        let bugs = svc.list_by_category(&db, "bug").unwrap();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].id, 1);
    }

    #[test]
    fn empty_feedback_is_rejected() {
        let mut db = Database::new();
        let svc = FeedbackService::new();
        assert!(matches!(svc.submit(&mut db, "   ", None), Err(EarthQubeError::BadRequest(_))));
    }

    #[test]
    fn listing_without_a_feedback_collection_errors() {
        let db = Database::new();
        let svc = FeedbackService::new();
        assert!(matches!(svc.list(&db), Err(EarthQubeError::Store(_))));
    }
}
