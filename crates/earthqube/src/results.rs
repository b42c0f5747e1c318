//! The result panel: image-patch listing, pagination and the download cart
//! (§3.1 "Result Panel" of the paper).
//!
//! A row ([`ResultEntry`], defined in `eq_proto` beside its codec: the row
//! a query returns is the row the wire carries) holds the metadata table's
//! `Copy` country, date and label set beside the patch name, never their
//! display strings, so building or cloning one (`page`, the result cache)
//! is one allocation.  The wire carries those typed fields too (a country
//! tag, the date's numbers, the label bits); only
//! [`ResultEntry::describe`] renders names.

pub use eq_proto::ResultEntry;
// The page cap, and the clamp the panel and the answer writer share.
pub use eq_proto::MAX_PAGE_SIZE;

/// Maximum number of images that can be rendered on the map at once
/// (the paper's UI caps map rendering at 1000 images).
pub const MAX_RENDERED_IMAGES: usize = 1000;

/// One page of results.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPage {
    /// Zero-based page number.
    pub page: usize,
    /// Entries on this page.
    pub entries: Vec<ResultEntry>,
    /// Total number of matching images across all pages.
    pub total: usize,
}

/// The result panel: the full result list with pagination and rendering caps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultPanel {
    entries: Vec<ResultEntry>,
    page_size: usize,
}

impl ResultPanel {
    /// Creates a panel over a result list with the given page size
    /// (clamped to 1..=[`MAX_PAGE_SIZE`]).
    pub fn new(entries: Vec<ResultEntry>, page_size: usize) -> Self {
        Self { entries, page_size: eq_proto::panel_page_size(page_size) }
    }

    /// Total number of matching images ("the total number of image patches
    /// that match the query criteria").
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// All entries of the panel in rank order (the un-paginated result
    /// list — what the network tier serializes).
    pub fn entries(&self) -> &[ResultEntry] {
        &self.entries
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.entries.len().div_ceil(self.page_size)
    }

    /// Returns one page of results (out-of-range pages are empty).
    pub fn page(&self, page: usize) -> ResultPage {
        let start = page.saturating_mul(self.page_size);
        let entries = self.entries.iter().skip(start).take(self.page_size).cloned().collect();
        ResultPage { page, entries, total: self.entries.len() }
    }

    /// Names of the images that may be rendered on the map (capped at
    /// [`MAX_RENDERED_IMAGES`]).
    pub fn renderable_names(&self) -> Vec<&str> {
        self.entries.iter().take(MAX_RENDERED_IMAGES).map(|e| e.name.as_str()).collect()
    }

    /// The full list of retrieved names as a plain-text download ("download
    /// the names of the retrieved images as a plain text file").
    pub fn names_as_text(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&e.name);
            s.push('\n');
        }
        s
    }

    /// Renders the image-patches view of one page as text (the stand-in for
    /// Figure 1's result panel).
    pub fn render_page(&self, page: usize) -> String {
        let p = self.page(page);
        let mut out = format!(
            "{} image patches match the query (page {}/{})\n",
            p.total,
            page + 1,
            self.page_count().max(1)
        );
        for (i, e) in p.entries.iter().enumerate() {
            out.push_str(&format!("{:>3}. {}\n", page * self.page_size + i + 1, e.describe()));
        }
        out
    }
}

/// The download cart: "allows users to combine images from different
/// searches and download them together as a single collection".
#[derive(Debug, Clone, Default)]
pub struct DownloadCart {
    names: Vec<String>,
}

impl DownloadCart {
    /// Creates an empty cart.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one image to the cart (duplicates are ignored); returns whether
    /// it was newly added.
    pub fn add(&mut self, name: &str) -> bool {
        if self.names.iter().any(|n| n == name) {
            false
        } else {
            self.names.push(name.to_string());
            true
        }
    }

    /// Adds a page of results (at most [`MAX_PAGE_SIZE`] entries) to the
    /// cart; returns the number of newly added images.
    pub fn add_page(&mut self, page: &ResultPage) -> usize {
        page.entries.iter().take(MAX_PAGE_SIZE).filter(|e| self.add(&e.name)).count()
    }

    /// Removes an image from the cart; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.names.len();
        self.names.retain(|n| n != name);
        self.names.len() != before
    }

    /// The collected image names, in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of images in the cart.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the cart is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Empties the cart.
    pub fn clear(&mut self) {
        self.names.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::patch::AcquisitionDate;
    use eq_bigearthnet::{ArchiveGenerator, Country, GeneratorConfig, Label, LabelSet};

    fn entries(n: usize) -> Vec<ResultEntry> {
        ArchiveGenerator::new(GeneratorConfig::tiny(n, 41))
            .unwrap()
            .generate_metadata_only()
            .iter()
            .map(|m| ResultEntry::from_metadata(m, None))
            .collect()
    }

    #[test]
    fn entry_describes_itself() {
        let metas =
            ArchiveGenerator::new(GeneratorConfig::tiny(1, 42)).unwrap().generate_metadata_only();
        let e = ResultEntry::from_metadata(&metas[0], Some(3));
        let d = e.describe();
        assert!(d.contains(&metas[0].name));
        assert!(d.contains("hamming 3"));
        let e = ResultEntry::from_metadata(&metas[0], None);
        assert!(!e.describe().contains("hamming"));
        assert!(!e.labels.is_empty());
        assert_eq!(
            (e.country, e.date, e.labels),
            (metas[0].country, metas[0].date, metas[0].labels)
        );
    }

    #[test]
    fn the_rendered_text_is_pinned() {
        let mut e = ResultEntry {
            name: "S2A_MSIL2A_20170717T100031_T29SNC_3_4".to_string(),
            country: Country::Portugal,
            date: AcquisitionDate::new(2017, 7, 17).unwrap(),
            labels: LabelSet::from_labels([Label::SeaAndOcean, Label::ConiferousForest]),
            distance: Some(3),
        };
        assert_eq!(
            e.describe(),
            "S2A_MSIL2A_20170717T100031_T29SNC_3_4 [Portugal] 2017-07-17 — \
             Coniferous forest, Sea and ocean (hamming 3)"
        );
        e.distance = None;
        e.labels = LabelSet::EMPTY;
        assert_eq!(e.describe(), "S2A_MSIL2A_20170717T100031_T29SNC_3_4 [Portugal] 2017-07-17 — ");
        let panel = ResultPanel::new(vec![e], 10);
        assert_eq!(
            panel.render_page(0),
            "1 image patches match the query (page 1/1)\n  \
             1. S2A_MSIL2A_20170717T100031_T29SNC_3_4 [Portugal] 2017-07-17 — \n"
        );
    }

    #[test]
    fn pagination_covers_all_entries_without_overlap() {
        let panel = ResultPanel::new(entries(23), 10);
        assert_eq!(panel.total(), 23);
        assert_eq!(panel.page_count(), 3);
        assert_eq!(panel.page(0).entries.len(), 10);
        assert_eq!(panel.page(1).entries.len(), 10);
        assert_eq!(panel.page(2).entries.len(), 3);
        assert!(panel.page(3).entries.is_empty());
        // No duplicates across pages.
        let mut all: Vec<String> =
            (0..3).flat_map(|p| panel.page(p).entries).map(|e| e.name).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 23);
    }

    #[test]
    fn page_size_is_clamped_to_the_ui_limit() {
        let panel = ResultPanel::new(entries(5), 500);
        assert_eq!(panel.page_size(), MAX_PAGE_SIZE);
        let panel = ResultPanel::new(entries(5), 0);
        assert_eq!(panel.page_size(), 1);
    }

    #[test]
    fn renderable_names_are_capped() {
        let panel = ResultPanel::new(entries(30), 10);
        assert_eq!(panel.renderable_names().len(), 30);
        // The cap only kicks in above MAX_RENDERED_IMAGES; emulate by checking the constant.
        assert_eq!(MAX_RENDERED_IMAGES, 1000);
    }

    #[test]
    fn names_as_text_and_render_page() {
        let panel = ResultPanel::new(entries(12), 5);
        let text = panel.names_as_text();
        assert_eq!(text.lines().count(), 12);
        let rendered = panel.render_page(0);
        assert!(rendered.contains("12 image patches"));
        assert!(rendered.contains("page 1/3"));
        assert!(rendered.contains("  1. "));
    }

    #[test]
    fn download_cart_deduplicates_and_combines_searches() {
        let panel_a = ResultPanel::new(entries(8), 5);
        let panel_b = ResultPanel::new(entries(8), 5); // same names: dedup expected
        let mut cart = DownloadCart::new();
        assert!(cart.is_empty());
        let added = cart.add_page(&panel_a.page(0));
        assert_eq!(added, 5);
        let added_again = cart.add_page(&panel_b.page(0));
        assert_eq!(added_again, 0, "same images should not be added twice");
        cart.add_page(&panel_a.page(1));
        assert_eq!(cart.len(), 8);
        assert!(cart.remove(cart.names()[0].clone().as_str()));
        assert!(!cart.remove("ghost"));
        assert_eq!(cart.len(), 7);
        cart.clear();
        assert!(cart.is_empty());
    }

    #[test]
    fn single_image_add_reports_novelty() {
        let mut cart = DownloadCart::new();
        assert!(cart.add("img_1"));
        assert!(!cart.add("img_1"));
        assert_eq!(cart.names(), &["img_1".to_string()]);
    }
}
