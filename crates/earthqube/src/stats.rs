//! The label-statistics view (Figure 2-4 of the paper).
//!
//! EarthQube "summarizes the occurrence of land cover labels in the
//! retrieved images" as a bar chart with one predefined colour per label.
//! This module computes the counts and renders a text bar chart that the
//! examples print in place of the web UI.

use eq_bigearthnet::labels::{Label, LabelSet};

/// Occurrence counts of land-cover labels in a set of retrieved images.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelStatistics {
    counts: Vec<usize>,
    images: usize,
}

impl LabelStatistics {
    /// Computes statistics from the label sets of the retrieved images.
    pub fn from_label_sets<I: IntoIterator<Item = LabelSet>>(sets: I) -> Self {
        let mut counts = vec![0usize; Label::COUNT];
        let mut images = 0usize;
        for set in sets {
            images += 1;
            for label in set.iter() {
                counts[label.index()] += 1;
            }
        }
        Self { counts, images }
    }

    /// Reassembles statistics from raw parts — the network-decoding path.
    /// `counts` must be indexed by [`Label::index`] (the layout
    /// [`counts`](Self::counts) exposes); equality with locally computed
    /// statistics requires the canonical [`Label::COUNT`] length.
    pub fn from_parts(counts: Vec<usize>, image_count: usize) -> Self {
        Self { counts, images: image_count }
    }

    /// The raw per-label occurrence counts, indexed by [`Label::index`].
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of images the statistics cover.
    pub fn image_count(&self) -> usize {
        self.images
    }

    /// The occurrence count of one label.
    pub fn count(&self, label: Label) -> usize {
        self.counts.get(label.index()).copied().unwrap_or(0)
    }

    /// All `(label, count)` pairs with a non-zero count, sorted by count
    /// descending then by label index — the order the bar chart displays.
    pub fn ranked(&self) -> Vec<(Label, usize)> {
        let mut out: Vec<(Label, usize)> = Label::ALL
            .iter()
            .copied()
            .filter_map(|l| {
                let c = self.count(l);
                (c > 0).then_some((l, c))
            })
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        out
    }

    /// The most frequent label, if any images were counted.
    pub fn dominant(&self) -> Option<(Label, usize)> {
        self.ranked().into_iter().next()
    }

    /// Renders a text bar chart (stand-in for Figure 2-4), showing the top
    /// `max_rows` labels with bars scaled to `width` characters and the
    /// label's display colour as an RGB triple.
    pub fn render_bar_chart(&self, max_rows: usize, width: usize) -> String {
        let ranked = self.ranked();
        if ranked.is_empty() {
            return String::from("(no labels in the current retrieval)\n");
        }
        let max = ranked[0].1.max(1);
        let width = width.max(1);
        let mut out = String::new();
        out.push_str(&format!("Label statistics over {} images\n", self.images));
        for (label, count) in ranked.into_iter().take(max_rows) {
            let bar_len = ((count as f64 / max as f64) * width as f64).round().max(1.0) as usize;
            let (r, g, b) = label.color();
            out.push_str(&format!(
                "{:<45} |{:<w$}| {:>6}  rgb({r},{g},{b})\n",
                truncate(label.name(), 45),
                "█".repeat(bar_len),
                count,
                w = width
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> Vec<LabelSet> {
        vec![
            LabelSet::from_labels([Label::SeaAndOcean, Label::BeachesDunesSands]),
            LabelSet::from_labels([Label::SeaAndOcean]),
            LabelSet::from_labels([Label::SeaAndOcean, Label::ConiferousForest]),
            LabelSet::from_labels([Label::ConiferousForest]),
        ]
    }

    #[test]
    fn counts_and_ranking() {
        let stats = LabelStatistics::from_label_sets(sets());
        assert_eq!(stats.image_count(), 4);
        assert_eq!(stats.count(Label::SeaAndOcean), 3);
        assert_eq!(stats.count(Label::ConiferousForest), 2);
        assert_eq!(stats.count(Label::BeachesDunesSands), 1);
        assert_eq!(stats.count(Label::Airports), 0);
        let ranked = stats.ranked();
        assert_eq!(ranked[0], (Label::SeaAndOcean, 3));
        assert_eq!(ranked.len(), 3);
        assert_eq!(stats.dominant(), Some((Label::SeaAndOcean, 3)));
    }

    #[test]
    fn empty_statistics() {
        let stats = LabelStatistics::from_label_sets(Vec::<LabelSet>::new());
        assert_eq!(stats.image_count(), 0);
        assert!(stats.ranked().is_empty());
        assert!(stats.dominant().is_none());
        assert!(stats.render_bar_chart(10, 30).contains("no labels"));
    }

    /// `from_parts` takes counts of any length (a decoded response carries
    /// whatever the server sent); a missing label reads as zero.
    #[test]
    fn short_count_vectors_read_as_zero() {
        let empty = LabelStatistics::from_parts(vec![], 0);
        assert!(empty.ranked().is_empty());
        assert!(empty.dominant().is_none());
        assert!(empty.render_bar_chart(10, 30).contains("no labels"));
        let five = LabelStatistics::from_parts(vec![0, 4, 0, 9, 1], 12);
        let ranked: Vec<(Label, usize)> =
            [(3, 9), (1, 4), (4, 1)].map(|(i, c)| (Label::from_index(i).unwrap(), c)).to_vec();
        assert_eq!(five.ranked(), ranked);
        assert_eq!(five.dominant(), Some(ranked[0]));
        assert!(five.render_bar_chart(10, 30).contains("12 images"));
    }

    #[test]
    fn ties_are_broken_deterministically_by_label_index() {
        let stats = LabelStatistics::from_label_sets(vec![LabelSet::from_labels([
            Label::Airports,
            Label::Vineyards,
        ])]);
        let ranked = stats.ranked();
        assert_eq!(ranked[0].0, Label::Airports); // smaller dense index first
        assert_eq!(ranked[1].0, Label::Vineyards);
    }

    #[test]
    fn bar_chart_contains_labels_counts_and_colours() {
        let stats = LabelStatistics::from_label_sets(sets());
        let chart = stats.render_bar_chart(10, 20);
        assert!(chart.contains("Sea and ocean"));
        assert!(chart.contains("Coniferous forest"));
        assert!(chart.contains('█'));
        assert!(chart.contains("rgb("));
        assert!(chart.contains("4 images"));
        // max_rows truncates the output.
        let one_row = stats.render_bar_chart(1, 20);
        assert!(one_row.contains("Sea and ocean"));
        assert!(!one_row.contains("Coniferous forest"));
    }

    #[test]
    fn long_label_names_are_truncated_in_the_chart() {
        let stats = LabelStatistics::from_label_sets(vec![LabelSet::from_labels([
            Label::LandPrincipallyOccupiedByAgriculture,
        ])]);
        let chart = stats.render_bar_chart(5, 10);
        assert!(chart.contains('…'));
    }
}
