//! The CORINE Land Cover (CLC) 2018 nomenclature used by BigEarthNet.
//!
//! Each BigEarthNet patch is annotated with one or more Level-3 CLC classes
//! (the "thematically most detailed" level, §2.1 of the paper).  The classes
//! form a three-level hierarchy (Level-1 → Level-2 → Level-3) that the
//! EarthQube query panel exposes for label-based filtering (§3.1).
//!
//! BigEarthNet uses the 43 Level-3 classes that actually occur in its ten
//! countries.  This module hard-codes that nomenclature, the hierarchy, a
//! display colour per class (used for the label-statistics bar chart of
//! Figure 2-4) and the single-character encoding that EarthQube uses to
//! avoid "manipulation of long strings" in the metadata store (§3.2).

/// CLC Level-1 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level1 {
    /// 1 — Artificial surfaces.
    ArtificialSurfaces,
    /// 2 — Agricultural areas.
    AgriculturalAreas,
    /// 3 — Forest and semi-natural areas.
    ForestAndSeminatural,
    /// 4 — Wetlands.
    Wetlands,
    /// 5 — Water bodies.
    WaterBodies,
}

impl Level1 {
    /// All Level-1 categories in CLC order.
    pub const ALL: [Level1; 5] = [
        Level1::ArtificialSurfaces,
        Level1::AgriculturalAreas,
        Level1::ForestAndSeminatural,
        Level1::Wetlands,
        Level1::WaterBodies,
    ];

    /// The CLC numeric code of the category (1..=5).
    pub fn code(self) -> u8 {
        match self {
            Level1::ArtificialSurfaces => 1,
            Level1::AgriculturalAreas => 2,
            Level1::ForestAndSeminatural => 3,
            Level1::Wetlands => 4,
            Level1::WaterBodies => 5,
        }
    }

    /// Human-readable CLC name.
    pub fn name(self) -> &'static str {
        match self {
            Level1::ArtificialSurfaces => "Artificial surfaces",
            Level1::AgriculturalAreas => "Agricultural areas",
            Level1::ForestAndSeminatural => "Forest and semi natural areas",
            Level1::Wetlands => "Wetlands",
            Level1::WaterBodies => "Water bodies",
        }
    }
}

/// CLC Level-2 categories (the 15 that occur in BigEarthNet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level2 {
    /// 1.1 — Urban fabric.
    UrbanFabric,
    /// 1.2 — Industrial, commercial and transport units.
    IndustrialCommercialTransport,
    /// 1.3 — Mine, dump and construction sites.
    MineDumpConstruction,
    /// 1.4 — Artificial, non-agricultural vegetated areas.
    ArtificialVegetated,
    /// 2.1 — Arable land.
    ArableLand,
    /// 2.2 — Permanent crops.
    PermanentCrops,
    /// 2.3 — Pastures.
    Pastures,
    /// 2.4 — Heterogeneous agricultural areas.
    HeterogeneousAgricultural,
    /// 3.1 — Forests.
    Forests,
    /// 3.2 — Scrub and/or herbaceous vegetation associations.
    ScrubHerbaceous,
    /// 3.3 — Open spaces with little or no vegetation.
    OpenSpaces,
    /// 4.1 — Inland wetlands.
    InlandWetlands,
    /// 4.2 — Maritime wetlands.
    MaritimeWetlands,
    /// 5.1 — Inland waters.
    InlandWaters,
    /// 5.2 — Marine waters.
    MarineWaters,
}

impl Level2 {
    /// All Level-2 categories in CLC order.
    pub const ALL: [Level2; 15] = [
        Level2::UrbanFabric,
        Level2::IndustrialCommercialTransport,
        Level2::MineDumpConstruction,
        Level2::ArtificialVegetated,
        Level2::ArableLand,
        Level2::PermanentCrops,
        Level2::Pastures,
        Level2::HeterogeneousAgricultural,
        Level2::Forests,
        Level2::ScrubHerbaceous,
        Level2::OpenSpaces,
        Level2::InlandWetlands,
        Level2::MaritimeWetlands,
        Level2::InlandWaters,
        Level2::MarineWaters,
    ];

    /// The CLC two-digit code, e.g. `31` for Forests.
    pub fn code(self) -> u8 {
        match self {
            Level2::UrbanFabric => 11,
            Level2::IndustrialCommercialTransport => 12,
            Level2::MineDumpConstruction => 13,
            Level2::ArtificialVegetated => 14,
            Level2::ArableLand => 21,
            Level2::PermanentCrops => 22,
            Level2::Pastures => 23,
            Level2::HeterogeneousAgricultural => 24,
            Level2::Forests => 31,
            Level2::ScrubHerbaceous => 32,
            Level2::OpenSpaces => 33,
            Level2::InlandWetlands => 41,
            Level2::MaritimeWetlands => 42,
            Level2::InlandWaters => 51,
            Level2::MarineWaters => 52,
        }
    }

    /// Human-readable CLC name.
    pub fn name(self) -> &'static str {
        match self {
            Level2::UrbanFabric => "Urban fabric",
            Level2::IndustrialCommercialTransport => "Industrial, commercial and transport units",
            Level2::MineDumpConstruction => "Mine, dump and construction sites",
            Level2::ArtificialVegetated => "Artificial, non-agricultural vegetated areas",
            Level2::ArableLand => "Arable land",
            Level2::PermanentCrops => "Permanent crops",
            Level2::Pastures => "Pastures",
            Level2::HeterogeneousAgricultural => "Heterogeneous agricultural areas",
            Level2::Forests => "Forest",
            Level2::ScrubHerbaceous => "Scrub and/or herbaceous vegetation associations",
            Level2::OpenSpaces => "Open spaces with little or no vegetation",
            Level2::InlandWetlands => "Inland wetlands",
            Level2::MaritimeWetlands => "Maritime wetlands",
            Level2::InlandWaters => "Inland waters",
            Level2::MarineWaters => "Marine waters",
        }
    }

    /// The Level-1 parent category.
    pub fn parent(self) -> Level1 {
        match self.code() / 10 {
            1 => Level1::ArtificialSurfaces,
            2 => Level1::AgriculturalAreas,
            3 => Level1::ForestAndSeminatural,
            4 => Level1::Wetlands,
            _ => Level1::WaterBodies,
        }
    }

    /// The Level-3 classes below this category.
    pub fn children(self) -> Vec<Label> {
        Label::ALL.iter().copied().filter(|l| l.level2() == self).collect()
    }
}

/// The 43 CLC Level-3 land-cover classes used to annotate BigEarthNet.
///
/// The variant order follows the CLC numeric codes, so the `as usize`
/// discriminant is a stable dense index in `0..43` used throughout the
/// workspace (ground-truth matrices, statistics vectors, signatures, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // the names are the documentation
pub enum Label {
    ContinuousUrbanFabric = 0,
    DiscontinuousUrbanFabric,
    IndustrialOrCommercialUnits,
    RoadAndRailNetworks,
    PortAreas,
    Airports,
    MineralExtractionSites,
    DumpSites,
    ConstructionSites,
    GreenUrbanAreas,
    SportAndLeisureFacilities,
    NonIrrigatedArableLand,
    PermanentlyIrrigatedLand,
    RiceFields,
    Vineyards,
    FruitTreesAndBerryPlantations,
    OliveGroves,
    Pastures,
    AnnualCropsWithPermanentCrops,
    ComplexCultivationPatterns,
    LandPrincipallyOccupiedByAgriculture,
    AgroForestryAreas,
    BroadLeavedForest,
    ConiferousForest,
    MixedForest,
    NaturalGrassland,
    MoorsAndHeathland,
    SclerophyllousVegetation,
    TransitionalWoodlandShrub,
    BeachesDunesSands,
    BareRock,
    SparselyVegetatedAreas,
    BurntAreas,
    InlandMarshes,
    Peatbogs,
    SaltMarshes,
    Salines,
    IntertidalFlats,
    WaterCourses,
    WaterBodies,
    CoastalLagoons,
    Estuaries,
    SeaAndOcean,
}

impl Label {
    /// The number of Level-3 classes.
    pub const COUNT: usize = 43;

    /// All Level-3 classes, ordered by CLC code (i.e. by dense index).
    pub const ALL: [Label; Label::COUNT] = [
        Label::ContinuousUrbanFabric,
        Label::DiscontinuousUrbanFabric,
        Label::IndustrialOrCommercialUnits,
        Label::RoadAndRailNetworks,
        Label::PortAreas,
        Label::Airports,
        Label::MineralExtractionSites,
        Label::DumpSites,
        Label::ConstructionSites,
        Label::GreenUrbanAreas,
        Label::SportAndLeisureFacilities,
        Label::NonIrrigatedArableLand,
        Label::PermanentlyIrrigatedLand,
        Label::RiceFields,
        Label::Vineyards,
        Label::FruitTreesAndBerryPlantations,
        Label::OliveGroves,
        Label::Pastures,
        Label::AnnualCropsWithPermanentCrops,
        Label::ComplexCultivationPatterns,
        Label::LandPrincipallyOccupiedByAgriculture,
        Label::AgroForestryAreas,
        Label::BroadLeavedForest,
        Label::ConiferousForest,
        Label::MixedForest,
        Label::NaturalGrassland,
        Label::MoorsAndHeathland,
        Label::SclerophyllousVegetation,
        Label::TransitionalWoodlandShrub,
        Label::BeachesDunesSands,
        Label::BareRock,
        Label::SparselyVegetatedAreas,
        Label::BurntAreas,
        Label::InlandMarshes,
        Label::Peatbogs,
        Label::SaltMarshes,
        Label::Salines,
        Label::IntertidalFlats,
        Label::WaterCourses,
        Label::WaterBodies,
        Label::CoastalLagoons,
        Label::Estuaries,
        Label::SeaAndOcean,
    ];

    /// The dense index of the class in `0..43`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The class with the given dense index, if `idx < 43`.
    pub fn from_index(idx: usize) -> Option<Label> {
        Label::ALL.get(idx).copied()
    }

    /// The three-digit CLC code, e.g. `312` for Coniferous forest.
    pub fn clc_code(self) -> u16 {
        const CODES: [u16; Label::COUNT] = [
            111, 112, 121, 122, 123, 124, 131, 132, 133, 141, 142, 211, 212, 213, 221, 222, 223,
            231, 241, 242, 243, 244, 311, 312, 313, 321, 322, 323, 324, 331, 332, 333, 334, 411,
            412, 421, 422, 423, 511, 512, 521, 522, 523,
        ];
        CODES[self.index()]
    }

    /// The class with the given CLC code, if it is one of the 43 used here.
    pub fn from_clc_code(code: u16) -> Option<Label> {
        Label::ALL.iter().copied().find(|l| l.clc_code() == code)
    }

    /// The full CLC class name, as displayed in the EarthQube UI.
    pub const fn name(self) -> &'static str {
        const NAMES: [&str; Label::COUNT] = [
            "Continuous urban fabric",
            "Discontinuous urban fabric",
            "Industrial or commercial units",
            "Road and rail networks and associated land",
            "Port areas",
            "Airports",
            "Mineral extraction sites",
            "Dump sites",
            "Construction sites",
            "Green urban areas",
            "Sport and leisure facilities",
            "Non-irrigated arable land",
            "Permanently irrigated land",
            "Rice fields",
            "Vineyards",
            "Fruit trees and berry plantations",
            "Olive groves",
            "Pastures",
            "Annual crops associated with permanent crops",
            "Complex cultivation patterns",
            "Land principally occupied by agriculture, with significant areas of natural vegetation",
            "Agro-forestry areas",
            "Broad-leaved forest",
            "Coniferous forest",
            "Mixed forest",
            "Natural grassland",
            "Moors and heathland",
            "Sclerophyllous vegetation",
            "Transitional woodland/shrub",
            "Beaches, dunes, sands",
            "Bare rock",
            "Sparsely vegetated areas",
            "Burnt areas",
            "Inland marshes",
            "Peatbogs",
            "Salt marshes",
            "Salines",
            "Intertidal flats",
            "Water courses",
            "Water bodies",
            "Coastal lagoons",
            "Estuaries",
            "Sea and ocean",
        ];
        NAMES[self.index()]
    }

    /// The single printable-ASCII character EarthQube maps the class to in
    /// the metadata store, "avoiding the manipulation of long strings"
    /// (§3.2 of the paper).  Characters start at `'A'`.
    pub fn ascii_code(self) -> char {
        (b'A' + self.index() as u8) as char
    }

    /// The class for a given ASCII code character, if valid.
    pub fn from_ascii_code(c: char) -> Option<Label> {
        let c = c as u32;
        let base = 'A' as u32;
        if c < base {
            return None;
        }
        Label::from_index((c - base) as usize)
    }

    /// The Level-2 parent category.
    pub fn level2(self) -> Level2 {
        match self.clc_code() / 10 {
            11 => Level2::UrbanFabric,
            12 => Level2::IndustrialCommercialTransport,
            13 => Level2::MineDumpConstruction,
            14 => Level2::ArtificialVegetated,
            21 => Level2::ArableLand,
            22 => Level2::PermanentCrops,
            23 => Level2::Pastures,
            24 => Level2::HeterogeneousAgricultural,
            31 => Level2::Forests,
            32 => Level2::ScrubHerbaceous,
            33 => Level2::OpenSpaces,
            41 => Level2::InlandWetlands,
            42 => Level2::MaritimeWetlands,
            51 => Level2::InlandWaters,
            _ => Level2::MarineWaters,
        }
    }

    /// The Level-1 ancestor category.
    pub fn level1(self) -> Level1 {
        self.level2().parent()
    }

    /// A representative display colour (R, G, B) for the label-statistics
    /// bar chart (Figure 2-4 of the paper maps each label to a colour that
    /// is representative of the land-cover type).
    pub fn color(self) -> (u8, u8, u8) {
        match self.level1() {
            Level1::ArtificialSurfaces => (230, 0, 77),
            Level1::AgriculturalAreas => (255, 234, 130),
            Level1::ForestAndSeminatural => (60, 150, 60),
            Level1::Wetlands => (160, 120, 200),
            Level1::WaterBodies => (0, 120, 230),
        }
    }

    /// Approximate relative frequency of the class in the real BigEarthNet
    /// archive, used by the synthetic generator to reproduce the strong
    /// class imbalance of the real data (e.g. "Mixed forest" occurs in
    /// ~180k patches while "Burnt areas" occurs in a few hundred).
    ///
    /// Values are unnormalised weights.
    pub fn prior_weight(self) -> f64 {
        use Label::*;
        match self {
            MixedForest | ConiferousForest | NonIrrigatedArableLand => 30.0,
            BroadLeavedForest
            | Pastures
            | ComplexCultivationPatterns
            | LandPrincipallyOccupiedByAgriculture
            | TransitionalWoodlandShrub => 20.0,
            SeaAndOcean | WaterBodies | DiscontinuousUrbanFabric | Peatbogs | AgroForestryAreas => {
                10.0
            }
            IndustrialOrCommercialUnits
            | OliveGroves
            | WaterCourses
            | Vineyards
            | AnnualCropsWithPermanentCrops
            | InlandMarshes
            | MoorsAndHeathland
            | NaturalGrassland
            | SclerophyllousVegetation
            | PermanentlyIrrigatedLand => 4.0,
            ContinuousUrbanFabric
            | SparselyVegetatedAreas
            | FruitTreesAndBerryPlantations
            | SaltMarshes
            | Estuaries
            | CoastalLagoons
            | RiceFields
            | MineralExtractionSites => 1.5,
            _ => 0.5,
        }
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A view over the three-level CLC hierarchy, as exposed by the EarthQube
/// label-filter panel (Figure 2-2 of the paper).
#[derive(Debug, Default, Clone, Copy)]
pub struct LabelHierarchy;

impl LabelHierarchy {
    /// Creates the hierarchy view.
    pub fn new() -> Self {
        LabelHierarchy
    }

    /// All Level-1 categories.
    pub fn level1(&self) -> &'static [Level1] {
        &Level1::ALL
    }

    /// The Level-2 categories below a Level-1 category.
    pub fn level2_children(&self, l1: Level1) -> Vec<Level2> {
        Level2::ALL.iter().copied().filter(|l2| l2.parent() == l1).collect()
    }

    /// The Level-3 classes below a Level-2 category.
    pub fn level3_children(&self, l2: Level2) -> Vec<Label> {
        l2.children()
    }

    /// Expands a Level-2 selection into its Level-3 classes; used by the
    /// `Some` operator example in the paper ("the Level-2 class Forest
    /// comprises three types of Level-3 forest labels").
    pub fn expand_level2(&self, l2: Level2) -> Vec<Label> {
        l2.children()
    }

    /// Expands a Level-1 selection into all its Level-3 descendants.
    pub fn expand_level1(&self, l1: Level1) -> Vec<Label> {
        Label::ALL.iter().copied().filter(|l| l.level1() == l1).collect()
    }
}

/// A set of Level-3 labels, stored as a 64-bit bitmask (43 < 64 bits).
///
/// This is the representation used for patch annotations and for label
/// filtering, where set algebra (subset / intersection tests) implements the
/// three query operators of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LabelSet {
    bits: u64,
}

impl LabelSet {
    /// The empty label set.
    pub const EMPTY: LabelSet = LabelSet { bits: 0 };

    /// Creates a set from an iterator of labels.
    pub fn from_labels<I: IntoIterator<Item = Label>>(labels: I) -> Self {
        let mut s = LabelSet::EMPTY;
        for l in labels {
            s.insert(l);
        }
        s
    }

    /// Creates a set from the raw bitmask (bits ≥ 43 are ignored).
    pub fn from_bits(bits: u64) -> Self {
        LabelSet { bits: bits & ((1u64 << Label::COUNT) - 1) }
    }

    /// The raw bitmask.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Inserts a label.
    pub fn insert(&mut self, l: Label) {
        self.bits |= 1u64 << l.index();
    }

    /// Removes a label.
    pub fn remove(&mut self, l: Label) {
        self.bits &= !(1u64 << l.index());
    }

    /// Whether the label is present.
    #[inline]
    pub fn contains(self, l: Label) -> bool {
        self.bits & (1u64 << l.index()) != 0
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(self, other: LabelSet) -> LabelSet {
        LabelSet { bits: self.bits | other.bits }
    }

    /// Set intersection.
    pub fn intersection(self, other: LabelSet) -> LabelSet {
        LabelSet { bits: self.bits & other.bits }
    }

    /// Whether `self` and `other` share at least one label (the `Some`
    /// operator of the query panel).
    #[inline]
    pub fn intersects(self, other: LabelSet) -> bool {
        self.bits & other.bits != 0
    }

    /// Whether `self` is a superset of `other` (the `At least & more`
    /// operator: the image has all the selected labels and possibly more).
    #[inline]
    pub fn is_superset(self, other: LabelSet) -> bool {
        self.bits & other.bits == other.bits
    }

    /// Number of labels shared with `other`.
    pub fn intersection_size(self, other: LabelSet) -> usize {
        (self.bits & other.bits).count_ones() as usize
    }

    /// Iterates over the labels in dense-index order: one step per label
    /// present (lowest set bit first), not one per class.
    pub fn iter(self) -> impl Iterator<Item = Label> {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            let lowest = Label::from_index(bits.trailing_zeros() as usize);
            bits &= bits.wrapping_sub(1);
            lowest
        })
    }

    /// The ASCII-coded string representation used in the metadata store
    /// (one character per label, sorted by dense index).
    pub fn to_ascii_codes(self) -> String {
        self.iter().map(|l| l.ascii_code()).collect()
    }

    /// Parses an ASCII-coded label string back into a set.
    ///
    /// Unknown characters are ignored, mirroring the store's tolerance of
    /// stale encodings.
    pub fn from_ascii_codes(s: &str) -> Self {
        LabelSet::from_labels(s.chars().filter_map(Label::from_ascii_code))
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<T: IntoIterator<Item = Label>>(iter: T) -> Self {
        LabelSet::from_labels(iter)
    }
}

impl std::fmt::Display for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(|l| l.name()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_43_classes() {
        assert_eq!(Label::ALL.len(), 43);
        assert_eq!(Label::COUNT, 43);
        // All dense indices are unique and contiguous.
        for (i, l) in Label::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
            assert_eq!(Label::from_index(i), Some(*l));
        }
        assert_eq!(Label::from_index(43), None);
    }

    #[test]
    fn clc_codes_are_unique_and_roundtrip() {
        let mut codes: Vec<u16> = Label::ALL.iter().map(|l| l.clc_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 43);
        for l in Label::ALL {
            assert_eq!(Label::from_clc_code(l.clc_code()), Some(l));
        }
        assert_eq!(Label::from_clc_code(999), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Label::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 43);
    }

    #[test]
    fn ascii_codes_are_unique_printable_and_roundtrip() {
        let mut codes: Vec<char> = Label::ALL.iter().map(|l| l.ascii_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 43);
        for l in Label::ALL {
            assert!(l.ascii_code().is_ascii_graphic());
            assert_eq!(Label::from_ascii_code(l.ascii_code()), Some(l));
        }
        assert_eq!(Label::from_ascii_code('~'), None);
        assert_eq!(Label::from_ascii_code('\u{1F600}'), None);
        assert_eq!(Label::from_ascii_code(' '), None);
    }

    #[test]
    fn hierarchy_levels_are_consistent() {
        // Every Level-3 class rolls up through Level-2 to the correct Level-1.
        assert_eq!(Label::ConiferousForest.level2(), Level2::Forests);
        assert_eq!(Label::ConiferousForest.level1(), Level1::ForestAndSeminatural);
        assert_eq!(Label::SeaAndOcean.level2(), Level2::MarineWaters);
        assert_eq!(Label::SeaAndOcean.level1(), Level1::WaterBodies);
        assert_eq!(Label::Airports.level2(), Level2::IndustrialCommercialTransport);
        assert_eq!(Label::Airports.level1(), Level1::ArtificialSurfaces);
        assert_eq!(Label::Pastures.level2(), Level2::Pastures);
        assert_eq!(Label::Peatbogs.level1(), Level1::Wetlands);

        // Level-2 parents agree with the first digit of their codes.
        for l2 in Level2::ALL {
            assert_eq!(l2.parent().code(), l2.code() / 10);
        }
    }

    #[test]
    fn level2_children_partition_the_level3_classes() {
        let mut total = 0;
        for l2 in Level2::ALL {
            let children = l2.children();
            for c in &children {
                assert_eq!(c.level2(), l2);
            }
            total += children.len();
        }
        assert_eq!(total, 43);
    }

    #[test]
    fn forest_level2_has_three_children() {
        // The paper's example: "the Level-2 class Forest ... comprises three
        // types of Level-3 forest labels".
        let children = LabelHierarchy::new().expand_level2(Level2::Forests);
        assert_eq!(children.len(), 3);
        assert!(children.contains(&Label::BroadLeavedForest));
        assert!(children.contains(&Label::ConiferousForest));
        assert!(children.contains(&Label::MixedForest));
    }

    #[test]
    fn hierarchy_expansion_level1() {
        let h = LabelHierarchy::new();
        let artificial = h.expand_level1(Level1::ArtificialSurfaces);
        assert_eq!(artificial.len(), 11);
        let water = h.expand_level1(Level1::WaterBodies);
        assert_eq!(water.len(), 5);
        let l2s = h.level2_children(Level1::AgriculturalAreas);
        assert_eq!(l2s.len(), 4);
    }

    #[test]
    fn label_set_basic_operations() {
        let mut s = LabelSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Label::Airports);
        s.insert(Label::SeaAndOcean);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Label::Airports));
        assert!(!s.contains(Label::Pastures));
        s.remove(Label::Airports);
        assert!(!s.contains(Label::Airports));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn label_set_operators_match_paper_semantics() {
        let image = LabelSet::from_labels([
            Label::ConiferousForest,
            Label::BeachesDunesSands,
            Label::SeaAndOcean,
            Label::BareRock,
        ]);
        let query = LabelSet::from_labels([
            Label::ConiferousForest,
            Label::BeachesDunesSands,
            Label::SeaAndOcean,
        ]);
        // Some: at least one selected label present.
        assert!(image.intersects(query));
        // At least & more: all selected labels present, extra ones allowed.
        assert!(image.is_superset(query));
        // Exactly: the sets are equal — not the case here.
        assert_ne!(image, query);
        let exact = LabelSet::from_labels([
            Label::ConiferousForest,
            Label::BeachesDunesSands,
            Label::SeaAndOcean,
            Label::BareRock,
        ]);
        assert_eq!(image, exact);
    }

    #[test]
    fn label_set_ascii_roundtrip() {
        let s = LabelSet::from_labels([Label::Airports, Label::Vineyards, Label::Estuaries]);
        let codes = s.to_ascii_codes();
        assert_eq!(codes.len(), 3);
        assert_eq!(LabelSet::from_ascii_codes(&codes), s);
        // Unknown characters are ignored.
        assert_eq!(LabelSet::from_ascii_codes("@@"), LabelSet::EMPTY);
    }

    #[test]
    fn label_set_from_bits_masks_out_of_range() {
        let s = LabelSet::from_bits(u64::MAX);
        assert_eq!(s.len(), 43);
    }

    #[test]
    fn label_set_iterates_its_members_in_dense_index_order() {
        for bits in [0, 1, 1 << 42, u64::MAX, 0x0000_0155_5555_5555, 0x0000_0400_0080_0001] {
            let set = LabelSet::from_bits(bits);
            let members: Vec<Label> =
                Label::ALL.iter().copied().filter(|l| set.contains(*l)).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), members, "{bits:#x}");
        }
    }

    #[test]
    fn prior_weights_are_positive() {
        for l in Label::ALL {
            assert!(l.prior_weight() > 0.0, "{l} has non-positive prior");
        }
        // The imbalance is at least an order of magnitude.
        assert!(Label::MixedForest.prior_weight() / Label::BurntAreas.prior_weight() >= 10.0);
    }

    #[test]
    fn colors_follow_level1_families() {
        assert_eq!(Label::ContinuousUrbanFabric.color(), Label::Airports.color());
        assert_ne!(Label::ContinuousUrbanFabric.color(), Label::SeaAndOcean.color());
    }

    #[test]
    fn display_uses_full_name() {
        assert_eq!(Label::SeaAndOcean.to_string(), "Sea and ocean");
        let s = LabelSet::from_labels([Label::SeaAndOcean]);
        assert_eq!(s.to_string(), "{Sea and ocean}");
    }
}
