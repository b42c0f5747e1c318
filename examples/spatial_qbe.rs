//! Demo scenario "Spatial Exploration and Query-by-Existing-Example" (§4):
//! submit a geospatial query covering the south-western tip of Portugal,
//! render the images in the area, pick one, and run content-based image
//! retrieval to display similar images across all ten countries — the text
//! equivalent of Figure 1.
//!
//! Run with: `cargo run --release --example spatial_qbe`

use agoraeo::bigearthnet::{ArchiveGenerator, Country, GeneratorConfig};
use agoraeo::earthqube::{EarthQube, EarthQubeConfig, ImageQuery};
use agoraeo::geo::{BBox, GeoShape};

fn main() {
    let archive =
        ArchiveGenerator::new(GeneratorConfig { num_patches: 800, seed: 33, ..Default::default() })
            .expect("valid generator configuration")
            .generate();
    let mut config = EarthQubeConfig::fast(33);
    config.milan.epochs = 25;
    let eq = EarthQube::build(&archive, config).expect("back-end builds");

    // 1. Spatial query: the south-western tip of Portugal (the Algarve /
    //    Sagres area), drawn as a rectangle on the map.
    let sw_portugal = GeoShape::Rect(BBox::new(-9.2, 36.9, -7.8, 38.0).expect("valid bbox"));
    let spatial = eq.search(&ImageQuery::all().with_shape(sw_portugal)).expect("valid query");
    println!("=== Spatial query: south-western tip of Portugal ===");
    println!("{}", spatial.panel.render_page(0));
    println!(
        "(query executed through index: {:?}, candidates scanned: {})",
        spatial.plan.as_ref().unwrap().index_used,
        spatial.plan.as_ref().unwrap().scanned
    );

    // 2. "Render" the retrieved images: EarthQube caps map rendering at
    //    1000 images; here we just show how many would be rendered and
    //    produce one RGB thumbnail through the rendered-images collection.
    let renderable = spatial.panel.renderable_names();
    println!("{} images would be rendered on the map", renderable.len());
    if let Some(name) = renderable.first() {
        if let Some(patch) = archive.find_by_name(name) {
            let (size, rgb) = patch.render_rgb();
            println!("Rendered RGB thumbnail for {name}: {size}×{size} px, {} bytes", rgb.len());
        }
    }

    // 3. Query-by-existing-example: take the first retrieved image and ask
    //    for its most similar images across all ten countries (Figure 1).
    let Some(query_image) = spatial.panel.page(0).entries.first().cloned() else {
        println!("No images found in the query area — try a larger archive.");
        return;
    };
    let similar = eq.similar_to(&query_image.name, 12).expect("CBIR query");
    println!("\n=== Figure 1: images similar to the query image ===");
    println!("Query image: {}", query_image.describe());
    println!("{}", similar.panel.render_page(0));

    // Count in how many different countries the similar images were found.
    let mut countries: Vec<Country> =
        similar.panel.page(0).entries.iter().map(|e| e.country).collect();
    countries.sort();
    countries.dedup();
    println!(
        "Similar images span {} of the {} BigEarthNet countries: {}",
        countries.len(),
        Country::ALL.len(),
        countries.iter().map(|c| c.name()).collect::<Vec<_>>().join(", ")
    );
    println!("\n{}", similar.statistics.render_bar_chart(10, 30));
}
