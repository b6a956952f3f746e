//! Figures 7–8: relevant objects over the subway map, plus label browsing
//! and remote views.
//!
//! ```sh
//! cargo run --example subway_map
//! ```

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::image::view::MoveDirection;
use minos::image::{BlitMode, LabelIndex};
use minos::net::Link;
use minos::presentation::remote::RemoteView;
use minos::presentation::{BrowseCommand, BrowsingSession, Client};
use minos::server::ObjectServer;
use minos::text::PaginateConfig;
use minos::types::{ObjectId, Point, SimDuration, Size};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (parent, overlays) =
        corpus::subway_map_object(ObjectId::new(1), ObjectId::new(2), ObjectId::new(3), 11);

    // -- Relevant-object browsing (Figures 7-8) --------------------------
    let mut store = HashMap::new();
    for o in overlays.iter().chain([&parent]) {
        store.insert(o.id, o.clone());
    }
    let (mut session, _) = BrowsingSession::open(
        store,
        ObjectId::new(1),
        PaginateConfig::default(),
        SimDuration::from_secs(20),
    )?;
    println!("relevant object indicators on the map:");
    for (i, link) in session.visible_relevant() {
        println!("  [{i}] {}", link.label);
    }
    session.apply(BrowseCommand::SelectRelevant(0))?;
    println!("selected 'hospitals' -> now browsing {:?}", session.object().name);
    // The overlay is a transparency superimposed on the map.
    let map = parent.images[0].render();
    let overlay = session.object().images[0].render();
    let mut superimposed = map.clone();
    superimposed.blit(&overlay, Point::ORIGIN, BlitMode::Or);
    println!(
        "map ink {} + hospital markers {} -> superimposed {}",
        map.count_ink(),
        overlay.count_ink(),
        superimposed.count_ink()
    );
    session.apply(BrowseCommand::ReturnFromRelevant)?;
    println!("returned to {:?}\n", session.object().name);

    // -- Label browsing (§2's road-map facility) -------------------------
    let graphics = parent.images[0].as_graphics().unwrap();
    let index = LabelIndex::new(graphics);
    let hits = index.highlight("hospital");
    println!("stations whose label matches 'hospital': {}", hits.len());
    if let Some((_, bbox)) = hits.first() {
        if let Some(activation) = index.activate(bbox.center()) {
            println!("mouse-select on the first hit -> {activation:?}");
        }
    }

    // -- Remote views (§2: only the view's data is retrieved) ------------
    let mut server = ObjectServer::new();
    server.publish(parent.clone(), &archived_form(&parent))?;
    let mut ws = Client::new(server, Link::ethernet());
    let mut rv =
        RemoteView::open(ObjectId::new(1), 0, parent.images[0].size(), Size::new(220, 160), 48)?;
    rv.fetch(&mut ws)?;
    rv.view_mut().step(MoveDirection::Right);
    rv.fetch(&mut ws)?;
    rv.view_mut().step(MoveDirection::Down);
    rv.fetch(&mut ws)?;
    let full_image_bytes = parent.images[0].render().byte_size();
    println!(
        "\n3 view fetches moved {} bytes over the link; the whole map is {} bytes",
        ws.bytes_transferred(),
        full_image_bytes
    );
    Ok(())
}
