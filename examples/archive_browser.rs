//! The full §5 architecture in one run: a populated archive, a content
//! query, the sequential miniature browsing interface, selection, and a
//! browsing session whose relevant-object fetches travel over the link.
//!
//! ```sh
//! cargo run --example archive_browser
//! ```

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::Link;
use minos::presentation::{BrowseCommand, BrowsingSession, Client, MiniatureBrowser};
use minos::server::ObjectServer;
use minos::text::PaginateConfig;
use minos::types::{ObjectId, SimDuration};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Populate the archive: reports, office documents, the subway bundle.
    let mut server = ObjectServer::new();
    let mut publish = |obj: minos::object::MultimediaObject| {
        let archived = archived_form(&obj);
        server.publish(obj, &archived).unwrap();
    };
    publish(corpus::medical_report(ObjectId::new(1), 42));
    publish(corpus::office_document(ObjectId::new(2), 7, 3));
    let (map, overlays) =
        corpus::subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
    publish(map);
    for o in overlays {
        publish(o);
    }
    publish(corpus::office_document(ObjectId::new(6), 9, 2));
    println!(
        "archive holds {} objects, {} distinct indexed words",
        server.object_count(),
        server.index().vocabulary_size()
    );

    // Query by content from the workstation.
    let mut ws = Client::new(server, Link::ethernet());
    let mut browser = MiniatureBrowser::query(&mut ws, &["shadow"])?;
    println!(
        "\nquery ['shadow'] -> {} qualifying objects ({} bytes over the link so far)",
        browser.len(),
        ws.bytes_transferred()
    );

    // Walk the miniature strip.
    while let Some((id, mini)) = browser.current() {
        println!(
            "  miniature of {id}: {}x{} px, {} ink",
            mini.width(),
            mini.height(),
            mini.count_ink()
        );
        if browser.select() == Some(ObjectId::new(1)) {
            break;
        }
        browser.advance();
    }

    // Select and browse: the session's object store *is* the workstation,
    // so every object fetch is charged to the link.
    let selected = browser.select().expect("a hit was selected");
    println!("\nselected {selected}; opening the presentation manager…");
    let (mut session, _) =
        BrowsingSession::open(ws, selected, PaginateConfig::default(), SimDuration::from_secs(20))?;
    println!("browsing {:?} ({:?} mode)", session.object().name, session.object().driving_mode);
    session.apply(BrowseCommand::FindPattern("shadow".into()))?;
    let view = session.visual_view().unwrap();
    println!(
        "pattern 'shadow' found on page {}/{}; first line: {}",
        view.page_index + 1,
        view.page_count,
        view.page.text_lines().first().cloned().unwrap_or_default()
    );
    Ok(())
}
