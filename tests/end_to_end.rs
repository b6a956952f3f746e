//! End-to-end: author → archive → publish on the server → query → fetch
//! over the link → browse on the workstation.
//!
//! This walks the full §4–§5 pipeline through real components: the
//! declarative formatter, descriptor/composition files, the optical-disk
//! archiver, the inverted index, the protocol link, and the presentation
//! manager.

use minos::corpus::objects::archived_form;
use minos::net::Link;
use minos::object::{ArchivedObject, DataKind, DrivingMode, FormatterSession, MultimediaObject};
use minos::presentation::{BrowseCommand, BrowsingSession, Client};
use minos::server::ObjectServer;
use minos::text::PaginateConfig;
use minos::types::{ByteSpan, ObjectId, SimDuration};
use std::collections::HashMap;

#[test]
fn formatter_to_browser_pipeline() {
    // 1. Author with the formatter.
    let mut formatter = FormatterSession::new(ObjectId::new(1));
    formatter
        .set_synthesis(
            "@object pipeline-test\n@mode visual\n@attr author tester\n\
             .ti Pipeline Test Object\n.ch Only Chapter\n\
             This object travels the whole pipeline from formatter to browser. \
             The keyword quetzal identifies it uniquely.\n",
        )
        .unwrap();
    let file = formatter.build().unwrap();
    assert!(file.descriptor.entries.iter().all(|e| e.kind == DataKind::Text));

    // 2. Build the typed object and archive it.
    let markup: String = file
        .synthesis
        .items
        .iter()
        .filter_map(|i| match i {
            minos::object::SynthesisItem::Markup(m) => Some(m.as_str()),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut object = MultimediaObject::new(ObjectId::new(1), "pipeline-test", DrivingMode::Visual);
    object.text_segments.push(minos::text::parse_markup(&markup).unwrap());
    object.archive().unwrap();

    // 3. Publish to the server; the archived bytes land on the optical disk.
    let mut server = ObjectServer::new();
    let archived = ArchivedObject::from_file(&file);
    let receipt = server.publish(object.clone(), &archived).unwrap();
    assert!(receipt.store_time > SimDuration::ZERO);
    assert_eq!(server.object_count(), 1);

    // 4. Query by content over the link.
    let mut ws = Client::new(server, Link::ethernet());
    let hits = ws.query(&["quetzal"]).unwrap();
    assert_eq!(hits, vec![ObjectId::new(1)]);
    assert!(ws.query(&["nonexistentword"]).unwrap().is_empty());

    // 5. Fetch the archived form back and verify it decodes to the same
    //    descriptor.
    let fetched = ws.fetch_object(ObjectId::new(1), receipt.span.start).unwrap();
    assert_eq!(fetched.descriptor.object_id, ObjectId::new(1));
    assert_eq!(fetched.descriptor.name, "pipeline-test");
    let entry = &fetched.descriptor.entries[0];
    let text_bytes = fetched.composition.read(entry.location.span()).unwrap();
    assert!(String::from_utf8(text_bytes.to_vec()).unwrap().contains("quetzal"));

    // 6. Browse the object.
    let mut store = HashMap::new();
    store.insert(object.id, object);
    let (mut session, _) = BrowsingSession::open(
        store,
        ObjectId::new(1),
        PaginateConfig::default(),
        SimDuration::from_secs(20),
    )
    .unwrap();
    let events = session.apply(BrowseCommand::FindPattern("quetzal".into())).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e, minos::presentation::BrowseEvent::PatternFound { .. })));
}

#[test]
fn archival_and_mailing_against_the_real_archiver() {
    use minos::object::ArchiverRead;
    use minos::storage::{Archiver, OpticalDisk, SharedArchiver};

    // Shared data: an x-ray already in the archiver.
    let mut archiver = Archiver::new(OpticalDisk::with_capacity(16 << 20));
    let xray_bytes = vec![0xAB; 4_096];
    let (offset, _) = archiver.device_append(&xray_bytes);
    let shared = SharedArchiver::new(archiver);

    // An object whose descriptor points at the shared x-ray.
    let mut formatter = FormatterSession::new(ObjectId::new(2));
    formatter
        .datadir_mut()
        .insert_archiver_ref("xray", DataKind::Image, ByteSpan::at(offset, 4_096))
        .unwrap();
    formatter
        .set_synthesis("@object mailer\n.ch Report\nSee the attached film.\n@data xray\n")
        .unwrap();
    let file = formatter.build().unwrap();
    let archived = ArchivedObject::from_file(&file);
    assert!(!archived.is_self_contained());

    // Mailing inside the organization keeps the pointer and the small size.
    let inside = archived.mail_inside();
    // Mailing outside resolves it: the x-ray data is pulled in.
    let outside = archived.mail_outside(&shared).unwrap();
    assert!(outside.is_self_contained());
    assert_eq!(outside.composition.len(), archived.composition.len() + 4_096);
    assert!(outside.mail_inside().len() > inside.len());
    // The resolved data round-trips.
    let entry = outside.descriptor.entry("xray").unwrap();
    let data = outside.composition.read(entry.location.span()).unwrap();
    assert_eq!(data, &xray_bytes[..]);
    // The shared archiver still serves the original region.
    assert_eq!(shared.read_span(ByteSpan::at(offset, 4_096)).unwrap(), xray_bytes);
}

// Small helper: append raw bytes to the archiver's device (test-only
// convenience for planting shared data).
trait DeviceAppend {
    fn device_append(&mut self, data: &[u8]) -> (u64, SimDuration);
}

impl DeviceAppend for minos::storage::Archiver<minos::storage::OpticalDisk> {
    fn device_append(&mut self, data: &[u8]) -> (u64, SimDuration) {
        // Store under a reserved object id so the frontier advances through
        // the archiver's own bookkeeping.
        let (record, took) = self.store(ObjectId::new(u64::MAX), data).unwrap();
        (record.span.start, took)
    }
}

#[test]
fn versions_survive_republication() {
    let mut server = ObjectServer::new();
    let v1 = minos::corpus::office_document(ObjectId::new(9), 1, 1);
    server.publish(v1.clone(), &archived_form(&v1)).unwrap();
    let v2 = minos::corpus::office_document(ObjectId::new(9), 2, 2);
    server.publish(v2.clone(), &archived_form(&v2)).unwrap();

    let versions = server.archiver().versions(ObjectId::new(9));
    assert_eq!(versions.len(), 2);
    // Both versions remain readable from the write-once store.
    let span1 = versions[0].span;
    let span2 = versions[1].span;
    assert!(span2.start >= span1.end);
    let (bytes1, _) = server.archiver_mut().read_at(span1).unwrap();
    let back1 = ArchivedObject::decode_from_archive(&bytes1, span1.start).unwrap();
    assert_eq!(back1.descriptor.object_id, ObjectId::new(9));
    let (bytes2, _) = server.archiver_mut().read_at(span2).unwrap();
    let back2 = ArchivedObject::decode_from_archive(&bytes2, span2.start).unwrap();
    assert!(back2.composition.len() > back1.composition.len());
}
