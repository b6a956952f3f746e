//! Screen composition: one call renders a session's whole presentation.
//!
//! Reproduces the screen layout of Figures 1–6: the page (or the active
//! audio display) in the display region, a pinned visual logical message in
//! the reserved top strip, and the derived menu in the right-hand column.
//! Examples and golden tests use this instead of hand-assembling regions.

use crate::command::Browse;
use crate::session::{BrowsingSession, ObjectStore};
use minos_image::{Bitmap, BlitMode};
use minos_object::{MessageBody, MultimediaObject, VisualMessageContent};
use minos_screen::{render_page, Screen};
use minos_text::PaginateConfig;
use minos_types::{Point, Rect, Result};

/// Resolves a document figure tag against an object's image part. The
/// convention used throughout the corpus is `imgN` → image index `N`;
/// unknown tags resolve to `None` (the renderer draws a crossed frame).
pub fn resolve_figure(object: &MultimediaObject, tag: &str) -> Option<Bitmap> {
    let index: usize = tag.strip_prefix("img")?.parse().ok()?;
    object.images.get(index).map(|i| i.render())
}

/// Renders a visual logical message's content into a strip of the given
/// size: the image (if any) at the left, a caption bar for the text.
fn render_message_strip(
    object: &MultimediaObject,
    content: &VisualMessageContent,
    size: minos_types::Size,
) -> Bitmap {
    let mut strip = Bitmap::new(size.width, size.height);
    let mut x = 8;
    if let Some(image_index) = content.image {
        if let Some(image) = object.images.get(image_index) {
            let raster = image.render();
            let fit = Rect::new(
                0,
                0,
                raster.width().min(size.width.saturating_sub(16)),
                raster.height().min(size.height.saturating_sub(8)),
            );
            if !fit.is_empty() {
                let part = raster.extract(fit).expect("fit within raster");
                strip.blit(&part, Point::new(x, 4), BlitMode::Replace);
                x += fit.size.width as i32 + 8;
            }
        }
    }
    if let Some(text) = &content.text {
        // Greeked caption bar proportional to the text length.
        let y = (size.height / 2) as i32;
        let w = (text.chars().count() as i32 * 5).min(size.width as i32 - x - 8);
        for dx in 0..w.max(0) {
            strip.set(x + dx, y, true);
            strip.set(x + dx, y + 1, true);
        }
    }
    strip
}

/// Composes the session's current presentation onto `screen`. Returns the
/// pagination config used for the page area (callers re-rendering single
/// pages need it).
pub fn compose_screen<S: ObjectStore>(
    session: &BrowsingSession<S>,
    screen: &mut Screen,
    config: PaginateConfig,
) -> Result<PaginateConfig> {
    screen.clear();
    let object = session.object();

    if let Some(view) = session.visual_view() {
        screen.reserve_top(view.reserved_top);
        // Pinned visual message at the top.
        if let Some(message_index) = view.pinned_message {
            if let MessageBody::Visual { content, .. } = &object.messages[message_index].body {
                let region = screen.message_region();
                let strip = render_message_strip(object, content, region.size);
                screen.show(&strip, region);
            }
        }
        // The page below.
        let page = render_page(&view.page, config, |figure_index| {
            let doc = object.text_segments.first()?;
            let figure = doc.figures().get(figure_index)?;
            resolve_figure(object, &figure.tag)
        });
        let display = screen.display_region();
        screen.show(&page, display);
    } else if let Some(audio) = session.audio() {
        screen.reserve_top(0);
        // Audio objects display the active visual message, if any, plus an
        // audio-page progress strip at the bottom.
        if let Some(message_index) = audio.active_visual_message() {
            if let MessageBody::Visual { content, .. } = &object.messages[message_index].body {
                let display = screen.display_region();
                let strip = render_message_strip(object, content, display.size);
                screen.show(&strip, display);
            }
        }
        let display = screen.display_region();
        let pages = audio.page_count().max(1);
        let current = audio.page();
        let slot_w = (display.size.width / pages as u32).max(1);
        let y = display.bottom() - 12;
        for p in 0..pages {
            let x0 = display.left() + (p as u32 * slot_w) as i32;
            let filled = p <= current;
            for dx in 2..slot_w.saturating_sub(2) as i32 {
                screen.overlay(
                    &{
                        let mut dot = Bitmap::new(1, if filled { 6 } else { 2 });
                        dot.fill_rect(dot.bounds(), true);
                        dot
                    },
                    Point::new(x0 + dx, y),
                );
            }
        }
    }

    // The menu column is always present.
    let menu = session.menu();
    let menu_region = screen.menu_region();
    let menu_bitmap = menu.render(menu_region);
    screen.show(&menu_bitmap, menu_region);
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BrowseCommand;
    use minos_corpus::{audio_xray_report, medical_report};
    use minos_text::LogicalLevel;
    use minos_types::{ObjectId, SimDuration};
    use std::collections::HashMap;

    type Store = HashMap<ObjectId, MultimediaObject>;

    fn open(object: MultimediaObject) -> BrowsingSession<Store> {
        let id = object.id;
        let mut store = Store::new();
        store.insert(id, object);
        BrowsingSession::open(store, id, PaginateConfig::default(), SimDuration::from_secs(5))
            .unwrap()
            .0
    }

    #[test]
    fn visual_composition_fills_page_and_menu() {
        let session = open(medical_report(ObjectId::new(1), 42));
        let mut screen = Screen::new();
        compose_screen(&session, &mut screen, PaginateConfig::default()).unwrap();
        let fb = screen.framebuffer();
        assert!(fb.extract(screen.display_region()).unwrap().count_ink() > 500);
        assert!(fb.extract(screen.menu_region()).unwrap().count_ink() > 100);
        assert!(screen.message_region().is_empty(), "nothing pinned yet");
    }

    #[test]
    fn pinned_message_occupies_the_top_strip() {
        let mut session = open(medical_report(ObjectId::new(1), 42));
        session.apply(BrowseCommand::NextUnit(LogicalLevel::Chapter)).unwrap();
        assert!(session.visual_view().unwrap().pinned_message.is_some());
        let mut screen = Screen::new();
        compose_screen(&session, &mut screen, PaginateConfig::default()).unwrap();
        let strip = screen.message_region();
        assert!(!strip.is_empty());
        let ink = screen.framebuffer().extract(strip).unwrap().count_ink();
        assert!(ink > 200, "pinned x-ray missing from the strip: {ink}");
    }

    #[test]
    fn audio_composition_shows_message_during_finding() {
        let object = audio_xray_report(ObjectId::new(2), 7);
        let finding = object.voice_segments[0].transcript.paragraph_starts[1];
        let mut session = open(object);
        // Before the finding: no message, just the progress strip + menu.
        let mut screen = Screen::new();
        compose_screen(&session, &mut screen, PaginateConfig::default()).unwrap();
        let quiet_ink = screen.framebuffer().extract(screen.display_region()).unwrap().count_ink();
        // Seek into the finding paragraph: the x-ray strip appears.
        let dt = finding.since(minos_types::SimInstant::EPOCH) + SimDuration::from_millis(50);
        session.tick(dt);
        assert!(session.audio().unwrap().active_visual_message().is_some());
        compose_screen(&session, &mut screen, PaginateConfig::default()).unwrap();
        let loud_ink = screen.framebuffer().extract(screen.display_region()).unwrap().count_ink();
        assert!(loud_ink > quiet_ink * 2, "{quiet_ink} -> {loud_ink}");
    }

    #[test]
    fn resolve_figure_convention() {
        let object = medical_report(ObjectId::new(1), 1);
        assert!(resolve_figure(&object, "img0").is_some());
        assert!(resolve_figure(&object, "img99").is_none());
        assert!(resolve_figure(&object, "xray").is_none());
    }
}
