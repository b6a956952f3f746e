//! Bit-packed monochrome rasters.
//!
//! A [`Bitmap`] is the concrete form of every image on the simulated
//! workstation: captured pages, x-rays, maps, rendered graphics, the screen
//! itself. Pixels are 1 (ink) or 0 (background), packed 64 per word. The
//! blit modes correspond to presentation semantics: `Replace` for ordinary
//! page drawing, `Or` for transparencies (ink accumulates, background shows
//! through), and masked blits for overwrites (§2: overwrite content
//! "replace\[s\] whatever existed in the previous page but … leave\[s\]
//! anything else intact").

use minos_types::{MinosError, Point, Rect, Result, Size};

/// How source pixels combine with destination pixels in a blit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlitMode {
    /// Destination := source.
    Replace,
    /// Destination := destination OR source (transparency superposition).
    Or,
    /// Destination := destination AND NOT source (erase source ink).
    Clear,
    /// Destination := destination XOR source (highlight flashing).
    Xor,
}

/// A monochrome bitmap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bitmap {
    width: u32,
    height: u32,
    /// Row-major, `words_per_row` u64 words per row, LSB-first within each
    /// word.
    words: Vec<u64>,
    words_per_row: u32,
}

impl Bitmap {
    /// Creates an all-background bitmap.
    pub fn new(width: u32, height: u32) -> Self {
        let words_per_row = width.div_ceil(64);
        Bitmap {
            width,
            height,
            words: vec![0; (words_per_row as usize) * (height as usize)],
            words_per_row,
        }
    }

    /// Creates a bitmap of `size`.
    pub fn of_size(size: Size) -> Self {
        Self::new(size.width, size.height)
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Extent as a [`Size`].
    pub fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// The bitmap's bounds as a rectangle at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::of_size(self.size())
    }

    /// Storage footprint in bytes — what a transfer of this bitmap costs on
    /// the simulated network and disks.
    pub fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> (usize, u64) {
        let word = y as usize * self.words_per_row as usize + (x / 64) as usize;
        let bit = 1u64 << (x % 64);
        (word, bit)
    }

    /// Pixel value at `(x, y)`; out-of-bounds reads are background.
    pub fn get(&self, x: i32, y: i32) -> bool {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return false;
        }
        let (w, b) = self.index(x as u32, y as u32);
        self.words.get(w).is_some_and(|word| word & b != 0)
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored
    /// (rasterization clips at edges).
    pub fn set(&mut self, x: i32, y: i32, ink: bool) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        let (w, b) = self.index(x as u32, y as u32);
        if let Some(word) = self.words.get_mut(w) {
            if ink {
                *word |= b;
            } else {
                *word &= !b;
            }
        }
    }

    /// Number of ink pixels.
    pub fn count_ink(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the bitmap has no ink at all.
    pub fn is_blank(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Fills `rect` (clipped to bounds) with ink or background.
    pub fn fill_rect(&mut self, rect: Rect, ink: bool) {
        let Some(r) = rect.intersect(self.bounds()) else { return };
        for y in r.top()..r.bottom() {
            for x in r.left()..r.right() {
                self.set(x, y, ink);
            }
        }
    }

    /// Copies the pixels of `rect` (which must lie within bounds) into a
    /// new bitmap — the retrieval primitive behind views: "The system will
    /// only retrieve the relevant data" (§2).
    pub fn extract(&self, rect: Rect) -> Result<Bitmap> {
        if !self.bounds().contains_rect(rect) {
            return Err(MinosError::Geometry(format!(
                "extract rect {rect:?} outside bitmap {}x{}",
                self.width, self.height
            )));
        }
        let mut out = Bitmap::new(rect.size.width, rect.size.height);
        if rect.is_empty() {
            return Ok(out);
        }
        // A non-empty rect inside the bounds has a non-negative origin.
        let (left, top) = (rect.left() as usize, rect.top() as usize);
        let (shift, first) = (left % 64, left / 64);
        let edge = last_word_mask(rect.size.width);
        let src_rows = self.words.chunks_exact(self.words_per_row as usize).skip(top);
        for (dst, src) in out.words.chunks_exact_mut(out.words_per_row as usize).zip(src_rows) {
            for (j, word) in dst.iter_mut().enumerate() {
                let low = src.get(first + j).map_or(0, |w| w >> shift);
                let high = match shift {
                    0 => 0,
                    s => src.get(first + j + 1).map_or(0, |w| w << (64 - s)),
                };
                *word = low | high;
            }
            if let Some(last) = dst.last_mut() {
                *last &= edge;
            }
        }
        Ok(out)
    }

    /// OR-downsamples by `factor` (at least 1): output pixel `(x, y)` is
    /// ink when any pixel of the source block `[x·factor, (x+1)·factor) ×
    /// [y·factor, (y+1)·factor)`, clipped to the bounds, is ink. Each band
    /// of `factor` rows is ORed word by word into one accumulator row,
    /// which is then tested one mask per word per block; no bit at or past
    /// `width` is read.
    pub(crate) fn or_downsample(&self, factor: u32) -> Bitmap {
        let mut out = Bitmap::new(self.width.div_ceil(factor), self.height.div_ceil(factor));
        // A zero-width image has no word rows to chunk.
        if out.words_per_row == 0 {
            return out;
        }
        let (factor, width) = (factor as usize, self.width as usize);
        let words_per_row = self.words_per_row as usize;
        let mut acc = vec![0u64; words_per_row];
        let bands = self.words.chunks(words_per_row.saturating_mul(factor));
        for (dst, band) in out.words.chunks_exact_mut(out.words_per_row as usize).zip(bands) {
            acc.fill(0);
            for row in band.chunks_exact(words_per_row) {
                for (a, w) in acc.iter_mut().zip(row) {
                    *a |= w;
                }
            }
            for (x, lo) in (0..width).step_by(factor).enumerate() {
                if any_ink(&acc, lo, (lo + factor).min(width)) {
                    if let Some(word) = dst.get_mut(x / 64) {
                        *word |= 1 << (x % 64);
                    }
                }
            }
        }
        out
    }

    /// Blits `src` onto `self` with its top-left corner at `at`, combining
    /// pixels per `mode`. Source pixels falling outside `self` are clipped.
    pub fn blit(&mut self, src: &Bitmap, at: Point, mode: BlitMode) {
        for y in 0..src.height as i32 {
            for x in 0..src.width as i32 {
                let s = src.get(x, y);
                let dx = at.x + x;
                let dy = at.y + y;
                match mode {
                    BlitMode::Replace => self.set(dx, dy, s),
                    BlitMode::Or => {
                        if s {
                            self.set(dx, dy, true);
                        }
                    }
                    BlitMode::Clear => {
                        if s {
                            self.set(dx, dy, false);
                        }
                    }
                    BlitMode::Xor => {
                        if s {
                            let d = self.get(dx, dy);
                            self.set(dx, dy, !d);
                        }
                    }
                }
            }
        }
    }

    /// Masked blit: where `mask` has ink, destination := `src` pixel;
    /// elsewhere the destination is left intact. This is the §2 overwrite
    /// semantics — note a masked pixel may be *blank* in `src`, which is
    /// how Figures 9–10 blank out the walked route.
    pub fn blit_masked(&mut self, src: &Bitmap, mask: &Bitmap, at: Point) {
        debug_assert_eq!(src.size(), mask.size(), "mask must match source size");
        for y in 0..src.height as i32 {
            for x in 0..src.width as i32 {
                if mask.get(x, y) {
                    self.set(at.x + x, at.y + y, src.get(x, y));
                }
            }
        }
    }

    /// Rows as strings of `#`/`.` for golden tests and terminal demos.
    pub fn to_ascii(&self) -> Vec<String> {
        (0..self.height as i32)
            .map(|y| {
                (0..self.width as i32).map(|x| if self.get(x, y) { '#' } else { '.' }).collect()
            })
            .collect()
    }

    /// Parses the format produced by [`Bitmap::to_ascii`]; any character
    /// other than `.` or space is ink.
    pub fn from_ascii(rows: &[&str]) -> Bitmap {
        let height = rows.len() as u32;
        let width = rows.iter().map(|r| r.chars().count()).max().unwrap_or(0) as u32;
        let mut bm = Bitmap::new(width, height);
        for (y, row) in rows.iter().enumerate() {
            for (x, ch) in row.chars().enumerate() {
                if ch != '.' && ch != ' ' {
                    bm.set(x as i32, y as i32, true);
                }
            }
        }
        bm
    }
}

/// The valid bits of a row's last word for a row `width` pixels wide.
fn last_word_mask(width: u32) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        rem => (1 << rem) - 1,
    }
}

/// Whether `row` has ink in bit range `[lo, hi)`, testing each word the
/// range touches with one mask.
fn any_ink(row: &[u64], lo: usize, hi: usize) -> bool {
    let mut start = lo;
    while start < hi {
        let end = hi.min((start / 64 + 1) * 64);
        let mask = (u64::MAX >> (64 - (end - start))) << (start % 64);
        if row.get(start / 64).is_some_and(|w| w & mask != 0) {
            return true;
        }
        start = end;
    }
    false
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Widths on and either side of word boundaries.
    pub(crate) const EDGE_WIDTHS: [u32; 14] =
        [0, 1, 7, 63, 64, 65, 127, 128, 129, 130, 191, 192, 193, 333];

    /// A `width × height` raster of one of four ink densities: 0 blank,
    /// 1 full, 2 sparse (about one pixel in 64), 3 about half.
    pub(crate) fn raster(width: u32, height: u32, density: u8, seed: u64) -> Bitmap {
        let mut bm = Bitmap::new(width, height);
        let mut state = seed | 1;
        for y in 0..height as i32 {
            for x in 0..width as i32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let ink = match density {
                    0 => false,
                    1 => true,
                    2 => state.is_multiple_of(64),
                    _ => state.is_multiple_of(2),
                };
                bm.set(x, y, ink);
            }
        }
        bm
    }

    /// The per-pixel `extract` the word kernel replaced.
    fn extract_per_pixel(bm: &Bitmap, rect: Rect) -> Bitmap {
        let mut out = Bitmap::new(rect.size.width, rect.size.height);
        for y in 0..rect.size.height as i32 {
            for x in 0..rect.size.width as i32 {
                if bm.get(rect.left() + x, rect.top() + y) {
                    out.set(x, y, true);
                }
            }
        }
        out
    }

    /// The bits at or past `width` in every row's last word.
    fn tail_bits(bm: &Bitmap) -> u64 {
        let tail = !last_word_mask(bm.width);
        bm.words
            .chunks(bm.words_per_row.max(1) as usize)
            .fold(0, |acc, row| acc | row.last().map_or(0, |w| w & tail))
    }

    #[test]
    fn bits_past_the_width_stay_zero() {
        // `extract` and `or_downsample` mask at the width rather than rely
        // on this; `count_ink`, `is_blank` and derived equality do rely on
        // it.
        for width in EDGE_WIDTHS.into_iter().filter(|w| !w.is_multiple_of(64)) {
            let edge = width as i32 - 1;
            let mut bm = Bitmap::new(width, 3);
            bm.set(edge, 0, true);
            bm.set(width as i32, 1, true);
            bm.set(width as i32 + 1, 2, true);
            assert_eq!(tail_bits(&bm), 0, "set, width {width}");
            bm.fill_rect(Rect::new(edge, 0, 70, 3), true);
            assert_eq!(tail_bits(&bm), 0, "fill_rect, width {width}");
            let src = raster(80, 3, 1, 5);
            for mode in [BlitMode::Replace, BlitMode::Or, BlitMode::Xor, BlitMode::Clear] {
                bm.blit(&src, Point::new(edge, 0), mode);
                assert_eq!(tail_bits(&bm), 0, "blit {mode:?}, width {width}");
            }
            let row = "#".repeat(width as usize);
            let ascii = Bitmap::from_ascii(&[&row, &row[..width as usize - 1]]);
            assert_eq!(tail_bits(&ascii), 0, "from_ascii, width {width}");
            assert_eq!(ascii.count_ink(), 2 * width as u64 - 1);
        }
    }

    #[test]
    fn extract_matches_the_per_pixel_copy_at_every_edge() {
        for width in EDGE_WIDTHS {
            for density in 0..4 {
                let bm = raster(width, 5, density, u64::from(width));
                for left in [0, 1, 63, 64, 65].into_iter().filter(|&l| l <= width) {
                    for right in [left, left + 1, width.saturating_sub(1).max(left), width] {
                        if right > width {
                            continue;
                        }
                        let rect = Rect::new(left as i32, 1, right - left, 4);
                        assert_eq!(
                            bm.extract(rect).unwrap(),
                            extract_per_pixel(&bm, rect),
                            "width {width} density {density} rect {rect:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn new_bitmap_is_blank() {
        let bm = Bitmap::new(100, 50);
        assert!(bm.is_blank());
        assert_eq!(bm.count_ink(), 0);
        assert_eq!(bm.size(), Size::new(100, 50));
    }

    #[test]
    fn set_get_round_trip() {
        let mut bm = Bitmap::new(130, 4); // spans multiple words per row
        bm.set(0, 0, true);
        bm.set(63, 1, true);
        bm.set(64, 1, true);
        bm.set(129, 3, true);
        assert!(bm.get(0, 0));
        assert!(bm.get(63, 1));
        assert!(bm.get(64, 1));
        assert!(bm.get(129, 3));
        assert!(!bm.get(1, 0));
        assert_eq!(bm.count_ink(), 4);
        bm.set(63, 1, false);
        assert!(!bm.get(63, 1));
        assert_eq!(bm.count_ink(), 3);
    }

    #[test]
    fn out_of_bounds_access_is_safe() {
        let mut bm = Bitmap::new(10, 10);
        bm.set(-1, 5, true);
        bm.set(5, -1, true);
        bm.set(10, 5, true);
        bm.set(5, 10, true);
        assert!(bm.is_blank());
        assert!(!bm.get(-1, -1));
        assert!(!bm.get(100, 100));
    }

    #[test]
    fn fill_rect_clips() {
        let mut bm = Bitmap::new(10, 10);
        bm.fill_rect(Rect::new(5, 5, 100, 100), true);
        assert_eq!(bm.count_ink(), 25);
        bm.fill_rect(Rect::new(-100, -100, 10, 10), true);
        assert_eq!(bm.count_ink(), 25); // fully off-screen
        bm.fill_rect(Rect::new(0, 0, 10, 10), false);
        assert!(bm.is_blank());
    }

    #[test]
    fn extract_matches_source() {
        let mut bm = Bitmap::new(20, 20);
        bm.fill_rect(Rect::new(4, 4, 6, 6), true);
        let ex = bm.extract(Rect::new(2, 2, 10, 10)).unwrap();
        assert_eq!(ex.size(), Size::new(10, 10));
        assert_eq!(ex.count_ink(), 36);
        assert!(ex.get(2, 2));
        assert!(!ex.get(0, 0));
    }

    #[test]
    fn extract_out_of_bounds_is_error() {
        let bm = Bitmap::new(20, 20);
        assert!(bm.extract(Rect::new(15, 15, 10, 10)).is_err());
        assert!(bm.extract(Rect::new(-1, 0, 5, 5)).is_err());
        assert!(bm.extract(Rect::new(0, 0, 20, 20)).is_ok());
    }

    #[test]
    fn blit_replace_copies_background_too() {
        let mut dst = Bitmap::new(8, 8);
        dst.fill_rect(Rect::new(0, 0, 8, 8), true);
        let src = Bitmap::new(4, 4); // blank
        dst.blit(&src, Point::new(2, 2), BlitMode::Replace);
        assert_eq!(dst.count_ink(), 64 - 16);
        assert!(!dst.get(3, 3));
        assert!(dst.get(0, 0));
    }

    #[test]
    fn blit_or_accumulates_ink() {
        let mut dst = Bitmap::new(8, 8);
        dst.set(0, 0, true);
        let mut src = Bitmap::new(8, 8);
        src.set(1, 1, true);
        dst.blit(&src, Point::ORIGIN, BlitMode::Or);
        assert!(dst.get(0, 0), "OR must not erase existing ink");
        assert!(dst.get(1, 1));
    }

    #[test]
    fn blit_clear_and_xor() {
        let mut dst = Bitmap::new(4, 4);
        dst.fill_rect(Rect::new(0, 0, 4, 4), true);
        let mut src = Bitmap::new(4, 4);
        src.set(1, 1, true);
        src.set(2, 2, true);
        dst.blit(&src, Point::ORIGIN, BlitMode::Clear);
        assert!(!dst.get(1, 1));
        assert!(dst.get(0, 0));
        dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
        assert!(dst.get(1, 1)); // was cleared, xor sets
        assert!(dst.get(0, 0)); // untouched by xor (src blank there)
    }

    #[test]
    fn blit_clips_at_edges() {
        let mut dst = Bitmap::new(4, 4);
        let mut src = Bitmap::new(4, 4);
        src.fill_rect(Rect::new(0, 0, 4, 4), true);
        dst.blit(&src, Point::new(2, 2), BlitMode::Or);
        assert_eq!(dst.count_ink(), 4);
        dst.blit(&src, Point::new(-2, -2), BlitMode::Or);
        // Adds the (0..2)x(0..2) block, disjoint from the first blit.
        assert_eq!(dst.count_ink(), 8);
    }

    #[test]
    fn masked_blit_replaces_only_under_mask() {
        // Destination all ink; source blank; mask marks a 2x2 block: those
        // pixels become blank (the "blank spots" of Figures 9-10).
        let mut dst = Bitmap::new(4, 4);
        dst.fill_rect(Rect::new(0, 0, 4, 4), true);
        let src = Bitmap::new(4, 4);
        let mut mask = Bitmap::new(4, 4);
        mask.fill_rect(Rect::new(1, 1, 2, 2), true);
        dst.blit_masked(&src, &mask, Point::ORIGIN);
        assert!(!dst.get(1, 1));
        assert!(!dst.get(2, 2));
        assert!(dst.get(0, 0), "unmasked pixels left intact");
        assert_eq!(dst.count_ink(), 12);
    }

    #[test]
    fn ascii_round_trip() {
        let rows = ["#..#", ".##.", "#..#"];
        let bm = Bitmap::from_ascii(&rows);
        assert_eq!(bm.to_ascii(), vec!["#..#", ".##.", "#..#"]);
        assert_eq!(bm.count_ink(), 6);
    }

    #[test]
    fn byte_size_accounts_packing() {
        assert_eq!(Bitmap::new(64, 10).byte_size(), 80);
        assert_eq!(Bitmap::new(65, 10).byte_size(), 160);
        assert_eq!(Bitmap::new(1, 1).byte_size(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blit_or_is_idempotent(
            pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32)
        ) {
            let mut src = Bitmap::new(16, 16);
            for (x, y) in &pts {
                src.set(*x, *y, true);
            }
            let mut once = Bitmap::new(16, 16);
            once.blit(&src, Point::ORIGIN, BlitMode::Or);
            let mut twice = once.clone();
            twice.blit(&src, Point::ORIGIN, BlitMode::Or);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn xor_twice_is_identity(
            base_pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32),
            src_pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32),
        ) {
            let mut dst = Bitmap::new(16, 16);
            for (x, y) in &base_pts { dst.set(*x, *y, true); }
            let orig = dst.clone();
            let mut src = Bitmap::new(16, 16);
            for (x, y) in &src_pts { src.set(*x, *y, true); }
            dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
            dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
            prop_assert_eq!(dst, orig);
        }

        #[test]
        fn extract_then_blit_replace_round_trips(
            pts in proptest::collection::vec((0i32..12, 0i32..12), 0..40)
        ) {
            let mut bm = Bitmap::new(12, 12);
            for (x, y) in &pts { bm.set(*x, *y, true); }
            let rect = Rect::new(2, 3, 8, 7);
            let ex = bm.extract(rect).unwrap();
            let mut back = bm.clone();
            back.fill_rect(rect, false);
            back.blit(&ex, rect.origin, BlitMode::Or);
            prop_assert_eq!(back, bm);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn extract_matches_the_per_pixel_copy(
            (boundary, edge_width, any_width) in
                (any::<bool>(), proptest::sample::select(EDGE_WIDTHS.to_vec()), 0u32..400),
            (height, density, seed) in (0u32..24, 0u8..4, any::<u64>()),
            (touch_left, touch_right, touch_top, touch_bottom) in
                (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            (a, b, c, d) in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let width = if boundary { edge_width } else { any_width };
            let bm = raster(width, height, density, seed);
            let left = if touch_left { 0 } else { a % (width + 1) };
            let right = if touch_right { width } else { left + b % (width - left + 1) };
            let top = if touch_top { 0 } else { c % (height + 1) };
            let bottom = if touch_bottom { height } else { top + d % (height - top + 1) };
            let rect = Rect::new(left as i32, top as i32, right - left, bottom - top);
            prop_assert_eq!(bm.extract(rect).unwrap(), extract_per_pixel(&bm, rect));
        }
    }
}
