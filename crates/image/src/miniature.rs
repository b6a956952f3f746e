//! Representation images (miniatures).
//!
//! "A representation of the image is an image itself, where only a high
//! level representation of the content of the image are presented in
//! positions which correspond to the actual positions of the objects of
//! the image (a miniature). The representation of the image is much smaller
//! than the image itself, and thus it is easily transferable to main memory
//! and projected on the display." (§2)
//!
//! A [`Miniature`] carries the downsampled raster plus the scale factor,
//! and converts geometry both ways so a view defined on the representation
//! maps onto the full image.

use crate::bitmap::Bitmap;
use minos_types::{Point, Rect, Size};

/// A downsampled representation of a full image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Miniature {
    raster: Bitmap,
    full_size: Size,
    /// Downsampling factor: one miniature pixel covers `factor × factor`
    /// full-image pixels.
    factor: u32,
}

impl Miniature {
    /// Builds a miniature by OR-downsampling: a miniature pixel is ink if
    /// any covered full pixel is ink, which keeps thin strokes (subway
    /// lines, polygon outlines) visible at small scale.
    pub fn build(full: &Bitmap, factor: u32) -> Self {
        assert!(factor > 0, "factor must be positive");
        Miniature { raster: full.or_downsample(factor), full_size: full.size(), factor }
    }

    /// The miniature raster.
    pub fn raster(&self) -> &Bitmap {
        &self.raster
    }

    /// The full image's extent.
    pub fn full_size(&self) -> Size {
        self.full_size
    }

    /// The downsampling factor.
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Transfer cost of the miniature in bytes.
    pub fn byte_size(&self) -> u64 {
        self.raster.byte_size()
    }

    /// Maps a point on the miniature to the corresponding full-image point
    /// (centre of the covered block).
    pub fn to_full(&self, p: Point) -> Point {
        let f = self.factor as i32;
        Point::new(p.x * f + f / 2, p.y * f + f / 2)
    }

    /// Maps a full-image point onto the miniature.
    pub fn to_miniature(&self, p: Point) -> Point {
        let f = self.factor as i32;
        Point::new(p.x.div_euclid(f), p.y.div_euclid(f))
    }

    /// Maps a rectangle drawn on the miniature (e.g. a view defined "on the
    /// top of a representation of the image", §2) to full-image
    /// coordinates, clamped inside the full image.
    pub fn rect_to_full(&self, r: Rect) -> Rect {
        let f = self.factor;
        let full = Rect::new(
            r.origin.x * f as i32,
            r.origin.y * f as i32,
            r.size.width * f,
            r.size.height * f,
        );
        full.clamp_within(Rect::of_size(self.full_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::tests::{raster, EDGE_WIDTHS};
    use proptest::prelude::*;

    /// The per-pixel OR-downsampling the word kernel replaced.
    fn build_per_pixel(full: &Bitmap, factor: u32) -> Bitmap {
        let w = full.width().div_ceil(factor);
        let h = full.height().div_ceil(factor);
        let mut raster = Bitmap::new(w, h);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                'block: for by in 0..factor as i32 {
                    for bx in 0..factor as i32 {
                        if full.get(x * factor as i32 + bx, y * factor as i32 + by) {
                            raster.set(x, y, true);
                            break 'block;
                        }
                    }
                }
            }
        }
        raster
    }

    fn striped(width: u32, height: u32) -> Bitmap {
        let mut bm = Bitmap::new(width, height);
        for y in (0..height as i32).step_by(8) {
            for x in 0..width as i32 {
                bm.set(x, y, true);
            }
        }
        bm
    }

    #[test]
    fn miniature_is_smaller() {
        let full = striped(640, 480);
        let mini = Miniature::build(&full, 8);
        assert_eq!(mini.raster().size(), Size::new(80, 60));
        assert!(mini.byte_size() * 32 <= full.byte_size());
    }

    #[test]
    fn or_downsampling_keeps_thin_strokes() {
        let mut full = Bitmap::new(64, 64);
        for x in 0..64 {
            full.set(x, 17, true); // one-pixel horizontal stroke
        }
        let mini = Miniature::build(&full, 8);
        // The stroke survives in miniature row 2.
        assert!((0..8).all(|x| mini.raster().get(x, 2)));
    }

    #[test]
    fn blank_image_gives_blank_miniature() {
        let mini = Miniature::build(&Bitmap::new(100, 100), 10);
        assert!(mini.raster().is_blank());
    }

    #[test]
    fn point_mapping_round_trips_within_a_block() {
        let full = striped(320, 240);
        let mini = Miniature::build(&full, 8);
        let p = Point::new(13, 9);
        let fp = mini.to_full(p);
        assert_eq!(mini.to_miniature(fp), p);
    }

    #[test]
    fn rect_to_full_scales_and_clamps() {
        let full = striped(320, 240);
        let mini = Miniature::build(&full, 8);
        let r = mini.rect_to_full(Rect::new(2, 3, 10, 5));
        assert_eq!(r, Rect::new(16, 24, 80, 40));
        // A rect running off the miniature edge clamps inside the full image.
        let r = mini.rect_to_full(Rect::new(38, 28, 10, 10));
        assert!(Rect::of_size(Size::new(320, 240)).contains_rect(r));
        assert_eq!(r.size, Size::new(80, 80));
    }

    #[test]
    fn uneven_dimensions_round_up() {
        let full = Bitmap::new(65, 33);
        let mini = Miniature::build(&full, 8);
        assert_eq!(mini.raster().size(), Size::new(9, 5));
    }

    #[test]
    fn build_matches_the_per_pixel_loop_on_the_edge_grid() {
        let factors = [1, 2, 3, 5, 7, 8, 9, 16, 31, 64, 65, 100, 400];
        for width in [1, 7, 63, 64, 65, 127, 128, 130, 200, 333] {
            for height in [1, 5, 8, 9, 17, 40] {
                for density in 0..4 {
                    let full = raster(width, height, density, u64::from(width * height));
                    for factor in factors {
                        assert_eq!(
                            *Miniature::build(&full, factor).raster(),
                            build_per_pixel(&full, factor),
                            "{width}x{height} density {density} factor {factor}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_matches_the_per_pixel_loop(
            (boundary, edge_width, any_width) in
                (any::<bool>(), proptest::sample::select(EDGE_WIDTHS.to_vec()), 0u32..400),
            (height, density, seed) in (0u32..48, 0u8..4, any::<u64>()),
            factor in 1u32..140,
        ) {
            let width = if boundary { edge_width } else { any_width };
            let full = raster(width, height, density, seed);
            prop_assert_eq!(*Miniature::build(&full, factor).raster(), build_per_pixel(&full, factor));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let _ = Miniature::build(&Bitmap::new(10, 10), 0);
    }
}
