//! Object-level and image-level labels.

use serde::{Deserialize, Serialize};

use crate::{BBox, ImageId, Indicator, IndicatorSet};

/// One labeled object: an indicator class plus its bounding box.
///
/// ```
/// use nbhd_types::{BBox, Indicator, ObjectLabel};
/// let obj = ObjectLabel::new(Indicator::Streetlight, BBox::new(10.0, 5.0, 8.0, 60.0));
/// assert_eq!(obj.indicator, Indicator::Streetlight);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectLabel {
    /// The indicator class of the object.
    pub indicator: Indicator,
    /// The object's bounding box in image pixels.
    pub bbox: BBox,
}

impl ObjectLabel {
    /// Creates a labeled object.
    pub const fn new(indicator: Indicator, bbox: BBox) -> Self {
        ObjectLabel { indicator, bbox }
    }
}

/// All labels for a single captured image.
///
/// The study labels *objects* (for the detector) but evaluates LLMs on
/// *presence*; [`ImageLabels::presence`] derives the latter from the former.
///
/// # Examples
///
/// ```
/// use nbhd_types::{BBox, Heading, ImageId, ImageLabels, Indicator, LocationId, ObjectLabel};
///
/// let mut labels = ImageLabels::new(ImageId::new(LocationId(1), Heading::North));
/// labels.push(ObjectLabel::new(Indicator::Sidewalk, BBox::new(0.0, 400.0, 640.0, 40.0)));
/// assert!(labels.presence().contains(Indicator::Sidewalk));
/// assert_eq!(labels.count_of(Indicator::Sidewalk), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageLabels {
    /// Which image these labels belong to.
    pub image: ImageId,
    /// The labeled objects, in no particular order.
    pub objects: Vec<ObjectLabel>,
}

impl ImageLabels {
    /// Creates an empty label set for `image`.
    pub const fn new(image: ImageId) -> Self {
        ImageLabels {
            image,
            objects: Vec::new(),
        }
    }

    /// Creates a label set from parts.
    pub fn with_objects(image: ImageId, objects: Vec<ObjectLabel>) -> Self {
        ImageLabels { image, objects }
    }

    /// Adds one labeled object.
    pub fn push(&mut self, object: ObjectLabel) {
        self.objects.push(object);
    }

    /// Number of labeled objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` when the image has no labeled objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The set of indicators with at least one labeled object.
    pub fn presence(&self) -> IndicatorSet {
        self.objects.iter().map(|o| o.indicator).collect()
    }

    /// Number of labeled objects of the given class.
    pub fn count_of(&self, indicator: Indicator) -> usize {
        self.objects
            .iter()
            .filter(|o| o.indicator == indicator)
            .count()
    }

    /// Iterates over objects of the given class.
    pub fn of_class(&self, indicator: Indicator) -> impl Iterator<Item = &ObjectLabel> {
        self.objects
            .iter()
            .filter(move |o| o.indicator == indicator)
    }

    /// Checks labels read from outside the process (a journal record, a
    /// LabelMe file) before they can reach a dataset: a box that is
    /// non-finite or has a negative size is a bad input, never a silent
    /// misparse.
    ///
    /// # Errors
    ///
    /// Names the image and the first offending object.
    pub fn check_boxes(&self) -> Result<(), String> {
        for (i, object) in self.objects.iter().enumerate() {
            let b = object.bbox;
            if ![b.x, b.y, b.w, b.h].iter().all(|v| v.is_finite()) || b.w < 0.0 || b.h < 0.0 {
                return Err(format!(
                    "{}: object {i}: non-finite or negative-size box",
                    self.image
                ));
            }
        }
        Ok(())
    }
}

impl Extend<ObjectLabel> for ImageLabels {
    fn extend<T: IntoIterator<Item = ObjectLabel>>(&mut self, iter: T) {
        self.objects.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heading, LocationId};

    fn sample() -> ImageLabels {
        let mut l = ImageLabels::new(ImageId::new(LocationId(9), Heading::East));
        l.push(ObjectLabel::new(
            Indicator::Powerline,
            BBox::new(0.0, 0.0, 640.0, 120.0),
        ));
        l.push(ObjectLabel::new(
            Indicator::Powerline,
            BBox::new(100.0, 10.0, 30.0, 200.0),
        ));
        l.push(ObjectLabel::new(
            Indicator::Apartment,
            BBox::new(300.0, 150.0, 200.0, 180.0),
        ));
        l
    }

    #[test]
    fn presence_derives_from_objects() {
        let l = sample();
        let p = l.presence();
        assert!(p.contains(Indicator::Powerline));
        assert!(p.contains(Indicator::Apartment));
        assert!(!p.contains(Indicator::Sidewalk));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn counts_per_class() {
        let l = sample();
        assert_eq!(l.count_of(Indicator::Powerline), 2);
        assert_eq!(l.count_of(Indicator::Apartment), 1);
        assert_eq!(l.count_of(Indicator::Streetlight), 0);
        assert_eq!(l.of_class(Indicator::Powerline).count(), 2);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut l = ImageLabels::new(ImageId::new(LocationId(1), Heading::North));
        l.extend(sample().objects);
        assert_eq!(l.len(), 3);
    }
}
