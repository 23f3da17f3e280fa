//! LabelMe-compatible annotation documents.
//!
//! The study labeled images with the LabelMe tool; this module reads and
//! writes the same JSON shape schema (rectangle shapes with two corner
//! points) so annotations interoperate with real LabelMe files.

use nbhd_types::{BBox, Error, ImageId, ImageLabels, Indicator, ObjectLabel, Point, Result};
use serde::{Deserialize, Serialize};

/// A LabelMe annotation document for one image.
///
/// ```
/// use nbhd_annotate::LabelMeDoc;
/// use nbhd_types::{BBox, Heading, ImageId, ImageLabels, Indicator, LocationId, ObjectLabel};
///
/// let mut labels = ImageLabels::new(ImageId::new(LocationId(4), Heading::East));
/// labels.push(ObjectLabel::new(Indicator::Powerline, BBox::new(0.0, 10.0, 200.0, 80.0)));
/// let doc = LabelMeDoc::from_labels(&labels, 640);
/// let json = doc.to_json().unwrap();
/// let back = LabelMeDoc::from_json(&json).unwrap();
/// assert_eq!(back.to_labels().unwrap().objects, labels.objects);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelMeDoc {
    /// Tool version the document claims compatibility with.
    pub version: String,
    /// Free-form image-level flags.
    #[serde(default)]
    pub flags: serde_json::Map<String, serde_json::Value>,
    /// The labeled shapes.
    pub shapes: Vec<LabelMeShape>,
    /// Image file name the annotations refer to.
    #[serde(rename = "imagePath")]
    pub image_path: String,
    /// Image height in pixels.
    #[serde(rename = "imageHeight")]
    pub image_height: u32,
    /// Image width in pixels.
    #[serde(rename = "imageWidth")]
    pub image_width: u32,
}

/// One labeled shape (always `rectangle` in this workspace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelMeShape {
    /// The class label string.
    pub label: String,
    /// Corner points `[[x0, y0], [x1, y1]]`.
    pub points: Vec<[f32; 2]>,
    /// Optional instance group.
    #[serde(default)]
    pub group_id: Option<u32>,
    /// The shape kind; this crate writes and reads `"rectangle"`.
    pub shape_type: String,
    /// Free-form shape-level flags.
    #[serde(default)]
    pub flags: serde_json::Map<String, serde_json::Value>,
}

impl LabelMeDoc {
    /// Builds a document from workspace labels.
    pub fn from_labels(labels: &ImageLabels, image_size: u32) -> LabelMeDoc {
        LabelMeDoc {
            version: "5.2.1".to_owned(),
            flags: serde_json::Map::new(),
            shapes: labels
                .objects
                .iter()
                .map(|o| LabelMeShape {
                    label: o.indicator.label_key().to_owned(),
                    points: vec![[o.bbox.x, o.bbox.y], [o.bbox.right(), o.bbox.bottom()]],
                    group_id: None,
                    shape_type: "rectangle".to_owned(),
                    flags: serde_json::Map::new(),
                })
                .collect(),
            image_path: format!("{}.png", labels.image),
            image_height: image_size,
            image_width: image_size,
        }
    }

    /// Converts the document back to workspace labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for unknown labels, non-rectangle shapes,
    /// malformed or non-finite points, or an image path that does not
    /// encode an image id.
    pub fn to_labels(&self) -> Result<ImageLabels> {
        let image = parse_image_path(&self.image_path)?;
        let mut labels = ImageLabels::new(image);
        for shape in &self.shapes {
            if shape.shape_type != "rectangle" {
                return Err(Error::parse(format!(
                    "unsupported shape type {:?}",
                    shape.shape_type
                )));
            }
            if shape.points.len() != 2 {
                return Err(Error::parse(format!(
                    "rectangle must have 2 points, got {}",
                    shape.points.len()
                )));
            }
            let indicator: Indicator = shape
                .label
                .parse()
                .map_err(|e| Error::parse(format!("bad label: {e}")))?;
            let bbox = BBox::from_corners(
                Point::new(shape.points[0][0], shape.points[0][1]),
                Point::new(shape.points[1][0], shape.points[1][1]),
            );
            labels.push(ObjectLabel::new(indicator, bbox));
        }
        labels.check_boxes().map_err(Error::parse)?;
        Ok(labels)
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when serialization fails (it cannot for
    /// well-formed documents).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| Error::parse(e.to_string()))
    }

    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<LabelMeDoc> {
        serde_json::from_str(json).map_err(|e| Error::parse(e.to_string()))
    }
}

/// Parses `loc-000004@90.png` style paths back to an [`ImageId`].
fn parse_image_path(path: &str) -> Result<ImageId> {
    let stem = path.trim_end_matches(".png").trim_end_matches(".jpg");
    let (loc_part, heading_part) = stem
        .split_once('@')
        .ok_or_else(|| Error::parse(format!("image path {path:?} has no heading")))?;
    let loc: u64 = loc_part
        .trim_start_matches("loc-")
        .parse()
        .map_err(|_| Error::parse(format!("bad location in {path:?}")))?;
    let deg: u16 = heading_part
        .parse()
        .map_err(|_| Error::parse(format!("bad heading in {path:?}")))?;
    let heading = nbhd_types::Heading::from_degrees(deg)
        .ok_or_else(|| Error::parse(format!("heading {deg} not a cardinal direction")))?;
    Ok(ImageId::new(nbhd_types::LocationId(loc), heading))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_types::{Heading, LocationId};

    fn sample_labels() -> ImageLabels {
        let mut l = ImageLabels::new(ImageId::new(LocationId(12), Heading::South));
        l.push(ObjectLabel::new(
            Indicator::Sidewalk,
            BBox::new(10.0, 400.0, 600.0, 50.0),
        ));
        l.push(ObjectLabel::new(
            Indicator::Streetlight,
            BBox::new(80.0, 100.0, 30.0, 250.0),
        ));
        l
    }

    #[test]
    fn round_trip_preserves_labels() {
        let labels = sample_labels();
        let doc = LabelMeDoc::from_labels(&labels, 640);
        let json = doc.to_json().unwrap();
        let parsed = LabelMeDoc::from_json(&json).unwrap();
        let back = parsed.to_labels().unwrap();
        assert_eq!(back.image, labels.image);
        assert_eq!(back.objects, labels.objects);
    }

    #[test]
    fn document_uses_labelme_field_names() {
        let doc = LabelMeDoc::from_labels(&sample_labels(), 640);
        let json = doc.to_json().unwrap();
        assert!(json.contains("\"imagePath\""));
        assert!(json.contains("\"imageHeight\""));
        assert!(json.contains("\"shape_type\""));
        assert!(json.contains("\"rectangle\""));
        assert!(json.contains("\"sidewalk\""));
    }

    #[test]
    fn rejects_unknown_labels_and_shapes() {
        let mut doc = LabelMeDoc::from_labels(&sample_labels(), 640);
        doc.shapes[0].label = "mailbox".to_owned();
        assert!(doc.to_labels().is_err());
        let mut doc2 = LabelMeDoc::from_labels(&sample_labels(), 640);
        doc2.shapes[0].shape_type = "polygon".to_owned();
        assert!(doc2.to_labels().is_err());
    }

    #[test]
    fn rejects_bad_image_paths() {
        let mut doc = LabelMeDoc::from_labels(&sample_labels(), 640);
        doc.image_path = "whatever.png".to_owned();
        assert!(doc.to_labels().is_err());
        doc.image_path = "loc-00001@45.png".to_owned();
        assert!(doc.to_labels().is_err(), "45 degrees is not cardinal");
    }

    #[test]
    fn parses_real_labelme_json() {
        // hand-written document in the exact format the LabelMe tool saves
        let json = r##"{
            "version": "5.2.1",
            "flags": {},
            "shapes": [
                {
                    "label": "powerline",
                    "points": [[0.0, 20.0], [640.0, 180.0]],
                    "group_id": null,
                    "shape_type": "rectangle",
                    "flags": {}
                }
            ],
            "imagePath": "loc-000099@270.png",
            "imageHeight": 640,
            "imageWidth": 640
        }"##;
        let doc = LabelMeDoc::from_json(json).unwrap();
        let labels = doc.to_labels().unwrap();
        assert_eq!(labels.image.location, LocationId(99));
        assert_eq!(labels.image.heading, Heading::West);
        assert_eq!(labels.objects[0].indicator, Indicator::Powerline);
        assert_eq!(labels.objects[0].bbox.w, 640.0);
    }

    #[test]
    fn rejects_corners_that_overflow_f32() {
        for corner in ["1e39", "-1e39"] {
            let json = format!(
                r#"{{"version": "5.2.1", "shapes": [{{"label": "powerline",
                    "points": [[0.0, 20.0], [{corner}, 180.0]], "shape_type": "rectangle"}}],
                    "imagePath": "loc-000099@270.png", "imageHeight": 640, "imageWidth": 640}}"#
            );
            let doc = LabelMeDoc::from_json(&json).unwrap();
            let err = doc.to_labels().unwrap_err();
            assert!(matches!(err, Error::Parse(_)), "corner {corner}: {err}");
        }
    }
}
