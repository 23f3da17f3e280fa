//! Golden hashes of the detector fit and scan: the trained detector's JSON,
//! every scan detection and class score on the test split, and the t1, f2
//! and f3 comparison rows of a smoke-scale study, at 1, 2 and 4 workers.
//!
//! The expected values were recorded before the feature map, the scan's
//! pooling and the SGD step were reworked; any change to a weight bit, a
//! threshold, a detection box or score bit, or a row value moves them.

use nbhd::prelude::*;

/// FNV-1a, fed field by field with a separator so that concatenations of
/// different splits never collide.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    fn f32(&mut self, v: f32) -> &mut Fnv {
        self.u64(u64::from(v.to_bits()))
    }
}

/// Every scan detection (class, box and score bits) and every class score
/// of every test image, in split order.
fn scans_hash(detector: &Detector, survey: &SurveyDataset) -> u64 {
    let mut h = Fnv::new();
    for &id in &survey.dataset().split().test {
        let img = survey.image(id).expect("survey image");
        let integral = detector.integral(&img);
        let detections = detector.scan(&integral, img.width(), 0.0);
        h.bytes(id.to_string().as_bytes())
            .u64(detections.len() as u64);
        for d in detections {
            h.bytes(d.indicator.label_key().as_bytes());
            for v in [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.score] {
                h.f32(v);
            }
        }
        for (_, &score) in detector.class_scores(&integral, img.width()).iter() {
            h.f32(score);
        }
    }
    h.0
}

/// The detector JSON, test-split scans, and t1/f2/f3 rows of a study on a
/// smoke survey cut to 12 locations at 96 px (48 images), hashed apart. The
/// cut keeps the three worker counts, f2's three fits included, near 15 s
/// in the test profile.
fn golden(workers: usize) -> [u64; 3] {
    let survey = SurveyPipeline::new(SurveyConfig {
        parallelism: Parallelism::fixed(workers),
        locations: 12,
        image_size: 96,
        ..SurveyConfig::smoke(2028)
    })
    .run()
    .expect("smoke survey");
    let experiments = PaperExperiments::new(survey);
    let mut rows = Fnv::new();
    for f in [
        PaperExperiments::t1_baseline,
        PaperExperiments::f2_augmentation,
        PaperExperiments::f3_noise,
    ] {
        let report = f(&experiments).expect("experiment");
        rows.bytes(report.id.as_bytes());
        for row in &report.comparisons {
            rows.bytes(row.name.as_bytes()).u64(row.measured.to_bits());
        }
    }
    let detector = &experiments.baseline().expect("cached baseline").detector;
    let json = detector.to_json().expect("detector json");
    [
        Fnv::new().bytes(json.as_bytes()).0,
        scans_hash(detector, experiments.survey()),
        rows.0,
    ]
}

/// Detector JSON, test-split scans, t1/f2/f3 rows.
const GOLDEN: [u64; 3] = [
    8_047_540_137_934_895_971,
    6_710_072_687_137_353_563,
    7_742_060_024_789_757_021,
];

#[test]
fn the_smoke_fit_scans_and_rows_match_their_golden_hashes_at_1_2_and_4_workers() {
    for workers in [1, 2, 4] {
        assert_eq!(golden(workers), GOLDEN, "{workers} workers");
    }
}
